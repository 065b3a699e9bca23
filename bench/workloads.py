"""The four benchmark workloads: seeded inputs, the timed program call, and
the reference check of every output.

A workload is a fixed composition of ops (one *pass*) whose parameters are
drawn from ``numpy.random.default_rng([seed, pass_index])``: the same seed
gives the same inputs, every pass gets fresh inputs, and the work in a pass
does not depend on the seed.  Ops go through the public API and through
``cubgreeks.cli.main`` in this process, with one thread.  Names are looked up
on the package modules at call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cubgreeks
import cubgreeks.cli


@dataclass(frozen=True)
class Op:
    label: str
    params: tuple


@dataclass(frozen=True)
class Outcome:
    """What a reference check found: ``error`` is None when the op failed."""

    output: str  # canonical text of every output number, for the digest
    error: float | None
    reason: str = ""


WARMUP_PASS = 2**32 - 1  # the warm-up op's own stream, apart from every pass


def pass_rng(seed, pass_index):
    return np.random.default_rng([seed & (2**64 - 1), pass_index])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cubgreeks.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_failure(label, code, stdout, stderr):
    reason = f"{label}: exit code {code}: {stderr.strip()[:200]}"
    return Outcome(stdout, None, reason)


class IteratedDelta:
    """CLI ``greek --partition k,gamma --s0 s0``: the iterated delta on
    Black-Scholes (r=0.05, sigma=0.3), smoothed call K=1.15 eps=0.05, t=1, m=2.

    A pass is m'=5 k=2, m'=3 k=7, two m'=3 k=8 and m'=3 k=9; k=8 twice makes
    the median op a k=8 request.  The reference is the quadrature
    delta of ``mc.bs_closed_form``.  The largest errors measured over s0 in
    [0.05, 0.2] and gamma in [1, 3] are 0.023 for m'=3 and 0.075 for m'=5
    k=2 (the scheme's known bias at these partitions); the tolerances are
    about twice that.
    """

    name = "iterated_delta"
    interpreter_bound = True
    MIX = ((5, 2), (3, 7), (3, 8), (3, 8), (3, 9))
    TOLERANCE = {3: 0.05, 5: 0.15}
    PAYOFF = "smoothed_call:1.15:0.05"

    def __init__(self, out_dir: Path):
        self.model = out_dir / "black_scholes.json"
        self.model.write_text('{"model": "black_scholes", "params": {"r": 0.05, "sigma": 0.3}}\n')
        payoff = cubgreeks.mc.parse_payoff(self.PAYOFF)
        _, self.reference = cubgreeks.bs_closed_form(0.05, 0.3, 1.0, 1.0, payoff)

    def ops(self, seed, pass_index):
        rng = pass_rng(seed, pass_index)
        out = []
        for m_prime, k in self.MIX:
            s0 = float(rng.uniform(0.05, 0.2))
            gamma = float(rng.uniform(1.0, 3.0))
            out.append(Op(f"m{m_prime}k{k}", (m_prime, k, s0, gamma)))
        return out

    def warmup(self, seed):
        # the m'=5 op also solves and caches the degree-5 unit formula
        return self.ops(seed, WARMUP_PASS)[0]

    def call(self, op):
        m_prime, k, s0, gamma = op.params
        return run_cli([
            "greek", "--model", str(self.model), "--y", "1.0", "--direction", "1",
            "--t", "1.0", "--m", "2", "--mprime", str(m_prime), "--s0", repr(s0),
            "--partition", f"{k},{gamma!r}", "--payoff", self.PAYOFF,
        ])

    def check(self, op, raw):
        code, stdout, stderr = raw
        if code != 0:
            return _cli_failure(op.label, code, stdout, stderr)
        error = abs(json.loads(stdout)["estimate"] - self.reference)
        if error > self.TOLERANCE[op.params[0]]:
            return Outcome(stdout, None, f"{op.label}: |delta - reference| = {error:.3e}")
        return Outcome(stdout, error)


def _hypo_payoff(x):
    x = np.asarray(x, dtype=float)
    return x[..., 1] * (1.0 + np.sin(x[..., 0]))


class HypoGreekGrid:
    """Library ``greek_one_step`` on ``heisenberg_toy`` in the bracket
    direction [V1,V2](y) at m=3, payoff x1 (1 + sin x0).

    A pass is 30 ops, y ~ U[-1,1]^2 and t drawn from {0.05, 0.1, 0.2}.  The
    closed form is d/dy1 E f = 1 + sin(y0) exp(-t/2); the largest error on a
    grid over y at t=0.2 is 2.7e-3, and the tolerance is 1e-2.
    """

    name = "hypo_greek_grid"
    interpreter_bound = True
    OPS_PER_PASS = 30
    HORIZONS = (0.05, 0.1, 0.2)
    TOLERANCE = 1e-2

    def __init__(self, out_dir: Path):
        self.system = cubgreeks.heisenberg_toy()

    def ops(self, seed, pass_index):
        rng = pass_rng(seed, pass_index)
        out = []
        for _ in range(self.OPS_PER_PASS):
            y = tuple(float(c) for c in rng.uniform(-1.0, 1.0, size=2))
            t = float(self.HORIZONS[rng.integers(len(self.HORIZONS))])
            out.append(Op(f"t{t}", (y, t)))
        return out

    def warmup(self, seed):
        return self.ops(seed, WARMUP_PASS)[0]

    def call(self, op):
        y, t = op.params
        v = cubgreeks.bracket_vf(self.system, 1, 2, y)
        return cubgreeks.greek_one_step(self.system, _hypo_payoff, y, v, t, 3)

    def check(self, op, result):
        (y0, _), t = op.params
        output = json.dumps([
            result.estimate.hex(),
            result.paths_evaluated,
            [r.hex() for r in result.formula_residuals],
        ])
        error = abs(result.estimate - (1.0 + math.sin(y0) * math.exp(-0.5 * t)))
        if error > self.TOLERANCE:
            return Outcome(output, None, f"{op.label} y={op.params[0]}: error {error:.3e}")
        return Outcome(output, error)


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class AlgebraVerify:
    """CLI ``verify --d D --m M --seed s`` over (1,5), (2,4), (2,5), (3,4).

    Every property row must read PASS and the exit code must be 0; the error
    is the largest ``max_error`` of the property table.
    """

    name = "algebra_verify"
    interpreter_bound = True
    CONTEXTS = ((1, 5), (2, 4), (2, 5), (3, 4))

    def __init__(self, out_dir: Path):
        pass

    def ops(self, seed, pass_index):
        rng = pass_rng(seed, pass_index)
        return [
            Op(f"d{d}m{m}", (d, m, int(rng.integers(2**31))))
            for d, m in self.CONTEXTS
        ]

    def warmup(self, seed):
        return self.ops(seed, WARMUP_PASS)[0]

    def call(self, op):
        d, m, seed = op.params
        return run_cli(["verify", "--d", str(d), "--m", str(m), "--seed", str(seed)])

    def check(self, op, raw):
        code, stdout, stderr = raw
        if code != 0:
            return _cli_failure(op.label, code, stdout, stderr)
        rows = _csv_rows(stdout)
        failing = [r["check"] for r in rows if r["status"] != "PASS"]
        if not rows or failing:
            return Outcome(stdout, None, f"{op.label}: failing rows {failing}")
        return Outcome(stdout, max(float(r["max_error"]) for r in rows))


# The command exits 1 when a z-score exceeds 4, which a correct Monte Carlo
# estimator does for roughly one seed in a few hundred.  Seeds 0..47 each ran
# at the defaults with every z-score below 3.5, and all but 40 also pass at
# the warm-up's 2,000 paths, so drawing from them keeps that statistical
# false alarm out of the failure count.
MC_SEEDS = tuple(s for s in range(48) if s != 40)


class McOracle:
    """CLI ``diagnostics`` at its defaults (20,000 paths x 128 steps).

    A pass is one op with ``--seed`` drawn from ``MC_SEEDS``; the exit code must
    be 0.  The error is the larger |delta - closed form| of the Malliavin and
    finite-difference rows.  The warm-up op runs 2,000 paths: it fills the
    same caches and imports at a tenth of the cost.
    """

    name = "mc_oracle"
    interpreter_bound = False  # 20,000-row numpy kernels: timed as measured
    WARMUP_PATHS = 2000

    def __init__(self, out_dir: Path):
        pass

    def ops(self, seed, pass_index):
        rng = pass_rng(seed, pass_index)
        return [Op("diagnostics", (int(MC_SEEDS[rng.integers(len(MC_SEEDS))]), None))]

    def warmup(self, seed):
        op = self.ops(seed, WARMUP_PASS)[0]
        return Op("warmup", (op.params[0], self.WARMUP_PATHS))

    def call(self, op):
        seed, paths = op.params
        argv = ["diagnostics", "--seed", str(seed)]
        if paths is not None:
            argv += ["--paths", str(paths)]
        return run_cli(argv)

    def check(self, op, raw):
        code, stdout, stderr = raw
        if code != 0:
            return _cli_failure(op.label, code, stdout, stderr)
        deltas = [r for r in _csv_rows(stdout) if r["quantity"] in ("malliavin_delta", "fd_delta")]
        if len(deltas) != 2:
            return Outcome(stdout, None, f"{op.label}: delta rows missing")
        return Outcome(stdout, max(abs(float(r["estimate"]) - float(r["reference"])) for r in deltas))


WORKLOADS = {w.name: w for w in (IteratedDelta, HypoGreekGrid, AlgebraVerify, McOracle)}
