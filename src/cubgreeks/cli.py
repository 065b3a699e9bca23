"""Batch command-line front end.

Commands: verify (property suites), greek (one-step or iterated estimates),
converge (order studies against closed forms), diagnostics (Monte Carlo
cross-checks), cubature export/import (formula files).  Every command is
deterministic given its full flag set; exit codes are 0 (success),
1 (numerical/tolerance failure: any other ``CubatureError``), 2 (usage or
configuration error: a flag argparse refuses, or a ``ConfigError``,
``DomainError``, ``UnsupportedDegreeError`` or ``UnsupportedPayoffError``).

Seven long flags can also come from the environment as ``CUBGREEKS_<NAME>``:
``--out``, ``--format``, ``--seed``, ``--threads``, ``--model``, ``--paths``
and ``--steps`` (e.g. ``CUBGREEKS_SEED``); explicit flags win.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import os
import re
import sys
from functools import lru_cache

import numpy as np

from . import algebra, checks, cubature, greeks, mc, paths, rng, sde
from .algebra import context
from .errors import ConfigError, CubatureError, DomainError, UnsupportedDegreeError, UnsupportedPayoffError

ENV_PREFIX = "CUBGREEKS_"


# ---------------------------------------------------------------------------
# direction flag: a vector, or an expression in V<i>, brackets [a,b], real
# multiples c*a and sums a+b-c, read by Python's parser and never evaluated


def parse_direction(text, system, y):
    """Resolve a direction flag: comma-separated vector or symbolic expression."""
    text = text.strip()
    if "V" not in text:
        vec = _parse_vector(text, "direction")
        if len(vec) != system.dim:
            raise ConfigError(f"direction vector has {len(vec)} entries, state dim is {system.dim}")
        return vec
    try:
        expr = _field_expr(ast.parse(text, mode="eval").body, system.d)
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError, UnsupportedDegreeError) as exc:
        raise ConfigError(f"cannot parse direction: {exc}") from exc
    return expr.value(system, np.asarray(y, dtype=float))


def _field_expr(node, d):
    """The sde.FieldExpr of a parsed direction; other syntax is a ConfigError."""
    if isinstance(node, ast.Name) and node.id[:1] == "V" and node.id[1:].isdecimal():
        if int(node.id[1:]) > d:
            raise ConfigError(f"direction uses {node.id}, model has V0..V{d}")
        return sde.FieldExpr.base(int(node.id[1:]))
    if isinstance(node, ast.List) and len(node.elts) == 2:
        return sde.FieldExpr.commutator(*(_field_expr(e, d) for e in node.elts))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        coeff, inner = _coefficient(node.left), _field_expr(node.right, d)
        return inner if coeff == 1.0 else sde.FieldExpr.combination([(coeff, inner)])
    terms = []  # a +/- chain is one combination; its tree nests to the left
    while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        terms.append((1.0 if isinstance(node.op, ast.Add) else -1.0, _field_expr(node.right, d)))
        node = node.left
    if terms:
        return sde.FieldExpr.combination([(1.0, _field_expr(node, d))] + terms[::-1])
    raise ConfigError(
        f"unexpected {ast.unparse(node)!r} in direction (use V<i>, [a,b], <number>*a, a+b, a-b)"
    )


def _coefficient(node):
    """A finite real literal, optionally signed."""
    sign = 1.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        sign, node = (-1.0 if isinstance(node.op, ast.USub) else 1.0), node.operand
    value = node.value if isinstance(node, ast.Constant) else None
    if type(value) in (int, float) and math.isfinite(sign * float(value)):
        return sign * float(value)
    raise ConfigError(f"direction coefficient must be a finite real number, got {ast.unparse(node)!r}")


def parse_scale(text, t):
    """'sqrt_t' or 't^p' / 't^p/q' to a multiplicative factor."""
    if text is None:
        return 1.0
    if text == "sqrt_t":
        return math.sqrt(t)
    match = re.fullmatch(r"t\^(\d+)(?:/(\d+))?", text)
    if match:
        p = float(match.group(1))
        q = float(match.group(2)) if match.group(2) else 1.0
        try:
            return t ** (p / q)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"scale {text!r} has no finite value at t={t}") from exc
    raise ConfigError(f"cannot parse scale {text!r} (use sqrt_t or t^<p>/<q>)")


def _parse_vector(text, name):
    try:
        vec = np.array([float(p) for p in str(text).split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name} vector from {text!r}") from exc
    if not np.all(np.isfinite(vec)):
        raise ConfigError(f"{name} vector {text!r} has a non-finite entry")
    return vec


# ---------------------------------------------------------------------------
# output plumbing


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data, out):
    _emit(json.dumps(data, indent=2, sort_keys=True) + "\n", out)


def _emit_table(header, rows, fmt, out):
    if fmt == "json":
        return _emit_json([dict(zip(header, row)) for row in rows], out)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args):
    results = checks.run_property_checks(args.d, args.m, seed=args.seed)
    rows = [
        (r.name, "PASS" if r.passed else "FAIL", f"{r.max_error:.3e}", f"{r.tolerance:.1e}")
        for r in results
    ]
    _emit_table(["check", "status", "max_error", "tolerance"], rows, args.format, args.out)
    if args.out:
        for name, status, err, tol in rows:
            print(f"{status:4s}  {name:32s} max_error={err} tol={tol}")
    return 0 if all(r.passed for r in results) else 1


def _load_model(args):
    """(system, {param: float}) from --model, read and parsed once."""
    if not args.model:
        raise ConfigError("--model is required for this command")
    config = sde.model_config(args.model)
    return sde.load_model(config), config["params"]


def _state_and_directions(args, system, t_values):
    """--y checked against the model, and --direction at that state scaled by
    --scale for each horizon in t_values (parsed only if there is one)."""
    y = _parse_vector(args.y, "--y")
    if len(y) != system.dim:
        raise ConfigError(f"--y has {len(y)} entries, model state dim is {system.dim}")
    if not t_values:
        return y, []
    v = np.asarray(parse_direction(args.direction, system, y), dtype=float)
    return y, [v * parse_scale(args.scale, t) for t in t_values]


def cmd_greek(args):
    system, _ = _load_model(args)
    y, (v,) = _state_and_directions(args, system, [args.t])
    payoff = mc.parse_payoff(args.payoff)

    if args.partition:
        k, gamma = args.partition
        partition = greeks.gamma_partition(args.t, args.s0, k, gamma)
    else:
        partition = [args.t]
    request = greeks.GreekRequest(
        system=system,
        payoff=payoff,
        y=tuple(y),
        v=tuple(v),
        t=args.t,
        m=args.m,
        m_prime=args.mprime,
        partition=tuple(partition),
        steps_per_segment=args.ode_steps,
    )
    result = greeks.greek_iterated(request)
    coeffs = result.direction_words
    homogeneity = max((algebra.word_degree(w) for w in coeffs), default=0)
    data = result.to_dict()
    data["settings"] = {
        "model": system.name,
        "y": list(y),
        "v": list(v),
        "t": args.t,
        "m": args.m,
        "mprime": args.mprime,
        "partition": list(partition),
        "payoff": repr(payoff),
        "direction_words": {"".join(map(str, w)): c for w, c in sorted(coeffs.items())},
        "direction_degree_k": homogeneity,
        "decomposition_residual": result.decomposition_residual,
    }
    _emit_json(data, args.out)
    return 0


def cmd_converge(args):
    system, params = _load_model(args)
    if system.name != "black_scholes":
        raise ConfigError("converge studies need the black_scholes model (closed-form reference)")
    t_values = _parse_vector(args.t_list, "--t-list").tolist()
    if min(t_values) <= 0.0 or len(set(t_values)) < 2:
        raise ConfigError(f"--t-list needs at least two distinct positive horizons, got {args.t_list!r}")
    y, directions = _state_and_directions(args, system, t_values if args.study == "greek" else [])
    payoff = mc.parse_payoff(args.payoff)
    rows = []
    errors = []
    for j, t in enumerate(t_values):
        price, delta = mc.bs_closed_form(params["r"], params["sigma"], y[0], t, payoff)
        if args.study == "expectation":
            est = greeks.expectation_one_step(system, payoff, y, t, args.mprime, args.ode_steps)
            ref = price
        else:
            v = directions[j]
            est = greeks.greek_one_step(system, payoff, y, v, t, args.m, args.ode_steps).estimate
            ref = delta * float(v[0])
        err = abs(est - ref)
        errors.append(err)
        rows.append([f"{t:.6g}", f"{est:.12g}", f"{ref:.12g}", f"{err:.6e}"])
    slope = fit_loglog_slope(t_values, errors)
    rows.append(["slope", f"{slope:.4f}", "", ""])
    _emit_table(["t", "estimate", "reference", "abs_error"], rows, args.format, args.out)
    return 0


def fit_loglog_slope(xs, errs):
    xs = np.log(np.asarray(xs, dtype=float))
    errs = np.log(np.maximum(np.asarray(errs, dtype=float), 1e-300))
    slope, _ = np.polyfit(xs, errs, 1)
    return float(slope)


def cmd_diagnostics(args):
    cfg = mc.McConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed)
    system = sde.black_scholes(0.05, 0.3)
    payoff = mc.Payoff("call", 1.0)
    # one d = 2 draw feeds the signature and covariance checks; at counter (p * S + k) * d + i,
    # its first n * S draws are the d = 1 window both deltas read as common random numbers
    normals = rng.normal_increments(cfg.seed, 0, cfg.n_paths, cfg.n_steps, 2)
    element, stderr = mc.signature_expectation_stats(context(2, 3), 1.0, cfg, normals)
    report = mc.covariance_diagnostics(args.t, cfg, normals)
    normals = normals.reshape(-1)[: cfg.n_paths * cfg.n_steps].reshape(cfg.n_paths, cfg.n_steps, 1)
    mal, mal_se = mc.malliavin_delta_m1(system, payoff, [1.0], [1.0], args.t, cfg, normals)
    fd, fd_se = mc.fd_greek(system, payoff, [1.0], [1.0], args.t, cfg, normals=normals)
    rows = []
    rows.append(["covariance_det_identity_rel", report.max_det_rel_error, 0.0, 0.0, 0.0])
    rows.append(["covariance_e0_block_abs", report.e0_max_abs, 0.0, 0.0, 0.0])
    rows.append(["covariance_positivity_fraction", report.positivity_fraction, 0.0, 1.0, 0.0])
    rows.append(["covariance_scaling_max_z", report.scaling_max_z, 0.0, 0.0, report.scaling_max_z])

    heat = algebra.heat_element(element.context, 1.0)
    max_z = float(np.max(mc.z_score(np.abs(element.vec - heat.vec), list(stderr.values())), initial=0.0))
    rows.append(["signature_mc_max_z", max_z, 0.0, 0.0, max_z])

    _, ref_delta = mc.bs_closed_form(0.05, 0.3, 1.0, args.t, payoff)
    rows.append(["malliavin_delta", mal, mal_se, ref_delta, mc.z_score(mal - ref_delta, mal_se)])
    rows.append(["fd_delta", fd, fd_se, ref_delta, mc.z_score(fd - ref_delta, fd_se)])

    formatted = [[q, f"{e:.10g}", f"{s:.4g}", f"{r:.10g}", f"{z:.4g}"] for q, e, s, r, z in rows]
    _emit_table(["quantity", "estimate", "stderr", "reference", "z_score"], formatted, args.format, args.out)

    tol_fail = report.max_det_rel_error > 1e-10 or report.e0_max_abs != 0.0
    z_fail = max(abs(z) for *_, z in rows) > 4.0  # every z-score in the table
    return 1 if (tol_fail or z_fail) else 0


def cmd_cubature(args):
    if args.action == "export":
        # the constructor refuses a degree or driver count it does not cover
        ctx = context(args.d, args.m)
        if args.kind == "expectation3":
            formula = cubature.expectation_degree3(ctx, args.t)
        elif args.kind == "expectation5":
            formula = cubature.expectation_degree5(ctx, args.t)
        else:
            w_vec = _parse_vector(args.direction, "--direction")
            if len(w_vec) != ctx.d:
                raise ConfigError(f"--direction needs {ctx.d} e-coefficients")
            w = algebra.TensorElement(ctx, {(i + 1,): c for i, c in enumerate(w_vec)})
            formula = cubature.greeks_two_point(ctx, w, args.t)
        _emit_json(cubature.formula_to_dict(formula), args.out)
        return 0
    # import: load, verify, report residuals
    if not args.infile:
        raise ConfigError("cubature import needs --in <file>")
    try:
        with open(args.infile) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"formula file not found: {args.infile}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"formula file is not valid JSON: {exc}") from exc
    try:
        formula = cubature.formula_from_dict(data, verify=False)
    except KeyError as exc:
        raise ConfigError(f"formula file {args.infile} is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError, CubatureError) as exc:
        raise ConfigError(f"formula file {args.infile} is malformed: {exc}") from exc
    residuals = cubature.verify_moments(formula, formula.target())
    valid = cubature.is_verified(residuals.values())
    _emit_json(
        {
            "flavor": data["flavor"],
            "paths": len(formula.items),
            "per_degree_residual": {str(k): v for k, v in residuals.items()},
            "max_residual": max(residuals.values()),
            "valid": valid,
        },
        args.out,
    )
    return 0 if valid else 1


# ---------------------------------------------------------------------------
# parser


# the environment-backed flags and their fallbacks, by argparse dest
_ENV_FLAGS = {"out": None, "format": "csv", "seed": "0", "threads": "1", "model": None, "paths": "20000",
              "steps": "128"}
ODE_STEPS_HELP = f"RK4 steps per segment (default: per tree stage by step doubling, <= {sde.DEFAULT_STEPS_PER_SEGMENT})"


def build_parser():
    """The parser, built once per process.  Each call re-reads the ``CUBGREEKS_*``
    defaults; argparse converts a string default only when its flag is absent,
    so a malformed value still exits 2 and an explicit flag still wins."""
    parser, commands = _parser_and_commands()
    for command in commands:
        names = [a.dest for a in command._actions if a.dest in _ENV_FLAGS]
        command.set_defaults(**{n: os.environ.get(ENV_PREFIX + n.upper(), _ENV_FLAGS[n]) for n in names})
    return parser


@lru_cache(maxsize=None)
def _parser_and_commands():
    parser = argparse.ArgumentParser(
        prog="cubgreeks",
        description="Cubature-on-Wiener-space expectations and Greeks for Stratonovich SDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--seed", type=int)
        p.add_argument(
            "--threads", type=int, help="accepted for compatibility and ignored: evaluation runs in one thread"
        )

    p = sub.add_parser("verify", help="run the algebra/signature property suites")
    p.add_argument("--d", type=_int_in(1), required=True)
    p.add_argument("--m", type=_int_in(1), required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("greek", help="one-step or iterated Greek estimate")
    p.add_argument("--model", help="model config JSON path")
    p.add_argument("--y", required=True, help="initial state, comma separated")
    p.add_argument("--direction", required=True, help="vector '0,1' or symbolic 'V1', '[V1,V2]'")
    p.add_argument("--scale", default=None, help="sqrt_t or t^<p>/<q> factor on the direction")
    p.add_argument("--t", type=_horizon, required=True)
    p.add_argument("--m", type=_int_in(2, sde.BRACKET_DEPTH + 2), default=2, help="Greek cubature degree")
    p.add_argument("--mprime", type=_int_in(1), default=3, help="expectation degree for inner steps")
    p.add_argument("--s0", type=_horizon, default=None, help="derivative step size for the iterated scheme")
    p.add_argument("--partition", default=None, type=_partition_arg, help="k,gamma inner partition")
    p.add_argument("--payoff", default="identity", help="identity | call:K | smoothed_call:K:eps")
    p.add_argument("--ode-steps", type=_int_in(1), default=None, help=ODE_STEPS_HELP)
    common(p)
    p.set_defaults(func=cmd_greek)

    p = sub.add_parser("converge", help="order-of-convergence study against closed forms")
    p.add_argument("--model")
    p.add_argument("--study", choices=["expectation", "greek"], required=True)
    p.add_argument("--y", default="1.0")
    p.add_argument("--direction", default="V1")
    p.add_argument("--scale", default="sqrt_t")
    p.add_argument("--t-list", default="0.4,0.2,0.1,0.05")
    p.add_argument("--m", type=_int_in(2, sde.BRACKET_DEPTH + 2), default=2)
    p.add_argument("--mprime", type=_int_in(1), default=3)
    p.add_argument("--payoff", default="identity")
    p.add_argument("--ode-steps", type=_int_in(1), default=None, help=ODE_STEPS_HELP)
    common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("diagnostics", help="Monte Carlo cross-checks and identities")
    p.add_argument("--t", type=_horizon, default=0.25)
    p.add_argument("--paths", type=_int_in(2))
    p.add_argument("--steps", type=_int_in(1))
    common(p)
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("cubature", help="export/import cubature formula files")
    p.add_argument("action", choices=["export", "import"])
    p.add_argument("--kind", default="expectation3", choices=["expectation3", "expectation5", "greeks2pt"])
    p.add_argument("--d", type=_int_in(1), default=1)
    p.add_argument("--m", type=_int_in(1), default=3)
    p.add_argument("--t", type=_horizon, default=1.0)
    p.add_argument("--direction", default="1.0", help="e-coefficients for greeks2pt")
    p.add_argument("--in", dest="infile", default=None)
    common(p)
    p.set_defaults(func=cmd_cubature)

    return parser, tuple(sub.choices.values())


def _partition_arg(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("partition must be k,gamma")
    k, gamma = _int_in(1)(parts[0]), _horizon(parts[1])
    if gamma < 1.0:
        raise argparse.ArgumentTypeError(f"partition exponent gamma must be >= 1, got {parts[1]!r}")
    return k, gamma


def _int_in(low, high=math.inf):
    """The argparse type of an integer flag in [low, high]."""

    def parse(text):
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer in [{low}, {high}]")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _horizon(text):
    """A positive finite number: the type of every horizon, step and exponent flag."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if getattr(args, "partition", None) and args.s0 is None:
            raise ConfigError("--partition requires --s0")
        if getattr(args, "s0", None) is not None and args.s0 >= args.t:
            raise ConfigError(f"--s0 {args.s0} must be below --t {args.t}")
        return args.func(args)
    except (ConfigError, DomainError, UnsupportedDegreeError, UnsupportedPayoffError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CubatureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
