"""Batch command-line front end.

Commands: verify (property suites), greek (one-step or iterated estimates),
converge (order studies against closed forms), diagnostics (Monte Carlo
cross-checks), cubature export/import (formula files).  Every command is
deterministic given its full flag set; exit codes are 0 (success),
1 (numerical/tolerance failure), 2 (usage or configuration error).

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

import numpy as np

from . import algebra, checks, cubature, greeks, mc, paths, sde
from .algebra import context
from .errors import ConfigError, CubatureError

ENV_PREFIX = "CUBGREEKS_"


def _env_default(name, fallback):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"), fallback)


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
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"cannot parse direction: {exc}") from exc
    return expr.value(system, np.asarray(y, dtype=float))


def _field_expr(node, d):
    """The sde.FieldExpr of a parsed direction; any other syntax is a ConfigError."""
    if isinstance(node, ast.Name) and node.id[:1] == "V" and node.id[1:].isdecimal():
        if int(node.id[1:]) > d:
            raise ConfigError(f"direction uses {node.id}, model has V0..V{d}")
        return sde.FieldExpr.base(int(node.id[1:]))
    if isinstance(node, ast.List) and len(node.elts) == 2:
        return sde.FieldExpr.commutator(_field_expr(node.elts[0], d), _field_expr(node.elts[1], d))
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
        return t ** (p / q)
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


def _emit_csv(header, rows, out):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out)


def _emit_table(header, rows, fmt, out):
    if fmt == "json":
        _emit_json([dict(zip(header, row)) for row in rows], out)
    else:
        _emit_csv(header, rows, out)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args):
    if args.m < 1:
        raise ConfigError(f"truncation degree must be >= 1, got {args.m}")
    if args.d < 1:
        raise ConfigError(f"driver count must be >= 1, got {args.d}")
    results = checks.run_property_checks(args.d, args.m, seed=args.seed)
    rows = [
        (r.name, "PASS" if r.passed else "FAIL", f"{r.max_error:.3e}", f"{r.tolerance:.1e}")
        for r in results
    ]
    _emit_table(["check", "status", "max_error", "tolerance"], rows, args.format, args.out)
    failed = [r for r in results if not r.passed]
    if args.out:
        for name, status, err, tol in rows:
            print(f"{status:4s}  {name:32s} max_error={err} tol={tol}")
    return 1 if failed else 0


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
    rows = []

    report = mc.covariance_diagnostics(args.t, cfg)
    rows.append(["covariance_det_identity_rel", report.max_det_rel_error, 0.0, 0.0, 0.0])
    rows.append(["covariance_e0_block_abs", report.e0_max_abs, 0.0, 0.0, 0.0])
    rows.append(["covariance_positivity_fraction", report.positivity_fraction, 0.0, 1.0, 0.0])
    rows.append(["covariance_scaling_max_z", report.scaling_max_z, 0.0, 0.0, report.scaling_max_z])

    ctx = context(2, 3)
    element, stderr = mc.signature_expectation_stats(ctx, 1.0, cfg)
    heat = algebra.heat_element(ctx, 1.0)
    max_z = 0.0
    for w in ctx.basis:
        diff = abs(element.coeff(w) - heat.coeff(w))
        s = stderr[w]
        z = diff / s if s > 0 else (0.0 if diff < 1e-12 else math.inf)
        max_z = max(max_z, z)
    rows.append(["signature_mc_max_z", max_z, 0.0, 0.0, max_z])

    system = sde.black_scholes(0.05, 0.3)
    payoff = mc.Payoff("call", 1.0)
    mal, mal_se = mc.malliavin_delta_m1(system, payoff, [1.0], [1.0], args.t, cfg)
    fd, fd_se = mc.fd_greek(system, payoff, [1.0], [1.0], args.t, cfg)
    _, ref_delta = mc.bs_closed_form(0.05, 0.3, 1.0, args.t, payoff)
    rows.append(["malliavin_delta", mal, mal_se, ref_delta, (mal - ref_delta) / mal_se])
    rows.append(["fd_delta", fd, fd_se, ref_delta, (fd - ref_delta) / fd_se])

    formatted = [[q, f"{e:.10g}", f"{s:.4g}", f"{r:.10g}", f"{z:.4g}"] for q, e, s, r, z in rows]
    _emit_table(["quantity", "estimate", "stderr", "reference", "z_score"], formatted, args.format, args.out)

    tol_fail = report.max_det_rel_error > 1e-10 or report.e0_max_abs != 0.0
    z_fail = max(report.scaling_max_z, max_z, abs((mal - ref_delta) / mal_se)) > 4.0
    return 1 if (tol_fail or z_fail) else 0


def cmd_cubature(args):
    if args.action == "export":
        ctx = context(args.d, args.m)
        if args.kind == "expectation3":
            formula = cubature.expectation_degree3(ctx, args.t)
        elif args.kind == "expectation5":
            formula = cubature.expectation_degree5_d1(ctx, args.t)
        elif args.kind == "greeks2pt":
            w_vec = _parse_vector(args.direction, "--direction")
            if len(w_vec) != ctx.d:
                raise ConfigError(f"--direction needs {ctx.d} e-coefficients")
            w = algebra.TensorElement(ctx, {(i + 1,): c for i, c in enumerate(w_vec)})
            formula = cubature.greeks_two_point(ctx, w, args.t)
        else:
            raise ConfigError(f"unknown formula kind {args.kind!r}")
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
    residuals = cubature.verify_moments(formula, formula.target())
    worst = max(residuals.values())
    _emit_json(
        {
            "flavor": data["flavor"],
            "paths": len(formula.items),
            "per_degree_residual": {str(k): v for k, v in residuals.items()},
            "max_residual": worst,
            "valid": bool(worst < cubature.VERIFY_TOL),
        },
        args.out,
    )
    return 0 if worst < cubature.VERIFY_TOL else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubgreeks",
        description="Cubature-on-Wiener-space expectations and Greeks for Stratonovich SDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=_env_default("out", None), help="output file (default stdout)")
        p.add_argument("--format", default=_env_default("format", "csv"), choices=["csv", "json"])
        p.add_argument("--seed", type=int, default=_env_default("seed", "0"))
        p.add_argument(
            "--threads", type=int, default=_env_default("threads", "1"),
            help="accepted for compatibility and ignored: evaluation runs in one thread",
        )

    p = sub.add_parser("verify", help="run the algebra/signature property suites")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("greek", help="one-step or iterated Greek estimate")
    p.add_argument("--model", default=_env_default("model", None), help="model config JSON path")
    p.add_argument("--y", required=True, help="initial state, comma separated")
    p.add_argument("--direction", required=True, help="vector '0,1' or symbolic 'V1', '[V1,V2]'")
    p.add_argument("--scale", default=None, help="sqrt_t or t^<p>/<q> factor on the direction")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--m", type=int, default=2, help="Greek cubature degree")
    p.add_argument("--mprime", type=int, default=3, help="expectation degree for inner steps")
    p.add_argument("--s0", type=float, default=None, help="derivative step size for the iterated scheme")
    p.add_argument("--partition", default=None, type=_partition_arg, help="k,gamma inner partition")
    p.add_argument("--payoff", default="identity", help="identity | call:K | smoothed_call:K:eps")
    p.add_argument("--ode-steps", type=int, default=sde.DEFAULT_STEPS_PER_SEGMENT)
    common(p)
    p.set_defaults(func=cmd_greek)

    p = sub.add_parser("converge", help="order-of-convergence study against closed forms")
    p.add_argument("--model", default=_env_default("model", None))
    p.add_argument("--study", choices=["expectation", "greek"], required=True)
    p.add_argument("--y", default="1.0")
    p.add_argument("--direction", default="V1")
    p.add_argument("--scale", default="sqrt_t")
    p.add_argument("--t-list", default="0.4,0.2,0.1,0.05")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--mprime", type=int, default=3)
    p.add_argument("--payoff", default="identity")
    p.add_argument("--ode-steps", type=int, default=sde.DEFAULT_STEPS_PER_SEGMENT)
    common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("diagnostics", help="Monte Carlo cross-checks and identities")
    p.add_argument("--t", type=float, default=0.25)
    p.add_argument("--paths", type=int, default=_env_default("paths", "20000"))
    p.add_argument("--steps", type=int, default=_env_default("steps", "128"))
    common(p)
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("cubature", help="export/import cubature formula files")
    p.add_argument("action", choices=["export", "import"])
    p.add_argument("--kind", default="expectation3", help="expectation3 | expectation5 | greeks2pt")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--direction", default="1.0", help="e-coefficients for greeks2pt")
    p.add_argument("--in", dest="infile", default=None)
    common(p)
    p.set_defaults(func=cmd_cubature)

    return parser


def _partition_arg(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("partition must be k,gamma")
    return int(parts[0]), float(parts[1])


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if getattr(args, "partition", None) and args.s0 is None:
            raise ConfigError("--partition requires --s0")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CubatureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
