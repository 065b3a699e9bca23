"""Named property checks over the algebra and signature layers.

Each check returns its worst observed error; the CLI `verify` command runs
the whole registry for a given (d, m) and reports a pass/fail table.  Checks
are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, paths
from .algebra import context


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self):
        return self.max_error < self.tolerance


def _random_element(ctx, rng, sparsity=0.6, scale=1.0):
    coeffs = {}
    for w in ctx.basis:
        if rng.random() < sparsity:
            coeffs[w] = scale * rng.uniform(-1.0, 1.0)
    return algebra.TensorElement(ctx, coeffs)

def _random_nilpotent(ctx, rng, scale=1.0):
    x = _random_element(ctx, rng, scale=scale)
    return x - x.coeff(()) * algebra.unit(ctx)

def _random_lie(ctx, rng, scale=1.0):
    lie = algebra.lie_basis(ctx)
    out = algebra.zero(ctx)
    for elt in lie.elements:
        out = out + scale * rng.uniform(-1.0, 1.0) * elt
    return out

def _random_group(ctx, rng, scale=0.7):
    return algebra.exp(_random_lie(ctx, rng, scale))

def _random_path(rng, d, n_segments=3, horizon=1.0):
    incs = rng.uniform(-0.8, 0.8, size=(n_segments, d + 1))
    return paths.from_increments(horizon, incs)


def run_property_checks(d, m, seed=0):
    """Run the registry for (d, m); returns a list of CheckResult."""
    n_samples = 20  # random draws per sampled check
    ctx = context(d, m)
    rng = np.random.default_rng(seed)
    results = []

    def record(name, err, tol):
        results.append(CheckResult(name, float(err), tol))

    # associativity of the truncated product
    err = 0.0
    for _ in range(n_samples):
        x, y, z = (_random_element(ctx, rng) for _ in range(3))
        lhs = algebra.mul(algebra.mul(x, y), z)
        rhs = algebra.mul(x, algebra.mul(y, z))
        err = max(err, algebra.max_abs_diff(lhs, rhs))
    record("mul-associativity", err, 1e-12)

    # grading: degree-p times degree-q support lands in degree p+q
    err = 0.0
    for _ in range(n_samples):
        x, y = _random_element(ctx, rng), _random_element(ctx, rng)
        for p in range(m + 1):
            for q in range(m + 1 - p):
                prod = algebra.mul(x.graded_part(p), y.graded_part(q))
                for w in prod.coeffs:
                    if ctx.degree(w) != p + q:
                        err = max(err, abs(prod.coeffs[w]))
    record("mul-grading", err, 1e-12)

    # exp/log round trips
    err = 0.0
    for _ in range(n_samples):
        a = _random_nilpotent(ctx, rng, scale=0.8)
        err = max(err, algebra.max_abs_diff(algebra.log(algebra.exp(a)), a))
        g = _random_group(ctx, rng)
        err = max(err, algebra.max_abs_diff(algebra.exp(algebra.log(g)), g))
    record("exp-log-roundtrip", err, 1e-12)

    # exp(a) * exp(-a) = 1
    err = 0.0
    for _ in range(n_samples):
        a = _random_lie(ctx, rng, scale=0.8)
        prod = algebra.mul(algebra.exp(a), algebra.exp(-a))
        err = max(err, algebra.max_abs_diff(prod, algebra.unit(ctx)))
    record("exp-inverse", err, 1e-12)

    # dilation is a product homomorphism and a one-parameter group
    err = 0.0
    for _ in range(n_samples):
        x, y = _random_element(ctx, rng), _random_element(ctx, rng)
        s = rng.uniform(0.3, 2.0)
        lhs = algebra.dilate(s, algebra.mul(x, y))
        rhs = algebra.mul(algebra.dilate(s, x), algebra.dilate(s, y))
        err = max(err, algebra.max_abs_diff(lhs, rhs))
        a, b = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)
        err = max(
            err,
            algebra.max_abs_diff(
                algebra.dilate(a, algebra.dilate(b, x)), algebra.dilate(a * b, x)
            ),
        )
    record("dilate-homomorphism", err, 1e-12)

    # bracket: antisymmetry and the Jacobi identity
    err = 0.0
    for _ in range(n_samples):
        x, y, z = (_random_element(ctx, rng) for _ in range(3))
        err = max(err, algebra.max_abs_diff(algebra.bracket(x, y), -algebra.bracket(y, x)))
        jac = (
            algebra.bracket(x, algebra.bracket(y, z))
            + algebra.bracket(y, algebra.bracket(z, x))
            + algebra.bracket(z, algebra.bracket(x, y))
        )
        err = max(err, algebra.max_abs_diff(jac, algebra.zero(ctx)))
    record("bracket-jacobi", err, 1e-12)

    # adjoint: identity element, bracket morphism, Lie-span stability
    lie = algebra.lie_basis(ctx)
    err = 0.0
    span_err = 0.0
    for _ in range(n_samples):
        w = _random_lie(ctx, rng)
        err = max(err, algebra.max_abs_diff(algebra.adjoint(algebra.unit(ctx), w), w))
        g = _random_group(ctx, rng, scale=0.5)
        u, v = _random_lie(ctx, rng, 0.5), _random_lie(ctx, rng, 0.5)
        lhs = algebra.adjoint(g, algebra.bracket(u, v))
        rhs = algebra.bracket(algebra.adjoint(g, u), algebra.adjoint(g, v))
        err = max(err, algebra.max_abs_diff(lhs, rhs))
        ad = algebra.adjoint(g, u)
        err = max(err, abs(ad.coeff(())))
        _, res = algebra.lie_coordinates(lie, ad)
        span_err = max(span_err, res)
    record("adjoint-bracket-morphism", err, 1e-12)
    record("adjoint-lie-span", span_err, 1e-10)

    # heat element: unit constant term and the dilation identity
    err = 0.0
    for t in (0.25, 1.0, 3.0):
        h = algebra.heat_element(ctx, t)
        err = max(err, abs(h.coeff(()) - 1.0))
        err = max(
            err,
            algebra.max_abs_diff(
                h, algebra.dilate(math.sqrt(t), algebra.heat_element(ctx, 1.0))
            ),
        )
    record("heat-dilate-identity", err, 1e-12)

    # Lie span: expected dimension for the documented case, log of signatures inside
    if (d, m) == (2, 2) and lie.dim != 4:
        record("lie-dimension", float(abs(lie.dim - 4)), 0.5)
    else:
        rank = np.linalg.matrix_rank(lie.matrix, tol=1e-10)
        record("lie-dimension", float(abs(rank - lie.dim)), 0.5)
    err = 0.0
    for _ in range(n_samples):
        sig = paths.signature(ctx, _random_path(rng, d))
        _, res = algebra.lie_coordinates(lie, algebra.log(sig))
        err = max(err, res)
    record("signature-group-likeness", err, 1e-10)

    # Chen: multiplicativity over a split point
    err = 0.0
    for _ in range(n_samples):
        p1 = _random_path(rng, d, n_segments=2, horizon=0.6)
        p2 = _random_path(rng, d, n_segments=2, horizon=0.4)
        joint = paths.signature(ctx, paths.concat(p1, p2))
        split = algebra.mul(paths.signature(ctx, p1), paths.signature(ctx, p2))
        err = max(err, algebra.max_abs_diff(joint, split))
    record("chen-multiplicativity", err, 1e-13)

    # reparametrization invariance: inserting a collinear knot changes nothing
    err = 0.0
    for _ in range(n_samples):
        p = _random_path(rng, d, n_segments=2)
        mid_t = 0.5 * (p.times[0] + p.times[1])
        mid_x = 0.5 * (p.points[0] + p.points[1])
        knots = [(p.times[0], p.points[0]), (mid_t, mid_x)] + [
            (s, x) for s, x in zip(p.times[1:], p.points[1:])
        ]
        refined = paths.PiecewisePath(p.t_end, knots)
        err = max(
            err,
            algebra.max_abs_diff(paths.signature(ctx, p), paths.signature(ctx, refined)),
        )
    record("reparametrization-invariance", err, 1e-13)

    # scaling: signature(scale_path(w, t)) = dilate(sqrt t, signature(w))
    err = 0.0
    for _ in range(n_samples):
        p = _random_path(rng, d)
        sig1 = paths.signature(ctx, p)
        for t in (0.01, 1.0, 4.0):
            lhs = paths.signature(ctx, paths.scale_path(p, t))
            rhs = algebra.dilate(math.sqrt(t), sig1)
            err = max(err, algebra.max_abs_diff(lhs, rhs))
    record("scale-dilate-intertwine", err, 1e-13)

    return results
