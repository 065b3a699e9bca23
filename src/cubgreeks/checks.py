"""Named property checks over the algebra and signature layers.

Each check returns its worst observed error; the CLI `verify` command runs
the whole registry for a given (d, m) and reports a pass/fail table.  Checks
are deterministic for a fixed seed.  A sampled check draws its n_samples
inputs in the order of a loop over samples, then evaluates its identity once
on word-major (dim, n_samples) batches through the ``AlgebraContext``
kernels, whose columns are bitwise their single-vector results; so each
max_error is bitwise that of the one-sample-at-a-time loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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
    """Coefficients (dim,): each basis word in order keeps a coefficient
    scale * U(-1, 1) when a uniform draw falls below ``sparsity``.

    One double per Bernoulli draw and one per coefficient, as one scalar
    ``rng.random()`` / ``rng.uniform()`` call each would use; they are drawn in
    chunks of the dim - k doubles certainly still needed at word k, so the
    generator never runs ahead of the scalar loop.  -1 + 2u is exactly
    ``uniform(-1, 1)``'s value, since 2u is exact.
    """
    dim = ctx.dim
    vec = np.zeros(dim)
    k, pending = 0, False
    while k < dim:
        for u in rng.random(dim - k).tolist():
            if pending:
                vec[k] = scale * (-1.0 + 2.0 * u)
            elif u < sparsity:
                pending = True
                continue
            k, pending = k + 1, False
    return vec


def _lie_elements(lie, coeffs):
    """Columns sum_j coeffs[j] * (Lie basis element j), accumulated in basis order from zero."""
    out = np.zeros((lie.context.dim, coeffs.shape[1]))
    for column, c in zip(lie.matrix.T, coeffs):
        out = out + c * column[:, None]
    return out


def _random_path(rng, d, n_segments=3, horizon=1.0):
    incs = rng.uniform(-0.8, 0.8, size=(n_segments, d + 1))
    return paths.from_increments(horizon, incs)


def run_property_checks(d, m, seed=0):
    """Run the registry for (d, m); returns a list of CheckResult."""
    n_samples = 20  # random draws per sampled check
    ctx = context(d, m)
    lie = algebra.lie_basis(ctx)
    rng = np.random.default_rng(seed)
    unit = algebra.unit(ctx).vec[:, None]
    results = []

    def record(name, err, tol):
        results.append(CheckResult(name, float(err), tol))

    def draw(*kinds):
        """Call each draw once per sample, in a per-sample loop's order; one stacked array per draw."""
        samples = [[kind() for kind in kinds] for _ in range(n_samples)]
        return [np.stack(column, axis=-1) for column in zip(*samples)]

    def gap(a, b):
        return np.max(np.abs(a - b), initial=0.0)

    element = partial(_random_element, ctx, rng)
    lie_coords = partial(rng.uniform, -1.0, 1.0, size=lie.dim)  # the doubles of lie.dim scalar calls
    mul, br = ctx.product, ctx.bracket

    # associativity of the truncated product
    x, y, z = draw(element, element, element)
    record("mul-associativity", gap(mul(mul(x, y), z), mul(x, mul(y, z))), 1e-12)

    # grading: degree-p times degree-q support lands in degree p+q
    x, y = draw(element, element)
    err = 0.0
    for p in range(m + 1):
        for q in range(m + 1 - p):
            prod = mul(ctx.graded_part(x, p), ctx.graded_part(y, q))
            err = max(err, np.max(np.abs(prod[ctx.degrees != p + q]), initial=0.0))
    record("mul-grading", err, 1e-12)

    # exp/log round trips, on nilpotent elements and on group-like ones
    a, c = draw(partial(element, scale=0.8), lie_coords)
    a[0] = 0.0  # nilpotent: bitwise x - x_0 * 1
    g = ctx.exp(_lie_elements(lie, 0.7 * c))
    record("exp-log-roundtrip", max(gap(ctx.log(ctx.exp(a)), a), gap(ctx.exp(ctx.log(g)), g)), 1e-12)

    # exp(a) * exp(-a) = 1
    (c,) = draw(lie_coords)
    a = _lie_elements(lie, 0.8 * c)
    record("exp-inverse", gap(mul(ctx.exp(a), ctx.exp(-a)), unit), 1e-12)

    # dilation is a product homomorphism and a one-parameter group
    wide, narrow = partial(rng.uniform, 0.3, 2.0), partial(rng.uniform, 0.3, 1.5)
    x, y, s, a, b = draw(element, element, wide, narrow, narrow)
    err = gap(ctx.dilate(s, mul(x, y)), mul(ctx.dilate(s, x), ctx.dilate(s, y)))
    record("dilate-homomorphism", max(err, gap(ctx.dilate(a, ctx.dilate(b, x)), ctx.dilate(a * b, x))), 1e-12)

    # bracket: antisymmetry and the Jacobi identity
    x, y, z = draw(element, element, element)
    jac = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
    record("bracket-jacobi", max(gap(br(x, y), -br(y, x)), gap(jac, 0.0)), 1e-12)

    # adjoint: identity element, bracket morphism, Lie-span stability
    w, g, u, v = draw(lie_coords, lie_coords, lie_coords, lie_coords)
    w, u, v = _lie_elements(lie, w), _lie_elements(lie, 0.5 * u), _lie_elements(lie, 0.5 * v)
    g = ctx.exp(_lie_elements(lie, 0.5 * g))
    ad = ctx.adjoint(g, u)
    err = gap(ctx.adjoint(np.broadcast_to(unit, w.shape), w), w)
    err = max(err, gap(ctx.adjoint(g, br(u, v)), br(ad, ctx.adjoint(g, v))))
    record("adjoint-bracket-morphism", max(err, np.max(np.abs(ad[0]))), 1e-12)
    record("adjoint-lie-span", _max_lie_residual(lie, ad), 1e-10)

    # heat element: unit constant term and the dilation identity
    err = 0.0
    for t in (0.25, 1.0, 3.0):
        h = algebra.heat_element(ctx, t)
        dilated = algebra.dilate(math.sqrt(t), algebra.heat_element(ctx, 1.0))
        err = max(err, abs(h.coeff(()) - 1.0), algebra.max_abs_diff(h, dilated))
    record("heat-dilate-identity", err, 1e-12)

    # Lie span: expected dimension for the documented case, log of signatures inside
    if (d, m) == (2, 2) and lie.dim != 4:
        record("lie-dimension", float(abs(lie.dim - 4)), 0.5)
    else:
        rank = np.linalg.matrix_rank(lie.matrix, tol=1e-10)
        record("lie-dimension", float(abs(rank - lie.dim)), 0.5)
    sigs = paths.signatures(ctx, [_random_path(rng, d) for _ in range(n_samples)])
    record("signature-group-likeness", _max_lie_residual(lie, ctx.log(sigs)), 1e-10)

    # Chen: multiplicativity over a split point
    pairs = [
        (_random_path(rng, d, n_segments=2, horizon=0.6), _random_path(rng, d, n_segments=2, horizon=0.4))
        for _ in range(n_samples)
    ]
    joint = paths.signatures(ctx, [paths.concat(p1, p2) for p1, p2 in pairs])
    firsts, seconds = (paths.signatures(ctx, list(half)) for half in zip(*pairs))
    record("chen-multiplicativity", gap(joint, mul(firsts, seconds)), 1e-13)

    # reparametrization invariance: inserting a collinear knot changes nothing
    plain = [_random_path(rng, d, n_segments=2) for _ in range(n_samples)]
    refined = [
        paths.PiecewisePath(
            p.t_end,
            [(p.times[0], p.points[0]), (0.5 * (p.times[0] + p.times[1]), 0.5 * (p.points[0] + p.points[1]))]
            + list(zip(p.times[1:], p.points[1:])),
        )
        for p in plain
    ]
    err = gap(paths.signatures(ctx, plain), paths.signatures(ctx, refined))
    record("reparametrization-invariance", err, 1e-13)

    # scaling: signature(scale_path(w, t)) = dilate(sqrt t, signature(w))
    plain = [_random_path(rng, d) for _ in range(n_samples)]
    sig1 = paths.signatures(ctx, plain)
    err = max(
        gap(paths.signatures(ctx, [paths.scale_path(p, t) for p in plain]), ctx.dilate(math.sqrt(t), sig1))
        for t in (0.01, 1.0, 4.0)
    )
    record("scale-dilate-intertwine", err, 1e-13)

    return results


def _max_lie_residual(lie, columns):
    """Largest Lie-span residual over the columns, one least-squares solve per column."""
    return max(algebra.lie_coordinates(lie, algebra.from_dense(lie.context, col))[1] for col in columns.T)
