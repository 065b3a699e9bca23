"""Named property checks over the algebra and signature layers.

Each check returns its worst observed error; the CLI `verify` command runs
the whole registry for a given (d, m) and reports a pass/fail table.  Checks
are deterministic for a fixed seed.  A sampled check draws each input for all
n_samples samples in one generator call, its paths as one (n_samples, K+1,
d+1) knot-point stack, then evaluates its identity once on word-major (dim,
n_samples) batches through the ``AlgebraContext`` kernels, bitwise per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import algebra, paths
from .algebra import context
from .errors import DomainError, is_integer


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self):
        return self.max_error < self.tolerance


def _random_elements(ctx, rng, n, sparsity=0.6, scale=1.0):
    """Coefficients (dim, n): each entry is scale * U(-1, 1) where a uniform
    draw falls below ``sparsity``, else 0."""
    keep = rng.random((ctx.dim, n)) < sparsity
    return np.where(keep, scale * rng.uniform(-1.0, 1.0, (ctx.dim, n)), 0.0)


def _lie_elements(lie, coeffs):
    """Columns sum_j coeffs[j] * (Lie basis element j), accumulated in basis order from zero."""
    out = np.zeros((lie.context.dim, coeffs.shape[1]))
    for column, c in zip(lie.matrix.T, coeffs):
        out = out + c * column[:, None]
    return out


def _random_paths(rng, n, d, n_segments=3):
    """Knot points (n, K+1, d+1) of n paths through U(-0.8, 0.8) increments: a zero row, then their running sums."""
    incs = rng.uniform(-0.8, 0.8, (n, n_segments, d + 1))
    return np.concatenate([np.zeros((n, 1, d + 1)), np.cumsum(incs, axis=1)], axis=1)


def _lie_dimension(d, m):
    """Dimension of the free Lie algebra on e_1..e_d (degree 1) and e_0 (degree 2) up to
    degree m: the weighted Witt counts l_n, n <= m, summed; L_n = sum_{k | n} k l_k
    (Moebius inversion) with L_1 = d, L_2 = d^2 + 2 and L_n = d L_{n-1} + L_{n-2}."""
    power_sums, counts = [0, d, d * d + 2], [0]
    for n in range(1, m + 1):
        power_sums.append(d * power_sums[-1] + power_sums[-2])
        counts.append((power_sums[n] - sum(k * counts[k] for k in range(1, n) if n % k == 0)) // n)
    return sum(counts)


def run_property_checks(d, m, seed=0):
    """Run the registry for (d, m); returns a list of CheckResult."""
    if not (is_integer(seed) and seed >= 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    n_samples = 20  # random draws per sampled check
    ctx = context(d, m)
    lie = algebra.lie_basis(ctx)
    rng = np.random.default_rng(seed)
    unit = algebra.unit(ctx).vec[:, None]
    results = []

    def record(name, err, tol):
        results.append(CheckResult(name, float(err), tol))

    def gap(a, b):
        return np.max(np.abs(a - b), initial=0.0)

    def lie_coords():
        return rng.uniform(-1.0, 1.0, (lie.dim, n_samples))

    elements = partial(_random_elements, ctx, rng, n_samples)
    mul, br = ctx.product, ctx.bracket

    # associativity of the truncated product
    x, y, z = elements(), elements(), elements()
    record("mul-associativity", gap(mul(mul(x, y), z), mul(x, mul(y, z))), 1e-12)

    # grading: degree-p times degree-q support lands in degree p+q
    x, y = elements(), elements()
    err = 0.0
    for p in range(m + 1):
        for q in range(m + 1 - p):
            prod = mul(ctx.graded_part(x, p), ctx.graded_part(y, q))
            err = max(err, np.max(np.abs(prod[ctx.degrees != p + q]), initial=0.0))
    record("mul-grading", err, 1e-12)

    # exp/log round trips, on nilpotent elements and on group-like ones
    a, c = elements(scale=0.8), lie_coords()
    a[0] = 0.0  # nilpotent: bitwise x - x_0 * 1
    g = ctx.exp(_lie_elements(lie, 0.7 * c))
    record("exp-log-roundtrip", max(gap(ctx.log(ctx.exp(a)), a), gap(ctx.exp(ctx.log(g)), g)), 1e-12)

    # exp(a) * exp(-a) = 1
    a = _lie_elements(lie, 0.8 * lie_coords())
    record("exp-inverse", gap(mul(ctx.exp(a), ctx.exp(-a)), unit), 1e-12)

    # dilation is a product homomorphism and a one-parameter group
    x, y = elements(), elements()
    s, a, b = rng.uniform(0.3, 2.0, n_samples), rng.uniform(0.3, 1.5, n_samples), rng.uniform(0.3, 1.5, n_samples)
    err = gap(ctx.dilate(s, mul(x, y)), mul(ctx.dilate(s, x), ctx.dilate(s, y)))
    record("dilate-homomorphism", max(err, gap(ctx.dilate(a, ctx.dilate(b, x)), ctx.dilate(a * b, x))), 1e-12)

    # bracket: antisymmetry and the Jacobi identity
    x, y, z = elements(), elements(), elements()
    jac = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
    record("bracket-jacobi", max(gap(br(x, y), -br(y, x)), gap(jac, 0.0)), 1e-12)

    # adjoint: identity element, bracket morphism, Lie-span stability
    w, g, u, v = lie_coords(), lie_coords(), lie_coords(), lie_coords()
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

    # Lie span: the free Lie algebra's dimension, log of signatures inside
    record("lie-dimension", float(abs(lie.dim - _lie_dimension(d, m))), 0.5)
    sigs = paths.signatures(ctx, _random_paths(rng, n_samples, d))
    record("signature-group-likeness", _max_lie_residual(lie, ctx.log(sigs)), 1e-10)

    # Chen: multiplicativity over a split point; the second path runs on from the first's end
    firsts, seconds = (_random_paths(rng, n_samples, d, n_segments=2) for _ in range(2))
    joint = paths.signatures(ctx, np.concatenate([firsts, firsts[:, -1:] + seconds[:, 1:]], axis=1))
    err = gap(joint, mul(paths.signatures(ctx, firsts), paths.signatures(ctx, seconds)))
    record("chen-multiplicativity", err, 1e-13)

    # reparametrization invariance: inserting a collinear knot changes nothing
    plain = _random_paths(rng, n_samples, d, n_segments=2)
    refined = np.insert(plain, 1, 0.5 * (plain[:, 0] + plain[:, 1]), axis=1)
    err = gap(paths.signatures(ctx, plain), paths.signatures(ctx, refined))
    record("reparametrization-invariance", err, 1e-13)

    # scaling: signature(scale_knots(w, t)) = dilate(sqrt t, signature(w)); 1.0 stands in for the unread knot times
    plain = _random_paths(rng, n_samples, d)
    sig1 = paths.signatures(ctx, plain)
    err = max(
        gap(paths.signatures(ctx, paths.scale_knots(1.0, plain, t)[1]), ctx.dilate(math.sqrt(t), sig1))
        for t in (0.01, 1.0, 4.0)
    )
    record("scale-dilate-intertwine", err, 1e-13)

    return results


def _max_lie_residual(lie, columns):
    """Largest Lie-span residual over the (dim, n) columns, from one least-squares solve."""
    coords, *_ = np.linalg.lstsq(lie.matrix, columns, rcond=None)
    return np.max(np.abs(lie.matrix @ coords - columns), initial=0.0)
