"""Construction and verification of cubature formulas.

An expectation formula is a list of positive weights and paths whose weighted
signatures reproduce the heat element; a Greeks formula uses sign-free
weights and targets (dilated direction) * (heat element).  The expectation
formulas are closed-form: degree 3 by axis spikes, degree 5 by the
Ninomiya-Victoir splitting.  Greeks formulas beyond the two-point family are
found by moment matching over a dictionary of candidate paths: signatures are
linear in the weights once the paths are fixed, so the weights are one
pseudo-inverse of chosen signature columns times the target.  The degree-3
paths and the Greeks dictionary are unions of orbits: the paths through a few
increments and through their images under permutations and sign flips of the
space axes (Lyons & Victoir), so the odd-space moments cancel by symmetry.

Every built-in formula is built and verified once per context at horizon 1.
Its paths are laid out once, as the padded knot stack of ``paths.knot_stack``
(``stack``): its moment check folds that stack, and the tree in ``greeks``
evolves along it, and a dictionary is folded the same way.  Cached per context:
the default dictionary's columns, QR and supports (pseudo-inverse, knot stack),
and the two-point Greek's pair of lines per unit direction.
At horizon t, sig(scale_path(p, t)) = dilate(sqrt t, sig(p)) and both targets
dilate the same way, so a degree-n residual r_n becomes t^{n/2} r_n with no second
check (``scaled_residuals``, for ``rescale_formula`` and the tree in ``greeks``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import algebra, paths
from .algebra import context
from .errors import (
    ContextMismatchError,
    DomainError,
    InvalidPathError,
    NoFormulaFoundError,
    UnsupportedDegreeError,
    check_horizon,
    is_finite,
)

VERIFY_TOL = 1e-10
PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class _Formula:
    """Weights and paths at horizon t (the subclass declares ``items``).

    ``residuals[n]`` is the degree-n moment residual the constructor verified,
    or None for a formula nobody checked (built directly, or imported
    unverified); ``residual`` is their maximum.  Every weight must be finite,
    and every path must have dimension d+1 and end at t.
    """

    ctx: algebra.AlgebraContext
    t: float
    residuals: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _stack: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for w, p in self.items:
            if not is_finite(w):
                raise DomainError(f"formula weights must be finite, got {w}")
            if p.dim != self.ctx.d + 1:
                raise InvalidPathError(f"path dimension {p.dim} != d+1 = {self.ctx.d + 1}")
            if abs(p.t_end - self.t) > 1e-12 * max(1.0, abs(self.t)):
                raise InvalidPathError(f"path ends at {p.t_end}, formula horizon is {self.t}")

    @property
    def weights(self):
        return np.array([w for w, _ in self.items])

    @property
    def paths(self):
        return [p for _, p in self.items]

    @property
    def residual(self):
        return None if self.residuals is None else max(self.residuals)

    @property
    def stack(self):
        """(times (q, K+1), points (q, K+1, d+1), whether every row has the same times, weights (q,)):
        the paths' ``paths.knot_stack`` and the weights, built on first use, read-only."""
        if self._stack is None:
            self._set_stack(*paths.knot_stack(self.paths, self.ctx.d + 1))
        return self._stack

    def _set_stack(self, times, points):
        """Take the paths' knot stack, e.g. a cached one, as ``stack``; returns the formula."""
        _, _, weights = _read_only(times, points, self.weights)
        object.__setattr__(self, "_stack", (times, points, bool((times == times[:1]).all()), weights))
        return self


def _read_only(*arrays):
    """The arrays, each marked read-only."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class CubatureFormula(_Formula):
    """Expectation-flavor formula: positive weights summing to one."""

    items: tuple  # of (weight, PiecewisePath)

    def __post_init__(self):
        super().__post_init__()
        for w, _ in self.items:
            if w <= 0.0:
                raise DomainError(f"expectation weights must be positive, got {w}")

    def target(self):
        return algebra.heat_element(self.ctx, self.t)


@dataclass(frozen=True)
class GreeksFormula(_Formula):
    """Derivative-flavor formula: sign-free weights, zero weight sum.

    ``direction`` is the already-dilated Lie element, so the moment target is
    direction * heat_element(t).
    """

    direction: algebra.TensorElement
    items: tuple

    def target(self):
        return algebra.mul(self.direction, algebra.heat_element(self.ctx, self.t))


def verify_moments(formula, target):
    """Per-degree max-abs coefficient error of sum w_j sig(path_j) - target, folded from the
    formula's padded ``stack``, which the tree then reuses."""
    S = paths.signatures(formula.ctx, formula.stack[1])
    return dict(enumerate(_residuals(formula.ctx, S, formula.weights, target.vec)))


def _residuals(ctx, S, weights, target):
    """Per-degree max-abs error of sum_j weights[j] S[:, j] - target, summed in column order."""
    total = np.zeros(ctx.dim)
    for w, column in zip(weights, S.T):
        total = total + w * column
    diff = np.abs(total - target)
    return tuple(float(np.max(diff[ctx.degrees == n], initial=0.0)) for n in range(ctx.m + 1))


def is_verified(residuals, target=None):
    """Whether every residual is at most VERIFY_TOL s, s = min(1, max|target|) for a dense target, else 1
    (NaN is not): the one rule of solved, built and imported formulas (s = 1 for expectation targets)."""
    scale = 1.0 if target is None else min(1.0, float(np.max(np.abs(target))))
    return all(r <= VERIFY_TOL * scale for r in residuals)


def _checked(formula, residuals=None, target=None):
    """Record the per-degree residuals on the formula and return it.

    The moments are verified against the formula's target unless
    ``residuals`` is given; either way they must pass ``is_verified``.
    """
    if residuals is None:
        target = formula.target()
        residuals, target = tuple(verify_moments(formula, target).values()), target.vec
    if not is_verified(residuals, target):
        res = float(np.max(residuals))  # NaN if any residual is NaN
        raise NoFormulaFoundError(
            f"constructed formula fails verification: residual {res:.3e} > {VERIFY_TOL:.1e} min(1, max|target|)",
            best_residual=res,
        )
    object.__setattr__(formula, "residuals", residuals)
    return formula


def _orbit(shape, d):
    """Horizon-1 paths through the increments of ``shape`` and through every
    image of them under permutations and sign flips of the d space axes.

    Each increment lists its leading coordinates, time first, and is padded
    with zeros; a shape that uses k > d space axes has no image.  Only the k
    axes the shape uses are sent anywhere (d!/(d-k)! 2^k maps, not d! 2^d).
    Images are deduplicated in first-seen order, so the shape itself comes
    first.
    """
    k = max(len(inc) for inc in shape) - 1
    if k > d:
        return []
    incs = np.array([np.pad(np.asarray(inc, dtype=float), (0, k + 1 - len(inc))) for inc in shape])
    images = {}
    for axes in itertools.permutations(range(1, d + 1), k):
        for signs in itertools.product((1.0, -1.0), repeat=k):
            image = np.zeros((len(incs), d + 1))
            image[:, [0, *axes]] = incs * (1.0, *signs) + 0.0  # + 0.0 turns -0.0 into 0.0
            images.setdefault(image.tobytes(), image)
    return [paths.from_increments(1.0, image) for image in images.values()]


@lru_cache(maxsize=None)
def _expectation_degree3_unit(ctx):
    spikes = _orbit([(1.0, math.sqrt(ctx.d))], ctx.d)
    return _checked(CubatureFormula(ctx, 1.0, tuple((1.0 / len(spikes), p) for p in spikes)))


def expectation_degree3(ctx, t):
    """Classical 2d-path formula: time increment t, one space spike per path.

    Path (i, +-) is the straight line with increment t in component 0 and
    +-sqrt(d*t) in component i; all weights are 1/(2d).  Odd-space words
    cancel pairwise and the e_i^2 terms average to the heat coefficients, so
    the formula is exact through degree 3.
    """
    if ctx.m > 3:
        raise UnsupportedDegreeError(f"built-in degree-3 formula needs m <= 3, got m={ctx.m}")
    return rescale_formula(_expectation_degree3_unit(ctx), t)


DEGREE5_MAX_D = 5  # d = 6 has 1,445 paths: a two-step tree (1,445^2 leaves) is over the leaf cap


@lru_cache(maxsize=None)
def _degree5_moves_and_drift(ctx):
    """The degree-5 formula's middles and its drift line e_0: each Ninomiya-Victoir path is (e_0/2, middle,
    e_0/2), the middle z_i e_i along each axis with a nonzero 3-point Gauss-Hermite node z_i (z = 0: one zero
    increment, which the path drops), axis orders 1..d and d..1 each with half of z's weight, merged in order."""
    node, axes = math.sqrt(3.0), np.eye(ctx.d + 1)
    merged = {}
    for z in itertools.product((0.0, node, -node), repeat=ctx.d):
        weight = 0.5 * math.prod(2.0 / 3.0 if x == 0.0 else 1.0 / 6.0 for x in z)
        moves = [x * axes[i] for i, x in enumerate(z, 1) if x] or [0.0 * axes[0]]
        for order in (np.array(moves), np.array(moves[::-1])):
            merged.setdefault(order.tobytes(), [0.0, order])[0] += weight
    moves = tuple((w, paths.from_increments(1.0, incs)) for w, incs in merged.values())
    return CubatureFormula(ctx, 1.0, moves), CubatureFormula(ctx, 1.0, ((1.0, paths.line_path(1.0, axes[0])),))


@lru_cache(maxsize=None)
def _expectation_degree5_unit(ctx):
    half = np.eye(ctx.d + 1)[:1] / 2.0
    incs = [(w, np.vstack([half, p.increments(), half])) for w, p in _degree5_moves_and_drift(ctx)[0].items]
    items = tuple((w, paths.from_increments(1.0, inc[inc.any(axis=1)])) for w, inc in incs)
    return _checked(CubatureFormula(ctx, 1.0, items))


def expectation_degree5(ctx, t):
    """Degree-5 formula for d <= DEGREE5_MAX_D drivers, built once at t=1 and rescaled.

    The Ninomiya-Victoir splitting with each Gaussian replaced by the 3-point
    Gauss-Hermite rule (Ninomiya & Victoir 2008): positive closed-form
    weights, 3, 13, 47, 153 and 475 paths at d = 1..5, and no solve.
    """
    if ctx.d > DEGREE5_MAX_D or ctx.m != 5:
        raise UnsupportedDegreeError(
            f"built-in degree-5 formula needs d<={DEGREE5_MAX_D}, m=5, got d={ctx.d}, m={ctx.m}"
        )
    return rescale_formula(_expectation_degree5_unit(ctx), t)


def expectation_degree5_d1(ctx, t):
    """Degree-5 formula for a single driver (``expectation_degree5`` at d=1)."""
    if ctx.d != 1:
        raise UnsupportedDegreeError(f"expectation_degree5_d1 needs d=1, got d={ctx.d}")
    return expectation_degree5(ctx, t)


def greek_target(ctx, w, t):
    """Moment target for the direction w: dilate(sqrt t, w) * heat_element(t).

    w must be a Lie element with no constant term and no e_0 component; the
    e_0 coordinate equals the coefficient on the word (0), which no genuine
    bracket monomial can carry.
    """
    check_horizon(t)
    if w.coeff(()) != 0.0:
        raise DomainError("direction must have zero constant term")
    if abs(w.coeff((0,))) > 1e-14:
        raise DomainError("direction must have no e_0 component (no derivative exists there)")
    return algebra.mul(algebra.dilate(math.sqrt(t), w), algebra.heat_element(ctx, t))


def greeks_two_point(ctx, w, t):
    """Two straight lines +-sqrt(t)*w/|w| with weights +-|w|/2 (valid through m=2).

    For degree-1 directions the antisymmetric pair reproduces the target
    exactly: even powers cancel and sinh(sqrt(t) u) has no surviving term of
    degree <= 2 beyond the linear one.  The target is linear in w, so the
    paths stay at unit scale and |w| rides on the weights; that keeps the
    cubature remainder O(|w| t^{(m+1)/2}) instead of O((|w| sqrt t)^{m+1}).
    """
    if ctx.m > 2:
        raise UnsupportedDegreeError(
            f"two-point construction is exact only for m <= 2, got m={ctx.m}; use greeks_solve"
        )
    for word in w.coeffs:
        if len(word) != 1 or word[0] == 0:
            raise DomainError(f"two-point construction needs a degree-1 direction, found word {word}")
    w_vec = np.array([w.coeff((i,)) for i in range(1, ctx.d + 1)])
    norm = float(np.linalg.norm(w_vec))
    items, knots = (), paths.knot_stack((), ctx.d + 1)
    if norm > 0.0:
        (plus, minus), knots = _unit_pair(ctx, np.concatenate([[0.0], w_vec / norm]).tobytes())
        # exact +-norm/2 weights keep the constant-payoff estimate at literal zero
        items = ((0.5 * norm, plus), (-0.5 * norm, minus))
    formula = _checked(GreeksFormula(ctx, 1.0, w, items)._set_stack(*knots))
    return formula if t == 1.0 else rescale_formula(formula, t)


@lru_cache(maxsize=64)
def _unit_pair(ctx, unit):
    """The horizon-1 lines +-inc, for inc the float64 bytes ``unit``, and their read-only knot stack."""
    pair = (paths.line_path(1.0, np.frombuffer(unit)), paths.line_path(1.0, -np.frombuffer(unit)))
    return pair, _read_only(*paths.knot_stack(pair, ctx.d + 1))


def greeks_solve(ctx, w, t, dictionary):
    """Sign-free moment matching: solve sum mu_j sig(path_j) = greek target b.

    The dictionary's paths end at t.  A column-pivoted QR of the signature
    columns selects an independent subset (at most dim A columns), whose
    pseudo-inverse times b gives the weights; weights at most PRUNE_TOL s are
    pruned, with s = min(1, max|b|), and the support's pseudo-inverse gives
    them again, which must match to VERIFY_TOL s (``is_verified``).  Only b
    depends on w, so the default dictionary caches its columns, QR and each
    support's pseudo-inverse and knot stack per context."""
    if not dictionary:
        raise NoFormulaFoundError("empty dictionary", best_residual=None)
    b = algebra.to_dense(greek_target(ctx, w, t))
    scale = min(1.0, float(np.max(np.abs(b))))
    if dictionary is default_greeks_dictionary(ctx):
        S, selected = _unit_greeks_columns(ctx)
        solver = partial(_unit_support, ctx)
    else:
        S = paths.signatures(ctx, paths.knot_stack(dictionary, ctx.d + 1)[1])
        selected = _independent_columns(S)
        solver = partial(_support_solver, S)
    mu = solver(tuple(selected.tolist()))[0] @ b
    support = tuple(selected[np.abs(mu) > PRUNE_TOL * scale].tolist())
    pinv, order, columns, *knots = solver(support)
    mu = pinv @ b  # the empty-word row forces sum(mu) = 0 up to rounding; project it out
    mu = mu - mu.sum() / max(mu.size, 1)
    items = tuple((float(mu[k]), dictionary[support[k]]) for k in order)
    formula = GreeksFormula(ctx, t, algebra.dilate(math.sqrt(t), w), items)
    formula = formula._set_stack(*knots) if knots else formula
    return _checked(formula, _residuals(ctx, columns, formula.weights, b), b)


def _support_solver(S, support):
    """pinv(S[:, support]), the support's argsort order, and its columns in that order."""
    support = np.array(support, dtype=int)
    order = np.argsort(support)
    return np.linalg.pinv(S[:, support]), order, S[:, support[order]]


@lru_cache(maxsize=64)
def _unit_support(ctx, support):
    """``_support_solver`` on the horizon-1 default dictionary and, in its order, the support's
    knot stack, built once per (context, support), read-only."""
    pinv, order, columns = _support_solver(_unit_greeks_columns(ctx)[0], support)
    dictionary = default_greeks_dictionary(ctx)
    knots = paths.knot_stack([dictionary[support[j]] for j in order], ctx.d + 1)
    return _read_only(pinv, order, columns, *knots)


def _independent_columns(S):
    """Columns of S that a rank-revealing (column-pivoted) QR keeps, in pivot order."""
    import scipy.linalg  # loaded on first use: only a Greeks formula solve needs it

    _, R, piv = scipy.linalg.qr(S, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > 1e-12 * diag[0])) if diag.size and diag[0] > 0 else 0
    return piv[:rank]


@lru_cache(maxsize=None)
def default_greeks_dictionary(ctx):
    """Deterministic horizon-1 candidate paths for degree <= 3 Greek targets, one tuple per context.

    The orbits of straight lines along an axis (two magnitudes) and a plane
    diagonal, two-segment L-shapes in a coordinate plane, and time-space
    combinations.  ``paths.scale_path`` carries them to a horizon t.
    """
    T, e1, e2 = (1.0,), (0.0, 1.0), (0.0, 0.0, 1.0)
    shapes = [[e1], [(0.0, 0.5)], [(0.0, 1.0, 1.0)], [e1, e2], [T], [T, e1], [e1, T], [(1.0, 1.0)]]
    return tuple(p for shape in shapes for p in _orbit(shape, ctx.d))


@lru_cache(maxsize=None)
def _unit_greeks_columns(ctx):
    """Signature columns of the horizon-1 default dictionary and their QR choice, read-only."""
    S = paths.signatures(ctx, paths.knot_stack(default_greeks_dictionary(ctx), ctx.d + 1)[1])
    return _read_only(S, _independent_columns(S))


def rescale_formula(formula, t):
    """Carry a horizon-1 formula to horizon t via the path scaling map.

    Both sides of every degree-n moment identity scale by t^{n/2}, so the
    residuals verified at horizon 1 are scaled instead of re-verified; an
    unverified formula is checked once, at horizon 1.
    """
    check_horizon(t)
    if abs(formula.t - 1.0) > 1e-12:
        raise DomainError(f"rescale_formula expects a horizon-1 formula, got t={formula.t}")
    if formula.residuals is None:
        _checked(formula)
    if t == 1.0:
        return formula
    items = tuple((w, paths.scale_path(p, t)) for w, p in formula.items)
    if isinstance(formula, GreeksFormula):
        out = GreeksFormula(formula.ctx, t, algebra.dilate(math.sqrt(t), formula.direction), items)
    else:
        out = CubatureFormula(formula.ctx, t, items)
    return _checked(out, residuals=scaled_residuals(formula.residuals, t))


def scaled_residuals(residuals, t):
    """Per-degree residuals r_n verified at horizon 1, carried to horizon t: t^{n/2} r_n."""
    return tuple(r * t ** (n / 2) for n, r in enumerate(residuals))


def formula_to_dict(formula):
    flavor = "greeks" if isinstance(formula, GreeksFormula) else "expectation"
    data = {
        "d": formula.ctx.d,
        "m": formula.ctx.m,
        "t": formula.t,
        "flavor": flavor,
        "items": [{"w": float(w), "path": paths.path_to_dict(p)} for w, p in formula.items],
    }
    if flavor == "greeks":
        data["direction"] = algebra.element_to_dict(formula.direction)
    return data


def formula_from_dict(data, verify=True):
    """Rebuild a formula; its horizon, paths and direction must fit its t, d and m."""
    ctx = context(int(data["d"]), int(data["m"]))
    t = float(check_horizon(data["t"]))
    items = tuple((float(item["w"]), paths.path_from_dict(item["path"])) for item in data["items"])
    if data["flavor"] == "greeks":
        direction = algebra.element_from_dict(data["direction"])
        if direction.context != ctx:
            raise ContextMismatchError(f"direction lives in {direction.context}, formula in {ctx}")
        formula = GreeksFormula(ctx, t, direction, items)
    elif data["flavor"] == "expectation":
        formula = CubatureFormula(ctx, t, items)
    else:
        raise DomainError(f"unknown formula flavor {data['flavor']!r}")
    return _checked(formula) if verify else formula
