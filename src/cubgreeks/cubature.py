"""Construction and verification of cubature formulas.

An expectation formula is a list of positive weights and paths whose weighted
signatures reproduce the heat element; a Greeks formula uses sign-free
weights and targets (dilated direction) * (heat element).  Built-in
constructors cover the closed-form families; beyond those, formulas are found
by moment matching over a dictionary of candidate paths: signatures are
linear in the weights once the paths are fixed, so the solve is a (possibly
sign-constrained) linear least-squares problem in the coefficient basis.

Every built-in formula is built and verified once per context at horizon 1.
``rescale_formula`` alone carries it to a horizon t: sig(scale_path(p, t)) =
dilate(sqrt t, sig(p)), and both targets dilate the same way, so the degree-n
residual r_n verified at horizon 1 becomes t^{n/2} r_n with no second check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.optimize

from . import algebra, paths
from .algebra import context
from .errors import DomainError, NoFormulaFoundError, UnsupportedDegreeError

VERIFY_TOL = 1e-10
PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class _Formula:
    """Weights and paths at horizon t (the subclass declares ``items``).

    ``residuals[n]`` is the degree-n moment residual the constructor verified,
    or None for a formula nobody checked (built directly, or imported
    unverified); ``residual`` is their maximum.
    """

    ctx: algebra.AlgebraContext
    t: float
    residuals: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def weights(self):
        return np.array([w for w, _ in self.items])

    @property
    def paths(self):
        return [p for _, p in self.items]

    @property
    def residual(self):
        return None if self.residuals is None else max(self.residuals)


@dataclass(frozen=True)
class CubatureFormula(_Formula):
    """Expectation-flavor formula: positive weights summing to one."""

    items: tuple  # of (weight, PiecewisePath)

    def __post_init__(self):
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


def weighted_signature_sum(ctx, items):
    total = algebra.zero(ctx)
    for w, path in items:
        total = total + w * paths.signature(ctx, path)
    return total


def verify_moments(formula, target):
    """Per-degree max-abs coefficient error of sum w_j sig(path_j) - target."""
    ctx = formula.ctx
    diff = np.abs((weighted_signature_sum(ctx, formula.items) - target).vec)
    return {n: float(np.max(diff[ctx.degrees == n], initial=0.0)) for n in range(ctx.m + 1)}


def max_residual(formula, target=None):
    if target is None:
        target = formula.target()
    return max(verify_moments(formula, target).values())


def _checked(formula, tol=VERIFY_TOL, residuals=None):
    """Record the per-degree residuals on the formula and return it.

    The moments are verified unless ``residuals`` is given; either way the
    largest residual must not exceed tol.
    """
    if residuals is None:
        residuals = tuple(verify_moments(formula, formula.target()).values())
    res = max(residuals)
    if res > tol:
        raise NoFormulaFoundError(
            f"constructed formula fails verification: residual {res:.3e} > {tol:.1e}",
            best_residual=res,
        )
    object.__setattr__(formula, "residuals", residuals)
    return formula


@lru_cache(maxsize=None)
def _expectation_degree3_unit(ctx):
    d = ctx.d
    eye = np.eye(d + 1)
    items = tuple(
        (1.0 / (2 * d), paths.line_path(1.0, eye[0] + sign * math.sqrt(d) * eye[i]))
        for i in range(1, d + 1)
        for sign in (1.0, -1.0)
    )
    return _checked(CubatureFormula(ctx, 1.0, items))


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


def expectation_solve(ctx, t, dictionary, target=None, tol=VERIFY_TOL):
    """Positive-weight moment matching over a path dictionary (NNLS).

    Solves min ||sum_j w_j sig(path_j) - target|| subject to w >= 0, prunes
    weights below the threshold and re-polishes on the active support.
    """
    if target is None:
        target = algebra.heat_element(ctx, t)
    return _positive_solve(ctx, t, [(p,) for p in dictionary], target, tol)


def _positive_solve(ctx, t, groups, target, tol):
    """NNLS over groups of paths that share one weight, split evenly in the group.

    A group's column is its mean signature.  Weights below PRUNE_TOL are
    pruned, and an unconstrained re-solve on the support replaces them when
    it stays positive.
    """
    if not groups:
        raise NoFormulaFoundError("empty dictionary", best_residual=None)
    A = np.column_stack([
        sum(algebra.to_dense(paths.signature(ctx, p)) for p in group) * (1.0 / len(group))
        for group in groups
    ])
    b = algebra.to_dense(target)
    w, _ = scipy.optimize.nnls(A, b)
    support = np.flatnonzero(w > PRUNE_TOL)
    if support.size:
        # unconstrained polish on the active columns; keep only if it stays positive
        w_sub, *_ = np.linalg.lstsq(A[:, support], b, rcond=None)
        if np.all(w_sub > 0.0):
            w = np.zeros_like(w)
            w[support] = w_sub
    support = np.flatnonzero(w > PRUNE_TOL)
    residual = float(np.max(np.abs(A[:, support] @ w[support] - b))) if support.size else float(np.max(np.abs(b)))
    if residual > tol:
        raise NoFormulaFoundError(
            f"positive solver stalled at residual {residual:.3e} (dictionary too poor?)",
            best_residual=residual,
        )
    items = tuple(
        (float(w[j]) * (1.0 / len(groups[j])), p) for j in support for p in groups[j]
    )
    return _checked(CubatureFormula(ctx, t, items), tol)


def _degree5_d1_dictionary():
    """Symmetric candidate shapes for the d=1, m=5 solve at horizon 1.

    Each entry is a spatially-symmetric pair (path, negated path) sharing one
    weight; pairs kill all odd-space words exactly.  Shapes advance time
    linearly and distribute the total space increment over up to three
    segments; slopes are seeded from 3-point Gauss-Hermite nodes (0, +-sqrt3)
    with zero-sum wiggles supplying the mixed time-space freedom.
    """
    shapes = []
    totals = [0.0, math.sqrt(3.0), 2.0]
    fractions = [0.25, 0.5, 0.75]
    wiggles = [0.0, 0.5, 1.0, math.sqrt(3.0)]
    for a in totals:
        for alpha in fractions:
            shapes.append((a * alpha, a * (1.0 - alpha)))
        for c in wiggles:
            shapes.append((a / 3.0 + c, a / 3.0 - 2 * c, a / 3.0 + c))
            shapes.append((a / 3.0 - c, a / 3.0 + 2 * c, a / 3.0 - c))
            shapes.append((a / 2.0 + c, -c, a / 2.0))
    pairs = []
    seen = set()
    for shape in shapes:
        key = tuple(round(v, 12) for v in shape)
        if key in seen:
            continue
        seen.add(key)
        k = len(shape)
        incs = [np.array([1.0 / k, dv]) for dv in shape]
        p = paths.from_increments(1.0, incs)
        pairs.append((p, p.negated()))
    return pairs


@lru_cache(maxsize=None)
def _expectation_degree5_d1_unit():
    # one NNLS column per symmetric pair: the averaged signature
    ctx = context(1, 5)
    return _positive_solve(ctx, 1.0, _degree5_d1_dictionary(), algebra.heat_element(ctx, 1.0), VERIFY_TOL)


def expectation_degree5_d1(ctx, t):
    """Degree-5 formula for a single driver, solved once at t=1 and rescaled."""
    if ctx.d != 1 or ctx.m != 5:
        raise UnsupportedDegreeError(
            f"built-in degree-5 formula needs d=1, m=5, got d={ctx.d}, m={ctx.m}"
        )
    return rescale_formula(_expectation_degree5_d1_unit(), t)


def greek_target(ctx, w, t):
    """Moment target for the direction w: dilate(sqrt t, w) * heat_element(t).

    w must be a Lie element with no constant term and no e_0 component; the
    e_0 coordinate equals the coefficient on the word (0), which no genuine
    bracket monomial can carry.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"horizon must be positive and finite, got {t}")
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
    items = ()
    if norm > 0.0:
        inc = np.concatenate([[0.0], w_vec / norm])
        # exact +-norm/2 weights keep the constant-payoff estimate at literal zero
        items = (
            (0.5 * norm, paths.line_path(1.0, inc)),
            (-0.5 * norm, paths.line_path(1.0, -inc)),
        )
    return rescale_formula(_checked(GreeksFormula(ctx, 1.0, w, items)), t)


def greeks_solve(ctx, w, t, dictionary, tol=VERIFY_TOL):
    """Sign-free moment matching: solve sum mu_j sig(path_j) = greek target.

    The dictionary's paths end at t.  Dense least squares on the stacked
    signature columns; a column-pivoted QR selects an independent subset (at
    most dim A columns, hence r <= 2 dim A), weights below 1e-12 are pruned
    and the system re-solved on the support.
    """
    if not dictionary:
        raise NoFormulaFoundError("empty dictionary", best_residual=None)
    b = algebra.to_dense(greek_target(ctx, w, t))
    direction = algebra.dilate(math.sqrt(t), w)
    if not w.coeffs:
        return _checked(GreeksFormula(ctx, t, direction, ()), tol)
    A = np.column_stack([algebra.to_dense(paths.signature(ctx, p)) for p in dictionary])
    # rank-revealing column selection keeps the formula small
    _, R, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > 1e-12 * diag[0])) if diag.size and diag[0] > 0 else 0
    selected = piv[:rank]
    mu_sel, *_ = np.linalg.lstsq(A[:, selected], b, rcond=None)
    keep = np.abs(mu_sel) >= PRUNE_TOL
    selected = selected[keep]
    if selected.size:
        mu_sel, *_ = np.linalg.lstsq(A[:, selected], b, rcond=None)
        # the empty-word row forces sum(mu) = 0 up to rounding; project it out
        mu_sel = mu_sel - mu_sel.sum() / mu_sel.size
        residual = float(np.max(np.abs(A[:, selected] @ mu_sel - b)))
    else:
        mu_sel = np.zeros(0)
        residual = float(np.max(np.abs(b)))
    if residual > tol:
        raise NoFormulaFoundError(
            f"greeks solver stalled at residual {residual:.3e} (dictionary too poor?)",
            best_residual=residual,
        )
    order = np.argsort(selected)
    items = tuple((float(mu_sel[k]), dictionary[selected[k]]) for k in order)
    if len(items) > 2 * ctx.dim:
        raise NoFormulaFoundError(
            f"solver kept {len(items)} paths > 2 dim A = {2 * ctx.dim}", best_residual=residual
        )
    return _checked(GreeksFormula(ctx, t, direction, items), tol)


def default_greeks_dictionary(ctx, t):
    """Deterministic candidate paths for degree <= 3 Greek targets.

    Straight lines along coordinate axes and plane diagonals, two-segment
    L-shapes in every ordered coordinate plane, and time-space combinations.
    Built once per context at horizon 1 and carried to t by ``scale_path``.
    """
    return [paths.scale_path(p, t) for p in _unit_greeks_dictionary(ctx)]


@lru_cache(maxsize=None)
def _unit_greeks_dictionary(ctx):
    d = ctx.d
    signs = (1.0, -1.0)

    def axis(i, c):
        inc = np.zeros(d + 1)
        inc[i] = c
        return inc

    spaces = range(1, d + 1)
    # coordinate lines, two magnitudes
    out = [
        paths.line_path(1.0, axis(i, s * c)) for i, s, c in itertools.product(spaces, signs, (1.0, 0.5))
    ]
    planes = list(itertools.product(spaces, spaces, signs, signs))
    # plane diagonals
    out += [paths.line_path(1.0, axis(i, si) + axis(j, sj)) for i, j, si, sj in planes if i < j]
    # ordered L-shapes in every coordinate plane
    out += [
        paths.from_increments(1.0, [axis(i, si), axis(j, sj)]) for i, j, si, sj in planes if i != j
    ]
    # time-advancing variants: pure time, time-then-space, space-then-time, joint
    time_inc = axis(0, 1.0)
    out.append(paths.line_path(1.0, time_inc))
    for i, s in itertools.product(spaces, signs):
        out.append(paths.from_increments(1.0, [time_inc, axis(i, s)]))
        out.append(paths.from_increments(1.0, [axis(i, s), time_inc]))
        out.append(paths.line_path(1.0, time_inc + axis(i, s)))
    return tuple(out)


def rescale_formula(formula, t):
    """Carry a horizon-1 formula to horizon t via the path scaling map.

    Both sides of every degree-n moment identity scale by t^{n/2}, so the
    residuals verified at horizon 1 are scaled instead of re-verified; an
    unverified formula is checked once, at horizon 1.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"target horizon must be positive and finite, got {t}")
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
    return _checked(out, residuals=tuple(r * t ** (n / 2) for n, r in enumerate(formula.residuals)))


def formula_to_dict(formula):
    flavor = "greeks" if isinstance(formula, GreeksFormula) else "expectation"
    data = {
        "d": formula.ctx.d,
        "m": formula.ctx.m,
        "t": formula.t,
        "flavor": flavor,
        "items": [
            {"w": float(w), "path": paths.path_to_dict(p)} for w, p in formula.items
        ],
    }
    if flavor == "greeks":
        data["direction"] = algebra.element_to_dict(formula.direction)
    return data


def formula_from_dict(data, verify=True):
    ctx = context(int(data["d"]), int(data["m"]))
    t = float(data["t"])
    items = tuple(
        (float(item["w"]), paths.path_from_dict(item["path"])) for item in data["items"]
    )
    if data["flavor"] == "greeks":
        direction = algebra.element_from_dict(data["direction"])
        formula = GreeksFormula(ctx, t, direction, items)
    elif data["flavor"] == "expectation":
        formula = CubatureFormula(ctx, t, items)
    else:
        raise DomainError(f"unknown formula flavor {data['flavor']!r}")
    return _checked(formula) if verify else formula
