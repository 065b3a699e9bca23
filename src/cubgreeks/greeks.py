"""One-step and iterated cubature estimates for expectations and Greeks.

The one-step Greek applies a derivative-flavor formula directly; the iterated
scheme differentiates only over the first (small) step and chains expectation
formulas over the remaining partition, multiplying weights along the branches
of the resulting evaluation tree.  The tree is evaluated one level at a time:
a level is one (n, N) state array with its (n,) weights, evolved in one batched
call along the formula's padded stack of paths (``stack``, built once per
formula at horizon 1), carried to the stage's step by ``paths.scale_knots``.

The step rule: unless ``steps_per_segment`` fixes it, a (formula, step) stage
runs at the smallest integer n <= 16 RK4 steps per segment with err1 / n^4
<= tol, else 16.  tol is ODE_TOL at stage 0, the whole tree of a one-step
estimate and held to its 1e-10 identities, and INNER_ODE_TOL at each later
stage, an expectation step of an iterated scheme whose own error is ~1e-3.
err1 = |y2 - y1| 16/15 / max(1, |y2|) is the one-step error estimated on at
most 4 states of the level evolved at 1 and 2 steps, once per formula and tree:
a later stage at a step s <= s_ref of that probe takes err1 (s / s_ref)^(5/2).
A probe of the whole level with n <= 2 is the level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import numbers

import numpy as np

from . import cubature, paths, sde
from .algebra import context
from .errors import (
    BlowUpError,
    BudgetExceededError,
    DomainError,
    NoFormulaFoundError,
    UnsupportedDegreeError,
    check_horizon,
    is_finite,
    is_integer,
)

DEFAULT_LEAF_CAP = 10**6
ODE_TOL = 1e-11  # the step rule's bound on a stage's estimated relative RK4 error
INNER_ODE_TOL = 1e-9  # the same bound on every stage after the first


@dataclass(frozen=True)
class GreekRequest:
    """One iterated-scheme run: stage-0 Greek step plus expectation steps.

    ``partition`` lists the step sizes s_0..s_k (sum t); ``m`` is the Greek
    degree used over s_0 and ``m_prime`` the expectation degree for the rest.
    ``steps_per_segment`` fixes the RK4 steps per segment, None applies the step rule.
    """

    system: sde.VectorFieldSystem
    payoff: object
    y: tuple
    v: tuple
    t: float
    m: int
    m_prime: int
    partition: tuple
    steps_per_segment: int | None = None
    leaf_cap: int = DEFAULT_LEAF_CAP

    def __post_init__(self):
        if not (is_integer(self.m) and is_integer(self.m_prime)):
            raise DomainError(f"m and m_prime must be integers, got {self.m!r} and {self.m_prime!r}")
        parts = self.partition if isinstance(self.partition, (tuple, list, np.ndarray)) else ()
        steps = [float(s) for s in parts] if all(isinstance(s, numbers.Real) for s in parts) else []
        total = sum(steps)  # a float sum overflows to inf without a warning
        if not (steps and all(0.0 < s < math.inf for s in steps) and total < math.inf):
            raise DomainError("partition steps must be flat numbers, positive and finite, and so must their sum")
        sde._state_args(self.system, self.t, self.y, self.v)
        fixed = 1 if self.steps_per_segment is None else self.steps_per_segment
        for name, value in (("steps_per_segment", fixed), ("leaf_cap", self.leaf_cap)):
            if not (is_integer(value) and value >= 1):
                raise DomainError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if abs(total - self.t) > 1e-9 * max(1.0, self.t):
            raise DomainError(f"partition sums to {total}, expected t={self.t}")


@dataclass(frozen=True)
class GreekResult:
    estimate: float
    paths_evaluated: int
    formula_residuals: tuple
    # the stage-0 decomposition of v: {bracket word: coefficient}, residual
    direction_words: dict = field(default_factory=dict)
    decomposition_residual: float | None = None
    ode_steps: tuple = ()  # per stage: RK4 steps per segment
    ode_errors: tuple = ()  # per stage: the step rule's error estimate, None for a fixed count

    def to_dict(self):
        return {
            "estimate": self.estimate,
            "leaves": self.paths_evaluated,
            "residuals": list(self.formula_residuals),
        }


def expectation_formula(d, m_prime):
    """Built-in horizon-1 expectation formula for the requested degree, or raise."""
    if not is_integer(m_prime):
        raise DomainError(f"m' must be an integer, got {m_prime!r}")
    if 1 <= m_prime <= 3:
        return cubature._expectation_degree3_unit(context(d, 3))
    # the driver limit is checked before context(d, 5), whose basis grows like d^5
    if m_prime == 5 and d <= cubature.DEGREE5_MAX_D:
        return cubature._expectation_degree5_unit(context(d, 5))
    raise UnsupportedDegreeError(
        f"no built-in expectation formula for m'={m_prime}, d={d} (m'<=3 at any d; m'=5 at"
        f" d<={cubature.DEGREE5_MAX_D}, beyond which a two-step tree of its paths is over the leaf cap)"
    )


def expectation_one_step(system, f, y, t, m_prime, steps_per_segment=None):
    """Sum lambda_j f(Y_t^y(omega_j)) over the built-in expectation formula."""
    y, _ = sde._state_args(system, t, y)
    return _evaluate_tree(system, f, y, [(expectation_formula(system.d, m_prime), t)], steps_per_segment)[0]


def build_greek_formula(system, y, v, t, m):
    """Decompose v into brackets at y and construct the matching formula.

    At m <= 2 the decomposition has degree-1 words only (none for the zero
    direction) and uses the two-point pair along the unit direction
    (``cubature.greeks_two_point``), which is what makes fixed-direction
    Greeks (|w| ~ t^{-k/2}) converge.
    Anything else goes through the sign-free solver over the default
    dictionary (fixed paths, so weights are linear in v there too).  Its moment
    check decides the dictionary's reach: a solve that fails it raises
    UnsupportedDegreeError with the best residual.
    Returns (horizon-1 formula, (coefficients, residual) of the decomposition at t).
    """
    coeffs, residual = sde.decompose_direction(system, y, v, t, m)
    ctx = context(system.d, m)
    w = sde.lie_direction(ctx, coeffs)
    if m <= 2:
        return cubature.greeks_two_point(ctx, w, 1.0), (coeffs, residual)
    try:
        formula = cubature.greeks_solve(ctx, w, 1.0, cubature.default_greeks_dictionary(ctx))
    except NoFormulaFoundError as exc:
        raise UnsupportedDegreeError(
            f"m={m} is beyond the reach of the default Greeks dictionary for this direction: "
            f"best residual {exc.best_residual:.3e}"
        ) from exc
    return formula, (coeffs, residual)


def _evolve_level(system, states, weights, formula, s, steps_per_segment):
    """The next tree level: every state evolved along every formula path at step s.

    Returns (n*q, N) states in state-major, path-minor order (row i*q + j is
    state i along path j) and their weights weights[i] * lambda_j, from one
    ``evolve`` call along the formula's padded horizon-1 ``stack`` (built once
    per formula), carried to s by ``paths.scale_knots`` and tiled over the states.
    A system written for single states comes as its ``sde.batched`` copy and
    runs row by row in the same call, under the zero-slope rule for stacks
    (see ``sde.evolve``): a field non-finite on a row its path does not drive,
    or at a padded row's end state, gives NaN there when another path drives it.
    """
    times, points, shared, lam = formula.stack
    n, q = len(states), len(lam)
    weights = (weights[:, None] * lam[None, :]).ravel()
    if not (n and q):
        return np.empty((0,) + states.shape[1:]), weights
    times, points = paths.scale_knots(times, points, s)
    stack = (times[0] if shared else np.tile(times, (n, 1)), np.tile(points, (n, 1, 1)))
    return sde.evolve(system, np.repeat(states, q, axis=0), stack, steps_per_segment), weights


def _probe(system, states, weights, formula, s):
    """(err1, the 2-step level if the probe states are all the states, else
    None) of the step rule; a blow-up at 1 step reads as err1 = inf."""
    stride = -(-len(states) // 4) or 1
    states, weights = states[::stride], weights[::stride]
    try:
        (y1, _), level = (_evolve_level(system, states, weights, formula, s, n) for n in (1, 2))
    except BlowUpError:
        return math.inf, None
    scale = np.maximum(1.0, np.abs(level[0]).max(axis=-1, initial=0.0))
    err1 = 16.0 / 15.0 * (np.abs(level[0] - y1).max(axis=-1, initial=0.0) / scale).max(initial=0.0)
    return float(err1), level if stride == 1 else None


def _evaluate_tree(system, payoff, y0, stages, steps_per_segment, ode=None):
    """Sum of weight * payoff over the leaves the (formula, step) stages span at y0.

    System and payoff are probed once, at y0, for batches (``sde.batched``).
    Each level is one ``evolve`` call at ``steps_per_segment``, if None at the
    step rule's count; (count, error estimate or None) per stage go to ``ode``.
    Returns (estimate, leaf count); leaves are reduced with fsum in leaf order.
    """
    system, payoff = sde.batched(system, y0), sde._scalar_payoff(payoff, y0)
    states, weights = np.asarray(y0, dtype=float).reshape(1, -1), np.ones(1)
    probed = {}  # id(formula) -> (step, err1) of its probe
    for i, (formula, s) in enumerate(stages):
        n, err, level = steps_per_segment, None, None
        if n is None:
            s_ref, err1 = probed.get(id(formula), (0.0, math.inf))
            if s <= s_ref:
                err1 *= (s / s_ref) ** 2.5
            else:
                err1, level = _probe(system, states, weights, formula, s)
                probed[id(formula)] = (s, err1)
            tol = INNER_ODE_TOL if i else ODE_TOL
            n = next((k for k in range(1, 16) if err1 <= tol * k**4), sde.DEFAULT_STEPS_PER_SEGMENT)
            level, n = (level, 2) if level is not None and n <= 2 else (None, n)
            err = err1 / n**4
        states, weights = level or _evolve_level(system, states, weights, formula, s, n)
        if ode is not None:
            ode.append((n, err))
    return math.fsum(weights * payoff(states)), len(weights)


def greek_iterated(request: GreekRequest) -> GreekResult:
    """Evaluate the full tree: Greek step over s_0, expectation steps after.

    Weights multiply along branches and states chain through evolve, one
    batched level at a time; leaf contributions are reduced with fsum in leaf
    order.  The formula residuals are the ones their constructors verified
    at horizon 1, carried to each step.  The inner degree is checked before
    stage 0 is solved, and the leaf count before the tree is evaluated.
    """
    system = request.system
    y0 = np.asarray(request.y, dtype=float)
    steps = [float(s) for s in request.partition]
    k = len(steps) - 1
    # every inner stage is this formula at its own step, so each has q paths
    unit = expectation_formula(system.d, request.m_prime) if k else None

    stage0, (coeffs, residual) = build_greek_formula(system, y0, request.v, steps[0], request.m)

    n0, q = max(len(stage0.items), 1), len(unit.items) if k else 1
    leaves = n0 * q**k
    if leaves > request.leaf_cap:
        raise BudgetExceededError(
            f"evaluation tree needs {n0} x {q}^{k} leaves > cap {request.leaf_cap}",
            required=leaves,
            cap=request.leaf_cap,
        )

    stages = [(stage0, steps[0]), *((unit, s) for s in steps[1:])]
    ode = []
    estimate, evaluated = _evaluate_tree(system, request.payoff, y0, stages, request.steps_per_segment, ode)
    return GreekResult(
        estimate=estimate,
        paths_evaluated=evaluated,
        formula_residuals=tuple(max(cubature.scaled_residuals(f.residuals, s)) for f, s in stages),
        direction_words=coeffs,
        decomposition_residual=residual,
        ode_steps=tuple(n for n, _ in ode),
        ode_errors=tuple(err for _, err in ode),
    )


def greek_one_step(system, f, y, v, t, m, steps_per_segment=None) -> GreekResult:
    """Single-interval Greek estimate: sum mu_j f(Y_t^y(omega_j))."""
    request = GreekRequest(
        system=system, payoff=f, y=tuple(np.asarray(y, dtype=float)), v=tuple(np.asarray(v, dtype=float)),
        t=t, m=m, m_prime=3, partition=(t,), steps_per_segment=steps_per_segment,
    )
    return greek_iterated(request)


def gamma_partition(t, s0, k, gamma):
    """Step sizes [s_0, s_1..s_k] with t_i = s_0 + (t-s_0)(1 - (1 - i/k)^gamma).

    gamma = 1 gives uniform inner steps; larger gamma shrinks the later steps
    toward t, matching the (t - t_i)^{-m'/2} weighting of the error bound.
    """
    check_horizon(t)
    if not (is_finite(s0) and 0.0 < s0 < t):
        raise DomainError(f"need 0 < s0 < t, got s0={s0}, t={t}")
    if not (is_integer(k) and k >= 1):
        raise DomainError(f"need an integer k >= 1 inner steps, got {k!r}")
    if not (is_finite(gamma) and gamma >= 1.0):
        raise DomainError(f"need a finite gamma >= 1, got {gamma!r}")
    knots = [s0 + (t - s0) * (1.0 - (1.0 - i / k) ** gamma) for i in range(k)] + [t]
    return [s0, *(knots[i + 1] - knots[i] for i in range(k))]
