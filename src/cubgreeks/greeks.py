"""One-step and iterated cubature estimates for expectations and Greeks.

The one-step Greek applies a derivative-flavor formula directly; the iterated
scheme differentiates only over the first (small) step and chains expectation
formulas over the remaining partition, multiplying weights along the branches
of the resulting evaluation tree.  The tree is evaluated one level at a time:
a level is one (n, N) state array with its (n,) weights, evolved along each
formula path in a single batched call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from . import algebra, cubature, mc, sde
from .algebra import context
from .errors import (
    BudgetExceededError,
    DomainError,
    UnsupportedDegreeError,
)

DEFAULT_LEAF_CAP = 10**6


@dataclass(frozen=True)
class GreekRequest:
    """One iterated-scheme run: stage-0 Greek step plus expectation steps.

    ``partition`` lists the step sizes s_0..s_k (sum t); ``m`` is the Greek
    degree used over s_0 and ``m_prime`` the expectation degree for the rest.
    """

    system: sde.VectorFieldSystem
    payoff: object
    y: tuple
    v: tuple
    t: float
    m: int
    m_prime: int
    partition: tuple
    steps_per_segment: int = sde.DEFAULT_STEPS_PER_SEGMENT
    leaf_cap: int = DEFAULT_LEAF_CAP

    def __post_init__(self):
        steps = np.asarray(self.partition, dtype=float)
        if steps.size < 1 or np.any(steps <= 0.0):
            raise DomainError("partition steps must all be positive")
        if abs(steps.sum() - self.t) > 1e-9 * max(1.0, self.t):
            raise DomainError(f"partition sums to {steps.sum()}, expected t={self.t}")


@dataclass(frozen=True)
class GreekResult:
    estimate: float
    paths_evaluated: int
    formula_residuals: tuple
    # the stage-0 decomposition of v: {bracket word: coefficient}, residual
    direction_words: dict = field(default_factory=dict)
    decomposition_residual: float | None = None

    def to_dict(self):
        return {
            "estimate": self.estimate,
            "leaves": self.paths_evaluated,
            "residuals": list(self.formula_residuals),
        }


def expectation_formula(d, m_prime, t):
    """Built-in expectation formula for the requested degree, or raise."""
    if 1 <= m_prime <= 3:
        return cubature.expectation_degree3(context(d, 3), t)
    if m_prime == 5 and d == 1:
        return cubature.expectation_degree5_d1(context(1, 5), t)
    raise UnsupportedDegreeError(
        f"no built-in expectation formula for m'={m_prime}, d={d} (built-ins: m'<=3 any d, m'=5 d=1)"
    )


def expectation_one_step(system, f, y, t, m_prime, steps_per_segment=sde.DEFAULT_STEPS_PER_SEGMENT):
    """Sum lambda_j f(Y_t^y(omega_j)) over the built-in expectation formula."""
    formula = expectation_formula(system.d, m_prime, t)
    estimate, _ = _evaluate_tree(system, f, y, [formula], steps_per_segment)
    return estimate


def build_greek_formula(system, y, v, t, m):
    """Decompose v into brackets at y and construct the matching formula.

    Degree-1 decompositions at m <= 2, the zero direction included, use the
    two-point pair along the unit direction (``cubature.greeks_two_point``),
    which is what makes fixed-direction Greeks (|w| ~ t^{-k/2}) converge.
    Anything else goes through the sign-free solver over the default
    dictionary (fixed paths, so weights are linear in v there too).
    Returns (formula, (coefficients, residual) of the decomposition).
    """
    coeffs, residual = sde.decompose_direction(system, y, v, t, m)
    ctx = context(system.d, m)
    w = sde.lie_direction(ctx, coeffs)
    degrees = {algebra.word_degree(word) for word in coeffs}
    if m <= 2 and degrees <= {1}:
        formula = cubature.greeks_two_point(ctx, w, t)
    else:
        formula = cubature.greeks_solve(
            ctx, w, t, cubature.default_greeks_dictionary(ctx, t)
        )
    return formula, (coeffs, residual)


def _evolve_level(system, states, weights, formula, steps_per_segment):
    """The next tree level: every state evolved along every formula path.

    Returns (n*q, N) states in state-major, path-minor order (row i*q + j is
    state i along path j) and their weights weights[i] * lambda_j.  Each path
    is one batched ``evolve`` call, or one call per row when the fields only
    take single states; both do the same float operations per row.
    """
    n, q = len(states), len(formula.items)
    children = np.empty((n, q) + states.shape[1:])
    if n and q:
        batched = sde._fields_take_batches(system, states)
        for j, path in enumerate(formula.paths):
            if batched:
                children[:, j] = sde.evolve(system, states, path, steps_per_segment)
            else:
                for i, row in enumerate(states):
                    children[i, j] = sde.evolve(system, row, path, steps_per_segment)
    children = children.reshape((n * q,) + states.shape[1:])
    return children, (weights[:, None] * formula.weights[None, :]).ravel()


def _evaluate_tree(system, payoff, y0, formulas, steps_per_segment):
    """Sum of weight * payoff over the leaves of the tree the formulas span at y0.

    Returns (estimate, leaf count); leaves are reduced with fsum in leaf order.
    """
    states = np.asarray(y0, dtype=float).reshape(1, -1)
    weights = np.ones(1)
    for formula in formulas:
        states, weights = _evolve_level(system, states, weights, formula, steps_per_segment)
    return math.fsum(weights * mc._apply_payoff(payoff, states)), len(weights)


def greek_iterated(request: GreekRequest) -> GreekResult:
    """Evaluate the full tree: Greek step over s_0, expectation steps after.

    Weights multiply along branches and states chain through evolve, one
    batched level at a time; leaf contributions are reduced with fsum in leaf
    order.  The formula residuals are the ones their constructors verified.
    """
    system = request.system
    y0 = np.asarray(request.y, dtype=float)
    steps = [float(s) for s in request.partition]

    stage0, (coeffs, residual) = build_greek_formula(system, y0, request.v, steps[0], request.m)
    inner = [expectation_formula(system.d, request.m_prime, s) for s in steps[1:]]

    leaves = max(len(stage0.items), 1)
    for formula in inner:
        leaves *= len(formula.items)
    if leaves > request.leaf_cap:
        raise BudgetExceededError(
            f"evaluation tree needs {leaves} leaves > cap {request.leaf_cap}",
            required=leaves,
            cap=request.leaf_cap,
        )

    formulas = [stage0, *inner]
    estimate, evaluated = _evaluate_tree(
        system, request.payoff, y0, formulas, request.steps_per_segment
    )
    return GreekResult(
        estimate=estimate,
        paths_evaluated=evaluated,
        formula_residuals=tuple(f.residual for f in formulas),
        direction_words=coeffs,
        decomposition_residual=residual,
    )


def greek_one_step(
    system,
    f,
    y,
    v,
    t,
    m,
    steps_per_segment=sde.DEFAULT_STEPS_PER_SEGMENT,
    leaf_cap=DEFAULT_LEAF_CAP,
) -> GreekResult:
    """Single-interval Greek estimate: sum mu_j f(Y_t^y(omega_j))."""
    request = GreekRequest(
        system=system,
        payoff=f,
        y=tuple(np.asarray(y, dtype=float)),
        v=tuple(np.asarray(v, dtype=float)),
        t=t,
        m=m,
        m_prime=3,
        partition=(t,),
        steps_per_segment=steps_per_segment,
        leaf_cap=leaf_cap,
    )
    return greek_iterated(request)


def gamma_partition(t, s0, k, gamma):
    """Step sizes [s_0, s_1..s_k] with t_i = s_0 + (t-s_0)(1 - (1 - i/k)^gamma).

    gamma = 1 gives uniform inner steps; larger gamma shrinks the later steps
    toward t, matching the (t - t_i)^{-m'/2} weighting of the error bound.
    """
    if not (0.0 < s0 < t):
        raise DomainError(f"need 0 < s0 < t, got s0={s0}, t={t}")
    if k < 1:
        raise DomainError(f"need k >= 1 inner steps, got {k}")
    if gamma < 1.0:
        raise DomainError(f"need gamma >= 1, got {gamma}")
    knots = [s0 + (t - s0) * (1.0 - (1.0 - i / k) ** gamma) for i in range(k)]
    knots.append(t)
    steps = [s0]
    steps.extend(knots[i + 1] - knots[i] for i in range(k))
    return steps
