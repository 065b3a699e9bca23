import dataclasses
import gc
import importlib.util
import itertools
import math
import sys
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cubgreeks import algebra, cli, cubature, greeks, paths, sde
from cubgreeks.algebra import AlgebraContext, context, lie_basis
from cubgreeks.cli import fit_loglog_slope
from cubgreeks.errors import (
    BlowUpError,
    BudgetExceededError,
    DomainError,
    NoFormulaFoundError,
    UnsupportedDegreeError,
    UnsupportedPayoffError,
)
from cubgreeks.greeks import (
    GreekRequest,
    build_greek_formula,
    expectation_one_step,
    gamma_partition,
    greek_iterated,
    greek_one_step,
)
from cubgreeks.mc import McConfig, Payoff, bs_closed_form, fd_greek

from oracles import heisenberg_one_state, max_residual, scalar_tree

BS = sde.black_scholes(0.05, 0.3)
SIGMA, R = 0.3, 0.05


def first(x):
    return float(np.asarray(x)[0])


class TestExpectationOneStep:
    def test_constant_payoff_exact(self):
        est = expectation_one_step(BS, lambda x: 1.0, [1.0], 0.3, 3)
        assert est == 1.0

    def test_black_scholes_linear_payoff(self):
        t = 0.1
        est = expectation_one_step(BS, first, [1.0], t, 3)
        ref = math.exp(R * t)
        # degree-3 bias is sigma^4 t^2 / 12 to leading order
        assert abs(est - ref) < 2.0 * SIGMA**4 * t * t / 12.0

    def test_linear_payoff_on_additive_system(self):
        # constant fields: the weighted average collapses to the drifted point
        def v0(y):
            return np.full_like(y, 0.7)

        def v1(y):
            return np.full_like(y, 1.3)

        system = sde.VectorFieldSystem(dim=1, d=1, fields=(v0, v1))
        t = 0.25
        est = expectation_one_step(system, first, [0.2], t, 3)
        assert abs(est - (0.2 + 0.7 * t)) < 1e-12

    def test_degree5_route(self):
        est = expectation_one_step(BS, first, [1.0], 0.1, 5)
        assert abs(est - math.exp(R * 0.1)) < 1e-4

    def test_unsupported_degree(self):
        with pytest.raises(UnsupportedDegreeError):
            expectation_one_step(BS, first, [1.0], 0.1, 4)

    @pytest.mark.parametrize("m_prime", [2.5, 3.0, "3"])
    def test_non_integer_degree_is_refused(self, m_prime):
        # 2.5 once ran the m' = 3 formula
        with pytest.raises(DomainError, match="m' must be an integer"):
            expectation_one_step(BS, first, [1.0], 0.3, m_prime)

    @pytest.mark.parametrize("run", [
        lambda: expectation_one_step(BS, first, [1.0, 2.0], 0.25, 3),
        lambda: expectation_one_step(BS, first, [[1.0]], 0.25, 3),
        lambda: greek_one_step(BS, first, [1.0], [0.3, 0.1], 0.25, 2),
        lambda: greek_one_step(sde.heisenberg_toy(), first, [0.3], [0.0, 1.0], 0.25, 3),
        lambda: greek_one_step(BS, first, [[1.0]], [1.0], 0.25, 2),
    ], ids=["expectation-y2", "expectation-y1x1", "greek-v2", "greek-heisenberg-y1", "greek-y1x1"])
    def test_state_and_direction_need_one_entry_per_axis(self, monkeypatch, run):
        monkeypatch.setattr(sde, "evolve", lambda *args, **kwargs: pytest.fail("evolve was called"))
        with pytest.raises(DomainError, match="has shape"):
            run()

    @pytest.mark.parametrize("run", [
        lambda: greek_one_step(BS, first, [math.nan], [1.0], 0.2, 2),
        lambda: greek_one_step(BS, first, [1.0], [math.inf], 0.2, 2),
        lambda: expectation_one_step(BS, first, [-math.inf], 0.2, 3),
        lambda: fd_greek(BS, Payoff("identity"), [1.0], [math.nan], 0.2, McConfig(4, 2)),
    ], ids=["greek-y", "greek-v", "expectation-y", "fd-v"])
    def test_non_finite_state_or_direction_is_refused_quietly(self, capfd, run):
        # a NaN state once reached LAPACK, which printed to stderr before LinAlgError
        with pytest.raises(DomainError, match="non-finite entry"):
            run()
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_bad_horizon_is_refused_before_any_evolve(self, monkeypatch, t):
        monkeypatch.setattr(sde, "evolve", lambda *args, **kwargs: pytest.fail("evolve was called"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="horizon must be positive and finite"):
                expectation_one_step(BS, first, [1.0], t, 3)


class TestGreekOneStep:
    def test_black_scholes_sinh_identity(self):
        t = 0.25
        v = [math.sqrt(t) * SIGMA]
        result = greek_one_step(BS, first, [1.0], v, t, 2)
        assert abs(result.estimate - math.sinh(SIGMA * math.sqrt(t))) < 1e-10
        assert result.paths_evaluated == 2

    def test_sinh_vs_true_derivative_order(self):
        ts = [0.4, 0.2, 0.1, 0.05]
        errors = []
        for t in ts:
            v = math.sqrt(t) * SIGMA
            est = greek_one_step(BS, first, [1.0], [v], t, 2).estimate
            truth = v * math.exp(R * t)
            errors.append(abs(est - truth))
        assert fit_loglog_slope(ts, errors) >= 1.4

    def test_constant_payoff_is_exactly_zero(self):
        result = greek_one_step(BS, lambda x: 42.0, [1.0], [0.1], 0.25, 2)
        assert result.estimate == 0.0

    def test_two_path_estimate_matches_secant_of_expectation(self):
        # secant of the one-step expectation with the same +-v displacement
        system = sde.heisenberg_toy()
        y = np.array([0.2, 0.1])
        payoff = lambda x: math.sin(float(x[0]) + 2.0 * float(x[1]))
        ts = [0.4, 0.2, 0.1, 0.05]
        diffs = []
        for t in ts:
            v = math.sqrt(t) * system.field(1, y)
            est = greek_one_step(system, payoff, y, v, t, 2).estimate
            secant = 0.5 * (
                expectation_one_step(system, payoff, y + v, t, 3)
                - expectation_one_step(system, payoff, y - v, t, 3)
            )
            diffs.append(abs(est - secant))
        assert fit_loglog_slope(ts, diffs) >= 1.2  # theory: both sides O(t^1.5)

    def test_linear_in_payoff(self):
        t = 0.2
        v = [0.07]
        f = first
        g = lambda x: math.cos(float(np.asarray(x)[0]))
        a, b = 1.7, -0.4
        combo = lambda x: a * f(x) + b * g(x)
        r_f = greek_one_step(BS, f, [1.0], v, t, 2).estimate
        r_g = greek_one_step(BS, g, [1.0], v, t, 2).estimate
        r_c = greek_one_step(BS, combo, [1.0], v, t, 2).estimate
        assert abs(r_c - (a * r_f + b * r_g)) < 1e-10

    def test_linear_in_direction_through_solver(self):
        # the solver keeps the dictionary fixed, so weights are linear in v
        system = sde.heisenberg_toy()
        y = np.array([0.3, 0.2])
        payoff = lambda x: math.sin(float(x[0])) + float(x[1]) ** 2
        t = 0.15
        v1 = np.array([0.4, 0.1])
        v2 = np.array([-0.2, 0.3])
        a, b = 0.6, 1.1
        r1 = greek_one_step(system, payoff, y, v1, t, 3).estimate
        r2 = greek_one_step(system, payoff, y, v2, t, 3).estimate
        rc = greek_one_step(system, payoff, y, a * v1 + b * v2, t, 3).estimate
        assert abs(rc - (a * r1 + b * r2)) < 1e-10

    def test_hypoelliptic_direction_uses_solver(self):
        system = sde.heisenberg_toy()
        t = 0.1
        result = greek_one_step(system, lambda x: float(x[1]), [0.0, 0.0], [0.0, 1.0], t, 3)
        # the x2 endpoint reads off the area coefficient, matched exactly
        assert abs(result.estimate - 1.0) < 1e-9
        assert max(result.formula_residuals) < 1e-10


class TestGreekIterated:
    def test_single_stage_identical_to_one_step(self):
        t = 0.3
        v = (0.05,)
        request = GreekRequest(
            system=BS, payoff=first, y=(1.0,), v=v, t=t, m=2, m_prime=3, partition=(t,)
        )
        assert greek_iterated(request).estimate == greek_one_step(BS, first, [1.0], v, t, 2).estimate

    def test_constant_payoff_zero(self):
        steps = gamma_partition(0.5, 0.1, 3, 2.0)
        request = GreekRequest(
            system=BS, payoff=lambda x: 3.14, y=(1.0,), v=(0.1,), t=0.5,
            m=2, m_prime=3, partition=tuple(steps),
        )
        assert greek_iterated(request).estimate == 0.0

    def test_leaf_count_and_residuals(self):
        steps = gamma_partition(0.5, 0.1, 3, 2.0)
        request = GreekRequest(
            system=BS, payoff=first, y=(1.0,), v=(0.1,), t=0.5,
            m=2, m_prime=3, partition=tuple(steps),
        )
        result = greek_iterated(request)
        assert result.paths_evaluated == 2 * 2**3
        assert len(result.formula_residuals) == 4
        assert max(result.formula_residuals) < 1e-10

    def test_budget_cap(self, tmp_path, capsys):
        steps = gamma_partition(0.5, 0.1, 4, 2.0)
        request = GreekRequest(
            system=BS, payoff=first, y=(1.0,), v=(0.1,), t=0.5,
            m=2, m_prime=3, partition=tuple(steps), leaf_cap=10,
        )
        with pytest.raises(BudgetExceededError) as err:
            greek_iterated(request)
        assert err.value.required == 32
        # 2 * 2^20000 has 6,021 digits, past Python's int-to-str limit
        request = dataclasses.replace(request, partition=tuple(gamma_partition(0.5, 0.1, 20000, 1.0)))
        with pytest.raises(BudgetExceededError) as err:
            greek_iterated(request)
        assert err.value.required == 2 * 2**20000
        assert "needs 2 x 2^20000 leaves > cap 10" in str(err.value)
        model = tmp_path / "bs.json"
        model.write_text('{"model":"black_scholes","params":{"r":0.05,"sigma":0.3}}')
        assert cli.main([
            "greek", "--model", str(model), "--y", "1.0", "--direction", "0.1", "--t", "0.5",
            "--s0", "0.1", "--partition", "20000,1",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: evaluation tree needs 2 x 2^20000 leaves") and err.count("\n") == 1

    def test_smoothed_call_delta_close(self):
        payoff = Payoff("smoothed_call", 1.15, 0.05)
        _, ref_delta = bs_closed_form(R, SIGMA, 1.0, 1.0, payoff)
        steps = gamma_partition(1.0, 0.1, 4, 3.0)
        request = GreekRequest(
            system=BS, payoff=payoff, y=(1.0,), v=(1.0,), t=1.0,
            m=2, m_prime=3, partition=tuple(steps),
        )
        result = greek_iterated(request)
        assert abs(result.estimate - ref_delta) < 5e-3

    def test_partition_must_sum_to_t(self):
        with pytest.raises(DomainError):
            GreekRequest(
                system=BS, payoff=first, y=(1.0,), v=(0.1,), t=1.0,
                m=2, m_prime=3, partition=(0.1, 0.2),
            )

    @pytest.mark.parametrize("t, partition", [
        (math.nan, (0.5, 0.5)),  # nan - 1.0 passes the sum check
        (math.inf, (0.1, math.inf)),  # inf - inf warned before the check
        (1.0, (0.5, math.nan)),
        (1.0, (0.5, math.inf)),
        (math.inf, (math.inf,)),
        (-math.inf, (0.5, 0.5)),
        (1e308, (1e308, 1e308)),  # finite steps whose sum overflows
    ])
    def test_non_finite_horizon_or_step_is_refused_without_a_warning(self, t, partition):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="positive and finite"):
                GreekRequest(
                    system=BS, payoff=first, y=(1.0,), v=(0.1,), t=t,
                    m=2, m_prime=3, partition=partition,
                )


HEISENBERG = sde.heisenberg_toy()


def _scalar_call(x):
    # single states only: on a batch max() meets an array and raises
    return max(float(x[0]) - 1.0, 0.0)


def _scalar_mix(x):
    return math.sin(float(x[0])) * float(x[1]) + float(x[1]) ** 2


BATCH_PAYOFFS = {
    1: {
        "identity": Payoff("identity"),
        "call": Payoff("call", 1.0),
        "constant": lambda x: 3.14,
        "scalar_only": _scalar_call,
    },
    2: {
        "identity": Payoff("identity"),
        "call": Payoff("call", 0.1),
        "constant": lambda x: 3.14,
        "scalar_only": _scalar_mix,
        # reads a row of a batch: a (2, 2) leaf array looks batched to it
        "row_reading": lambda x: x[0],
    },
}


def _tree_case(d, m_prime, direction, k):
    """A (system, y, v, partition) case with k inner steps of degree m'."""
    if d == 1:
        system, y, v = BS, (1.0,), (direction,)
    else:
        system, y, v = HEISENBERG, (0.4, -0.2), (0.3 * direction, -0.5 * direction)
    steps = gamma_partition(0.6, 0.1, k, 2.0) if k else [0.6]
    return system, y, v, tuple(steps)


def rescaled_stages(system, y, v, steps, m, m_prime):
    """The stage-0 and inner formulas carried to their steps by ``rescale_formula``."""
    stage0, _ = greeks.build_greek_formula(system, np.array(y), v, steps[0], m)
    inner = greeks.expectation_formula(system.d, m_prime) if len(steps) > 1 else None
    return (
        cubature.rescale_formula(stage0, steps[0]),
        [cubature.rescale_formula(inner, s) for s in steps[1:]],
    )


class TestLevelBatching:
    """The batched level evaluation against one scalar evolve per tree node."""

    @pytest.mark.parametrize("d,m_prime,k", [
        (1, 1, 3), (1, 3, 3), (1, 5, 2), (2, 1, 2), (2, 3, 2), (2, 3, 0),
    ])
    @pytest.mark.parametrize("direction", [1.0, 0.0])
    def test_bitwise_equal_to_scalar_tree(self, d, m_prime, k, direction):
        system, y, v, steps = _tree_case(d, m_prime, direction, k)
        # at d = 2, m = 3 the solver-built stage 0 has paths of one and two
        # segments, so its level pads the one-segment paths
        ms = (2, 3) if d == 2 else (2,)
        for m, (name, payoff) in itertools.product(ms, BATCH_PAYOFFS[d].items()):
            request = GreekRequest(
                system=system, payoff=payoff, y=y, v=v, t=0.6, m=m,
                m_prime=m_prime, partition=steps,
            )
            result = greek_iterated(request)
            stage0, inner = rescaled_stages(system, y, v, steps, m, m_prime)
            estimate, leaves = scalar_tree(system, payoff, y, [stage0, *inner], result.ode_steps)
            assert result.estimate.hex() == estimate.hex(), (m, name)
            assert result.paths_evaluated == leaves, (m, name)
            if d == 2:
                # the same model written for one state: n == N at the root's
                # children, and the probe must still send it row by row
                one_state = greek_iterated(dataclasses.replace(request, system=heisenberg_one_state()))
                assert one_state.estimate.hex() == estimate.hex(), (m, name)
            if direction == 0.0:
                assert (result.estimate, leaves) == (0.0, 0)
            elif m == 3:
                assert len({p.times.tobytes() for p in stage0.paths}) == 2

    def test_undriven_nan_field_is_never_evaluated(self):
        # V2 is nan everywhere, and the two-point paths along e_1 never drive it
        nan_field = lambda y: np.full_like(y, np.nan)
        system = sde.VectorFieldSystem(dim=2, d=2, fields=HEISENBERG.fields[:2] + (nan_field,))
        w = algebra.TensorElement(context(2, 2), {(1,): 0.7})
        unit = cubature.greeks_two_point(context(2, 2), w, 1.0)
        formula = cubature.rescale_formula(unit, 0.3)
        states = np.array([[0.4, -0.2], [0.1, 0.5]])
        children, _ = greeks._evolve_level(system, states, np.ones(2), unit, 0.3, 16)
        assert np.all(np.isfinite(children))
        for name, payoff in BATCH_PAYOFFS[2].items():
            estimate, leaves = greeks._evaluate_tree(system, payoff, (0.4, -0.2), [(unit, 0.3)], 16)
            reference, ref_leaves = scalar_tree(system, payoff, (0.4, -0.2), [formula])
            assert (estimate.hex(), leaves) == (reference.hex(), ref_leaves), name

    @pytest.mark.parametrize("m_prime", [1, 3, 5])
    def test_one_step_expectation_matches_scalar_tree(self, m_prime):
        formula = cubature.rescale_formula(greeks.expectation_formula(1, m_prime), 0.3)
        for payoff in BATCH_PAYOFFS[1].values():
            estimate, _ = scalar_tree(BS, payoff, [1.0], [formula])
            assert expectation_one_step(BS, payoff, [1.0], 0.3, m_prime, 16) == estimate

    def test_scalar_only_fields_match_batched_fields(self):
        # the same polynomial fields, written per state and batched
        def scalar_fields():
            return (
                lambda y: np.array([-0.5 * y[0], 0.2 * y[0] * y[1]]),
                lambda y: np.array([1.0 + 0.1 * y[1], 0.0]),
                lambda y: np.array([0.0, y[0]]),
            )

        def batched_fields():
            def v0(y):
                return np.stack([-0.5 * y[..., 0], 0.2 * y[..., 0] * y[..., 1]], axis=-1)

            def v1(y):
                return np.stack([1.0 + 0.1 * y[..., 1], np.zeros_like(y[..., 0])], axis=-1)

            def v2(y):
                return np.stack([np.zeros_like(y[..., 0]), y[..., 0]], axis=-1)

            return (v0, v1, v2)

        estimates = []
        for fields in (scalar_fields(), batched_fields()):
            system = sde.VectorFieldSystem(dim=2, d=2, fields=fields)
            request = GreekRequest(
                system=system, payoff=_scalar_mix, y=(0.3, 0.2), v=(0.4, -0.1), t=0.6,
                m=2, m_prime=3, partition=tuple(gamma_partition(0.6, 0.1, 3, 2.0)),
            )
            estimates.append(greek_iterated(request).estimate)
        assert estimates[0].hex() == estimates[1].hex()

    @staticmethod
    def count_evolve(monkeypatch):
        calls = []
        evolve = sde.evolve

        def counted(*args, **kwargs):
            calls.append(1)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(sde, "evolve", counted)
        return calls

    def test_one_evolve_call_per_level_and_time_group(self, monkeypatch):
        calls = self.count_evolve(monkeypatch)
        request = GreekRequest(
            system=BS, payoff=Payoff("smoothed_call", 1.15, 0.05), y=(1.0,), v=(1.0,),
            t=1.0, m=2, m_prime=3, partition=tuple(gamma_partition(1.0, 0.1, 8, 3.0)), steps_per_segment=16,
        )
        result = greek_iterated(request)
        assert result.paths_evaluated == 2**9
        # the two-point stage 0 and each of the 8 degree-3 levels have one
        # time group; one call per path would be 2 + 8 * 2 = 18 and one per
        # node 2 + 4 + ... + 512 = 1022
        assert len(calls) == 1 + 8

    def test_solver_stage0_is_one_evolve_call(self, monkeypatch):
        y = (0.3, -0.2)
        v = sde.bracket_vf(HEISENBERG, 1, 2, y)
        stage0, _ = greeks.build_greek_formula(HEISENBERG, np.array(y), v, 0.1, 3)
        calls = self.count_evolve(monkeypatch)
        result = greek_one_step(HEISENBERG, _scalar_mix, y, v, 0.1, 3, 16)
        # paths of one and of two segments: the one-segment paths are padded
        assert sorted({len(p.times) for p in stage0.paths}) == [2, 3]
        assert result.paths_evaluated == len(stage0.items) > 2
        assert len(calls) == 1

    def test_degree5_levels_are_one_evolve_call_each(self, monkeypatch):
        calls = self.count_evolve(monkeypatch)
        request = GreekRequest(
            system=BS, payoff=Payoff("smoothed_call", 1.15, 0.05), y=(1.0,), v=(1.0,),
            t=1.0, m=2, m_prime=5, partition=tuple(gamma_partition(1.0, 0.1, 2, 1.0)), steps_per_segment=16,
        )
        inner = cubature.rescale_formula(greeks.expectation_formula(1, 5), 0.45)
        assert sorted({p.n_segments for p in inner.paths}) == [2, 3]
        assert greek_iterated(request).paths_evaluated == 2 * len(inner.items) ** 2
        assert len(calls) == 1 + 2

    @pytest.mark.parametrize("system, v, m, partition, ode_steps, n_calls", [
        # 9 levels + 2 probes each of stage 0 and the inner formula, whose
        # later steps are no longer than its first and reuse its estimate
        (BS, (1.0,), 2, tuple(gamma_partition(1.0, 0.1, 8, 3.0)), (9, 6, 5, 4, 3, 3, 2, 1, 1), 9 + 2 * 2),
        # 1 level + 2 probes - the kept 2-step probe of the one-state level
        (HEISENBERG, None, 3, (0.1,), (2,), 1 + 2 - 1),
        # 4 levels + 2 * 2 probes - stage 0 kept: stage 1 has 15 states, too many to keep its probe
        (HEISENBERG, None, 3, tuple(gamma_partition(0.6, 0.1, 3, 2.0)), (2, 1, 1, 1), 4 + 2 * 2 - 1),
    ])
    def test_default_step_rule_adds_two_probe_calls_per_formula(
        self, monkeypatch, system, v, m, partition, ode_steps, n_calls
    ):
        y = (0.3, -0.2) if system is HEISENBERG else (1.0,)
        v = sde.bracket_vf(HEISENBERG, 1, 2, y) if v is None else v
        request = GreekRequest(
            system=system, payoff=Payoff("identity"), y=y, v=v, t=sum(partition), m=m, m_prime=3,
            partition=partition,
        )
        calls = self.count_evolve(monkeypatch)
        assert greek_iterated(request).ode_steps == ode_steps
        assert len(calls) == n_calls

    @pytest.mark.parametrize("system,y,v,m,m_prime", [
        (BS, (1.0,), (1.0,), 2, 5),  # two-point stage 0, rescaled degree-5 steps
        (HEISENBERG, (0.3, 0.2), (0.0, 1.0), 3, 3),  # solver-built stage 0
    ])
    def test_residuals_are_the_constructors_own(self, system, y, v, m, m_prime):
        steps = gamma_partition(1.0, 0.1, 2, 2.0)
        request = GreekRequest(
            system=system, payoff=Payoff("identity"), y=y, v=v, t=1.0,
            m=m, m_prime=m_prime, partition=tuple(steps),
        )
        residuals = greek_iterated(request).formula_residuals
        stage0, inner = rescaled_stages(system, y, v, steps, m, m_prime)
        recorded = [f.residual for f in [stage0, *inner]]
        assert [r.hex() for r in residuals] == [r.hex() for r in recorded]
        # rescaled formulas record t^{n/2} r_n from horizon 1, not a fresh check
        fresh = [max_residual(f) for f in [stage0, *inner]]
        assert np.allclose(residuals, fresh, rtol=0.0, atol=1e-14)


class TestFormulaStack:
    """Each horizon-1 formula pads its paths into one read-only evaluation stack,
    built on first use and freed with the formula; a stage-0 Greek takes its
    knots from the cached ones of its unit pair or dictionary support."""

    REQUEST = GreekRequest(
        system=BS, payoff=Payoff("smoothed_call", 1.15, 0.05), y=(1.0,), v=(1.0,), t=1.0,
        m=2, m_prime=3, partition=tuple(gamma_partition(1.0, 0.1, 8, 3.0)),
    )

    @staticmethod
    def spy(monkeypatch):
        """(formulas whose stack was built, formulas whose stack was read), one entry per event."""
        built, read, stack = [], [], cubature._Formula.stack

        def spied(self):
            before = self._stack
            out = stack.fget(self)
            read.append(self)
            if out is not before:
                built.append(self)
            return out

        monkeypatch.setattr(cubature._Formula, "stack", property(spied))
        return built, read

    def test_a_request_builds_each_stack_once(self, monkeypatch):
        unit = greeks.expectation_formula(1, 3)
        object.__setattr__(unit, "_stack", None)  # unbuilt, as on first use in a process
        built, read = self.spy(monkeypatch)
        first = greek_iterated(self.REQUEST)
        # the inner formula builds its stack once; stage 0 takes its unit pair's cached
        # knots. Stacks are read by stage 0's moment check, by both probes of each and
        # by all 9 levels (the 13 evolve calls of the step-rule test)
        assert built == [unit]
        assert (sum(f is unit for f in read), len(read)) == (2 + 8, 1 + 13)
        kept, stage0 = unit.stack, next(f for f in read if f is not unit)
        del read[:]
        second = greek_iterated(self.REQUEST)
        # a second request reuses the cached inner formula's stack, and its own stage 0
        # the same unit pair's knots beside its own weights
        assert built == [unit]
        assert unit.stack is kept
        again = next(f for f in read if f is not unit)
        assert again is not stage0 and again._stack[3] is not stage0._stack[3]
        assert again._stack[0] is stage0._stack[0] and again._stack[1] is stage0._stack[1]
        assert second.estimate.hex() == first.estimate.hex()

    @pytest.mark.parametrize("d, m_prime", [(1, 3), (2, 3), (1, 5), (2, 5)])
    def test_stack_pads_each_path_and_is_read_only(self, d, m_prime):
        formula = greeks.expectation_formula(d, m_prime)
        times, points, shared, weights = formula.stack
        assert formula.stack is formula.stack
        assert weights.tobytes() == formula.weights.tobytes()
        for j, path in enumerate(formula.paths):
            k = len(path.times)
            assert times[j, :k].tobytes() == path.times.tobytes()
            assert points[j, :k].tobytes() == path.points.tobytes()
            assert np.array_equal(times[j, k:], path.times[-1] * np.arange(2, times.shape[1] + 2 - k))
            assert (points[j, k:] == path.points[-1]).all()
        assert shared == all(np.array_equal(row, times[0]) for row in times)
        for array in (times, points, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_a_finished_requests_stage0_formula_and_stack_are_freed(self, monkeypatch):
        built, read = self.spy(monkeypatch)
        greek_iterated(self.REQUEST)
        unit = greeks.expectation_formula(1, 3)
        stage0 = list({id(f): f for f in read if f is not unit}.values())
        assert len(stage0) == 1
        times, points, _, weights = stage0[0].stack
        refs = [weakref.ref(obj) for obj in (stage0[0], weights)]
        knots = [weakref.ref(obj) for obj in (times, points)]
        del built[:], read[:], stage0, times, points, weights
        gc.collect()
        assert [ref() for ref in refs] == [None] * 2
        # the knots are the unit pair's, cached per (context, unit direction) like the inner formula
        _, cached = cubature._unit_pair(context(1, 2), np.array([0.0, 1.0]).tobytes())
        assert [ref() for ref in knots] == list(cached)
        assert unit._stack is not None  # the lru-cached inner formula keeps its own

    @pytest.mark.parametrize("system, d, m_prime, fields_per_segment", [
        (BS, 1, 3, (1 + 1,)),  # one segment, every path drives V1
        (HEISENBERG, 2, 3, (1 + 2,)),  # paths along e_1 and e_2 in one stack drive both
        (BS, 1, 5, (1, 1 + 1, 1)),  # drift halves around the driven middle; z = 0 is padded
    ])
    @pytest.mark.parametrize("steps", [1, 3])
    def test_each_rk4_stage_calls_the_drift_and_each_driven_field(
        self, monkeypatch, system, d, m_prime, fields_per_segment, steps
    ):
        # the calls go through VectorFieldSystem.field, which the bench tracer
        # counts as sde.field_calls and sde.field_rows
        calls, field = [], sde.VectorFieldSystem.field

        def counted(self, i, y):
            calls.append(len(y))
            return field(self, i, y)

        monkeypatch.setattr(sde.VectorFieldSystem, "field", counted)
        formula = greeks.expectation_formula(d, m_prime)
        states = np.linspace(0.5, 1.5, 3 * system.dim).reshape(3, system.dim)
        greeks._evolve_level(system, states, np.ones(3), formula, 0.3, steps)
        assert len(calls) == 4 * steps * sum(fields_per_segment)
        assert set(calls) == {3 * len(formula.items)}


class TestFormulasFromHorizonOne:
    """Each formula is built at horizon 1 once, so repeated requests compute
    no signatures beyond those of new stage-0 paths."""

    @staticmethod
    def count_segment_exp(monkeypatch):
        calls = []
        segment_exp = AlgebraContext.segment_exp

        def counted(self, inc):
            calls.append(1)
            return segment_exp(self, inc)

        monkeypatch.setattr(AlgebraContext, "segment_exp", counted)
        return calls

    def test_solver_stage_computes_no_signatures_once_warm(self, monkeypatch):
        v = sde.bracket_vf(HEISENBERG, 1, 2, (0.3, -0.2))
        greek_one_step(HEISENBERG, _scalar_mix, (0.3, -0.2), v, 0.1, 3)
        calls = self.count_segment_exp(monkeypatch)
        greek_one_step(HEISENBERG, _scalar_mix, (0.5, 0.4), sde.bracket_vf(HEISENBERG, 1, 2, (0.5, 0.4)), 0.2, 3)
        assert len(calls) == 0

    def test_iterated_delta_computes_only_stage0_signatures(self, monkeypatch):
        def request(s0):
            return GreekRequest(
                system=BS, payoff=Payoff("smoothed_call", 1.15, 0.05), y=(1.0,), v=(1.0,),
                t=1.0, m=2, m_prime=3, partition=tuple(gamma_partition(1.0, s0, 8, 3.0)),
            )

        greek_iterated(request(0.1))
        calls = self.count_segment_exp(monkeypatch)
        greek_iterated(request(0.15))
        assert len(calls) == 1  # both stage-0 paths in one fold

    def test_stage0_support_does_not_depend_on_t(self):
        y = np.array([0.3, -0.2])
        ctx = context(2, 3)
        supports = []
        for t in (0.05, 0.1, 0.2):
            unit, _ = greeks.build_greek_formula(HEISENBERG, y, sde.bracket_vf(HEISENBERG, 1, 2, y), t, 3)
            formula = cubature.rescale_formula(unit, t)
            dictionary = [paths.scale_path(p, t) for p in cubature.default_greeks_dictionary(ctx)]
            supports.append([i for i, p in enumerate(dictionary) if p in formula.paths])
            assert len(supports[-1]) == len(formula.items)
        assert supports[0] and supports[0] == supports[1] == supports[2]


def _hypo_payoff(x):
    x = np.asarray(x, dtype=float)
    return x[..., 1] * (1.0 + np.sin(x[..., 0]))


class TestTreeOnHorizonOneFormulas:
    """The tree keeps horizon-1 formulas and scales each level's knot arrays,
    with the bits the rescaled formulas gave."""

    # float.hex of estimate, leaves and residuals at a fixed 16 RK4 steps per
    # segment, recorded while the tree still evaluated formulas rescaled by
    # cubature.rescale_formula, and re-recorded (moves <= 1.5e-14) when
    # greeks_solve's weights came from cached pseudo-inverses
    PINS = [
        ((0.3, -0.2), 0.05, "0x1.49c50bc7b013ep+0", 15, ("0x1.0000000000000p-48",)),
        ((0.3, -0.2), 0.1, "0x1.47e6e4fc1439ap+0", 15, ("0x1.43d136248490fp-50",)),
        ((0.3, -0.2), 0.2, "0x1.44368e28254fep+0", 15, ("0x1.019853f3bf5cap-50",)),
        ((-0.6, 0.8), 0.05, "0x1.cc33695a9a5fcp-2", 15, ("0x1.1e3779b97f4a8p-50",)),
        ((-0.6, 0.8), 0.1, "0x1.da79c6c76057fp-2", 15, ("0x1.94c583ada5b53p-50",)),
        ((-0.6, 0.8), 0.2, "0x1.f6ab11e03a968p-2", 15, ("0x1.a4bd11a7b88eep-51",)),
    ]
    # the same Greeks under the default step rule, recorded when it came in,
    # re-recorded with the pseudo-inverse weights
    DEFAULT_PINS = [
        ((0.3, -0.2), 0.05, "0x1.49c50bc7b0176p+0"),
        ((0.3, -0.2), 0.1, "0x1.47e6e4fc143b8p+0"),
        ((0.3, -0.2), 0.2, "0x1.44368e2825500p+0"),
        ((-0.6, 0.8), 0.05, "0x1.cc33695a9a5dcp-2"),
        ((-0.6, 0.8), 0.1, "0x1.da79c6c7604bdp-2"),
        ((-0.6, 0.8), 0.2, "0x1.f6ab11e03a9cbp-2"),
    ]

    @pytest.mark.parametrize("y, t, estimate, leaves, residuals", PINS)
    def test_one_step_bracket_greek_is_bitwise_recorded(self, y, t, estimate, leaves, residuals):
        result = greek_one_step(HEISENBERG, _hypo_payoff, y, sde.bracket_vf(HEISENBERG, 1, 2, y), t, 3, 16)
        assert result.estimate.hex() == estimate
        assert result.paths_evaluated == leaves
        assert tuple(r.hex() for r in result.formula_residuals) == residuals

    @pytest.mark.parametrize("y, t, estimate", DEFAULT_PINS)
    def test_one_step_bracket_greek_default_is_bitwise_recorded(self, y, t, estimate):
        result = greek_one_step(HEISENBERG, _hypo_payoff, y, sde.bracket_vf(HEISENBERG, 1, 2, y), t, 3)
        assert (result.estimate.hex(), result.paths_evaluated, result.ode_steps) == (estimate, 15, (2,))

    @pytest.mark.parametrize("m", [2, 3])
    def test_warm_tree_builds_no_rescaled_formula_or_path(self, monkeypatch, m):
        request = GreekRequest(
            system=BS, payoff=Payoff("smoothed_call", 1.15, 0.05), y=(1.0,), v=(1.0,),
            t=1.0, m=m, m_prime=3, partition=tuple(gamma_partition(1.0, 0.1, 8, 3.0)),
        )
        y = (0.3, -0.2)
        v = sde.bracket_vf(HEISENBERG, 1, 2, y)
        warm = (greek_iterated(request), greek_one_step(HEISENBERG, _hypo_payoff, y, v, 0.1, 3))
        for module, name in ((cubature, "rescale_formula"), (paths, "scale_path")):
            monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} was called"))
        again = (greek_iterated(request), greek_one_step(HEISENBERG, _hypo_payoff, y, v, 0.1, 3))
        assert [r.estimate.hex() for r in again] == [r.estimate.hex() for r in warm]


def _bench_workloads():
    """bench/workloads.py, imported from the repository root beside tests/."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestStepRule:
    """The default RK4 step count, chosen per stage by step doubling against
    greeks.ODE_TOL at stage 0 and greeks.INNER_ODE_TOL after, and capped at 16."""

    @staticmethod
    def requests(system, y, v):
        for t, m, k, m_prime in itertools.product((0.05, 0.4, 1.0), (2, 3), (0, 2), (3, 5)):
            partition = tuple(gamma_partition(t, t / 4, k, 2.0)) if k else (t,)
            if k or m_prime == 3:
                yield GreekRequest(
                    system=system, payoff=_hypo_payoff if system is HEISENBERG else first, y=y, v=v, t=t,
                    m=m, m_prime=m_prime, partition=partition,
                )

    def test_heisenberg_stages_pick_at_most_two_steps(self):
        # the fields are affine with nilpotent linear parts, so a segment's
        # solution is a quadratic in time and one RK4 step is exact
        for y in ((0.3, -0.2), (-0.6, 0.8)):
            for request in self.requests(HEISENBERG, y, (1.0, 0.5)):
                result = greek_iterated(request)
                assert len(result.ode_steps) == len(request.partition)
                assert max(result.ode_steps) <= 2, request

    def test_black_scholes_stages_meet_the_tolerance_or_take_sixteen(self):
        # each stage takes the smallest n with err1 / n^4 <= its tolerance (ODE_TOL
        # at stage 0, INNER_ODE_TOL after), so n - 1 fails it, else 16; a kept
        # 2-step probe serves a stage 1 step would meet
        picked = set()
        for request in self.requests(BS, (1.0,), (1.0,)):
            result = greek_iterated(request)
            assert len(result.ode_steps) == len(result.ode_errors) == len(request.partition)
            for i, (n, error) in enumerate(zip(result.ode_steps, result.ode_errors)):
                tol = greeks.INNER_ODE_TOL if i else greeks.ODE_TOL
                err1 = error * n**4
                smallest = next((k for k in range(1, 16) if err1 <= tol * k**4), 16)
                assert n == smallest or (n, smallest) == (2, 1), (request, result.ode_errors)
                assert n == 16 or error <= tol, (request, result.ode_errors)
                picked.add(n)
        assert 16 in picked and min(picked) < 16
        assert picked - {1, 2, 4, 8, 16}, picked

    def test_fixed_count_is_reported_without_an_estimate(self):
        request = GreekRequest(
            system=BS, payoff=first, y=(1.0,), v=(1.0,), t=1.0, m=2, m_prime=3,
            partition=tuple(gamma_partition(1.0, 0.1, 3, 2.0)), steps_per_segment=4,
        )
        result = greek_iterated(request)
        assert (result.ode_steps, result.ode_errors) == ((4,) * 4, (None,) * 4)

    def test_blow_up_in_the_one_step_probe_falls_back_to_sixteen(self):
        # dY = sqrt(Y) o dW from 0.25 along w = -0.8 ends at 0.01, but the
        # one-step probe leaves the field's domain on the way (a NaN state)
        root = sde.VectorFieldSystem(
            dim=1, d=1, fields=(np.zeros_like, lambda y: np.where(y >= 0.0, np.sqrt(np.abs(y)), np.nan))
        )
        with pytest.raises(BlowUpError):
            expectation_one_step(root, first, [0.25], 0.64, 3, 1)
        default = expectation_one_step(root, first, [0.25], 0.64, 3)
        assert default == expectation_one_step(root, first, [0.25], 0.64, 3, 16)
        assert abs(default - 0.41) < 1e-6

    @pytest.fixture
    def deviations(self, monkeypatch):
        """|default - 64-step estimate| of each tree evaluated at the default count while active."""
        out = []
        evaluate = greeks._evaluate_tree

        def both(system, payoff, y0, stages, steps_per_segment, ode=None):
            value = evaluate(system, payoff, y0, stages, steps_per_segment, ode)
            if steps_per_segment is None:
                out.append(abs(value[0] - evaluate(system, payoff, y0, stages, 64)[0]))
            return value

        monkeypatch.setattr(greeks, "_evaluate_tree", both)
        return out

    def test_bench_ops_are_within_1e_8_of_64_steps(self, deviations, tmp_path):
        workloads = _bench_workloads()
        for workload in (workloads.IteratedDelta(tmp_path), workloads.HypoGreekGrid(tmp_path)):
            for op in workload.ops(1, 0):
                assert workload.check(op, workload.call(op)).error is not None, op
        assert len(deviations) == len(workloads.IteratedDelta.MIX) + workloads.HypoGreekGrid.OPS_PER_PASS
        assert max(deviations) <= 1e-8

    def test_bench_box_corners_are_within_1e_8_of_64_steps(self, deviations, tmp_path):
        # every iterated_delta op kind at the corners of the box its s0 and gamma are drawn from
        workloads = _bench_workloads()
        workload = workloads.IteratedDelta(tmp_path)
        corners = list(itertools.product(sorted(set(workload.MIX)), (0.05, 0.2), (1.0, 3.0)))
        for (m_prime, k), s0, gamma in corners:
            op = workloads.Op(f"m{m_prime}k{k}", (m_prime, k, s0, gamma))
            assert workload.check(op, workload.call(op)).error is not None, op
        assert len(deviations) == len(corners) == 4 * 2 * 2
        assert max(deviations) <= 1e-8

    @pytest.mark.parametrize("system, f, y, v, t, greek, expectation", [
        (BS, first, (1.0,), (1.0,), 0.2, "0x1.029b3aef3f19cp+0", "0x1.0290de7a18e5bp+0"),
        (HEISENBERG, _hypo_payoff, (0.3, -0.2), (0.0, 1.0), 0.1, "0x1.47e6e4fc143b8p+0", "-0x1.0658b4ffa016cp-2"),
    ])
    def test_one_step_trees_keep_ode_tol(self, monkeypatch, system, f, y, v, t, greek, expectation):
        # a one-step tree is stage 0 alone, so INNER_ODE_TOL never applies to it
        odes, evaluate = [], greeks._evaluate_tree

        def recorded(system, payoff, y0, stages, steps_per_segment, ode=None):
            odes.append([] if ode is None else ode)
            return evaluate(system, payoff, y0, stages, steps_per_segment, odes[-1])

        monkeypatch.setattr(greeks, "_evaluate_tree", recorded)
        result = greek_one_step(system, f, y, v, t, 3)
        estimates = (result.estimate.hex(), expectation_one_step(system, f, y, t, 3).hex())
        assert estimates == (greek, expectation)
        assert result.ode_steps[0] < 16 and result.ode_errors[0] <= greeks.ODE_TOL
        assert [len(ode) for ode in odes] == [1, 1]
        assert odes[0][0] == (result.ode_steps[0], result.ode_errors[0])
        assert odes[1][0][0] < 16 and odes[1][0][1] <= greeks.ODE_TOL

    def test_acceptance_estimates_are_within_1e_8_of_64_steps(self, deviations):
        import test_acceptance

        # criteria 4 to 7 evaluate cubature trees; the others call no tree
        test_acceptance.test_criterion_04_expectation_order()
        test_acceptance.test_criterion_05_greek_order_and_sinh()
        test_acceptance.test_criterion_06_iterated_scheme()
        test_acceptance.test_criterion_07_hypoelliptic_direction()
        assert len(deviations) == 4 + 4 + 3 + 1
        assert max(deviations) <= 1e-8


class TestRequestInputs:
    """Malformed partitions, degrees and step counts raise DomainError; a
    payoff value other than one finite float per state, UnsupportedPayoffError."""

    @staticmethod
    def request(**changes):
        fields = dict(system=BS, payoff=first, y=(1.0,), v=(0.1,), t=0.5, m=2, m_prime=3, partition=(0.5,))
        return GreekRequest(**(fields | changes))

    @pytest.mark.parametrize("partition", [((0.5,),), "0.5", 0.5, None, (0.25, (0.25,)), ("0.25", "0.25")])
    def test_partition_must_be_a_flat_sequence_of_numbers(self, partition):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="flat numbers"):
                self.request(partition=partition)

    @pytest.mark.parametrize("m, m_prime", [(2.5, 3), (2.0, 3), ("2", 3), (2, 3.0), (2, None)])
    def test_degrees_must_be_integers(self, m, m_prime):
        with pytest.raises(DomainError, match="must be integers"):
            self.request(m=m, m_prime=m_prime)
        if type(m_prime) is int:
            with pytest.raises(DomainError, match="must be integers"):
                greek_one_step(BS, first, [1.0], [0.1], 0.5, m)

    def test_numpy_integers_and_steps_are_accepted(self):
        request = self.request(m=np.int64(2), m_prime=np.int32(3), partition=np.array([0.25, 0.25]))
        assert greek_iterated(request).paths_evaluated == 2 * 2

    @pytest.mark.parametrize("steps", [1.5, 16.0, "16", 0, -2])
    def test_step_count_must_be_an_integer_of_at_least_one(self, steps):
        with pytest.raises(DomainError, match="steps_per_segment"):
            expectation_one_step(BS, first, [1.0], 0.3, 3, steps)
        with pytest.raises(DomainError, match="steps_per_segment"):
            greek_iterated(self.request(steps_per_segment=steps))

    @pytest.mark.parametrize("steps", [1.5, 16.0, "16", 0, -2, math.nan, True])
    def test_request_refuses_a_bad_step_count_when_built(self, steps):
        with pytest.raises(DomainError, match="steps_per_segment"):
            self.request(steps_per_segment=steps)

    @pytest.mark.parametrize("cap", ["10", None, math.nan, math.inf, 10.0, 0, -1, True])
    def test_leaf_cap_must_be_an_integer_of_at_least_one(self, cap):
        with pytest.raises(DomainError, match="leaf_cap"):
            self.request(leaf_cap=cap)

    def test_leaf_cap_bounds_the_tree(self):
        request = self.request(partition=(0.25, 0.25), leaf_cap=np.int64(4), steps_per_segment=np.int32(2))
        assert greek_iterated(request).paths_evaluated == 4
        with pytest.raises(BudgetExceededError):
            greek_iterated(dataclasses.replace(request, leaf_cap=3))

    @pytest.mark.parametrize(
        "payoff, match",
        [
            (lambda y: np.stack([y[..., 0], y[..., 0]], axis=-1), "shape"),
            (lambda y: [float(y[0]), 1.0], "shape"),
            (lambda y: np.full(y.shape[:-1], np.nan), "not finite"),
            (lambda y: np.where(y[..., 0] > 1.0, np.inf, y[..., 0]), "not finite"),
        ],
        ids=["two-batched", "two-per-state", "nan", "inf-at-some-leaves"],
    )
    def test_payoff_must_give_one_finite_float_per_state(self, payoff, match):
        with pytest.raises(UnsupportedPayoffError, match=match):
            expectation_one_step(BS, payoff, [1.0], 0.3, 3)
        with pytest.raises(UnsupportedPayoffError, match=match):
            greek_one_step(BS, payoff, [1.0], [0.1], 0.5, 2)


class TestDegree5TwoDrivers:
    """m'=5 on heisenberg_toy with f = x1 (1 + sin x0), where
    E f(X_t^y) = y1 (1 + sin(y0) e^{-t/2})."""

    Y = (0.3, 0.7)

    def test_one_step_error_falls_like_t_cubed(self):
        ts = [0.8, 0.4, 0.2, 0.1]
        y0, y1 = self.Y

        def slope(m_prime):
            errors = [
                abs(expectation_one_step(HEISENBERG, _hypo_payoff, self.Y, t, m_prime)
                    - y1 * (1.0 + math.sin(y0) * math.exp(-0.5 * t)))
                for t in ts
            ]
            return fit_loglog_slope(ts, errors)

        # one step of a degree-m' formula errs by O(t^{(m'+1)/2})
        assert abs(slope(5) - 3.0) < 0.25
        assert abs(slope(3) - 2.0) < 0.25

    def test_iterated_greek(self):
        t = 0.1
        result = greek_iterated(GreekRequest(
            system=HEISENBERG, payoff=_hypo_payoff, y=self.Y, v=(0.0, 1.0), t=t, m=3, m_prime=5,
            partition=tuple(gamma_partition(t, 0.025, 2, 1.0)),
        ))
        assert abs(result.estimate - (1.0 + math.sin(self.Y[0]) * math.exp(-0.5 * t))) < 1e-4


class TestGammaPartition:
    def test_uniform_when_gamma_one(self):
        steps = gamma_partition(1.0, 0.2, 4, 1.0)
        assert np.allclose(steps, [0.2, 0.2, 0.2, 0.2, 0.2])

    def test_sums_to_t(self):
        for gamma in (1.0, 2.0, 3.5):
            steps = gamma_partition(0.7, 0.13, 5, gamma)
            assert abs(sum(steps) - 0.7) < 1e-14

    def test_later_steps_shrink_matching_bound_weights(self):
        # the bound weights (t - t_i)^{-m'/2} grow toward t, so the steps
        # must shrink there; gamma=2 delivers that where uniform does not,
        # and the dominant sqrt(s_k) tail term strictly improves
        t, s0, k = 1.0, 0.1, 4
        curved = gamma_partition(t, s0, k, 2.0)
        uniform = gamma_partition(t, s0, k, 1.0)
        knots = np.cumsum(curved)
        weights = [(t - knots[i]) ** -1.5 for i in range(1, k)]
        assert all(weights[i] < weights[i + 1] for i in range(len(weights) - 1))
        inner = curved[1:]
        assert all(inner[i] > inner[i + 1] for i in range(len(inner) - 1))
        assert math.sqrt(curved[-1]) < math.sqrt(uniform[-1])

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            gamma_partition(1.0, 1.5, 2, 2.0)
        with pytest.raises(DomainError):
            gamma_partition(1.0, 0.1, 0, 2.0)
        with pytest.raises(DomainError):
            gamma_partition(1.0, 0.1, 2, 0.5)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2"])
    def test_inner_step_count_must_be_an_integer(self, k):
        with pytest.raises(DomainError, match="integer k"):
            gamma_partition(1.0, 0.1, k, 2.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, "2", None])
    def test_exponent_must_be_finite(self, gamma):
        with pytest.raises(DomainError, match="finite gamma >= 1"):
            gamma_partition(1.0, 0.1, 4, gamma)

    @pytest.mark.parametrize("t", [math.inf, math.nan, "1", 0.0])
    def test_horizon_must_be_positive_and_finite(self, t):
        with pytest.raises(DomainError, match="horizon must be positive and finite"):
            gamma_partition(t, 0.1, 4, 2.0)

    @pytest.mark.parametrize("s0", [math.nan, "0.1", None])
    def test_first_step_must_be_a_number(self, s0):
        with pytest.raises(DomainError, match="need 0 < s0 < t"):
            gamma_partition(1.0, s0, 4, 2.0)


class TestErrorPropagation:
    def test_unattainable_direction_propagates(self):
        system = sde.heisenberg_toy()
        from cubgreeks.errors import DirectionNotAttainableError

        with pytest.raises(DirectionNotAttainableError):
            greek_one_step(system, first, [0.0, 0.0], [0.0, 1.0], 0.2, 2)

    def test_degree_past_the_dictionary_reach_is_refused(self):
        with pytest.raises(UnsupportedDegreeError, match="m=5 is beyond the reach of the default Greeks dictionary"):
            greek_one_step(BS, first, [1.0], [0.1], 0.2, 5)

    def test_three_driver_direction_past_the_reach_is_refused(self):
        # at y = 0, e4 is spanned only by the degree-3 brackets [V1,[V2,V3]] and
        # [V2,[V1,V3]], which the default dictionary does not reach at m = 4
        e = np.eye(4)
        fields = (lambda y: np.zeros(4), lambda y: e[0], lambda y: e[1], lambda y: e[2] + y[0] * y[1] * e[3])
        system = sde.VectorFieldSystem(dim=4, d=3, fields=fields)
        with pytest.raises(UnsupportedDegreeError, match="m=4 is beyond the reach") as err:
            greek_one_step(system, lambda y: y[3], np.zeros(4), e[3], 0.2, 4)
        assert isinstance(err.value.__cause__, NoFormulaFoundError)
        assert err.value.__cause__.best_residual > cubature.VERIFY_TOL

    @pytest.mark.parametrize("d, m", [(1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)])
    def test_stage0_build_serves_a_verified_formula_or_refuses(self, monkeypatch, d, m):
        # the solve's moment check decides the reach: every canonical Lie word,
        # and seeded combinations of them, gets a verified formula or
        # UnsupportedDegreeError, never a numerical failure
        words = [w for w in lie_basis(context(d, m - 1)).words if w != (0,)]
        rng = np.random.default_rng(d * 10 + m)
        targets = [{w: 1.0} for w in words] + [{w: rng.normal() for w in words} for _ in range(5)]
        system = SimpleNamespace(d=d)  # all the build reads of a system past its decomposition
        for coeffs in targets:
            monkeypatch.setattr(sde, "decompose_direction", lambda *args, c=coeffs: (c, 0.0))
            try:
                formula, _ = build_greek_formula(system, None, None, 1.0, m)
            except UnsupportedDegreeError as exc:
                assert str(exc).startswith(f"m={m} is beyond the reach of the default Greeks dictionary")
            else:
                assert formula.residual <= cubature.VERIFY_TOL
                assert max_residual(formula) <= cubature.VERIFY_TOL

    def test_unsupported_inner_degree_propagates(self):
        request = GreekRequest(
            system=BS, payoff=first, y=(1.0,), v=(0.1,), t=0.5,
            m=2, m_prime=4, partition=(0.1, 0.4),
        )
        with pytest.raises(UnsupportedDegreeError):
            greek_iterated(request)
