import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cubgreeks import sde
from cubgreeks.algebra import bracket, context, generator, word_degree
from cubgreeks.errors import (
    BlowUpError,
    ConfigError,
    DirectionNotAttainableError,
    DomainError,
    UnsupportedDegreeError,
    UnsupportedPayoffError,
)
from cubgreeks.greeks import expectation_one_step, greek_one_step
from cubgreeks.mc import McConfig, euler_expectation
from cubgreeks.paths import PiecewisePath, from_increments, line_path
from cubgreeks.sde import (
    FieldExpr,
    black_scholes,
    bracket_evaluate,
    bracket_vf,
    build_bracket_table,
    decompose_direction,
    evolve,
    first_variation,
    heisenberg_toy,
    lie_direction,
    load_model,
)

from oracles import evolve_loop, evolve_out_of_place, fd_jacobian, first_variation_loop, heisenberg_one_state


def reversed_path(path):
    times = path.t_end - path.times[::-1]
    points = path.points[::-1]
    return PiecewisePath(path.t_end, list(zip(times, points)))


def cubic_toy():
    # single-driver system with genuinely nonlinear flow for order checks
    def v0(y):
        return 0.1 * y

    def v1(y):
        return 0.3 + 0.5 * y**3

    return sde.VectorFieldSystem(dim=1, d=1, fields=(v0, v1), name="cubic_toy")


class TestSystems:
    def test_analytic_jacobians_match_fd(self):
        rng = np.random.default_rng(1)
        for system in (black_scholes(0.05, 0.3), heisenberg_toy()):
            for _ in range(10):
                y = rng.uniform(-2, 2, size=system.dim)
                for i in range(system.d + 1):
                    analytic = system.jacobian(i, y)
                    fd = fd_jacobian(lambda z, i=i: system.field(i, z), y, h=1e-5)
                    scale = max(1.0, np.abs(analytic).max())
                    assert np.abs(analytic - fd).max() < 1e-6 * scale

    def test_fd_fallback_jacobian(self):
        system = cubic_toy()
        y = np.array([0.7])
        assert abs(system.jacobian(1, y)[0, 0] - 1.5 * 0.7**2) < 1e-8

    def test_field_count_validated(self):
        with pytest.raises(ConfigError):
            sde.VectorFieldSystem(dim=1, d=2, fields=(lambda y: y,))


class TestEvolve:
    def test_black_scholes_diffusion_line(self):
        # flow along the +e_1 line is the linear ODE y' = sigma y / sqrt(t)
        system = black_scholes(0.05, 0.3)
        t = 0.25
        p = line_path(t, [0.0, math.sqrt(t)])
        out = evolve(system, [1.3], p)
        assert abs(out[0] - 1.3 * math.exp(0.3 * math.sqrt(t))) < 1e-10

    def test_zero_path(self):
        system = heisenberg_toy()
        p = line_path(1.0, [0.0, 0.0, 0.0])
        assert np.allclose(evolve(system, [0.4, -0.2], p), [0.4, -0.2])

    def test_undriven_fields_are_never_evaluated(self):
        # every field counts its calls; the drift is nan and V2 raises
        calls = []

        def field(i, value):
            return lambda y: calls.append(i) or np.full_like(y, value)

        def refuse(y):
            raise AssertionError("V2 is never driven")

        system = sde.VectorFieldSystem(dim=2, d=2, fields=(field(0, np.nan), field(1, 0.5), refuse))
        state = np.array([0.4, -0.2])
        out = evolve(system, state, from_increments(1.0, [[0.0, 0.0, 0.0], [0.0, 0.3, 0.0]]), 2)
        assert calls == [1] * 4 * 2  # the zero segment evaluates nothing, the pure-space one V1 alone
        assert np.allclose(out, state + 0.5 * 0.3, rtol=0.0, atol=1e-15)  # V1 = 0.5 moves it by 0.5 x 0.3
        zero = evolve(system, state, line_path(1.0, [0.0, 0.0, 0.0]))
        assert zero.tobytes() == state.tobytes() and calls == [1] * 8
        with pytest.raises(BlowUpError):
            evolve(system, state, line_path(1.0, [0.1, 0.3, 0.0]))

    def test_fourth_order_convergence(self):
        system = cubic_toy()
        p = from_increments(1.0, [[0.4, 0.9], [0.6, -0.3]])
        reference = evolve(system, [0.5], p, steps_per_segment=512)
        errors = [
            abs(evolve(system, [0.5], p, steps_per_segment=n)[0] - reference[0])
            for n in (8, 16, 32)
        ]
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        assert all(r > 11.0 for r in ratios)  # theory: 16

    def test_flow_reversibility(self):
        system = heisenberg_toy()
        rng = np.random.default_rng(3)
        p = from_increments(0.7, rng.uniform(-0.8, 0.8, size=(3, 3)))
        y0 = np.array([0.3, -0.5])
        out = evolve(system, evolve(system, y0, p), reversed_path(p))
        assert np.abs(out - y0).max() < 1e-10

    def test_blow_up_reported(self):
        def v1(y):
            return y * y

        system = sde.VectorFieldSystem(dim=1, d=1, fields=(lambda y: 0.0 * y, v1))
        p = line_path(1.0, [0.0, 5.0])
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError):
                evolve(system, [3.0], p)

    @pytest.mark.parametrize("constant", [0, 1])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_field_value_not_of_the_batch_shape_is_a_config_error(self, constant, stacked):
        # a constant (N,) value for an (n, N) batch: numpy refuses it untyped as
        # V0 on one path and broadcasts it silently otherwise
        fields = [lambda y: 0.1 * y, lambda y: 0.3 * y]
        fields[constant] = lambda y: np.array([0.1, 0.0])
        system = sde.VectorFieldSystem(dim=2, d=1, fields=tuple(fields))
        path = line_path(1.0, [1.0, 0.5])
        path = (path.times, np.stack([path.points] * 3)) if stacked else path
        with pytest.raises(ConfigError, match=rf"V{constant} .*shape \(2,\) on states of shape \(3, 2\)"):
            evolve(system, np.ones((3, 2)), path)

    def test_rejects_bad_steps(self):
        system = black_scholes(0.0, 0.2)
        with pytest.raises(DomainError):
            evolve(system, [1.0], line_path(1.0, [1.0, 0.0]), steps_per_segment=0)


class TestStackedPaths:
    """One path per row over shared knot times, against a single-path loop."""

    @staticmethod
    def stack(rng, rows, segments, dim):
        times = np.linspace(0.0, 0.6, segments + 1)
        points = np.cumsum(rng.uniform(-0.3, 0.3, size=(rows, segments + 1, dim)), axis=1)
        points[:, 0] = 0.0
        paths = [PiecewisePath(0.6, list(zip(times, row))) for row in points]
        return times, points, paths

    @pytest.mark.parametrize("system", [black_scholes(0.05, 0.3), heisenberg_toy(), cubic_toy()])
    def test_bitwise_equal_to_one_path_per_row(self, system):
        rng = np.random.default_rng(5)
        times, points, paths = self.stack(rng, 6, 3, system.d + 1)
        points[2, :, 1] = 0.0  # one row leaves V1 undriven
        paths[2] = PiecewisePath(0.6, list(zip(times, points[2])))
        states = rng.uniform(-1.0, 1.0, size=(6, system.dim))
        out = evolve(system, states, (times, points))
        for row, path, state in zip(out, paths, states):
            assert [x.hex() for x in row] == [x.hex() for x in evolve_loop(system, state, path)]
            assert [x.hex() for x in row] == [x.hex() for x in evolve(system, state, path)]

    def test_field_skipped_only_when_no_row_drives_it(self):
        # V2 is nan where x > 0; with V1 undriven x stays put, so only row 0 meets nan
        def v2(y):
            out = np.zeros_like(y)
            out[..., 1] = np.where(y[..., 0] > 0.0, np.nan, y[..., 0])
            return out

        system = sde.VectorFieldSystem(dim=2, d=2, fields=heisenberg_toy().fields[:2] + (v2,))
        times = np.array([0.0, 0.3, 0.6])
        points = np.zeros((2, 3, 3))
        points[:, :, 0] = times
        states = np.array([[0.4, -0.2], [-0.5, 0.1]])
        assert np.all(np.isfinite(evolve(system, states, (times, points))))
        points[1, 1:, 2] = [0.2, -0.1]  # row 1 drives V2 where it is finite
        assert np.all(np.isfinite(evolve(system, states[1], (times, points[1]))))
        with pytest.raises(BlowUpError):
            evolve(system, states, (times, points))  # row 0: nan * 0

    @pytest.mark.parametrize("system", [black_scholes(0.05, 0.3), heisenberg_toy(), cubic_toy()])
    def test_per_row_times_bitwise_equal_to_one_call_per_row(self, system):
        rng = np.random.default_rng(11)
        _, points, _ = self.stack(rng, 5, 3, system.d + 1)
        times = np.cumsum(rng.uniform(0.05, 0.4, size=(5, 4)), axis=1)
        times[:, 0] = 0.0
        states = rng.uniform(-1.0, 1.0, size=(5, system.dim))
        out = evolve(system, states, (times, points))
        for row, t_row, p_row, state in zip(out, times, points, states):
            path = PiecewisePath(t_row[-1], list(zip(t_row, p_row)))
            assert [x.hex() for x in row] == [x.hex() for x in evolve(system, state, path)]
            assert [x.hex() for x in row] == [x.hex() for x in evolve_loop(system, state, path)]

    @pytest.mark.parametrize("system", [black_scholes(0.05, 0.3), heisenberg_toy(), cubic_toy()])
    def test_zero_increment_padding_leaves_the_state_unchanged(self, system):
        rng = np.random.default_rng(12)
        times, points, paths = self.stack(rng, 2, 2, system.d + 1)
        states = rng.uniform(-1.0, 1.0, size=(2, system.dim))
        # row 0 runs its two segments, then two zero-increment segments
        padded_times = np.array([list(times) + [1.2, 1.8], list(times) + [0.9, 1.5]])
        padded_points = np.concatenate([points, points[:, -1:].repeat(2, axis=1)], axis=1)
        padded_points[1, 3:] = padded_points[1, 2] + rng.uniform(-0.3, 0.3, size=(2, system.d + 1))
        out = evolve(system, states, (padded_times, padded_points))
        assert out[0].tobytes() == evolve(system, states[0], paths[0]).tobytes()
        alone = PiecewisePath(1.5, list(zip(padded_times[1], padded_points[1])))
        assert out[1].tobytes() == evolve(system, states[1], alone).tobytes()

    @pytest.mark.parametrize("times", [
        [0.0, 0.1, 0.05],  # decreasing: would integrate backwards
        [0.0, 0.1, 0.1],  # repeated: a zero step
        [0.0, np.inf, 1.0],
        [[0.0, 0.1, 0.2]] * 3,  # rows of times for a single path
        [[[0.0, 0.1, 0.2]]],
    ])
    def test_bad_knot_times_are_refused(self, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                evolve(heisenberg_toy(), np.array([0.3, -0.2]), (np.array(times), np.zeros((3, 3))))

    def test_one_knot_is_refused(self):
        with pytest.raises(DomainError):
            evolve(heisenberg_toy(), np.array([0.3, -0.2]), (np.zeros(1), np.zeros((1, 3))))

    def test_bad_per_row_times_are_refused(self):
        system = heisenberg_toy()
        times, points, _ = self.stack(np.random.default_rng(13), 3, 2, 3)
        rows = np.tile(times, (3, 1))
        rows[1] = [0.0, 0.4, 0.3]  # one decreasing row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                evolve(system, np.zeros((3, 2)), (rows, points))
            with pytest.raises(DomainError):
                evolve(system, np.zeros((3, 2)), (rows[:2], points))  # rows of times != paths

    def test_stack_must_match_states_and_times(self):
        system = heisenberg_toy()
        times, points, _ = self.stack(np.random.default_rng(7), 3, 2, 3)
        with pytest.raises(DomainError):
            evolve(system, np.zeros((2, 2)), (times, points))
        with pytest.raises(DomainError):
            evolve(system, np.zeros((3, 2)), (times[:-1], points))


class TestInPlaceKernel:
    """``evolve``'s RK4 kernel, summing in place with 0.5 h and h / 6 hoisted,
    gives the bytes of the out-of-place loop it replaced on every path form."""

    @staticmethod
    def cases(system):
        rng = np.random.default_rng(17)
        times, points, paths = TestStackedPaths.stack(rng, 5, 3, system.d + 1)
        points[1, :, 1] = 0.0  # one row leaves V1 undriven
        states = rng.uniform(-1.0, 1.0, size=(5, system.dim))
        row_times = np.cumsum(rng.uniform(0.05, 0.4, size=(5, 4)), axis=1)
        row_times[:, 0] = 0.0
        # rows 0 and 1 end early and run zero-increment segments after their end
        padded = points.copy()
        padded[0, 2:], padded[1, 3:] = padded[0, 1], padded[1, 2]
        yield "single path", states[0], paths[0]
        yield "one path for a batch", states, paths[2]
        yield "shared-time stack", states, (times, points)
        yield "per-row times", states, (row_times, points)
        yield "padded rows", states, (row_times, padded)

    @pytest.mark.parametrize("steps", [1, 3, 16])
    @pytest.mark.parametrize("system", [black_scholes(0.05, 0.3), heisenberg_toy()])
    def test_bytes_equal_to_the_out_of_place_loop(self, system, steps):
        for name, states, path in self.cases(system):
            new = evolve(system, states, path, steps)
            assert new.tobytes() == evolve_out_of_place(system, states, path, steps).tobytes(), name

    @pytest.mark.parametrize("steps", [1, 3, 16])
    @pytest.mark.parametrize("system", [black_scholes(0.05, 0.3), heisenberg_toy()])
    def test_first_variation_bytes_equal_to_the_out_of_place_loop(self, monkeypatch, system, steps):
        rng = np.random.default_rng(19)
        path = from_increments(0.6, rng.uniform(-0.7, 0.7, size=(3, system.d + 1)))
        for states in (rng.uniform(-0.8, 0.8, size=system.dim), rng.uniform(-0.8, 0.8, size=(4, system.dim))):
            new = first_variation(system, states, path, steps)
            with monkeypatch.context() as patched:
                patched.setattr(sde, "evolve", evolve_out_of_place)
                old = first_variation(system, states, path, steps)
            assert new.tobytes() == old.tobytes()


class TestBatchDecision:
    def test_single_state_copy_evaluates_any_batch_by_rows(self):
        hz, one_state, y0 = heisenberg_toy(), heisenberg_one_state(), np.array([0.3, -0.2])
        copy = sde.batched(one_state, y0)
        assert sde.batched(hz, y0) is hz
        assert copy is not one_state and copy.name == one_state.name
        # only fields are wrapped: evolve, the copy's one user, calls no Jacobian
        assert copy.jacobians is one_state.jacobians
        # 1, N, N + 1 and more rows: each row gets the single-state value
        for n in (1, 2, 3, 5):
            ys = y0 + 0.1 * np.arange(2 * n).reshape(n, 2)
            for i in range(3):
                assert np.array_equal(copy.field(i, ys), hz.field(i, ys))

    def test_the_tree_calls_no_jacobian(self):
        from cubgreeks.greeks import GreekRequest, gamma_partition, greek_iterated
        from cubgreeks.mc import Payoff

        calls = []
        bs = black_scholes(0.05, 0.3)
        counted = tuple(lambda y, j=j: calls.append(1) or j(y) for j in bs.jacobians)
        system = sde.VectorFieldSystem(dim=1, d=1, fields=bs.fields, jacobians=counted)
        request = GreekRequest(
            system=system, payoff=Payoff("call", 1.0), y=(1.0,), v=(1.0,), t=1.0,
            m=2, m_prime=3, partition=tuple(gamma_partition(1.0, 0.1, 4, 2)),
        )
        assert greek_iterated(request).estimate == greek_iterated(replace(request, system=bs)).estimate
        assert calls == []

    def test_deprecation_warnings_still_mark_single_state_code(self):
        def single_state(y):
            if np.ndim(y) > 1:
                warnings.warn("pass one state", DeprecationWarning)
            return 2.0 * y

        looped = sde._batched(single_state, np.array([0.5]), (1,))
        assert looped is not single_state
        assert np.array_equal(looped(np.array([[1.0], [2.0]])), [[2.0], [4.0]])

    def test_single_state_field_of_the_wrong_shape_is_a_config_error(self):
        # a field of the wrong shape is a malformed system, as VectorFieldSystem's own checks say
        system = sde.VectorFieldSystem(
            dim=1, d=1, fields=(lambda y: [0.05 * float(y[0]), 0.0], lambda y: 0.3 * float(y[0]))
        )
        with pytest.raises(ConfigError, match=r"shape \(1,\), got shape \(2,\)"):
            expectation_one_step(system, lambda y: np.asarray(y)[..., 0], [1.0], 0.3, 3)

    @pytest.mark.parametrize("estimate", ["cubature", "euler"])
    def test_ragged_single_state_payoff_is_unsupported(self, estimate):
        # one value on some states and two on others: each is checked before the stack
        def ragged(y):
            return [1.0, 2.0] if y[0] > 1.0 else 1.0

        with pytest.raises(UnsupportedPayoffError, match=r"shape \(\), got shape \(2,\)"):
            if estimate == "cubature":
                expectation_one_step(black_scholes(0.05, 0.3), ragged, [1.0], 0.3, 3)
            else:
                euler_expectation(black_scholes(0.05, 0.3), ragged, [1.0], 0.3, McConfig(50, 4))


class TestBrackets:
    def test_heisenberg_analytic(self):
        system = heisenberg_toy()
        assert np.allclose(bracket_vf(system, 1, 2, [0.0, 0.0]), [0.0, 1.0])
        assert np.allclose(bracket_evaluate(system, (1, 2), [0.7, -0.1]), [0.0, 1.0])

    def test_self_bracket_vanishes(self):
        system = black_scholes(0.05, 0.3)
        assert np.allclose(bracket_vf(system, 1, 1, [1.2]), [0.0])

    def test_antisymmetry_fd(self):
        system = cubic_toy()  # finite-difference Jacobians only
        rng = np.random.default_rng(5)
        for _ in range(10):
            y = rng.uniform(-1, 1, size=1)
            lhs = bracket_vf(system, 0, 1, y)
            rhs = bracket_vf(system, 1, 0, y)
            assert np.abs(lhs + rhs).max() < 1e-8

    def test_jacobi_identity_analytic(self):
        system = heisenberg_toy()
        rng = np.random.default_rng(7)
        e = [FieldExpr.base(i) for i in range(3)]
        for _ in range(5):
            y = rng.uniform(-1, 1, size=2)
            total = (
                bracket_vf(system, e[0], FieldExpr.commutator(e[1], e[2]), y)
                + bracket_vf(system, e[1], FieldExpr.commutator(e[2], e[0]), y)
                + bracket_vf(system, e[2], FieldExpr.commutator(e[0], e[1]), y)
            )
            assert np.abs(total).max() < 1e-10

    def test_jacobi_identity_fd(self):
        system = cubic_toy()
        rng = np.random.default_rng(9)
        e = [FieldExpr.base(i) for i in range(2)]
        for _ in range(5):
            y = rng.uniform(-0.5, 0.5, size=1)
            total = (
                bracket_vf(system, e[0], FieldExpr.commutator(e[1], e[0]), y)
                + bracket_vf(system, e[1], FieldExpr.commutator(e[0], e[0]), y)
                + bracket_vf(system, e[0], FieldExpr.commutator(e[0], e[1]), y)
            )
            assert np.abs(total).max() < 1e-6


class TestBracketDepth:
    """Nested finite differences lose accuracy past sde.BRACKET_DEPTH, so the
    library refuses a deeper bracket word instead of returning it."""

    def test_deepest_word_evaluates(self):
        word = (1,) * sde.BRACKET_DEPTH + (2,)  # [V1,[V1,[V1,V2]]] is zero on heisenberg_toy
        assert np.allclose(bracket_evaluate(heisenberg_toy(), word, [0.3, -0.2]), [0.0, 0.0])

    def test_deeper_word_is_refused(self):
        with pytest.raises(UnsupportedDegreeError, match="nests 4 deep"):
            bracket_evaluate(heisenberg_toy(), (1,) * (sde.BRACKET_DEPTH + 1) + (2,), [0.3, -0.2])

    def test_hand_built_bracket_past_the_depth_is_refused(self):
        e = FieldExpr.base(2)
        for _ in range(sde.BRACKET_DEPTH):
            e = FieldExpr.commutator(1, e)
        assert e.depth == sde.BRACKET_DEPTH
        with pytest.raises(UnsupportedDegreeError, match="nests 4 deep"):
            bracket_vf(heisenberg_toy(), 1, e, [0.3, -0.2])
        with pytest.raises(UnsupportedDegreeError, match="nests 4 deep"):
            FieldExpr("bracket", (FieldExpr.combination([(0.5, e)]), FieldExpr.base(1)))

    def test_decomposition_past_the_depth_is_refused(self):
        # a degree-m decomposition uses words of degree m - 1, nested m - 2 deep
        m = sde.BRACKET_DEPTH + 2
        decompose_direction(heisenberg_toy(), [0.3, -0.2], [0.0, 1.0], 0.1, m)
        for deeper in (m + 1, m + 2):
            with pytest.raises(UnsupportedDegreeError):
                decompose_direction(heisenberg_toy(), [0.3, -0.2], [0.0, 1.0], 0.1, deeper)


class TestDecomposition:
    def test_black_scholes_diffusion_direction(self):
        system = black_scholes(0.05, 0.3)
        t = 0.16
        v = [math.sqrt(t) * 0.3 * 1.0]
        coeffs, residual = decompose_direction(system, [1.0], v, t, 2)
        assert residual < 1e-12
        assert set(coeffs) == {(1,)}
        assert abs(coeffs[(1,)] - 1.0) < 1e-12

    def test_zero_direction(self):
        system = black_scholes(0.05, 0.3)
        coeffs, residual = decompose_direction(system, [1.0], [0.0], 0.5, 2)
        assert coeffs == {} and residual == 0.0

    def test_heisenberg_bracket_direction(self):
        system = heisenberg_toy()
        t = 0.2
        coeffs, residual = decompose_direction(system, [0.0, 0.0], [0.0, 1.0], t, 3)
        assert residual < 1e-12
        assert set(coeffs) == {(1, 2)}
        assert abs(coeffs[(1, 2)] - 1.0 / t) < 1e-10

    def test_unattainable_direction(self):
        # at m=2 only degree-1 words are available and V_2 vanishes at 0
        system = heisenberg_toy()
        with pytest.raises(DirectionNotAttainableError) as err:
            decompose_direction(system, [0.0, 0.0], [0.0, 1.0], 0.2, 2)
        assert err.value.residual > 0.1

    def test_scale_consistency(self):
        # fixed v: coefficients scale like t^{-deg/2}
        system = heisenberg_toy()
        c1, _ = decompose_direction(system, [0.0, 0.0], [0.0, 1.0], 1.0, 3)
        c2, _ = decompose_direction(system, [0.0, 0.0], [0.0, 1.0], 2.0, 3)
        assert abs(c2[(1, 2)] - c1[(1, 2)] / 2.0) < 1e-12

    def test_large_field_keeps_its_small_coefficient(self):
        # V1 = 1e15 y reaches v = 1 with w = 1/(1e15 sqrt t); a 1e-13 cut on |w| alone would drop it
        system = sde.VectorFieldSystem(
            dim=1, d=1, fields=(lambda y: 0.0 * y, lambda y: 1e15 * y),
            jacobians=(lambda y: np.zeros(y.shape + (1,)), lambda y: np.full(y.shape + (1,), 1e15)),
        )
        coeffs, residual = decompose_direction(system, [1.0], [1.0], 0.5, 2)
        assert set(coeffs) == {(1,)}
        assert abs(coeffs[(1,)] - 1e-15 * math.sqrt(2.0)) < 1e-28
        assert residual < 1e-15
        # with the word kept, the Greek runs its formula (whose flow overflows) rather than returning 0.0
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError):
            greek_one_step(system, lambda x: x[..., 0], [1.0], [1.0], 0.5, 2)

    @pytest.mark.parametrize("m", [2, 3])
    def test_non_finite_bracket_is_refused_quietly(self, capfd, m):
        # V1 = sqrt(y - 2) is NaN at y = 1; least squares on a NaN column used to
        # fail inside LAPACK, printing to stderr and raising numpy's LinAlgError
        system = sde.VectorFieldSystem(dim=1, d=1, fields=(lambda y: 0.0 * y, lambda y: np.sqrt(y - 2.0)))
        with np.errstate(invalid="ignore"):
            with pytest.raises(DomainError, match=r"bracket field \(1,\) is not finite"):
                decompose_direction(system, [1.0], [1.0], 0.1, m)
            with pytest.raises(DomainError, match=r"bracket field \(1,\) is not finite"):
                greek_one_step(system, lambda x: x[..., 0], [1.0], [1.0], 0.1, m)
        assert capfd.readouterr().err == ""

    def test_table_excludes_time_word(self):
        table = build_bracket_table(heisenberg_toy(), [0.0, 0.0], 3)
        assert (0,) not in table
        assert all(word_degree(w) <= 2 for w in table)


class TestLieDirection:
    def test_single_letter(self):
        ctx = context(2, 2)
        assert lie_direction(ctx, {(1,): 1.0}) == generator(ctx, 1)

    def test_single_bracket(self):
        ctx = context(2, 2)
        expected = bracket(generator(ctx, 1), generator(ctx, 2))
        assert lie_direction(ctx, {(1, 2): 1.0}) == expected

    def test_round_trip_through_bracket_table(self):
        system = heisenberg_toy()
        y = np.array([0.4, -0.2])
        t = 0.3
        rng = np.random.default_rng(11)
        table = build_bracket_table(system, y, 3)
        coeffs = {w: rng.uniform(-1, 1) for w in table}
        v = sum(
            t ** (word_degree(w) / 2.0) * c * table[w] for w, c in coeffs.items()
        )
        recovered, residual = decompose_direction(system, y, v, t, 3)
        assert residual < 1e-10
        rebuilt = sum(
            t ** (word_degree(w) / 2.0) * c * table[w]
            for w, c in recovered.items()
        )
        assert np.abs(rebuilt - v).max() < 1e-10


class TestFirstVariation:
    def test_zero_path_gives_identity(self):
        system = heisenberg_toy()
        J = first_variation(system, [0.1, 0.2], line_path(1.0, [0.0, 0.0, 0.0]))
        assert np.allclose(J, np.eye(2))

    def test_black_scholes_scalar(self):
        system = black_scholes(0.05, 0.3)
        t = 0.36
        p = line_path(t, [0.0, math.sqrt(t)])
        J = first_variation(system, [1.0], p)
        assert abs(J[0, 0] - math.exp(0.3 * math.sqrt(t))) < 1e-10

    def test_matches_fd_of_evolve(self):
        system = heisenberg_toy()
        rng = np.random.default_rng(13)
        p = from_increments(0.5, rng.uniform(-0.6, 0.6, size=(2, 3)))
        y0 = np.array([0.3, 0.1])
        J = first_variation(system, y0, p)
        J_fd = fd_jacobian(lambda z: evolve(system, z, p), y0, h=1e-6)
        assert np.abs(J - J_fd).max() < 1e-6 * max(1.0, np.abs(J).max())

    @staticmethod
    def _systems():
        # the last one has Jacobians that do not commute with J
        def v0(y):
            return np.stack([0.3 * y[..., 1], -0.2 * y[..., 0]], axis=-1)

        def v1(y):
            return np.stack([1.0 + 0.1 * y[..., 1] ** 2, 0.2 * y[..., 0]], axis=-1)

        def v2(y):
            return np.stack([0.1 * y[..., 0] * y[..., 1], 1.0 + 0.05 * y[..., 0] ** 2], axis=-1)

        return [
            black_scholes(0.05, 0.3),
            heisenberg_toy(),
            cubic_toy(),
            sde.VectorFieldSystem(dim=2, d=2, fields=(v0, v1, v2), name="poly2d"),
        ]

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(29)
        for system in self._systems():
            for _ in range(12):
                n_seg = int(rng.integers(1, 4))
                p = from_increments(rng.uniform(0.2, 1.0), rng.uniform(-0.7, 0.7, size=(n_seg, system.d + 1)))
                y0 = rng.uniform(-0.8, 0.8, size=system.dim)
                J = first_variation(system, y0, p)
                ref = first_variation_loop(system, y0, p)
                assert J.shape == (system.dim, system.dim)
                assert np.abs(J - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max()), system.name

    def test_batched_rows_bitwise(self):
        rng = np.random.default_rng(31)
        for system in self._systems():
            p = from_increments(0.6, rng.uniform(-0.7, 0.7, size=(3, system.d + 1)))
            states = rng.uniform(-0.8, 0.8, size=(5, system.dim))
            batch = first_variation(system, states, p)
            assert batch.shape == (5, system.dim, system.dim)
            rows = np.stack([first_variation(system, y, p) for y in states])
            assert np.array_equal(batch, rows), system.name

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(DomainError):
            first_variation(black_scholes(0.05, 0.3), [1.0], line_path(0.5, [0.0, 0.3]), 0)

    def test_blow_up_reports_segment(self):
        def v0(y):
            return y**2

        system = sde.VectorFieldSystem(dim=1, d=1, fields=(v0, lambda y: 0.0 * y), name="riccati")
        p = from_increments(2.0, [[1.0, 0.0], [40.0, 0.0]])
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError) as info:
                first_variation(system, [1.0], p, 8)
        assert info.value.segment == 1


class TestModelLoading:
    def test_black_scholes_config(self, tmp_path):
        cfg = tmp_path / "bs.json"
        cfg.write_text('{"model":"black_scholes","params":{"r":0.02,"sigma":0.4}}')
        system = load_model(str(cfg))
        assert system.name == "black_scholes"
        assert np.allclose(system.field(1, np.array([2.0])), [0.8])

    def test_heisenberg_config(self):
        system = load_model({"model": "heisenberg_toy"})
        assert system.dim == 2 and system.d == 2

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            load_model({"model": "does_not_exist"})

    def test_missing_parameter(self):
        with pytest.raises(ConfigError):
            load_model({"model": "black_scholes", "params": {"r": 0.1}})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_model("/nonexistent/model.json")

    def test_params_are_parsed_once_as_floats(self):
        config = sde.model_config(
            {"model": "black_scholes", "params": {"r": "0.02", "sigma": 0.4, "name": "x"}}
        )
        assert config == {"model": "black_scholes", "params": {"r": 0.02, "sigma": 0.4}}

    @pytest.mark.parametrize(
        "text",
        [
            '{"model":"black_scholes","params":{"r":"abc","sigma":0.3}}',
            '{"model":"black_scholes","params":{"r":null,"sigma":0.3}}',
            "[1,2]",
            '{"model":"black_scholes","params":[1]}',
            '{"model":["black_scholes"]}',
        ],
    )
    def test_malformed_file_is_a_config_error(self, tmp_path, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        with pytest.raises(ConfigError):
            load_model(str(cfg))
