import itertools
import math

import numpy as np
import pytest

from cubgreeks import algebra, cubature, paths, sde
from cubgreeks.algebra import TensorElement, bracket, context, dilate, generator, heat_element, max_abs_diff, mul, zero
from cubgreeks.cubature import (
    VERIFY_TOL,
    CubatureFormula,
    default_greeks_dictionary,
    expectation_degree3,
    expectation_degree5,
    expectation_degree5_d1,
    greek_target,
    greeks_solve,
    greeks_two_point,
    rescale_formula,
    verify_moments,
)
from cubgreeks.errors import DomainError, InvalidPathError, NoFormulaFoundError, UnsupportedDegreeError
from cubgreeks.greeks import GreekRequest, expectation_one_step
from cubgreeks.mc import McConfig, Payoff, euler_expectation

from oracles import degree3_spikes, greeks_dictionary_loops, max_residual


def _path_key(path):
    return path.times.tobytes(), path.points.tobytes()


def _dictionary_at(ctx, t):
    """The default Greeks dictionary carried to horizon t."""
    return tuple(paths.scale_path(p, t) for p in default_greeks_dictionary(ctx))


def _random_directions(ctx, n, seed):
    """n Lie directions with standard normal coefficients on the bracket words a degree-m
    decomposition uses (``sde.build_bracket_table``'s)."""
    words = [w for w in algebra.lie_basis(context(ctx.d, ctx.m - 1)).words if w != (0,)]
    rng = np.random.default_rng(seed)
    return [sde.lie_direction(ctx, dict(zip(words, rng.normal(size=len(words))))) for _ in range(n)]


def _indices(formula, dictionary):
    """{dictionary index: weight} of a formula over (the same path objects as) a dictionary."""
    index = {id(p): j for j, p in enumerate(dictionary)}
    return {index[id(p)]: mu for mu, p in formula.items}


class TestVerifyMoments:
    def test_degree3_is_its_own_oracle(self):
        ctx = context(1, 3)
        f = expectation_degree3(ctx, 0.5)
        res = verify_moments(f, heat_element(ctx, 0.5))
        assert max(res.values()) < 1e-12

    def test_perturbed_weight_shows_up_at_degree_zero(self):
        ctx = context(1, 3)
        f = expectation_degree3(ctx, 0.5)
        items = tuple((w + (1e-3 if j == 0 else 0.0), p) for j, (w, p) in enumerate(f.items))
        res = verify_moments(CubatureFormula(ctx, 0.5, items), heat_element(ctx, 0.5))
        assert res[0] >= 1e-4

    def test_empty_formula(self):
        ctx = context(1, 3)
        res = verify_moments(CubatureFormula(ctx, 1.0, ()), heat_element(ctx, 1.0))
        assert res[0] == 1.0

    def test_nan_residual_fails_verification(self):
        # max() of residuals with a NaN past the first ignores it, and NaN > tol is False
        assert cubature.is_verified((0.0, VERIFY_TOL, 1e-16))
        for residuals in [(0.0, math.nan, 0.0, 0.0), (math.nan, 0.0), (0.0, 2 * VERIFY_TOL)]:
            assert not cubature.is_verified(residuals)
            with pytest.raises(NoFormulaFoundError):
                cubature._checked(expectation_degree3(context(1, 3), 1.0), residuals)


class TestExpectationDegree3:
    def test_d1_structure(self):
        t = 0.36
        f = expectation_degree3(context(1, 3), t)
        assert sorted(w for w, _ in f.items) == [0.5, 0.5]
        ends = sorted(p.points[-1][1] for p in f.paths)
        assert np.allclose(ends, [-math.sqrt(t), math.sqrt(t)])
        assert all(p.points[-1][0] == t for p in f.paths)

    def test_d1_reproduces_heat(self):
        ctx = context(1, 3)
        t = 0.36
        f = expectation_degree3(ctx, t)
        total = zero(ctx)
        for w, p in f.items:
            total = total + w * paths.signature(ctx, p)
        expected = TensorElement(ctx, {(): 1.0, (0,): t, (1, 1): t / 2.0})
        assert max_abs_diff(total, expected) < 1e-14

    def test_d2_structure(self):
        t = 0.2
        f = expectation_degree3(context(2, 3), t)
        assert len(f.items) == 4
        assert np.allclose(f.weights, 0.25)
        magnitudes = [np.abs(p.points[-1][1:]).max() for p in f.paths]
        assert np.allclose(magnitudes, math.sqrt(2 * t))
        assert max_residual(f) < 1e-12

    def test_weights_sum_to_one(self):
        f = expectation_degree3(context(2, 2), 1.0)
        assert abs(f.weights.sum() - 1.0) < 1e-14

    def test_unsupported_degree(self):
        with pytest.raises(UnsupportedDegreeError):
            expectation_degree3(context(1, 4), 1.0)


class TestExpectationDegree5:
    def test_passes_moments(self):
        f = expectation_degree5_d1(context(1, 5), 1.0)
        assert max_residual(f) < 1e-10

    def test_expectation_flavor_invariants(self):
        f = expectation_degree5_d1(context(1, 5), 0.7)
        assert np.all(f.weights > 0)
        assert abs(f.weights.sum() - 1.0) < 1e-12

    def test_tchakaloff_bound(self):
        f = expectation_degree5_d1(context(1, 5), 1.0)
        dim = context(1, 5).dim
        assert len(f.items) <= dim <= 26

    def test_at_most_three_segments(self):
        f = expectation_degree5_d1(context(1, 5), 1.0)
        assert all(p.n_segments <= 3 for p in f.paths)

    def test_requires_d1_m5(self):
        with pytest.raises(UnsupportedDegreeError):
            expectation_degree5_d1(context(2, 5), 1.0)
        with pytest.raises(UnsupportedDegreeError):
            expectation_degree5_d1(context(1, 3), 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_up_to_three_drivers(self, d):
        ctx = context(d, 5)
        f = expectation_degree5(ctx, 1.0)
        assert f.residual <= VERIFY_TOL and max_residual(f) <= VERIFY_TOL
        assert np.all(f.weights > 0) and abs(f.weights.sum() - 1.0) < 1e-12
        assert len(f.items) == {1: 3, 2: 13, 3: 47}[d] <= ctx.dim

    def test_four_drivers(self):
        f = expectation_degree5(context(4, 5), 1.0)
        assert f.residual <= VERIFY_TOL and max_residual(f) <= VERIFY_TOL
        assert np.all(f.weights > 0) and abs(f.weights.sum() - 1.0) < 1e-12
        assert len(f.items) == 153

    def test_five_drivers(self):
        f = expectation_degree5(context(5, 5), 1.0)
        assert f.residual <= VERIFY_TOL and max_residual(f) <= VERIFY_TOL
        assert np.all(f.weights > 0) and abs(f.weights.sum() - 1.0) < 1e-12
        assert len(f.items) == 475

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_weight_per_orbit(self, d):
        # every image of a path under sign flips of the axes and reversal of
        # the axis order is in the formula, with the same weight; the splitting
        # is not invariant under every axis permutation at d >= 3
        f = expectation_degree5(context(d, 5), 1.0)
        weights = {p.points.tobytes(): w for w, p in f.items}
        assert len(weights) == len(f.items)
        for w, p in f.items:
            for axes in (slice(1, None), slice(None, 0, -1)):
                for signs in itertools.product((1.0, -1.0), repeat=d):
                    image = p.points.copy()
                    image[:, 1:] = p.points[:, axes] * signs + 0.0
                    assert weights[image.tobytes()] == w

    def test_needs_at_most_five_drivers_and_m5(self):
        with pytest.raises(UnsupportedDegreeError):
            expectation_degree5(context(6, 5), 1.0)
        with pytest.raises(UnsupportedDegreeError):
            expectation_degree5(context(2, 3), 1.0)


class TestOrbitsMatchFamilyLoops:
    """The orbit path sets against frozen copies of the loops they replaced."""

    # at d = 10 an orbit is only tractable if just the axes a shape uses are moved
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_greeks_dictionary_is_the_same_set(self, d):
        new = [_path_key(p) for p in default_greeks_dictionary(context(d, 3))]
        old = [_path_key(p) for p in greeks_dictionary_loops(d)]
        assert len(set(new)) == len(new)
        assert sorted(new) == sorted(old)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 10])
    def test_degree3_spikes_are_bitwise_equal(self, d):
        f = expectation_degree3(context(d, 3), 1.0)
        old = degree3_spikes(d)
        assert len(f.items) == 2 * d
        assert [w.hex() for w in f.weights] == [w.hex() for w, _ in old]
        assert [_path_key(p) for p in f.paths] == [_path_key(p) for _, p in old]

    @pytest.mark.parametrize("t", [0.05, 0.2, 1.0])
    def test_greek_weights_on_heisenberg_grid(self, t):
        # same support; the weights grow like 1/t with the decomposed
        # direction and move by a few ulps of their largest entry
        system, ctx = sde.heisenberg_toy(), context(2, 3)
        old_dictionary = greeks_dictionary_loops(2)
        for y in itertools.product((-0.8, -0.1, 0.0, 0.4, 0.9), repeat=2):
            coeffs, _ = sde.decompose_direction(system, y, sde.bracket_vf(system, 1, 2, y), t, 3)
            w = sde.lie_direction(ctx, coeffs)
            new = greeks_solve(ctx, w, 1.0, default_greeks_dictionary(ctx))
            old = greeks_solve(ctx, w, 1.0, old_dictionary)
            new_mu = {_path_key(p): mu for mu, p in new.items}
            old_mu = {_path_key(p): mu for mu, p in old.items}
            assert new_mu.keys() == old_mu.keys()
            scale = max(1.0, max(abs(mu) for mu in old_mu.values()))
            assert max(abs(new_mu[k] - old_mu[k]) for k in new_mu) <= 1e-14 * scale


class TestGreekTarget:
    def test_degree_one_direction_is_exact(self):
        # sqrt(t) e_1 = sqrt(t) e_1 * heat in the m=2 algebra
        ctx = context(2, 2)
        for t in (0.04, 0.5, 2.0):
            target = greek_target(ctx, generator(ctx, 1), t)
            assert max_abs_diff(target, math.sqrt(t) * generator(ctx, 1)) < 1e-14

    def test_zero_direction(self):
        ctx = context(2, 2)
        assert greek_target(ctx, zero(ctx), 1.0) == zero(ctx)

    def test_bracket_direction_series(self):
        # direct series oracle: dilate(sqrt t, [e1,e2]) * heat, expanded by hand
        ctx = context(2, 3)
        t = 0.49
        w = bracket(generator(ctx, 1), generator(ctx, 2))
        target = greek_target(ctx, w, t)
        manual = mul(dilate(math.sqrt(t), w), heat_element(ctx, t))
        assert max_abs_diff(target, manual) == 0.0
        expected = TensorElement(ctx, {(1, 2): t, (2, 1): -t})
        assert max_abs_diff(target, expected) < 1e-14

    def test_rejects_e0_component(self):
        ctx = context(2, 2)
        with pytest.raises(DomainError):
            greek_target(ctx, generator(ctx, 0), 1.0)

    def test_rejects_constant_term(self):
        ctx = context(2, 2)
        with pytest.raises(DomainError):
            greek_target(ctx, algebra.unit(ctx), 1.0)


class TestGreeksTwoPoint:
    def test_paper_construction(self):
        ctx = context(2, 2)
        t = 0.25
        f = greeks_two_point(ctx, generator(ctx, 1), t)
        assert [w for w, _ in f.items] == [0.5, -0.5]
        plus, minus = f.paths
        assert np.allclose(plus.points[-1], [0.0, math.sqrt(t), 0.0])
        assert np.allclose(minus.points[-1], [0.0, -math.sqrt(t), 0.0])

    def test_weight_invariants(self):
        ctx = context(2, 2)
        f = greeks_two_point(ctx, generator(ctx, 1) - 0.3 * generator(ctx, 2), 0.5)
        mu = f.weights
        assert abs(mu.sum()) == 0.0
        assert np.abs(mu).sum() <= 2.0
        assert np.abs(mu).max() <= 1.0

    def test_moment_residual(self):
        ctx = context(2, 2)
        w = 0.7 * generator(ctx, 1) + 1.2 * generator(ctx, 2)
        f = greeks_two_point(ctx, w, 0.09)
        assert max_residual(f, greek_target(ctx, w, 0.09)) < 1e-12

    def test_unit_paths_carry_norm_on_weights(self):
        ctx = context(2, 2)
        t = 0.09
        w = 0.7 * generator(ctx, 1) + 1.2 * generator(ctx, 2)
        norm = math.hypot(0.7, 1.2)
        f = greeks_two_point(ctx, w, t)
        assert np.allclose(f.weights, [0.5 * norm, -0.5 * norm], rtol=1e-15)
        assert f.weights[0] == -f.weights[1]
        plus, minus = f.paths
        assert np.allclose(plus.points[-1], [0.0, 0.3 * 0.7 / norm, 0.3 * 1.2 / norm])
        assert np.array_equal(minus.points, -plus.points)

    def test_zero_direction_empty_formula(self):
        ctx = context(2, 2)
        f = greeks_two_point(ctx, zero(ctx), 0.5)
        assert f.items == ()
        assert max_residual(f) == 0.0

    def test_valid_at_m1(self):
        ctx = context(1, 1)
        f = greeks_two_point(ctx, generator(ctx, 1), 0.3)
        assert max_residual(f) < 1e-14

    def test_rejects_m3(self):
        with pytest.raises(UnsupportedDegreeError):
            greeks_two_point(context(2, 3), generator(context(2, 3), 1), 1.0)

    def test_rejects_bracket_direction(self):
        ctx = context(2, 2)
        w = bracket(generator(ctx, 1), generator(ctx, 2))
        with pytest.raises(DomainError):
            greeks_two_point(ctx, w, 1.0)


class TestGreeksSolve:
    def test_recovers_two_point_weights(self):
        ctx = context(2, 2)
        t = 0.16
        dictionary = [
            paths.line_path(t, [0.0, math.sqrt(t), 0.0]),
            paths.line_path(t, [0.0, -math.sqrt(t), 0.0]),
        ]
        f = greeks_solve(ctx, generator(ctx, 1), t, dictionary)
        assert np.allclose(sorted(f.weights), [-0.5, 0.5])

    def test_zero_direction_empty_formula(self):
        ctx = context(2, 2)
        f = greeks_solve(ctx, zero(ctx), 1.0, default_greeks_dictionary(ctx))
        assert f.items == ()

    def test_bracket_direction_with_l_shapes(self):
        ctx = context(2, 3)
        t = 0.1
        w = (1.0 / t) * bracket(generator(ctx, 1), generator(ctx, 2))
        f = greeks_solve(ctx, w, t, _dictionary_at(ctx, t))
        assert max_residual(f, greek_target(ctx, w, t)) < 1e-10
        assert abs(f.weights.sum()) < 1e-10
        assert len(f.items) <= 2 * ctx.dim

    def test_poor_dictionary_reports_best_residual(self):
        ctx = context(2, 3)
        w = bracket(generator(ctx, 1), generator(ctx, 2))
        dictionary = [paths.line_path(1.0, [0.0, 1.0, 0.0])]
        with pytest.raises(NoFormulaFoundError) as err:
            greeks_solve(ctx, w, 1.0, dictionary)
        assert err.value.best_residual > 1e-10

    def test_mixed_degree_direction(self):
        ctx = context(2, 3)
        t = 0.3
        w = generator(ctx, 1) + 0.5 * bracket(generator(ctx, 1), generator(ctx, 2))
        f = greeks_solve(ctx, w, t, _dictionary_at(ctx, t))
        assert max_residual(f, greek_target(ctx, w, t)) < 1e-10


class TestCachedSupportSolve:
    """The weights are pinv(S[:, support]) b, with each support's pseudo-inverse and knot
    stack cached per context on the default dictionary and built afresh on any other."""

    @staticmethod
    def lstsq_weights(ctx, w):
        """{dictionary index: weight} by the dense least-squares solves the pseudo-inverses replaced."""
        b = algebra.to_dense(greek_target(ctx, w, 1.0))
        S, selected = cubature._unit_greeks_columns(ctx)
        mu, *_ = np.linalg.lstsq(S[:, selected], b, rcond=None)
        selected = selected[np.abs(mu) >= cubature.PRUNE_TOL]
        mu, *_ = np.linalg.lstsq(S[:, selected], b, rcond=None)
        return dict(zip(selected.tolist(), mu - mu.sum() / mu.size))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weights_match_least_squares(self, d):
        ctx = context(d, 3)
        dictionary = default_greeks_dictionary(ctx)
        for w in _random_directions(ctx, 200, d):
            new, old = _indices(greeks_solve(ctx, w, 1.0, dictionary), dictionary), self.lstsq_weights(ctx, w)
            assert new.keys() == old.keys()
            assert max(abs(new[j] - old[j]) for j in new) <= 1e-14 * max(map(abs, old.values()))

    def test_each_support_is_built_once_per_context_and_read_only(self, monkeypatch):
        ctx = context(2, 3)
        dictionary = default_greeks_dictionary(ctx)
        _, selected = cubature._unit_greeks_columns(ctx)
        cubature._unit_support.cache_clear()
        built, pinv, knot_stack = [], np.linalg.pinv, paths.knot_stack
        monkeypatch.setattr(np.linalg, "pinv", lambda a: built.append("pinv") or pinv(a))
        monkeypatch.setattr(paths, "knot_stack", lambda *args: built.append("stack") or knot_stack(*args))
        directions = _random_directions(ctx, 10, 7) + [bracket(generator(ctx, 1), generator(ctx, 2)), zero(ctx)]
        formulas = [greeks_solve(ctx, w, 1.0, dictionary) for w in directions * 2]
        keys = {tuple(selected.tolist())}
        for f in formulas:
            # the support in the QR's pivot order keys its cache entry
            support = tuple(j for j in selected.tolist() if j in _indices(f, dictionary))
            keys.add(support)
            entry = cubature._unit_support(ctx, support)
            assert f.stack[0] is entry[3] and f.stack[1] is entry[4]
            for array in entry:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
        assert len(keys) >= 3
        assert sorted(built) == sorted(["pinv", "stack"] * len(keys))

    def test_user_dictionary_takes_the_same_rule_uncached(self):
        ctx = context(2, 3)
        dictionary = default_greeks_dictionary(ctx)
        for w in _random_directions(ctx, 5, 11):
            cached = greeks_solve(ctx, w, 1.0, dictionary)
            info = cubature._unit_support.cache_info()
            fresh = greeks_solve(ctx, w, 1.0, list(dictionary))
            assert cubature._unit_support.cache_info() == info
            assert [mu.hex() for mu in fresh.weights] == [mu.hex() for mu in cached.weights]
            assert all(p is q for p, q in zip(fresh.paths, cached.paths))
            assert fresh.residuals == cached.residuals
            assert all(a.tobytes() == b.tobytes() for a, b in zip(fresh.stack[:2], cached.stack[:2]))

    def test_user_dictionary_stacks_only_the_final_support_and_only_on_use(self, monkeypatch):
        ctx = context(2, 3)
        dictionary = list(default_greeks_dictionary(ctx))
        stacked, knot_stack = [], paths.knot_stack
        monkeypatch.setattr(paths, "knot_stack", lambda *args: stacked.append(len(args[0])) or knot_stack(*args))
        for w in _random_directions(ctx, 3, 13):
            del stacked[:]
            formula = greeks_solve(ctx, w, 1.0, dictionary)
            assert stacked == [len(dictionary)]  # the dictionary's signature fold alone
            times, points, *_ = formula.stack
            assert stacked == [len(dictionary), len(formula.items)]
            expected = knot_stack(formula.paths, ctx.d + 1)
            assert times.tobytes() == expected[0].tobytes() and points.tobytes() == expected[1].tobytes()


class TestTinyDirections:
    """Pruning and verification scale with s = min(1, max|b|), so a tiny target gets the
    formula of its unit-scale twin and an unreachable one is refused at any scale."""

    def test_scaled_in_reach_direction_keeps_the_unit_support(self):
        ctx = context(2, 3)
        dictionary = default_greeks_dictionary(ctx)
        for w in [bracket(generator(ctx, 1), generator(ctx, 2)) + generator(ctx, 1), *_random_directions(ctx, 5, 3)]:
            unit, tiny = (greeks_solve(ctx, c * w, 1.0, dictionary) for c in (1.0, 1e-12))
            assert all(p is q for p, q in zip(tiny.paths, unit.paths)) and len(tiny.items) == len(unit.items)
            scaled = 1e-12 * unit.weights
            assert np.abs(tiny.weights - scaled).max() <= 1e-14 * np.abs(scaled).max()

    @pytest.mark.parametrize("c", [1.0, 1e-9, 1e-12])
    def test_out_of_reach_direction_is_refused_at_any_scale(self, c):
        ctx = context(2, 4)
        with pytest.raises(NoFormulaFoundError):
            greeks_solve(ctx, c * bracket(generator(ctx, 1), generator(ctx, 2)), 1.0, default_greeks_dictionary(ctx))


class TestRescale:
    def test_identity_at_one(self):
        f = expectation_degree3(context(1, 3), 1.0)
        assert rescale_formula(f, 1.0) is f

    def test_degree3_rescaled_passes(self):
        ctx = context(1, 3)
        f = expectation_degree3(ctx, 1.0)
        g = rescale_formula(f, 0.04)
        assert max_residual(g, heat_element(ctx, 0.04)) < 1e-12

    @pytest.mark.parametrize("t", [0.01, 0.25, 1.0, 4.0])
    def test_rescaling_commutes_with_verification(self, t):
        ctx = context(2, 3)
        f = expectation_degree3(ctx, 1.0)
        assert max_residual(rescale_formula(f, t)) < 1e-10

    def test_rescaled_two_point_matches_direct(self):
        ctx = context(2, 2)
        w = generator(ctx, 1)
        base = greeks_two_point(ctx, w, 1.0)
        scaled = rescale_formula(base, 0.09)
        direct = greeks_two_point(ctx, w, 0.09)
        assert np.allclose(scaled.weights, direct.weights)
        for p, q in zip(scaled.paths, direct.paths):
            assert np.allclose(p.points, q.points) and np.allclose(p.times, q.times)
        assert max_abs_diff(scaled.direction, direct.direction) < 1e-15

    def test_rejects_bad_horizons(self):
        f = expectation_degree3(context(1, 3), 0.5)
        with pytest.raises(DomainError):
            rescale_formula(f, 2.0)
        g = expectation_degree3(context(1, 3), 1.0)
        with pytest.raises(DomainError):
            rescale_formula(g, -1.0)


class TestHorizonOne:
    """Formulas are verified at horizon 1 and carried to t by rescale_formula."""

    @pytest.mark.parametrize("t", [0.01, 0.3, 5.0])
    def test_recorded_residual_matches_fresh_check(self, t):
        ctx22, ctx23 = context(2, 2), context(2, 3)
        w = bracket(generator(ctx23, 1), generator(ctx23, 2))
        formulas = [
            expectation_degree3(context(1, 3), t),
            expectation_degree3(ctx23, t),
            expectation_degree5_d1(context(1, 5), t),
            expectation_degree5(context(2, 5), t),
            expectation_degree5(context(3, 5), t),
            greeks_two_point(ctx22, 0.7 * generator(ctx22, 1) - 1.2 * generator(ctx22, 2), t),
            rescale_formula(greeks_solve(ctx23, w, 1.0, default_greeks_dictionary(ctx23)), t),
        ]
        for f in formulas:
            assert f.t == t and len(f.residuals) == f.ctx.m + 1
            assert abs(f.residual - max_residual(f)) <= 1e-14

    def test_built_once_per_context(self):
        assert expectation_degree3(context(2, 3), 1.0) is expectation_degree3(context(2, 3), 1.0)
        ctx = context(2, 3)
        first, second = default_greeks_dictionary(ctx), default_greeks_dictionary(ctx)
        assert first is second  # the cached tuple, which greeks_solve recognises by identity

    def test_unverified_input_is_checked_once_at_horizon_one(self):
        ctx = context(2, 3)
        items = expectation_degree3(ctx, 1.0).items
        f = CubatureFormula(ctx, 1.0, items)
        assert f.residuals is None
        g = rescale_formula(f, 0.25)
        assert f.residuals == tuple(verify_moments(f, heat_element(ctx, 1.0)).values())
        assert g.residuals == tuple(r * 0.25 ** (n / 2) for n, r in enumerate(f.residuals))
        bad = CubatureFormula(ctx, 1.0, ((0.7, items[0][1]), (0.3, items[1][1])))
        with pytest.raises(NoFormulaFoundError):
            rescale_formula(bad, 0.25)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0, None])
    def test_horizon_must_be_positive_and_finite(self, t):
        ctx = context(2, 3)
        f = expectation_degree3(ctx, 1.0)
        bs = sde.black_scholes(0.05, 0.3)
        for call in (
            lambda: rescale_formula(f, t),
            lambda: paths.scale_path(f.paths[0], t),
            lambda: greek_target(ctx, generator(ctx, 1), t),
            lambda: heat_element(ctx, t),
            lambda: sde.decompose_direction(sde.heisenberg_toy(), [0.1, 0.2], [0.0, 1.0], t, 3),
            lambda: cubature.formula_from_dict({**cubature.formula_to_dict(f), "t": t}),
            lambda: GreekRequest(bs, Payoff("identity"), (1.0,), (1.0,), t, 2, 3, (0.5,)),
            lambda: expectation_one_step(bs, Payoff("identity"), [1.0], t, 3),
            lambda: euler_expectation(bs, Payoff("identity"), [1.0], t, McConfig(2, 1)),
        ):
            with pytest.raises(DomainError, match="horizon must be positive and finite"):
                call()


class TestMomentsComputedOnce:
    """Each built formula computes its signature columns in one
    ``paths.signatures`` call, and checks its moments from those columns."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted, signatures = [], paths.signatures

        def count(ctx, points):
            counted.append(len(points))
            return signatures(ctx, points)

        monkeypatch.setattr(paths, "signatures", count)
        return counted

    def test_one_call_per_built_formula(self, calls):
        ctx22, ctx23 = context(2, 2), context(2, 3)
        w = bracket(generator(ctx23, 1), generator(ctx23, 2))
        builds = [
            lambda: cubature._expectation_degree3_unit.__wrapped__(ctx23),
            lambda: cubature._expectation_degree5_unit.__wrapped__(context(2, 5)),
            lambda: greeks_two_point(ctx22, 0.7 * generator(ctx22, 1) - 1.2 * generator(ctx22, 2), 0.3),
            lambda: greeks_solve(ctx23, w, 0.5, _dictionary_at(ctx23, 0.5)),
            lambda: cubature._unit_greeks_columns.__wrapped__(ctx23),
        ]
        for build in builds:
            calls.clear()
            build()
            assert len(calls) == 1

    def test_warm_formulas_compute_no_signatures(self, calls):
        ctx23 = context(2, 3)
        w = bracket(generator(ctx23, 1), generator(ctx23, 2))
        greeks_solve(ctx23, w, 1.0, default_greeks_dictionary(ctx23))
        expectation_degree3(ctx23, 1.0)
        calls.clear()
        greeks_solve(ctx23, -0.4 * w + generator(ctx23, 1), 1.0, default_greeks_dictionary(ctx23))
        expectation_degree3(ctx23, 0.3)
        assert calls == []


class TestFormulaInvariants:
    def test_paths_must_end_at_the_horizon(self):
        ctx = context(2, 3)
        with pytest.raises(InvalidPathError, match="formula horizon is 0.5"):
            greeks_solve(ctx, bracket(generator(ctx, 1), generator(ctx, 2)), 0.5, default_greeks_dictionary(ctx))
        items = expectation_degree3(ctx, 1.0).items
        with pytest.raises(InvalidPathError):
            CubatureFormula(ctx, 0.5, items)
        # PiecewisePath's rule: a relative 1e-12
        assert CubatureFormula(ctx, 1.0 + 1e-13, items).items == items

    def test_expectation_weights_must_be_positive(self):
        ctx = context(1, 3)
        with pytest.raises(DomainError):
            CubatureFormula(ctx, 1.0, ((-0.5, paths.line_path(1.0, [1.0, 1.0])),))

    def test_constructors_never_return_unverified(self):
        # every builder runs verify_moments; spot-check the residuals
        assert max_residual(expectation_degree3(context(2, 3), 0.7)) < 1e-10
        assert max_residual(expectation_degree5_d1(context(1, 5), 0.7)) < 1e-10
        ctx = context(2, 2)
        assert max_residual(greeks_two_point(ctx, generator(ctx, 1), 0.7)) < 1e-10


class TestUserDictionaryExtension:
    def test_degree4_greeks_via_generic_dictionary(self):
        # beyond the built-in degrees, a generic multi-segment family spans
        # the coefficient space and the solver does the rest
        ctx = context(2, 4)
        t = 0.2
        w = bracket(generator(ctx, 1), generator(ctx, 2))
        rng = np.random.default_rng(2024)
        dictionary = []
        for _ in range(140):
            segs = rng.integers(2, 5)
            incs = np.empty((segs, 3))
            incs[:, 0] = rng.uniform(0, t / segs, size=segs)
            incs[:, 1:] = rng.normal(0.0, math.sqrt(t), size=(segs, 2))
            dictionary.append(paths.from_increments(t, incs))
        f = greeks_solve(ctx, w, t, dictionary)
        assert max_residual(f, greek_target(ctx, w, t)) < 1e-10
        assert len(f.items) <= 2 * ctx.dim
