import math

import numpy as np
import pytest

from cubgreeks import mc, rng, sde
from cubgreeks.algebra import context, heat_element
from cubgreeks.errors import DomainError, EllipticityError, UnsupportedPayoffError
from cubgreeks.mc import (
    McConfig,
    Payoff,
    bs_closed_form,
    covariance_diagnostics,
    covariance_samples,
    euler_expectation,
    fd_greek,
    malliavin_delta_m1,
    parse_payoff,
    signature_expectation_stats,
    simple_weight_delta_m1,
)

from oracles import gbm_exact_samples

BS = sde.black_scholes(0.05, 0.3)
IDENT = Payoff("identity")


class TestCounterRng:
    def test_deterministic_and_in_unit_interval(self):
        u1 = rng.counter_uniforms(7, np.arange(1000))
        u2 = rng.counter_uniforms(7, np.arange(1000))
        assert np.array_equal(u1, u2)
        assert np.all((u1 > 0.0) & (u1 < 1.0))

    def test_seed_changes_stream(self):
        u1 = rng.counter_uniforms(7, np.arange(1000))
        u2 = rng.counter_uniforms(8, np.arange(1000))
        assert not np.array_equal(u1, u2)

    def test_moments_sane(self):
        z = rng.normal_increments(3, 0, 2000, 16, 2)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_chunking_transparent(self):
        # drawing paths [5, 10) directly matches slicing a bigger block
        full = rng.normal_increments(11, 0, 10, 8, 2)
        part = rng.normal_increments(11, 5, 5, 8, 2)
        assert np.array_equal(full[5:], part)

    def test_antithetic_pairs(self):
        z = rng.normal_increments(11, 0, 6, 4, 1, antithetic=True)
        assert np.array_equal(z[1], -z[0])
        assert np.array_equal(z[3], -z[2])

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=0, n_steps=4)
        with pytest.raises(DomainError):
            McConfig(n_paths=3, n_steps=4, antithetic=True)


class TestEulerExpectation:
    def test_black_scholes_mean(self):
        cfg = McConfig(n_paths=20000, n_steps=64, seed=42)
        mean, se = euler_expectation(BS, IDENT, [1.0], 0.5, cfg)
        ref = math.exp(0.05 * 0.5)
        assert abs(mean - ref) < 3 * se

    def test_reproducible(self):
        cfg = McConfig(n_paths=500, n_steps=16, seed=9)
        assert euler_expectation(BS, IDENT, [1.0], 0.3, cfg) == euler_expectation(
            BS, IDENT, [1.0], 0.3, cfg
        )

    def test_disjoint_seeds_agree(self):
        a = euler_expectation(BS, IDENT, [1.0], 0.5, McConfig(20000, 32, seed=1))
        b = euler_expectation(BS, IDENT, [1.0], 0.5, McConfig(20000, 32, seed=2))
        assert abs(a[0] - b[0]) < 3 * math.hypot(a[1], b[1])

    def test_deterministic_system_zero_stderr(self):
        def v0(y):
            return 0.05 * y

        def v1(y):
            return 0.0 * y

        system = sde.VectorFieldSystem(dim=1, d=1, fields=(v0, v1))
        cfg = McConfig(n_paths=50, n_steps=512, seed=0)
        mean, se = euler_expectation(system, IDENT, [1.0], 1.0, cfg)
        assert se < 1e-15  # all paths identical; only mean-rounding dust remains
        assert abs(mean - math.exp(0.05)) < 1e-3

    def test_antithetic_variance_reduction(self):
        # nearly-odd payoff: antithetic pairing cancels the linear term
        def v0(y):
            return 0.0 * y

        def v1(y):
            return 0.3 * y

        system = sde.VectorFieldSystem(
            dim=1, d=1, fields=(v0, v1),
            jacobians=(lambda y: np.zeros(y.shape + (1,)), lambda y: np.full(y.shape + (1,), 0.3)),
        )
        plain = euler_expectation(system, IDENT, [1.0], 1.0, McConfig(20000, 32, seed=11))
        anti = euler_expectation(
            system, IDENT, [1.0], 1.0, McConfig(20000, 32, seed=11, antithetic=True)
        )
        assert anti[1] < 0.5 * plain[1]


    def test_single_state_payoffs_match_batched_ones(self):
        # two paths of a two-dimensional system: n == N, where a payoff that
        # reads y[0] as the first coordinate gets a whole row of the batch
        system = sde.heisenberg_toy()
        cfg = McConfig(n_paths=2, n_steps=8, seed=3)
        batched = euler_expectation(system, lambda y: y[..., 0], [0.2, 0.1], 0.5, cfg)
        assert euler_expectation(system, lambda y: y[0], [0.2, 0.1], 0.5, cfg) == batched
        assert euler_expectation(system, lambda y: float(y[1]), [0.2, 0.1], 0.5, cfg) == (
            euler_expectation(system, lambda y: y[..., 1], [0.2, 0.1], 0.5, cfg)
        )


class TestMalliavinWeight:
    def test_black_scholes_call_delta(self):
        cfg = McConfig(n_paths=20000, n_steps=64, seed=42)
        payoff = Payoff("call", 1.0)
        mean, se = malliavin_delta_m1(BS, payoff, [1.0], [1.0], 0.5, cfg)
        _, ref = bs_closed_form(0.05, 0.3, 1.0, 0.5, payoff)
        assert abs(mean - ref) < 3 * se

    def test_constant_payoff_centered(self):
        cfg = McConfig(n_paths=20000, n_steps=64, seed=5)
        mean, se = malliavin_delta_m1(
            BS, lambda x: np.ones(len(x)), [1.0], [1.0], 0.25, cfg
        )
        assert abs(mean) < 3 * se

    def test_simple_weight_agrees_at_small_t(self):
        # the frozen m=1 weight matches the precise formula to O(sqrt t)
        cfg = McConfig(n_paths=20000, n_steps=64, seed=13)
        t = 0.01
        precise, _ = malliavin_delta_m1(BS, IDENT, [1.0], [1.0], t, cfg)
        simple, _ = simple_weight_delta_m1(BS, IDENT, [1.0], [1.0], t, cfg)
        assert abs(precise - simple) < 0.05

    def test_requires_square_system(self):
        def v0(y):
            return 0.0 * y

        def v1(y):
            out = np.zeros_like(y)
            out[..., 0] = 1.0
            return out

        tall = sde.VectorFieldSystem(dim=2, d=1, fields=(v0, v1))
        with pytest.raises(EllipticityError):
            malliavin_delta_m1(tall, IDENT, [0.0, 0.0], [1.0, 0.0], 0.1, McConfig(10, 4))

    def test_singular_diffusion_detected(self):
        system = sde.heisenberg_toy()
        with pytest.raises(EllipticityError):
            malliavin_delta_m1(system, IDENT, [0.0, 0.0], [0.0, 1.0], 0.1, McConfig(100, 8))


def _elliptic_poly():
    # polynomial 2-D elliptic system without Jacobians (finite-difference fallback)
    def v0(y):
        return 0.1 * y

    def v1(y):
        return np.stack([1.0 + 0.1 * y[..., 1] ** 2, 0.2 * y[..., 0]], axis=-1)

    def v2(y):
        return np.stack([0.1 * y[..., 0] * y[..., 1], 1.0 + 0.05 * y[..., 0] ** 2], axis=-1)

    return sde.VectorFieldSystem(dim=2, d=2, fields=(v0, v1, v2), name="elliptic_poly")


class TestEulerStepBitwise:
    """The estimators share one Euler step; each keeps its former float operations.

    The (mean, stderr) hex values were recorded from the version in which
    ``malliavin_delta_m1`` and ``_euler_states`` each spelled out the step.
    """

    CALL = Payoff("call", 1.0)

    @staticmethod
    def _square_of_second(y):
        return y[..., 1] ** 2

    @staticmethod
    def _basket(y):
        return np.maximum(y[..., 0] + y[..., 1] - 0.5, 0.0)

    def _runs(self, seed):
        cfg = McConfig(n_paths=400, n_steps=16, seed=seed)
        anti = McConfig(n_paths=400, n_steps=16, seed=seed, antithetic=True)
        hz = sde.heisenberg_toy()
        el = _elliptic_poly()
        return {
            "euler_bs": euler_expectation(BS, self.CALL, [1.0], 0.5, cfg),
            "euler_hz": euler_expectation(hz, self._square_of_second, [0.3, 0.1], 0.5, anti),
            "euler_el": euler_expectation(el, self._basket, [0.2, 0.3], 0.5, cfg),
            "fd_bs": fd_greek(BS, self.CALL, [1.0], [1.0], 0.5, cfg),
            "fd_hz": fd_greek(hz, self._square_of_second, [0.3, 0.1], [1.0, 0.0], 0.5, cfg),
            "mal_bs": malliavin_delta_m1(BS, self.CALL, [1.0], [1.0], 0.5, cfg),
            "mal_el": malliavin_delta_m1(el, self._basket, [0.2, 0.3], [1.0, -0.5], 0.5, cfg),
            "simple_bs": simple_weight_delta_m1(BS, self.CALL, [1.0], [1.0], 0.5, anti),
            "simple_el": simple_weight_delta_m1(el, self._basket, [0.2, 0.3], [1.0, -0.5], 0.5, cfg),
        }

    EXPECTED = {
        3: {
            "euler_bs": ("0x1.71b1ff28d0db8p-4", "0x1.c259d445ab9c3p-8"),
            "euler_hz": ("0x1.40873028bf3d6p-3", "0x1.05424cb54d54fp-6"),
            "euler_el": ("0x1.ab198411d395cp-2", "0x1.0cc493d84c857p-5"),
            "fd_bs": ("0x1.3058ee81e84a3p-1", "0x1.ea90e65fd7d1ep-6"),
            "fd_hz": ("0x1.1bfd93927ddfcp-2", "0x1.44ff77bbda4dep-5"),
            "mal_bs": ("0x1.ff1f3ea78ce92p-2", "0x1.07e135e1fe404p-4"),
            "mal_el": ("0x1.bbd8e28585460p-3", "0x1.e555c86644893p-5"),
            "simple_bs": ("0x1.2e69283c796fap-1", "0x1.155a2f46df538p-4"),
            "simple_el": ("0x1.b9cc00444dec4p-3", "0x1.e644d0f170f43p-5"),
        },
        11: {
            "euler_bs": ("0x1.5841d37ef45fap-4", "0x1.be25420186caap-8"),
            "euler_hz": ("0x1.0898cb03d4e59p-3", "0x1.e220bf72eedb5p-7"),
            "euler_el": ("0x1.9237a0cdc6664p-2", "0x1.09df68fe092f8p-5"),
            "fd_bs": ("0x1.1ed67295b7dfdp-1", "0x1.e8f2a81fda2f5p-6"),
            "fd_hz": ("0x1.1f2b74f9bf181p-2", "0x1.3f4358441261ep-5"),
            "mal_bs": ("0x1.ea5d83f58c08ep-2", "0x1.cb182b7660292p-5"),
            "mal_el": ("0x1.786e48a6a7ac8p-2", "0x1.43ea90461737bp-4"),
            "simple_bs": ("0x1.0942edc05ddf8p-1", "0x1.b72bcb74f9d27p-5"),
            "simple_el": ("0x1.7401f44f0fcecp-2", "0x1.42769b3637866p-4"),
        },
    }

    @pytest.mark.parametrize("seed", [3, 11])
    def test_estimates_unchanged(self, seed):
        got = {name: (m.hex(), s.hex()) for name, (m, s) in self._runs(seed).items()}
        assert got == self.EXPECTED[seed]


def _bs_for_one_state(single_state_jacobians=False):
    """Black-Scholes written for one (1,) state: the fields read y[0], and so
    optionally do the Jacobians."""
    drift, sigma = 0.05 - 0.5 * 0.3 * 0.3, 0.3
    jacobians = BS.jacobians
    if single_state_jacobians:
        jacobians = (lambda y: np.array([[drift]]), lambda y: np.array([[sigma]]))
    fields = (lambda y: drift * y[0], lambda y: sigma * y[0])
    return sde.VectorFieldSystem(dim=1, d=1, fields=fields, jacobians=jacobians, name="one_state")


class TestBatchedFieldsRequired:
    """The Euler oracles evaluate each field once on all paths, so a field that
    reads one state would broadcast row 0 to every path; they refuse it."""

    CFG = McConfig(n_paths=64, n_steps=8, seed=3)
    ESTIMATORS = {
        "euler": lambda s, cfg: euler_expectation(s, IDENT, [1.0], 0.5, cfg),
        "fd": lambda s, cfg: fd_greek(s, IDENT, [1.0], [1.0], 0.5, cfg),
        "malliavin": lambda s, cfg: malliavin_delta_m1(s, IDENT, [1.0], [1.0], 0.5, cfg),
        "simple": lambda s, cfg: simple_weight_delta_m1(s, IDENT, [1.0], [1.0], 0.5, cfg),
    }

    @pytest.mark.parametrize("single_state_jacobians", [False, True])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_single_state_fields_are_rejected(self, name, single_state_jacobians):
        system = _bs_for_one_state(single_state_jacobians)
        with pytest.raises(DomainError, match="row by row"):
            self.ESTIMATORS[name](system, self.CFG)

    def test_batched_jacobians_alone_are_not_enough(self):
        fields_ok = sde.VectorFieldSystem(
            dim=1, d=1, fields=BS.fields, jacobians=_bs_for_one_state(True).jacobians
        )
        with pytest.raises(DomainError, match="row by row"):
            euler_expectation(fields_ok, IDENT, [1.0], 0.5, self.CFG)

    def test_the_tree_evaluates_them_row_by_row(self):
        from cubgreeks.greeks import expectation_one_step

        one_state = expectation_one_step(_bs_for_one_state(), IDENT, [1.0], 0.5, 3)
        assert one_state == expectation_one_step(BS, IDENT, [1.0], 0.5, 3)


class TestOneEvaluationPerStep:
    """Each Euler step evaluates every V_i and dV_i once (plus the two Jacobian
    calls of the finite-difference Hessian in the Malliavin weight); the batch
    probe before the loop is counted apart."""

    @staticmethod
    def _counting_bs(counts, phase):
        def counted(kind, func):
            def call(y):
                counts[phase[0], kind] = counts.get((phase[0], kind), 0) + 1
                return func(y)

            return call

        return sde.VectorFieldSystem(
            dim=1,
            d=1,
            fields=tuple(counted("field", f) for f in BS.fields),
            jacobians=tuple(counted("jacobian", j) for j in BS.jacobians),
            name="counting",
        )

    @pytest.mark.parametrize(
        "estimator, loop_calls",
        [(malliavin_delta_m1, {"field": 20, "jacobian": 40}), (fd_greek, {"field": 40, "jacobian": 20})],
    )
    def test_call_counts(self, monkeypatch, estimator, loop_calls):
        counts, phase = {}, ["loop"]
        probe = mc._fields_take_batches

        def counted_probe(*args, **kwargs):
            phase[0] = "probe"
            try:
                return probe(*args, **kwargs)
            finally:
                phase[0] = "loop"

        monkeypatch.setattr(mc, "_fields_take_batches", counted_probe)
        cfg = McConfig(n_paths=100, n_steps=10, seed=3)
        call = Payoff("call", 1.0)
        got = estimator(self._counting_bs(counts, phase), call, [1.0], [1.0], 0.5, cfg)
        assert got == estimator(BS, call, [1.0], [1.0], 0.5, cfg)
        n_probes = 2 if estimator is fd_greek else 1
        assert counts == {
            ("loop", "field"): loop_calls["field"],
            ("loop", "jacobian"): loop_calls["jacobian"],
            ("probe", "field"): 4 * n_probes,
            ("probe", "jacobian"): 4 * n_probes,
        }


class TestFdGreek:
    def test_linear_system_zero_variance(self):
        # additive noise and linear drift: the difference quotient is deterministic
        def v0(y):
            return 0.25 * y

        def v1(y):
            return np.full_like(y, 0.7)

        system = sde.VectorFieldSystem(dim=1, d=1, fields=(v0, v1))
        cfg = McConfig(n_paths=200, n_steps=32, seed=3)
        mean, se = fd_greek(system, IDENT, [1.0], [1.0], 0.5, cfg, h=1e-3)
        assert se < 1e-12
        assert abs(mean - (1.0 + 0.25 * 0.5 / 32) ** 32) < 1e-9

    def test_black_scholes_call_delta(self):
        cfg = McConfig(n_paths=20000, n_steps=64, seed=42)
        payoff = Payoff("call", 1.0)
        mean, se = fd_greek(BS, payoff, [1.0], [1.0], 0.5, cfg, h=1e-3)
        _, ref = bs_closed_form(0.05, 0.3, 1.0, 0.5, payoff)
        assert abs(mean - ref) < 3.5 * se

    def test_cross_oracle_agreement(self):
        cfg = McConfig(n_paths=20000, n_steps=64, seed=42)
        payoff = Payoff("call", 1.0)
        fd, fd_se = fd_greek(BS, payoff, [1.0], [1.0], 0.5, cfg, h=1e-3)
        mal, mal_se = malliavin_delta_m1(BS, payoff, [1.0], [1.0], 0.5, cfg)
        assert abs(fd - mal) < 3 * math.hypot(fd_se, mal_se)

    def test_rejects_bad_step(self):
        with pytest.raises(DomainError):
            fd_greek(BS, IDENT, [1.0], [1.0], 0.5, McConfig(10, 4), h=0.0)


class TestSignatureExpectation:
    def test_small_run_matches_heat_element(self):
        ctx = context(2, 3)
        cfg = McConfig(n_paths=20000, n_steps=64, seed=7)
        element, stderr = signature_expectation_stats(ctx, 1.0, cfg)
        heat = heat_element(ctx, 1.0)
        assert element.coeff((0,)) == 1.0  # deterministic time coordinate
        assert abs(element.coeff((1, 1)) - 0.5) < 3 * stderr[(1, 1)]
        for w in ctx.basis:
            diff = abs(element.coeff(w) - heat.coeff(w))
            if stderr[w] == 0.0:
                assert diff < 1e-12
            else:
                assert diff < 4 * stderr[w]

    def test_odd_words_centered(self):
        ctx = context(2, 3)
        cfg = McConfig(n_paths=20000, n_steps=64, seed=7)
        element, stderr = signature_expectation_stats(ctx, 1.0, cfg)
        for w in ctx.basis:
            n_space = sum(1 for letter in w if letter != 0)
            if n_space % 2 == 1:
                assert abs(element.coeff(w)) < 4 * stderr[w]

    def test_degree5_words_match_heat_element(self):
        # exercises the degree-4 and degree-5 words behind the d=1 solver formula
        ctx = context(1, 5)
        cfg = McConfig(n_paths=20000, n_steps=128, seed=19)
        element, stderr = signature_expectation_stats(ctx, 0.5, cfg)
        heat = heat_element(ctx, 0.5)
        for w in ctx.basis:
            diff = abs(element.coeff(w) - heat.coeff(w))
            if stderr[w] == 0.0:
                assert diff < 1e-12
            else:
                assert diff < 4 * stderr[w], w

    def test_negative_seed_accepted(self):
        z = rng.normal_increments(-3, 0, 4, 2, 1)
        assert z.shape == (4, 2, 1) and np.isfinite(z).all()

    def test_chunking_invariant(self):
        ctx = context(1, 3)
        cfg = McConfig(n_paths=300, n_steps=16, seed=21)
        e1, s1 = signature_expectation_stats(ctx, 0.5, cfg, chunk=37)
        e2, s2 = signature_expectation_stats(ctx, 0.5, cfg, chunk=300)
        assert all(abs(e1.coeff(w) - e2.coeff(w)) < 1e-12 for w in ctx.basis)


class TestCovarianceDiagnostics:
    CFG = McConfig(n_paths=5000, n_steps=128, seed=3)

    def test_determinant_identity_per_path(self):
        report = covariance_diagnostics(0.25, self.CFG)
        assert report.max_det_rel_error < 1e-10

    def test_time_row_and_column_vanish(self):
        report = covariance_diagnostics(0.25, self.CFG)
        assert report.e0_max_abs == 0.0

    def test_restricted_determinant_positive(self):
        report = covariance_diagnostics(0.25, self.CFG)
        assert report.positivity_fraction == 1.0

    def test_diagonal_entries_exact(self):
        samples = covariance_samples(0.3, McConfig(n_paths=50, n_steps=64, seed=1))
        for s in samples:
            assert s.matrix[0, 0] == 0.3 and s.matrix[1, 1] == 0.3
            assert np.all(s.matrix[3, :] == 0.0) and np.all(s.matrix[:, 3] == 0.0)

    def test_scaling_against_conjugated_unit_ensemble(self):
        report = covariance_diagnostics(0.25, self.CFG)
        assert report.scaling_max_z < 4.0


class TestClosedForms:
    def test_identity(self):
        price, delta = bs_closed_form(0.05, 0.3, 1.2, 0.7, IDENT)
        assert abs(price - 1.2 * math.exp(0.035)) < 1e-15
        assert abs(delta - math.exp(0.035)) < 1e-15

    def test_call_against_exact_lognormal_mc(self):
        payoff = Payoff("call", 1.0)
        price, delta = bs_closed_form(0.05, 0.3, 1.0, 0.5, payoff)
        samples = gbm_exact_samples(0.05, 0.3, 1.0, 0.5, 1_000_000, seed=17)
        vals = np.maximum(samples - 1.0, 0.0)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(price - vals.mean()) < 4 * se

    def test_smoothed_call_converges_to_call(self):
        payoff = Payoff("call", 1.0)
        price_c, delta_c = bs_closed_form(0.05, 0.3, 1.0, 0.5, payoff)
        prev_price, prev_delta = math.inf, math.inf
        for eps in (0.2, 0.1, 0.05, 0.02):
            smoothed = Payoff("smoothed_call", 1.0, eps)
            price_s, delta_s = bs_closed_form(0.05, 0.3, 1.0, 0.5, smoothed)
            assert abs(price_s - price_c) < prev_price
            assert abs(delta_s - delta_c) < prev_delta
            prev_price = abs(price_s - price_c)
            prev_delta = abs(delta_s - delta_c)

    def test_quadrature_refinement_stable(self):
        smoothed = Payoff("smoothed_call", 1.0, 0.1)
        p1, d1 = bs_closed_form(0.05, 0.3, 1.0, 0.5, smoothed)
        z, w = mc._gauss_legendre(2000, -12.0, 12.0)
        states = (1.0 * np.exp((0.05 - 0.045) * 0.5 + 0.3 * math.sqrt(0.5) * z))[:, None]
        density = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        p2 = float(np.sum(w * density * smoothed(states)))
        assert abs(p1 - p2) < 1e-10

    def test_payoff_parsing(self):
        assert parse_payoff("identity").kind == "identity"
        assert parse_payoff("call:1.5").strike == 1.5
        smoothed = parse_payoff("smoothed_call:1.0:0.05")
        assert smoothed.smoothing == 0.05
        with pytest.raises(UnsupportedPayoffError):
            parse_payoff("digital:1.0")

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            bs_closed_form(0.05, 0.3, -1.0, 0.5, IDENT)
