import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest

import cubgreeks
from cubgreeks import mc, rng, sde
from cubgreeks.algebra import context, heat_element
from cubgreeks.errors import DomainError, EllipticityError, UnsupportedPayoffError
from cubgreeks.mc import (
    McConfig,
    Payoff,
    bs_closed_form,
    covariance_diagnostics,
    euler_expectation,
    fd_greek,
    malliavin_delta_m1,
    parse_payoff,
    signature_expectation_stats,
)

from oracles import (
    counter_uniforms_unblocked,
    covariance_diagnostics_einsum,
    covariance_matrices_copied,
    gbm_exact_samples,
    heisenberg_one_state,
    normal_increments_unblocked,
    signature_expectation_unblocked,
    simple_weight_delta_m1,
)

BS = sde.black_scholes(0.05, 0.3)
IDENT = Payoff("identity")


def _uniforms(seed, counters):
    """Uniforms at 64-bit counter positions through the in-place mixer and
    unit map that ``rng.normal_increments`` applies to each block."""
    z = (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * np.uint64(rng._GOLDEN)
    z += np.uint64(int(seed) % 2**64)
    return rng._unit(rng._splitmix64(z, np.empty_like(z)), np.empty(z.shape))


class TestCounterRng:
    def test_deterministic_and_in_unit_interval(self):
        u1 = _uniforms(7, np.arange(1000))
        u2 = _uniforms(7, np.arange(1000))
        assert np.array_equal(u1, u2)
        assert np.all((u1 > 0.0) & (u1 < 1.0))

    def test_seed_changes_stream(self):
        u1 = _uniforms(7, np.arange(1000))
        u2 = _uniforms(8, np.arange(1000))
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

    def test_peak_memory_is_the_output_and_block_buffers(self):
        tracemalloc.start()
        try:
            z = rng.normal_increments(3, 0, 4000, 128, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= z.nbytes + 2 * 2**20

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=0, n_steps=4)

    @pytest.mark.parametrize("n_paths, n_steps", [(10.5, 4), (10, 4.0), ("10", 4)])
    def test_counts_must_be_integers(self, n_paths, n_steps):
        with pytest.raises(DomainError, match="integers >= 1"):
            McConfig(n_paths, n_steps)

    @pytest.mark.parametrize("seed", [0.5, "3", None, math.nan, 3.0])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer"):
            McConfig(10, 4, seed)

    @pytest.mark.parametrize("seed", [-3, np.int64(-7), -(2**70)])
    def test_negative_seeds_are_refused(self, seed):
        # the rule run_property_checks applies: any integer >= 0
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            McConfig(10, 4, seed)

    @pytest.mark.parametrize("seed", [2**64 + 3, np.uint64(2**64 - 5)])
    def test_integer_seeds_reduce_mod_2_64(self, seed):
        reduced = McConfig(50, 4, int(seed) % 2**64)
        assert euler_expectation(BS, IDENT, [1.0], 0.3, McConfig(50, 4, seed)) == euler_expectation(
            BS, IDENT, [1.0], 0.3, reduced
        )


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

    @pytest.mark.parametrize("system, y, v", [(BS, [0.0], [1.0]), (sde.heisenberg_toy(), [0.0, 0.0], [0.0, 1.0])])
    def test_simple_weight_singular_diffusion_is_typed(self, system, y, v):
        with pytest.raises(EllipticityError, match="singular diffusion matrix"):
            simple_weight_delta_m1(system, IDENT, y, v, 0.1, McConfig(10, 4))

    @pytest.mark.parametrize("sigma_scale", [1e-150, 1e-8, 1.0, 1e8, 1e150])
    @pytest.mark.parametrize("jv_scale", [1e-150, 1.0, 1e150])
    def test_one_driver_division_is_bitwise_solve(self, sigma_scale, jv_scale):
        # N = d = 1 divides where N >= 2 calls np.linalg.solve
        gen = np.random.default_rng(7)
        sigma = gen.standard_normal((20000, 1, 1)) * sigma_scale
        jv = gen.standard_normal((20000, 1)) * jv_scale
        got = mc._weight_integrand(sigma, jv, 0)
        assert got.tobytes() == np.linalg.solve(sigma, jv[:, :, None])[:, :, 0].tobytes()

    def test_one_driver_zero_diffusion_is_refused_without_a_warning(self):
        # V1(y) = y vanishes at y0 = 0, so the first 1x1 system is singular
        def v0(y):
            return 0.0 * y

        def v1(y):
            return 1.0 * y

        line = sde.VectorFieldSystem(dim=1, d=1, fields=(v0, v1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EllipticityError, match="singular diffusion matrix at step 0"):
                malliavin_delta_m1(line, IDENT, [0.0], [1.0], 0.1, McConfig(10, 4))

    def test_one_driver_overflowing_weight_is_refused_without_a_warning(self):
        def v0(y):
            return 0.0 * y

        def v1(y):
            return 1e-300 * y

        line = sde.VectorFieldSystem(dim=1, d=1, fields=(v0, v1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EllipticityError, match="nearly singular at step 0"):
                malliavin_delta_m1(line, IDENT, [1e-10], [1.0], 0.1, McConfig(10, 4))


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
    ``euler_hz`` and ``simple_bs`` had run on mirrored path pairs; they were
    re-recorded on the plain configuration before that mode was removed.
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
        hz = sde.heisenberg_toy()
        el = _elliptic_poly()
        return {
            "euler_bs": euler_expectation(BS, self.CALL, [1.0], 0.5, cfg),
            "euler_hz": euler_expectation(hz, self._square_of_second, [0.3, 0.1], 0.5, cfg),
            "euler_el": euler_expectation(el, self._basket, [0.2, 0.3], 0.5, cfg),
            "fd_bs": fd_greek(BS, self.CALL, [1.0], [1.0], 0.5, cfg),
            "fd_hz": fd_greek(hz, self._square_of_second, [0.3, 0.1], [1.0, 0.0], 0.5, cfg),
            "mal_bs": malliavin_delta_m1(BS, self.CALL, [1.0], [1.0], 0.5, cfg),
            "mal_el": malliavin_delta_m1(el, self._basket, [0.2, 0.3], [1.0, -0.5], 0.5, cfg),
            "simple_bs": simple_weight_delta_m1(BS, self.CALL, [1.0], [1.0], 0.5, cfg),
            "simple_el": simple_weight_delta_m1(el, self._basket, [0.2, 0.3], [1.0, -0.5], 0.5, cfg),
        }

    EXPECTED = {
        3: {
            "euler_bs": ("0x1.71b1ff28d0db8p-4", "0x1.c259d445ab9c3p-8"),
            "euler_hz": ("0x1.34857a2d7968cp-3", "0x1.ae1b6ccde259ap-7"),
            "euler_el": ("0x1.ab198411d395cp-2", "0x1.0cc493d84c857p-5"),
            "fd_bs": ("0x1.3058ee81e84a3p-1", "0x1.ea90e65fd7d1ep-6"),
            "fd_hz": ("0x1.1bfd93927ddfcp-2", "0x1.44ff77bbda4dep-5"),
            "mal_bs": ("0x1.ff1f3ea78ce92p-2", "0x1.07e135e1fe404p-4"),
            "mal_el": ("0x1.bbd8e28585460p-3", "0x1.e555c86644893p-5"),
            "simple_bs": ("0x1.ff1f3ea78ce92p-2", "0x1.07e135e1fe405p-4"),
            "simple_el": ("0x1.b9cc00444dec4p-3", "0x1.e644d0f170f43p-5"),
        },
        11: {
            "euler_bs": ("0x1.5841d37ef45fap-4", "0x1.be25420186caap-8"),
            "euler_hz": ("0x1.3c4e68947274dp-3", "0x1.0f12a4ace4583p-6"),
            "euler_el": ("0x1.9237a0cdc6664p-2", "0x1.09df68fe092f8p-5"),
            "fd_bs": ("0x1.1ed67295b7dfdp-1", "0x1.e8f2a81fda2f5p-6"),
            "fd_hz": ("0x1.1f2b74f9bf181p-2", "0x1.3f4358441261ep-5"),
            "mal_bs": ("0x1.ea5d83f58c08ep-2", "0x1.cb182b7660292p-5"),
            "mal_el": ("0x1.786e48a6a7ac8p-2", "0x1.43ea90461737bp-4"),
            "simple_bs": ("0x1.ea5d83f58c08ep-2", "0x1.cb182b7660292p-5"),
            "simple_el": ("0x1.7401f44f0fcecp-2", "0x1.42769b3637866p-4"),
        },
    }

    @pytest.mark.parametrize("seed", [3, 11])
    def test_estimates_unchanged(self, seed):
        got = {name: (m.hex(), s.hex()) for name, (m, s) in self._runs(seed).items()}
        assert got == self.EXPECTED[seed]


def _bs_for_one_state(single_state_jacobians=False, read=lambda y: y[0]):
    """Black-Scholes written for one (1,) state: the fields read it as
    ``read(y)``, y[0] by default, and so optionally do the Jacobians."""
    drift, sigma = 0.05 - 0.5 * 0.3 * 0.3, 0.3
    jacobians = BS.jacobians
    if single_state_jacobians:
        jacobians = (lambda y: np.array([[drift]]), lambda y: np.array([[sigma]]))
    fields = (lambda y: drift * read(y), lambda y: sigma * read(y))
    return sde.VectorFieldSystem(dim=1, d=1, fields=fields, jacobians=jacobians, name="one_state")


# y[:1] keeps the shape of a one-row batch, so only a probe on more rows sees it
ONE_STATE_READS = (lambda y: y[0], lambda y: y[:1])


class TestBatchedFieldsRequired:
    """The Euler oracles evaluate each field once on all paths, so a field that
    reads one state would broadcast row 0 to every path; they refuse it."""

    CFG = McConfig(n_paths=64, n_steps=8, seed=3)
    ESTIMATORS = {
        "euler": lambda s, cfg, y=(1.0,), v=(1.0,): euler_expectation(s, IDENT, y, 0.5, cfg),
        "fd": lambda s, cfg, y=(1.0,), v=(1.0,): fd_greek(s, IDENT, y, v, 0.5, cfg),
        "malliavin": lambda s, cfg, y=(1.0,), v=(1.0,): malliavin_delta_m1(s, IDENT, y, v, 0.5, cfg),
        "simple": lambda s, cfg, y=(1.0,), v=(1.0,): simple_weight_delta_m1(s, IDENT, y, v, 0.5, cfg),
    }

    @pytest.mark.parametrize("single_state_jacobians", [False, True])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_single_state_fields_are_rejected(self, name, single_state_jacobians):
        for read in ONE_STATE_READS:
            system = _bs_for_one_state(single_state_jacobians, read)
            with pytest.raises(DomainError, match="row by row"):
                self.ESTIMATORS[name](system, self.CFG)

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_single_state_planar_fields_are_rejected(self, name):
        # N = d = 2: indexing y[0] and writing out[1] reads and writes rows of
        # a batch without an error, but N + 1 equal rows come back unequal
        with pytest.raises(DomainError, match="row by row"):
            self.ESTIMATORS[name](heisenberg_one_state(), self.CFG, y=(0.3, 0.1), v=(1.0, 0.0))

    def test_batched_jacobians_alone_are_not_enough(self):
        fields_ok = sde.VectorFieldSystem(
            dim=1, d=1, fields=BS.fields, jacobians=_bs_for_one_state(True).jacobians
        )
        with pytest.raises(DomainError, match="row by row"):
            euler_expectation(fields_ok, IDENT, [1.0], 0.5, self.CFG)

    def test_field_singular_at_the_start_state_is_batched(self):
        # sin(y)/y divides 0 by 0 inside np.where yet returns one value per row
        def sinc_drift(v0):
            return sde.VectorFieldSystem(dim=1, d=1, fields=(v0, lambda y: 0.3 * y), name="sinc")

        sinc = sinc_drift(lambda y: np.where(y == 0.0, 1.0, np.sin(y) / y))
        quiet = sinc_drift(lambda y: np.where(y == 0.0, 1.0, np.sin(y) / np.where(y == 0.0, 1.0, y)))
        assert sde.batched(sinc, [0.0]) is sinc
        with np.errstate(divide="ignore", invalid="ignore"):  # the field's own 0/0
            estimate = euler_expectation(sinc, IDENT, [0.0], 0.5, self.CFG)
        assert estimate == euler_expectation(quiet, IDENT, [0.0], 0.5, self.CFG)

    def test_the_tree_evaluates_them_row_by_row(self):
        from cubgreeks.greeks import GreekRequest, expectation_one_step, gamma_partition, greek_iterated

        def iterated_delta(system):
            # the root level is one state, which a y[:1] field maps correctly
            request = GreekRequest(
                system=system, payoff=Payoff("call", 1.0), y=(1.0,), v=(1.0,), t=1.0,
                m=2, m_prime=3, partition=tuple(gamma_partition(1.0, 0.1, 4, 2)),
            )
            return greek_iterated(request).estimate.hex()

        expected = expectation_one_step(BS, IDENT, [1.0], 0.5, 3).hex(), iterated_delta(BS)
        for read in ONE_STATE_READS:
            system = _bs_for_one_state(read=read)
            one_state = expectation_one_step(system, IDENT, [1.0], 0.5, 3).hex(), iterated_delta(system)
            assert one_state == expected


class TestOneEvaluationPerStep:
    """Each Euler step evaluates every V_i and dV_i once (plus the two Jacobian
    calls of the finite-difference Hessian in the Malliavin weight); the one
    batch decision before the loop is counted apart."""

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
        counts, phase, probes = {}, ["loop"], []
        probe = mc._batched_payoff

        def counted_probe(*args, **kwargs):
            phase[0] = "probe"
            probes.append(1)
            try:
                return probe(*args, **kwargs)
            finally:
                phase[0] = "loop"

        monkeypatch.setattr(mc, "_batched_payoff", counted_probe)
        cfg = McConfig(n_paths=100, n_steps=10, seed=3)
        call = Payoff("call", 1.0)
        got = estimator(self._counting_bs(counts, phase), call, [1.0], [1.0], 0.5, cfg)
        # one decision per estimator call, fd_greek's two Euler runs included,
        # probing each of the two fields and two Jacobians once
        assert len(probes) == 1
        assert got == estimator(BS, call, [1.0], [1.0], 0.5, cfg)
        assert counts == {
            ("loop", "field"): loop_calls["field"],
            ("loop", "jacobian"): loop_calls["jacobian"],
            ("probe", "field"): 2,
            ("probe", "jacobian"): 2,
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

    @pytest.mark.parametrize("h", ["a", math.nan, math.inf, -1e-3, None])
    def test_step_must_be_positive_and_finite(self, h):
        with pytest.raises(DomainError, match="step must be positive and finite"):
            fd_greek(BS, IDENT, [1.0], [1.0], 0.5, McConfig(10, 4), h=h)


class TestOracleArguments:
    """A horizon that is not positive and finite, or a state or direction
    without one entry per state axis, is a DomainError, not a NaN, a
    broadcast or a math error."""

    CFG = McConfig(n_paths=16, n_steps=4, seed=1)
    EULER = {
        "euler": lambda t, y, v, cfg: euler_expectation(BS, IDENT, y, t, cfg),
        "fd": lambda t, y, v, cfg: fd_greek(BS, IDENT, y, v, t, cfg),
        "malliavin": lambda t, y, v, cfg: malliavin_delta_m1(BS, IDENT, y, v, t, cfg),
        "simple": lambda t, y, v, cfg: simple_weight_delta_m1(BS, IDENT, y, v, t, cfg),
    }

    @pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf, None])
    def test_horizon_must_be_positive_and_finite(self, t):
        oracles = [lambda run=run: run(t, [1.0], [1.0], self.CFG) for run in self.EULER.values()]
        oracles.append(lambda: signature_expectation_stats(context(2, 2), t, self.CFG))
        oracles.append(lambda: covariance_diagnostics(t, self.CFG))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for oracle in oracles:
                with pytest.raises(DomainError, match="horizon must be positive and finite"):
                    oracle()

    @pytest.mark.parametrize("name", sorted(EULER))
    def test_state_needs_one_entry_per_axis(self, name):
        for y in ([1.0, 2.0], [[1.0]], 1.0):
            with pytest.raises(DomainError, match="y has shape"):
                self.EULER[name](0.5, y, [1.0], self.CFG)

    @pytest.mark.parametrize("name", ["fd", "malliavin", "simple"])
    def test_direction_needs_one_entry_per_axis(self, name):
        for v in ([1.0, 2.0], [[1.0]], 1.0, []):
            with pytest.raises(DomainError, match="v has shape"):
                self.EULER[name](0.5, [1.0], v, self.CFG)
        with pytest.raises(DomainError, match="v has shape"):
            fd_greek(sde.heisenberg_toy(), IDENT, [0.3, 0.1], [1.0], 0.5, self.CFG)


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

    @staticmethod
    def _stats_in_blocks(monkeypatch, block, cfg):
        monkeypatch.setattr(mc, "_SIG_BLOCK", block)
        return signature_expectation_stats(context(1, 3), 0.5, cfg)

    def test_chunking_invariant(self, monkeypatch):
        # the fold block size moves only the summation order of the totals
        cfg = McConfig(n_paths=300, n_steps=16, seed=21)
        e1, s1 = self._stats_in_blocks(monkeypatch, 37, cfg)
        e2, s2 = self._stats_in_blocks(monkeypatch, 300, cfg)
        assert np.max(np.abs(e1.vec - e2.vec)) < 1e-12

    def test_peak_memory_does_not_grow_with_paths(self):
        ctx, peaks = context(2, 3), []
        for n_paths in (2 * mc._SIG_BLOCK, 6 * mc._SIG_BLOCK):
            tracemalloc.start()
            try:
                signature_expectation_stats(ctx, 1.0, McConfig(n_paths, 16, seed=2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**16


class TestBitwiseAgainstUnblockedOracles:
    """Blocked draws and the blocked Chen fold give the bytes of frozen
    copies that build every array in one piece."""

    @pytest.mark.parametrize(
        "seed, path_start, n_paths, n_steps, d",
        [
            (5, 0, 2, 40000, 1),  # one path longer than a block
            (5, 0, 129, 256, 1),  # 129 paths do not fill whole blocks of 128
            (5, 7, 10, 16, 2),
            (5, 2**40, 10, 16, 3),
            (-3, 0, 6, 7, 2),
            (2**64 - 5, 0, 6, 7, 2),
            (5, 0, 0, 16, 2),
            (5, 0, 6, 16, 0),
        ],
    )
    def test_normal_increments(self, seed, path_start, n_paths, n_steps, d):
        z = rng.normal_increments(seed, path_start, n_paths, n_steps, d)
        ref = normal_increments_unblocked(seed, path_start, n_paths, n_steps, d)
        assert z.shape == ref.shape and z.dtype == ref.dtype
        assert z.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", [0, -3, 2**64 - 5])
    def test_counter_uniforms(self, seed):
        counters = np.array([[0, 1, 2**40], [2**63, 2**64 - 2, 12345]], dtype=np.uint64)
        u = _uniforms(seed, counters)
        assert u.tobytes() == counter_uniforms_unblocked(seed, counters).tobytes()

    def test_signature_expectation(self):
        # two whole fold blocks and a part block; then one part block at the
        # diagnostics depth, where the oracle's fold through ctx.product runs
        # 127 steps beside the group-like one
        ctx = context(2, 3)
        for cfg in (McConfig(2 * mc._SIG_BLOCK + 5, 8, seed=4), McConfig(300, 128, seed=7)):
            element, stderr = signature_expectation_stats(ctx, 1.0, cfg)
            ref_element, ref_stderr = signature_expectation_unblocked(ctx, 1.0, cfg, chunk=mc._SIG_BLOCK)
            assert element.vec.tobytes() == ref_element.vec.tobytes()
            assert np.array(list(stderr.values())).tobytes() == np.array(list(ref_stderr.values())).tobytes()

    @pytest.mark.parametrize(
        "t, cfg, path_start",
        [
            (0.25, McConfig(20000, 128, seed=2), 0),  # the diagnostics ensemble
            (1.0, McConfig(500, 128, seed=2), 500),  # its horizon-1 partner
            (0.3, McConfig(50, 1, seed=1), 0),
            (0.3, McConfig(50, 129, seed=1), 0),
            (0.7, McConfig(10, 16, seed=2**64 - 3), 2**40),  # the draws of seed -3
            (0.25, McConfig(2 * mc._SIG_BLOCK + 1, 8, seed=6), 0),  # a one-path last block
        ],
    )
    def test_covariance_matrices(self, t, cfg, path_start):
        # in blocks of a given draw, or of blocks drawn one by one
        normals = rng.normal_increments(cfg.seed, path_start, cfg.n_paths, cfg.n_steps, 2)
        ref = [a.tobytes() for a in covariance_matrices_copied(t, normals)]
        for blocks in (mc._blocks(cfg, 2, normals), mc._blocks(cfg, 2, path_start=path_start)):
            assert [a.tobytes() for a in mc._covariance_matrices(t, blocks)] == ref


class TestOraclesOnAGivenDraw:
    """Each oracle that takes a draw gives the same bits on the draw it would
    make itself, and only reads it."""

    CFG = McConfig(n_paths=2 * mc._SIG_BLOCK + 5, n_steps=16, seed=9)

    def _draw(self, d, path_start=0):
        cfg = self.CFG
        return rng.normal_increments(cfg.seed, path_start, cfg.n_paths, cfg.n_steps, d)

    def test_signature_expectation(self):
        ctx = context(2, 3)
        normals = self._draw(2)
        kept = normals.copy()
        element, stderr = signature_expectation_stats(ctx, 1.0, self.CFG, normals)
        ref_element, ref_stderr = signature_expectation_stats(ctx, 1.0, self.CFG)
        assert np.array_equal(normals, kept)  # read only
        assert element.vec.tobytes() == ref_element.vec.tobytes()
        assert stderr == ref_stderr

    def test_covariance_report(self):
        assert covariance_diagnostics(0.25, self.CFG, self._draw(2)) == covariance_diagnostics(0.25, self.CFG)

    def test_covariance_reads_the_draw_only(self):
        normals = self._draw(2)
        kept = normals.copy()
        covariance_diagnostics(0.25, self.CFG, normals)
        assert normals.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("name", ["malliavin_delta_m1", "fd_greek"])
    def test_euler_deltas(self, name):
        call = Payoff("call", 1.0)
        normals = self._draw(1)
        kept = normals.copy()
        got = getattr(mc, name)(BS, call, [1.0], [1.0], 0.5, self.CFG, normals=normals)
        assert np.array_equal(normals, kept)
        assert got == getattr(mc, name)(BS, call, [1.0], [1.0], 0.5, self.CFG)

    @pytest.mark.parametrize(
        "d, shape", [(1, (64, 8, 1)), (1, (32, 16, 1)), (1, (32, 8, 2)), (1, (32, 8)), (2, (32, 8, 1)), (2, (31, 8, 2))]
    )
    def test_draw_of_another_shape_is_refused(self, d, shape):
        cfg, normals = McConfig(32, 8, seed=1), np.zeros(shape)
        oracles = {
            1: [
                lambda: fd_greek(BS, IDENT, [1.0], [1.0], 0.5, cfg, normals=normals),
                lambda: malliavin_delta_m1(BS, IDENT, [1.0], [1.0], 0.5, cfg, normals),
            ],
            2: [
                lambda: signature_expectation_stats(context(2, 2), 1.0, cfg, normals),
                lambda: covariance_diagnostics(0.25, cfg, normals),
            ],
        }
        for oracle in oracles[d]:
            with pytest.raises(DomainError, match="given draw has shape"):
                oracle()


class TestZScore:
    ABOVE = np.nextafter(1e-12, 1.0)

    def test_zero_stderr_boundary_for_scalars(self):
        # 0 up to a difference of 1e-12 inclusive, signed infinity above it
        for diff, z in [(1e-12, 0.0), (-1e-12, 0.0), (0.0, 0.0), (self.ABOVE, math.inf), (-self.ABOVE, -math.inf)]:
            got = mc.z_score(diff, 0.0)
            assert isinstance(got, float) and got == z
        assert abs(mc.z_score(math.nan, 0.0)) == math.inf
        assert mc.z_score(-3.0, 2.0) == -1.5

    def test_zero_stderr_boundary_for_arrays(self):
        diff = np.array([1e-12, -1e-12, self.ABOVE, -self.ABOVE, 3.0, -3.0])
        stderr = np.array([0.0, 0.0, 0.0, 0.0, 2.0, 0.0])
        assert mc.z_score(diff, stderr).tolist() == [0.0, 0.0, math.inf, -math.inf, 1.5, -math.inf]
        assert mc.z_score(diff[:, None], 0.0).shape == (6, 1)


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
        matrices = mc._covariance_matrices(0.3, [rng.normal_increments(1, 0, 50, 64, 2)])[0]
        for c in matrices:
            assert c[0, 0] == 0.3 and c[1, 1] == 0.3
            assert np.all(c[3, :] == 0.0) and np.all(c[:, 3] == 0.0)

    def test_peak_memory_stays_near_one_draw(self):
        cfg = McConfig(n_paths=4000, n_steps=128, seed=3)
        tracemalloc.start()
        try:
            covariance_diagnostics(0.25, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * cfg.n_paths * cfg.n_steps * 2 * 8

    def test_scaling_against_conjugated_unit_ensemble(self):
        report = covariance_diagnostics(0.25, self.CFG)
        assert report.scaling_max_z < 4.0

    @pytest.mark.parametrize(
        "t, cfg",
        [
            (0.25, McConfig(n_paths=20000, n_steps=128, seed=0)),  # the diagnostics command's default ensemble
            (0.25, CFG),
            (1.7, McConfig(n_paths=300, n_steps=16, seed=7)),
            (1e-3, McConfig(n_paths=1000, n_steps=32, seed=11)),
            (0.3, McConfig(n_paths=2, n_steps=1, seed=5)),
        ],
    )
    def test_report_bitwise_against_einsum_conjugation(self, t, cfg):
        normals = rng.normal_increments(cfg.seed, 0, cfg.n_paths, cfg.n_steps, 2)
        report = covariance_diagnostics(t, cfg, normals)
        ref = covariance_diagnostics_einsum(t, cfg, normals)
        assert np.array(astuple(report)).tobytes() == np.array(astuple(ref)).tobytes()

    @pytest.mark.parametrize("normals", [None, np.zeros((1, 4, 2))])
    def test_one_path_is_refused(self, normals):
        # one path has no sample standard deviation for the scaling check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="n_paths >= 2"):
                covariance_diagnostics(0.25, McConfig(1, 4), normals)


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

    @pytest.mark.parametrize(
        "text",
        ["call:abc", "call:nan", "call:inf", "smoothed_call:1:nan", "smoothed_call:x:0.1", "bogus", "identity:1"],
    )
    def test_malformed_payoff_is_refused(self, text):
        with pytest.raises(UnsupportedPayoffError):
            parse_payoff(text)

    @pytest.mark.parametrize(
        "payoff, match",
        [
            (lambda y: np.concatenate([y, y], axis=-1), "shape"),
            (lambda y: [float(y[0]), 1.0], "shape"),
            (lambda y: np.where(y[..., 0] > 1.0, np.nan, 1.0), "not finite"),
        ],
        ids=["two-batched", "two-per-state", "nan-on-some-paths"],
    )
    def test_payoff_must_give_one_finite_float_per_state(self, payoff, match):
        with pytest.raises(UnsupportedPayoffError, match=match):
            euler_expectation(BS, payoff, [1.0], 0.5, McConfig(n_paths=200, n_steps=8, seed=1))

    def test_payoff_numbers_must_be_finite(self):
        with pytest.raises(UnsupportedPayoffError):
            Payoff("call", math.nan)
        with pytest.raises(UnsupportedPayoffError):
            Payoff("smoothed_call", 1.0, math.inf)

    def test_rejects_bad_domain(self):
        for r, sigma, y, t in [
            (0.05, 0.3, -1.0, 0.5),
            (0.05, 0.3, 1.0, 0.0),
            (0.05, math.nan, 1.0, 0.5),
            (0.05, 0.3, math.inf, 0.5),
            (0.05, 0.3, 1.0, math.nan),
            (math.nan, 0.3, 1.0, 0.5),
        ]:
            with pytest.raises(DomainError):
                bs_closed_form(r, sigma, y, t, Payoff("call", 1.0))


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # each scipy submodule loads only when a command calls into it: verify, an
    # m' = 5 iterated delta and the degree-5 export run on numpy and
    # scipy.sparse alone, diagnostics adds scipy.special, and nothing loads
    # scipy.optimize, since every expectation formula is built in closed form
    src = os.path.dirname(os.path.dirname(cubgreeks.__file__))
    code = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import cubgreeks, cubgreeks.cli

        def loaded():
            names = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.special")
            return [n for n in names if n in sys.modules]

        seen = {"import": loaded()}
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cubgreeks.cli.main(["verify", "--d", "2", "--m", "3"])]
            seen["verify"] = loaded()
            codes.append(cubgreeks.cli.main([
                "greek", "--model", sys.argv[1], "--y", "1.0", "--direction", "1", "--t", "1.0",
                "--mprime", "5", "--s0", "0.1", "--partition", "2,1",
            ]))
            seen["greek"] = loaded()
            codes.append(cubgreeks.cli.main(["cubature", "export", "--kind", "expectation5", "--m", "5"]))
            seen["export"] = loaded()
            codes.append(cubgreeks.cli.main(["diagnostics", "--paths", "200", "--steps", "4"]))
        seen["diagnostics"] = loaded()
        print(json.dumps([codes, seen]))
        """
    )
    model = tmp_path / "bs.json"
    model.write_text('{"model": "black_scholes", "params": {"r": 0.05, "sigma": 0.3}}')
    env = {k: v for k, v in os.environ.items() if not k.startswith("CUBGREEKS_")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code, str(model)], capture_output=True, text=True, check=True, env=env)
    codes, seen = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert seen == {"import": [], "verify": [], "greek": [], "export": [], "diagnostics": ["scipy.special"]}
