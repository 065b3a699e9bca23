"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from cubgreeks import algebra, checks, cubature, greeks, mc, paths, sde
from cubgreeks.algebra import context, dilate, generator, heat_element, lie_basis, max_abs_diff
from cubgreeks.cli import fit_loglog_slope

from oracles import concat, max_residual, simple_weight_delta_m1

BS = sde.black_scholes(0.05, 0.3)
R, SIGMA, Y0 = 0.05, 0.3, 1.0


def identity_payoff(x):
    return np.asarray(x, dtype=float)[..., 0]


def report(n, text):
    print(f"[ACCEPTANCE {n}] PASS: {text}")


def test_criterion_01_algebra_suite():
    start = time.perf_counter()
    core = {"mul-associativity", "exp-log-roundtrip", "dilate-homomorphism", "bracket-jacobi"}
    worst = 0.0
    for d, m in [(1, 3), (1, 5), (2, 2), (2, 3)]:
        results = {r.name: r for r in checks.run_property_checks(d, m, seed=0)}
        for name in core:
            assert results[name].max_error < 1e-12, (d, m, name, results[name])
            worst = max(worst, results[name].max_error)
        assert all(r.passed for r in results.values()), (d, m)
    assert lie_basis(context(2, 2)).dim == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"core algebra error {worst:.2e} < 1e-12 at 4 contexts, Lie dim 4, {elapsed:.1f}s")


def test_criterion_02_chen_and_scaling():
    ctx = context(2, 3)
    rng = np.random.default_rng(123)
    worst_chen = 0.0
    worst_scale = 0.0
    for _ in range(100):
        p1 = paths.from_increments(0.6, rng.uniform(-0.8, 0.8, size=(2, 3)))
        p2 = paths.from_increments(0.4, rng.uniform(-0.8, 0.8, size=(2, 3)))
        joined = paths.signature(ctx, concat(p1, p2))
        split = algebra.mul(paths.signature(ctx, p1), paths.signature(ctx, p2))
        worst_chen = max(worst_chen, max_abs_diff(joined, split))

        p = paths.from_increments(1.0, rng.uniform(-0.8, 0.8, size=(3, 3)))
        sig = paths.signature(ctx, p)
        for t in (0.01, 1.0, 4.0):
            lhs = paths.signature(ctx, paths.scale_path(p, t))
            rhs = dilate(math.sqrt(t), sig)
            worst_scale = max(worst_scale, max_abs_diff(lhs, rhs))
    assert worst_chen < 1e-13
    assert worst_scale <= 1e-13
    report(2, f"Chen residual {worst_chen:.2e}, scaling residual {worst_scale:.2e} over 100 paths")


def test_criterion_03_moment_identities():
    worst = 0.0
    for d in (1, 2):
        f = cubature.expectation_degree3(context(d, 3), 0.5)
        worst = max(worst, max_residual(f))
    f5 = cubature.expectation_degree5_d1(context(1, 5), 0.5)
    worst = max(worst, max_residual(f5))
    assert worst < 1e-10

    ctx = context(2, 2)
    t = 0.25
    two_point = cubature.greeks_two_point(ctx, generator(ctx, 1), t)
    mu = two_point.weights
    assert list(mu) == [0.5, -0.5]
    plus, minus = two_point.paths
    assert np.array_equal(plus.points[-1], [0.0, math.sqrt(t), 0.0])
    assert np.array_equal(minus.points[-1], [0.0, -math.sqrt(t), 0.0])
    res2 = max_residual(two_point)
    assert res2 < 1e-12
    assert mu.sum() == 0.0
    assert np.abs(mu).sum() <= 2.0
    report(3, f"degree-3/5 residual {worst:.2e} < 1e-10, two-point exact (+-1/2, +-sqrt(t)), residual {res2:.2e}")


def test_criterion_04_expectation_order():
    start = time.perf_counter()
    ts = [0.4, 0.2, 0.1, 0.05]
    errors = []
    for t in ts:
        est = greeks.expectation_one_step(BS, identity_payoff, [Y0], t, 3)
        ref = Y0 * math.exp(R * t)
        errors.append(abs(est - ref))
    slope = fit_loglog_slope(ts, errors)
    elapsed = time.perf_counter() - start
    assert slope >= 1.9
    assert elapsed < 1.0
    report(4, f"expectation slope {slope:.3f} >= 1.9 (theory 2.0), {elapsed * 1000:.0f}ms")


def test_criterion_05_greek_order_and_sinh():
    ts = [0.4, 0.2, 0.1, 0.05]
    errors = []
    for t in ts:
        v = math.sqrt(t) * SIGMA * Y0
        result = greeks.greek_one_step(BS, identity_payoff, [Y0], [v], t, 2)
        assert abs(result.estimate - Y0 * math.sinh(SIGMA * math.sqrt(t))) < 1e-10
        truth = v * math.exp(R * t)
        errors.append(abs(result.estimate - truth))
    slope = fit_loglog_slope(ts, errors)
    assert slope >= 1.4
    report(5, f"greek slope {slope:.3f} >= 1.4 (theory 1.5); sinh identity within 1e-10 at all t")


def test_criterion_06_iterated_scheme():
    start = time.perf_counter()
    payoff = mc.Payoff("smoothed_call", 1.15, 0.05)
    _, ref_delta = mc.bs_closed_form(R, SIGMA, Y0, 1.0, payoff)
    errors = {}
    for k in (2, 4, 8):
        partition = greeks.gamma_partition(1.0, 0.1, k, 3.0)
        request = greeks.GreekRequest(
            system=BS, payoff=payoff, y=(Y0,), v=(1.0,), t=1.0,
            m=2, m_prime=3, partition=tuple(partition),
        )
        errors[k] = abs(greeks.greek_iterated(request).estimate - ref_delta)
    elapsed = time.perf_counter() - start
    assert errors[4] < 5e-3
    assert errors[2] > errors[4] > errors[8]
    assert elapsed < 30.0
    report(6, f"delta errors k=2/4/8: {errors[2]:.2e} > {errors[4]:.2e} > {errors[8]:.2e}, k=4 < 5e-3, {elapsed:.1f}s")


def _heisenberg_payoff(x):
    x = np.asarray(x, dtype=float)
    return x[..., 1] * (1.0 + np.sin(x[..., 0]))


def test_criterion_07_hypoelliptic_direction():
    system = sde.heisenberg_toy()
    t = 0.1
    y = [0.0, 0.0]
    v = sde.bracket_vf(system, 1, 2, y)
    assert np.allclose(v, [0.0, 1.0])
    coeffs, residual = sde.decompose_direction(system, y, v, t, 3)
    assert residual < 1e-12
    assert set(coeffs) == {(1, 2)}

    result = greeks.greek_one_step(system, _heisenberg_payoff, y, v, t, 3)
    cfg = mc.McConfig(n_paths=40_000, n_steps=128, seed=31)
    fd, fd_se = mc.fd_greek(system, _heisenberg_payoff, y, v, t, cfg, h=1e-4)
    combined = 3.0 * fd_se
    assert abs(result.estimate - fd) < combined
    report(7, f"decomposition residual {residual:.1e}; cubature {result.estimate:.5f} vs fd {fd:.5f}+-{fd_se:.5f} within 3 stderr")


def test_criterion_08_malliavin_oracles():
    payoff = mc.Payoff("call", 1.0)
    cfg = mc.McConfig(n_paths=100_000, n_steps=256, seed=42)
    est, se = mc.malliavin_delta_m1(BS, payoff, [Y0], [1.0], 0.5, cfg)
    _, ref = mc.bs_closed_form(R, SIGMA, Y0, 0.5, payoff)
    z = abs(est - ref) / se
    assert z < 3.0

    # state-dependent diffusion plus drift so the frozen weight differs
    def v0(y):
        return 0.15 * y

    def v1(y):
        return 0.3 * (1.0 + 0.25 * np.tanh(y))

    system = sde.VectorFieldSystem(dim=1, d=1, fields=(v0, v1), name="tanh_vol")
    ident = mc.Payoff("identity")
    ts = [0.2, 0.1, 0.05]
    diffs = []
    for t in ts:
        cfg_t = mc.McConfig(n_paths=100_000, n_steps=64, seed=77)
        precise, _ = mc.malliavin_delta_m1(system, ident, [1.0], [1.0], t, cfg_t)
        simple, _ = simple_weight_delta_m1(system, ident, [1.0], [1.0], t, cfg_t)
        diffs.append(abs(precise - simple))
    slope = fit_loglog_slope(ts, diffs)
    assert slope >= 0.4  # difference vanishes at least like sqrt(t)
    report(8, f"BS delta z={z:.2f} < 3 at 1e5 paths; weight-difference slope {slope:.2f} >= 0.4")


def test_criterion_09_covariance_diagnostics():
    cfg = mc.McConfig(n_paths=10_000, n_steps=128, seed=3)
    rep = mc.covariance_diagnostics(0.25, cfg)
    assert rep.max_det_rel_error < 1e-10
    assert rep.e0_max_abs == 0.0
    assert rep.scaling_max_z < 4.0
    report(9, f"det identity rel {rep.max_det_rel_error:.1e}, e0 block zero, scaling max|z| {rep.scaling_max_z:.2f} < 4")


def test_criterion_10_signature_expectation():
    ctx = context(2, 3)
    cfg = mc.McConfig(n_paths=100_000, n_steps=256, seed=7)
    element, stderr = mc.signature_expectation_stats(ctx, 1.0, cfg)
    heat = heat_element(ctx, 1.0)
    max_z = 0.0
    for w in ctx.basis:
        diff = abs(element.coeff(w) - heat.coeff(w))
        if stderr[w] == 0.0:
            assert diff < 1e-12  # deterministic time-only words
        else:
            max_z = max(max_z, diff / stderr[w])
        n_space = sum(1 for letter in w if letter != 0)
        if n_space % 2 == 1:
            assert heat.coeff(w) == 0.0
            assert diff < 4.0 * stderr[w]
    assert max_z < 4.0
    report(10, f"signature MC vs heat element: max |z| {max_z:.2f} < 4 over {ctx.dim} words")
