"""Monte Carlo and closed-form oracles.

Everything here exists to verify the deterministic machinery from the
outside: Euler-Maruyama expectations, the adapted m=1 Malliavin weight,
common-random-number finite differences, the simulated truncated-signature
expectation, the d=2 covariance diagnostics, and lognormal closed forms.
The signature expectation runs on the algebra context's dense kernel, the
same product and segment exponential as ``paths.signature``, applied to a
word-major batch of paths; it checks the heat element against simulation,
not the product itself.
Estimators are reproducible: draws come from the counter-based stream in
:mod:`cubgreeks.rng`, so a seed fixes every number regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit
from scipy.stats import norm

from . import algebra
from .errors import BlowUpError, DomainError, EllipticityError, UnsupportedPayoffError
from .rng import normal_increments
from .sde import FD_STEP, _batched_call, _fields_take_batches, _matvec

DEFAULT_CHUNK = 25_000


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise DomainError("n_paths and n_steps must be >= 1")
        if self.antithetic and self.n_paths % 2 != 0:
            raise DomainError("antithetic sampling needs an even path count")


# ---------------------------------------------------------------------------
# payoffs


class Payoff:
    """Scalar payoff of the terminal state; batched over leading axes."""

    def __init__(self, kind, strike=None, smoothing=None):
        if kind not in ("identity", "call", "smoothed_call"):
            raise UnsupportedPayoffError(f"unknown payoff {kind!r}")
        if kind != "identity" and strike is None:
            raise UnsupportedPayoffError(f"payoff {kind!r} needs a strike")
        if kind == "smoothed_call" and (smoothing is None or smoothing <= 0):
            raise UnsupportedPayoffError("smoothed_call needs a positive smoothing width")
        self.kind = kind
        self.strike = strike
        self.smoothing = smoothing

    def __call__(self, state):
        s = np.asarray(state, dtype=float)[..., 0]
        if self.kind == "identity":
            return s
        if self.kind == "call":
            return np.maximum(s - self.strike, 0.0)
        return self.smoothing * np.logaddexp(0.0, (s - self.strike) / self.smoothing)

    def derivative(self, state):
        s = np.asarray(state, dtype=float)[..., 0]
        if self.kind == "identity":
            return np.ones_like(s)
        if self.kind == "call":
            return (s > self.strike).astype(float)
        return expit((s - self.strike) / self.smoothing)

    def __repr__(self):
        if self.kind == "identity":
            return "identity"
        if self.kind == "call":
            return f"call:{self.strike}"
        return f"smoothed_call:{self.strike}:{self.smoothing}"


def parse_payoff(text):
    """\"identity\", \"call:K\", or \"smoothed_call:K:eps\"."""
    parts = str(text).split(":")
    if parts[0] == "identity":
        return Payoff("identity")
    if parts[0] == "call" and len(parts) == 2:
        return Payoff("call", float(parts[1]))
    if parts[0] == "smoothed_call" and len(parts) == 3:
        return Payoff("smoothed_call", float(parts[1]), float(parts[2]))
    raise UnsupportedPayoffError(f"cannot parse payoff {text!r}")


def _apply_payoff(f, states):
    """Evaluate f on (n, N) states, falling back to a per-row loop."""
    vals = _batched_call(f, states, ()) if len(states) else None
    if vals is not None:
        return vals
    return np.array([float(f(row)) for row in states])


def _mean_stderr(values, antithetic):
    values = np.asarray(values, dtype=float)
    if antithetic:
        values = 0.5 * (values[0::2] + values[1::2])
    n = len(values)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


# ---------------------------------------------------------------------------
# Euler-Maruyama simulation


def _fields_at(system, ys):
    """[V_0..V_d](ys) and [DV_1..DV_d](ys), each evaluated once per step."""
    fields = [system.field(i, ys) for i in range(system.d + 1)]
    return fields, [system.jacobian(i, ys) for i in range(1, system.d + 1)]


def _euler_step(ys, dB, dt, fields, jacobians):
    """One Ito-Euler step of the (n, N) states with (n, d) increments dB, from
    the step's ``_fields_at``; the drift is V_0 + 1/2 sum_i dV_i . V_i."""
    drift = fields[0]
    for i in range(1, len(fields)):
        drift = drift + 0.5 * _matvec(jacobians[i - 1], fields[i])
    step = drift * dt
    for i in range(1, len(fields)):
        step = step + fields[i] * dB[:, i - 1, None]
    return ys + step


def _check_batched(system, ys):
    """The Euler loops evaluate every field and Jacobian on all paths at once."""
    if not _fields_take_batches(system, ys, jacobians=True):
        raise DomainError(
            f"fields or Jacobians of {system.name!r} do not evaluate (n, N) state batches "
            "row by row; the Monte Carlo oracles need them to (index states as y[..., i])"
        )


def _normals(system, cfg):
    """The (n_paths, n_steps, d) draws that every Euler-based estimator shares."""
    return normal_increments(cfg.seed, 0, cfg.n_paths, cfg.n_steps, system.d, cfg.antithetic)


def _euler_states(system, y0, t, normals):
    """Terminal Euler states of one path per row of normals, each from y0."""
    n_paths, n_steps, _ = normals.shape
    dt = t / n_steps
    sdt = math.sqrt(dt)
    ys = np.tile(np.asarray(y0, dtype=float), (n_paths, 1))
    _check_batched(system, ys)
    for k in range(n_steps):
        ys = _euler_step(ys, normals[:, k, :] * sdt, dt, *_fields_at(system, ys))
        if not np.all(np.isfinite(ys)):
            raise BlowUpError(f"Euler state became non-finite at step {k}")
    return ys


def euler_expectation(system, f, y, t, cfg):
    """Mean and standard error of f(Y_t) under Ito-corrected Euler-Maruyama."""
    ys = _euler_states(system, y, t, _normals(system, cfg))
    return _mean_stderr(_apply_payoff(f, ys), cfg.antithetic)


def fd_greek(system, f, y, v, t, cfg, h=1e-3):
    """Central difference (E f(Y^{y+hv}) - E f(Y^{y-hv}))/(2h), shared noise."""
    if h <= 0.0:
        raise DomainError(f"finite-difference step must be positive, got {h}")
    normals = _normals(system, cfg)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    f_up = _apply_payoff(f, _euler_states(system, y + h * v, t, normals))
    f_dn = _apply_payoff(f, _euler_states(system, y - h * v, t, normals))
    return _mean_stderr((f_up - f_dn) / (2.0 * h), cfg.antithetic)


def _hessian_action(system, i, ys, u):
    """(d(dV_i)(y) . u) via central differences of the Jacobian."""
    return (
        system.jacobian(i, ys + FD_STEP * u) - system.jacobian(i, ys - FD_STEP * u)
    ) / (2.0 * FD_STEP)


def malliavin_delta_m1(system, f, y, v, t, cfg):
    """Adapted elliptic weight: E(f(Y_t) (1/t) int (sigma^{-1}(Y_s) J_s v)' dB_s).

    Requires N = d with sigma(y) = (V_1(y), ..., V_d(y)) invertible along the
    simulated paths.  State and first variation evolve with Ito-corrected
    Euler; the weight integrand is evaluated at the left endpoint so the
    stochastic integral is a genuine Ito integral.
    """
    n_dim = system.dim
    if n_dim != system.d:
        raise EllipticityError(f"elliptic weight needs N = d, got N={n_dim}, d={system.d}")
    normals = _normals(system, cfg)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    dt = t / cfg.n_steps
    sdt = math.sqrt(dt)
    ys = np.tile(y, (cfg.n_paths, 1))
    J = np.tile(np.eye(n_dim), (cfg.n_paths, 1, 1))
    acc = np.zeros(cfg.n_paths)
    _check_batched(system, ys)
    for k in range(cfg.n_steps):
        dB = normals[:, k, :] * sdt
        fields, jacobians = _fields_at(system, ys)
        sigma = np.stack(fields[1:], axis=-1)
        Jv = _matvec(J, v)
        try:
            integrand = np.linalg.solve(sigma, Jv[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise EllipticityError(f"singular diffusion matrix at step {k}") from exc
        if not np.all(np.isfinite(integrand)):
            raise EllipticityError(f"diffusion matrix nearly singular at step {k}")
        acc += np.einsum("ni,ni->n", integrand, dB)
        # Ito form of the joint (Y, J) system; the d2V term is a finite
        # difference of the Jacobian and vanishes for linear fields
        drift_J = system.jacobian(0, ys)
        for i in range(1, system.d + 1):
            ji = jacobians[i - 1]
            drift_J = drift_J + 0.5 * (_hessian_action(system, i, ys, fields[i]) + ji @ ji)
        step_J = drift_J @ J * dt
        for i in range(1, system.d + 1):
            step_J = step_J + (jacobians[i - 1] @ J) * dB[:, i - 1, None, None]
        ys = _euler_step(ys, dB, dt, fields, jacobians)
        J = J + step_J
        if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(J))):
            raise BlowUpError(f"Malliavin simulation became non-finite at step {k}")
    values = _apply_payoff(f, ys) * (acc / t)
    return _mean_stderr(values, cfg.antithetic)


def simple_weight_delta_m1(system, f, y, v, t, cfg):
    """The m=1 weight sum_i B_t^i w_i / t with w = sigma^{-1}(y) v (frozen at y).

    Same driving noise as :func:`malliavin_delta_m1`, so the difference of
    the two estimators isolates the O(sqrt t) remainder.
    """
    if system.dim != system.d:
        raise EllipticityError(f"elliptic weight needs N = d, got N={system.dim}, d={system.d}")
    normals = _normals(system, cfg)
    y = np.asarray(y, dtype=float)
    ys = _euler_states(system, y, t, normals)
    sigma0 = np.stack([system.field(i, y) for i in range(1, system.d + 1)], axis=-1)
    w = np.linalg.solve(sigma0, np.asarray(v, dtype=float))
    b_t = normals.sum(axis=1) * math.sqrt(t / cfg.n_steps)
    values = _apply_payoff(f, ys) * (b_t @ w) / t
    return _mean_stderr(values, cfg.antithetic)


# ---------------------------------------------------------------------------
# signature expectation


def signature_expectation_stats(ctx, t, cfg, chunk=DEFAULT_CHUNK):
    """Mean truncated signature of simulated Brownian interpolations + stderr.

    Paths are piecewise-linear with n_steps equal segments and time component
    s.  A chunk of paths is one word-major (dim, n) array, and each step
    applies Chen's relation with the context's batched segment exponential
    and product.  Returns (mean element, {word: stderr}).
    """
    d = ctx.d
    dt = t / cfg.n_steps
    sdt = math.sqrt(dt)
    total = np.zeros(ctx.dim)
    total_sq = np.zeros(ctx.dim)
    done = 0
    while done < cfg.n_paths:
        n = min(chunk, cfg.n_paths - done)
        normals = normal_increments(cfg.seed, done, n, cfg.n_steps, d, cfg.antithetic)
        inc = np.empty((d + 1, n))
        inc[0] = dt
        sig = np.zeros((ctx.dim, n))
        sig[0] = 1.0
        for k in range(cfg.n_steps):
            inc[1:] = normals[:, k, :].T * sdt
            sig = ctx.product(sig, ctx.segment_exp(inc))
        total += sig.sum(axis=1)
        total_sq += (sig * sig).sum(axis=1)
        done += n
    n = cfg.n_paths
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    stderr = np.sqrt(var / n)
    element = algebra.from_dense(ctx, mean)
    return element, {w: float(s) for w, s in zip(ctx.basis, stderr)}


def signature_expectation_mc(ctx, t, cfg):
    """Monte Carlo estimate of the expected truncated signature."""
    element, _ = signature_expectation_stats(ctx, t, cfg)
    return element


# ---------------------------------------------------------------------------
# d=2, m=2 covariance diagnostics


@dataclass(frozen=True)
class CovarianceSample:
    """Per-path reduced covariance over the basis (e1, e2, [e1,e2], e0)."""

    matrix: np.ndarray
    dt: float


def _covariance_matrices(t, cfg, path_start=0):
    """(n, 4, 4) covariance matrices from left-point quadratures of one ensemble."""
    dt = t / cfg.n_steps
    normals = normal_increments(cfg.seed, path_start, cfg.n_paths, cfg.n_steps, 2, cfg.antithetic)
    dB = normals * math.sqrt(dt)
    b = np.concatenate([np.zeros((cfg.n_paths, 1, 2)), np.cumsum(dB, axis=1)], axis=1)
    left = b[:, :-1, :]
    i1 = left[:, :, 0].sum(axis=1) * dt
    i2 = left[:, :, 1].sum(axis=1) * dt
    q = (left[:, :, 0] ** 2 + left[:, :, 1] ** 2).sum(axis=1) * dt
    n = cfg.n_paths
    c = np.zeros((n, 4, 4))
    c[:, 0, 0] = t
    c[:, 1, 1] = t
    c[:, 0, 2] = i2
    c[:, 2, 0] = i2
    c[:, 1, 2] = -i1
    c[:, 2, 1] = -i1
    c[:, 2, 2] = q
    return c, i1, i2, q, dt


def covariance_samples(t, cfg):
    c, _, _, _, dt = _covariance_matrices(t, cfg)
    return [CovarianceSample(c[j], dt) for j in range(len(c))]


@dataclass(frozen=True)
class CovarianceReport:
    t: float
    n_paths: int
    n_steps: int
    max_det_rel_error: float
    e0_max_abs: float
    positivity_fraction: float
    scaling_max_z: float
    mean_t: np.ndarray
    mean_scaled_1: np.ndarray

    def to_dict(self):
        return {
            "t": self.t,
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "max_det_rel_error": self.max_det_rel_error,
            "e0_max_abs": self.e0_max_abs,
            "positivity_fraction": self.positivity_fraction,
            "scaling_max_z": self.scaling_max_z,
            "mean_t": self.mean_t.tolist(),
            "mean_scaled_1": self.mean_scaled_1.tolist(),
        }


def covariance_diagnostics(t, cfg):
    """Check the determinant identity, the zero e_0 block, and the scaling law.

    The determinant identity det(C^t | first 3) = t^2 Q - t I_1^2 - t I_2^2
    is algebraic in the assembled quadratures, so it must hold to roundoff
    per path at any discretization.  The scaling check compares entrywise
    means of C^t against the dilation-conjugated means of an independent C^1
    ensemble, within 4 standard errors.
    """
    c_t, i1, i2, q, _ = _covariance_matrices(t, cfg)
    det_direct = np.linalg.det(c_t[:, :3, :3])
    det_formula = t * t * q - t * i1 * i1 - t * i2 * i2
    scale = np.maximum(np.abs(det_formula), 1e-300)
    max_det_rel = float(np.max(np.abs(det_direct - det_formula) / scale))
    e0_max = float(np.max(np.abs(c_t[:, 3, :])) + np.max(np.abs(c_t[:, :, 3])))
    positivity = float(np.mean(det_formula > 0.0))

    c_1, *_ = _covariance_matrices(1.0, cfg, path_start=cfg.n_paths)
    dil = np.diag([math.sqrt(t), math.sqrt(t), t, t])
    conj = np.einsum("ij,njk,kl->nil", dil, c_1, dil)
    mean_t = c_t.mean(axis=0)
    mean_conj = conj.mean(axis=0)
    n = cfg.n_paths
    se_t = c_t.std(axis=0, ddof=1) / math.sqrt(n)
    se_conj = conj.std(axis=0, ddof=1) / math.sqrt(n)
    denom = np.sqrt(se_t**2 + se_conj**2)
    diff = np.abs(mean_t - mean_conj)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(denom > 0.0, diff / denom, np.where(diff > 1e-12, np.inf, 0.0))
    return CovarianceReport(
        t=t,
        n_paths=cfg.n_paths,
        n_steps=cfg.n_steps,
        max_det_rel_error=max_det_rel,
        e0_max_abs=e0_max,
        positivity_fraction=positivity,
        scaling_max_z=float(np.max(z)),
        mean_t=mean_t,
        mean_scaled_1=mean_conj,
    )


# ---------------------------------------------------------------------------
# lognormal closed forms


@lru_cache(maxsize=None)
def _gauss_legendre(n, lo, hi):
    x, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid + half * x, half * w


def bs_closed_form(r, sigma, y, t, payoff):
    """Reference (price, delta) for E f(Y_t) under geometric Brownian motion.

    The identity and plain call have closed forms; the smoothed call is
    integrated against the lognormal density with 400-point Gauss-Legendre
    quadrature on 12 standard deviations.
    """
    if y <= 0.0 or t <= 0.0 or sigma <= 0.0:
        raise DomainError("need y > 0, t > 0, sigma > 0")
    growth = math.exp(r * t)
    if payoff.kind == "identity":
        return y * growth, growth
    k = payoff.strike
    if payoff.kind == "call":
        sq = sigma * math.sqrt(t)
        d1 = (math.log(y / k) + (r + 0.5 * sigma * sigma) * t) / sq
        d2 = d1 - sq
        price = y * growth * norm.cdf(d1) - k * norm.cdf(d2)
        delta = growth * norm.cdf(d1)
        return float(price), float(delta)
    if payoff.kind == "smoothed_call":
        # resolve the sigmoid: node spacing must beat the smoothing width in z
        eps_z = payoff.smoothing / (y * sigma * math.sqrt(t))
        nodes = int(min(8000, max(400, 80.0 / max(eps_z, 1e-2))))
        z, w = _gauss_legendre(nodes, -12.0, 12.0)
        states = (y * np.exp((r - 0.5 * sigma * sigma) * t + sigma * math.sqrt(t) * z))[:, None]
        density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        price = float(np.sum(w * density * payoff(states)))
        delta = float(np.sum(w * density * payoff.derivative(states) * states[:, 0] / y))
        return price, delta
    raise UnsupportedPayoffError(f"no closed form for payoff {payoff!r}")
