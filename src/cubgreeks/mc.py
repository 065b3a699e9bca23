"""Monte Carlo and closed-form oracles.

Everything here exists to verify the deterministic machinery from the
outside: Euler-Maruyama expectations, the adapted m=1 Malliavin weight,
common-random-number finite differences, the simulated truncated-signature
expectation, the d=2 covariance diagnostics, and lognormal closed forms.
The signature expectation runs the same Chen fold as ``paths.signature``
(``AlgebraContext.chen``) on a word-major batch of paths; it checks the heat
element against simulation, not the product itself.
The finite-difference, Malliavin, signature and covariance oracles take an
optional (n_paths, n_steps, d) draw of paths 0..n_paths, which they only
read, so a caller can run two of them on one draw on purpose (``diagnostics``
does); without one they draw it themselves, and either way every number is
the same.  The signature and covariance oracles read it, or draw it, one
block of paths at a time, and draw the covariance check's horizon-1 ensemble
in blocks as well, so neither holds a second copy of a draw.
Every estimator averages independent paths, one per row of the draw, so its
standard error is the sample standard deviation over sqrt(n_paths), and
``z_score`` holds the one rule for comparing an estimate with its reference.
Estimators are reproducible: draws come from the counter-based stream in
:mod:`cubgreeks.rng`, so a seed fixes every number regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import algebra
from .errors import (
    BlowUpError, DomainError, EllipticityError, UnsupportedPayoffError, check_horizon, is_finite, is_integer,
)
from .rng import normal_increments
from .sde import _batched, _fd_directional, _matvec, _scalar_payoff, _state_args, batched

_SIG_BLOCK = 2048  # paths per block of the Chen fold (a step's 320 KiB arrays stay in L2) and the covariance sums


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int
    seed: int = 0

    def __post_init__(self):
        if not all(is_integer(n) and n >= 1 for n in (self.n_paths, self.n_steps)):
            raise DomainError(f"n_paths and n_steps must be integers >= 1, got {self.n_paths!r}, {self.n_steps!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise DomainError(f"seed must be an integer >= 0, got {self.seed!r}")


# ---------------------------------------------------------------------------
# payoffs


class Payoff:
    """Scalar payoff of the terminal state; batched over leading axes."""

    def __init__(self, kind, strike=None, smoothing=None):
        if kind not in ("identity", "call", "smoothed_call"):
            raise UnsupportedPayoffError(f"unknown payoff {kind!r}")
        if kind != "identity" and not is_finite(strike):
            raise UnsupportedPayoffError(f"payoff {kind!r} needs a finite strike, got {strike!r}")
        if kind == "smoothed_call" and not (is_finite(smoothing) and smoothing > 0):
            raise UnsupportedPayoffError(
                f"smoothed_call needs a positive finite smoothing width, got {smoothing!r}"
            )
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
        from scipy.special import expit  # loaded on first use: verify and the tree never call it

        return expit((s - self.strike) / self.smoothing)

    def __repr__(self):
        if self.kind == "identity":
            return "identity"
        if self.kind == "call":
            return f"call:{self.strike}"
        return f"smoothed_call:{self.strike}:{self.smoothing}"


def parse_payoff(text):
    """\"identity\", \"call:K\", or \"smoothed_call:K:eps\" with finite K and eps."""
    parts = str(text).split(":")
    try:
        if parts == ["identity"]:
            return Payoff("identity")
        if parts[0] == "call" and len(parts) == 2:
            return Payoff("call", float(parts[1]))
        if parts[0] == "smoothed_call" and len(parts) == 3:
            return Payoff("smoothed_call", float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise UnsupportedPayoffError(f"cannot parse payoff {text!r}: {exc}") from exc
    raise UnsupportedPayoffError(f"cannot parse payoff {text!r}")


def _mean_stderr(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


def z_score(diff, stderr):
    """diff / stderr elementwise, for scalars or arrays; at zero stderr, 0 where
    |diff| <= 1e-12 and +-inf (the sign of diff) elsewhere, NaN included."""
    diff, stderr = np.asarray(diff, dtype=float), np.asarray(stderr, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(stderr > 0.0, diff / stderr, np.where(np.abs(diff) <= 1e-12, 0.0, np.copysign(np.inf, diff)))
    return z[()]


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


def _batched_payoff(system, f, y0):
    """f as a map from (n, N) states to (n,) floats; raises unless the fields
    and analytic Jacobians take batches, as the Euler loops evaluate them on
    all paths (finite-difference Jacobians follow their fields)."""
    n = len(y0)
    analytic = range(system.d + 1) if system.jacobians is not None else ()
    jacobians = [lambda y, i=i: system.jacobian(i, y) for i in analytic]
    if batched(system, y0) is not system or any(_batched(j, y0, (n, n)) is not j for j in jacobians):
        raise DomainError(
            f"fields or Jacobians of {system.name!r} do not evaluate (n, N) state batches "
            "row by row; the Monte Carlo oracles need them to (index states as y[..., i])"
        )
    return _scalar_payoff(f, y0)


def _normals(cfg, d, normals=None):
    """The (n_paths, n_steps, d) draw of paths 0..n_paths: the given one,
    which is only read, or drawn here.  A given draw of another shape raises
    DomainError."""
    if normals is None:
        return normal_increments(cfg.seed, 0, cfg.n_paths, cfg.n_steps, d)
    normals = np.asarray(normals, dtype=float)
    if normals.shape != (cfg.n_paths, cfg.n_steps, d):
        raise DomainError(f"given draw has shape {normals.shape}, need {(cfg.n_paths, cfg.n_steps, d)}")
    return normals


def _blocks(cfg, d, normals=None, path_start=0):
    """The (n_paths, n_steps, d) draw of paths path_start.. in blocks of
    ``_SIG_BLOCK`` rows: row slices of the given draw (see ``_normals``), or
    each window drawn as it is reached, which is bitwise that window of the
    full draw."""
    if normals is not None:
        normals = _normals(cfg, d, normals)
    for start in range(0, cfg.n_paths, _SIG_BLOCK):
        n = min(_SIG_BLOCK, cfg.n_paths - start)
        if normals is None:
            yield normal_increments(cfg.seed, path_start + start, n, cfg.n_steps, d)
        else:
            yield normals[start : start + n]


def _euler_states(system, y0, t, normals):
    """Terminal Euler states of one path per row of normals, each from y0."""
    n_paths, n_steps, _ = normals.shape
    dt = t / n_steps
    sdt = math.sqrt(dt)
    ys = np.tile(np.asarray(y0, dtype=float), (n_paths, 1))
    for k in range(n_steps):
        ys = _euler_step(ys, normals[:, k, :] * sdt, dt, *_fields_at(system, ys))
        if not np.all(np.isfinite(ys)):
            raise BlowUpError(f"Euler state became non-finite at step {k}")
    return ys


def euler_expectation(system, f, y, t, cfg):
    """Mean and standard error of f(Y_t) under Ito-corrected Euler-Maruyama."""
    y, _ = _state_args(system, t, y)
    f = _batched_payoff(system, f, y)
    ys = _euler_states(system, y, t, _normals(cfg, system.d))
    return _mean_stderr(f(ys))


def fd_greek(system, f, y, v, t, cfg, h=1e-3, normals=None):
    """Central difference (E f(Y^{y+hv}) - E f(Y^{y-hv}))/(2h), shared noise:
    both runs read one (n_paths, n_steps, d) draw, the given one or its own."""
    if not (is_finite(h) and h > 0.0):
        raise DomainError(f"finite-difference step must be positive and finite, got {h!r}")
    y, v = _state_args(system, t, y, v)
    f = _batched_payoff(system, f, y)
    normals = _normals(cfg, system.d, normals)
    f_up = f(_euler_states(system, y + h * v, t, normals))
    f_dn = f(_euler_states(system, y - h * v, t, normals))
    return _mean_stderr((f_up - f_dn) / (2.0 * h))


def malliavin_delta_m1(system, f, y, v, t, cfg, normals=None):
    """Adapted elliptic weight: E(f(Y_t) (1/t) int (sigma^{-1}(Y_s) J_s v)' dB_s).

    Requires N = d with sigma(y) = (V_1(y), ..., V_d(y)) invertible along the
    simulated paths.  State and first variation evolve with Ito-corrected
    Euler on the given (n_paths, n_steps, d) draw or its own; the weight
    integrand is evaluated at the left endpoint so the stochastic integral is
    a genuine Ito integral.
    """
    n_dim = system.dim
    if n_dim != system.d:
        raise EllipticityError(f"elliptic weight needs N = d, got N={n_dim}, d={system.d}")
    y, v = _state_args(system, t, y, v)
    f = _batched_payoff(system, f, y)
    normals = _normals(cfg, system.d, normals)
    n_paths, n_steps, _ = normals.shape
    dt = t / n_steps
    sdt = math.sqrt(dt)
    ys = np.tile(y, (n_paths, 1))
    J = np.tile(np.eye(n_dim), (n_paths, 1, 1))
    acc = np.zeros(n_paths)
    for k in range(n_steps):
        dB = normals[:, k, :] * sdt
        fields, jacobians = _fields_at(system, ys)
        sigma = np.stack(fields[1:], axis=-1)
        integrand = _weight_integrand(sigma, _matvec(J, v), k)
        acc += np.einsum("ni,ni->n", integrand, dB)
        # Ito form of the joint (Y, J) system; the d2V term is a finite
        # difference of the Jacobian and vanishes for linear fields
        drift_J = system.jacobian(0, ys)
        for i in range(1, system.d + 1):
            ji = jacobians[i - 1]
            hessian = _fd_directional(lambda z, i=i: system.jacobian(i, z), ys, fields[i])
            drift_J = drift_J + 0.5 * (hessian + ji @ ji)
        step_J = drift_J @ J * dt
        for i in range(1, system.d + 1):
            step_J = step_J + (jacobians[i - 1] @ J) * dB[:, i - 1, None, None]
        ys = _euler_step(ys, dB, dt, fields, jacobians)
        J = J + step_J
        if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(J))):
            raise BlowUpError(f"Malliavin simulation became non-finite at step {k}")
    values = f(ys) * (acc / t)
    return _mean_stderr(values)


def _weight_integrand(sigma, Jv, k):
    """sigma^{-1} Jv for each path's (N, N) diffusion matrix at step k.

    Raises ``EllipticityError`` where sigma is singular or the result is not
    finite.  For N = 1 the solve is a division, which is bitwise
    ``np.linalg.solve`` on a 1x1 system without its per-system overhead.
    """
    if sigma.shape[-1] == 1:
        if not np.all(sigma):
            raise EllipticityError(f"singular diffusion matrix at step {k}")
        with np.errstate(over="ignore", invalid="ignore"):  # caught as not finite below
            integrand = Jv / sigma[:, :, 0]
    else:
        try:
            integrand = np.linalg.solve(sigma, Jv[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise EllipticityError(f"singular diffusion matrix at step {k}") from exc
    if not np.all(np.isfinite(integrand)):
        raise EllipticityError(f"diffusion matrix nearly singular at step {k}")
    return integrand


# ---------------------------------------------------------------------------
# signature expectation


def signature_expectation_stats(ctx, t, cfg, normals=None):
    """Mean truncated signature of simulated Brownian interpolations + stderr.

    Paths are piecewise-linear with n_steps equal segments and time component
    s.  They run in blocks of ``_SIG_BLOCK`` (``_blocks`` of the given
    (n_paths, n_steps, d) draw, or of the stream): each block folds its
    step-major (d+1, n_steps, n) increments with ``ctx.chen`` into a
    word-major (dim, n) array and adds its column sums to the totals.
    Per-path arithmetic is the same in any blocking, so the block size changes
    only the summation order of the totals.  Returns (mean element,
    {word: stderr}).
    """
    check_horizon(t)
    d = ctx.d
    dt = t / cfg.n_steps
    sdt = math.sqrt(dt)
    total = np.zeros(ctx.dim)
    total_sq = np.zeros(ctx.dim)
    for block in _blocks(cfg, d, normals):
        inc = np.empty((d + 1, cfg.n_steps, len(block)))
        inc[0] = dt
        np.multiply(block.T, sdt, out=inc[1:])
        sig = ctx.chen(inc)
        total += sig.sum(axis=1)
        total_sq += (sig * sig).sum(axis=1)
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


def _covariance_matrices(t, blocks):
    """(n, 4, 4) covariance matrices and their quadratures I_1, I_2, Q, from
    left-point sums over the paths of the (n, n_steps, 2) normal blocks, which
    it only reads.  Each block's left endpoints B_{s_k} go into a copy of the
    block's size: the scaled increments shifted one step later behind a zero,
    then a running sum along each path."""
    sums = []
    for block in blocks:
        dt = t / block.shape[1]
        left = np.empty(block.shape)
        left[:, 0] = 0.0
        np.multiply(block[:, :-1], math.sqrt(dt), out=left[:, 1:])
        np.cumsum(left, axis=1, out=left)
        q = (left[:, :, 0] ** 2 + left[:, :, 1] ** 2).sum(axis=1) * dt
        sums.append((left[:, :, 0].sum(axis=1) * dt, left[:, :, 1].sum(axis=1) * dt, q))
    i1, i2, q = (np.concatenate(parts) for parts in zip(*sums))
    c = np.zeros((len(q), 4, 4))
    c[:, 0, 0] = t
    c[:, 1, 1] = t
    c[:, 0, 2] = i2
    c[:, 2, 0] = i2
    c[:, 1, 2] = -i1
    c[:, 2, 1] = -i1
    c[:, 2, 2] = q
    return c, i1, i2, q


@dataclass(frozen=True)
class CovarianceReport:
    max_det_rel_error: float
    e0_max_abs: float
    positivity_fraction: float
    scaling_max_z: float


def covariance_diagnostics(t, cfg, normals=None):
    """Check the determinant identity, the zero e_0 block, and the scaling law.

    The determinant identity det(C^t | first 3) = t^2 Q - t I_1^2 - t I_2^2
    is algebraic in the assembled quadratures, so it must hold to roundoff
    per path at any discretization.  The scaling check compares entrywise
    means of C^t, from the given (n_paths, n_steps, 2) draw of paths 0..n or
    its own, against the dilation-conjugated means of an independent C^1
    ensemble (paths n..2n, drawn in blocks), within 4 standard errors.
    """
    check_horizon(t)
    if cfg.n_paths < 2:
        raise DomainError(f"the scaling check's standard errors need n_paths >= 2, got {cfg.n_paths}")
    c_t, i1, i2, q = _covariance_matrices(t, _blocks(cfg, 2, normals))
    det_direct = np.linalg.det(c_t[:, :3, :3])
    det_formula = t * t * q - t * i1 * i1 - t * i2 * i2
    scale = np.maximum(np.abs(det_formula), 1e-300)
    max_det_rel = float(np.max(np.abs(det_direct - det_formula) / scale))
    e0_max = float(np.max(np.abs(c_t[:, 3, :])) + np.max(np.abs(c_t[:, :, 3])))
    positivity = float(np.mean(det_formula > 0.0))

    n = cfg.n_paths
    c_1, *_ = _covariance_matrices(1.0, _blocks(cfg, 2, path_start=n))
    dil = np.array([math.sqrt(t), math.sqrt(t), t, t])
    conj = (dil[:, None] * c_1) * dil  # diag(dil) @ c_1 @ diag(dil), entrywise
    se_t = c_t.std(axis=0, ddof=1) / math.sqrt(n)
    se_conj = conj.std(axis=0, ddof=1) / math.sqrt(n)
    z = z_score(np.abs(c_t.mean(axis=0) - conj.mean(axis=0)), np.sqrt(se_t**2 + se_conj**2))
    return CovarianceReport(
        max_det_rel_error=max_det_rel,
        e0_max_abs=e0_max,
        positivity_fraction=positivity,
        scaling_max_z=float(np.max(z)),
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
    if not all(is_finite(x) for x in (r, sigma, y, t)) or y <= 0.0 or t <= 0.0 or sigma <= 0.0:
        raise DomainError(f"need finite r and y, t, sigma > 0, got r={r}, sigma={sigma}, y={y}, t={t}")
    growth = math.exp(r * t)
    if payoff.kind == "identity":
        return y * growth, growth
    k = payoff.strike
    if payoff.kind == "call":
        from scipy.special import ndtr  # loaded on first use: verify and the tree never call it

        sq = sigma * math.sqrt(t)
        d1 = (math.log(y / k) + (r + 0.5 * sigma * sigma) * t) / sq
        d2 = d1 - sq
        price = y * growth * ndtr(d1) - k * ndtr(d2)
        delta = growth * ndtr(d1)
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
