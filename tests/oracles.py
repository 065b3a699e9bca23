"""Independent numerical oracles used by the tests.

These deliberately avoid the package's own fast paths: iterated integrals come
from composite trapezoid quadrature on a fine grid, derivatives from central
differences, reference prices from direct lognormal sampling, truncated
products and signatures from double loops over sparse word maps, the Chen
fold through the general product on zero-filled segment exponentials, cubature
trees from one single-path RK4 loop per node, and first variations from a
joint RK4 loop of their own.  ``evolve``'s batched segment loop is frozen as
it stood before its RK4 kernel summed in place.  The counter-based normals and
the signature-expectation recursion are frozen, unblocked copies that draw and
multiply every path of a chunk in one array, and the covariance quadratures a
frozen copy that builds the Brownian paths beside the draw.  The built-in
Greeks dictionary and degree-3 spikes are frozen copies of the family loops
that built them before they became orbits, and the property registry checks
the registry's own batched draws one sample at a time through the
element-level algebra functions, counting the Lie basis by Lyndon words.
Four helpers only tests call sit here too: path concatenation, a formula's
largest moment residual, an element's coordinates in the Lie basis, and the
m = 1 weight frozen at the start state, which isolates the adapted weight's
remainder.
"""

import itertools
import math

import numpy as np
from scipy.special import ndtri

from cubgreeks import algebra, checks, mc, paths, sde
from cubgreeks.algebra import to_dense
from cubgreeks.cubature import verify_moments
from cubgreeks.errors import BlowUpError, DomainError, EllipticityError, InvalidPathError
from cubgreeks.mc import _batched_payoff, _euler_states, _mean_stderr, _normals, _weight_integrand
from cubgreeks.sde import _state_args


def concat(p1, p2):
    """Concatenation: run p1, then p2 translated to start at p1's endpoint."""
    if p1.dim != p2.dim:
        raise InvalidPathError("cannot concatenate paths of different dimensions")
    times = np.concatenate([p1.times, p1.t_end + p2.times[1:]])
    points = np.vstack([p1.points, p1.points[-1] + p2.points[1:]])
    return paths.PiecewisePath._from_arrays(p1.t_end + p2.t_end, times, points)


def path_on_grid(path, points_per_segment=2000):
    """Sample a piecewise-linear path on a segment-aligned fine grid."""
    ts = []
    xs = []
    for k in range(path.n_segments):
        t0, t1 = path.times[k], path.times[k + 1]
        local = np.linspace(t0, t1, points_per_segment, endpoint=False)
        frac = (local - t0) / (t1 - t0)
        seg = path.points[k][None, :] + frac[:, None] * (path.points[k + 1] - path.points[k])[None, :]
        ts.append(local)
        xs.append(seg)
    ts.append(np.array([path.times[-1]]))
    xs.append(path.points[-1][None, :])
    return np.concatenate(ts), np.vstack(xs)


def iterated_integral_quadrature(path, word, points_per_segment=2000):
    """int_{0<=t1<=...<=tk<=T} dw^{i1}(t1)...dw^{ik}(tk) by nested trapezoid.

    Maintains F_I cumulatively: F_{I*(i)}(s) = int_0^s F_I(u) dw^i(u).
    """
    ts, xs = path_on_grid(path, points_per_segment)
    current = np.ones_like(ts)
    for letter in word:
        dw = np.diff(xs[:, letter])
        midpoints = 0.5 * (current[1:] + current[:-1])
        integral = np.concatenate([[0.0], np.cumsum(midpoints * dw)])
        current = integral
    return current[-1]


def fd_jacobian(func, y, h=1e-6):
    y = np.asarray(y, dtype=float)
    cols = []
    for k in range(len(y)):
        dy = np.zeros_like(y)
        dy[k] = h
        cols.append((np.asarray(func(y + dy)) - np.asarray(func(y - dy))) / (2 * h))
    return np.stack(cols, axis=-1)


def max_residual(formula, target=None):
    return max(verify_moments(formula, formula.target() if target is None else target).values())


def lie_coordinates(basis, x):
    """Least-squares coordinates of x in the Lie basis and the max-abs residual."""
    vec = to_dense(x)
    coords, *_ = np.linalg.lstsq(basis.matrix, vec, rcond=None)
    residual = np.max(np.abs(basis.matrix @ coords - vec)) if basis.dim else np.max(np.abs(vec), initial=0.0)
    return coords, float(residual)


def dict_mul(ctx, x, y):
    """Truncated product on sparse {word: coefficient} maps, by the double loop.

    Each output word accumulates in the iteration order of x, then y.
    """
    out = {}
    for wx, cx in x.items():
        dx = ctx.degree(wx)
        for wy, cy in y.items():
            if dx + ctx.degree(wy) <= ctx.m:
                w = wx + wy
                out[w] = out.get(w, 0.0) + cx * cy
    return {w: c for w, c in out.items() if c != 0.0}


def dict_signature(ctx, path):
    """Signature as the dict product of segment exponentials.

    A segment exponential is the series 1 + sum_n term_n with
    term_n = (term_{n-1} * step) * (1/n); the e_0 letter is dropped at m=1,
    where every word containing it exceeds the truncation degree.
    """
    start = 0 if ctx.m >= 2 else 1
    sig = {(): 1.0}
    for delta in path.increments():
        step = {(i,): float(delta[i]) for i in range(start, ctx.d + 1) if delta[i] != 0.0}
        seg = {(): 1.0}
        term = {(): 1.0}
        for n in range(1, ctx.m + 1):
            term = {w: c * (1.0 / n) for w, c in dict_mul(ctx, term, step).items()}
            if not term:
                break
            for w, c in term.items():
                seg[w] = seg.get(w, 0.0) + c
        sig = dict_mul(ctx, sig, seg)
    return sig


def segment_exp_zero_filled(ctx, inc):
    """Segment exponential of (d+1,) or (d+1, n) increments on a zero-filled
    array, every word of length >= 1 by E_w = (E_prefix * inc[last]) * (1/len(w))."""
    inc = np.asarray(inc, dtype=float)
    out = np.zeros((ctx.dim,) + inc.shape[1:])
    out[0] = 1.0
    for k, w in enumerate(ctx.basis[1:], start=1):
        out[k] = (out[ctx.index[w[:-1]]] * inc[w[-1]]) * (1.0 / len(w))
    return out


def chen_by_product(ctx, inc):
    """Chen fold of (d+1, K) or (d+1, K, n) increments through ``ctx.product``,
    which sums every split of each word, its two end splits included."""
    inc = np.asarray(inc, dtype=float)
    sig = segment_exp_zero_filled(ctx, inc[:, 0])
    for k in range(1, inc.shape[1]):
        sig = ctx.product(sig, segment_exp_zero_filled(ctx, inc[:, k]))
    return sig


def greeks_dictionary_loops(d):
    """Horizon-1 Greeks dictionary, one loop per family of paths."""
    signs = (1.0, -1.0)

    def axis(i, c):
        inc = np.zeros(d + 1)
        inc[i] = c
        return inc

    spaces = range(1, d + 1)
    out = [
        paths.line_path(1.0, axis(i, s * c)) for i, s, c in itertools.product(spaces, signs, (1.0, 0.5))
    ]
    planes = list(itertools.product(spaces, spaces, signs, signs))
    out += [paths.line_path(1.0, axis(i, si) + axis(j, sj)) for i, j, si, sj in planes if i < j]
    out += [
        paths.from_increments(1.0, [axis(i, si), axis(j, sj)]) for i, j, si, sj in planes if i != j
    ]
    time_inc = axis(0, 1.0)
    out.append(paths.line_path(1.0, time_inc))
    for i, s in itertools.product(spaces, signs):
        out.append(paths.from_increments(1.0, [time_inc, axis(i, s)]))
        out.append(paths.from_increments(1.0, [axis(i, s), time_inc]))
        out.append(paths.line_path(1.0, time_inc + axis(i, s)))
    return out


def degree3_spikes(d):
    """Horizon-1 degree-3 items: time 1 and +-sqrt(d) on one axis, weight 1/(2d)."""
    eye = np.eye(d + 1)
    return [
        (1.0 / (2 * d), paths.line_path(1.0, eye[0] + sign * math.sqrt(d) * eye[i]))
        for i in range(1, d + 1)
        for sign in (1.0, -1.0)
    ]


def evolve_loop(system, y0, path, steps_per_segment=sde.DEFAULT_STEPS_PER_SEGMENT):
    """RK4 along one path with the field sum built per segment: the drift
    always, and V_i only where its slope is nonzero."""
    if steps_per_segment < 1:
        raise DomainError("steps_per_segment must be >= 1")
    if path.dim != system.d + 1:
        raise DomainError(f"path dimension {path.dim} != d+1 = {system.d + 1}")
    y = np.asarray(y0, dtype=float).copy()
    for k in range(path.n_segments):
        dt_seg = path.times[k + 1] - path.times[k]
        slope = (path.points[k + 1] - path.points[k]) / dt_seg

        def rhs(y):
            out = slope[0] * system.field(0, y)
            for i in range(1, system.d + 1):
                if slope[i] != 0.0:
                    out = out + slope[i] * system.field(i, y)
            return out

        h = dt_seg / steps_per_segment
        for _ in range(steps_per_segment):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise BlowUpError(f"state became non-finite on segment {k}", segment=k)
    return y


def evolve_out_of_place(system, y0, path, steps_per_segment=sde.DEFAULT_STEPS_PER_SEGMENT):
    """``sde.evolve``'s segment loop as it was before its RK4 kernel summed in
    place: every field term, stage and update a fresh array, 0.5 h and h / 6
    formed inside the step loop.  Takes the same paths and stacks, unchecked."""
    times, points = path if isinstance(path, tuple) else (path.times, path.points)
    times, points = np.asarray(times, dtype=float), np.asarray(points, dtype=float)
    dts = np.diff(times)
    y = np.asarray(y0, dtype=float).copy()
    for k in range(times.shape[-1] - 1):
        dt_seg = dts[k] if times.ndim == 1 else dts[:, k, None]
        slope = (points[..., k + 1, :] - points[..., k, :]) / dt_seg
        coef = [slope[..., i, None] for i in range(system.d + 1)]
        driven = [i for i in range(1, system.d + 1) if np.any(coef[i] != 0.0)]

        def rhs(y):
            out = coef[0] * system.field(0, y)
            for i in driven:
                out = out + coef[i] * system.field(i, y)
            return out

        h = dt_seg / steps_per_segment
        for _ in range(steps_per_segment):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise BlowUpError(f"state became non-finite on segment {k}", segment=k)
    return y


def scalar_tree(system, payoff, y, formulas, steps_per_segment=sde.DEFAULT_STEPS_PER_SEGMENT):
    """Cubature tree by nested lists: one ``evolve_loop`` and one payoff call per node.

    ``steps_per_segment`` is one RK4 step count for every formula, or a
    sequence of one count per formula.  Node weights multiply along each
    branch; leaves come state-major, path-minor and are reduced with fsum in
    that order.  Returns (estimate, leaf count).
    """
    counts = [steps_per_segment] * len(formulas) if np.ndim(steps_per_segment) == 0 else steps_per_segment
    nodes = [(1.0, np.asarray(y, dtype=float))]
    for formula, n in zip(formulas, counts, strict=True):
        nodes = [
            (weight * lam, evolve_loop(system, state, p, n))
            for weight, state in nodes
            for lam, p in formula.items
        ]
    return math.fsum(w * float(payoff(state)) for w, state in nodes), len(nodes)


def heisenberg_one_state():
    """``sde.heisenberg_toy`` written for one (2,) state: the fields index it
    as y[0] and write out[0], out[1], and the Jacobians are (2, 2) arrays."""

    def v1(y):
        out = np.zeros_like(y)
        out[0] = 1.0
        return out

    def v2(y):
        out = np.zeros_like(y)
        out[1] = y[0]
        return out

    def j2(y):
        return np.array([[0.0, 0.0], [1.0, 0.0]])

    fields = (np.zeros_like, v1, v2)
    jacobians = (lambda y: np.zeros((2, 2)),) * 2 + (j2,)
    return sde.VectorFieldSystem(dim=2, d=2, fields=fields, jacobians=jacobians, name="heisenberg_one_state")


def first_variation_loop(system, y0, path, steps_per_segment=sde.DEFAULT_STEPS_PER_SEGMENT):
    """Jacobian of the flow map of one (N,) state by a hand-written joint RK4
    loop over (y, J), with the segment field's Jacobian applied to J."""
    if path.dim != system.d + 1:
        raise DomainError(f"path dimension {path.dim} != d+1 = {system.d + 1}")
    n = len(np.asarray(y0, dtype=float))
    y = np.asarray(y0, dtype=float).copy()
    J = np.eye(n)

    for k in range(path.n_segments):
        dt_seg = path.times[k + 1] - path.times[k]
        slope = (path.points[k + 1] - path.points[k]) / dt_seg

        def rhs(y_):
            out = slope[0] * system.field(0, y_)
            for i in range(1, system.d + 1):
                if slope[i] != 0.0:
                    out = out + slope[i] * system.field(i, y_)
            return out

        def jac_rhs(y_):
            out = slope[0] * system.jacobian(0, y_)
            for i in range(1, system.d + 1):
                if slope[i] != 0.0:
                    out = out + slope[i] * system.jacobian(i, y_)
            return out

        h = dt_seg / steps_per_segment
        for _ in range(steps_per_segment):
            k1y = rhs(y)
            k1j = jac_rhs(y) @ J
            y2 = y + 0.5 * h * k1y
            k2y = rhs(y2)
            k2j = jac_rhs(y2) @ (J + 0.5 * h * k1j)
            y3 = y + 0.5 * h * k2y
            k3y = rhs(y3)
            k3j = jac_rhs(y3) @ (J + 0.5 * h * k2j)
            y4 = y + h * k3y
            k4y = rhs(y4)
            k4j = jac_rhs(y4) @ (J + h * k3j)
            y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            J = J + (h / 6.0) * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(J))):
            raise BlowUpError(f"variation became non-finite on segment {k}", segment=k)
    return J


def gbm_exact_samples(r, sigma, y, t, n, seed):
    """Exact lognormal terminal values (no Euler bias)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    return y * np.exp((r - 0.5 * sigma * sigma) * t + sigma * math.sqrt(t) * z)


def simple_weight_delta_m1(system, f, y, v, t, cfg):
    """The m=1 weight sum_i B_t^i w_i / t with w = sigma^{-1}(y) v (frozen at y).

    Same driving noise as :func:`malliavin_delta_m1`, so the difference of
    the two estimators isolates the O(sqrt t) remainder.
    """
    if system.dim != system.d:
        raise EllipticityError(f"elliptic weight needs N = d, got N={system.dim}, d={system.d}")
    y, v = _state_args(system, t, y, v)
    f = _batched_payoff(system, f, y)
    sigma0 = np.stack([system.field(i, y) for i in range(1, system.d + 1)], axis=-1)
    w = _weight_integrand(sigma0[None], v[None], 0)[0]
    normals = _normals(cfg, system.d)
    ys = _euler_states(system, y, t, normals)
    b_t = normals.sum(axis=1) * math.sqrt(t / cfg.n_steps)
    values = f(ys) * (b_t @ w) / t
    return _mean_stderr(values)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64_unblocked(state):
    z = state.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def counter_uniforms_unblocked(seed, counters):
    """Uniforms in (0, 1) at the given counter array, built in one piece."""
    counters = np.asarray(counters, dtype=np.uint64)
    state = np.uint64(int(seed) % 2**64) + (counters + np.uint64(1)) * _GOLDEN
    bits = _splitmix64_unblocked(state)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def normal_increments_unblocked(seed, path_start, n_paths, n_steps, d):
    """(n_paths, n_steps, d) normals from a full-size counter array."""
    paths = np.arange(path_start, path_start + n_paths, dtype=np.uint64)
    steps = np.arange(n_steps, dtype=np.uint64)
    drivers = np.arange(d, dtype=np.uint64)
    counters = (
        (paths[:, None, None] * np.uint64(n_steps) + steps[None, :, None])
        * np.uint64(d)
        + drivers[None, None, :]
    )
    return ndtri(counter_uniforms_unblocked(seed, counters))


def signature_expectation_unblocked(ctx, t, cfg, chunk=25_000):
    """Mean signature and per-word stderr with every path of a chunk in one
    (dim, n) Chen recursion."""
    d = ctx.d
    dt = t / cfg.n_steps
    sdt = math.sqrt(dt)
    total = np.zeros(ctx.dim)
    total_sq = np.zeros(ctx.dim)
    done = 0
    while done < cfg.n_paths:
        n = min(chunk, cfg.n_paths - done)
        normals = normal_increments_unblocked(cfg.seed, done, n, cfg.n_steps, d)
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
    return algebra.from_dense(ctx, mean), dict(zip(ctx.basis, np.sqrt(var / n).tolist()))


def covariance_matrices_copied(t, normals):
    """(c, I_1, I_2, Q) of ``mc._covariance_matrices`` on a (n, n_steps, 2)
    draw, which it leaves as it is: the increments, the Brownian paths and
    their zero start are each held as an array of their own."""
    n, n_steps, _ = normals.shape
    dt = t / n_steps
    dB = normals * math.sqrt(dt)
    b = np.concatenate([np.zeros((n, 1, 2)), np.cumsum(dB, axis=1)], axis=1)
    left = b[:, :-1, :]
    i1 = left[:, :, 0].sum(axis=1) * dt
    i2 = left[:, :, 1].sum(axis=1) * dt
    q = (left[:, :, 0] ** 2 + left[:, :, 1] ** 2).sum(axis=1) * dt
    c = np.zeros((n, 4, 4))
    c[:, 0, 0] = t
    c[:, 1, 1] = t
    c[:, 0, 2] = i2
    c[:, 2, 0] = i2
    c[:, 1, 2] = -i1
    c[:, 2, 1] = -i1
    c[:, 2, 2] = q
    return c, i1, i2, q


def covariance_diagnostics_einsum(t, cfg, normals=None):
    """``mc.covariance_diagnostics`` with the dilation conjugation as the
    three-operand einsum diag(dil) @ C^1 @ diag(dil) it once ran."""
    c_t, i1, i2, q = mc._covariance_matrices(t, mc._blocks(cfg, 2, normals))
    det_direct = np.linalg.det(c_t[:, :3, :3])
    det_formula = t * t * q - t * i1 * i1 - t * i2 * i2
    scale = np.maximum(np.abs(det_formula), 1e-300)
    n = cfg.n_paths
    c_1, *_ = mc._covariance_matrices(1.0, mc._blocks(cfg, 2, path_start=n))
    dil = np.diag([math.sqrt(t), math.sqrt(t), t, t])
    conj = np.einsum("ij,njk,kl->nil", dil, c_1, dil)
    se_t = c_t.std(axis=0, ddof=1) / math.sqrt(n)
    se_conj = conj.std(axis=0, ddof=1) / math.sqrt(n)
    denom = np.sqrt(se_t**2 + se_conj**2)
    diff = np.abs(c_t.mean(axis=0) - conj.mean(axis=0))
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(denom > 0.0, diff / denom, np.where(diff > 1e-12, np.inf, 0.0))
    return mc.CovarianceReport(
        max_det_rel_error=float(np.max(np.abs(det_direct - det_formula) / scale)),
        e0_max_abs=float(np.max(np.abs(c_t[:, 3, :])) + np.max(np.abs(c_t[:, :, 3]))),
        positivity_fraction=float(np.mean(det_formula > 0.0)),
        scaling_max_z=float(np.max(z)),
    )


def lyndon_count(ctx):
    """Number of nonempty basis words strictly below each of their proper rotations."""
    return sum(1 for w in ctx.basis if w and all(w < w[i:] + w[:i] for i in range(1, len(w))))


def property_checks_per_sample(d, m, seed=0):
    """The property registry one sample at a time, through the element-level
    algebra API: [(name, max_error, tolerance)] in registry order.  Each input
    is drawn by the registry's generator calls, in its order, and sample j
    reads column j; the Lie-span rows stack their per-sample vectors into the
    registry's one least-squares solve."""
    n_samples = 20
    ctx = algebra.context(d, m)
    lie = algebra.lie_basis(ctx)
    rng = np.random.default_rng(seed)
    A = algebra

    def elements(scale=1.0):
        keep = rng.random((ctx.dim, n_samples)) < 0.6
        coeffs = np.where(keep, scale * rng.uniform(-1.0, 1.0, (ctx.dim, n_samples)), 0.0)
        return [A.from_dense(ctx, col) for col in coeffs.T]

    def lie_elements(scale=1.0):
        coords = rng.uniform(-1.0, 1.0, (lie.dim, n_samples))
        out = []
        for j in range(n_samples):
            elt = A.zero(ctx)
            for c, basis_elt in zip(coords[:, j], lie.elements):
                elt = elt + float(scale * c) * basis_elt
            out.append(elt)
        return out

    def random_paths(n_segments=3, horizon=1.0):
        return [paths.from_increments(horizon, inc) for inc in rng.uniform(-0.8, 0.8, (n_samples, n_segments, d + 1))]

    results = []

    err = 0.0
    for x, y, z in zip(elements(), elements(), elements()):
        err = max(err, A.max_abs_diff(A.mul(A.mul(x, y), z), A.mul(x, A.mul(y, z))))
    results.append(("mul-associativity", err, 1e-12))

    err = 0.0
    for x, y in zip(elements(), elements()):
        for p in range(m + 1):
            for q in range(m + 1 - p):
                prod = A.mul(x.graded_part(p), y.graded_part(q))
                for w in prod.coeffs:
                    if ctx.degree(w) != p + q:
                        err = max(err, abs(prod.coeffs[w]))
    results.append(("mul-grading", err, 1e-12))

    err = 0.0
    for x, c in zip(elements(scale=0.8), lie_elements(0.7)):
        a = x - x.coeff(()) * A.unit(ctx)
        err = max(err, A.max_abs_diff(A.log(A.exp(a)), a))
        g = A.exp(c)
        err = max(err, A.max_abs_diff(A.exp(A.log(g)), g))
    results.append(("exp-log-roundtrip", err, 1e-12))

    err = 0.0
    for a in lie_elements(0.8):
        err = max(err, A.max_abs_diff(A.mul(A.exp(a), A.exp(-a)), A.unit(ctx)))
    results.append(("exp-inverse", err, 1e-12))

    err = 0.0
    xs, ys = elements(), elements()
    scales = rng.uniform(0.3, 2.0, n_samples), rng.uniform(0.3, 1.5, n_samples), rng.uniform(0.3, 1.5, n_samples)
    for x, y, s, a, b in zip(xs, ys, *scales):
        err = max(err, A.max_abs_diff(A.dilate(s, A.mul(x, y)), A.mul(A.dilate(s, x), A.dilate(s, y))))
        err = max(err, A.max_abs_diff(A.dilate(a, A.dilate(b, x)), A.dilate(a * b, x)))
    results.append(("dilate-homomorphism", err, 1e-12))

    err = 0.0
    for x, y, z in zip(elements(), elements(), elements()):
        err = max(err, A.max_abs_diff(A.bracket(x, y), -A.bracket(y, x)))
        jac = A.bracket(x, A.bracket(y, z)) + A.bracket(y, A.bracket(z, x)) + A.bracket(z, A.bracket(x, y))
        err = max(err, A.max_abs_diff(jac, A.zero(ctx)))
    results.append(("bracket-jacobi", err, 1e-12))

    err, ads = 0.0, []
    for w, g, u, v in zip(lie_elements(), lie_elements(0.5), lie_elements(0.5), lie_elements(0.5)):
        err = max(err, A.max_abs_diff(A.adjoint(A.unit(ctx), w), w))
        g = A.exp(g)
        lhs = A.adjoint(g, A.bracket(u, v))
        rhs = A.bracket(A.adjoint(g, u), A.adjoint(g, v))
        err = max(err, A.max_abs_diff(lhs, rhs))
        ads.append(A.adjoint(g, u))
        err = max(err, abs(ads[-1].coeff(())))
    results.append(("adjoint-bracket-morphism", err, 1e-12))
    results.append(("adjoint-lie-span", checks._max_lie_residual(lie, np.stack([ad.vec for ad in ads], axis=1)), 1e-10))

    err = 0.0
    for t in (0.25, 1.0, 3.0):
        h = A.heat_element(ctx, t)
        err = max(err, abs(h.coeff(()) - 1.0))
        err = max(err, A.max_abs_diff(h, A.dilate(math.sqrt(t), A.heat_element(ctx, 1.0))))
    results.append(("heat-dilate-identity", err, 1e-12))

    results.append(("lie-dimension", float(abs(lie.dim - lyndon_count(ctx))), 0.5))
    logs = [A.log(paths.signature(ctx, p)) for p in random_paths()]
    err = checks._max_lie_residual(lie, np.stack([x.vec for x in logs], axis=1))
    results.append(("signature-group-likeness", err, 1e-10))

    err = 0.0
    for p1, p2 in zip(random_paths(2, 0.6), random_paths(2, 0.4)):
        joint = paths.signature(ctx, concat(p1, p2))
        err = max(err, A.max_abs_diff(joint, A.mul(paths.signature(ctx, p1), paths.signature(ctx, p2))))
    results.append(("chen-multiplicativity", err, 1e-13))

    err = 0.0
    for p in random_paths(2):
        mid = (0.5 * (p.times[0] + p.times[1]), 0.5 * (p.points[0] + p.points[1]))
        refined = paths.PiecewisePath(p.t_end, [(p.times[0], p.points[0]), mid] + list(zip(p.times[1:], p.points[1:])))
        err = max(err, A.max_abs_diff(paths.signature(ctx, p), paths.signature(ctx, refined)))
    results.append(("reparametrization-invariance", err, 1e-13))

    err = 0.0
    for p in random_paths():
        sig1 = paths.signature(ctx, p)
        for t in (0.01, 1.0, 4.0):
            lhs = paths.signature(ctx, paths.scale_path(p, t))
            err = max(err, A.max_abs_diff(lhs, A.dilate(math.sqrt(t), sig1)))
    results.append(("scale-dilate-intertwine", err, 1e-13))
    return [(name, float(err), tol) for name, err, tol in results]
