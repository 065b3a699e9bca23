"""Vector-field systems, deterministic evolution along driving paths, and
bracket decompositions of Greek directions.

Systems are given in Stratonovich form: fields V_0..V_d on R^N, so solving
the SDE along a piecewise-linear path reduces to an ODE whose right-hand side
on each segment is the constant-slope combination of the fields.  Fields and
Jacobians are expected to accept batched states (leading axes broadcast, e.g.
(n, N) arrays indexed as ``y[..., i]``): ``evolve`` moves a batch along one
path, or each row along its own path over shared or per-row knot times
(shorter paths padded after their end with zero-increment segments), so a
level of the cubature tree is one call, and the Monte Carlo oracle
vectorizes over paths.  ``batched`` decides once per call, on N + 1 copies
of the start state, whether a system's fields do: the tree runs
single-state fields row by row, the Monte Carlo oracles refuse them.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import algebra
from .algebra import context
from .errors import (
    BlowUpError,
    ConfigError,
    DirectionNotAttainableError,
    DomainError,
    UnsupportedDegreeError,
    UnsupportedPayoffError,
    check_horizon,
    is_integer,
)

FD_STEP = 1e-5
DEFAULT_STEPS_PER_SEGMENT = 16


@dataclass(frozen=True)
class VectorFieldSystem:
    """d+1 smooth vector fields on R^N defining dY = sum_i V_i(Y) o dB^i."""

    dim: int
    d: int
    fields: tuple
    jacobians: tuple | None = None
    name: str = "custom"

    def __post_init__(self):
        if len(self.fields) != self.d + 1:
            raise ConfigError(f"need d+1={self.d + 1} fields, got {len(self.fields)}")
        if self.jacobians is not None and len(self.jacobians) != self.d + 1:
            raise ConfigError("jacobians, when given, must cover all d+1 fields")

    def field(self, i, y):
        return np.asarray(self.fields[i](np.asarray(y, dtype=float)), dtype=float)

    def jacobian(self, i, y):
        """Analytic Jacobian when available, else central differences."""
        y = np.asarray(y, dtype=float)
        if self.jacobians is not None:
            return np.asarray(self.jacobians[i](y), dtype=float)
        return _fd_jacobian(lambda z: self.field(i, z), y)


def _state_args(system, t, y, v=None):
    """y and v (y if not given) as float vectors: the one check of a state
    and direction, after ``check_horizon(t)``.  Each needs the system's dim
    entries, all finite, else DomainError."""
    check_horizon(t)
    y = np.asarray(y, dtype=float)
    v = y if v is None else np.asarray(v, dtype=float)
    for name, u in (("y", y), ("v", v)):
        if u.shape != (system.dim,):
            raise DomainError(f"{name} has shape {u.shape}, the state dim of {system.name!r} is {system.dim}")
        if not np.all(np.isfinite(u)):
            raise DomainError(f"{name} has a non-finite entry: {u.tolist()}")
    return y, v


def _batched(func, y0, row_shape, error=ConfigError):
    """func if one call on N + 1 copies of the (N,) state y0 returns the same
    ``row_shape`` value on every row without raising or warning, else a loop
    calling func on each row of (n, N) states that raises ``error`` (ConfigError
    for a field, UnsupportedPayoffError for a payoff) if a value does not fill
    ``row_shape``.  N + 1 rows are never one state, nor N rows that
    single-state code could read as one state.  Floating-point warnings do
    not count: a batched field may be singular at y0 (sin(y)/y at 0) and batch."""
    states = np.array([y0] * (len(y0) + 1), dtype=float)
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")  # single-state code often misreads a batch
            value = np.asarray(func(states), dtype=float)
        same_rows = value.tobytes() == value[:1].tobytes() * len(states)  # NaN rows too
        if value.shape == states.shape[:1] + row_shape and same_rows:
            return func
    except (TypeError, ValueError, IndexError, Warning):
        pass

    def rows(y):
        values = [np.asarray(func(row), dtype=float) for row in y]
        for value in values:  # checked before stacking: numpy refuses ragged rows untyped
            if value.size != np.prod(row_shape):
                raise error(f"each state must give a value of shape {row_shape}, got shape {value.shape}")
        return np.array(values).reshape((len(y),) + row_shape)

    return rows


def _scalar_payoff(f, y0):
    """f as a map from (n, N) states to (n,) floats, probed at y0 (``_batched``);
    UnsupportedPayoffError unless it gives one finite float per state."""
    func = _batched(f, y0, (), UnsupportedPayoffError)

    def payoff(states):
        values = np.asarray(func(states), dtype=float)
        if not np.isfinite(values).all():
            raise UnsupportedPayoffError(f"payoff is not finite on {np.sum(~np.isfinite(values))} states")
        return values

    return payoff


def batched(system, y0):
    """system if its fields all take batches of states at y0 (see
    ``_batched``), else a copy whose other fields run row by row.  Jacobians
    are not probed: the copy serves ``evolve``, which calls fields alone, and
    the Monte Carlo oracles probe the analytic Jacobians they evaluate."""
    probes = [lambda y, i=i: system.field(i, y) for i in range(system.d + 1)]
    funcs = [_batched(p, y0, (len(y0),)) for p in probes]
    return system if funcs == probes else replace(system, fields=tuple(funcs))


def _fd_directional(func, y, u):
    """Central difference (func(y + h u) - func(y - h u)) / (2h), h = FD_STEP:
    the derivative of func at y along u, batched over y's leading axes."""
    return (func(y + FD_STEP * u) - func(y - FD_STEP * u)) / (2.0 * FD_STEP)


def _fd_jacobian(func, y):
    """Batched central-difference Jacobian: output shape y.shape + (N,)."""
    y = np.asarray(y, dtype=float)
    return np.stack([_fd_directional(func, y, e) for e in np.eye(y.shape[-1])], axis=-1)


BRACKET_DEPTH = 3  # FieldExpr's nested differences fail deeper; a degree-m decomposition nests m - 2 deep


class FieldExpr:
    """Symbolic combination of the system's fields: base, bracket, or sum.

    Evaluation only needs Jacobian-vector products; analytic Jacobians are
    used for base fields and nested central differences (step 1e-5 per
    nesting level) for derived ones, usable to BRACKET_DEPTH levels.  Every
    expression knows its ``depth``, the brackets nested in it, and one nested
    deeper than BRACKET_DEPTH raises UnsupportedDegreeError when it is built.
    """

    def __init__(self, kind, payload):
        self.kind = kind  # "base" | "bracket" | "sum"
        self.payload = payload
        if kind == "base":
            self.depth = 0
        elif kind == "sum":
            self.depth = max((e.depth for _, e in payload), default=0)
        else:
            self.depth = 1 + max(e.depth for e in payload)
        if self.depth > BRACKET_DEPTH:
            raise UnsupportedDegreeError(f"bracket nests {self.depth} deep, deeper than {BRACKET_DEPTH}")

    @staticmethod
    def base(i):
        return FieldExpr("base", int(i))

    @staticmethod
    def commutator(a, b):
        return FieldExpr("bracket", (as_field_expr(a), as_field_expr(b)))

    @staticmethod
    def combination(terms):
        return FieldExpr("sum", tuple((float(c), as_field_expr(e)) for c, e in terms))

    def value(self, system, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "base":
            return system.field(self.payload, y)
        if self.kind == "sum":
            out = np.zeros_like(y)
            for c, e in self.payload:
                out = out + c * e.value(system, y)
            return out
        a, b = self.payload
        ja = a.jacobian(system, y)
        jb = b.jacobian(system, y)
        av = a.value(system, y)
        bv = b.value(system, y)
        # operator convention: [A,B] acts on f as A(Bf) - B(Af), so the
        # field is dB.A - dA.B; this matches [e_i,e_j] = e_i e_j - e_j e_i
        # under the word <-> operator-composition correspondence
        return _matvec(jb, av) - _matvec(ja, bv)

    def jacobian(self, system, y):
        if self.kind == "base":
            return system.jacobian(self.payload, y)
        if self.kind == "sum":
            y = np.asarray(y, dtype=float)
            out = None
            for c, e in self.payload:
                j = c * e.jacobian(system, y)
                out = j if out is None else out + j
            return out
        return _fd_jacobian(lambda z: self.value(system, z), y)

    def __repr__(self):
        if self.kind == "base":
            return f"V{self.payload}"
        if self.kind == "sum":
            return " + ".join(f"{c}*{e!r}" for c, e in self.payload)
        return f"[{self.payload[0]!r},{self.payload[1]!r}]"


def as_field_expr(obj):
    if isinstance(obj, FieldExpr):
        return obj
    return FieldExpr.base(obj)


def _matvec(mat, vec):
    return np.einsum("...ij,...j->...i", mat, vec)


def bracket_vf(system, a, b, y):
    """Lie bracket [A, B](y) = dB(y) A(y) - dA(y) B(y) of fields or expressions."""
    return FieldExpr.commutator(a, b).value(system, y)


def bracket_evaluate(system, word, y):
    """Right-nested iterated bracket [V_{i1}, [V_{i2}, [..., V_{ik}]...]](y), at most BRACKET_DEPTH deep."""
    if len(word) == 0:
        raise DomainError("bracket evaluation needs a nonempty word")
    expr = FieldExpr.base(word[-1])
    for letter in reversed(word[:-1]):
        expr = FieldExpr.commutator(FieldExpr.base(letter), expr)
    return expr.value(system, y)


def build_bracket_table(system, y, m):
    """{word: bracket vector} for the canonical independent words of degree <= m-1 at y.

    Words come from the Lie basis of the free algebra truncated at m-1 with
    the bare time word (0) removed: the decomposition never uses the drift
    direction, and dependent monomials like (2,1) vs (1,2) are excluded so
    coefficients are canonical.
    """
    if m < 2:
        raise DomainError(f"bracket table needs m >= 2, got m={m}")
    y = np.asarray(y, dtype=float)
    lie = algebra.lie_basis(context(system.d, m - 1))
    return {word: bracket_evaluate(system, word, y) for word in lie.words if word != (0,)}


def decompose_direction(system, y, v, t, m):
    """Solve v = sum_I t^{deg(I)/2} w_I [V_{i1},[...,V_{ik}]...](y) for w.

    Minimal-norm least squares over the canonical bracket words, dropping a
    word whose term |w_I| t^{deg/2} |[V_I](y)| is at most 1e-13 ||v||; raises
    when the residual of the returned coefficients exceeds 1e-8 ||v|| (v is
    outside the bracket span at y), and DomainError for a non-finite column.
    Returns ({word: w_I}, residual).
    """
    check_horizon(t)
    v = np.asarray(v, dtype=float)
    table = build_bracket_table(system, y, m)
    words = list(table)  # lie_basis order: by degree, then by word
    cols = np.column_stack([t ** (algebra.word_degree(w) / 2.0) * table[w] for w in words])
    finite = np.isfinite(cols).all(axis=0)
    if not finite.all():
        raise DomainError(f"bracket field {words[np.argmin(finite)]} is not finite at y={y}, t={t}")
    coeffs, *_ = np.linalg.lstsq(cols, v, rcond=None)
    scale = max(float(np.linalg.norm(v)), 1e-30)
    coeffs[np.abs(coeffs) * np.linalg.norm(cols, axis=0) <= 1e-13 * scale] = 0.0
    residual = float(np.linalg.norm(cols @ coeffs - v))
    if residual > 1e-8 * scale:
        raise DirectionNotAttainableError(
            f"direction residual {residual:.3e} exceeds 1e-8 * ||v||; bracket span does not reach v at y",
            residual=residual,
        )
    return {w: float(c) for w, c in zip(words, coeffs) if c != 0.0}, residual


def lie_direction(ctx, coefficients):
    """Assemble the (un-dilated) Lie element sum_I w_I [e_{i1},[...]] in ctx."""
    out = algebra.zero(ctx)
    for word, c in coefficients.items():
        out = out + c * algebra.bracket_monomial(ctx, word)
    return out


def evolve(system, y0, path, steps_per_segment=DEFAULT_STEPS_PER_SEGMENT):
    """Solve dY = sum_i V_i(Y) dw^i along piecewise-linear paths with fixed-step RK4.

    ``path`` is a ``PiecewisePath`` that every row of y0 follows, or a pair
    ``(times, points)``: a (rows, K+1, d+1) stack of knot points, row r of
    the (rows, N) state y0 following the path through points[r], and knot
    times (K+1,) shared by all rows or (rows, K+1) per row, finite and
    strictly increasing with K >= 1 (else ``DomainError``); either way each
    row gets the bits of its own call.  A shorter path is padded after its
    end with zero-increment segments: their slopes are exactly 0, so a finite
    state comes through unchanged (up to the sign of a zero).  Each linear
    segment contributes the autonomous field sum_i slope_i V_i, integrated
    with `steps_per_segment` classical fourth-order steps, an integer >= 1
    (the tree's default picks it per stage, see ``cubgreeks.greeks``).
    Zero-slope rule: the drift V_0 is always evaluated, and V_i (i >= 1) is
    skipped when its slope is zero on every row of the call.  A single path
    thus never evaluates a field it does not drive, while inside a mixed or
    padded stack a non-finite V_i times a zero slope gives NaN and raises
    ``BlowUpError`` like any other non-finite state.  A field whose first
    value in a call is not of y0's shape raises ``ConfigError`` naming it.
    """
    if not (is_integer(steps_per_segment) and steps_per_segment >= 1):
        raise DomainError(f"steps_per_segment must be an integer >= 1, got {steps_per_segment!r}")
    times, points = path if isinstance(path, tuple) else (path.times, path.points)
    times, points = np.asarray(times, dtype=float), np.asarray(points, dtype=float)
    if points.shape[-1] != system.d + 1:
        raise DomainError(f"path dimension {points.shape[-1]} != d+1 = {system.d + 1}")
    if points.ndim not in (2, 3) or times.shape not in (points.shape[-2:-1], points.shape[:-1]):
        raise DomainError(f"knot times of shape {times.shape} for knot points of shape {points.shape}")
    dts = times[..., 1:, None] - times[..., :-1, None]
    if times.shape[-1] < 2 or not (np.isfinite(times).all() and (dts > 0.0).all()):
        raise DomainError("knot times must be finite and strictly increasing, with at least two knots")
    y = np.asarray(y0, dtype=float).copy()
    if points.ndim == 3 and (y.ndim != 2 or len(points) != len(y)):
        raise DomainError(f"{len(points)} stacked paths for states of shape {y.shape}")

    def checked(i, y):  # a field's first value in the call; numpy would broadcast another shape or refuse it untyped
        value, calls[i] = system.field(i, y), system.field
        if value.shape != y.shape:
            raise ConfigError(f"field V{i} of {system.name!r} gives shape {value.shape} on states of shape {y.shape}")
        return value

    calls = [checked] * (system.d + 1)  # calls[i](i, y) is V_i(y)
    slopes = (points[..., 1:, :] - points[..., :-1, :]) / dts
    for k in range(times.shape[-1] - 1):
        # the step and coefficients as contiguous arrays of the states' shape, numpy's fastest operands here
        h = np.full(y.shape, dts[..., k, :] / steps_per_segment)
        coef = [np.full(y.shape, slopes[..., k, i, None]) for i in range(system.d + 1)]
        driven = [i for i in range(1, system.d + 1) if (slopes[..., k, i] != 0.0).any()]

        def rhs(y):
            out = coef[0] * calls[0](0, y)
            for i in driven:
                out += coef[i] * calls[i](i, y)
            return out

        half, sixth = 0.5 * h, h / 6.0
        for _ in range(steps_per_segment):
            k1 = rhs(y)
            k2 = rhs(y + half * k1)
            k3 = rhs(y + half * k2)
            k1 += 2.0 * k2  # k1 + 2 k2 + 2 k3 + k4, summed left to right in place
            k1 += 2.0 * k3
            k1 += rhs(y + h * k3)
            y = y + sixth * k1
        if not np.isfinite(y).all():
            raise BlowUpError(f"state became non-finite on segment {k}", segment=k)
    return y


def first_variation(system, y0, path, steps_per_segment=DEFAULT_STEPS_PER_SEGMENT):
    """Jacobian J = dY/dy0 of the flow map along the path, J(0) = id.

    ``evolve`` integrates z = (y, J), J row-major after y, on the tangent
    system whose field i maps z to (V_i(y), dV_i(y) J).  An (N,) state gives
    an (N, N) matrix; an (n, N) batch gives (n, N, N).
    """
    y0 = np.asarray(y0, dtype=float)
    n = y0.shape[-1]

    def field(i, z):
        y, J = z[..., :n], z[..., n:].reshape(z.shape[:-1] + (n, n))
        dJ = (system.jacobian(i, y) @ J).reshape(z.shape[:-1] + (n * n,))
        return np.concatenate([system.field(i, y), dJ], axis=-1)

    fields = tuple(lambda z, i=i: field(i, z) for i in range(system.d + 1))
    tangent = VectorFieldSystem(dim=n + n * n, d=system.d, fields=fields, name=f"tangent({system.name})")
    eye = np.broadcast_to(np.eye(n).ravel(), y0.shape[:-1] + (n * n,))
    z = evolve(tangent, np.concatenate([y0, eye], axis=-1), path, steps_per_segment)
    return z[..., n:].reshape(y0.shape[:-1] + (n, n))


def black_scholes(r, sigma):
    """Geometric Brownian motion in Stratonovich form (Ito drift r baked in)."""

    drift = r - 0.5 * sigma * sigma

    def v0(y):
        return drift * y

    def v1(y):
        return sigma * y

    def j0(y):
        return np.full(y.shape + (1,), drift)

    def j1(y):
        return np.full(y.shape + (1,), sigma)

    return VectorFieldSystem(
        dim=1, d=1, fields=(v0, v1), jacobians=(j0, j1), name="black_scholes"
    )


def heisenberg_toy():
    """Hypo-elliptic planar model: V_1 = (1, 0), V_2 = (0, x), V_0 = 0.

    V_1, V_2 fail to span R^2 on {x = 0}, but [V_1, V_2] = (0, 1) does.
    """

    def v0(y):
        return np.zeros(y.shape)

    def v1(y):
        out = np.zeros(y.shape)
        out[..., 0] = 1.0
        return out

    def v2(y):
        out = np.zeros(y.shape)
        out[..., 1] = y[..., 0]
        return out

    def jz(y):
        return np.zeros(y.shape + (2,))

    def j2(y):
        out = np.zeros(y.shape + (2,))
        out[..., 1, 0] = 1.0
        return out

    return VectorFieldSystem(
        dim=2, d=2, fields=(v0, v1, v2), jacobians=(jz, jz, j2), name="heisenberg_toy"
    )


# model name -> (builder, names of the float parameters it takes)
MODEL_BUILDERS = {
    "black_scholes": (black_scholes, ("r", "sigma")),
    "heisenberg_toy": (heisenberg_toy, ()),
}


def model_config(config):
    """Parse {"model": name, "params": {...}}, or a JSON file of it, to
    {"model": name, "params": {param: float}} with the model's own params.

    Other params are ignored; anything malformed raises ConfigError.
    """
    if isinstance(config, str):
        try:
            with open(config) as fh:
                config = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"model file not found: {config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict) or not isinstance(config.get("params", {}), dict):
        raise ConfigError('model config must look like {"model": name, "params": {...}}')
    name = config.get("model")
    if not isinstance(name, str) or name not in MODEL_BUILDERS:
        raise ConfigError(f"unknown model {name!r}; known: {sorted(MODEL_BUILDERS)}")
    params, raw = {}, config.get("params", {})
    for key in MODEL_BUILDERS[name][1]:
        if key not in raw:
            raise ConfigError(f"model {name!r} missing parameter {key!r}")
        try:
            params[key] = float(raw[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"model {name!r} parameter {key!r} is not a number: {raw[key]!r}") from exc
        if not np.isfinite(params[key]):
            raise ConfigError(f"model {name!r} parameter {key!r} is not finite: {raw[key]!r}")
    return {"model": name, "params": params}


def load_model(config):
    """Build a system from {"model": name, "params": {...}} or a JSON file path."""
    config = model_config(config)
    return MODEL_BUILDERS[config["model"]][0](**config["params"])
