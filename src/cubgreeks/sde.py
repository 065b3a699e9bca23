"""Vector-field systems, deterministic evolution along driving paths, and
bracket decompositions of Greek directions.

Systems are given in Stratonovich form: fields V_0..V_d on R^N, so solving
the SDE along a piecewise-linear path reduces to an ODE whose right-hand side
on each segment is the constant-slope combination of the fields.  Fields and
Jacobians are expected to accept batched states (leading axes broadcast, e.g.
(n, N) arrays indexed as ``y[..., i]``): ``evolve`` integrates a whole level
of the cubature tree in one call and the Monte Carlo oracle vectorizes over
paths.  Fields that only take a single (N,) state still work in the tree,
which evolves them one row at a time; the Monte Carlo oracles refuse them.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import context
from .errors import (
    BlowUpError,
    ConfigError,
    DirectionNotAttainableError,
    DomainError,
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

    def has_analytic_jacobians(self):
        return self.jacobians is not None


def _batched_call(func, states, row_shape):
    """func(states) when func evaluates (n, N) states row by row, else None.

    The call counts as row-wise when func maps the batch, and its first row as
    a one-row batch, to one value of shape ``row_shape`` per row without
    raising or warning.  The one-row probe catches code written for a single
    state that looks batched when n == N: there ``y[0]`` reads a whole row.
    """
    try:
        with warnings.catch_warnings():
            # single-state code often misreads a batch as one state
            warnings.simplefilter("error")
            for batch in (states[:1], states):
                value = np.asarray(func(batch), dtype=float)
                if value.shape != (len(batch),) + row_shape:
                    return None
    except (TypeError, ValueError, IndexError, Warning):
        return None
    return value


def _fields_take_batches(system, states, jacobians=False):
    """Whether every field, and with ``jacobians`` every Jacobian, evaluates
    the (n, N) states row by row (see ``_batched_call``)."""
    row = states.shape[1:]
    calls = [(lambda y, i=i: system.field(i, y), row) for i in range(system.d + 1)]
    if jacobians:
        calls += [(lambda y, i=i: system.jacobian(i, y), row + row[-1:]) for i in range(system.d + 1)]
    return all(_batched_call(func, states, shape) is not None for func, shape in calls)


def _fd_jacobian(func, y, h=FD_STEP):
    """Batched central-difference Jacobian: output shape y.shape + (N,)."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    cols = []
    for k in range(n):
        dy = np.zeros_like(y)
        dy[..., k] = h
        cols.append((func(y + dy) - func(y - dy)) / (2.0 * h))
    return np.stack(cols, axis=-1)


class FieldExpr:
    """Symbolic combination of the system's fields: base, bracket, or sum.

    Evaluation only needs Jacobian-vector products; analytic Jacobians are
    used for base fields and nested central differences (step 1e-5 per
    nesting level) for derived ones, which keeps finite-difference bracket
    depth usable to about three levels.
    """

    def __init__(self, kind, payload):
        self.kind = kind  # "base" | "bracket" | "sum"
        self.payload = payload

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
    """Lie bracket [A, B](y) = dA(y) B(y) - dB(y) A(y) of fields or expressions."""
    return FieldExpr.commutator(a, b).value(system, y)


def bracket_evaluate(system, word, y):
    """Right-nested iterated bracket [V_{i1}, [V_{i2}, [..., V_{ik}]...]](y)."""
    if len(word) == 0:
        raise DomainError("bracket evaluation needs a nonempty word")
    expr = FieldExpr.base(word[-1])
    for letter in reversed(word[:-1]):
        expr = FieldExpr.commutator(FieldExpr.base(letter), expr)
    return expr.value(system, y)


@dataclass(frozen=True)
class BracketTable:
    """Iterated-bracket evaluations at a base point, keyed by word."""

    y: np.ndarray
    entries: dict  # word -> R^N vector


def build_bracket_table(system, y, m):
    """Evaluate the canonical independent bracket words of degree <= m-1 at y.

    Words come from the Lie basis of the free algebra truncated at m-1 with
    the bare time word (0) removed: the decomposition never uses the drift
    direction, and dependent monomials like (2,1) vs (1,2) are excluded so
    coefficients are canonical.
    """
    if m < 2:
        raise DomainError(f"bracket table needs m >= 2, got m={m}")
    y = np.asarray(y, dtype=float)
    lie = algebra.lie_basis(context(system.d, m - 1))
    entries = {}
    for word in lie.words:
        if word == (0,):
            continue
        entries[word] = bracket_evaluate(system, word, y)
    return BracketTable(y, entries)


def decompose_direction(system, y, v, t, m):
    """Solve v = sum_I t^{deg(I)/2} w_I [V_{i1},[...,V_{ik}]...](y) for w.

    Minimal-norm least squares over the canonical bracket words; raises when
    the residual exceeds 1e-8 * ||v|| (the direction is outside the span the
    bracket condition provides at y).  Returns ({word: w_I}, residual).
    """
    if t <= 0.0:
        raise DomainError(f"horizon must be positive, got {t}")
    v = np.asarray(v, dtype=float)
    table = build_bracket_table(system, y, m)
    words = sorted(table.entries, key=lambda w: (algebra.word_degree(w), w))
    if not words:
        raise DirectionNotAttainableError("no bracket words available", residual=float(np.linalg.norm(v)))
    cols = np.column_stack(
        [t ** (algebra.word_degree(w) / 2.0) * table.entries[w] for w in words]
    )
    coeffs, *_ = np.linalg.lstsq(cols, v, rcond=None)
    residual = float(np.linalg.norm(cols @ coeffs - v))
    scale = max(float(np.linalg.norm(v)), 1e-30)
    if residual > 1e-8 * scale:
        raise DirectionNotAttainableError(
            f"direction residual {residual:.3e} exceeds 1e-8 * ||v||; "
            "bracket span does not reach v at y",
            residual=residual,
        )
    out = {w: float(c) for w, c in zip(words, coeffs) if abs(c) > 1e-13 * max(1.0, scale)}
    return out, residual


def lie_direction(ctx, coefficients):
    """Assemble the (un-dilated) Lie element sum_I w_I [e_{i1},[...]] in ctx."""
    out = algebra.zero(ctx)
    for word, c in coefficients.items():
        out = out + c * algebra.bracket_monomial(ctx, word)
    return out


def evolve(system, y0, path, steps_per_segment=DEFAULT_STEPS_PER_SEGMENT):
    """Solve dY = sum_i V_i(Y) dw^i along the path with fixed-step RK4.

    Each linear segment contributes the autonomous field sum_i slope_i V_i,
    integrated with `steps_per_segment` classical fourth-order steps.
    """
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
        return np.zeros_like(y)

    def v1(y):
        out = np.zeros_like(y)
        out[..., 0] = 1.0
        return out

    def v2(y):
        out = np.zeros_like(y)
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
    return {"model": name, "params": params}


def load_model(config):
    """Build a system from {"model": name, "params": {...}} or a JSON file path."""
    config = model_config(config)
    return MODEL_BUILDERS[config["model"]][0](**config["params"])
