"""Piecewise-linear driving paths and their truncated signatures.

A path maps [0, t_end] into R^{d+1}; component 0 is the time-like coordinate.
On a linear segment every iterated integral collapses, so the segment
signature is the exponential of the increment and the full signature is the
ordered product of segment exponentials (Chen's relation), folded by
``AlgebraContext.chen``, which the signature Monte Carlo runs too.
Signatures of piecewise-linear paths are therefore exact up to truncation.
``knot_stack`` alone lays a list of paths out as arrays, padded to the longest,
and ``signatures`` folds such an (n, K+1, d+1) knot-point stack in one batch.
``scale_knots`` alone carries horizon-1 knots to a horizon t (paths, tree levels).
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra
from .errors import DomainError, InvalidPathError, check_horizon


class PiecewisePath:
    """Ordered knots (s_k, x_k) with s_0 = 0 and s_last = t_end, joined linearly."""

    __slots__ = ("t_end", "times", "points")

    def __init__(self, t_end, knots):
        times = np.asarray([float(s) for s, _ in knots])
        points = np.asarray([np.asarray(x, dtype=float) for _, x in knots])
        self._set(t_end, times, points)

    @classmethod
    def _from_arrays(cls, t_end, times, points):
        """The path with knot times (K+1,) and points (K+1, d+1), float arrays
        that it takes over and makes read-only, under the same checks."""
        path = cls.__new__(cls)
        path._set(t_end, times, points)
        return path

    def _set(self, t_end, times, points):
        if points.ndim != 2 or points.shape[1] < 1 or times.shape != points.shape[:1]:
            raise InvalidPathError("knot points must be equal-length vectors, one per knot time")
        if len(times) < 2:
            raise InvalidPathError("need at least two knots")
        if not (np.isfinite(times).all() and np.isfinite(points).all()):
            raise InvalidPathError("non-finite knot data")
        if times[0] != 0.0:
            raise InvalidPathError(f"first knot time must be 0, got {times[0]}")
        if abs(times[-1] - t_end) > 1e-12 * max(1.0, abs(t_end)):
            raise InvalidPathError(f"last knot time {times[-1]} != t_end {t_end}")
        if np.any(times[1:] <= times[:-1]):
            raise InvalidPathError("knot times must be strictly increasing")
        times.setflags(write=False)
        points.setflags(write=False)
        self.t_end = float(t_end)
        self.times = times
        self.points = points

    @property
    def dim(self):
        """Ambient dimension d+1 (component 0 is time-like)."""
        return self.points.shape[1]

    @property
    def n_segments(self):
        return len(self.times) - 1

    def increments(self):
        return np.diff(self.points, axis=0)

    def __eq__(self, other):
        return (
            isinstance(other, PiecewisePath)
            and self.t_end == other.t_end
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.points, other.points)
        )

    def __repr__(self):
        return f"PiecewisePath(t_end={self.t_end}, knots={len(self.times)}, dim={self.dim})"


def from_increments(t_end, increments):
    """Path through cumulative increments at equally spaced knot times."""
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    k = len(increments)
    points = np.vstack([np.zeros(increments.shape[1]), np.cumsum(increments, axis=0)])
    return PiecewisePath._from_arrays(t_end, np.linspace(0.0, t_end, k + 1), points)


def line_path(t_end, increment):
    """Straight line from the origin with the given total increment."""
    return from_increments(t_end, [np.asarray(increment, dtype=float)])


def segment_signature(ctx, increment):
    """exp(sum_i dw^i e_i) for a single linear segment.

    At m=1 every word containing the time letter exceeds the truncation
    degree, so the e_0 component drops out.
    """
    increment = np.asarray(increment, dtype=float)
    if len(increment) != ctx.d + 1:
        raise InvalidPathError(f"increment has {len(increment)} components, need d+1={ctx.d + 1}")
    return algebra.from_dense(ctx, ctx.segment_exp(increment))


def signature(ctx, path):
    """Truncated signature: the context's Chen fold over the segments in knot order."""
    return algebra.from_dense(ctx, signatures(ctx, path.points[None])[:, 0])


def knot_stack(path_list, dim):
    """Knot times (n, K+1) and points (n, K+1, dim) of paths of dimension dim, K the most segments;
    a shorter path ends in zero-increment segments at 2, 3, .. x its end, which keep the bits of
    its signature but for -0.0, which becomes 0.0."""
    n, longest = len(path_list), max((p.n_segments for p in path_list), default=1)
    times, points = np.empty((n, longest + 1)), np.empty((n, longest + 1, dim))
    for j, path in enumerate(path_list):
        if path.dim != dim:
            raise InvalidPathError(f"path {j} has dimension {path.dim} != {dim}")
        k = path.n_segments + 1
        times[j, :k], points[j, :k] = path.times, path.points
        times[j, k:], points[j, k:] = path.times[-1] * np.arange(2, longest + 3 - k), path.points[-1]
    return times, points


def signatures(ctx, points):
    """Signatures as a (dim, n) array, one column per row of a knot-point stack (n, K+1, d+1),
    from one batched Chen fold; each column is bitwise its row's own fold."""
    shape = getattr(points, "shape", None)
    if len(shape or ()) != 3 or shape[1] < 2 or shape[2] != ctx.d + 1 or not np.isfinite(points).all():
        raise InvalidPathError(f"knot stack of shape {shape}: need a finite array (n, K+1 >= 2, d+1 = {ctx.d + 1})")
    return ctx.chen(np.diff(points, axis=1).transpose(2, 1, 0))


def scale_knots(times, points, t):
    """Horizon-1 knot times (..., K+1) and points (..., K+1, d+1) at horizon t, as new arrays:
    times and component 0 scale by t, space by sqrt(t), so signatures dilate by sqrt(t)."""
    points = points.copy()
    points[..., 0] *= t
    points[..., 1:] *= math.sqrt(t)
    return times * t, points


def scale_path(path, t):
    """Carry a horizon-1 path to horizon t by ``scale_knots`` (the path itself at t = 1)."""
    check_horizon(t)
    if abs(path.t_end - 1.0) > 1e-12:
        raise DomainError(f"scale_path expects a horizon-1 path, got t_end={path.t_end}")
    if t == 1.0:
        return path
    return PiecewisePath._from_arrays(t, *scale_knots(path.times, path.points, t))


def path_to_dict(path):
    return {
        "t_end": path.t_end,
        "knots": [
            {"s": float(s), "x": [float(v) for v in x]}
            for s, x in zip(path.times, path.points)
        ],
    }


def path_from_dict(data):
    knots = [(item["s"], item["x"]) for item in data["knots"]]
    return PiecewisePath(float(data["t_end"]), knots)
