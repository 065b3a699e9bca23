"""Per-module tracing from outside the program.

``install`` wraps every public function of the cubgreeks modules, plus
``VectorFieldSystem.field``/``jacobian`` and the arithmetic of
``TensorElement``, and rebinds each wrapper under every name that callers
look up (``mc.normal_increments`` as well as ``rng.normal_increments``,
``greeks.line_path``, the package re-exports).  ``uninstall`` puts the
originals back.  Wrappers call straight through unless ``Tracer.active`` is
set, so the benchmark's own reference checks stay outside every span.

A span has a name, a start, an end and a parent; a module's self time is the
duration of its spans minus the time their child spans cover.  Calls to the
hot leaves (``field``, ``jacobian``) are counted and timed but not kept as
span records.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import defaultdict

import cubgreeks
from cubgreeks.cubature import CubatureFormula, GreeksFormula
from cubgreeks.errors import CubatureError

LAYERS = ("algebra", "paths", "cubature", "sde", "greeks", "mc", "rng", "checks", "cli")

# inclusive-time metrics: a call adds its duration unless an enclosing call of
# the same metric is already open
TIME_GROUPS = {
    "sde.evolve_s": ("sde.evolve",),
    "sde.decompose_s": ("sde.decompose_direction",),
    "greeks.formula_build_s": ("greeks.build_greek_formula", "greeks.expectation_formula"),
    "cubature.solve_s": ("cubature.greeks_solve", "cubature.expectation_solve"),
    "cubature.verify_s": ("cubature.verify_moments", "cubature.max_residual"),
    "paths.signature_s": ("paths.signature",),
    "algebra.mul_s": ("algebra.mul",),
    "algebra.exp_s": ("algebra.exp",),
    "algebra.log_s": ("algebra.log",),
    "mc.sigexp_s": ("mc.signature_expectation_stats", "mc.signature_expectation_mc"),
    "mc.covariance_s": ("mc.covariance_diagnostics", "mc.covariance_samples"),
    "mc.malliavin_s": ("mc.malliavin_delta_m1", "mc.simple_weight_delta_m1"),
    "mc.euler_s": ("mc.euler_expectation", "mc.fd_greek"),
    "rng.normal_s": ("rng.normal_increments",),
}

FORMULA_TYPES = (CubatureFormula, GreeksFormula)

LEAVES = {"sde.VectorFieldSystem.field", "sde.VectorFieldSystem.jacobian"}

METHODS = (
    ("sde", "VectorFieldSystem", ("field", "jacobian")),
    ("algebra", "TensorElement", ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "graded_part")),
)


def _rows(y):
    shape = getattr(y, "shape", ())
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


class Tracer:
    """Span bookkeeping for one traced pass: self times, inclusive times, counts."""

    def __init__(self):
        self.active = False
        self.recording = False
        self.spans = []  # (id, parent id, name, start, end) while recording
        self._next_id = 1
        self._stack = []  # open frames: [start, child seconds, span id]
        self._depth = defaultdict(int)  # open calls per layer and per time group
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.times = defaultdict(float)
        self.counts = defaultdict(int)

    def snapshot(self):
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({name: self.times[name] for name in TIME_GROUPS})
        out.update(self.counts)
        return out

    def wrap(self, layer, key, fn):
        if key in LEAVES:
            return self._wrap_leaf(layer, key, fn)
        groups = tuple(g for g, keys in TIME_GROUPS.items() if key in keys)
        counter = COUNTERS.get(key)
        formulas = layer == "cubature"
        tracer = self
        depth = self._depth
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][2] if stack else 0
            depth[layer] += 1
            for g in groups:
                depth[g] += 1
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                tracer.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                depth[layer] -= 1
                for g in groups:
                    depth[g] -= 1
                    if depth[g] == 0:
                        tracer.times[g] += duration
                if formulas and depth[layer] == 0:
                    if isinstance(result, FORMULA_TYPES):
                        tracer.counts["cubature.formulas"] += 1
                    elif isinstance(error, CubatureError):
                        tracer.counts["cubature.errors"] += 1
                if counter is not None and error is None:
                    counter(tracer.counts, fn, args, kwargs, result)
                if tracer.recording:
                    tracer.spans.append((sid, parent, key, frame[0], end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _wrap_leaf(self, layer, key, fn):
        """Hot calls: timed and counted, no span record."""
        counter = COUNTERS.get(key)
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0, 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                tracer.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if counter is not None:
                    counter(tracer.counts, fn, args, kwargs, None)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced


def _count_field(counts, fn, args, kwargs, result):
    counts["sde.field_calls"] += 1
    counts["sde.field_rows"] += _rows(args[2] if len(args) > 2 else kwargs["y"])


def _count_solve(counts, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    counts["cubature.candidates"] += len(bound["dictionary"])
    counts["cubature.kept"] += len(result.items)


def _count_draws(counts, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    counts["mc.path_steps"] += bound["n_paths"] * bound["n_steps"]
    counts["rng.draws"] += bound["n_paths"] * bound["n_steps"] * bound["d"]


def _count_tree(counts, fn, args, kwargs, result):
    counts["greeks.calls"] += 1
    counts["greeks.leaves"] += result.paths_evaluated


def _count_calls(name):
    def count(counts, fn, args, kwargs, result):
        counts[name] += 1

    return count


COUNTERS = {
    "sde.VectorFieldSystem.field": _count_field,
    "sde.evolve": _count_calls("sde.evolve_calls"),
    "greeks.greek_iterated": _count_tree,
    "cubature.greeks_solve": _count_solve,
    "cubature.expectation_solve": _count_solve,
    "paths.signature": _count_calls("paths.signature_calls"),
    "algebra.mul": _count_calls("algebra.mul_calls"),
    "rng.normal_increments": _count_draws,
}


def _public_functions(module):
    """Functions defined in the module, ``lru_cache`` wrappers included."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def install(tracer):
    """Wrap and rebind; returns the list of patches for ``uninstall``."""
    modules = {layer: importlib.import_module(f"cubgreeks.{layer}") for layer in LAYERS}
    namespaces = [cubgreeks, *modules.values()]
    patches = []
    for layer, module in modules.items():
        for name, fn in list(_public_functions(module)):
            wrapper = tracer.wrap(layer, f"{layer}.{name}", fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        patches.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)
    for layer, cls_name, names in METHODS:
        cls = getattr(modules[layer], cls_name)
        for name in names:
            fn = cls.__dict__[name]
            patches.append((cls, name, fn))
            setattr(cls, name, tracer.wrap(layer, f"{layer}.{cls_name}.{name}", fn))
    return patches


def uninstall(patches):
    for target, attr, original in reversed(patches):
        setattr(target, attr, original)
