"""cubgreeks benchmark: one workload per process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` next to
this directory.  Inputs come from ``--seed`` only.  The run repeats passes of
the workload for ``--seconds`` (the first pass always completes), checks
every output against its reference, and prints one JSON line of details,
then the result line ``{"correct", "attempted", "failed", "metrics"}``.
See bench/README.md for the workloads and metrics.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs each pass untraced and then traced with the same inputs,
requires bitwise-equal outputs, and reports the per-layer metrics; the
traced pass-0 spans go to ``bench/out/``, one JSON list
``[id, parent id, name, start, end]`` per line.
"""

from __future__ import annotations

import os

# pinned before numpy loads: cubature calls lstsq, qr and nnls
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
# the program sees only the generated inputs, never flags from the environment
for _name in [n for n in os.environ if n.startswith("CUBGREEKS_")]:
    del os.environ[_name]

import argparse
import gzip
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 40

# On a shared VM other tenants can slow this process down for tens of
# seconds at a time, and the guest sees no steal time.  Interpreter-bound
# code slows about 2x, vectorised numpy code about 1.1x.  For workloads whose
# ops are interpreter-bound, a short fixed loop of the same kind runs between
# ops and, every SAMPLE_INTERVAL_S, during them.  Times are reported at the
# speed where that loop takes CALIBRATION_REF_S (its quiet cost on the
# 2-vCPU Xeon box the bounds were set on):
#     reported = measured * REF * mean(1 / loop time)
# over the loops around and inside the op.  On hypo_greek_grid the
# op-to-loop ratio stayed within 2% while the measured op time doubled.
CALIBRATION_REF_S = 2.2e-3
SAMPLE_INTERVAL_S = 0.2


def calibration_s():
    """One run of the fixed loop: Python float arithmetic and tiny numpy calls."""
    y = np.ones(1)
    acc = 0.0
    start = time.perf_counter()
    for i in range(2000):
        acc += i * 0.5
        y = y + 1e-3 * y
    return time.perf_counter() - start


def speed_corrected(seconds, calibrations):
    """Seconds at the quiet speed, each loop time standing for an equal slice."""
    return seconds * CALIBRATION_REF_S * statistics.fmean(1.0 / c for c in calibrations)


class CalibrationSampler:
    """Times the calibration loop every SAMPLE_INTERVAL_S while an op runs.

    Ops of several seconds outlast the contention episodes, so the loops just
    before and after them miss how fast the machine ran in between.  A
    SIGALRM handler runs the loop in the main thread between bytecodes; it
    touches no program state, and its time is taken out of the op's.
    """

    def __init__(self):
        self.samples = None
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self.samples is not None:
            self.samples.append(calibration_s())

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples, self.samples = self.samples, None
        return samples


def load_program():
    """Import cubgreeks from this checkout's src/, or exit with an error."""
    if not (SRC / "cubgreeks" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}/cubgreeks")
    sys.path.insert(0, str(SRC))
    import cubgreeks

    if Path(cubgreeks.__file__).resolve().parent != SRC / "cubgreeks":
        sys.exit(f"error: imported cubgreeks from {cubgreeks.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload_cls, seed):
    """Everything before the first timed op: inputs, model files, warm-up."""
    OUT_DIR.mkdir(exist_ok=True)
    workload = workload_cls(OUT_DIR)
    workload.ops(seed, 0)
    op = workload.warmup(seed)
    return workload, run_op(workload, op)[2]


def probe_setup_seconds(args):
    """A fresh process's time from start to ready: (measured, speed-corrected).

    The probe times the calibration loop itself, on the CPU it ran on.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    calibrations = json.loads(proc.stdout.splitlines()[-1])
    elapsed -= sum(calibrations)
    return elapsed, speed_corrected(elapsed, calibrations)


def run_op(workload, op, tracer=None, sampler=None):
    """Call and check one op: (latency, loop times taken during it, outcome)."""
    from workloads import Outcome

    inner, outcome = [], None
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        raw = workload.call(op)
    except Exception as exc:  # a failed op is counted, the pass goes on
        outcome = Outcome(f"raised {type(exc).__name__}", None, f"{op.label}: {type(exc).__name__}: {exc}")
    finally:
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if sampler is not None:
            inner = sampler.stop()
    latency -= sum(inner)
    if outcome is None:
        try:
            outcome = workload.check(op, raw)
        except Exception as exc:
            outcome = Outcome(f"check raised {type(exc).__name__}", None, f"{op.label}: check: {exc!r}")
    return latency, inner, outcome


def run_pass(workload, ops, tracer=None, sampler=None, deadline=None):
    """Run the ops, stopping early once ``deadline`` has passed.

    For interpreter-bound workloads the calibration loop runs between ops,
    and during them when a sampler is given.  Returns measured latencies,
    speed-corrected latencies, outcomes and the pass's speed factor
    (seconds at the quiet speed per measured second).
    """
    calibrate = workload.interpreter_bound
    if not calibrate:
        sampler = None
    before = calibration_s() if calibrate else CALIBRATION_REF_S
    everything = [before]
    latencies, corrected, outcomes = [], [], []
    for op in ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        latency, inner, outcome = run_op(workload, op, tracer, sampler)
        after = calibration_s() if calibrate else CALIBRATION_REF_S
        latencies.append(latency)
        corrected.append(speed_corrected(latency, [before, *inner, after]))
        outcomes.append(outcome)
        everything += [*inner, after]
        before = after
    return latencies, corrected, outcomes, speed_corrected(1.0, everything)


def digest(outcomes):
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome.output.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile is at or under the median, so the
    maximum is reported as the 100th percentile instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_PINS,
    }


def record_failures(outcomes, failures):
    failures.extend(o.reason for o in outcomes if o.error is None)


def measure(args, spec, workload_cls):
    """Untraced passes: the end-to-end metrics."""
    probes = [probe_setup_seconds(args) for _ in range(SETUP_PROBES)]
    workload, warm = setup(workload_cls, args.seed)
    failures = []
    record_failures([warm], failures)
    attempted = 1
    latencies, raw_latencies, digests, complete = [], [], [], []
    by_label = {}
    sampler = CalibrationSampler()
    deadline = time.perf_counter() + args.seconds
    pass_index = 0
    while pass_index == 0 or time.perf_counter() < deadline:
        ops = workload.ops(args.seed, pass_index)
        # the first pass always completes; later ones stop at the deadline
        raw, corrected, outcomes, _ = run_pass(
            workload, ops, sampler=sampler, deadline=deadline if pass_index else None
        )
        if len(outcomes) == len(ops):
            complete.append(ops)
        ops = ops[:len(outcomes)]
        latencies.extend(corrected)
        raw_latencies.extend(raw)
        for op, lat in zip(ops, corrected):
            by_label.setdefault(op.label, []).append(lat)
        attempted += len(ops)
        record_failures(outcomes, failures)
        if pass_index == 0:  # every run completes pass 0, so this repeats exactly
            errors = [o.error for o in outcomes if o.error is not None]
        digests.append(digest(outcomes))
        pass_index += 1
    tail_s, tail_pct = tail(latencies)
    # Each op of the complete passes stands for the median of its op class:
    # where the median falls in a mixed pass then does not depend on how
    # many passes fit.
    class_median = {label: statistics.median(v) for label, v in by_label.items()}
    typical = [class_median[op.label] for ops in complete for op in ops]
    metrics = {
        "wall_s": sum(typical) / len(complete),
        "op_p50_ms": 1000.0 * statistics.median(typical),
        "op_tail_ms": 1000.0 * tail_s,
        "setup_s": statistics.median(corrected for _, corrected in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": pass_index,
        "ops": len(latencies),
        "op_tail_percentile": tail_pct,
        "op_p50_ms_by_label": {k: 1000.0 * v for k, v in sorted(class_median.items())},
        "measured": {
            "ops_s": sum(raw_latencies),
            "op_p50_ms": 1000.0 * statistics.median(raw_latencies),
            "op_tail_ms": 1000.0 * tail(raw_latencies)[0],
            "setup_s": [measured for measured, _ in probes],
        },
        "setup_s": [corrected for _, corrected in probes],
        "max_abs_error_pass0": max(errors, default=None),
        "failed_frac": len(failures) / attempted,
        "digests": digests,
    }
    return metrics, detail, attempted, failures


def measure_traced(args, spec, workload_cls):
    """Each pass untraced, then traced on the same inputs: per-layer metrics."""
    import tracing

    workload, warm = setup(workload_cls, args.seed)
    tracer = tracing.Tracer()
    failures = []
    record_failures([warm], failures)
    attempted = 1
    snapshots, ratios, unaccounted, traced_walls, digests = [], [], [], [], []
    seconds = {m["name"] for m in spec["per_layer"] if m["unit"] == "s"}
    start = time.perf_counter()
    pass_index = 0
    while pass_index == 0 or time.perf_counter() - start < args.seconds:
        ops = workload.ops(args.seed, pass_index)
        _, plain_lats, plain, _ = run_pass(workload, ops)
        tracer.reset()
        tracer.recording = pass_index == 0
        patches = tracing.install(tracer)
        try:
            traced_raw, traced_lats, traced, factor = run_pass(workload, ops, tracer)
        finally:
            tracing.uninstall(patches)
            tracer.recording = False
        attempted += 2 * len(ops)
        record_failures(plain, failures)
        record_failures(traced, failures)
        failures.extend(
            f"{op.label}: traced output differs from untraced"
            for op, a, b in zip(ops, plain, traced)
            if a.output != b.output
        )
        # layer times at the same reference speed as the end-to-end metrics
        snap = {
            name: value * factor if name in seconds else value
            for name, value in tracer.snapshot().items()
        }
        snapshots.append(snap)
        self_total = sum(snap[f"{layer}.self_s"] for layer in tracing.LAYERS)
        unaccounted.append(sum(traced_raw) * factor - self_total)
        ratios.append(sum(traced_lats) / sum(plain_lats))
        traced_walls.append(sum(traced_raw) * factor)
        digests.append(digest(traced))
        pass_index += 1

    first = snapshots[0]
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if entry["unit"] == "s" and name != "trace.unaccounted_s":
            metrics[name] = statistics.median(s[name] for s in snapshots)
        elif entry["unit"] == "count":
            metrics[name] = first.get(name, 0)
    candidates = first.get("cubature.candidates", 0)
    metrics["cubature.kept_ratio"] = first.get("cubature.kept", 0) / candidates if candidates else 0.0
    metrics["trace.overhead"] = statistics.median(ratios)
    metrics["trace.unaccounted_s"] = statistics.median(unaccounted)
    wall = statistics.median(traced_walls)
    detail = {
        "passes": len(snapshots),
        "traced_wall_s": wall,
        "self_share": {layer: metrics[f"{layer}.self_s"] / wall for layer in tracing.LAYERS},
        "unaccounted_share": metrics["trace.unaccounted_s"] / wall,
        "inclusive_share": {name: metrics[name] / wall for name in tracing.TIME_GROUPS},
        "spans_recorded": len(tracer.spans),
        "digests": digests,
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    with gzip.open(spans_file, "wt") as fh:
        for sid, parent, name, begin, end in tracer.spans:
            fh.write(json.dumps([sid, parent, name, begin, end]) + "\n")
    return metrics, detail, attempted, failures


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        calibrations = [calibration_s() for _ in range(3)]
        sampler = CalibrationSampler()
        sampler.start()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {names}")
    load_program()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        setup(workload_cls, args.seed)
        calibrations += sampler.stop() + [calibration_s() for _ in range(3)]
        print(json.dumps(calibrations), flush=True)
        os._exit(0)

    run = measure_traced if args.trace else measure
    metrics, detail, attempted, failures = run(args, spec, workload_cls)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in declared):
        sys.exit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json")
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        failures=failures[:20], environment=environment(),
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
