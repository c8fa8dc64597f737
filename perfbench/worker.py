"""Run one workload in this fresh process and print its figures as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace --workdir DIR

``setup`` only sets up and reports the set-up time.  ``measure`` sets up,
then repeats one pass of the workload with tracing off (see ``measure``).
``trace`` runs a warm-up pass and an untraced pass, times the field
kernel, then runs the same pass again under the tracer.  The last
line of standard output is one JSON object.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PROCESS_LIMIT_S = 150.0
MIN_PASSES = 3
PROBE_EVERY_S = 0.5


class Timer:
    """Splits an operation's time into producing and checking calls."""

    def __init__(self):
        self.generate_s = 0.0
        self.verify_s = 0.0

    def generate(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.generate_s += time.perf_counter() - start

    def verify(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.verify_s += time.perf_counter() - start


def _probe_loop() -> int:
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


class CpuPicker:
    """Moves this process to the least slowed of the CPUs it may use.

    The host slows one CPU at a time, for a second or for minutes, and the
    scheduler leaves a lone process on the CPU it runs on.  So before an
    operation, at most every PROBE_EVERY_S seconds, a short fixed loop is
    timed on each CPU and the process moves to the fastest.  The probes
    run outside every timed region.
    """

    def __init__(self):
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_setaffinity") else [])
        self.last = None

    def pick(self):
        now = time.perf_counter()
        if len(self.cpus) < 2 or (self.last is not None
                                  and now - self.last < PROBE_EVERY_S):
            return
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            _probe_loop()
            start = time.perf_counter()
            _probe_loop()
            timings.append((time.perf_counter() - start, cpu))
        os.sched_setaffinity(0, {min(timings)[1]})
        self.last = time.perf_counter()


def run_pass(ops, picker=None) -> dict:
    """Time every operation, then check it; failures are counted, never raised.

    ``latency``, ``generate`` and ``verify`` hold one entry per operation,
    None where the operation raised.  With a ``picker``, each operation
    may first move to another CPU."""
    out = {"latency": [], "generate": [], "verify": [], "failed": 0}
    for kind, run, args, check in ops:
        if picker:
            picker.pick()
        timer = Timer()
        start = time.perf_counter()
        try:
            result = run(timer, *args)
        except Exception:
            for key in ("latency", "generate", "verify"):
                out[key].append(None)
            out["failed"] += 1
            print(f"{kind}: raised\n{traceback.format_exc()}", file=sys.stderr)
            continue
        out["latency"].append(time.perf_counter() - start)
        out["generate"].append(timer.generate_s)
        out["verify"].append(timer.verify_s)
        try:
            ok = check(result)
        except Exception:
            print(f"{kind}: check raised\n{traceback.format_exc()}", file=sys.stderr)
            ok = False
        if not ok:
            out["failed"] += 1
            print(f"{kind}: failed its check", file=sys.stderr)
    out["wall"] = sum(x for x in out["latency"] if x is not None)
    return out


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten of ``count`` operations
    beyond it; 100 (the maximum) when none has."""
    for p in TAIL_LADDER:
        if count * (1 - p / 100) >= 10:
            return p
    return 100.0


def nearest_rank(sorted_values, p):
    k = -(-len(sorted_values) * p // 100)
    return sorted_values[min(len(sorted_values), max(1, int(k))) - 1]


def best_of(passes, key) -> list:
    """Each operation's smallest ``key`` time over the passes it completed."""
    columns = zip(*(p[key] for p in passes))
    return [min(x for x in column if x is not None) for column in columns
            if any(x is not None for x in column)]


def measure(wl, state, items, args) -> dict:
    """Repeat the pass on the same inputs until the next repeat would
    overrun ``--seconds``, after at least ``MIN_PASSES`` repeats.

    Contention from other work on the host only ever slows an operation
    down, so every figure is built from each operation's fastest repeat:
    its latency, and its producing and checking time, which wall_s,
    generate_s and verify_s sum over the pass.  Each repeat gets freshly
    built inputs, so no object cache carries over between repeats.  The
    operations run on the least slowed CPU (see ``CpuPicker``).
    """
    picker = CpuPicker()
    passes = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        if passes:
            items = wl.make_pass(state, args.seed)
        ops = wl.ops(state, items)
        passes.append(run_pass(ops, picker))
        now = time.perf_counter()
        cycle = now - cycle_start
        if now - _START + cycle > PROCESS_LIMIT_S or (
                len(passes) >= MIN_PASSES and now - start + cycle > args.seconds):
            break
    best = sorted(best_of(passes, "latency")) or [0.0]
    pct = tail_percentile(len(ops))
    metrics = {
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (1e3 * statistics.median(best), "ms"),
        "op_tail_ms": (1e3 * nearest_rank(best, pct), "ms"),
        "generate_s": (sum(best_of(passes, "generate")), "s"),
        "verify_s": (sum(best_of(passes, "verify")), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"metrics": metrics, "passes": len(passes),
            "tail_percentile": pct, "tail_samples": len(ops),
            "attempted": len(ops) * len(passes),
            "failed": sum(p["failed"] for p in passes)}


def trace(wl, state, items, args) -> dict:
    # The first pass in a process pays one-time costs (the interpreter's
    # warm-up, growing the heap), so it runs before the untraced pass that
    # trace.overhead_s compares against.
    picker = CpuPicker()
    warmup = run_pass(wl.ops(state, items), picker)
    untraced = run_pass(wl.ops(state, wl.make_pass(state, args.seed)), picker)
    cells = workloads.tube_cells()
    kernel = tracing.field_kernel(wl.operands(state, items, cells), cells)
    fresh = wl.make_pass(state, args.seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(wl.ops(state, fresh), picker)
    finally:
        tracer.uninstall()

    metrics = {}
    for name in tracing.span_names():
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    layers = tracer.layer_self_s()
    for layer, secs in layers.items():
        metrics[f"{layer}.self_s"] = (secs, "s")
    for name, value in kernel.items():
        unit = "bits" if name.endswith("bits") else name.rsplit("_", 1)[1]
        metrics[name] = (value, unit)
    for name in ("exactfield.mul_calls", "exactfield.add_calls",
                 "exactfield.sign_calls", "exactfield.inverse_calls",
                 "exactfield.elim_cells", "projective.slp_steps"):
        metrics[name] = (tracer.counts.get(name, 0), "count")
    metrics["cli.bundle_bytes"] = (getattr(state, "bundle_bytes", 0), "bytes")
    metrics["trace.overhead_s"] = (traced["wall"] - untraced["wall"], "s")
    metrics["trace.unattributed_s"] = (traced["wall"] - sum(layers.values()), "s")
    runs = (warmup, untraced, traced)
    return {"metrics": metrics, "passes": len(runs),
            "attempted": sum(len(p["latency"]) for p in runs),
            "failed": sum(p["failed"] for p in runs),
            "traced_wall_s": traced["wall"], "untraced_wall_s": untraced["wall"]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.workdir)
    items = wl.make_pass(state, args.seed)
    setup_s = time.perf_counter() - _START
    result = {"setup_s": setup_s, "summary": wl.summary(state, items)}
    if args.mode == "measure":
        result.update(measure(wl, state, items, args))
    elif args.mode == "trace":
        result.update(trace(wl, state, items, args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
