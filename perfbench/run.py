"""perprop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one process each

Run from the root of a checkout; perprop is imported from its src/.  One run
times passes of one workload (see workloads.py) for about S seconds, checks
every op of every pass against the golden files, prints a table of metrics
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb).  With --trace 1 untraced and traced passes alternate, and the
metrics are the per-layer ones from spans.py plus the tracing overhead; the
spans of the last traced pass are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import workloads
from spans import LAYER_METRICS, Tracer, layer_metrics, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 55
MIN_PASSES = 3
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def import_perprop():
    """Import perprop and numpy from this checkout's src/, or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (part of set-up: every sweep needs it)
    import perprop.cli

    if not Path(perprop.__file__).resolve().is_relative_to(src):
        raise ImportError(f"perprop imported from {perprop.__file__}, not from {src}")
    return perprop


def cache_clearers() -> list:
    """cache_clear of every memoized perprop function, so that each pass does
    the work of a fresh CLI process rather than reusing the last pass's fields."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "perprop" or name.startswith("perprop."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear) and clear not in out:
                    out.append(clear)
    return out


def measure_setup(workload: str, seed: int) -> list[float]:
    """Interpreter start to the first workload call, in fresh processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
        finally:
            proc.stdout.close()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        times.append(ready - start)
    return times


def machine_record(work) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return "unknown"

    import numpy

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    cache = "/sys/devices/system/cpu/cpu0/cache"
    q = work.largest_q()
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2_per_core": read(f"{cache}/index2/size"),
        "l3": read(f"{cache}/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # computed, not measured: the largest successor array, 8 bytes a point
        "working_set_bytes": 8 * (q + 1) if q else 0,
    }


def run_passes(work, seconds: float, trace: bool) -> list[tuple[float, object, object]]:
    """(wall, result, tracer or None) of passes run until the next one would
    end past the deadline, at least MIN_PASSES of them.  Traced runs
    alternate untraced and traced passes."""
    clearers = cache_clearers()
    deadline = perf_counter() + seconds
    passes = []
    while True:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        for clear in clearers:
            clear()
        gc.collect()
        if tracer:
            tracer.install()
        start = perf_counter()
        try:
            result = work.run_pass(tracer or workloads.NullTracer())
        finally:
            wall = perf_counter() - start
            if tracer:
                tracer.uninstall()
        passes.append((wall, result, tracer))
        if len(passes) >= MIN_PASSES and perf_counter() + wall > deadline:
            return passes


def pin_to_one_cpu(threads: int) -> None:
    """Keep a single-threaded run on one CPU, so that the scheduler does not
    move it between CPUs and their caches; a threaded run keeps them all."""
    cpus = sorted(os.sched_getaffinity(0))
    if threads == 1 and len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}:")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")


def write_spans(path: Path, spans, counts) -> None:
    selfs = self_times(spans)
    OUT_DIR.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "self": selfs[s.id]}) + "\n")
        handle.write(json.dumps({"counts": dict(sorted(counts.items()))}) + "\n")


def span_table(spans) -> None:
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        own[s.name] += selfs[s.id]
    print(f"  {'span':<40} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name in sorted(total, key=total.get, reverse=True):
        print(f"  {name:<40} {calls[name]:>8} {total[name]:>10.4f} {own[name]:>10.4f}")


def end_to_end_metrics(args, passes, wall_s: float, failed: int, attempted: int) -> dict:
    setup = measure_setup(args.workload, args.seed)
    print("# set-up probes: " + " ".join(f"{t:.4f}" for t in setup))
    metrics = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB"},
    }
    shown = dict(metrics, failed_frac={"value": failed / attempted, "unit": "ratio"})
    points = passes[-1][1].points
    if points:
        shown["points_per_s"] = {"value": points / wall_s, "unit": "points/s"}
    print_table("end-to-end metrics", shown)
    return metrics


def per_layer_metrics(args, work, passes, wall_s: float) -> dict:
    traced = [(wall, tracer) for wall, _, tracer in passes if tracer]
    per_pass = [layer_metrics(*tracer.collect(), work.threads) for _, tracer in traced]
    # median_low, so that counts (equal in every pass) stay exact integers
    values = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(wall for wall, _ in traced)
    values["trace.overhead_s"] = traced_wall - wall_s
    values["trace.overhead_frac"] = (traced_wall - wall_s) / wall_s
    last = traced[-1][1]
    if last.missing:
        print("# trace targets missing: " + " ".join(last.missing))
    spans, counts = last.collect()
    print(f"# {len(traced)} traced passes: wall_s median {traced_wall:.4f}; "
          "spans of the last one:")
    span_table(spans)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    write_spans(path, spans, counts)
    print(f"# spans written to {path.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    print_table("per-layer metrics", metrics)
    return metrics


def run_one(args) -> int:
    import_perprop()
    work = workloads.WORKLOADS[args.workload](args.seed)
    print(f"# workload {args.workload} seed {args.seed}: {work.describe()}")
    print("# machine " + json.dumps(machine_record(work), sort_keys=True))
    pin_to_one_cpu(work.threads)
    passes = run_passes(work, args.seconds, bool(args.trace))
    attempted = sum(result.attempted for _, result, _ in passes)
    failed = sum(result.failed for _, result, _ in passes)
    for _, result, _ in passes:
        for what in result.failures:
            print(f"# FAILED {what}")
    plain = [wall for wall, _, tracer in passes if not tracer]
    wall_s = statistics.median(plain)
    q1, _, q3 = statistics.quantiles(plain, n=4)
    print(f"# {len(plain)} untraced passes: wall_s median {wall_s:.4f} "
          f"quartiles {q1:.4f} {q3:.4f}: " + " ".join(f"{w:.4f}" for w in plain))
    if args.trace:
        metrics = per_layer_metrics(args, work, passes, wall_s)
    else:
        metrics = end_to_end_metrics(args, passes, wall_s, failed, attempted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.probe_setup:
            import_perprop()
            workloads.WORKLOADS[args.workload](args.seed)
            print("ready", flush=True)
            return 0
        return run_one(args)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot run: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
