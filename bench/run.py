"""Benchmark of the centrokdv package: one workload per run.

    python3 bench/run.py --workload transform --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  A run draws its inputs
from ``--seed``, sets up (import, input generation, one warm-up task),
then runs tasks back to back, one caller, for ``--seconds``: a closed
loop.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it replays the same tasks with spans around every traced
call, probes the inner layers and the CLI, and reports the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The timed loop runs in this many equal segments.  After each segment a
# fresh interpreter sets up (import, input generation, one warm-up task), so
# the set-ups sample the same host conditions as the tasks; setup_s is the
# median of these set-ups and this process's own.
SEGMENTS = 3

# Host speed.  Right after every set-up and every task, the run times two
# fixed loops that run no package code: a pure-Python loop and a loop of 2x2
# numpy products, the two kinds of work the package's integrators are made
# of.  Each loop's time over its reference time below, averaged over the two
# loops, is the host's slowness at that moment.  On a shared host it moves by
# 1.5x within a minute and stays off for minutes at a time; the tasks slow
# with it.  Every task's time is divided by the mean slowness just before
# and after it, for tasks_per_s and both latency percentiles, and every
# set-up's time by the slowness right after it (a set-up ends with a task),
# so all four read in seconds of a host on which the loops take their
# reference times.  A slower program slows the
# tasks, not the loops, and the metrics show it.
PROBE_PY_LOOP = 100_000
PROBE_NP_LOOP = 1_500
PROBE_REFERENCE_S = (0.0090, 0.0058)

# A single probe reads up to 2x off now and then.  Each task is divided by
# two probes and the task rate averages over many tasks, but a run has only
# a few set-ups, so each set-up is divided by the median of this many probes.
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("transform", "spectrum", "flow"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import centrokdv from this checkout's src directory, or exit 2."""
    if not (SRC / "centrokdv" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'centrokdv'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import centrokdv

    if Path(centrokdv.__file__).resolve().parent != SRC / "centrokdv":
        sys.exit(f"error: imported centrokdv from {centrokdv.__file__}, not from {SRC}")


def environment() -> dict:
    """Versions, BLAS and thread settings: what makes timings attributable."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration"),
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
    }


def set_up(name: str, seed: int):
    """Import, input generation and one warm-up task; returns (workload, pool, seconds)."""
    t0 = time.perf_counter()
    import_package()
    import workloads as wl

    workload = wl.WORKLOADS[name]
    pool = wl.make_pool(workload, seed)
    # the warm-up fills lazy caches (the dense differentiation matrices, the
    # FFT plans); its calls are not counted.  Its input is the same for every
    # seed, so every run's set-up does the same work.
    workload.task(workload.make_input(0, 0), wl.Ledger())
    return workload, pool, time.perf_counter() - t0


def setup_in_fresh_interpreter(name: str, seed: int) -> tuple:
    """(set-up seconds, host slowness right after the set-up) of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    seconds, slowness = out.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(slowness)


def run_tasks(workload, pool, led, seconds=None, count=None, first=0):
    """Closed loop over the pool from task `first`: until `seconds` have
    passed, or `count` tasks."""
    latencies = []
    start = time.perf_counter()
    i = first
    while True:
        led.task = i
        t0 = time.perf_counter()
        workload.task(pool[i % len(pool)], led)
        latencies.append(time.perf_counter() - t0)
        i += 1
        if count is not None and i - first >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return latencies, time.perf_counter() - start


def tail(latencies):
    """Highest percentile with at least ten tasks beyond it: (value, level).

    Runs of fewer than twenty tasks report the median instead of a level
    below it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def host_slowness() -> float:
    """Time of the two fixed probe loops over their reference times, averaged."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_PY_LOOP):
        total += i * i
    t1 = time.perf_counter()
    m, y = np.array([[0.0, 1.0], [-0.3, 0.0]]), np.eye(2)
    for _ in range(PROBE_NP_LOOP):
        y = y + 1e-3 * (m @ y)
    t2 = time.perf_counter()
    return 0.5 * ((t1 - t0) / PROBE_REFERENCE_S[0] + (t2 - t1) / PROBE_REFERENCE_S[1])


def setup_slowness() -> float:
    """Host slowness right after a set-up: the median of SETUP_PROBES probes."""
    return statistics.median(host_slowness() for _ in range(SETUP_PROBES))


def timed_segments(workload, pool, led, seconds, name, seed):
    """The timed loop in SEGMENTS parts, a fresh-interpreter set-up after each.

    Returns every task's (latency, host slowness around it), the segments'
    task counts, and every fresh set-up's (seconds, host slowness after it).
    """
    tasks, counts, setups = [], [], []
    before = host_slowness()
    for _ in range(SEGMENTS):
        start, count = time.perf_counter(), 0
        while not count or time.perf_counter() - start < seconds / SEGMENTS:
            latency = run_tasks(workload, pool, led, count=1, first=len(tasks))[0][0]
            after = host_slowness()
            tasks.append((latency, 0.5 * (before + after)))
            before, count = after, count + 1
        counts.append(count)
        setups.append(setup_in_fresh_interpreter(name, seed))
        before = host_slowness()
    return tasks, counts, setups


def end_to_end(led, tasks, setups) -> dict:
    """Every end-to-end metric, name -> (value, unit)."""
    latencies = [latency / slow for latency, slow in tasks]
    tail_s, _ = tail(latencies)
    return {
        "setup_s": (statistics.median(t / slow for t, slow in setups), "s"),
        "tasks_per_s": (len(latencies) / sum(latencies), "1/s"),
        "task_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "task_ms.tail": (tail_s * 1e3, "ms"),
        "ok_share": (1.0 - led.failed / led.attempted, "ratio"),
        "accuracy_margin": (led.accuracy_margin(), "decades"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report_failures(led) -> None:
    groups = {}
    for f in led.failures:
        groups.setdefault((f.fn, f.error), []).append(f)
    print(f"calls: {led.attempted} attempted, {led.failed} failed ({led.crashed} crashed), "
          f"failed_share {led.failed / led.attempted:.4f}")
    for (fn, error), fs in sorted(groups.items()):
        flag = "" if fs[0].expected else "  CRASHED"
        print(f"  failed {fn} {error} x{len(fs)} (tasks {sorted({f.task for f in fs})[:12]}){flag}")
        print(f"    first: {fs[0].message}")


def print_metrics(metrics: dict, notes: dict | None = None) -> None:
    notes = notes or {}
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<8}{notes.get(name, '')}")


def result_line(led, metrics, listed) -> str:
    """The JSON result: the metrics BENCHMARK.json lists for this mode."""

    def number(v):
        return v if isinstance(v, int) or math.isfinite(v) else None

    return json.dumps(
        {
            "correct": led.correct,
            "attempted": led.attempted,
            "failed": led.crashed,
            "metrics": {
                m["name"]: {"value": number(metrics[m["name"]][0]), "unit": metrics[m["name"]][1]} for m in listed
            },
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, pool, setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(f"{setup!r} {setup_slowness()!r}")
        return 0
    import workloads as wl

    env = environment()
    print("env: " + json.dumps(env))
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, one caller (closed loop)")
    led = wl.Ledger()
    if not args.trace:
        own = (setup, setup_slowness())
        tasks, counts, setups = timed_segments(workload, pool, led, args.seconds, args.workload, args.seed)
        setups.append(own)
        metrics = end_to_end(led, tasks, setups)
        report_failures(led)
        latencies = [latency for latency, _ in tasks]
        tail_s, level = tail(latencies)
        slowness = [slow for _, slow in tasks]
        print(f"host slowness over the tasks: median {statistics.median(slowness):.3f}, "
              f"range {min(slowness):.3f}-{max(slowness):.3f}; tasks per segment {counts}")
        print_metrics(
            metrics,
            {
                "setup_s": "  median over set-ups of {} s as timed".format([round(t, 3) for t, _ in setups]),
                "tasks_per_s": f"  {len(tasks)} tasks; as timed: {len(latencies) / sum(latencies):.4g}",
                "task_ms.p50": f"  as timed: {statistics.median(latencies) * 1e3:.4g}",
                "task_ms.tail": f"  p{level:.1f} of {len(latencies)} tasks; as timed: {tail_s * 1e3:.4g}",
                "accuracy_margin": f"  worst check's mean over {len(led.margins())} outputs, min {min(led.margins(), default=math.nan):.3f}",
            },
        )
    else:
        metrics = traced_run(args, workload, pool, led)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(result_line(led, metrics, spec["per_layer" if args.trace else "end_to_end"]))
    return 0


def traced_run(args, workload, pool, led) -> dict:
    """Untraced then traced replay of the same tasks, probes, per-layer metrics."""
    import tracing

    # a third of the run untraced, then the same tasks traced: the traced run
    # is no longer than an untraced one, probes and CLI included
    _, plain = run_tasks(workload, pool, led, seconds=args.seconds / 3)
    count = led.task + 1
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for i in range(count):
            led.task = tracer.task = i
            with tracer.span(f"task.{args.workload}"):
                workload.task(pool[i % len(pool)], led)
        traced = time.perf_counter() - start
        led.task = tracer.task = -1
        tracing.probe_layers(args.seed, led)
        codes, suite_margins = tracing.probe_cli(tracer, ROOT / ".bench_out" / "cli", args.seed)
    finally:
        tracer.remove()
    overhead = traced / plain - 1.0
    out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(out)
    metrics = tracing.layer_metrics(tracer, led, codes, suite_margins, overhead)
    report_failures(led)
    print(f"tracing: {count} tasks, untraced {plain:.3f} s, traced {traced:.3f} s, overhead {overhead:+.1%}")
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    notes = {name: "  moves {} on {}".format(*tracing.moves(name)) for name in metrics}
    print_metrics(metrics, notes)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
