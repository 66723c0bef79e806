#!/usr/bin/env python3
"""Run one mimodof benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload mc_battery --seed 1 --seconds 35 --trace 0

The workload's deck of operations is generated from ``--seed`` and run in
whole passes, one operation after another (closed loop, one caller), until
``--seconds`` have elapsed. Every output is checked. With ``--trace 0`` the
last line of output is a JSON object holding the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and it holds the
per-layer metrics instead. Each run is also appended, with machine facts, to
``.bench_out/results.jsonl``; traced runs write their spans beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("mc_battery", "region_sweep", "verify_many")
# One worker thread for trials and for BLAS. Set in main before anything
# imports numpy, which is why numpy users are imported inside functions.
THREAD_ENV = {
    "MIMODOF_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
CALIBRATE_EVERY_S = 0.5
_RAISED = object()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def setup_seconds(workload: str, seed: int, tmp: str):
    """``import mimodof`` plus the first call, each in a fresh interpreter,
    with a calibration sample before each probe and after the last.
    Returns the times and the median slowdown."""
    from calibrate import slowdown

    times, slowdowns = [], [slowdown()]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), tmp],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
        slowdowns.append(slowdown())
    return times, statistics.median(slowdowns)


def machine_facts(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def measure(wl, seconds: float, trace: bool, tracer, reduce_cache):
    """Run whole passes until ``seconds`` have elapsed. With ``trace``, odd
    passes are traced and the rest are not. Calibration samples are taken
    between operations at least every CALIBRATE_EVERY_S. Returns the
    stream of (traced, op index, seconds), the median slowdown, the count
    of failed operations and memo statistics summed over traced passes."""
    from calibrate import slowdown
    from spans import NULL

    stream = []
    slowdowns = []
    last_mark = float("-inf")
    failed = 0
    cache_stats = [0, 0]
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < (2 if trace else 1) or time.perf_counter() < deadline:
        is_traced = trace and passes % 2 == 1
        tr = tracer if is_traced else NULL
        wl.begin_pass()
        pass_failed = 0
        for i in range(len(wl.ops)):
            if time.perf_counter() - last_mark >= CALIBRATE_EVERY_S:
                slowdowns.append(slowdown())
                last_mark = time.perf_counter()
            wl.before_op(i)
            if is_traced:
                tracer.run_id = len(stream)
                before = reduce_cache.cache_info() if reduce_cache else None
            start = time.perf_counter()
            try:
                with tr.span("bench"):
                    output = wl.run_op(i, tr)
            except Exception:
                output = _RAISED
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            if output is _RAISED:
                print(error, file=sys.stderr)
            ok = output is not _RAISED and checked(wl, i, output)
            stream.append((is_traced, i, elapsed))
            if is_traced and reduce_cache:
                after = reduce_cache.cache_info()
                cache_stats[0] += after.hits - before.hits
                cache_stats[1] += after.misses - before.misses
            pass_failed += not ok
        if not wl.end_pass():
            print(f"pass {passes}: pass-level check failed", file=sys.stderr)
            pass_failed = len(wl.ops)
        failed += pass_failed
        passes += 1
    slowdowns.append(slowdown())
    return stream, statistics.median(slowdowns), failed, cache_stats


def checked(wl, i: int, output) -> bool:
    """Operation i's output check; a check that raises is a failure."""
    try:
        return bool(wl.check_op(i, output))
    except Exception:
        traceback.print_exc()
        return False


def by_op(n_ops: int, stream, times, traced: bool) -> list[list[float]]:
    """durations[i]: operation i's times over the passes of one kind."""
    durations = [[] for _ in range(n_ops)]
    for (is_traced, i, _), t in zip(stream, times):
        if is_traced == traced:
            durations[i].append(t)
    return durations


def end_to_end_metrics(wl, durations, setup, peak_rss_mb) -> dict:
    from workloads import tail_mean_ms

    typical = [statistics.median(d) for d in durations]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_per_s": (sum(wl.work) / sum(typical), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(typical), "ms"),
        "op_ms_tail": (tail_mean_ms(typical), "ms"),
    }


def per_layer_metrics(tracer, untraced, traced, cache_stats, run_slowdown) -> dict:
    """Per traced pass. Span times are divided by the run's slowdown like
    every other time; a share is of the time spent inside operations."""
    from workloads import robust_seconds

    n = len(traced[0])
    self_s = tracer.self_times()
    inside_s = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    calls = tracer.calls()
    counts = tracer.counts
    traced_pass_s = robust_seconds(traced)

    def busy(*names):
        return sum(self_s.get(x, 0.0) for x in names) / run_slowdown / n

    def share(*names):
        return 100.0 * sum(self_s.get(x, 0.0) for x in names) / inside_s

    def us_per(name, count):
        return 1e6 * busy(name) * n / count if count else 0.0

    catalog = ("catalog.classify", "catalog.bc", "catalog.partition")
    return {
        "simulate.busy_s": (busy("simulate"), "s"),
        "simulate.calls": (calls["simulate"] / n, "count"),
        "simulate.trial_points": (counts["simulate.trial_points"] / n, "count"),
        "simulate.us_per_trial_point": (us_per("simulate", counts["simulate.trial_points"]), "us"),
        "simulate.share": (share("simulate"), "%"),
        "slopes.busy_s": (busy("slopes"), "s"),
        "slopes.calls": (calls["slopes"] / n, "count"),
        "slopes.share": (share("slopes"), "%"),
        "catalog.classify.busy_s": (busy("catalog.classify"), "s"),
        "catalog.classify.us_per_call": (us_per("catalog.classify", calls["catalog.classify"]), "us"),
        "catalog.bc.busy_s": (busy("catalog.bc"), "s"),
        "catalog.partition.busy_s": (busy("catalog.partition"), "s"),
        "catalog.share": (share(*catalog), "%"),
        "regions.serialize.busy_s": (busy("regions.serialize"), "s"),
        "regions.parse.busy_s": (busy("regions.parse"), "s"),
        "regions.json_bytes": (counts["regions.json_bytes"] / n, "bytes"),
        "regions.reduce_cache_hits": (cache_stats[0] / n, "count"),
        "regions.reduce_cache_misses": (cache_stats[1] / n, "count"),
        "regions.share": (share("regions.serialize", "regions.parse"), "%"),
        "cli.busy_s": (busy("cli"), "s"),
        "cli.calls": (calls["cli"] / n, "count"),
        "cli.exit_0": (counts["cli.exit_0"] / n, "count"),
        "cli.exit_3": (counts["cli.exit_3"] / n, "count"),
        "cli.share": (share("cli"), "%"),
        "bench.busy_s": (busy("bench"), "s"),
        "trace.pass_s": (traced_pass_s, "s"),
        "trace.overhead_s": (traced_pass_s - robust_seconds(untraced), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mimodof" / "__init__.py").is_file():
        print(f"error: no mimodof sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        import workloads

        cls, first_call = workloads.WORKLOADS[args.workload]
        setup_raw, setup_slowdown = setup_seconds(args.workload, args.seed, tmp)

        import mimodof
        from spans import Tracer

        if Path(mimodof.__file__).resolve().parent != (SRC / "mimodof").resolve():
            print(f"error: imported mimodof from {mimodof.__file__}, not {SRC}", file=sys.stderr)
            return 2
        first_call(args.seed, Path(tmp))
        wl = cls(args.seed, Path(tmp))
        tracer = Tracer() if args.trace else None
        stream, run_slowdown, failed, cache_stats = measure(
            wl, args.seconds, bool(args.trace), tracer, workloads.reduce_cache()
        )

    attempted = len(stream)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_times = [t for _, _, t in stream]
    times = [t / run_slowdown for t in raw_times]
    setup = [t / setup_slowdown for t in setup_raw]
    untraced = by_op(len(wl.ops), stream, times, False)
    raw = {}
    named = {}
    if args.trace:
        traced = by_op(len(wl.ops), stream, times, True)
        metrics = per_layer_metrics(tracer, untraced, traced, cache_stats, run_slowdown)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
    else:
        metrics = end_to_end_metrics(wl, untraced, setup, peak_rss_mb)
        raw_untraced = by_op(len(wl.ops), stream, raw_times, False)
        raw = end_to_end_metrics(wl, raw_untraced, setup_raw, peak_rss_mb)
        named = wl.named_metrics(untraced)
        spans_path = None

    facts = machine_facts(args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(stream) // len(wl.ops),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "slowdown": run_slowdown,
        "setup_slowdown": setup_slowdown,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "facts": facts,
    }
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"facts: {json.dumps(facts)}")
    print(f"workload {args.workload}: {record['passes']} passes, {attempted} operations, "
          f"error_rate = {record['error_rate']}")
    print(f"times scaled to reference machine speed: median slowdown {run_slowdown:.4g}, "
          f"set-up {setup_slowdown:.4g}")
    for name, (value, unit) in {**named, **metrics}.items():
        unscaled = f"  (unscaled {raw[name][0]:.6g})" if raw.get(name, (value,))[0] != value else ""
        print(f"  {name} = {value:.6g} {unit}{unscaled}")
    if spans_path:
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
