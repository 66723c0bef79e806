"""Smoke tests for the benchmark itself: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import compare  # noqa: E402
import workloads  # noqa: E402
from mimodof import SlopeEstimate  # noqa: E402
from spans import Tracer  # noqa: E402


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ("bench", 0.0, 10.0, -1, 0),
        ("simulate", 1.0, 7.0, 0, 0),
        ("slopes", 7.0, 8.0, 0, 0),
        ("inner", 2.0, 3.0, 1, 0),
    ]
    assert tracer.self_times() == {"bench": 3.0, "simulate": 5.0, "slopes": 1.0, "inner": 1.0}


def test_spans_record_parent_and_run_id(tmp_path):
    tracer = Tracer()
    tracer.run_id = 4
    with tracer.span("bench"):
        with tracer.span("cli"):
            pass
    (_, s0, e0, p0, r0), (_, s1, e1, p1, r1) = tracer.spans
    assert (p0, p1, r0, r1) == (-1, 0, 4, 4)
    assert s0 <= s1 <= e1 <= e0
    tracer.write(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == ["bench", "cli"]


def test_decks_depend_only_on_the_seed(tmp_path):
    for cls in (workloads.McBattery, workloads.VerifyMany):
        assert cls(5, tmp_path).ops == cls(5, tmp_path).ops
        assert cls(5, tmp_path).ops != cls(6, tmp_path).ops
    deck = workloads.VerifyMany(5, tmp_path)
    assert len(deck.ops) == 100
    assert sum(code == 3 for _, code in deck.ops) == 10
    sweep = workloads.RegionSweep(5, tmp_path)
    assert len(sweep.ops) == 8**4 + 8**3 + 1 and sweep.ops[-1] == ("partition", 8)


def test_battery_check_rejects_a_prelog_out_of_tolerance(tmp_path):
    wl = workloads.McBattery(0, tmp_path)
    (_, _, _, (d1, d2), tol), _ = wl.ops[0]
    trace = object()
    good = SlopeEstimate(d1, d2, (0.0, 0.0), (40.0, 70.0))
    bad = SlopeEstimate(d1 + 2 * tol, d2, (0.0, 0.0), (40.0, 70.0))
    assert wl.check_op(0, (trace, good, ("boundary", "boundary")))
    assert not wl.check_op(0, (trace, bad, ("boundary", "boundary")))
    assert not wl.check_op(0, (trace, good, ("outside", "boundary")))
    assert not wl.check_op(0, (object(), good, ("boundary", "boundary")))


def test_verify_check_rejects_a_wrong_exit_code(tmp_path):
    wl = workloads.VerifyMany(0, tmp_path)
    i = next(i for i, (_, code) in enumerate(wl.ops) if code == 3)
    assert wl.check_op(i, wl.run_op(i, workloads.NULL))
    assert not wl.check_op(i, 0)


def test_estimators():
    durations = [[1.0, 3.0, 2.0], [10.0, 10.0, 40.0]]
    assert workloads.robust_seconds(durations) == 12.0
    assert workloads.tail_mean_ms([0.001] * 18 + [0.010, 0.030]) == pytest.approx(20.0)
    assert workloads.tail_mean_ms([0.002, 0.004]) == pytest.approx(4.0)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert compare.verdict(base, [v * 1.01 for v in base], "lower", 0.1) == "same"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "better"
    noisy = [50.0, 150.0, 100.0, 70.0, 130.0]
    assert compare.verdict(base, noisy, "lower", 0.1) == "unresolved"


def _copy_tree(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH_DIR, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def _run(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_fails_without_program_sources(tmp_path):
    _copy_tree(tmp_path, with_sources=False)
    done = _run(tmp_path, "--workload", "verify_many", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_one_short_run_prints_every_metric(tmp_path):
    _copy_tree(tmp_path, with_sources=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run(tmp_path, "--workload", "verify_many", "--seed", "1", "--seconds", "1", "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
        assert set(result["metrics"]) == {m["name"] for m in spec[group]}
