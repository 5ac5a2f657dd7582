"""Tests of the benchmark itself: self-time arithmetic, the result-line
contract, and agreement between BENCHMARK.json, layers.json and run.py.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _load_runner():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_run"] = module
    spec.loader.exec_module(module)
    return module


run = _load_runner()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = run.load_layer_map()


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert run.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]
    assert sum(run.self_times(start, end, parent)) == 10.0


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children [1, 5] and [3, 7] cover 6 s of [0, 10]; [9, 12] is clipped to 1 s.
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert run.self_times(start, end, parent)[0] == pytest.approx(3.0)


def test_layer_totals_account_for_the_traced_wall_time():
    toy = types.ModuleType("toy")

    def leaf():
        time.sleep(0.002)

    def outer():
        time.sleep(0.001)
        toy.leaf()
        toy.leaf()

    toy.leaf, toy.outer = leaf, outer
    tracer = run.Tracer()
    tracer.add(toy, "outer", "toy.outer")
    tracer.add(toy, "leaf", "toy.leaf")
    tracer.begin_run(7)
    tracer.install()
    t0 = time.perf_counter()
    toy.outer()
    time.sleep(0.001)
    wall = time.perf_counter() - t0
    tracer.uninstall()
    assert toy.outer is outer and toy.leaf is leaf

    totals = run.layer_totals(tracer, 7, wall)
    assert totals["toy.outer.calls"] == 1
    assert totals["toy.leaf.calls"] == 2
    assert totals["toy.leaf.self_s"] >= 0.004
    assert totals["trace.outside_s"] >= 0.001
    assert totals["trace.accounted_s"] == pytest.approx(wall, rel=1e-9)
    assert list(tracer.parent) == [-1, 0, 0]


def test_benchmark_json_matches_the_runner_and_the_layer_map():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.GATED_E2E)
    assert BENCHMARK["per_layer"] == [
        {"name": k, "unit": u, "better": "lower"} for k, u in run.per_layer_units(LAYER_MAP).items()
    ]
    assert set(LAYER_MAP["workloads"]) == set(run.WORKLOADS)
    for entry in LAYER_MAP["traced"]:
        assert entry["moves"], entry["function"]
        for move in entry["moves"]:
            assert move["metric"] in LAYER_MAP["workloads"][move["workload"]]["end_to_end"]


def _run(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(tmp_root / "bench" / "run.py"), *args],
        cwd=tmp_root, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["tournament", "redundancy", "verify"])
def test_smoke_run_prints_every_named_metric_with_its_unit(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    report = "\n".join(lines[:-1])
    assert '"seed": 3' in report and '"blas_threads"' in report and '"commit"' in report
    if trace:
        for key in ("trace.overhead_s", "trace.outside_s"):
            assert key in report
    else:
        for name in LAYER_MAP["workloads"][workload]["end_to_end"]:
            assert f"  {name} " in report, name
        assert all(result["metrics"][name]["value"] > 0 for name in run.GATED_E2E)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    for workload in ("tournament", "all"):
        done = _run(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
        assert done.returncode != 0
        assert not done.stdout.strip()
