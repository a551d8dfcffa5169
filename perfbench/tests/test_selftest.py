"""Self-test of the benchmark: every workload at its small size.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from speed import REF_S, Speed  # noqa: E402
from tracing import layer_units  # noqa: E402


def run_bench(workload: str, trace: int, reference: Path | None = None, cwd: Path = ROOT, script: Path | None = None):
    cmd = [sys.executable, str(script or BENCH / "run.py"), "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--size", "small"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    report = json.loads(lines[-2]) if len(lines) > 1 else None
    return proc.returncode, result, report


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_emitted_with_units(workload):
    code, result, _ = run_bench(workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_layer_counters_repeat_exactly(workload):
    runs = [run_bench(workload, 1) for _ in range(2)]
    counts = []
    for code, result, report in runs:
        assert code == 0 and result["correct"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == layer_units()
        assert report["absent"] == []
        check = report["self_time_check"]
        assert math.isclose(check["sum_self_s"], check["traced_setup_plus_wall_s"], rel_tol=1e-9)
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["filling.harea_fill.calls"] > 0


def tamper(workload: str, expected: dict) -> None:
    if workload == "fa-z3ext":
        expected["fa"][-1] += 1
    elif workload == "compare-z2":
        expected["g_b"][-1] += 1
    else:
        areas = expected["contexts"]["z3"]["areas"]
        word = sorted(areas)[0]
        areas[word] += 1


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tampered_reference_fails_the_run(workload, tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    tamper(workload, reference[workload]["small"])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code, result, report = run_bench(workload, 0, reference=path)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert report["failures"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, result, _ = run_bench("fa-z3ext", 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert code != 0 and result is None


def test_work_clock_excludes_probes_and_scales_by_them():
    with Speed() as speed:
        w0, t0 = time.perf_counter(), speed.now()
        while time.perf_counter() - w0 < 1.0:
            pass
        w1, t1 = time.perf_counter(), speed.now()
    inside = [d for t, d in zip(speed.times, speed.durations) if t0 < t < t1]
    assert inside
    # a probe between reading the wall clock and the work clock may be
    # counted on the wrong side of the interval
    assert abs((t1 - t0) - ((w1 - w0) - sum(inside))) <= max(speed.durations)
    lo = max((i for i, t in enumerate(speed.times) if t <= t0 - speed.margin), default=0)
    hi = min((i for i, t in enumerate(speed.times) if t >= t1 + speed.margin), default=len(speed.times) - 1)
    mean = sum(speed.durations[lo : hi + 1]) / (hi + 1 - lo)
    assert math.isclose(speed.scaled(t0, t1), (t1 - t0) * REF_S / mean)
