"""Self-test of the benchmark on tiny workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import record  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def set_up_in_process(name: str, seed: int, inputs: Path) -> tuple[float, float]:
    """``run.set_up`` without the fresh interpreter, which would not see the tiny sizes."""
    start = perf_counter()
    workloads.WORKLOADS[name](seed, reference={"seeds": {}}).generate(inputs)
    seconds = perf_counter() - start
    return seconds, seconds


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny sizes, with references recorded for seed 0 in a temporary directory."""
    monkeypatch.setattr(workloads.ScanHardy, "UNITS", 3)
    monkeypatch.setattr(workloads.ScanHardy, "SIZE", 6)
    monkeypatch.setattr(workloads.ScanKfun, "UNITS", 3)
    monkeypatch.setattr(workloads.ScanKfun, "N_PAIRS", 4)
    monkeypatch.setattr(workloads.LargeQuery, "FUNCTIONS", ((500, True), (500, False), (15, True), (15, False)))
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path / "reference")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "set_up", set_up_in_process)
    workloads.REFERENCE_DIR.mkdir()
    for name in WORKLOAD_NAMES:
        doc = record.record(name, [0], tmp_path / "inputs")
        workloads.reference_path(name).write_text(json.dumps(doc))
    return tmp_path


def bench(*argv) -> tuple[list[str], dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(list(argv)) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_prints_every_end_to_end_metric(tiny, name):
    lines, result = bench("--workload", name, "--seed", "0", "--seconds", "0", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.split()[:1] == [metric] and line.split()[-1] == unit for line in lines)
        assert result["metrics"][metric]["value"] > 0
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[len("provenance "):])
    assert provenance["seed"] == 0 and provenance["trace"] is False and provenance["nproc"] >= 1


def test_set_up_runs_in_a_fresh_interpreter(tmp_path):
    total, generated = run.set_up("scan_hardy", 0, tmp_path)
    assert 0.0 < generated < total


def test_unrecorded_seed_is_checked_against_the_default_verdicts(tiny):
    _, result = bench("--workload", "scan_hardy", "--seed", "5", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True and result["failed"] == 0


def test_unrecorded_seed_must_reproduce_the_known_false_row(tiny):
    workload = workloads.ScanHardy(5)
    csv_text = workload.unit_csv(0, {})
    assert ',"v=2.0,w=1.0",' in csv_text and csv_text.count(",False") == 1
    assert workload.unit_ok(0, csv_text)
    workload = workloads.ScanHardy(5)
    assert not workload.unit_ok(0, csv_text.replace(",False", ",True"))


def test_corrupted_scan_reference_counts_as_errors(tiny):
    path = workloads.reference_path("scan_hardy")
    doc = json.loads(path.read_text())
    doc["seeds"]["0"][1] = "0" * len(doc["seeds"]["0"][1])
    path.write_text(json.dumps(doc))
    _, result = bench("--workload", "scan_hardy", "--seed", "0", "--seconds", "0", "--trace", "0")
    assert result["correct"] is False
    # the second verify run fails as a whole, in each of the two passes
    assert result["failed"] == 2 * workloads.ScanHardy.SIZE * workloads.ScanHardy.CONFIGS


def test_corrupted_query_reference_counts_as_errors(tiny):
    path = workloads.reference_path("large_query")
    doc = json.loads(path.read_text())
    doc["seeds"]["0"][1][0] *= 1.0 + 1e-6  # the first function's ||f||_{2,1}
    path.write_text(json.dumps(doc))
    _, result = bench("--workload", "large_query", "--seed", "0", "--seconds", "0", "--trace", "0")
    assert result["correct"] is False
    assert result["failed"] == 2  # the norm, in both passes


def test_forced_deadline_miss_is_counted(tiny, monkeypatch):
    monkeypatch.setattr(workloads, "DEADLINE_S", 1e-6)
    workload = workloads.LargeQuery(0, reference={"seeds": {}})
    workload.generate(tiny)
    workload.load(tiny)
    result = workload.run_pass()
    assert result.misses == result.failed == result.attempted
    assert result.mismatches == result.exceptions == 0
    assert workload.kfun_misses(result) == 2
    assert min(result.item_seconds) >= 1e-6


def test_kfun_misses_are_the_only_failures(tiny, monkeypatch):
    # the quadratic K oracle takes about 1 s at 500 pieces and milliseconds at 15
    monkeypatch.setattr(workloads, "DEADLINE_S", 0.25)
    doc = record.record("large_query", [0], tiny / "inputs")
    workloads.reference_path("large_query").write_text(json.dumps(doc))
    _, result = bench("--workload", "large_query", "--seed", "0", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 2  # the 500-piece kfun, in both passes


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_self_times(tiny, name):
    lines, result = bench("--workload", name, "--seed", "0", "--seconds", "0", "--trace", "1")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    self_times = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= metrics["trace.wall_s"]
    assert metrics["interp.k_upper_oracle.deadline_misses"] == 0
    assert (run.WORK / f"spans-{name}-0.csv").exists()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOAD_NAMES[0], "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
