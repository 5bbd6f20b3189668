"""Self-tests of the sample-journey benchmark.

    python3 -m pytest perfbench/tests -q

They run the benchmark the way a driver does (``perfbench/run.py`` in a
subprocess, last stdout line is the result) at the smallest size, and
drive the journey in-process where a test has to tamper with the
system.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import journey  # noqa: E402
from percentiles import percentile, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
#: Smallest run: every workload does its two-round minimum.
TINY = ["--seed", "3", "--seconds", "0.5"]


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return json.loads(lines[-1])


def test_spec_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert {w["name"] for w in SPEC["workloads"]} == set(journey.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(journey.WORKLOADS))
def test_tiny_run_passes_the_gate(workload):
    proc = _run(ROOT, "--workload", workload, *TINY, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert metric["value"] > 0, name


def test_traced_run_reports_every_layer_metric():
    proc = _run(ROOT, "--workload", "hot-loop", *TINY, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    assert "stage table: hot-loop" in proc.stdout
    assert result["metrics"]["trace.coverage"]["value"] > 0.5
    trace = json.loads((BENCH / "out" / "trace-hot-loop-seed3-trace1.json").read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"runtime", "service.engine", "query.writer", "query.engine.topk"} <= names


def test_checkout_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "hot-loop", *TINY, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_journey(tmp_path, seed=5, rounds=2, name="hot-loop"):
    workload = journey.WORKLOADS[name]
    (setup, service, root), _ = journey.timed_setups(workload, str(tmp_path), count=1)
    return journey.run_journey(workload, setup, service, root, seed, rounds)


def test_counts_repeat_for_a_fixed_seed(tmp_path):
    first = _tiny_journey(tmp_path / "a")
    second = _tiny_journey(tmp_path / "b")
    assert first.correct and second.correct
    for key in ("samples", "distinct_contexts", "rows_written"):
        assert first.counts[key] == second.counts[key] > 0, key


def test_a_sink_that_drops_one_sample_per_batch_fails_the_gate(tmp_path, monkeypatch):
    from repro.service import ContextService
    from repro.service.batch import SampleBatch

    original = ContextService.submit_batch

    def lossy(self, batch, **kwargs):
        return original(self, SampleBatch.from_samples(list(batch)[:-1]), **kwargs)

    monkeypatch.setattr(ContextService, "submit_batch", lossy)
    result = _tiny_journey(tmp_path)
    assert not result.correct
    assert any("service saw" in problem for problem in result.problems)


def test_percentiles_are_exact_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    # 100 samples: p90 is the highest rung with >= 10 samples above it.
    assert tail(values) == (90.0, 90)
    assert tail(list(range(1, 100_001)))[0] == 99.99
