"""Tests of the benchmark's own code, on tiny workloads (n <= 4).

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

TINY = {
    "egs-n3": {"kind": "suite", "suite": "egs", "n": 3},
    "xall-n3": {"kind": "suite", "suite": "x-all", "n": 3},
    "reduce-n4": {"kind": "reduce", "n": 4},
    "sink-n3": {"kind": "suite", "suite": "sink", "n": 3},
}


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


def _write_reference(path: Path, data: dict) -> Path:
    data = {key: value for key, value in data.items() if key != "reduce_sha256"}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _printed(lines: list[str], name: str) -> list[str]:
    return [line.split() for line in lines if line.split()[:1] == [name]]


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_end_to_end_metric_prints_with_its_unit(name, reference):
    result = run.run_workload(TINY[name], seed=1, seconds=0, trace=False, reference=reference)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPS * len(run.expected_ops(TINY[name], reference))
    lines = run.report(name, result)
    for metric, unit, _, _ in run.END_TO_END:
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
        (fields,) = _printed(lines, metric)
        assert fields[2] == unit
    (fields,) = _printed(lines, "failed_frac")
    assert float(fields[1]) == 0


@pytest.mark.parametrize("name", ["egs-n3", "reduce-n4"])
def test_traced_run_prints_every_per_layer_metric_and_counters_repeat(name, reference):
    first = run.run_workload(TINY[name], seed=2, seconds=0, trace=True, reference=reference)
    second = run.run_workload(TINY[name], seed=2, seconds=0, trace=True, reference=reference)
    assert first["correct"] and second["correct"]
    lines = run.report(name, first)
    for metric, unit, _ in run.PER_LAYER:
        assert first["metrics"][metric]["unit"] == unit
        (fields,) = _printed(lines, metric)
        assert fields[2] == unit
        if unit == "count" and metric != "trace.counter_mismatches":
            assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["trace.counter_mismatches"]["value"] == 0
    assert first["metrics"]["cli.calls"]["value"] > 0
    assert first["metrics"]["qpoly.calls"]["value"] > 0


def test_corrupted_reference_counts_failures_without_crashing(tmp_path, reference):
    data = json.loads(json.dumps({k: v for k, v in reference.items() if k != "reduce_sha256"}))
    data["reduce"]["1,2,3,4"] = data["reduce"]["1,2,3,4"].replace("1", "2", 1)
    data["suites"]["egs"]["3"][0] = "E = G = S on 999 functions"
    corrupt = run.load_reference(_write_reference(tmp_path / "reference.json.gz", data))
    for name in ("reduce-n4", "egs-n3"):
        result = run.run_workload(TINY[name], seed=1, seconds=0, trace=False, reference=corrupt)
        assert not result["correct"]
        assert 0 < result["failed"] < result["attempted"]
        (fields,) = _printed(run.report(name, result), "failed_frac")
        assert float(fields[1]) > 0
        assert set(result["metrics"]) == {metric for metric, *_ in run.END_TO_END}


def test_main_prints_one_json_result_last(monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", {"reduce-n4": TINY["reduce-n4"]})
    assert run.main(["--workload", "reduce-n4", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {metric for metric, *_ in run.END_TO_END}


def test_reduce_inputs_depend_only_on_the_seed():
    import child

    ms = [(1, 2), (2, 2), (1, 3), (3, 3)]
    assert child.reduce_order(ms, 5, 0) == child.reduce_order(ms, 5, 0)
    assert sorted(child.reduce_order(ms, 6, 1)) == sorted(ms)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "egs-n6", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
