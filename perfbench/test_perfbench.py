"""Tests of the end-to-end benchmark itself, at its seconds-long tiny shapes.

They drive ``perfbench/run.py`` the way a benchmark harness does (a fresh
process per run) and check that the printed metric names match
``BENCHMARK.json``, that a traced run is inert (same digest as the untraced
run), that the tracer restores every patched attribute, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pn-fig5", "heuristics-10k", "campaign-cold", "campaign-warm")


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    command = [
        sys.executable,
        str(script),
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0.2",
        "--trace",
        str(trace),
        "--tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def _digest(stdout: str) -> str:
    lines = [line for line in stdout.splitlines() if line.startswith("digest ")]
    assert len(lines) == 1, stdout
    return lines[0].split("sha256:")[1]


def test_tracer_restores_every_patched_attribute():
    missing = object()
    targets = bench_trace.traced_attributes()
    before = [vars(owner).get(attr, missing) for owner, attr in targets]
    with pytest.raises(RuntimeError):
        with bench_trace.Tracer().installed():
            for (owner, attr), original in zip(targets, before):
                assert vars(owner).get(attr, missing) is not original, (owner, attr)
            raise RuntimeError("leave the block by an exception")
    after = [vars(owner).get(attr, missing) for owner, attr in targets]
    for (owner, attr), old, new in zip(targets, before, after):
        assert new is old, (owner, attr)


def test_self_time_subtracts_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["child", 1.0, 3.0, 0, None],
        ["child", 5.0, 9.0, 0, None],
        ["grandchild", 5.5, 6.0, 2, None],
    ]
    assert bench_trace.self_times(spans) == [4.0, 2.0, 3.5, 0.5]


def test_per_layer_names_match_the_benchmark_file():
    declared = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    assert declared == bench_trace.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_declared_metrics_and_tracing_is_inert(workload):
    spec = _benchmark_spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    plain = _run(workload, 0)
    assert plain.returncode == 0, plain.stderr
    result = json.loads(plain.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = _run(workload, 1)
    assert traced.returncode == 0, traced.stderr
    traced_result = json.loads(traced.stdout.splitlines()[-1])
    assert traced_result["correct"] is True
    assert set(traced_result["metrics"]) == set(bench_trace.PER_LAYER_UNITS)
    assert _digest(traced.stdout) == _digest(plain.stdout)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("pn-fig5", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
