"""Smoke test for the benchmark at a tiny size (two short runs per workload).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
TINY_MS = 800


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == dict(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_and_restores_the_program(name):
    timed = run.timed(name, 0, 0.01, sample=2, duration_ms=TINY_MS, probes=1)
    assert timed["failed"] == 0, timed["problems"]
    assert set(timed["metrics"]) == set(declared("end_to_end"))
    assert all(v > 0 for v in timed["metrics"].values())

    def current():
        return {
            spec: owner.__dict__[attr]
            for spec, (owner, attr) in zip(run.TRACED, map(run.resolve, run.TRACED))
        }

    originals = current()
    traced = run.traced(name, 0, runs=2, duration_ms=TINY_MS)
    restored = current()
    assert all(restored[spec] is originals[spec] for spec in run.TRACED)
    assert traced["failed"] == 0, traced["problems"]
    assert set(traced["metrics"]) == set(declared("per_layer"))
    # Same seeds with and without tracing give the same traces.
    assert traced["seeds"] == timed["seeds"]
    assert traced["fingerprint"] == timed["fingerprint"]


def test_environment_is_recorded():
    env = run.environment()
    assert {"python", "gmpy2", "nproc", "commit"} <= set(env)


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / run.HERE.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
