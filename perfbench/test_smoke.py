"""Tiny-scale smoke test of the benchmark.

Run from the repository root with ``python -m pytest perfbench -q``.  Each
workload runs end to end and traced at a few dozen series, and must emit
exactly the metrics ``BENCHMARK.json`` names, pass its self-checks, and
fail them when the reference it checks against is deliberately wrong.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

ENV = run.prepare_environment()

from e2e import run_e2e  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from traced import run_traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())

TINY = {
    "wide": dict(endpoints=40, rounds=2, queries_per_round=10),
    "deep": dict(endpoints=8, values_per_series=300, rounds=2, queries_per_round=10),
}


def _tiny(name):
    return dataclasses.replace(WORKLOADS[name], pushes_per_second=0.0, **TINY[name])


def _expected(section):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_run_emits_every_metric_and_passes_its_checks(name, tmp_path):
    result = run_e2e(_tiny(name), seed=3, seconds=1, workdir=tmp_path, env=ENV)
    assert result["correct"], result["report"]["checks"]
    assert result["failed"] == 0, result["report"]["errors"]
    assert result["attempted"] > 0
    emitted = {metric: body["unit"] for metric, body in result["metrics"].items()}
    assert emitted == _expected("end_to_end")
    assert all(body["value"] > 0 for body in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_layer_metric(name, tmp_path):
    result = run_traced(_tiny(name), seed=3, seconds=1, workdir=tmp_path, env=ENV)
    assert result["correct"], result["report"]["checks"]
    assert result["failed"] == 0, result["report"]["errors"]
    emitted = {metric: body["unit"] for metric, body in result["metrics"].items()}
    assert emitted == _expected("per_layer")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_fail_against_a_wrong_reference(name, tmp_path):
    def tamper(reference):
        key = reference.inputs.population[0]
        reference.all_time.add(key.metric, 12345.0, weight=1e6, tags=key.tags)

    result = run_e2e(_tiny(name), seed=3, seconds=1, workdir=tmp_path, env=ENV, tamper=tamper)
    assert not result["correct"]
    assert result["failed"] > 0
    assert not all(result["report"]["checks"].values())


def test_every_layer_metric_names_its_targets():
    layers = {name: body for name, body in LAYERS.items() if not name.startswith("_")}
    assert set(layers) == set(_expected("per_layer"))
    end_to_end = set(_expected("end_to_end"))
    workloads = {entry["name"] for entry in BENCHMARK["workloads"]}
    assert workloads == set(WORKLOADS)
    for body in layers.values():
        assert body["moves"] and set(body["moves"]) <= end_to_end
        assert body["on"] in workloads
        assert body["flat_on"] in workloads | {None}
        assert body["flat_on"] != body["on"]


def test_host_probe_measures_and_stops(tmp_path):
    with HostSpeed(tmp_path) as host:
        begin = time.perf_counter()
        time.sleep(0.5)
        end = time.perf_counter()
    assert host._process.poll() is not None
    assert host.probes >= 12
    assert 0.5 < host.slowdown(begin, end) < 5.0


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run must fail fast."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
