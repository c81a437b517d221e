"""Kernel-backend ingest speed: per-path ns/value for every available backend.

The columnar ingest kernel (:mod:`repro.kernel`) serves three ingest shapes —
the scalar ``add`` adapter, the vectorized ``add_batch`` path, and the
grouped multi-series path — through either the pure-NumPy reference backend
or the optional compiled backend.  This module times all three shapes under
each backend that loads on this host and writes the trajectory to
``BENCH_kernel.json`` (shared schema, :mod:`repro.evaluation.artifacts`),
recording which backend produced each number.

The speed gate lives on the **cubically-interpolated batch path**: that
mapping's key computation fuses entirely into the C pass (frexp + polynomial
+ ceil), so the native backend must be **>= 1.5x** the NumPy backend there
whenever it is available.  The gated pair is timed in thread CPU time, the
backends alternating round by round, so another process sharing the host
slows both sides alike instead of only the one that runs while it does.  The logarithmic mapping's batch numbers are
recorded ungated — its ``log`` pass stays on the NumPy side by design (libm
and NumPy logs differ in the last ulp), so the native win is structurally
smaller.  When the native backend cannot be built, the NumPy numbers are
still recorded and the gate is skipped with the loader's reason.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro import kernel
from repro.core import BaseDDSketch
from repro.evaluation.artifacts import write_bench_artifact
from repro.evaluation.config import bench_scale
from repro.kernel.native import availability
from repro.mapping import CubicallyInterpolatedMapping, LogarithmicMapping
from repro.store import DenseStore

N_BATCH = 1_000_000
N_SCALAR = 20_000
N_GROUPS = 1_000

REQUIRED_BATCH_SPEEDUP = 1.5
GATE_ROUNDS = 5

BENCH_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

_AVAILABLE, _REASON = availability()
BACKENDS = ("numpy", "native") if _AVAILABLE else ("numpy",)


@pytest.fixture(autouse=True)
def _restore_backend():
    before = kernel.active_backend()
    yield
    kernel.set_backend(before)


def _sketch(mapping_cls):
    return BaseDDSketch(mapping_cls(0.01), DenseStore(), DenseStore())


def _best_of(rounds, run):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _gated_batch_cubic(values):
    """ns/value of the cubic batch path per backend: the best of
    ``GATE_ROUNDS`` thread-CPU timings, alternating backends each round."""
    best = dict.fromkeys(BACKENDS, float("inf"))
    for _ in range(GATE_ROUNDS):
        for backend in BACKENDS:
            kernel.set_backend(backend)
            start = time.thread_time()
            _sketch(CubicallyInterpolatedMapping).add_batch(values)
            best[backend] = min(best[backend], time.thread_time() - start)
    return {backend: seconds / values.size * 1e9 for backend, seconds in best.items()}


@pytest.fixture(scope="module")
def workload():
    scale = bench_scale()
    n_batch = max(int(N_BATCH * scale), 100_000)
    n_scalar = max(int(N_SCALAR * scale), 2_000)
    rng = np.random.default_rng(7)
    values = rng.lognormal(0.0, 1.5, n_batch)
    groups = rng.integers(0, N_GROUPS, n_batch)
    return values, values[:n_scalar], groups


def _measure_backend(backend, values, scalar_values, groups):
    """ns/value for every ungated ingest shape under one kernel backend."""
    kernel.set_backend(backend)
    n = values.size

    def scalar():
        sketch = _sketch(LogarithmicMapping)
        for value in scalar_values.tolist():
            sketch.add(value)

    def batch():
        _sketch(LogarithmicMapping).add_batch(values)

    def grouped(num_groups):
        sketches = [_sketch(CubicallyInterpolatedMapping) for _ in range(num_groups)]
        group_indices = groups % num_groups
        return lambda: BaseDDSketch.add_grouped_batch(sketches, group_indices, values)

    return {
        "backend": backend,
        "scalar_ns_per_value": _best_of(2, scalar) / scalar_values.size * 1e9,
        "batch_log_ns_per_value": _best_of(3, batch) / n * 1e9,
        "grouped_1series_ns_per_value": _best_of(2, grouped(1)) / n * 1e9,
        "grouped_1000series_ns_per_value": _best_of(2, grouped(N_GROUPS)) / n * 1e9,
    }


def test_kernel_backend_speed(benchmark, workload):
    """Record per-backend ns/value; gate native >= 1.5x on the cubic batch path."""
    values, scalar_values, groups = workload
    session_backend = kernel.active_backend()  # before the measure loop mutates it

    def measure():
        results = {
            backend: _measure_backend(backend, values, scalar_values, groups)
            for backend in BACKENDS
        }
        for backend, ns_per_value in _gated_batch_cubic(values).items():
            results[backend]["batch_cubic_ns_per_value"] = ns_per_value
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    print()
    print(f"kernel ingest: {values.size} values, backends: {', '.join(BACKENDS)}")
    for backend, metrics in results.items():
        write_bench_artifact(BENCH_OUTPUT, "kernel", backend, metrics)
        print(
            f"  {backend:7s} scalar {metrics['scalar_ns_per_value']:8.0f}  "
            f"batch(log) {metrics['batch_log_ns_per_value']:6.1f}  "
            f"batch(cubic) {metrics['batch_cubic_ns_per_value']:6.1f}  "
            f"grouped@1 {metrics['grouped_1series_ns_per_value']:6.1f}  "
            f"grouped@1k {metrics['grouped_1000series_ns_per_value']:6.1f}  ns/value"
        )

    comparison = {
        "active_backend": session_backend,
        "native_available": _AVAILABLE,
        "gate_enforced": _AVAILABLE,
        "required_batch_speedup": REQUIRED_BATCH_SPEEDUP,
    }
    if not _AVAILABLE:
        comparison["native_unavailable_reason"] = str(_REASON)
        write_bench_artifact(BENCH_OUTPUT, "kernel", "comparison", comparison)
        pytest.skip(f"native kernel backend unavailable: {_REASON}")

    for path in (
        "batch_cubic_ns_per_value",
        "batch_log_ns_per_value",
        "grouped_1000series_ns_per_value",
        "scalar_ns_per_value",
    ):
        comparison[path.replace("_ns_per_value", "_speedup")] = (
            results["numpy"][path] / results["native"][path]
        )
    write_bench_artifact(BENCH_OUTPUT, "kernel", "comparison", comparison)
    speedup = comparison["batch_cubic_speedup"]
    print(f"  native batch(cubic) speedup: {speedup:.2f}x (gate >= {REQUIRED_BATCH_SPEEDUP}x)")
    assert speedup >= REQUIRED_BATCH_SPEEDUP, (
        f"native kernel batch path must be >= {REQUIRED_BATCH_SPEEDUP}x the NumPy "
        f"backend on the fully-fused cubic mapping, measured {speedup:.2f}x"
    )
