"""High-cardinality group-by ingestion and windowed-rollup speed gates.

The registry's grouped pipeline exists so that 1M samples spread over 1k
tagged series do not cost 1M Python call chains: one ``key_batch`` over the
whole batch, one combined ``bincount`` into one row per series (each
spanning that series' own key range), and a per-series fan-out.  This
module gates that design:

* grouped ingestion must be **>= 10x** faster than the per-series Python
  ``add`` loop at 1k-series cardinality (in practice the gap is 30-80x);
* the hierarchical window cache must answer a repeated "p99 over this
  window" rollup at least 2x faster than re-merging every interval (warm
  cache; in practice the gap is 50x+);
* both paths must produce answers identical to the naive ones, so the speed
  is not bought with different sketches.

The measured timings are additionally written to ``BENCH_groupby.json`` at
the repository root — in the shared benchmark-artifact schema
(:mod:`repro.evaluation.artifacts`) — so the CI perf job can archive the
benchmark trajectory across commits.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.presets import LogUnboundedDenseDDSketch
from repro.evaluation.artifacts import write_bench_artifact
from repro.evaluation.config import bench_scale
from repro.monitoring import SketchTimeSeries
from repro.registry import SeriesKey, SketchRegistry

N_VALUES = 1_000_000
N_SERIES = 1_000
N_INTERVALS = 2_048

BENCH_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_groupby.json"


def _record_bench(section: str, payload: dict) -> None:
    """Merge one section into the BENCH_groupby.json trajectory file."""
    write_bench_artifact(BENCH_OUTPUT, "groupby", section, payload)


def _time(function):
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


@pytest.fixture(scope="module")
def workload():
    size = max(int(N_VALUES * bench_scale()), 50_000)
    series = max(min(N_SERIES, size // 50), 100)
    rng = np.random.default_rng(0)
    group_indices = rng.integers(0, series, size)
    values = rng.lognormal(0.0, 1.5, size)
    keys = [SeriesKey("web.latency", (("endpoint", f"/e{index:04d}"),)) for index in range(series)]
    return keys, group_indices, values


def test_grouped_ingest_speedup(benchmark, workload):
    """Registry grouped ingestion >= 10x over the per-series Python add loop."""
    keys, group_indices, values = workload
    factory = lambda: LogUnboundedDenseDDSketch(relative_accuracy=0.01)  # noqa: E731

    def measure():
        # Warm up one-time costs (ufunc dispatch, allocator) outside the
        # measured windows.
        SketchRegistry(sketch_factory=factory).ingest_grouped(keys, group_indices, values)

        def grouped():
            registry = SketchRegistry(sketch_factory=factory)
            registry.ingest_grouped(keys, group_indices, values)
            return registry

        def loop():
            registry = SketchRegistry(sketch_factory=factory)
            sketches = [registry.sketch(key) for key in keys]
            for group, value in zip(group_indices.tolist(), values.tolist()):
                sketches[group].add(value)
            return registry

        grouped_seconds, grouped_registry = _time(grouped)
        loop_seconds, loop_registry = _time(loop)
        return loop_seconds, grouped_seconds, loop_registry, grouped_registry

    loop_seconds, grouped_seconds, loop_registry, grouped_registry = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = loop_seconds / grouped_seconds
    n = len(values)
    print()
    print(f"group-by ingestion: {n} values over {len(keys)} series")
    print(f"  per-series add loop {loop_seconds / n * 1e9:10.0f} ns/value")
    print(f"  grouped ingest      {grouped_seconds / n * 1e9:10.0f} ns/value")
    print(f"  speedup             {speedup:10.1f} x")

    # Speed must not change the sketches.
    assert grouped_registry.num_series == loop_registry.num_series
    for key in (keys[0], keys[len(keys) // 2], keys[-1]):
        assert (
            grouped_registry.get(key).store.key_counts()
            == loop_registry.get(key).store.key_counts()
        )
    assert grouped_registry.total_count() == loop_registry.total_count()

    _record_bench(
        "grouped_ingest",
        {
            "values": n,
            "series": len(keys),
            "loop_seconds": loop_seconds,
            "grouped_seconds": grouped_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 10.0, f"expected >= 10x, measured {speedup:.1f}x"


def test_windowed_rollup_reuses_cached_windows(benchmark):
    """Warm hierarchical rollups >= 2x over re-merging every interval."""
    intervals = max(int(N_INTERVALS * min(bench_scale(), 4)), 256)
    rng = np.random.default_rng(1)
    series = SketchTimeSeries("m", interval_length=1.0, window_factors=(16, 256))
    per_interval = rng.lognormal(0.0, 1.0, (intervals, 20))
    for interval in range(intervals):
        series.ingest_values(float(interval), per_interval[interval])

    def measure():
        def naive():
            sketches = [sketch for _, sketch in series]
            merged = sketches[0].copy()
            for sketch in sketches[1:]:
                merged.merge(sketch)
            return merged

        series.rollup()  # cold pass materialises the window hierarchy
        warm_seconds, warm_rollup = _time(lambda: series.rollup())
        naive_seconds, naive_rollup = _time(naive)
        return naive_seconds, warm_seconds, naive_rollup, warm_rollup

    naive_seconds, warm_seconds, naive_rollup, warm_rollup = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = naive_seconds / warm_seconds
    print()
    print(f"windowed rollup: {intervals} intervals, window factors (16, 256)")
    print(f"  naive re-merge      {naive_seconds * 1e3:10.2f} ms")
    print(f"  cached hierarchy    {warm_seconds * 1e3:10.2f} ms")
    print(f"  speedup             {speedup:10.1f} x")

    assert warm_rollup.count == naive_rollup.count
    assert warm_rollup.get_quantiles((0.5, 0.99)) == naive_rollup.get_quantiles((0.5, 0.99))

    _record_bench(
        "windowed_rollup",
        {
            "intervals": intervals,
            "naive_seconds": naive_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 2.0, f"expected >= 2x, measured {speedup:.1f}x"
