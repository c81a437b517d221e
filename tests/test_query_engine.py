"""Tests for :mod:`repro.query` — cubes, merge cache, and threshold pruning.

The engine's headline contract is **bit-exactness**: whichever path answers a
query (LRU cache, premerged cube cell, naive merge-on-read), the merged
sketch holds the same bucket counts, so every derived answer — quantiles,
counts, threshold classifications — is identical to scanning the raw series.
That is checked here across store families (dense, sparse, collapsing,
adaptive-accuracy UDDSketch with mixed post-collapse accuracies) and under a
Hypothesis-driven interleaving of ingests and queries that would expose any
stale cache entry.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DDSketch,
    EmptySketchError,
    IllegalArgumentError,
    LogCollapsingLowestDenseDDSketch,
    SketchRegistry,
    SparseDDSketch,
    UDDSketch,
)
from repro.monitoring import Aggregator
from repro.query import MergeCache, QueryEngine, RollupCube, ThresholdResult

QUANTILES = (0.0, 0.25, 0.5, 0.95, 0.99, 1.0)

SKETCH_FAMILIES = {
    "dense": lambda: DDSketch(relative_accuracy=0.01),
    "sparse": lambda: SparseDDSketch(relative_accuracy=0.01),
    "collapsing": lambda: LogCollapsingLowestDenseDDSketch(
        relative_accuracy=0.01, bin_limit=64
    ),
    "udd": lambda: UDDSketch(relative_accuracy=0.01, bin_limit=64),
}


def populated_aggregator(sketch_factory):
    aggregator = Aggregator(interval_length=1.0, sketch_factory=sketch_factory)
    for endpoint in ("/a", "/b", "/c"):
        for host in ("h1", "h2"):
            for interval in range(6):
                values = [
                    (interval + 1) * scale
                    for scale in (1.0, 2.0, 5.0, 10.0 if endpoint == "/c" else 3.0)
                ]
                aggregator.ingest_values(
                    "lat",
                    float(interval),
                    values,
                    tags={"endpoint": endpoint, "host": host},
                )
    return aggregator


def assert_same_bits(left, right):
    """Two sketches derived from the same deltas must agree on every read."""
    assert left.count == right.count
    assert left.get_quantiles(QUANTILES) == right.get_quantiles(QUANTILES)


class TestBitExactness:
    @pytest.mark.parametrize("family", sorted(SKETCH_FAMILIES))
    def test_cube_path_matches_naive(self, family):
        factory = SKETCH_FAMILIES[family]
        aggregator = populated_aggregator(factory)
        engine = aggregator.query_engine(cube_dimensions=(("endpoint",),))
        for endpoint in ("/a", "/b", "/c"):
            merged = engine.rollup("lat", tag_filter={"endpoint": endpoint})
            naive = aggregator.rollup("lat", tag_filter={"endpoint": endpoint})
            assert_same_bits(merged, naive)
        assert engine.stats()["cube_hits"] >= 3
        assert engine.stats()["naive_merges"] == 0

    @pytest.mark.parametrize("family", sorted(SKETCH_FAMILIES))
    def test_cache_and_naive_paths_match(self, family):
        factory = SKETCH_FAMILIES[family]
        aggregator = populated_aggregator(factory)
        engine = aggregator.query_engine()  # no cube: naive then cached
        first = engine.quantiles("lat", QUANTILES, tag_filter={"host": "h1"})
        second = engine.quantiles("lat", QUANTILES, tag_filter={"host": "h1"})
        naive = aggregator.rollup("lat", tag_filter={"host": "h1"}).get_quantiles(
            QUANTILES
        )
        assert first == second == [float(value) for value in naive]
        stats = engine.stats()
        assert stats["cache_hits"] >= 1
        assert stats["naive_merges"] == 1

    def test_windowed_queries_match(self):
        aggregator = populated_aggregator(SKETCH_FAMILIES["dense"])
        engine = aggregator.query_engine(cube_dimensions=(("endpoint",),))
        merged = engine.rollup("lat", tag_filter={"endpoint": "/a"}, start=1.0, end=4.0)
        naive = aggregator.rollup(
            "lat", tag_filter={"endpoint": "/a"}, start=1.0, end=4.0
        )
        assert_same_bits(merged, naive)

    def test_cube_seeded_from_preexisting_data(self):
        aggregator = populated_aggregator(SKETCH_FAMILIES["dense"])
        # Engine created *after* ingest: cube cells come from the seed pass.
        engine = aggregator.query_engine(cube_dimensions=(("endpoint", "host"),))
        merged = engine.rollup("lat", tag_filter={"endpoint": "/b", "host": "h2"})
        naive = aggregator.rollup("lat", tag_filter={"endpoint": "/b", "host": "h2"})
        assert_same_bits(merged, naive)
        assert engine.stats()["cube_hits"] == 1

    def test_mixed_accuracy_udd_shards(self):
        # Force different collapse depths per series: after collapsing, the
        # shards' *current* accuracies differ, and merging can collapse
        # further.  The engine must still agree with naive merge-on-read.
        registry = SketchRegistry(
            sketch_factory=lambda: UDDSketch(relative_accuracy=0.01, bin_limit=16)
        )
        spans = {"h1": 10.0, "h2": 1e4, "h3": 1e8}
        for host, span in spans.items():
            sketch = registry.sketch("lat", {"host": host})
            for step in range(200):
                sketch.add(1.0 + span * step / 200)
        accuracies = {
            registry.get("lat", {"host": host}).relative_accuracy for host in spans
        }
        assert len(accuracies) > 1  # genuinely mixed-alpha shards
        engine = registry.query_engine()
        merged = engine.rollup("lat", tag_filter={})
        naive = registry.rollup("lat")
        assert_same_bits(merged, naive)


class TestCacheInvalidation:
    def test_ingest_invalidates_matching_entries(self):
        aggregator = populated_aggregator(SKETCH_FAMILIES["dense"])
        engine = aggregator.query_engine()
        before = engine.quantile("lat", 1.0, tag_filter={"endpoint": "/a"})
        aggregator.ingest_values(
            "lat", 0.0, [1e6], tags={"endpoint": "/a", "host": "h1"}
        )
        after = engine.quantile("lat", 1.0, tag_filter={"endpoint": "/a"})
        naive = aggregator.rollup("lat", tag_filter={"endpoint": "/a"}).quantile(1.0)
        assert after == naive != before
        assert engine.stats()["cache_invalidations"] >= 1

    def test_unrelated_entries_survive_invalidation(self):
        aggregator = populated_aggregator(SKETCH_FAMILIES["dense"])
        engine = aggregator.query_engine()
        engine.quantile("lat", 0.5, tag_filter={"endpoint": "/b"})
        aggregator.ingest_values(
            "lat", 0.0, [1e6], tags={"endpoint": "/a", "host": "h1"}
        )
        hits_before = engine.stats()["cache_hits"]
        engine.quantile("lat", 0.5, tag_filter={"endpoint": "/b"})
        assert engine.stats()["cache_hits"] == hits_before + 1

    def test_lru_eviction(self):
        aggregator = populated_aggregator(SKETCH_FAMILIES["dense"])
        engine = QueryEngine.over_aggregator(aggregator, cache_capacity=2)
        for endpoint in ("/a", "/b", "/c"):
            engine.quantile("lat", 0.5, tag_filter={"endpoint": endpoint})
        assert len(engine.cache) == 2
        assert engine.cache.evictions == 1
        # The evicted (oldest) entry re-merges and still answers correctly.
        value = engine.quantile("lat", 0.5, tag_filter={"endpoint": "/a"})
        assert value == aggregator.rollup("lat", tag_filter={"endpoint": "/a"}).quantile(0.5)

    def test_registry_version_change_rebuilds(self):
        registry = SketchRegistry()
        registry.sketch("lat", {"host": "h1"}).add(1.0)
        engine = registry.query_engine(cube_dimensions=("host",))
        assert engine.quantile("lat", 0.5, tag_filter={"host": "h1"}) == pytest.approx(
            1.0, rel=0.011
        )
        sketch = registry.sketch("lat", {"host": "h1"})  # bumps data_version
        sketch.add(1000.0)
        merged = engine.rollup("lat", tag_filter={"host": "h1"})
        assert merged.count == registry.rollup("lat", tag_filter={"host": "h1"}).count


class TestInterleavedIngestAndQuery:
    ENDPOINTS = ("/a", "/b", "/c")

    @given(
        operations=st.lists(
            st.one_of(
                st.tuples(
                    st.just("ingest"),
                    st.sampled_from(ENDPOINTS),
                    st.integers(min_value=0, max_value=4),
                    st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
                ),
                st.tuples(st.just("query"), st.sampled_from(ENDPOINTS)),
                st.tuples(st.just("threshold"), st.floats(min_value=0.1, max_value=1e5)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_no_stale_answers(self, operations):
        """Every query answered mid-stream agrees with a fresh naive merge."""
        aggregator = Aggregator(interval_length=1.0)
        engine = aggregator.query_engine(cube_dimensions=(("endpoint",),))
        for operation in operations:
            if operation[0] == "ingest":
                _, endpoint, interval, value = operation
                aggregator.ingest_values(
                    "lat", float(interval), [value], tags={"endpoint": endpoint}
                )
            elif operation[0] == "query":
                _, endpoint = operation
                try:
                    answer = engine.quantiles(
                        "lat", QUANTILES, tag_filter={"endpoint": endpoint}
                    )
                except EmptySketchError:
                    with pytest.raises(EmptySketchError):
                        aggregator.rollup("lat", tag_filter={"endpoint": endpoint})
                    continue
                naive = aggregator.rollup(
                    "lat", tag_filter={"endpoint": endpoint}
                ).get_quantiles(QUANTILES)
                assert answer == [float(value) for value in naive]
            else:
                _, threshold = operation
                try:
                    result = engine.threshold_query("lat", 0.95, threshold)
                except EmptySketchError:
                    continue
                expected = [
                    key
                    for key in aggregator.series_keys("lat")
                    if aggregator.series(key.metric, key.tags).num_intervals > 0
                    and aggregator.rollup(key.metric, tags=key.tags).quantile(0.95)
                    > threshold
                ]
                assert sorted(map(str, result.matches)) == sorted(map(str, expected))


class TestThresholdQueries:
    def _hot_cold_aggregator(self, num_cold=20, num_hot=2):
        aggregator = Aggregator(interval_length=1.0)
        for index in range(num_cold):
            aggregator.ingest_values(
                "lat", 0.0, [1.0, 2.0, 3.0], tags={"host": f"cold{index}"}
            )
        for index in range(num_hot):
            aggregator.ingest_values(
                "lat", 0.0, [500.0, 900.0], tags={"host": f"hot{index}"}
            )
        return aggregator

    def test_matches_equal_bruteforce_scan(self):
        aggregator = self._hot_cold_aggregator()
        engine = aggregator.query_engine()
        result = engine.threshold_query("lat", 0.99, 100.0)
        expected = {
            str(key)
            for key in aggregator.series_keys("lat")
            if aggregator.rollup("lat", tags=key.tags).quantile(0.99) > 100.0
        }
        assert {str(key) for key in result.matches} == expected
        assert len(result.matches) == 2

    def test_selective_threshold_prunes_without_scanning(self):
        aggregator = self._hot_cold_aggregator()
        engine = aggregator.query_engine()
        result = engine.threshold_query("lat", 0.99, 100.0)
        # 1e2 threshold sits far outside every cold series' value range, so
        # bounds alone classify them; only boundary-straddling series scan.
        assert result.total_series == 22
        assert result.prune_rate >= 0.9
        assert set(result.scanned) <= set(result.matches) | set()

    def test_below_threshold_direction(self):
        aggregator = self._hot_cold_aggregator()
        engine = aggregator.query_engine()
        result = engine.threshold_query("lat", 0.5, 100.0, above=False)
        expected = {
            str(key)
            for key in aggregator.series_keys("lat")
            if aggregator.rollup("lat", tags=key.tags).quantile(0.5) < 100.0
        }
        assert {str(key) for key in result.matches} == expected
        assert len(result.matches) == 20

    def test_empty_series_in_window_is_pruned_not_matched(self):
        aggregator = self._hot_cold_aggregator()
        aggregator.ingest_values("lat", 50.0, [1e6], tags={"host": "late"})
        engine = aggregator.query_engine()
        result = engine.threshold_query("lat", 0.99, 0.5, start=0.0, end=1.0)
        matched = {str(key) for key in result.matches}
        assert "lat{host=late}" not in matched
        assert result.total_series == 23
        assert len(result.matches) == 22

    def test_windowed_threshold(self):
        aggregator = Aggregator(interval_length=1.0)
        aggregator.ingest_values("lat", 0.0, [1.0], tags={"host": "a"})
        aggregator.ingest_values("lat", 5.0, [1000.0], tags={"host": "a"})
        engine = aggregator.query_engine()
        assert engine.threshold_query("lat", 0.99, 100.0, start=0.0, end=1.0).matches == []
        late = engine.threshold_query("lat", 0.99, 100.0, start=5.0, end=6.0)
        assert [str(key) for key in late.matches] == ["lat{host=a}"]

    def test_tag_filtered_population(self):
        aggregator = self._hot_cold_aggregator()
        aggregator.ingest_values(
            "lat", 0.0, [999.0], tags={"host": "hot9", "dc": "eu"}
        )
        engine = aggregator.query_engine()
        result = engine.threshold_query("lat", 0.99, 100.0, tag_filter={"dc": "eu"})
        assert result.total_series == 1
        assert [str(key) for key in result.matches] == ["lat{dc=eu,host=hot9}"]

    def test_prune_rate_empty_population(self):
        result = ThresholdResult(
            metric="lat", quantile=0.5, threshold=1.0, above=True
        )
        assert result.prune_rate == 0.0
        assert result.pruned == 0


class TestRegistrySource:
    def test_rollup_and_threshold_over_registry(self):
        registry = SketchRegistry()
        for host in range(8):
            registry.add("lat", 1.0 + host, tags={"host": f"h{host}"})
        engine = registry.query_engine(cube_dimensions=("host",))
        merged = engine.rollup("lat", tag_filter={})
        assert merged.count == registry.rollup("lat").count
        result = engine.threshold_query("lat", 0.5, 5.0)
        expected = {str(key) for key, sketch in registry if sketch.quantile(0.5) > 5.0}
        assert {str(key) for key in result.matches} == expected

    def test_window_rejected_over_registry(self):
        registry = SketchRegistry()
        registry.sketch("lat").add(1.0)
        engine = registry.query_engine()
        with pytest.raises(IllegalArgumentError):
            engine.quantile("lat", 0.5, start=0.0)
        with pytest.raises(IllegalArgumentError):
            engine.threshold_query("lat", 0.5, 1.0, end=5.0)


class TestValidationAndCubeShape:
    def test_bad_quantile_rejected(self):
        aggregator = populated_aggregator(SKETCH_FAMILIES["dense"])
        engine = aggregator.query_engine()
        with pytest.raises(IllegalArgumentError):
            engine.quantile("lat", 1.5)
        with pytest.raises(IllegalArgumentError):
            engine.threshold_query("lat", -0.1, 1.0)

    def test_tags_and_tag_filter_mutually_exclusive(self):
        aggregator = populated_aggregator(SKETCH_FAMILIES["dense"])
        engine = aggregator.query_engine()
        with pytest.raises(IllegalArgumentError):
            engine.quantile(
                "lat", 0.5, tags={"endpoint": "/a"}, tag_filter={"endpoint": "/a"}
            )

    def test_exact_series_tags_delegate_to_source(self):
        aggregator = populated_aggregator(SKETCH_FAMILIES["dense"])
        engine = aggregator.query_engine()
        tags = {"endpoint": "/a", "host": "h1"}
        assert engine.quantile("lat", 0.5, tags=tags) == aggregator.quantile(
            "lat", 0.5, tags=tags
        )

    def test_cube_only_serves_exact_dimension_filters(self):
        aggregator = populated_aggregator(SKETCH_FAMILIES["dense"])
        engine = aggregator.query_engine(cube_dimensions=(("endpoint",),))
        engine.quantile("lat", 0.5, tag_filter={"host": "h1"})  # not a dimension
        stats = engine.stats()
        assert stats["cube_hits"] == 0
        assert stats["naive_merges"] == 1

    def test_cube_cell_accounting(self):
        aggregator = populated_aggregator(SKETCH_FAMILIES["dense"])
        engine = aggregator.query_engine(
            cube_dimensions=(("endpoint",), ("endpoint", "host"))
        )
        cube = engine.cube
        assert cube.num_cells == 3 + 6
        counts = cube.cell_counts()
        assert counts[("endpoint",)] == 3
        assert counts[("endpoint", "host")] == 6
        assert cube.size_in_bytes() > 0

    def test_merge_cache_direct(self):
        cache = MergeCache(capacity=1)
        key_a = ("lat", (("host", "a"),), None, None)
        key_b = ("lat", (("host", "b"),), None, None)
        sketch = DDSketch()
        sketch.add(1.0)
        cache.put(key_a, sketch)
        assert cache.get(key_a) is sketch
        cache.put(key_b, sketch)
        assert cache.get(key_a) is None
        assert cache.evictions == 1

    def test_engine_exported_from_query_package(self):
        from repro.query import QueryEngine as Exported

        assert Exported is QueryEngine

    def test_invalid_cube_dimension(self):
        with pytest.raises(IllegalArgumentError):
            RollupCube(((),))
        with pytest.raises(IllegalArgumentError):
            RollupCube((("host", "host"),))
