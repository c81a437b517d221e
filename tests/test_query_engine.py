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

import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    DDSketch,
    EmptySketchError,
    IllegalArgumentError,
    LogCollapsingLowestDenseDDSketch,
    LogUnboundedDenseDDSketch,
    SeriesKey,
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
        engine = QueryEngine.over_registry(registry)
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

    def test_registry_reads_see_every_write(self):
        """A registry cannot see a value added through a sketch it handed
        out, so an engine over one caches nothing: every read after such a
        write equals the registry's own answer."""
        registry = SketchRegistry()
        key = SeriesKey("lat", {"host": "h1"})
        held = registry.sketch(key)
        for step in range(100):
            held.add(0.01 * (step + 1))
        registry.add("lat", 0.5, tags={"host": "h2"})
        engine = QueryEngine.over_registry(registry)

        def engine_reads():
            return (
                engine.quantile("lat", 1.0),
                engine.quantiles("lat", QUANTILES, tag_filter={"host": "h1"}),
                engine.quantiles("lat", QUANTILES, tags={"host": "h1"}),
                engine.rollup("lat").count,
                engine.threshold_query("lat", 1.0, 100.0).matches,
            )

        def registry_reads():
            return (
                registry.quantile("lat", 1.0),
                registry.quantiles("lat", QUANTILES, tag_filter={"host": "h1"}),
                registry.quantiles("lat", QUANTILES, tags={"host": "h1"}),
                registry.rollup("lat").count,
                [series for series, sketch in registry if sketch.quantile(1.0) > 100.0],
            )

        assert engine_reads() == registry_reads()
        for write in (
            lambda: registry.sketch(key).add(1000.0),
            lambda: registry.get(key).add(500.0),
            lambda: held.add(2000.0),
        ):
            write()
            assert engine_reads() == registry_reads()
        assert engine.quantile("lat", 1.0) == registry.quantile("lat", 1.0) > 1000.0
        assert engine.cube is None and engine.cache is None and engine.stats() == {}


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
        engine = QueryEngine.over_registry(registry)
        merged = engine.rollup("lat", tag_filter={})
        assert merged.count == registry.rollup("lat").count
        result = engine.threshold_query("lat", 0.5, 5.0)
        expected = {str(key) for key, sketch in registry if sketch.quantile(0.5) > 5.0}
        assert {str(key) for key in result.matches} == expected

    def test_window_rejected_over_registry(self):
        registry = SketchRegistry()
        registry.sketch("lat").add(1.0)
        engine = QueryEngine.over_registry(registry)
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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_threshold_rejected(self, bad):
        engine = populated_aggregator(SKETCH_FAMILIES["dense"]).query_engine()
        with pytest.raises(IllegalArgumentError, match="threshold"):
            engine.threshold_query("lat", 0.5, bad)
        with pytest.raises(IllegalArgumentError, match="threshold"):
            engine.threshold_query("lat", 0.5, bad, above=False)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("bound", ["start", "end"])
    def test_non_finite_window_rejected(self, bound, bad):
        engine = populated_aggregator(SKETCH_FAMILIES["dense"]).query_engine(
            cube_dimensions=(("endpoint",),)
        )
        with pytest.raises(IllegalArgumentError, match="finite"):
            engine.quantile("lat", 0.5, tag_filter={"endpoint": "/a"}, **{bound: bad})
        with pytest.raises(IllegalArgumentError, match="finite"):
            engine.threshold_query("lat", 0.5, 1.0, **{bound: bad})

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


class TestWindowedServiceQueries:
    """Windowed ``ServiceState`` reads fold each series over the window's
    buckets, from the buckets' row columns, instead of merging the buckets
    into a throwaway registry first; every answer and error must equal a
    registry built from the pushed frames, bucket by bucket, bit for bit.
    Threshold queries must equal a per-series bounds/estimate loop over the
    pushed frames merged into one registry, field for field.
    """

    SERIES = [
        ("lat", {"endpoint": f"/e{index}", "region": f"r{index % 3}"}) for index in range(7)
    ]
    INTERVAL_LENGTH = 2.0
    RETENTION = 4

    @staticmethod
    def _frames(pushes, factory=None):
        """``(host, sequence, bucket, frame)`` for each push, in push order."""
        frames = []
        sequences = {}
        for host, bucket, members, values in pushes:
            registry = SketchRegistry(sketch_factory=factory)
            for member in members:
                metric, tags = TestWindowedServiceQueries.SERIES[member]
                for position, value in enumerate(values):
                    # Fractional weights: the sums depend on merge order.
                    registry.add(
                        metric, value * (member + 1), weight=0.1 + position / 7.0, tags=tags
                    )
            sequences[host] = sequences.get(host, 0) + 1
            frames.append((host, sequences[host], bucket, registry.flush_frame()))
        return frames

    @classmethod
    def _state(cls, pushes, factory=None):
        from repro.service import ServiceState
        from repro.service.protocol import encode_push_envelope

        state = ServiceState(
            interval_length=cls.INTERVAL_LENGTH, retention_intervals=cls.RETENTION
        )
        for host, sequence, bucket, frame in cls._frames(pushes, factory):
            state.apply_envelope_bytes(
                encode_push_envelope(
                    frame, host=host, sequence=sequence,
                    interval_start=cls.INTERVAL_LENGTH * bucket + 0.5,
                )
            )
        return state

    @classmethod
    def _reference_registry(cls, frames, window_start, window_end):
        """Every frame merged in push order or, with window bounds, each
        retained bucket in the window (oldest first) merged from its frames
        in push order: a bucket is retained when it is within the retention
        horizon of the newest one, which evicted every older bucket."""
        merged = SketchRegistry()
        if window_start is None and window_end is None:
            for *_, frame in frames:
                merged.merge_frame(frame)
            return merged
        newest = max(bucket for _, _, bucket, _ in frames)
        for bucket in sorted({bucket for _, _, bucket, _ in frames}):
            if bucket <= newest - cls.RETENTION:
                continue
            if window_start is not None and bucket < math.floor(window_start / cls.INTERVAL_LENGTH):
                continue
            if window_end is not None and bucket * cls.INTERVAL_LENGTH >= window_end:
                continue
            window = SketchRegistry()
            for _, _, pushed_bucket, frame in frames:
                if pushed_bucket == bucket:
                    window.merge_frame(frame)
            merged.merge(window)
        return merged

    def _assert_same_thresholds(self, state, pushes, factory, thresholds):
        from _service_testkit import reference_threshold

        frames = self._frames(pushes, factory)
        for window_start, window_end in [(None, None)] + self.WINDOWS:
            reference = self._reference_registry(frames, window_start, window_end)
            for tag_filter, quantile, threshold, above in itertools.product(
                (None, {"region": "r1"}, {"region": "nowhere"}),
                (0.0, 0.5, 0.95, 1.0),
                thresholds,
                (True, False),
            ):
                result = state.threshold_query(
                    "lat", quantile, threshold, above=above, tag_filter=tag_filter,
                    window_start=window_start, window_end=window_end,
                )
                expected = reference_threshold(
                    reference, "lat", quantile, threshold, above, tag_filter
                )
                assert (
                    result.matches, result.scanned, result.total_series, result.prune_rate
                ) == expected, (window_start, window_end, tag_filter, quantile, threshold, above)

    SELECTORS = [
        {},
        {"tag_filter": {"region": "r1"}},
        {"tag_filter": {"region": "r2", "endpoint": "/e5"}},
        {"tag_filter": {"region": "nowhere"}},
        {"tags": {"endpoint": "/e3", "region": "r0"}},
        {"tags": {"endpoint": "/e9", "region": "r0"}},
        {"tags": {"endpoint": "/e1", "region": "r1"}, "tag_filter": {"region": "r1"}},
        {"metric": "unknown"},
        {"quantiles": (0.5, 1.5)},
    ]

    WINDOWS = [
        (0.0, 100.0), (4.0, 9.0), (5.5, 6.5), (6.0, None), (None, 7.0), (50.0, 60.0), (8.0, 8.0),
    ]

    @staticmethod
    def _outcome(read):
        import struct

        try:
            return ("answer", [struct.pack("<d", value) for value in read()])
        except Exception as error:  # both paths must fail alike
            return ("raised", type(error).__name__, str(error))

    def _assert_same_reads(self, state, pushes, factory):
        frames = self._frames(pushes, factory)
        for window_start, window_end in self.WINDOWS:
            reference = self._reference_registry(frames, window_start, window_end)
            for selector in self.SELECTORS:
                selector = dict(selector)
                metric = selector.pop("metric", "lat")
                quantiles = selector.pop("quantiles", QUANTILES)
                folded = self._outcome(lambda: state.quantiles(
                    metric, quantiles, window_start=window_start, window_end=window_end,
                    **selector,
                ))
                merged = self._outcome(lambda: reference.quantiles(metric, quantiles, **selector))
                assert folded == merged, (window_start, window_end, selector)

    @pytest.mark.parametrize("family", ["default", "dense", "udd"])
    def test_windowed_reads_match_the_merged_registry(self, kernel_backend, family):
        factory = {
            "default": lambda: DDSketch(0.02, bin_limit=24),
            "dense": lambda: LogUnboundedDenseDDSketch(0.02),
            "udd": lambda: UDDSketch(0.02, bin_limit=24),
        }[family]
        pushes = [
            ("h1", 0, [0, 1, 2, 3, 4, 5, 6], [1.0, 2.5, 40.0]),
            ("h2", 1, [1, 3, 5], [0.3, 7.0]),
            ("h1", 2, [0, 2, 4, 6], [11.0, 0.05, 900.0, 3.0]),
            ("h2", 2, [3, 4], [2.0]),
            ("h1", 3, [5, 6], [1e3, 1e-2]),
            ("h2", 4, [0, 1, 5], [6.0, 6.5, 0.7]),
        ]
        state = self._state(pushes, factory)
        self._assert_same_reads(state, pushes, factory)
        self._assert_same_thresholds(state, pushes, factory, (0.5, 6.0, 40.0, 1e3))

    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        family=st.sampled_from(["default", "udd"]),
        pushes=st.lists(
            st.tuples(
                st.sampled_from(["h1", "h2"]),
                st.integers(0, 6),
                st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True),
                st.lists(
                    st.one_of(
                        st.just(0.0),
                        st.floats(min_value=1e-2, max_value=1e4),
                        st.floats(min_value=-1e4, max_value=-1e-2),
                    ),
                    min_size=1,
                    max_size=4,
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        threshold=st.floats(min_value=-2e4, max_value=2e4),
    )
    def test_threshold_queries_match_the_registry_reference(
        self, kernel_backend, family, pushes, threshold
    ):
        """All-time and windowed, above and below, with and without a tag
        filter: collapsing stores at their bin limit, fractional weights,
        negative values and the zero bucket, buckets missing series, and
        buckets evicted behind the retention horizon."""
        factory = {
            "default": lambda: DDSketch(0.02, bin_limit=24),
            "udd": lambda: UDDSketch(0.02, bin_limit=24),
        }[family]
        state = self._state(pushes, factory)
        self._assert_same_thresholds(state, pushes, factory, (0.0, -1.0, 5.0, threshold))

    @settings(max_examples=15, deadline=None)
    @given(
        pushes=st.lists(
            st.tuples(
                st.sampled_from(["h1", "h2"]),
                st.integers(0, 6),
                st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True),
                st.lists(st.floats(min_value=1e-2, max_value=1e4), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_random_pushes_read_alike(self, pushes):
        factory = lambda: DDSketch(0.02, bin_limit=24)  # noqa: E731
        self._assert_same_reads(self._state(pushes, factory), pushes, factory)

    def test_non_finite_bounds_are_refused_before_anything_else(self):
        state = self._state([("h1", 0, [0, 1], [1.0])])
        for bound in (math.inf, -math.inf, math.nan):
            for name in ("window_start", "window_end"):
                with pytest.raises(IllegalArgumentError, match=f"{name} must be finite"):
                    state.quantiles("lat", (2.0,), tags={"a": "b"}, tag_filter={}, **{name: bound})
