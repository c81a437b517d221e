"""Tests for the high-cardinality registry: series keys, grouped ingestion,
tag-aware queries, and bit-exact agreement with naive per-series sketching."""

import numpy as np
import pytest

from repro import (
    DDSketch,
    GroupedIngest,
    LogUnboundedDenseDDSketch,
    SeriesKey,
    SketchRegistry,
    UDDSketch,
)
from repro.core.ddsketch import BaseDDSketch
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.store import (
    CollapsingHighestDenseStore,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
    add_grouped_batch,
)


FACTORIES = {
    "dense": lambda: LogUnboundedDenseDDSketch(relative_accuracy=0.01),
    "collapsing": lambda: DDSketch(relative_accuracy=0.01, bin_limit=128),
    "uniform": lambda: UDDSketch(relative_accuracy=0.01, bin_limit=128),
}


def grouped_workload(seed=0, n=20_000, groups=23):
    rng = np.random.default_rng(seed)
    group_indices = rng.integers(0, groups, n)
    values = np.concatenate(
        [
            rng.lognormal(0.0, 2.0, n // 2),
            -rng.lognormal(0.0, 1.0, n - n // 2 - 50),
            np.zeros(50),
        ]
    )
    rng.shuffle(values)
    return group_indices, values


class TestSeriesKey:
    def test_normalization_sorts_and_validates(self):
        key = SeriesKey("latency", (("host", "web-1"), ("endpoint", "/api")))
        assert key.tags == (("endpoint", "/api"), ("host", "web-1"))
        assert str(key) == "latency{endpoint=/api,host=web-1}"
        assert str(SeriesKey("latency")) == "latency"

    def test_equality_is_order_insensitive(self):
        first = SeriesKey.of("m", {"a": "1", "b": "2"})
        second = SeriesKey.of(("m", (("b", "2"), ("a", "1"))))
        assert first == second
        assert hash(first) == hash(second)

    def test_matches_by_subset(self):
        key = SeriesKey("m", (("host", "h1"), ("endpoint", "/api")))
        assert key.matches("m")
        assert key.matches("m", {"host": "h1"})
        assert key.matches(None, {"endpoint": "/api", "host": "h1"})
        assert not key.matches("other")
        assert not key.matches("m", {"host": "h2"})
        assert not key.matches("m", {"region": "us"})

    def test_invalid_inputs_rejected(self):
        with pytest.raises(IllegalArgumentError):
            SeriesKey("")
        with pytest.raises(IllegalArgumentError):
            SeriesKey("m", (("k", "v"), ("k", "w")))  # duplicate tag key
        with pytest.raises(IllegalArgumentError):
            SeriesKey("m", (("", "v"),))
        with pytest.raises(IllegalArgumentError):
            SeriesKey("m", ((1, "v"),))
        with pytest.raises(IllegalArgumentError):
            SeriesKey.of(12345)

    def test_keys_are_ordered(self):
        keys = [SeriesKey("b"), SeriesKey("a", {"x": "2"}), SeriesKey("a", {"x": "1"})]
        assert sorted(keys) == [
            SeriesKey("a", {"x": "1"}),
            SeriesKey("a", {"x": "2"}),
            SeriesKey("b"),
        ]


#: Store families the combined pass takes; the 64-key limits fold the
#: [-200, 900) test keys, the 2048-key one (the default sketch's) does not.
SEGMENT_STORES = {
    "dense": DenseStore,
    "collapsing_low": lambda: CollapsingLowestDenseStore(bin_limit=2048),
    "collapsing_low_folding": lambda: CollapsingLowestDenseStore(bin_limit=64),
    "collapsing_high_folding": lambda: CollapsingHighestDenseStore(bin_limit=64),
}


def _counting_bin_grouped(monkeypatch):
    """Record the ``num_cells`` of every combined binning pass."""
    from repro import kernel

    calls = []
    original = kernel.bin_grouped

    def bin_grouped(group_indices, keys, weights, row_bases, num_cells, scratch=None):
        calls.append(num_cells)
        return original(group_indices, keys, weights, row_bases, num_cells, scratch=scratch)

    monkeypatch.setattr(kernel, "bin_grouped", bin_grouped)
    return calls


class TestStoreGroupedPrimitive:
    @pytest.mark.parametrize("store_family", sorted(SEGMENT_STORES))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_dense_flat_path_matches_per_group(
        self, store_family, weighted, kernel_backend, monkeypatch
    ):
        factory = SEGMENT_STORES[store_family]
        rng = np.random.default_rng(1)
        n, groups = 50_000, 17
        calls = _counting_bin_grouped(monkeypatch)
        stores = [factory() for _ in range(groups)]
        references = [factory() for _ in range(groups)]
        # A narrow batch first, so the wide one lands in non-empty (and, with
        # a small bin limit, already collapsed) windows.
        for low, high in ((300, 340), (-200, 900)):
            group_indices = rng.integers(0, groups, n)
            keys = rng.integers(low, high, n)
            weights = (rng.random(n) + 0.1) if weighted else None
            add_grouped_batch(stores, group_indices, keys, weights)
            for group in range(groups):
                mask = group_indices == group
                references[group].add_batch(
                    keys[mask], None if weights is None else weights[mask]
                )
        assert len(calls) == 2, "the combined pass must run once per batch"

        for store, reference in zip(stores, references):
            assert store._offset == reference._offset
            assert getattr(store, "is_collapsed", None) == getattr(reference, "is_collapsed", None)
            if weighted:
                # The grouped path sums the running total (and any folded
                # boundary bucket) in per-item order, add_batch pairwise.
                np.testing.assert_allclose(store._bins, reference._bins, rtol=1e-12)
                assert store.count == pytest.approx(reference.count, rel=1e-12)
            else:
                assert np.array_equal(store._bins, reference._bins)
                assert store.count == reference.count
        if store_family.endswith("folding"):
            assert all(store.is_collapsed for store in stores)

    def test_cells_are_the_sum_of_group_spans(self, kernel_backend, monkeypatch):
        # Two groups a million keys apart: a groups x global-span grid would
        # need 2M cells, one row per group needs 11 + 21.
        calls = _counting_bin_grouped(monkeypatch)
        stores = [CollapsingLowestDenseStore(bin_limit=2048) for _ in range(3)]
        group_indices = np.array([0, 0, 2, 2, 2])
        keys = np.array([0, 10, 1_000_000, 1_000_020, 1_000_005])
        add_grouped_batch(stores, group_indices, keys)
        assert calls == [11 + 21]
        assert stores[0].key_counts() == {0: 1.0, 10: 1.0}
        assert stores[1].is_empty
        assert stores[2].key_counts() == {1_000_000: 1.0, 1_000_005: 1.0, 1_000_020: 1.0}

    def test_rows_over_the_cell_cap_take_the_fallback(self, kernel_backend, monkeypatch):
        import repro.store.grouped as grouped

        calls = _counting_bin_grouped(monkeypatch)
        monkeypatch.setattr(grouped, "MAX_FLAT_CELLS", 100)
        rng = np.random.default_rng(3)
        group_indices = rng.integers(0, 4, 2_000)
        keys = rng.integers(0, 500, 2_000)
        stores = [CollapsingLowestDenseStore(bin_limit=64) for _ in range(4)]
        add_grouped_batch(stores, group_indices, keys)
        assert calls == []
        for group, store in enumerate(stores):
            reference = CollapsingLowestDenseStore(bin_limit=64)
            reference.add_batch(keys[group_indices == group])
            assert store.key_counts() == reference.key_counts()
            assert store.is_collapsed == reference.is_collapsed

    def test_mixed_store_families_take_the_fallback(self):
        rng = np.random.default_rng(2)
        group_indices = rng.integers(0, 3, 10_000)
        keys = rng.integers(0, 500, 10_000)
        stores = [DenseStore(), SparseStore(), DenseStore()]
        add_grouped_batch(stores, group_indices, keys)
        for group, store in enumerate(stores):
            mask = group_indices == group
            reference = type(store)()
            reference.add_batch(keys[mask])
            assert store.key_counts() == reference.key_counts()

    def test_group_indices_validated(self):
        stores = [DenseStore()]
        with pytest.raises(IllegalArgumentError):
            add_grouped_batch(stores, np.array([0, 1]), np.array([1, 2]))
        with pytest.raises(IllegalArgumentError):
            add_grouped_batch(stores, np.array([-1]), np.array([1]))
        with pytest.raises(IllegalArgumentError):
            add_grouped_batch(stores, np.array([0]), np.array([1]), np.array([-1.0]))


class TestGroupedSketchIngestion:
    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_bit_exact_with_per_series_add_loop(self, family):
        factory = FACTORIES[family]
        group_indices, values = grouped_workload(seed=3)
        sketches = [factory() for _ in range(23)]
        BaseDDSketch.add_grouped_batch(sketches, group_indices, values)

        references = [factory() for _ in range(23)]
        for group, value in zip(group_indices.tolist(), values.tolist()):
            references[group].add(value)

        for sketch, reference in zip(sketches, references):
            assert sketch.store.key_counts() == reference.store.key_counts()
            assert sketch.negative_store.key_counts() == reference.negative_store.key_counts()
            assert sketch.count == reference.count
            assert sketch.zero_count == reference.zero_count
            assert sketch.min == reference.min
            assert sketch.max == reference.max
            # The exact-sum summary may differ from the loop by summation
            # order on the per-group fallback path (add_batch's pairwise sum).
            assert sketch.sum == pytest.approx(reference.sum, rel=1e-9)
            quantiles = (0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0)
            assert sketch.get_quantiles(quantiles) == reference.get_quantiles(quantiles)

    def test_grouped_batch_validates_before_mutating(self):
        sketches = [DDSketch() for _ in range(2)]
        with pytest.raises(IllegalArgumentError):
            BaseDDSketch.add_grouped_batch(
                sketches, np.array([0, 1]), np.array([1.0, np.inf])
            )
        with pytest.raises(IllegalArgumentError):
            BaseDDSketch.add_grouped_batch(
                sketches, np.array([0, 2]), np.array([1.0, 2.0])
            )
        with pytest.raises(IllegalArgumentError):
            BaseDDSketch.add_grouped_batch(
                sketches, np.array([0, 1]), np.array([1.0, 2.0]), np.array([1.0, 0.0])
            )
        with pytest.raises(IllegalArgumentError):
            BaseDDSketch.add_grouped_batch([], np.array([0]), np.array([1.0]))
        assert all(sketch.is_empty for sketch in sketches)

    def test_empty_batch_is_a_noop(self):
        sketches = [DDSketch()]
        BaseDDSketch.add_grouped_batch(sketches, np.array([], dtype=np.int64), np.array([]))
        assert sketches[0].is_empty

    def test_scalar_and_array_weights(self):
        group_indices, values = grouped_workload(seed=4, n=5_000, groups=7)
        weights = np.random.default_rng(4).random(values.size) + 0.5
        for weight_spec in (2.5, weights):
            sketches = [LogUnboundedDenseDDSketch(0.01) for _ in range(7)]
            BaseDDSketch.add_grouped_batch(sketches, group_indices, values, weight_spec)
            references = [LogUnboundedDenseDDSketch(0.01) for _ in range(7)]
            spec = np.broadcast_to(np.asarray(weight_spec, dtype=np.float64), values.shape)
            for group in range(7):
                mask = group_indices == group
                references[group].add_batch(values[mask], spec[mask])
            for sketch, reference in zip(sketches, references):
                assert sketch.store.key_counts() == reference.store.key_counts()
                assert sketch.count == pytest.approx(reference.count)

    @pytest.mark.parametrize("bin_limit", [2048, 64])
    def test_default_sketch_takes_the_combined_pass(self, bin_limit, kernel_backend, monkeypatch):
        # The default DDSketch's collapsing stores take the one-bincount
        # path and end bit-identical to per-group add_batch.
        calls = _counting_bin_grouped(monkeypatch)
        sketches = [DDSketch(relative_accuracy=0.01, bin_limit=bin_limit) for _ in range(23)]
        references = [DDSketch(relative_accuracy=0.01, bin_limit=bin_limit) for _ in range(23)]
        for seed in (6, 7):
            group_indices, values = grouped_workload(seed=seed, n=10_000)
            BaseDDSketch.add_grouped_batch(sketches, group_indices, values)
            for group, reference in enumerate(references):
                reference.add_batch(values[group_indices == group])
        assert len(calls) == 4, "one combined pass per sign and batch"

        for sketch, reference in zip(sketches, references):
            for store, expected in (
                (sketch.store, reference.store),
                (sketch.negative_store, reference.negative_store),
            ):
                assert store._offset == expected._offset
                assert np.array_equal(store._bins, expected._bins)
                assert store.count == expected.count
                assert store.is_collapsed == expected.is_collapsed
            assert sketch.count == reference.count
            assert sketch.zero_count == reference.zero_count
            assert sketch.min == reference.min
            assert sketch.max == reference.max
            # Input-order sum here, add_batch's pairwise sum there.
            assert sketch.sum == pytest.approx(reference.sum, rel=1e-12)
        if bin_limit == 64:
            assert all(sketch.store.is_collapsed for sketch in sketches)

    def test_diverged_udd_mappings_take_the_fallback(self):
        # One series collapses ahead of the others; its mapping differs, so
        # the shared-keying fast path must not be used.
        sketches = [UDDSketch(relative_accuracy=0.01, bin_limit=64) for _ in range(3)]
        sketches[1].add_batch(np.logspace(-3, 6, 10_000))
        assert sketches[1].collapse_count > 0
        group_indices = np.tile(np.arange(3), 500)
        values = np.random.default_rng(5).lognormal(0.0, 1.0, 1500)
        snapshots = [sketch.copy() for sketch in sketches]
        BaseDDSketch.add_grouped_batch(sketches, group_indices, values)
        for group, (sketch, snapshot) in enumerate(zip(sketches, snapshots)):
            snapshot.add_batch(values[group_indices == group])
            assert sketch.store.key_counts() == snapshot.store.key_counts()
            assert sketch.relative_accuracy == snapshot.relative_accuracy


class TestGroupedIngestFacade:
    def test_string_column_factorization(self):
        ingest = GroupedIngest(lambda: DDSketch())
        ids = np.array(["a", "b", "a", "c", "b", "a"])
        assert ingest.ingest_columns(ids, np.arange(1.0, 7.0)) == 6
        assert sorted(ingest.series_ids()) == ["a", "b", "c"]
        assert ingest.get("a").count == 3
        assert ingest.total_count == 6.0
        assert "a" in ingest and "missing" not in ingest

    def test_arbitrary_hashable_ids(self):
        ingest = GroupedIngest(lambda: DDSketch())
        ids = [("m", "h1"), ("m", "h2"), ("m", "h1")]
        ingest.ingest_columns(ids, np.array([1.0, 2.0, 3.0]))
        assert ingest.get(("m", "h1")).count == 2

    def test_unknown_series_raises(self):
        with pytest.raises(EmptySketchError):
            GroupedIngest().get("missing")

    def test_mismatched_columns_rejected(self):
        ingest = GroupedIngest()
        with pytest.raises(IllegalArgumentError):
            ingest.ingest_columns(np.array(["a"]), np.array([1.0, 2.0]))
        with pytest.raises(IllegalArgumentError):
            ingest.ingest_columns([], np.array([1.0]))

    def test_rejected_batch_leaves_no_phantom_series(self):
        # Validation must run before any sketch is created: a rejected batch
        # must not register empty series.
        registry = SketchRegistry()
        with pytest.raises(IllegalArgumentError):
            registry.ingest_grouped(
                [SeriesKey("x")], np.array([0]), np.array([np.nan])
            )
        with pytest.raises(IllegalArgumentError):
            registry.ingest_grouped(
                [SeriesKey("x")], np.array([0]), np.array([1.0]), np.array([-1.0])
            )
        assert registry.num_series == 0

    def test_empty_group_column_with_values_rejected(self):
        # A silent `return 0` here would lose data; the shape mismatch must
        # raise like every other ingestion path.
        ingest = GroupedIngest()
        with pytest.raises(IllegalArgumentError):
            ingest.ingest_grouped(["a"], np.array([], dtype=np.int64), np.array([1.0]))


class TestSketchRegistry:
    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_registry_answers_match_naive_per_series_merges(self, family):
        factory = FACTORIES[family]
        group_indices, values = grouped_workload(seed=6, n=10_000, groups=12)
        values = np.abs(values) + 1e-3
        keys = [
            SeriesKey("latency", (("endpoint", f"/e{index % 4}"), ("host", f"h{index % 3}")))
            for index in range(12)
        ]
        registry = SketchRegistry(sketch_factory=factory)
        assert registry.ingest_grouped(keys, group_indices, values) == values.size

        naive = {}
        for key in keys:
            naive.setdefault(key, factory())
        for group, value in zip(group_indices.tolist(), values.tolist()):
            naive[keys[group]].add(value)

        quantiles = (0.01, 0.5, 0.9, 0.99)
        # Exact series.
        for key in keys:
            assert registry.get(key).get_quantiles(quantiles) == naive[key].get_quantiles(quantiles)
        # Tag-filtered merge.
        for endpoint in ("/e0", "/e1", "/e2", "/e3"):
            matching = sorted(
                key for key in naive if key.matches("latency", {"endpoint": endpoint})
            )
            merged = naive[matching[0]].copy()
            for key in matching[1:]:
                merged.merge(naive[key])
            rollup = registry.rollup("latency", tag_filter={"endpoint": endpoint})
            assert rollup.get_quantiles(quantiles) == merged.get_quantiles(quantiles)
            assert rollup.count == merged.count
        # Metric rollup.
        ordered = sorted(naive)
        full = naive[ordered[0]].copy()
        for key in ordered[1:]:
            full.merge(naive[key])
        metric_rollup = registry.rollup("latency")
        assert metric_rollup.count == full.count
        assert metric_rollup.get_quantiles(quantiles) == full.get_quantiles(quantiles)

    def test_ingest_columns_with_metric_strings(self):
        registry = SketchRegistry()
        metrics = np.array(["cpu", "mem", "cpu", "cpu"])
        registry.ingest_columns(metrics, np.array([1.0, 2.0, 3.0, 4.0]))
        assert registry.metrics() == ["cpu", "mem"]
        assert registry.total_count("cpu") == 3.0
        assert registry.total_count() == 4.0

    def test_ingest_columns_rejects_bytes_metrics(self):
        # A bytes column must not be repr-mangled into "b'cpu'" metric names.
        registry = SketchRegistry()
        with pytest.raises(IllegalArgumentError):
            registry.ingest_columns(np.array([b"cpu", b"mem"]), np.array([1.0, 2.0]))

    def test_unknown_queries_raise_never_keyerror(self):
        registry = SketchRegistry()
        registry.add("latency", 1.0, tags={"host": "h1"})
        with pytest.raises(EmptySketchError):
            registry.get("latency", {"host": "h2"})
        with pytest.raises(EmptySketchError):
            registry.rollup("missing")
        with pytest.raises(EmptySketchError):
            registry.rollup("latency", tag_filter={"host": "nope"})
        with pytest.raises(EmptySketchError):
            registry.quantile("missing", 0.5)
        with pytest.raises(IllegalArgumentError):
            registry.quantile("latency", 1.5)
        with pytest.raises(IllegalArgumentError):
            registry.quantile("latency", 0.5, tags={"a": "1"}, tag_filter={"b": "2"})
        assert registry.total_count("missing") == 0.0

    def test_flush_frame_round_trip_conserves_counts(self):
        registry = SketchRegistry()
        keys = [SeriesKey("m", {"host": f"h{index}"}) for index in range(5)]
        group_indices, values = grouped_workload(seed=7, n=2_000, groups=5)
        registry.ingest_grouped(keys, group_indices, values)
        total_before = registry.total_count()
        per_series = {key: registry.get(key).count for key in keys}

        frame = registry.flush_frame()
        assert registry.num_series == 0

        restored = SketchRegistry.from_frame(frame)
        assert restored.total_count() == total_before
        for key in keys:
            assert restored.get(key).count == per_series[key]

    def test_merge_frame_merges_into_existing_series(self):
        first = SketchRegistry()
        first.add("m", 1.0, tags={"h": "1"})
        frame = first.to_frame()
        target = SketchRegistry()
        target.add("m", 2.0, tags={"h": "1"})
        assert target.merge_frame(frame) == 1
        assert target.get("m", {"h": "1"}).count == 2

    def test_registry_merge(self):
        left, right = SketchRegistry(), SketchRegistry()
        left.add("m", 1.0)
        right.add("m", 2.0)
        right.add("other", 3.0, tags={"x": "y"})
        left.merge(right)
        assert left.get("m").count == 2
        assert left.get("other", {"x": "y"}).count == 1
        # The source registry's sketches are copied, not aliased.
        right.add("other", 4.0, tags={"x": "y"})
        assert left.get("other", {"x": "y"}).count == 1
