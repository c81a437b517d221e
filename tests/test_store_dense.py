"""Tests for the contiguous (dense) bucket store."""

import pytest

from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.store import DenseStore, SparseStore
from repro.store.base import Bucket


class TestBasics:
    def test_new_store_is_empty(self):
        store = DenseStore()
        assert store.is_empty
        assert store.count == 0
        assert store.num_buckets == 0
        assert list(store) == []

    def test_add_single_key(self):
        store = DenseStore()
        store.add(5)
        assert store.count == 1
        assert store.num_buckets == 1
        assert store.min_key == 5
        assert store.max_key == 5

    def test_add_weighted(self):
        store = DenseStore()
        store.add(3, 2.5)
        store.add(3, 0.5)
        assert store.count == pytest.approx(3.0)
        assert store.key_counts() == {3: pytest.approx(3.0)}

    def test_add_zero_weight_is_noop(self):
        store = DenseStore()
        store.add(1, 0.0)
        assert store.is_empty

    def test_add_negative_weight_removes(self):
        store = DenseStore()
        store.add(1, 5.0)
        store.add(1, -2.0)
        assert store.count == pytest.approx(3.0)

    def test_rejects_nonfinite_weight(self):
        store = DenseStore()
        with pytest.raises(IllegalArgumentError):
            store.add(1, float("nan"))
        with pytest.raises(IllegalArgumentError):
            store.add(1, float("inf"))

    def test_rejects_invalid_chunk_size(self):
        with pytest.raises(IllegalArgumentError):
            DenseStore(chunk_size=0)

    def test_negative_and_positive_keys(self):
        store = DenseStore()
        for key in (-300, -1, 0, 1, 300):
            store.add(key)
        assert store.min_key == -300
        assert store.max_key == 300
        assert store.num_buckets == 5

    def test_iteration_is_in_key_order(self):
        store = DenseStore()
        for key in (7, -3, 100, 0):
            store.add(key)
        keys = [bucket.key for bucket in store]
        assert keys == sorted(keys)

    def test_bucket_unpacking(self):
        store = DenseStore()
        store.add(4, 2.0)
        (bucket,) = list(store)
        key, count = bucket
        assert (key, count) == (4, 2.0)
        assert isinstance(bucket, Bucket)


class TestRemove:
    def test_remove_partial(self):
        store = DenseStore()
        store.add(2, 4.0)
        store.remove(2, 1.5)
        assert store.count == pytest.approx(2.5)

    def test_remove_clamps_at_zero(self):
        store = DenseStore()
        store.add(2, 1.0)
        store.remove(2, 100.0)
        assert store.count == pytest.approx(0.0)
        assert store.is_empty

    def test_remove_missing_key_is_noop(self):
        store = DenseStore()
        store.add(2)
        store.remove(99)
        assert store.count == 1

    def test_remove_negative_weight_rejected(self):
        store = DenseStore()
        store.add(2)
        with pytest.raises(IllegalArgumentError):
            store.remove(2, -1.0)


class TestRankQueries:
    def test_key_at_rank_walks_cumulative_counts(self):
        store = DenseStore()
        store.add(0, 10)
        store.add(1, 10)
        store.add(2, 10)
        assert store.key_at_rank(0) == 0
        assert store.key_at_rank(9) == 0
        assert store.key_at_rank(10) == 1
        assert store.key_at_rank(29) == 2

    def test_key_at_rank_upper_variant(self):
        store = DenseStore()
        store.add(0, 10)
        store.add(1, 10)
        assert store.key_at_rank(9, lower=False) == 0
        assert store.key_at_rank(9.5, lower=False) == 1

    def test_key_at_rank_beyond_count_returns_max_key(self):
        store = DenseStore()
        store.add(0, 3)
        store.add(7, 3)
        assert store.key_at_rank(1e9) == 7

    def test_empty_store_raises(self):
        store = DenseStore()
        with pytest.raises(EmptySketchError):
            store.key_at_rank(0)
        with pytest.raises(EmptySketchError):
            _ = store.min_key
        with pytest.raises(EmptySketchError):
            _ = store.max_key


class TestMergeAndCopy:
    def test_merge_dense_into_dense(self):
        left = DenseStore()
        right = DenseStore()
        for key in range(0, 50):
            left.add(key, 1.0)
        for key in range(25, 75):
            right.add(key, 2.0)
        left.merge(right)
        assert left.count == pytest.approx(50 + 100)
        assert left.key_counts()[30] == pytest.approx(3.0)
        assert left.key_counts()[60] == pytest.approx(2.0)

    def test_merge_sparse_into_dense(self):
        dense = DenseStore()
        sparse = SparseStore()
        dense.add(1, 1.0)
        sparse.add(1, 2.0)
        sparse.add(1000, 5.0)
        dense.merge(sparse)
        assert dense.key_counts() == {1: pytest.approx(3.0), 1000: pytest.approx(5.0)}

    def test_merge_empty_is_noop(self):
        store = DenseStore()
        store.add(1)
        store.merge(DenseStore())
        assert store.count == 1

    def test_merge_matches_sequential_adds(self):
        import random

        rng = random.Random(5)
        keys = [rng.randint(-200, 200) for _ in range(2000)]
        split = len(keys) // 2
        left, right, full = DenseStore(), DenseStore(), DenseStore()
        for key in keys[:split]:
            left.add(key)
        for key in keys[split:]:
            right.add(key)
        for key in keys:
            full.add(key)
        left.merge(right)
        assert left.key_counts() == full.key_counts()
        assert left.count == pytest.approx(full.count)

    def test_copy_is_independent(self):
        store = DenseStore()
        store.add(1, 5.0)
        duplicate = store.copy()
        duplicate.add(1, 5.0)
        assert store.count == 5.0
        assert duplicate.count == 10.0

    def test_equality_is_content_based(self):
        a, b = DenseStore(), SparseStore()
        a.add(3, 2.0)
        b.add(3, 2.0)
        assert a == b


class TestMemoryModel:
    def test_size_grows_with_key_span(self):
        narrow = DenseStore()
        wide = DenseStore()
        for key in range(10):
            narrow.add(key)
        for key in range(0, 5000, 500):
            wide.add(key)
        assert wide.size_in_bytes() > narrow.size_in_bytes()

    def test_clear_resets_everything(self):
        store = DenseStore()
        store.add(5, 3.0)
        store.clear()
        assert store.is_empty
        assert store.size_in_bytes() == 64
