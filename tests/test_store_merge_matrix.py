"""Cross-type merge matrix: every store type into every store type.

The vectorized merge paths (dense→dense slice addition, dense→sparse ndarray
bulk conversion) must produce *exactly* the buckets of the per-bucket
reference path — iterating the source's buckets and ``add()``-ing them one by
one, which is the generic :class:`~repro.store.Store` merge semantics.  This
module checks the full ordered matrix dense ↔ sparse ↔ collapsing-low ↔
collapsing-high, in both directions, including empty and already-collapsed
targets.

All weights used here are dyadic rationals (multiples of 0.25), so every
partial sum is exactly representable and the comparison can demand
bit-identical ``key_counts()`` regardless of summation order.
"""

import itertools

import pytest

from repro.store import (
    CollapsingHighestDenseStore,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
)

BIN_LIMIT = 16

STORE_FACTORIES = {
    "dense": lambda: DenseStore(chunk_size=8),
    "sparse": SparseStore,
    "collapsing_low": lambda: CollapsingLowestDenseStore(bin_limit=BIN_LIMIT, chunk_size=8),
    "collapsing_high": lambda: CollapsingHighestDenseStore(bin_limit=BIN_LIMIT, chunk_size=8),
}

#: Bucket contents used to populate targets and sources.  ``wide`` spans more
#: than BIN_LIMIT keys, so bounded stores holding it are collapsed; weights
#: are dyadic so sums are exact in any order.
CONTENTS = {
    "empty": [],
    "narrow": [(0, 1.0), (1, 2.5), (2, 0.25), (5, 4.0)],
    "wide": [(-20, 1.0), (-10, 0.5), (-1, 2.0), (0, 1.25), (7, 3.0), (15, 0.75), (30, 2.0)],
    "negative_keys": [(-40, 1.5), (-32, 2.0), (-31, 0.5), (-30, 1.0)],
    "heavy_single": [(3, 1024.0)],
}


def build(store_name, content_name):
    store = STORE_FACTORIES[store_name]()
    for key, weight in CONTENTS[content_name]:
        store.add(key, weight)
    return store


def reference_merge(target, source):
    """The per-bucket reference path: one scalar add per source bucket."""
    for bucket in source:
        target.add(bucket.key, bucket.count)
    return target


MATRIX = list(itertools.product(STORE_FACTORIES, STORE_FACTORIES))


@pytest.mark.parametrize("target_name, source_name", MATRIX)
@pytest.mark.parametrize("target_content", ["empty", "narrow", "wide"])
@pytest.mark.parametrize("source_content", ["empty", "narrow", "wide", "negative_keys"])
def test_merge_matches_per_bucket_reference(
    target_name, source_name, target_content, source_content
):
    source = build(source_name, source_content)
    actual = build(target_name, target_content)
    expected = build(target_name, target_content)

    actual.merge(source)
    reference_merge(expected, source)

    assert actual.key_counts() == expected.key_counts()
    assert actual.count == expected.count
    assert actual.num_buckets == expected.num_buckets
    # The source must never be mutated by being merged from.
    assert source.key_counts() == build(source_name, source_content).key_counts()


DENSE_FAMILIES = ["dense", "collapsing_low", "collapsing_high"]


def _no_scalar_add(self, key, weight=1.0):
    raise AssertionError("a dense source must merge in bulk, not bucket by bucket")


@pytest.mark.parametrize("target_name", DENSE_FAMILIES)
@pytest.mark.parametrize("source_name", DENSE_FAMILIES)
@pytest.mark.parametrize("source_content", ["narrow", "wide", "negative_keys"])
@pytest.mark.parametrize("emptied", [False, True], ids=["fresh", "emptied"])
def test_merge_into_empty_target_takes_the_bulk_path(
    target_name, source_name, source_content, emptied, monkeypatch
):
    """An empty dense target anchors its window on the source in one pass.

    ``wide`` from a plain dense source spans more keys than the bounded
    targets' ``bin_limit``, so those targets fold on the way in.
    """
    source = build(source_name, source_content)
    expected = reference_merge(build(target_name, "empty"), source)
    actual = build(target_name, "narrow")
    if emptied:
        for key, weight in CONTENTS["narrow"]:
            actual.remove(key, weight)
    else:
        actual = build(target_name, "empty")
    assert actual.is_empty

    monkeypatch.setattr(DenseStore, "add", _no_scalar_add)
    actual.merge(source)
    assert actual.key_counts() == expected.key_counts()
    assert actual.count == expected.count
    assert actual.num_buckets == expected.num_buckets
    if target_name.startswith("collapsing"):
        assert actual.is_collapsed == expected.is_collapsed
        assert actual.key_span <= BIN_LIMIT
        if source_name == "dense" and source_content == "wide":
            assert actual.is_collapsed


@pytest.mark.parametrize("target_name, source_name", MATRIX)
def test_merge_into_post_collapse_target(target_name, source_name):
    """Targets that already folded weight keep folding identically."""
    # `wide` forces bounded targets to collapse before the merge happens.
    actual = build(target_name, "wide")
    expected = build(target_name, "wide")
    if hasattr(actual, "is_collapsed") and target_name.startswith("collapsing"):
        assert actual.is_collapsed

    source = build(source_name, "heavy_single")
    actual.merge(source)
    reference_merge(expected, source)
    assert actual.key_counts() == expected.key_counts()
    assert actual.count == expected.count


@pytest.mark.parametrize("target_name, source_name", MATRIX)
def test_merge_bounded_stores_respect_bin_limit(target_name, source_name):
    actual = build(target_name, "wide")
    actual.merge(build(source_name, "negative_keys"))
    if target_name.startswith("collapsing"):
        assert actual.key_span <= BIN_LIMIT if hasattr(actual, "key_span") else True
        assert actual.num_buckets <= BIN_LIMIT


@pytest.mark.parametrize("target_name, source_name", MATRIX)
def test_merge_twice_accumulates(target_name, source_name):
    """Merging the same source twice equals adding its buckets twice."""
    actual = build(target_name, "narrow")
    expected = build(target_name, "narrow")
    source = build(source_name, "narrow")
    actual.merge(source)
    actual.merge(source)
    reference_merge(expected, source)
    reference_merge(expected, source)
    assert actual.key_counts() == expected.key_counts()
    assert actual.count == expected.count
