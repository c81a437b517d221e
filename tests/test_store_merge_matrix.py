"""Cross-type merge matrix: every store type into every store type.

The vectorized merge paths (dense→dense slice addition, dense→sparse ndarray
bulk conversion) must produce *exactly* the buckets of the per-bucket
reference path — iterating the source's buckets and ``add()``-ing them one by
one, which is the generic :class:`~repro.store.Store` merge semantics.  This
module checks the full ordered matrix dense ↔ sparse ↔ collapsing-low ↔
collapsing-high, in both directions, including empty and already-collapsed
targets.

All weights used in the matrix are dyadic rationals (multiples of 0.25), so
every partial sum is exactly representable and the comparison can demand
bit-identical ``key_counts()`` regardless of summation order.

The second half is a differential suite for the one-pass bulk merge
(:func:`repro.store.merge_store_pairs`, and above it
:meth:`repro.core.BaseDDSketch.merge_checked_pairs` and
:meth:`repro.registry.SketchRegistry.merge_entries`): under both kernel
backends, it must leave every store in exactly the state the per-pair
``merge`` loop leaves, down to the window offset, the bins' bytes, the
running count, the positive-bin counter and the collapse flag.  Those
cases use arbitrary fractional weights, since both sides add the same
cells in the same order.
"""

import contextlib
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import (
    DDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
    UDDSketch,
    kernel,
)
from repro.core import BaseDDSketch
from repro.mapping import LogarithmicMapping
from repro.registry import SketchRegistry
from repro.store import (
    CollapsingHighestDenseStore,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
    UniformCollapsingDenseStore,
    merge_store_pairs,
)
from repro.store.grouped import SEGMENT_STORE_TYPES

from _kernel_testkit import require_native_kernel

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


# --------------------------------------------------------------------------- #
# The one-pass bulk merge against the per-pair merge loop
# --------------------------------------------------------------------------- #

BACKENDS = ["numpy", "native"]


@contextlib.contextmanager
def backend(name):
    """Serve kernel calls from ``name`` meanwhile.

    Native skips on a host that cannot build it, but fails when it was
    built and then refused by its load-time self-test: the compiled pass
    disagrees with its NumPy oracle.
    """
    if name == "native":
        require_native_kernel()
    before = kernel.active_backend()
    kernel.set_backend(name)
    try:
        yield
    finally:
        kernel.set_backend(before)


@contextlib.contextmanager
def kernel_results():
    """Record every per-pair result of :func:`repro.kernel.merge_windows`."""
    results = []
    original = kernel.merge_windows

    def spy(targets, pairs, sources):
        out = original(targets, pairs, sources)
        results.extend(out.tolist())
        return out

    kernel.merge_windows = spy
    try:
        yield results
    finally:
        kernel.merge_windows = original


def exact(value):
    """A value in a form whose equality is bit equality."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return [(key, exact(item)) for key, item in value.items()]
    return value


def store_state(store):
    """Every attribute of a store, bit for bit (bins, offset, counters, flags)."""
    return (type(store).__name__, {name: exact(value) for name, value in vars(store).items()})


def sketch_state(sketch):
    """Every attribute of a sketch, its stores expanded and its mapping by value."""
    state = {}
    for name, value in vars(sketch).items():
        if name in ("_store", "_negative_store"):
            state[name] = store_state(value)
        elif name == "_mapping":
            state[name] = repr(value)
        else:
            state[name] = exact(value)
    return (type(sketch).__name__, state)


def registry_state(registry):
    return [(key, sketch_state(sketch)) for key, sketch in registry], registry.to_frame()


#: Store families of the differential suite: small chunks leave unused bins
#: at a window's edges, and small bin limits make the bounded stores collapse.
BULK_FAMILIES = {
    "dense": lambda: DenseStore(chunk_size=4),
    "collapsing_low": lambda: CollapsingLowestDenseStore(bin_limit=12, chunk_size=4),
    "collapsing_high": lambda: CollapsingHighestDenseStore(bin_limit=12, chunk_size=4),
    "sparse": SparseStore,
    "uniform": lambda: UniformCollapsingDenseStore(bin_limit=8, chunk_size=4),
}

weights = st.one_of(
    st.sampled_from([0.25, 1.0, 2.5]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
)

#: Keys over a wide range, or a narrow one where targets and sources overlap
#: (and a source often fits its target's window).
keys = st.one_of(st.integers(-30, 30), st.integers(-4, 4))

#: One store: its family, the (key, weight) pairs it receives, whether they
#: arrive one by one (windows padded by the chunk) or as one batch (windows
#: fitted to the keys), and what happens next: nothing, the weight of some
#: keys removed again (unused edge bins, or an empty store), or a 2**53
#: round trip through one key, which drifts the running count (to 0 for a
#: light store, whose bins then still hold weight).
store_specs = st.tuples(
    st.sampled_from(sorted(BULK_FAMILIES)),
    st.lists(st.tuples(keys, weights), max_size=10),
    st.booleans(),
    st.sampled_from(["keep", "remove_some", "remove_all", "drift"]),
)


def build_store(spec):
    family, contents, batched, after = spec
    store = BULK_FAMILIES[family]()
    if batched and contents:
        store.add_batch(
            np.array([key for key, _ in contents], dtype=np.int64),
            np.array([weight for _, weight in contents]),
        )
    else:
        for key, weight in contents:
            store.add(key, weight)
    if after == "remove_some":
        for key, weight in contents[::2]:
            store.remove(key, weight)
    elif after == "remove_all":
        for key, weight in contents:
            store.remove(key, weight)
    elif after == "drift" and contents:
        store.add(contents[0][0], 2.0**53)
        store.remove(contents[0][0], 2.0**53)
    return store


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(pairs=st.lists(st.tuples(store_specs, store_specs), min_size=1, max_size=8))
def test_bulk_store_merge_matches_the_per_pair_loop(backend_name, pairs):
    with backend(backend_name):
        targets = [build_store(target) for target, _ in pairs]
        sources = [build_store(source) for _, source in pairs]
        expected = [build_store(target) for target, _ in pairs]
        untouched = [store_state(source) for source in sources]
        merge_store_pairs(targets, sources)
        for target, source in zip(expected, sources):
            target.merge(source)
    assert [store_state(store) for store in targets] == [store_state(store) for store in expected]
    assert [store_state(source) for source in sources] == untouched
    for target in targets:
        if isinstance(target, DenseStore):
            assert target._num_positive == int(np.count_nonzero(target._bins > 0.0))


def _lowest(keys, chunk_size=8):
    store = CollapsingLowestDenseStore(bin_limit=8, chunk_size=chunk_size)
    for key in keys:
        store.add(key, 1.5)
    return store


def _highest(keys, chunk_size=8):
    store = CollapsingHighestDenseStore(bin_limit=8, chunk_size=chunk_size)
    for key in keys:
        store.add(key, 1.5)
    return store


#: Targets whose window the merge must move although the source's keys lie
#: inside it, because an unused edge bin is trimmed, next to the same target
#: with a source that fills that bin (the window stays).  A store created by
#: one add spans 8 keys around it: key 2 gives the window [-2, 5].
EDGE_CASES = {
    "lowest_unused_top": (lambda: _lowest([2]), lambda: _lowest([3]), False),
    "lowest_filled_top": (lambda: _lowest([2]), lambda: _lowest([3, 5]), True),
    "highest_unused_bottom": (lambda: _highest([2]), lambda: _highest([1]), False),
    "highest_filled_bottom": (lambda: _highest([2]), lambda: _highest([-2, 1]), True),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_unused_edge_bins_move_the_window_as_merge_does(backend_name, case):
    make_target, make_source, window_stays = EDGE_CASES[case]
    with backend(backend_name), kernel_results() as results:
        target, expected, source = make_target(), make_target(), make_source()
        window = (target._offset, target._bins.size)
        merge_store_pairs([target], [source])
        expected.merge(source)
    assert store_state(target) == store_state(expected)
    assert ((target._offset, target._bins.size) == window) == window_stays
    if backend_name == "native":
        assert [added >= 0 for added in results] == [window_stays]


def _drift_emptied(factory):
    """A store whose running count drifted to 0 while a bin keeps weight 1."""
    store = factory()
    store.add(3, 2.0**53)
    store.add(5, 1.0)  # 2**53 + 1 rounds back to 2**53 in the running count
    store.remove(3, 2.0**53)
    assert store.count == 0.0 and store._num_positive == 1
    return store


@pytest.mark.parametrize("family", ["dense", "collapsing_low", "collapsing_high"])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_emptied_target_re_anchors_and_emptied_source_adds_nothing(backend_name, family):
    """Store.merge clears a target whose count is 0 before it merges (the
    bins' leftover weight goes) and ignores a source whose count is 0."""
    factory = BULK_FAMILIES[family]
    with backend(backend_name):
        targets = [_drift_emptied(factory), factory()]
        expected = [_drift_emptied(factory), factory()]
        for store in (targets[1], expected[1]):
            store.add(4, 2.0)
        sources = [factory(), _drift_emptied(factory)]
        sources[0].add(4, 0.75)
        merge_store_pairs(targets, sources)
        for target, source in zip(expected, sources):
            target.merge(source)
    assert [store_state(store) for store in targets] == [store_state(store) for store in expected]
    assert targets[0].key_counts() == {4: 0.75}
    assert targets[1].key_counts() == {4: 2.0}


def test_one_call_mixes_accepted_and_declined_pairs():
    with backend("native"), kernel_results() as results:
        pairs = [
            (lambda: _lowest([2, 5]), lambda: _lowest([3, 4])),  # fits
            (lambda: _lowest([2, 5]), lambda: _lowest([-9, 4])),  # collapses
            (lambda: DenseStore(chunk_size=4), lambda: _lowest([3])),  # target empty
            (lambda: _lowest([2, 5]), SparseStore),  # sparse source, empty
            (lambda: _highest([-4, 0, 3]), lambda: _highest([1, 2])),  # fits
            (lambda: _highest([-4, 0, 3]), lambda: _highest([9])),  # grows
        ]
        targets = [target() for target, _ in pairs]
        expected = [target() for target, _ in pairs]
        sources = [source() for _, source in pairs]
        merge_store_pairs(targets, sources)
        for target, source in zip(expected, sources):
            target.merge(source)
    assert [store_state(store) for store in targets] == [store_state(store) for store in expected]
    # Pairs 0, 1, 4 and 5 reach the kernel (an empty target or a sparse
    # store takes Store.merge directly).
    assert results == [2, -1, 2, -1]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_moves_past_the_arena_cap_take_store_merge(backend_name, monkeypatch):
    """Declined pairs whose windows would pass the move arena's cap, alone
    or added up, take ``Store.merge``; the rest move in the native pass."""
    from repro.store import grouped

    monkeypatch.setattr(grouped, "MAX_MOVED_CELLS", 20)
    pairs = [
        (lambda: _lowest([2, 5]), lambda: _lowest([9])),  # 8 cells: moves
        (lambda: DenseStore(chunk_size=4), lambda: DenseStore(chunk_size=4)),
        (lambda: _highest([-4, 0, 3]), lambda: _highest([-9])),  # 8 cells: moves
        (lambda: _lowest([2, 5]), lambda: _lowest([11])),  # 8 more: past the cap
    ]
    moved = []
    move_windows = kernel.move_windows

    def recording_move_windows(*args):
        out = move_windows(*args)
        moved.extend(size for _, size, _, _ in out.tolist())
        return out

    monkeypatch.setattr(kernel, "move_windows", recording_move_windows)
    with backend(backend_name), kernel_results() as results:
        targets = [target() for target, _ in pairs]
        expected = [target() for target, _ in pairs]
        sources = [source() for _, source in pairs]
        # A plain store far from its source: its window alone passes the cap.
        for store in (targets[1], expected[1]):
            store.add(0, 1.5)
        sources[1].add(60, 2.5)
        merge_store_pairs(targets, sources)
        for target, source in zip(expected, sources):
            target.merge(source)
    assert [store_state(store) for store in targets] == [store_state(store) for store in expected]
    if backend_name == "native":
        assert results == [-1, -1, -1, -1]
        assert moved == [8, -1, 8, -1]


def test_merge_windows_checks_what_it_writes_and_reads():
    """The native pass writes through addresses, so the wrapper refuses a
    target it cannot safely write, a source window naming no buffer and a
    source slice outside its buffer."""
    with backend("native"):
        # Pair columns: target offset, kind, limit; source offset, buffer, start, size.
        row = np.array([[0, 0, 0, 0, 1, 0, 2]], dtype=np.int64)
        sources = [np.array([9.0]), np.array([1.0, 2.0])]
        read_only = np.zeros(4)
        read_only.flags.writeable = False
        for bad in (np.zeros(4, dtype=np.float32), np.zeros(8)[::2], read_only, np.zeros(0)):
            with pytest.raises((TypeError, ValueError)):
                kernel.merge_windows([bad], row, sources)
        for buffer in (-1, 2):
            unnamed = np.array([[0, 0, 0, 0, buffer, 0, 1]], dtype=np.int64)
            with pytest.raises(ValueError, match="names no source buffer"):
                kernel.merge_windows([np.zeros(4)], unnamed, sources)
        for buffer, start, size in ((1, 1, 2), (1, -1, 1), (1, 0, -1), (0, 0, 2)):
            outside = np.array([[0, 0, 0, 0, buffer, start, size]], dtype=np.int64)
            with pytest.raises(ValueError, match="outside"):
                kernel.merge_windows([np.zeros(4)], outside, sources)
        with pytest.raises(ValueError, match="one-dimensional"):
            kernel.merge_windows([np.zeros(4)], row, [np.zeros(1), np.zeros((1, 2))])
        target = np.zeros(4)
        assert kernel.merge_windows([target], row, sources).tolist() == [2]
        assert target.tolist() == [1.0, 2.0, 0.0, 0.0]


def test_move_windows_checks_its_arena():
    """The move pass writes into the arena through its address, so the
    wrapper refuses an arena or a move row it cannot safely write."""
    with backend("native"):
        target = np.zeros(4)
        target[1] = 1.0
        # A plain store of chunk 4 at key 0, and a source window at key 6.
        row = np.array([[0, 0, 4, 6, 0, 0, 2]], dtype=np.int64)
        sources = [np.array([1.0, 2.0])]
        arena = np.zeros(16)
        for moves in (np.array([[0, 17]]), np.array([[-1, 4]]), np.array([[0, 4], [4, 4]])):
            with pytest.raises(ValueError):
                kernel.move_windows([target], row, sources, moves, arena)
        for bad in (np.zeros(16, dtype=np.float32), np.zeros(32)[::2], np.zeros((4, 4))):
            with pytest.raises(ValueError, match="arena"):
                kernel.move_windows([target], row, sources, np.array([[0, 8]]), bad)
        moved = kernel.move_windows([target], row, sources, np.array([[0, 8]]), arena)
        # The window grows up by one chunk: keys 0-7, the source at 6 and 7.
        assert moved.tolist() == [[0, 8, 2, 0]]
        assert arena[:8].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0]
        assert target.tolist() == [0.0, 1.0, 0.0, 0.0]


SKETCH_FAMILIES = {
    "default": lambda: DDSketch(0.02, bin_limit=12),
    "dense": lambda: LogUnboundedDenseDDSketch(0.02),
    "sparse": lambda: SparseDDSketch(0.02),
    "udd": lambda: UDDSketch(0.02, bin_limit=16),
}

#: Zeros and both signs; the magnitudes span 6 decades, which a 16-bin
#: UDDSketch covers in 5 collapses (its accuracy stays below 1).
sketch_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-2, max_value=1e4),
    st.floats(min_value=-1e4, max_value=-1e-2),
)

sketch_specs = st.tuples(
    st.sampled_from(sorted(SKETCH_FAMILIES)),
    st.lists(st.tuples(sketch_values, weights), max_size=12),
)


def build_sketch(spec):
    family, contents = spec
    sketch = SKETCH_FAMILIES[family]()
    for value, weight in contents:
        sketch.add(value, weight)
    return sketch


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(pairs=st.lists(st.tuples(sketch_specs, sketch_specs), min_size=1, max_size=6))
def test_bulk_sketch_merge_matches_the_per_pair_loop(backend_name, pairs):
    with backend(backend_name):
        targets = [build_sketch(target) for target, _ in pairs]
        sources = [build_sketch(source) for _, source in pairs]
        expected = [build_sketch(target) for target, _ in pairs]
        kept = [
            index for index, (target, source) in enumerate(zip(targets, sources))
            if target.mergeable_with(source)
        ]
        targets = [targets[index] for index in kept]
        sources = [sources[index] for index in kept]
        expected = [expected[index] for index in kept]
        BaseDDSketch.merge_checked_pairs(targets, sources)
        for target, source in zip(expected, sources):
            target.merge(source)
    assert [sketch_state(sketch) for sketch in targets] == [
        sketch_state(sketch) for sketch in expected
    ]


def _registry(family, batches):
    registry = SketchRegistry(sketch_factory=SKETCH_FAMILIES[family])
    for index, values in enumerate(batches):
        for offset, value in enumerate(values):
            registry.add(f"m{(index + offset) % 5}", value, weight=1.0 + offset / 3.0)
    return registry


registry_batches = st.lists(st.lists(sketch_values, max_size=6), min_size=1, max_size=4)


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(
    family=st.sampled_from(sorted(SKETCH_FAMILIES)),
    mine=registry_batches,
    theirs=registry_batches,
)
def test_registry_bulk_merge_matches_merge_series(backend_name, family, mine, theirs):
    with backend(backend_name):
        actual = _registry(family, mine)
        expected = _registry(family, mine)
        other = _registry(family, theirs)
        actual.merge(other)
        for key, sketch in other:
            expected.merge_series(key, sketch)
    assert registry_state(actual) == registry_state(expected)


@pytest.mark.parametrize("family", sorted(SKETCH_FAMILIES))
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_registry_merged_into_itself(backend_name, family):
    """Every source is its own target: each reads its pre-merge state."""
    batches = [[1.0, -2.0, 0.0, 350.0], [7.5, 7.5, 1e-3]]
    with backend(backend_name):
        actual = _registry(family, batches)
        expected = _registry(family, batches)
        actual.merge(actual)
        for key, sketch in list(expected):
            expected.merge_series(key, sketch)
    assert registry_state(actual) == registry_state(expected)
    assert actual.total_count() == 2 * _registry(family, batches).total_count()


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_frame_applied_many_times_in_a_row(backend_name):
    from repro.serialization.frame import decode_frame

    rng = np.random.default_rng(17)
    source = SketchRegistry(sketch_factory=lambda: DDSketch(0.01, bin_limit=64))
    groups = rng.integers(0, 40, 400)
    source.ingest_grouped([f"s{index}" for index in range(40)], groups, rng.lognormal(0.0, 2.0, 400))
    frame = source.to_frame()
    with backend(backend_name):
        actual = SketchRegistry()
        expected = SketchRegistry()
        for _ in range(25):
            actual.merge_frame(frame)
            for key, sketch in decode_frame(frame):
                expected.merge_series(key, sketch, copy=False)
            assert registry_state(actual) == registry_state(expected)


# --------------------------------------------------------------------------- #
# The fold (BaseDDSketch.fold) against the copy-first loop
# --------------------------------------------------------------------------- #

#: Sketch families of the fold differential, all over one mapping: small
#: chunks leave unused edge bins, and bin limits of 12 make the bounded
#: stores collapse, so windows fit, grow, move and collapse.  The sparse
#: and uniform families, and UDDSketch's own merge, take the loop.
FOLD_FAMILIES = {
    "default": lambda mapping: DDSketch(mapping=mapping, bin_limit=12),
    "dense": lambda mapping: BaseDDSketch(
        mapping, DenseStore(chunk_size=4), DenseStore(chunk_size=4)
    ),
    "collapsing": lambda mapping: BaseDDSketch(
        mapping,
        CollapsingLowestDenseStore(bin_limit=12, chunk_size=4),
        CollapsingHighestDenseStore(bin_limit=12, chunk_size=4),
    ),
    "highest_first": lambda mapping: BaseDDSketch(
        mapping,
        CollapsingHighestDenseStore(bin_limit=12, chunk_size=4),
        CollapsingLowestDenseStore(bin_limit=12, chunk_size=4),
    ),
    "sparse": lambda mapping: BaseDDSketch(mapping, SparseStore(), SparseStore()),
    "uniform": lambda mapping: BaseDDSketch(
        mapping,
        UniformCollapsingDenseStore(bin_limit=8, chunk_size=4),
        UniformCollapsingDenseStore(bin_limit=8, chunk_size=4),
    ),
    "udd": lambda mapping: UDDSketch(mapping=mapping, bin_limit=16),
}

FOLD_MAPPING = LogarithmicMapping(0.02)
#: Another accuracy: a sketch of it cannot merge with the rest.
OTHER_MAPPING = LogarithmicMapping(0.05)

#: Values whose keys stay within a few bins, or span many bins of both signs.
fold_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1.0, max_value=1.3),
    st.floats(min_value=1e-2, max_value=1e4),
    st.floats(min_value=-1e4, max_value=-1e-2),
)

#: The families whose folds can take the native pass.
DENSE_FOLD_FAMILIES = ["collapsing", "default", "dense", "highest_first"]


def fold_groups(families):
    """Groups of sketch specs over ``families``.  One spec: its family, its
    (value, weight) pairs, and what happens next: nothing, everything
    deleted again (an empty sketch), or a 2**53 round trip that drifts the
    sketch's count to 0 while a bin keeps weight."""
    spec = st.tuples(
        st.sampled_from(families),
        st.lists(st.tuples(fold_values, weights), max_size=8),
        st.sampled_from(["keep", "keep", "keep", "delete_all", "drift"]),
    )
    return st.lists(st.lists(spec, min_size=1, max_size=4), min_size=1, max_size=5)


#: Mostly groups the native pass can fold; the rest mix in every family.
fold_group_specs = st.sampled_from(
    [DENSE_FOLD_FAMILIES] * 3 + [sorted(FOLD_FAMILIES)]
).flatmap(fold_groups)


def build_fold_sketch(spec, mapping=FOLD_MAPPING):
    family, contents, after = spec
    sketch = FOLD_FAMILIES[family](mapping)
    for value, weight in contents:
        sketch.add(value, weight)
    if after in ("delete_all", "drift"):
        for value, weight in contents:
            sketch.delete(value, weight)
    if after == "drift" and family != "udd":
        sketch.add(1.0, 1.0)
        sketch.add(5.0, 2.0**53)  # 2**53 + 1 rounds back to 2**53 in the count
        sketch.delete(5.0, 2.0**53)
    return sketch


def _fold_outcome(fold, groups):
    try:
        return ("folded", sketch_state(fold(groups)))
    except Exception as error:  # the two folds must fail alike
        return ("raised", type(error).__name__, str(error))


@contextlib.contextmanager
def fold_calls():
    """Count the calls that reach :func:`repro.kernel.fold_windows`."""
    calls = []
    original = kernel.fold_windows

    def spy(*args):
        out = original(*args)
        calls.append(out is not None)
        return out

    kernel.fold_windows = spy
    try:
        yield calls
    finally:
        kernel.fold_windows = original


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(
    groups=fold_group_specs,
    mismatched=st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 3))),
)
def test_fold_matches_the_copy_first_loop(backend_name, groups, mismatched):
    """Every attribute of every store, bit for bit, or the same error."""
    from repro.core.ddsketch import _fold_loop

    def build():
        built = [[build_fold_sketch(spec) for spec in group] for group in groups]
        if mismatched is not None:
            group = built[mismatched[0] % len(built)]
            index = mismatched[1] % len(group)
            group[index] = build_fold_sketch(groups[0][0], mapping=OTHER_MAPPING)
        return built

    with backend(backend_name):
        inputs = build()
        before = [[sketch_state(sketch) for sketch in group] for group in inputs]
        folded = _fold_outcome(BaseDDSketch.fold, inputs)
        looped = _fold_outcome(_fold_loop, build())
    assert folded == looped
    assert [[sketch_state(sketch) for sketch in group] for group in inputs] == before


#: Groups that reach the fold pass, with fractional weights: windows that
#: fit, grow by chunks, move up or down and collapse, one-window groups
#: merged straight into the total, and empty and drift-emptied sketches
#: first and later (their merges return at once, or clear the target).
FOLD_CASES = {
    "fits": [[("default", [(1.1, 0.3), (1.2, 1.7)]), ("default", [(1.15, 0.25)])]],
    "grows": [
        [("dense", [(1.1, 0.3)]), ("dense", [(50.0, 0.7), (0.05, 1.3)])],
        [("dense", [(-3.0, 2.5)])],
    ],
    "moves_and_collapses": [
        [("collapsing", [(1.1, 0.3), (-2.0, 0.4)]), ("collapsing", [(900.0, 0.6)])],
        [("highest_first", [(0.02, 1.1), (-700.0, 0.9)]), ("collapsing", [(3.0, 0.2)])],
        [("default", [(5000.0, 0.5), (-0.5, 1.5)])],
    ],
    "empty_and_drifted": [
        [("default", [], "keep"), ("default", [(2.0, 0.75)])],
        [("default", [(3.0, 1.25)], "drift"), ("collapsing", [(40.0, 0.5)])],
        [("default", [(7.0, 0.5)], "delete_all")],
        [("dense", [(1.2, 0.1)], "drift"), ("default", [(9.0, 0.3)], "drift")],
    ],
    "mixed_families": [
        [("dense", [(1.1, 0.3), (-8.0, 2.0)]), ("default", [(600.0, 0.9)])],
        [("collapsing", [(0.3, 0.6)]), ("highest_first", [(-0.2, 1.4), (30.0, 0.35)])],
        [("default", [(1.25, 0.125)])],
    ],
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_fold_takes_the_native_pass_where_it_can(backend_name, case):
    from repro.core.ddsketch import _fold_loop

    def build():
        return [
            [build_fold_sketch((spec + ("keep",))[:3]) for spec in group]
            for group in FOLD_CASES[case]
        ]

    with backend(backend_name), fold_calls() as calls:
        folded = BaseDDSketch.fold(build())
        expected = _fold_loop(build())
    assert sketch_state(folded) == sketch_state(expected)
    if backend_name == "native":
        assert calls and all(calls)
    else:
        assert not calls
    if case == "empty_and_drifted":
        # Two empty sketches, and three whose count drifted to 0 while a
        # positive bin kept weight.
        emptied = [sketch for group in build() for sketch in group if sketch.count == 0.0]
        assert [sketch.store.count for sketch in emptied] == [0.0] * 5
        assert [sketch.store.num_buckets for sketch in emptied] == [0, 1, 0, 1, 1]


@pytest.mark.parametrize("family", ["sparse", "uniform", "udd"])
def test_fold_leaves_other_families_to_the_loop(family):
    """A sparse or uniform store, or a class with its own merge, never
    reaches the fold pass, alone or mixed with dense families."""
    from repro.core.ddsketch import _fold_loop

    def build():
        return [
            [build_fold_sketch(("default", [(2.0, 0.5)], "keep"))],
            [build_fold_sketch((family, [(3.0, 0.25), (-1.0, 2.0)], "keep"))],
        ]

    with backend("native"), fold_calls() as calls:
        folded = BaseDDSketch.fold(build())
        expected = _fold_loop(build())
        first = BaseDDSketch.fold(list(reversed(build())))
        expected_first = _fold_loop(list(reversed(build())))
    assert sketch_state(folded) == sketch_state(expected)
    assert sketch_state(first) == sketch_state(expected_first)
    assert not calls


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_fold_past_the_scratch_cap_takes_the_loop(backend_name, monkeypatch):
    """A plain store's scratch spans every window plus two chunks; past
    ``MAX_MOVED_CELLS`` cells the fold takes the loop."""
    from repro.core.ddsketch import _fold_loop
    from repro.store import grouped

    monkeypatch.setattr(grouped, "MAX_MOVED_CELLS", 40)

    def build():
        near = build_fold_sketch(("dense", [(1.1, 0.5)], "keep"))
        far = build_fold_sketch(("dense", [(3000.0, 0.25)], "keep"))
        return [[near], [far]]

    with backend(backend_name), fold_calls() as calls:
        folded = BaseDDSketch.fold(build())
        expected = _fold_loop(build())
    assert sketch_state(folded) == sketch_state(expected)
    assert not calls


def test_fold_refuses_no_groups_and_empty_groups():
    from repro.exceptions import IllegalArgumentError

    for groups in ([], [[]], [[DDSketch()], []]):
        with pytest.raises(IllegalArgumentError, match="empty group"):
            BaseDDSketch.fold(groups)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_fold_from_a_decoded_default_sketch(backend_name):
    """A decoded ``DDSketch`` keeps its bin limit, so the fold's result,
    built like a decoded sketch, equals the loop's copy."""
    from repro.core.ddsketch import _fold_loop

    def build():
        sketches = []
        for scale in (1.0, 40.0, 0.01):
            sketch = DDSketch(0.02, bin_limit=12)
            sketch.add_batch(np.array([scale, 2.5 * scale, -scale]), np.array([0.3, 1.7, 0.6]))
            sketches.append(DDSketch.from_bytes(sketch.to_bytes()))
        return [sketches[:2], sketches[2:]]

    with backend(backend_name):
        folded = BaseDDSketch.fold(build())
        expected = _fold_loop(build())
    assert sketch_state(folded) == sketch_state(expected)
    assert type(folded) is DDSketch and folded.bin_limit == 12


def test_fold_windows_checks_what_it_reads():
    """The fold pass reads windows through their addresses, so the wrapper
    refuses groups that do not split the windows, rows of the wrong
    length and windows it cannot read in place."""
    with backend("native"):
        windows = [np.array([0.5, 1.0]), np.array([2.0])]
        # One group: a plain dense store of chunk 4 (5 head entries), then a window.
        heads = [0, 4, 2, 0, 1]
        args = ([2], heads, [0, 1], windows, [1.5, 2.0], 16, 0)
        bins, offset, positive, collapsed, count = kernel.fold_windows(*args)
        assert (bins.tolist(), offset, positive, collapsed, count) == ([0.5, 3.0], 0, 2, False, 3.5)
        for ends in ([1], [3], [0, 2], [2, 1, 2], []):
            with pytest.raises(ValueError, match="non-empty runs"):
                kernel.fold_windows(ends, heads * max(len(ends), 1), *args[2:])
        for bad in ((heads[:4],), (heads, [0]), (heads, [0, 1], windows, [1.5])):
            with pytest.raises(ValueError, match="expected"):
                kernel.fold_windows([2], *bad, *args[len(bad) + 1 :])
        read_only = np.array([2.0])
        read_only.flags.writeable = False
        bad_windows = (
            np.array([2.0], dtype=np.float32), np.zeros(4)[::2], read_only, np.zeros((1, 1))
        )
        for bad in bad_windows:
            with pytest.raises((TypeError, ValueError)):
                kernel.fold_windows([2], heads, [0, 1], [windows[0], bad], [1.5, 2.0], 16, 0)


#: One factory per exact type the fold pass takes.
SEGMENT_FACTORIES = {
    DenseStore: lambda: DenseStore(chunk_size=4),
    CollapsingLowestDenseStore: lambda: CollapsingLowestDenseStore(bin_limit=12, chunk_size=4),
    CollapsingHighestDenseStore: lambda: CollapsingHighestDenseStore(bin_limit=12, chunk_size=4),
}


@pytest.mark.parametrize("store_type", SEGMENT_STORE_TYPES, ids=lambda cls: cls.__name__)
def test_a_folded_store_is_built_as_a_copy_is(store_type):
    """The fold pass's result has the attribute names of the copy-first
    loop's, in the same order, and the same values: it is set attribute by
    attribute, not from the first store's instance dict."""
    from repro.store.grouped import fold_store_groups

    def build():
        stores = []
        for keys in ([1, 4], [9, 30], [-3, 2]):
            store = SEGMENT_FACTORIES[store_type]()
            for key in keys:
                store.add(key, 0.25 + key % 3)
            stores.append(store)
        return stores

    with backend("native"):
        folded = fold_store_groups(build(), [2, 3], [True, True])
    stores = build()
    expected = stores[0].copy()
    expected.merge(stores[1])
    expected.merge(stores[2].copy())
    assert folded is not None
    assert list(vars(folded)) == list(vars(expected))
    assert store_state(folded) == store_state(expected)
