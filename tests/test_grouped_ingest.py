"""Grouped ingest against the path it replaced, bit for bit.

:meth:`~repro.core.BaseDDSketch.add_grouped_batch` lays every group's keys
out as one row of a combined binning pass.  A fresh collapsing store (no
bins allocated, not collapsed, no weight) whose row fits its bin limit takes
a copy of the row as its window in one step
(:func:`repro.store.grouped._fan_out`); every other row lands through
:func:`repro.kernel.apply_segments`.  And
:meth:`~repro.registry.SketchRegistry.ingest_grouped` calls its factory once
per ingest that creates series, making the other new series copies of that
sketch.

Under both kernel backends the result must be what the replaced path gives:
one factory call per new series, every row through ``apply_segments`` and
the scalar loop below (:func:`replaced_ingest`), with every store's bins,
offset, count, positive bins and collapse flag, every sketch's scalars and
the registry's frame bytes equal.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import (
    DDSketch,
    FastDDSketch,
    LogCollapsingHighestDenseDDSketch,
    LogCollapsingLowestDenseDDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
    UDDSketch,
)
from repro import kernel
from repro.core import BaseDDSketch
from repro.registry import SeriesKey, SketchRegistry
from repro.store import CollapsingHighestDenseStore, CollapsingLowestDenseStore, add_grouped_batch
from repro.store.grouped import SEGMENT_STORE_TYPES, group_totals

from test_store_merge_matrix import BACKENDS, backend, registry_state, sketch_state, store_state

#: Sketch families: the default sketch at its bin limit and at one a batch
#: row often overflows, both collapsing presets and the fast sketch (which
#: take the one-step install when fresh), and the plain dense, sparse and
#: UDD families, which never do.
FAMILIES = {
    "default": lambda: DDSketch(0.02),
    "default_small": lambda: DDSketch(0.02, bin_limit=12),
    "lowest": lambda: LogCollapsingLowestDenseDDSketch(0.02, bin_limit=12),
    "highest": lambda: LogCollapsingHighestDenseDDSketch(0.02, bin_limit=12),
    "fast": lambda: FastDDSketch(0.02, bin_limit=24),
    "dense": lambda: LogUnboundedDenseDDSketch(0.02),
    "sparse": lambda: SparseDDSketch(0.02),
    "udd": lambda: UDDSketch(0.02, bin_limit=16),
}

#: Zeros, magnitudes over six decades (rows far wider than a 12-bin limit)
#: and a narrow band (rows that fit it), on both signs.
values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-3),
    st.floats(min_value=1.0, max_value=1.2),
    st.floats(min_value=-1.2, max_value=-1.0),
)

#: Unit weights, one scalar weight, or one fractional weight per value.
weight_specs = st.one_of(
    st.none(),
    st.sampled_from([0.25, 2.5]),
    st.just("array"),
)

#: What a listed series is before the batch: new, stored with data, stored
#: and then drained (every bucket of its positive store removed), stored
#: and drift-emptied (its positive store's count rounds to 0 while a bin
#: keeps weight), or the same series as the listing before it.
states = st.sampled_from(["new", "new", "existing", "drained", "drift", "again"])

batches = st.tuples(
    st.sampled_from(sorted(FAMILIES)),
    st.booleans(),  # whether the factory's sketch already holds data
    st.lists(states, min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(0, 5), values), min_size=1, max_size=40),
    weight_specs,
    st.lists(values, min_size=1, max_size=6),  # what an existing series holds
)


def replaced_ingest(sketches, group_indices, values, weights=None):
    """``BaseDDSketch.add_grouped_batch`` as it was: every row of the
    combined pass through ``kernel.apply_segments``, then the scalar loop."""
    num_groups = len(sketches)
    group_indices = np.asarray(group_indices, dtype=np.int64)
    values, weights = kernel.coerce_values_weights(values, weights)
    mapping = sketches[0].mapping
    if not all(
        type(sketch).add_batch is BaseDDSketch.add_batch
        and type(sketch.store) in SEGMENT_STORE_TYPES
        and type(sketch.negative_store) in SEGMENT_STORE_TYPES
        and sketch.mapping == mapping
        for sketch in sketches
    ):
        for group in np.unique(group_indices).tolist():
            mask = group_indices == group
            sketches[group].add_batch(values[mask], None if weights is None else weights[mask])
        return
    split = kernel.compute_keys(mapping, values)
    for sign, side in ((kernel.POSITIVE, "store"), (kernel.NEGATIVE, "negative_store")):
        mask = split.mask_for(sign)
        if not mask.any():
            continue
        groups, keys = group_indices[mask], split.keys_for(sign)
        sign_weights = None if weights is None else weights[mask]
        min_keys, max_keys = kernel.group_key_ranges(groups, keys, num_groups)
        present = np.flatnonzero(max_keys >= min_keys)
        widths = max_keys[present] - min_keys[present] + 1
        row_ends = np.cumsum(widths)
        row_bases = np.zeros(num_groups, dtype=np.int64)
        row_bases[present] = row_ends - widths - min_keys[present]
        cells = kernel.bin_grouped(groups, keys, sign_weights, row_bases, int(row_ends[-1]))
        kernel.apply_segments(
            [getattr(sketches[group], side) for group in present.tolist()],
            cells, min_keys[present], row_ends - widths, row_ends,
            group_totals(num_groups, groups, sign_weights)[present],
        )
    zero_mask = split.zero_mask
    zero_add = group_totals(
        num_groups, group_indices[zero_mask], None if weights is None else weights[zero_mask]
    )
    count_add = group_totals(num_groups, group_indices, weights)
    sum_add = np.bincount(
        group_indices, weights=values if weights is None else values * weights,
        minlength=num_groups,
    )
    group_mins = np.full(num_groups, np.inf)
    group_maxs = np.full(num_groups, -np.inf)
    np.minimum.at(group_mins, group_indices, values)
    np.maximum.at(group_maxs, group_indices, values)
    for group in np.flatnonzero(count_add > 0.0).tolist():
        sketch = sketches[group]
        sketch._zero_count += float(zero_add[group])
        sketch._count += float(count_add[group])
        sketch._sum += float(sum_add[group])
        if float(group_mins[group]) < sketch._min:
            sketch._min = float(group_mins[group])
        if float(group_maxs[group]) > sketch._max:
            sketch._max = float(group_maxs[group])


def replaced_registry_ingest(registry, factory, listed, group_indices, values, weights):
    """``SketchRegistry.ingest_grouped`` as it was: one factory call per new
    series, then :func:`replaced_ingest` over the listed series that
    receive samples."""
    stored = registry._sketches
    new = {}
    sketches = []
    present = np.flatnonzero(np.bincount(group_indices, minlength=len(listed)))
    recode = np.zeros(len(listed), dtype=np.int64)
    recode[present] = np.arange(present.size)
    for position in present.tolist():
        key = listed[position]
        sketch = stored.get(key, new.get(key))
        if sketch is None:
            sketch = new[key] = factory()
        sketches.append(sketch)
    replaced_ingest(sketches, recode[group_indices], values, weights)
    stored.update(new)


def key_of(index):
    return SeriesKey("grouped.latency", {"series": str(index)})


def registries(family, seeded, listing, held):
    """Two equal registries holding the listing's stored series, the factory
    both use, and the listed keys (a series ``"again"`` repeats the key
    before it)."""
    base = FAMILIES[family]
    if seeded:
        factory = lambda: base().add_batch(np.array(held))  # noqa: E731
    else:
        factory = base
    pair = (SketchRegistry(factory), SketchRegistry(factory))
    listed = []
    for index, state in enumerate(listing):
        if state == "again" and listed:
            listed.append(listed[-1])
            continue
        key = key_of(index)
        listed.append(key)
        if state not in ("existing", "drained", "drift"):
            continue
        for registry in pair:
            sketch = base().add_batch(np.array(held))
            store = sketch.store
            if state == "drained":
                for bucket in list(store):
                    store.remove(bucket.key, bucket.count)
            elif state == "drift" and hasattr(store, "_bins"):
                key_at = store.min_key if not store.is_empty else 0
                store.add(key_at, 2.0**53)
                store.add(key_at + 1, 1.0)  # 2**53 + 1 rounds back to 2**53 in the count
                store.remove(key_at, 2.0**53)
            registry.merge_series(key, sketch, copy=False)
    return pair, factory, listed


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(batch=batches)
def test_grouped_ingest_matches_the_replaced_path(backend_name, batch):
    family, seeded, listing, samples, weight_spec, held = batch
    (registry, reference), factory, listed = registries(family, seeded, listing, held)
    group_indices = np.array([group % len(listed) for group, _ in samples], dtype=np.int64)
    batch_values = np.array([value for _, value in samples])
    if weight_spec == "array":
        weights = np.linspace(0.125, 3.0, batch_values.size)
    else:
        weights = weight_spec
    with backend(backend_name):
        registry.ingest_grouped(listed, group_indices, batch_values, weights)
        replaced_registry_ingest(reference, factory, listed, group_indices, batch_values, weights)
        assert registry_state(registry) == registry_state(reference)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("weights", [None, 2.5, "array"])
def test_fresh_series_take_their_rows_in_one_step(backend_name, weights, monkeypatch):
    """Fresh default sketches send no row to ``apply_segments``; stored
    series, a plain dense sketch and rows past the bin limit send all."""
    rng = np.random.default_rng(11)
    groups = np.repeat(np.arange(6), 40)
    batch_values = rng.lognormal(0.0, 0.5, groups.size) * np.where(
        np.arange(groups.size) % 2, 1.0, -1.0
    )
    batch_values[::17] = 0.0
    if weights == "array":
        weights = rng.random(groups.size) + 0.25
    landed = []
    apply_segments = kernel.apply_segments

    def spy(stores, *rows):
        landed.extend(stores)
        apply_segments(stores, *rows)

    fresh = [DDSketch(0.01) for _ in range(6)]
    extra = [LogUnboundedDenseDDSketch(0.01), DDSketch(0.01, bin_limit=8)]
    expected = [sketch.copy() for sketch in fresh + extra]
    with backend(backend_name):
        monkeypatch.setattr(kernel, "apply_segments", spy)
        BaseDDSketch.add_grouped_batch(fresh, groups, batch_values, weights)
        assert landed == []
        second = fresh[:3] + extra
        BaseDDSketch.add_grouped_batch(second, groups % 5, batch_values, weights)
        assert [id(store) for store in landed] == [
            id(getattr(sketch, side))
            for side in ("store", "negative_store") for sketch in second
        ]
        monkeypatch.setattr(kernel, "apply_segments", apply_segments)
        replaced_ingest(expected[:6], groups, batch_values, weights)
        replaced_ingest(expected[:3] + expected[6:], groups % 5, batch_values, weights)
    for sketch, reference in zip(fresh + extra, expected):
        assert sketch_state(sketch) == sketch_state(reference)
        assert sketch.to_bytes() == reference.to_bytes()


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("store_type", [CollapsingLowestDenseStore, CollapsingHighestDenseStore])
@pytest.mark.parametrize("width", [11, 12, 13])
def test_rows_at_the_bin_limit(backend_name, store_type, width):
    """A row as wide as the bin limit takes the one-step install; one key
    wider lands as ``add_batch`` lands it, in a collapsed window."""
    keys = np.array([100, 100 + width - 1, 103, -7, -7])
    groups = np.array([0, 0, 0, 1, 1])
    with backend(backend_name):
        stores = [store_type(bin_limit=12) for _ in range(2)]
        add_grouped_batch(stores, groups, keys)
        for group, store in enumerate(stores):
            reference = store_type(bin_limit=12)
            reference.add_batch(keys[groups == group])
            assert store_state(store) == store_state(reference)
    assert stores[0].is_collapsed == (width > 12)


def test_one_factory_call_per_ingest_that_creates_series():
    """The factory runs once per ingest that creates series; the other new
    series are copies of its sketch, taken before the batch lands, and
    share its mapping."""
    made = []

    def factory():
        made.append(DDSketch(0.01))
        return made[-1]

    registry = SketchRegistry(factory)
    listed = [key_of(index) for index in range(4)]
    registry.ingest_grouped(listed, np.array([0, 1, 2, 3, 0]), np.arange(1.0, 6.0))
    assert len(made) == 1
    sketches = [registry.get(key) for key in listed]
    assert any(sketch is made[0] for sketch in sketches)
    assert all(sketch.mapping is made[0].mapping for sketch in sketches)
    assert [sketch.count for sketch in sketches] == [2.0, 1.0, 1.0, 1.0]
    registry.ingest_grouped(listed, np.array([0, 1]), np.array([1.0, 2.0]))
    assert len(made) == 1, "no new series, no factory call"
    registry.ingest_grouped([key_of(9)], np.array([0]), np.array([1.0]))
    assert len(made) == 2
