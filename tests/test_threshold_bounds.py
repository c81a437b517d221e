"""The registry's threshold query against its per-series bounds loop.

:meth:`repro.registry.SketchRegistry.threshold_query` bounds every selected
series in one pass (:meth:`repro.core.BaseDDSketch.quantile_bound_columns`):
count columns pick each series' rank region, one native scan
(:func:`repro.kernel.used_edges`) finds the region stores' used keys, and
one ``value_batch`` call per mapping turns them into bounds.  Under both
kernel backends the answer must be, field for field, what the per-series
loop gives::

    for key in registry.series_keys(metric, tag_filter):
        lower, upper = sketch.quantile_bounds(quantile)  # skip if empty
        ...classify, estimating only a series whose bounds straddle

(``tests/_service_testkit.reference_threshold``), and the bound columns
must equal the loop's bounds bit for bit.  Sparse, uniform and UDD stores
and classes with their own ``quantile_bounds`` take that loop.
"""

import math
import struct

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
    kernel,
)
from repro.core import BaseDDSketch
from repro.core.ddsketch import _bounds_natively
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.registry import SeriesKey, SketchRegistry
from repro.store import CollapsingLowestDenseStore, DenseStore, SparseStore
from repro.store.grouped import used_key_ranges

from _kernel_testkit import require_native_kernel
from _service_testkit import reference_threshold
from test_store_merge_matrix import BACKENDS, backend

METRIC = "threshold.latency"

#: One sketch shared as a template: its copies share one mapping object,
#: as the series a registry's grouped ingest creates do.
TEMPLATE = DDSketch(0.02)


class WideBoundsDDSketch(DDSketch):
    """A class with its own ``quantile_bounds``: the pass must leave it to the loop."""

    def quantile_bounds(self, quantile):
        lower, upper = super().quantile_bounds(quantile)
        return lower - 1.0, upper + 1.0


#: Families whose region stores the native pass reads: both tail
#: collapsing stores at the paper's bin limit and at one small enough to
#: collapse, the plain dense store, an interpolated mapping, and copies
#: sharing one mapping.  Every factory call otherwise makes its own
#: mapping, equal to others of its accuracy but a distinct object.
NATIVE_FAMILIES = {
    "default": lambda: DDSketch(0.01),
    "small": lambda: DDSketch(0.02, bin_limit=8),
    "lowest": lambda: LogCollapsingLowestDenseDDSketch(0.02, bin_limit=8),
    "highest": lambda: LogCollapsingHighestDenseDDSketch(0.02, bin_limit=8),
    "fast": lambda: FastDDSketch(0.02, bin_limit=16),
    "dense": lambda: LogUnboundedDenseDDSketch(0.02),
    "shared": TEMPLATE.copy,
}

#: Families the loop bounds.
LOOP_FAMILIES = {
    "sparse": lambda: SparseDDSketch(0.02),
    "udd": lambda: UDDSketch(0.02, bin_limit=16),
    "own_bounds": lambda: WideBoundsDDSketch(0.02),
}

FAMILIES = {**NATIVE_FAMILIES, **LOOP_FAMILIES}

values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-2, max_value=1e4),
    st.floats(min_value=-1e4, max_value=-1e-2),
)
weights = st.one_of(
    st.sampled_from([0.25, 1.0, 2.5]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
)

#: What a series has been through after its values: nothing; its positive
#: or negative store's weight removed through the store (the sketch's count
#: still says weight, the store holds none); a 2**53 round trip that leaves
#: a store's count at 1 while every bin is zero; one that leaves the
#: sketch's count at 0 while a bin keeps weight; or its lowest and highest
#: buckets emptied, so zero cells pad the used keys at both ends.
HISTORIES = [
    "keep", "keep", "keep", "drain", "drain_negative", "drift", "drift_negative",
    "sketch_drift", "trim",
]

#: One series: its family, its (value, weight) pairs (none: an empty
#: series) and its history.
def series_specs(families):
    return st.tuples(
        st.sampled_from(sorted(families)),
        st.lists(st.tuples(values, weights), max_size=10),
        st.sampled_from(HISTORIES),
    )


populations = st.sampled_from([NATIVE_FAMILIES, NATIVE_FAMILIES, FAMILIES]).flatmap(
    lambda families: st.lists(series_specs(families), max_size=12)
)

quantiles = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.99, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


def build_sketch(spec):
    family, contents, history = spec
    sketch = FAMILIES[family]()
    for value, weight in contents:
        sketch.add(value, weight)
    store = sketch.negative_store if history.endswith("negative") else sketch.store
    if history == "sketch_drift":
        sketch.add(1.0, 1.0)
        sketch.add(5.0, 2.0**53)  # 2**53 + 1 rounds back to 2**53 in the count
        sketch.delete(5.0, 2.0**53)
    elif history.startswith("drain"):
        for bucket in list(store):
            store.remove(bucket.key, bucket.count)
    elif history.startswith("drift"):
        store.add(3, 3.0)
        store.add(4, 2.0**53)  # the count rounds 2**53 + 3 up to 2**53 + 4
        store.remove(4, 2.0**53)
        store.remove(3, 3.0)
    elif history == "trim":
        buckets = list(store)
        if len(buckets) > 2:
            for bucket in (buckets[0], buckets[-1]):
                store.remove(bucket.key, bucket.count)
    return sketch


def build_registry(specs):
    """A registry holding ``specs``, stored out of key order: the answer
    lists its series in sorted order all the same."""
    registry = SketchRegistry()
    for index, spec in enumerate(specs):
        name = f"{index * 37 % 97:02d}"
        key = SeriesKey(METRIC, {"series": name, "half": str(index % 2)})
        registry.merge_series(key, build_sketch(spec), copy=False)
    return registry


def loop_bounds(sketches, quantile):
    """The per-series loop's bounds, as bytes: ``(inf, -inf)`` where empty."""
    packed = []
    for sketch in sketches:
        try:
            lower, upper = sketch.quantile_bounds(quantile)
        except EmptySketchError:
            lower, upper = math.inf, -math.inf
        packed.append(struct.pack("<dd", lower, upper))
    return packed


def column_bounds(sketches, quantile):
    lower, upper = BaseDDSketch.quantile_bound_columns(sketches, quantile)
    assert lower.dtype == upper.dtype == np.float64
    return [struct.pack("<dd", low, high) for low, high in zip(lower.tolist(), upper.tolist())]


def thresholds(registry, quantile):
    """A bound or estimate of some series, the floats either side of it, zero, or any value."""
    candidates = [0.0]
    for _, sketch in registry:
        try:
            candidates += sketch.quantile_bounds(quantile)
            candidates.append(sketch.quantile(quantile))
        except EmptySketchError:
            pass
    picked = st.sampled_from(candidates).flatmap(
        lambda value: st.sampled_from(
            [value, float(np.nextafter(value, -math.inf)), float(np.nextafter(value, math.inf))]
        )
    )
    return st.one_of(picked, st.floats(min_value=-1e4, max_value=1e4))


def outcome(result):
    return result.matches, result.scanned, result.total_series, result.prune_rate


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(specs=populations, quantile=quantiles, data=st.data())
def test_threshold_query_matches_the_per_series_loop(backend_name, specs, quantile, data):
    """Every field of the result, and every bound bit for bit."""
    with backend(backend_name):
        registry = build_registry(specs)
        threshold = data.draw(thresholds(registry, quantile), label="threshold")
        above = data.draw(st.booleans(), label="above")
        metric, tag_filter = data.draw(
            st.sampled_from(
                [(METRIC, None), (METRIC, {"half": "0"}), (METRIC, {"half": "no"}), ("other", None)]
            ),
            label="selection",
        )
        result = registry.threshold_query(
            metric, quantile, threshold, above=above, tag_filter=tag_filter
        )
        expected = reference_threshold(registry, metric, quantile, threshold, above, tag_filter)
        sketches = [sketch for _, sketch in registry]
        columns = column_bounds(sketches, quantile)
        natively = _bounds_natively(sketches, quantile)
    assert outcome(result) == expected
    assert columns == loop_bounds(sketches, quantile)
    # The NumPy backend always takes the loop; the native one takes the pass
    # at least wherever no region store is of a loop family.
    if backend_name == "numpy":
        assert natively is None
    elif all(family in NATIVE_FAMILIES for family, _, _ in specs):
        assert natively is not None


def region_registry():
    """Series whose rank falls in each region, or that hold no data."""
    registry = SketchRegistry()

    def put(name, sketch):
        registry.merge_series(SeriesKey(METRIC, {"series": name}), sketch, copy=False)

    put("empty", DDSketch(0.02))
    zeros = DDSketch(0.02)
    zeros.add(0.0, 2.5)
    put("zero_only", zeros)
    negatives = DDSketch(0.02)
    negatives.add_batch(np.array([-0.5, -3.0, -40.0]), np.array([0.25, 1.5, 0.75]))
    put("negative_only", negatives)
    mixed = DDSketch(0.02)
    # Ranks 0 and 1 fall in the negative store, 2 in the zero bucket,
    # 3 and 4 in the positive store.
    mixed.add_batch(np.array([-7.0, -2.0, 0.0, 3.0, 900.0]))
    put("mixed", mixed)
    drained = DDSketch(0.02)
    drained.add(5.0)
    drained.store.remove(drained.store.min_key, 1.0)  # the sketch still counts 1
    put("drained", drained)
    drifted = DDSketch(0.02)
    drifted.add(1.0, 1.0)
    drifted.add(5.0, 2.0**53)
    drifted.delete(5.0, 2.0**53)  # the count is 0, the bin of 1.0 keeps weight
    put("drifted", drifted)
    padded = LogUnboundedDenseDDSketch(0.02)
    padded.add_batch(np.array([1.0, 2.0, 50.0, 400.0]), np.array([0.5, 1.0, 2.0, 0.125]))
    put("padded", padded)
    collapsed = DDSketch(0.02, bin_limit=4)
    collapsed.add_batch(np.array([0.01, 1.0, 100.0, 1e4, -1e3, -0.1]))
    put("collapsed", collapsed)
    return registry


@pytest.mark.parametrize("quantile", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_every_region_in_one_pass(backend_name, quantile):
    """Empty, zero-only, negative-only and mixed-sign sketches, a store
    whose sketch counts weight it no longer holds, zero padding and a
    collapsed window: the pass bounds them all as the loop does."""
    registry = region_registry()
    sketches = [sketch for _, sketch in registry]
    # Every bound and estimate as a threshold: a series whose bound equals
    # the threshold must be estimated, not decided from that bound.
    levels = {-50.0, 1e-9, 1e6}
    for sketch in sketches:
        try:
            levels.update(sketch.quantile_bounds(quantile))
            levels.add(sketch.quantile(quantile))
        except EmptySketchError:
            pass
    with backend(backend_name):
        columns = column_bounds(sketches, quantile)
        natively = _bounds_natively(sketches, quantile)
        for threshold in sorted(levels):
            for above in (True, False):
                result = registry.threshold_query(METRIC, quantile, threshold, above=above)
                assert outcome(result) == reference_threshold(
                    registry, METRIC, quantile, threshold, above
                ), (threshold, above)
    assert columns == loop_bounds(sketches, quantile)
    assert (natively is not None) == (backend_name == "native")
    bounds = dict(zip((str(key) for key, _ in registry), columns))
    empty = struct.pack("<dd", math.inf, -math.inf)
    assert bounds[f"{METRIC}{{series=empty}}"] == empty
    assert bounds[f"{METRIC}{{series=drained}}"] == empty
    assert bounds[f"{METRIC}{{series=drifted}}"] == empty


def test_the_mixed_sketch_visits_each_region():
    """The mixed-sign sketch above has its rank in each of the three regions."""
    mixed = region_registry().get(METRIC, {"series": "mixed"})
    assert mixed.quantile_bounds(0.25)[1] < 0.0
    assert mixed.quantile_bounds(0.5) == (0.0, 0.0)
    assert mixed.quantile_bounds(0.75)[0] > 0.0


@pytest.mark.parametrize("family", sorted(LOOP_FAMILIES))
def test_other_families_take_the_loop(family):
    """A sparse or uniform store, or a class with its own bounds, leaves
    the whole population to the loop, whose answer it then is."""
    require_native_kernel()
    registry = region_registry()
    odd = FAMILIES[family]()
    odd.add_batch(np.array([2.0, 30.0, -4.0]), np.array([0.5, 1.0, 2.0]))
    registry.merge_series(SeriesKey(METRIC, {"series": "odd"}), odd, copy=False)
    sketches = [sketch for _, sketch in registry]
    with backend("native"):
        assert _bounds_natively(sketches, 0.9) is None
        columns = column_bounds(sketches, 0.9)
        result = registry.threshold_query(METRIC, 0.9, 20.0)
    assert columns == loop_bounds(sketches, 0.9)
    assert outcome(result) == reference_threshold(registry, METRIC, 0.9, 20.0)


def test_a_registry_of_many_mappings():
    """Equal but distinct mappings, unequal ones and one shared by copies:
    one ``value_batch`` call per mapping object, every bound as the loop's."""
    require_native_kernel()
    registry = SketchRegistry()
    factories = [DDSketch, lambda: DDSketch(0.05), TEMPLATE.copy, TEMPLATE.copy, FastDDSketch]
    for index in range(20):
        sketch = factories[index % len(factories)]() if index % 5 else DDSketch(0.02)
        sketch.add_batch(np.array([1.0 + index, -2.0 * index - 1.0, 30.0]))
        registry.merge_series(SeriesKey(METRIC, {"series": f"{index:02d}"}), sketch, copy=False)
    sketches = [sketch for _, sketch in registry]
    calls = []
    with backend("native"):
        for mapping in {id(sketch.mapping): sketch.mapping for sketch in sketches}.values():
            original = mapping.value_batch
            mapping.value_batch = lambda keys, original=original: calls.append(1) or original(keys)
        try:
            for quantile in (0.0, 0.5, 1.0):
                calls.clear()
                assert column_bounds(sketches, quantile) == loop_bounds(sketches, quantile)
                assert len(calls) == len({id(sketch.mapping) for sketch in sketches})
        finally:
            for sketch in sketches:
                sketch.mapping.__dict__.pop("value_batch", None)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "quantile, threshold",
    [(-0.1, 1.0), (1.5, 1.0), (math.nan, 1.0), (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf)],
)
def test_bad_arguments_raise_before_any_series_is_read(
    backend_name, quantile, threshold, monkeypatch
):
    def read(*args, **kwargs):
        raise AssertionError("a series was read")

    registry = region_registry()
    monkeypatch.setattr(BaseDDSketch, "quantile_bound_columns", read)
    monkeypatch.setattr(BaseDDSketch, "quantile", read)
    with backend(backend_name), pytest.raises(IllegalArgumentError):
        registry.threshold_query(METRIC, quantile, threshold)


def test_bound_columns_refuse_a_bad_quantile():
    for quantile in (-0.1, 1.5, math.nan):
        with pytest.raises(IllegalArgumentError):
            BaseDDSketch.quantile_bound_columns([DDSketch()], quantile)


@given(
    windows=st.lists(
        st.lists(st.sampled_from([0.0, 0.0, -0.0, 5e-324, 0.5, 3.0]), max_size=12), max_size=8
    )
)
def test_used_edges_match_min_key_and_max_key(windows):
    """The native scan against ``DenseStore.min_key`` / ``max_key``, one
    window read in place inside a larger buffer."""
    require_native_kernel()
    buffer = np.array([1.0] + [cell for window in windows for cell in window] + [1.0])
    views, start = [], 1
    for window in windows:
        views.append(buffer[start : start + len(window)])
        start += len(window)
    with backend("native"):
        first, last = kernel.used_edges(views)
    for view, low, high in zip(views, first.tolist(), last.tolist()):
        store = DenseStore._decoded(view, 10, 1.0, 0, 0, False)
        try:
            expected = (store.min_key - 10, store.max_key - 10)
        except EmptySketchError:
            expected = (-1, -1)
        assert (low, high) == expected


def test_used_key_ranges_read_the_stores_keys():
    require_native_kernel()
    stores = [DenseStore(chunk_size=4), CollapsingLowestDenseStore(bin_limit=6, chunk_size=4)]
    for store, keys in zip(stores, ([-3, 9], [1, 2, 20])):
        for key in keys:
            store.add(key, 0.5)
    stores.append(DenseStore())
    with backend("native"):
        used, min_keys, max_keys = used_key_ranges(stores)
    assert used.tolist() == [True, True, False]
    assert min_keys[:2].tolist() == [stores[0].min_key, stores[1].min_key]
    assert max_keys[:2].tolist() == [stores[0].max_key, stores[1].max_key]
    with backend("native"):
        assert used_key_ranges(stores + [SparseStore()]) is None
    with backend("numpy"):
        assert used_key_ranges(stores) is None


@pytest.mark.parametrize(
    "window", [np.zeros(4, dtype=np.float32), np.zeros((2, 3)), np.arange(6.0)[::2]]
)
def test_used_edges_refuse_windows_that_are_not_store_bins(window):
    """The scan reads float64 cells through the window's address: a window
    of another dtype, shape or layout is refused before it."""
    require_native_kernel()
    with backend("native"), pytest.raises((ValueError, TypeError)):
        kernel.used_edges([np.ones(3), window])
