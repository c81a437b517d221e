"""Columnar window buckets against the registry buckets they replace.

``ServiceState`` keeps each retained interval bucket as a
:class:`~repro.service.buckets.BucketStore`: rows of columns over one cell
buffer, with the sparse and UDD families as sketch objects beside them.
These tests push the same frames through a ``ServiceState`` and through a
reference that holds each bucket as a ``SketchRegistry`` (bulk merges as
:func:`~repro.registry.merge_entries_into` runs them), and require the same
snapshot bytes, bucket contents, windowed answers and errors, folded
sketches and threshold results, bit for bit, under both kernel backends.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _kernel_testkit import require_native_kernel
from _service_testkit import reference_threshold
from repro import kernel
from repro.core import (
    DDSketch,
    FastDDSketch,
    LogCollapsingHighestDenseDDSketch,
    LogCollapsingLowestDenseDDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
    UDDSketch,
)
from repro.core.ddsketch import BaseDDSketch
from repro.exceptions import EmptySketchError
from repro.registry import SeriesKey, SketchRegistry, merge_entries_into
from repro.serialization.encoding import encode_varint, encode_zigzag
from repro.serialization.frame import encode_frame, read_frame
from repro.service import ServiceState
from repro.service.buckets import BucketStore, fold_series
from repro.service.protocol import encode_push_envelope
from test_store_merge_matrix import registry_state, sketch_state

INTERVAL = 2.0
RETENTION = 3
QUANTILES = (0.0, 0.25, 0.5, 0.99, 1.0)

#: One family per series: rows (the dense families, collapsing at small
#: limits) and objects (sparse, UDD) side by side in every bucket.  The
#: "rows" region shares one mapping; FastDDSketch's mapping differs, so a
#: rollup over every series raises, alike on both sides.
FAMILIES = [
    (lambda: DDSketch(0.02), "rows"),
    (lambda: DDSketch(0.02, bin_limit=6), "rows"),
    (lambda: LogCollapsingLowestDenseDDSketch(0.02, bin_limit=10), "rows"),
    (lambda: LogCollapsingHighestDenseDDSketch(0.02, bin_limit=10), "rows"),
    (lambda: FastDDSketch(0.02, bin_limit=12), "fast"),
    (lambda: LogUnboundedDenseDDSketch(0.02), "rows"),
    (lambda: SparseDDSketch(0.02), "objects"),
    (lambda: UDDSketch(0.02, bin_limit=8), "objects"),
]
SERIES = [
    SeriesKey("lat", {"series": f"s{index}", "region": region})
    for index, (_, region) in enumerate(FAMILIES)
]


#: Series that may arrive in the other family of their mapping: a row's
#: entry whose stores are sparse, and an object's whose stores are windows.
SWAPS = {0: lambda: SparseDDSketch(0.02), 6: lambda: DDSketch(0.02)}


def frame_of(members, values, weights, scale=1.0, swap=False):
    """One pushed frame: each member series takes every value, scaled by
    its own factor, with fractional weights; ``swap`` sends the
    :data:`SWAPS` series in their other family."""
    entries = []
    for member in members:
        factory = SWAPS[member] if swap and member in SWAPS else FAMILIES[member][0]
        sketch = factory()
        for value, weight in zip(values, weights):
            sketch.add(value * scale * (member + 1), weight)
        entries.append((SERIES[member], sketch))
    return encode_frame(entries)


class Reference:
    """A service state whose retained buckets are ``SketchRegistry`` objects."""

    def __init__(self, retention=RETENTION):
        self.retention = retention
        self.registry = SketchRegistry()
        self.windows = {}
        self.newest = None
        self.watermarks = {}
        self.frames = 0
        self.values = 0.0

    def apply(self, host, sequence, bucket, payload):
        frame = read_frame(payload)
        destinations = [(self.registry, True)]
        window = None
        if self.retention and (self.newest is None or bucket > self.newest - self.retention):
            window = self.windows.get(bucket, SketchRegistry())
            destinations.append((window, False))
        merge_entries_into(destinations, frame)
        self.watermarks[host] = sequence
        if window is not None:
            if self.newest is None or bucket > self.newest:
                self.newest = bucket
                for old in [b for b in self.windows if b <= bucket - self.retention]:
                    del self.windows[old]
            self.windows[bucket] = window
        for count in frame.counts():
            self.values += count
        self.frames += 1

    def snapshot(self):
        """The snapshot bytes ``ServiceState.to_snapshot`` writes (version 2)."""
        merged = self.registry.to_frame()
        parts = [encode_varint(2), encode_varint(len(merged)), merged]
        parts.append(encode_zigzag(self.newest if self.newest is not None else 0))
        parts.append(encode_varint(1 if self.newest is not None else 0))
        parts.append(encode_varint(len(self.windows)))
        for bucket in sorted(self.windows):
            frame = self.windows[bucket].to_frame()
            parts += [encode_zigzag(bucket), encode_varint(len(frame)), frame]
        parts.append(encode_varint(len(self.watermarks)))
        for host in sorted(self.watermarks):
            name = host.encode("utf-8")
            parts += [encode_varint(len(name)), name, encode_varint(self.watermarks[host])]
            parts.append(encode_varint(0))
        parts += [encode_varint(self.frames), encode_varint(0), struct.pack("<d", self.values)]
        return b"".join(parts)

    def restore(self):
        """Rebuild every registry from its frame, as a snapshot restore does
        (a collapsing store's collapse flag is what its decode gives)."""
        self.registry = SketchRegistry.from_frame(self.registry.to_frame())
        self.windows = {
            bucket: SketchRegistry.from_frame(window.to_frame())
            for bucket, window in self.windows.items()
        }

    def window_registry(self, low, high):
        """Buckets ``[low, high)`` merged into one registry, oldest first."""
        merged = SketchRegistry()
        for bucket in sorted(self.windows):
            if low <= bucket < high:
                merged.merge(self.windows[bucket])
        return merged


def run(pushes, restart=None, retention=RETENTION):
    """Push ``(host, bucket, members, values, weights[, swap])`` tuples
    through a state and the reference; at push ``restart[0]`` the state is
    rebuilt from its snapshot or by replaying every envelope applied so
    far."""
    state = ServiceState(interval_length=INTERVAL, retention_intervals=retention)
    reference = Reference(retention)
    sequences = {}
    envelopes = []
    for position, (host, bucket, members, values, weights, *swap) in enumerate(pushes):
        if restart is not None and position == restart[0]:
            if restart[1] == "snapshot":
                state = ServiceState.from_snapshot(
                    state.to_snapshot(), interval_length=INTERVAL, retention_intervals=retention
                )
                reference.restore()
            else:
                state = ServiceState(interval_length=INTERVAL, retention_intervals=retention)
                for envelope in envelopes:
                    state.apply_envelope_bytes(envelope)
        sequences[host] = sequences.get(host, 0) + 1
        payload = frame_of(members, values, weights, 1.0 + bucket / 3.0, bool(swap and swap[0]))
        envelope = encode_push_envelope(
            payload, host=host, sequence=sequences[host], interval_start=INTERVAL * bucket + 0.5
        )
        envelopes.append(envelope)
        state.apply_envelope_bytes(envelope)
        reference.apply(host, sequences[host], bucket, payload)
    return state, reference


def outcome(read):
    """A read's answer as bit patterns, or the error it raises."""
    try:
        return ("answer", [struct.pack("<d", value) for value in read()])
    except Exception as error:  # both sides must fail alike
        return ("raised", type(error).__name__, str(error))


REGIONS = [None, {"region": "rows"}, {"region": "fast"}, {"region": "objects"}]

SELECTORS = [
    {},
    {"tag_filter": {"region": "rows"}},
    {"tag_filter": {"region": "objects"}},
    {"tag_filter": {"region": "nowhere"}},
    {"tags": dict(SERIES[0].tags)},
    {"tags": dict(SERIES[6].tags)},  # sparse
    {"tags": dict(SERIES[7].tags)},  # UDD
    {"tags": {"series": "s99", "region": "r0"}},
    {"metric": "unknown"},
]


def assert_same(state, reference, thresholds=(0.0, 3.0)):
    """Snapshot bytes, bucket contents, and every windowed read alike."""
    assert state.to_snapshot() == reference.snapshot()
    assert state.window_buckets() == sorted(reference.windows)
    for bucket in state.window_buckets():
        assert registry_state(state._windows[bucket]) == registry_state(reference.windows[bucket])
    buckets = state.window_buckets()
    low = (buckets[0] if buckets else 0) - 1
    high = (buckets[-1] if buckets else 0) + 2
    windows = [(start, end) for start in range(low, high) for end in range(start, high + 1)]
    windows.append((100, 101))  # an empty window past every bucket
    for start, end in windows:
        merged = reference.window_registry(start, end)
        bounds = {"window_start": INTERVAL * start, "window_end": INTERVAL * end}
        for selector in SELECTORS:
            selector = dict(selector)
            metric = selector.pop("metric", "lat")
            got = outcome(lambda: state.quantiles(metric, QUANTILES, **bounds, **selector))
            want = outcome(lambda: merged.quantiles(metric, QUANTILES, **selector))
            assert got == want, (start, end, selector)
        held = [state._windows[b] for b in buckets if start <= b < end]
        for tag_filter in REGIONS:
            keys = state.registry.series_keys("lat", tag_filter)
            assert fold_outcome(lambda: fold_series(held, keys)) == fold_outcome(
                lambda: merged.rollup("lat", tag_filter)
            ), (start, end, tag_filter)
        for quantile, threshold, above in (
            (q, t, a) for q in (0.5, 0.99) for t in thresholds for a in (True, False)
        ):
            result = state.threshold_query("lat", quantile, threshold, above=above, **bounds)
            expected = merged.threshold_query("lat", quantile, threshold, above=above)
            assert (
                result.matches, result.scanned, result.total_series, result.prune_rate
            ) == (
                expected.matches, expected.scanned, expected.total_series, expected.prune_rate
            )
            assert (
                result.matches, result.scanned, result.total_series, result.prune_rate
            ) == reference_threshold(merged, "lat", quantile, threshold, above)


def fold_outcome(fold):
    """A fold's sketch, every attribute bit for bit, or the error it raises
    (no sketch is the rollup's EmptySketchError)."""
    try:
        folded = fold()
    except EmptySketchError:
        return ("empty",)
    except Exception as error:  # both sides must fail alike
        return ("raised", type(error).__name__, str(error))
    return ("empty",) if folded is None else sketch_state(folded)


values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=-1e4, max_value=-1e-3),
)
weights = st.one_of(
    st.sampled_from([1.0, 0.3, 2.5]), st.floats(min_value=1e-2, max_value=50.0)
)
pushes = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        st.integers(0, 4),
        st.lists(
            st.integers(0, len(FAMILIES) - 1), min_size=1, max_size=len(FAMILIES), unique=True
        ),
        st.lists(values, min_size=1, max_size=5),
        st.lists(weights, min_size=5, max_size=5),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    pushes=pushes,
    restart=st.one_of(
        st.none(), st.tuples(st.integers(1, 11), st.sampled_from(["snapshot", "replay"]))
    ),
)
def test_buckets_match_registry_buckets(kernel_backend, pushes, restart):
    """Every family, both signs, the zero bucket and signed zeros,
    fractional weights; series missing from buckets, new buckets,
    evictions and late pushes into older retained buckets; a restart from
    a snapshot or a log replay in the middle."""
    state, reference = run(pushes, restart)
    assert_same(state, reference)


def _growing(count, members=(0, 1, 2, 3, 4, 5)):
    """Pushes whose values spread wider each time, so windows keep moving."""
    return [
        ("a", 0, list(members), [2.0 ** -(step % 7), 1.5 ** step, -(1.3 ** step), 0.0, -0.0],
         [0.7, 1.0, 0.3, 2.0, 1.1])
        for step in range(count)
    ]


def test_moves_compact_the_buffer(kernel_backend, monkeypatch):
    """Windows that grow on every push leave dead cells behind; the buffer
    is compacted in place (here with a floor of 8 dead cells, not 16,384,
    so small buckets compact) and every row still reads as its sketch."""
    import repro.service.buckets as buckets

    compactions = []
    compact = BucketStore._compact

    def counting(self):
        compactions.append(self.cells)
        return compact(self)

    monkeypatch.setattr(BucketStore, "_compact", counting)
    monkeypatch.setattr(buckets, "_MIN_SLACK", 8)
    state, reference = run(_growing(40))
    assert compactions
    live, dead, allocated = state._windows[0].cells
    assert dead <= max(live // buckets._DEAD_SHARE, 8) and live + dead <= allocated
    assert_same(state, reference, thresholds=(1.0, 50.0))


def test_unmergeable_entry_changes_no_bucket(kernel_backend):
    """A push whose entry a bucket row cannot merge (another mapping) is
    refused before anything changes."""
    state, _ = run([("a", 0, [0, 1, 5], [1.0, 2.0], [1.0] * 5)])
    before = state.to_snapshot()
    bad = DDSketch(0.05)
    bad.add(3.0)
    envelope = encode_push_envelope(
        encode_frame([(SERIES[1], DDSketch(0.02)), (SERIES[0], bad)]), host="a", sequence=2,
        interval_start=0.5,
    )
    with pytest.raises(Exception) as raised:
        state.apply_envelope_bytes(envelope)
    assert type(raised.value).__name__ == "UnequalSketchParametersError"
    assert state.to_snapshot() == before


def test_loose_pairs_merge_entry_by_entry(kernel_backend):
    """(series, sketch) pairs whose sketches the state holds read them as
    the per-entry loop does: after the writes before them."""
    from repro.service.protocol import PushEnvelope

    state, _ = run([("a", 0, [0, 1], [1.0, 4.0], [1.0] * 5)])
    held = state.registry.get(SERIES[0])
    entries = [(SERIES[1], held), (SERIES[0], state.registry.get(SERIES[1]))]
    twin, _ = run([("a", 0, [0, 1], [1.0, 4.0], [1.0] * 5)])
    state.apply(PushEnvelope("a", 2, 0.5, b""), entries)
    for key, sketch in [(SERIES[1], twin.registry.get(SERIES[0])),
                        (SERIES[0], twin.registry.get(SERIES[1]))]:
        twin.registry.merge_series(key, sketch)
        twin._windows[0].merge(read_frame(encode_frame([(key, sketch)])))
    assert registry_state(state.registry) == registry_state(twin.registry)
    assert registry_state(state._windows[0]) == registry_state(twin._windows[0])


def test_a_bucket_round_trips_its_frame(kernel_backend):
    """A bucket rebuilt from its frame holds what a registry decodes from
    it (the windows a decode fits), and writes the same frame."""
    state, _ = run(_growing(6, members=range(len(FAMILIES))))
    payload = state._windows[0].to_frame()
    again = BucketStore.from_frame(payload)
    assert registry_state(again) == registry_state(SketchRegistry.from_frame(payload))
    assert again.to_frame() == payload
    assert len(again) == len(FAMILIES)


@pytest.fixture
def native():
    require_native_kernel()
    before = kernel.active_backend()
    kernel.set_backend("native")
    yield
    kernel.set_backend(before)


def test_fold_scalars_follow_the_copy_first_loop(native):
    """Heads always taken, later rows only with a count not <= 0 (NaN is
    taken), groups merged only with a count > 0, min and max by strict
    comparison in the loop's order (signed zeros and ties)."""
    rows = [
        # count, zero, sum, min, max
        (2.0, 0.5, 3.0, 0.0, 4.0),
        (0.0, 0.0, 0.0, -1.0, 9.0),  # count 0: not taken
        (1.5, 0.0, 0.1, -0.0, 4.0),  # -0.0 < 0.0 is false
        (0.0, 0.0, 0.0, np.inf, -np.inf),  # head of a group without weight
        (-1.0, 0.0, 5.0, -5.0, 5.0),
        (0.3, 0.2, -0.4, -2.0, 1.0),
        (np.nan, 0.0, 0.0, -3.0, 3.0),
    ]
    scalars = np.array(rows)
    ends = [3, 5, 7]
    take, merged, total = kernel.fold_scalars(ends, scalars)

    def loop():
        takes, merges, result, begin = [], [], None, 0
        for end in ends:
            count, zero, total_sum, low, high = rows[begin]
            takes.append(True)
            for weight, zeros, added, small, big in rows[begin + 1 : end]:
                takes.append(not weight <= 0)
                if weight <= 0:
                    continue
                count += weight
                zero += zeros
                total_sum += added
                low = small if small < low else low
                high = big if big > high else high
            if result is None:
                result = [count, zero, total_sum, low, high]
            elif count > 0:
                result = [result[0] + count, result[1] + zero, result[2] + total_sum,
                          low if low < result[3] else result[3],
                          high if high > result[4] else result[4]]
            merges.append(count > 0)
            begin = end
        return takes, merges, result

    takes, merges, result = loop()
    assert take.tolist() == takes and merged.tolist() == merges
    assert [struct.pack("<d", value) for value in total] == [
        struct.pack("<d", value) for value in result
    ]
    with pytest.raises(ValueError):
        kernel.fold_scalars([2, 7], scalars[:, :4])
    with pytest.raises(ValueError):
        kernel.fold_scalars([3, 3, 7], scalars)


def test_row_passes_check_what_they_address(native):
    """The row passes write and read through addresses inside buffers, so
    their wrappers refuse rows, windows and arrays they cannot address;
    the merge pass adds in place, appends a moved window at the tail, and
    reports the room a crowded one needs."""
    def store(first, size=4):  # a plain store of chunk 4 at key 0, 2 cells used
        return [0, 0, 4, first, size, 2, 0, 4]

    def setup():
        columns = np.zeros((2, 2, 8), dtype=np.int64)
        columns[0, 0], columns[1, 0] = store(0), store(4)
        counts = np.zeros((2, 7))
        counts[:, 5] = 3.0
        cells = np.zeros(16)
        cells[[0, 1, 4, 5]] = [1.0, 2.0, 1.0, 2.0]
        return columns, counts, cells, np.array([8, 0])

    sources = np.array([[1, 0, 2], [6, 0, 2]])  # keys 1-2 (stays), keys 6-7 (grows)
    source_cells = np.array([0.5, 4.0])
    args = (np.array([0, 1]), np.zeros(2, dtype=np.int64), sources, np.array([4.5, 4.5]),
            source_cells, np.zeros(16))
    columns, counts, cells, tail = setup()
    for bad_columns, message in (
        (columns.astype(np.int32), "contiguous"), (columns[:, :, :7].copy(), "two stores"),
    ):
        with pytest.raises(ValueError, match=message):
            kernel.merge_rows(bad_columns, counts, 5, cells, tail, *args)
    for rows, signs in (([0, 2], [0, 0]), ([0, -1], [0, 0]), ([0, 1], [0, 2])):
        with pytest.raises(ValueError, match="names no"):
            kernel.merge_rows(columns, counts, 5, cells, tail, np.array(rows), np.array(signs),
                              *args[2:])
    with pytest.raises(ValueError, match="outside the cells in use"):
        kernel.merge_rows(columns, counts, 5, cells, np.array([6, 0]), *args)
    with pytest.raises(ValueError, match="source window"):
        kernel.merge_rows(columns, counts, 5, cells, tail, *args[:2], sources + [0, 1, 0],
                          *args[3:])
    read_only = cells.copy()
    read_only.flags.writeable = False
    with pytest.raises(ValueError, match="writable"):
        kernel.merge_rows(columns, counts, 5, read_only, tail, *args)
    # Row 0's window stays: the source adds in place, one cell made
    # positive.  Row 1's grows up by a chunk: built in scratch, appended.
    left = kernel.merge_rows(columns, counts, 5, cells, tail, *args)
    assert left.tolist() == [0, 0] and tail.tolist() == [16, 4]
    assert cells.tolist() == [1.0, 2.5, 4.0, 0.0, 1.0, 2.0, 0.0, 0.0,
                              1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.5, 4.0]
    assert columns[0, 0].tolist() == [0, 0, 4, 0, 4, 3, 0, 4]
    assert columns[1, 0].tolist() == [0, 0, 4, 8, 8, 4, 0, 4]
    assert counts[:, 5].tolist() == [7.5, 7.5]
    # No room at the tail for a moved window: nothing changes, the need is told.
    columns, counts, cells, tail = setup()
    left = kernel.merge_rows(columns, counts, 5, cells[:8].copy(), np.array([8, 0]), *args)
    assert left.tolist()[1] == -8 and counts[1, 5] == 3.0 and columns[1, 0].tolist() == store(4)
    # A fold over windows in two buffers: [0.5, 1.0] at cell 2 of the
    # first (a plain store of chunk 4 at key 0), then 5.0 at key 1.
    buffer = np.array([0.0, 0.0, 0.5, 1.0])
    heads = [0, 4, 2, 0, 1]
    rows = np.array([[0, 0, 2, 2], [1, 1, 0, 1]], dtype=np.int64)
    folded = kernel.fold_rows([2], heads, rows, [buffer, np.array([5.0])], [1.5, 5.0], 16, 0)
    bins, offset, positive, collapsed, count = folded
    assert (bins.tolist(), offset, positive, collapsed, count) == ([0.5, 6.0], 0, 2, False, 6.5)
    for bad in ([[0, 2, 0, 1]], [[0, 1, 1, 1]], [[0, 0, 3, 2]]):
        with pytest.raises(ValueError):
            kernel.fold_rows(
                [2], heads, np.concatenate([rows[:1], bad]), [buffer, np.array([5.0])],
                [1.5, 5.0], 16, 0,
            )
    # The frame encoder reads windows at their first cell, unchecked natively.
    window = [0, 0, 0, 1, 0, 2, 4]  # a dense window of 4 cells from cell 2 of 4
    with pytest.raises(ValueError, match="outside"):
        kernel.encode_frame_columns(
            b"k", np.array([1]), np.zeros((1, 2), dtype=np.int64), np.zeros((1, 8)),
            np.array(window + [0, 0, 0, 1, 0, 0, 0]), buffer, np.zeros(0, dtype=np.int64),
            np.zeros(0),
        )


def test_rows_fold_like_their_sketches(kernel_backend):
    """fold_series over rows equals BaseDDSketch.fold over the sketches the
    rows build, for every family and for one bucket or several."""
    state, _ = run(_growing(5) + [("b", 1, [0, 2, 4, 5], [3.0, -7.0, 0.0], [0.5] * 5)])
    for held in ([state._windows[0]], [state._windows[0], state._windows[1]]):
        keys = [SERIES[index] for index in (0, 1, 2, 3, 5)]  # one mapping
        groups = []
        for key in keys:
            group = [dict(bucket)[key] for bucket in held if key in dict(bucket)]
            if group:
                groups.append(group)
        assert sketch_state(fold_series(held, keys)) == sketch_state(BaseDDSketch.fold(groups))
    assert fold_series([state._windows[0]], [SeriesKey("absent")]) is None
    assert fold_series([], SERIES) is None
