"""Folding a decoded frame against folding its built entries one by one.

A bulk merge of a :class:`~repro.serialization.frame.DecodedFrame`
(:func:`repro.registry.merge_entries_into`) folds an entry into a series
already stored straight from the frame's decoded columns, reading each
dense store's window in place, and builds a sketch only for a new series,
a pair the one-pass kernel declines, a store family without a dense window
or a :class:`~repro.core.UDDSketch`.  Under both kernel backends the result
must be, bit for bit on every sketch and store attribute, what the per-pair
loop gives::

    for key, sketch in decode_frame(payload):
        for registry, copy in destinations:
            registry.merge_series(key, sketch, copy=copy)

and an entry that cannot merge, or a frame naming one series twice, must
leave every registry and the service's dedup table as they were.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import DDSketch, LogUnboundedDenseDDSketch, SparseDDSketch, UDDSketch
from repro.exceptions import (
    DeserializationError,
    IllegalArgumentError,
    UnequalSketchParametersError,
)
from repro.registry import SeriesKey, SketchRegistry, check_entries, merge_entries_into
from repro.serialization.frame import FRAME_CHUNK_SERIES, decode_frame, encode_frame, read_frame
from repro.service.protocol import decode_push_envelope, encode_push_envelope
from repro.service.state import ServiceState

from test_store_merge_matrix import BACKENDS, backend, kernel_results, registry_state

#: Families whose sketches share ``LogarithmicMapping(0.02)``, so any of them
#: merges into any other: the store pairs cross every dense and sparse type.
SHARED_MAPPING = {
    "dense": lambda: LogUnboundedDenseDDSketch(0.02),
    "sparse": lambda: SparseDDSketch(0.02),
    # A 12-bin limit collapses the positive store's low tail and the
    # negative store's high tail on most series.
    "collapsing": lambda: DDSketch(0.02, bin_limit=12),
    "wide_collapsing": lambda: DDSketch(0.02),
}

#: One lineage: 6 decades of magnitudes make a 16-bin UDDSketch collapse up
#: to 5 times, so a series and its entry often differ in collapse count.
UDD = lambda: UDDSketch(0.02, bin_limit=16)  # noqa: E731

values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-2, max_value=1e4),
    st.floats(min_value=-1e4, max_value=-1e-2),
)
weights = st.one_of(
    st.sampled_from([0.25, 1.0, 2.5]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
)
contents = st.lists(st.tuples(values, weights), max_size=10)

#: A sketch: its family and contents.  No contents is an empty entry.
shared_sketches = st.tuples(st.sampled_from(sorted(SHARED_MAPPING)), contents)
udd_sketches = st.tuples(st.just("udd"), contents)

#: What a series' stored sketch in a destination has been through: nothing
#: (kept), weight removed until a store empties (its window stays allocated
#: and the next merge re-anchors it), or a 2**53 round trip that drifts a
#: store's running count to 0 while a bin keeps weight.
histories = st.sampled_from(["keep", "drained", "drift"])

#: One series: its entry in the frame, then for each of the two
#: destinations either ``None`` (a new series there) or its stored sketch.
#: Entry and stored sketches share a mapping or one UDDSketch lineage, so
#: every entry merges.
shared_series = st.tuples(
    shared_sketches,
    st.one_of(st.none(), st.tuples(shared_sketches, histories)),
    st.one_of(st.none(), st.tuples(shared_sketches, histories)),
)
udd_series = st.tuples(
    udd_sketches,
    st.one_of(st.none(), st.tuples(udd_sketches, histories)),
    st.one_of(st.none(), st.tuples(udd_sketches, histories)),
)
frames = st.lists(st.one_of(shared_series, udd_series), max_size=14)


def build_sketch(spec):
    family, items = spec
    sketch = UDD() if family == "udd" else SHARED_MAPPING[family]()
    for value, weight in items:
        sketch.add(value, weight)
    return sketch


def stored_sketch(spec):
    sketch_spec, history = spec
    sketch = build_sketch(sketch_spec)
    store = sketch.store
    if history == "drained":
        for bucket in list(store):
            store.remove(bucket.key, bucket.count)
    elif history == "drift" and hasattr(store, "_bins"):
        key = store.min_key if not store.is_empty else 0
        store.add(key, 2.0**53)
        store.add(key + 1, 1.0)  # 2**53 + 1 rounds back to 2**53 in the count
        store.remove(key, 2.0**53)
    return sketch


def key_of(index):
    return SeriesKey("fold.latency", {"series": str(index)})


def destinations(series):
    """Two registries holding the stored side of ``series``: the first
    copies new series, the second adopts them (as ServiceState's all-time
    registry and window bucket do)."""
    registries = [SketchRegistry(), SketchRegistry()]
    for index, (_, *stored) in enumerate(series):
        for registry, spec in zip(registries, stored):
            if spec is not None:
                registry.merge_series(key_of(index), stored_sketch(spec), copy=False)
    return registries


def fold_both_ways(series):
    """(registries after the decoded fold, registries after the per-pair loop)."""
    payload = encode_frame(
        [(key_of(index), build_sketch(entry)) for index, (entry, *_) in enumerate(series)]
    )
    actual = destinations(series)
    expected = destinations(series)
    merge_entries_into([(actual[0], True), (actual[1], False)], read_frame(payload))
    for key, sketch in decode_frame(payload):
        expected[0].merge_series(key, sketch, copy=True)
        expected[1].merge_series(key, sketch, copy=False)
    return actual, expected


def assert_no_store_adopted_decoded_cells(registry):
    """Every stored window owns its bins: no store adopted a decoded chunk's cells."""
    for _, sketch in registry:
        for store in (sketch.store, sketch.negative_store):
            bins = getattr(store, "_bins", None)
            if isinstance(bins, np.ndarray):
                assert bins.flags.owndata and bins.base is None


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(series=frames)
def test_decoded_fold_matches_the_per_pair_loop(backend_name, series):
    with backend(backend_name):
        actual, expected = fold_both_ways(series)
    for got, want in zip(actual, expected):
        assert registry_state(got) == registry_state(want)
        assert_no_store_adopted_decoded_cells(got)


def _random_series(rng, count):
    """``count`` series of the shared families: new, stored in one
    destination or both, with entries that mostly fit their stored windows
    and sometimes reach past them (declined pairs)."""
    names = sorted(SHARED_MAPPING)
    series = []
    for _ in range(count):
        def sketch(spread):
            size = int(rng.integers(0, 6))
            items = [
                (float(value), float(weight))
                for value, weight in zip(
                    rng.lognormal(0.0, spread, size) * rng.choice([-1.0, 1.0, 1.0, 1.0], size),
                    rng.uniform(0.1, 3.0, size),
                )
            ]
            return (names[int(rng.integers(len(names)))], items)

        histories = ["keep", "keep", "drained", "drift"]
        stored = [
            None if rng.random() < 0.25 else (sketch(1.0), histories[int(rng.integers(4))])
            for _ in range(2)
        ]
        series.append((sketch(float(rng.choice([0.5, 1.0, 3.0]))), *stored))
    return series


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_frames_over_one_chunk(backend_name, seed):
    """More than one native decode chunk: every window is read from its own
    chunk's cells, in one merge pass, and some pairs are declined."""
    series = _random_series(np.random.default_rng(seed), FRAME_CHUNK_SERIES + 300)
    with backend(backend_name), kernel_results() as results:
        actual, expected = fold_both_ways(series)
    for got, want in zip(actual, expected):
        assert registry_state(got) == registry_state(want)
        assert_no_store_adopted_decoded_cells(got)
    if backend_name == "native":
        assert any(added < 0 for added in results) and any(added >= 0 for added in results)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_folds_build_sketches_only_where_needed(backend_name, monkeypatch):
    """Existing series whose stores are dense windows build nothing; new
    series build their entry once for both destinations."""
    from repro.serialization import frame as frame_codec

    built = []
    original = frame_codec.DecodedFrame._build

    def counting_build(self, index):
        built.append(index)
        return original(self, index)

    monkeypatch.setattr(frame_codec.DecodedFrame, "_build", counting_build)
    entries = [(key_of(index), DDSketch(0.02)) for index in range(6)]
    for index, (_, sketch) in enumerate(entries):
        sketch.add(1.0 + index)
    payload = encode_frame(entries)
    with backend(backend_name):
        registries = [SketchRegistry(), SketchRegistry()]
        for registry in registries:
            registry.merge_frame(encode_frame(entries[:4]))
        built.clear()
        merge_entries_into([(registries[0], True), (registries[1], False)], read_frame(payload))
    assert sorted(built) == ([4, 5] if backend_name == "native" else [])
    assert all(registry.total_count() == 6 + 4 for registry in registries)


def _state_fingerprint(state):
    return (
        state.to_snapshot(),
        [registry_state(state._windows[bucket]) for bucket in state.window_buckets()],
        registry_state(state.registry),
    )


def _envelope(entries, sequence, interval=0.0):
    return decode_push_envelope(
        encode_push_envelope(
            encode_frame(entries), host="h", sequence=sequence, interval_start=interval
        )
    )


@pytest.mark.parametrize("target", ["plain", "udd"])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_an_unmergeable_entry_changes_nothing(backend_name, target):
    """One entry a stored series cannot merge, after 1,100 that could:
    apply refuses the whole push, and neither registry nor the dedup table
    changes."""
    factory = (lambda: DDSketch(0.02)) if target == "plain" else UDD
    series = [key_of(index) for index in range(FRAME_CHUNK_SERIES + 76)]

    def entries(scale):
        out = []
        for index, key in enumerate(series):
            sketch = factory()
            sketch.add(scale * (1.0 + index % 97))
            out.append((key, sketch))
        return out

    with backend(backend_name):
        state = ServiceState(retention_intervals=4)
        state.apply(_envelope(entries(1.0), sequence=1))
        before = _state_fingerprint(state)
        bad = entries(2.0)
        bad[-1] = (bad[-1][0], DDSketch(0.01))  # another mapping
        envelope = _envelope(bad, sequence=2)
        with pytest.raises(UnequalSketchParametersError):
            state.check_entries(envelope, read_frame(envelope.frame))
        with pytest.raises(UnequalSketchParametersError):
            state.apply(envelope, read_frame(envelope.frame))
        with pytest.raises(UnequalSketchParametersError):
            state.apply(envelope)
        assert _state_fingerprint(state) == before
        assert not state.is_duplicate("h", 2)
        assert state.frames_applied == 1
        # The same frame without the bad entry applies.
        assert state.apply(_envelope(entries(2.0), sequence=2)) == len(series)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_repeated_series_changes_nothing(backend_name):
    with backend(backend_name):
        state = ServiceState(retention_intervals=4)
        first = DDSketch(0.02)
        first.add(3.0)
        state.apply(_envelope([(key_of(0), first)], sequence=1))
        before = _state_fingerprint(state)
        repeated = [(key_of(1), DDSketch(0.02)), (key_of(0), first), (key_of(1), first)]
        envelope = _envelope(repeated, sequence=2)
        with pytest.raises(DeserializationError, match="duplicate series"):
            state.apply(envelope)
        with pytest.raises(IllegalArgumentError, match="one series twice"):
            state.apply(envelope, repeated)
        with pytest.raises(IllegalArgumentError, match="one series twice"):
            check_entries([state.registry], repeated)
        assert _state_fingerprint(state) == before
        assert not state.is_duplicate("h", 2)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_apply_takes_frames_and_pairs_alike(backend_name):
    """A push applied from its decoded frame, from its built entries and by
    decoding inside ``apply`` lands on the same bytes, window buckets
    included."""
    series = _random_series(np.random.default_rng(9), 300)
    families = [build_sketch(entry) for entry, *_ in series]
    pushes = []
    for push in range(6):
        entries = []
        for index, sketch in enumerate(families):
            extra = sketch.copy()
            extra.add(float(1 + (index * 7 + push) % 50), 0.5 + push)
            entries.append((key_of(index), extra))
        pushes.append(_envelope(entries, sequence=push + 1, interval=float(push // 2)))
    with backend(backend_name):
        states = [ServiceState(retention_intervals=2) for _ in range(3)]
        for envelope in pushes:
            states[0].apply(envelope, read_frame(envelope.frame))
            states[1].apply(envelope, decode_frame(envelope.frame))
            states[2].apply(envelope)
    fingerprints = [_state_fingerprint(state) for state in states]
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]
