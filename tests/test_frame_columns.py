"""Cross-backend differential suite for the frame codec.

Under the native kernel, :func:`~repro.serialization.frame.encode_frame` and
:func:`~repro.serialization.frame.decode_frame` code a whole frame in one
columnar pass (:func:`repro.kernel.encode_frame_columns` /
:func:`repro.kernel.decode_frame_columns`); under the NumPy kernel they run
the per-sketch loop, which is the oracle.  For Hypothesis-generated
registries over every store family (dense, sparse, both tail-collapsing
stores, UDDSketch mid-collapse), with empty sketches, negative and zero
values, fractional weights, untagged series and unsorted tag input, this
suite asserts that

* frame and snapshot bytes are identical under both backends;
* decoded entries are identical field by field: the key, the sketch class
  and mapping, each store's window, bins and counters, and the sketch
  summaries;
* every malformed frame of the ``tests/test_frame_codec.py`` and
  ``tests/test_codec_fuzz.py`` corpora raises the same exception type and
  message under both backends.

The module skips when the native backend cannot be compiled on this host.
"""

from __future__ import annotations

import contextlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DDSketch,
    FastDDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
    UDDSketch,
    kernel,
)
from repro.core import BaseDDSketch
from repro.exceptions import ReproError
from repro.registry import SeriesKey
from repro.serialization.encoding import encode_float, encode_varint, encode_zigzag
from repro.serialization.frame import (
    MAX_DECOMPRESSED_FRAME_BYTES,
    decode_frame,
    encode_frame,
    zstd_available,
)
from repro.service.protocol import encode_push_envelope
from repro.service.state import ServiceState

from _kernel_testkit import require_native_kernel
from test_codec_fuzz import _FRAME, _PAYLOAD, _ZFRAME, _envelope
from test_frame_codec import build_frame


@pytest.fixture(autouse=True)
def _native_kernel():
    """Every test here needs the native kernel: skip without one, fail on a
    kernel that failed its self-test."""
    require_native_kernel()


FAMILIES = {
    "dense": lambda: LogUnboundedDenseDDSketch(0.02),
    "sparse": lambda: SparseDDSketch(0.02),
    # A 12-bin limit collapses the positive store's low tail and the
    # negative store's high tail on almost every generated series.
    "collapsing": lambda: DDSketch(0.02, bin_limit=12),
    "default": lambda: DDSketch(),
    "cubic": lambda: FastDDSketch(0.02, bin_limit=64),
    "udd": lambda: UDDSketch(0.02, bin_limit=16),
}


@contextlib.contextmanager
def backend(name):
    before = kernel.active_backend()
    kernel.set_backend(name)
    try:
        yield
    finally:
        kernel.set_backend(before)


def outcome(function, *args, **kwargs):
    """``("ok", result)`` or ``("error", exception type, message)``."""
    try:
        return ("ok", function(*args, **kwargs))
    except Exception as error:  # the comparison is the point: any type
        return ("error", type(error), str(error))


def under_both(function, *args, **kwargs):
    results = []
    for name in ("numpy", "native"):
        with backend(name):
            results.append(outcome(function, *args, **kwargs))
    return results


def state_of(value):
    """Every field of ``value``, recursively, in a form ``==`` compares exactly.

    Floats compare by bit pattern (so ``-0.0`` and NaN payloads count) and
    every scalar keeps its type, so ``True`` never equals ``1``.
    """
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return (type(value).__name__, struct.pack("<d", value))
    if isinstance(value, (bool, int, str, bytes, type(None))):
        return (type(value).__name__, value)
    if isinstance(value, dict):
        return {key: state_of(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [state_of(item) for item in value]
    return (type(value).__name__, state_of(vars(value)))


def assert_same_entries(expected, actual):
    assert [key for key, _ in actual] == [key for key, _ in expected]
    for (key, want), (got_key, got) in zip(expected, actual):
        assert got_key.wire_bytes == key.wire_bytes
        assert state_of(got) == state_of(want)


# ----------------------------------------------------------------------- #
# Generated registries
# ----------------------------------------------------------------------- #

_names = st.text(alphabet="abcxyz.é/-_ ☃", min_size=1, max_size=8)
_tags = st.lists(
    st.tuples(_names, st.text(alphabet="ab1 é", max_size=5)),
    max_size=3,
    unique_by=lambda pair: pair[0],
)
_magnitudes = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
_values = st.lists(
    st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda value: -value)),
    max_size=40,
)
# Per-value fractional weights: a store's count total then depends on the
# summation order, which the columnar pass must reproduce exactly.
_weights = st.one_of(
    st.none(),
    st.lists(
        st.floats(min_value=0.1, max_value=7.0, allow_nan=False, allow_infinity=False),
        min_size=40,
        max_size=40,
    ),
)
_series = st.tuples(st.sampled_from(sorted(FAMILIES)), _names, _tags, _values, _weights)


def build_entries(specs):
    """``(SeriesKey, sketch)`` pairs from generated specs (duplicates dropped)."""
    entries = {}
    for family, metric, tags, values, weights in specs:
        # Tags go in unsorted; the key normalizes them.
        key = SeriesKey(metric, tuple(reversed(tags)))
        sketch = FAMILIES[family]()
        if values:
            if weights is not None:
                weights = np.asarray(weights[: len(values)])
            sketch.add_batch(np.asarray(values, dtype=np.float64), weights)
        entries.setdefault(key, sketch)
    return sorted(entries.items(), key=lambda pair: pair[0].sort_key())


_entries = st.lists(_series, max_size=12).map(build_entries)


class TestGeneratedFrames:
    @settings(max_examples=80, deadline=None)
    @given(entries=_entries)
    def test_frame_bytes_match_the_oracle(self, entries):
        (numpy_kind, numpy_frame), (native_kind, native_frame) = under_both(
            encode_frame, entries
        )
        assert numpy_kind == native_kind == "ok"
        assert native_frame == numpy_frame

    @settings(max_examples=80, deadline=None)
    @given(entries=_entries)
    def test_decoded_entries_match_the_oracle(self, entries):
        frame = encode_frame(entries)
        (numpy_kind, expected), (native_kind, actual) = under_both(decode_frame, frame)
        assert numpy_kind == native_kind == "ok"
        assert_same_entries(expected, actual)
        # Decoding is the inverse of encoding.
        with backend("native"):
            assert encode_frame(actual) == frame

    @settings(max_examples=40, deadline=None)
    @given(entries=_entries, interval=st.integers(0, 6))
    def test_snapshot_bytes_match_the_oracle(self, entries, interval):
        snapshots = []
        for name in ("numpy", "native"):
            with backend(name):
                state = ServiceState(retention_intervals=3)
                for sequence, start in enumerate((0, interval, interval + 1), start=1):
                    state.apply_envelope_bytes(
                        encode_push_envelope(
                            encode_frame(entries), host="h", sequence=sequence,
                            interval_start=float(start),
                        )
                    )
                snapshot = state.to_snapshot()
                restored = ServiceState.from_snapshot(snapshot, retention_intervals=3)
                assert restored.to_snapshot() == snapshot
                snapshots.append((snapshot, restored))
        (numpy_snapshot, numpy_state), (native_snapshot, native_state) = snapshots
        assert native_snapshot == numpy_snapshot
        assert native_state.window_buckets() == numpy_state.window_buckets()
        assert_same_entries(list(numpy_state.registry), list(native_state.registry))


class TestSummationOrder:
    def test_store_totals_follow_numpy_pairwise_summation(self):
        """Stores of 1 to 300 buckets with irregular weights: their count
        totals depend on NumPy's pairwise order, block sizes included."""
        rng = np.random.default_rng(20261017)
        entries = []
        for size in (1, 7, 8, 9, 16, 127, 128, 129, 136, 257, 300):
            sketch = LogUnboundedDenseDDSketch(0.01)
            values = 1.0205 ** np.arange(size) * 1.01
            sketch.add_batch(values, rng.random(size) * 3.0 + 0.1)
            entries.append((SeriesKey("order", {"size": str(size)}), sketch))
        (_, expected), (_, actual) = under_both(decode_frame, encode_frame(entries))
        assert_same_entries(expected, actual)
        assert {sketch.store.count for _, sketch in actual} == {
            sketch.store.count for _, sketch in entries
        }


class TestDecodedObjects:
    def test_every_decode_returns_fresh_owned_sketches(self):
        registry = build_frame(seed=7, num_series=5)
        frame = registry.to_frame()
        with backend("native"):
            first = decode_frame(frame)
            second = decode_frame(frame)
        for (_, one), (_, other) in zip(first, second):
            assert one is not other
            pairs = ((one.store, other.store), (one.negative_store, other.negative_store))
            for store, twin in pairs:
                assert store is not twin
                # Each store owns its bins: no view of a shared buffer.
                assert store._bins.base is None
                assert not np.shares_memory(store._bins, twin._bins)
        # Mutating one decoded sketch leaves the other untouched.
        before = second[0][1].to_bytes()
        first[0][1].add(123.0)
        assert second[0][1].to_bytes() == before

    def test_interned_keys_equal_parsed_keys(self):
        frame = build_frame(seed=8, num_series=4).to_frame()
        with backend("native"):
            warm = decode_frame(frame)
            again = decode_frame(frame)
        with backend("numpy"):
            parsed = decode_frame(frame)
        assert [key for key, _ in again] == [key for key, _ in parsed]
        assert [key for key, _ in again] == [key for key, _ in warm]

    def test_rejected_push_leaves_the_intern_table_bounded(self, tmp_path):
        """Keys are interned while a push decodes, before the server checks
        its sequence; the table's byte cap bounds what a rejected push with
        large keys leaves behind."""
        import repro.serialization.frame as frame_codec
        from repro.service import ServiceClient, serve_in_thread

        sketch = DDSketch(0.02)
        sketch.add(1.0)
        # 200 keys of ~60 KiB each: ~12 MB of key bytes, past the 8 MiB cap.
        entries = [(SeriesKey(f"{index:03d}" + "m" * 60_000), sketch) for index in range(200)]
        envelope = bytearray(
            encode_push_envelope(encode_frame(entries), host="h", sequence=1)
        )
        # Magic, version, host length, host, then the sequence: make it 0,
        # which the server refuses only after decoding the frame.
        assert envelope[5] == 1
        envelope[5] = 0
        with backend("native"), serve_in_thread(data_dir=tmp_path) as handle:
            with ServiceClient(*handle.address, retries=0) as client:
                with pytest.raises(ReproError, match="sequence"):
                    client.push_envelope(bytes(envelope))
                assert client.stats()["frames_applied"] == 0
        interned = frame_codec._interned_keys
        assert 0 < len(interned) < len(entries)
        assert sum(map(len, interned)) <= frame_codec.KEY_INTERN_BYTES


# ----------------------------------------------------------------------- #
# Malformed corpora
# ----------------------------------------------------------------------- #

_KEY = SeriesKey("m", {"k": "v"})


def _frame_of(*sketch_payloads, keys=None):
    keys = keys or [SeriesKey(f"m{index}") for index in range(len(sketch_payloads))]
    body = b"".join(
        key.wire_bytes + encode_varint(len(payload)) + payload
        for key, payload in zip(keys, sketch_payloads)
    )
    return b"DD" + encode_varint(3) + encode_varint(len(sketch_payloads)) + body


def _sketch_payload(
    store_code=2, pairs=((10, 1.0), (20, 1.0)), version=2, mapping_code=0,
    accuracy=0.02, offset=0.0, collapses=0, initial=0.02, bin_limit=0,
    negative_code=3, summary=(0.0, 2.0, 3.0, 1.0, 2.0), store_collapses=0,
):
    """A hand-built sketch payload; every field can be made malformed."""

    def store(code, buckets):
        out = encode_varint(code) + encode_varint(bin_limit)
        if code == 4 and version >= 2:
            out += encode_varint(store_collapses)
        out += encode_varint(len(buckets))
        previous = 0
        for key, count in buckets:
            out += encode_zigzag(key - previous) + encode_float(count)
            previous = key
        return out

    out = b"DD" + encode_varint(version) + encode_varint(mapping_code)
    out += encode_float(accuracy) + encode_float(offset)
    if version >= 2:
        out += encode_varint(collapses) + encode_float(initial)
    out += b"".join(encode_float(value) for value in summary)
    return out + store(store_code, pairs) + store(negative_code, ())


def _header_corpus():
    """The hardening cases of ``tests/test_frame_codec.py``."""
    sketch = DDSketch()
    sketch.add(1.0)
    entry = encode_frame([(SeriesKey("m"), sketch)])[4:]
    cases = {
        "wrong magic": b"XX\x03\x00",
        "wrong version": b"DD" + encode_varint(2) + encode_varint(0),
        "absurd series count": b"DD" + encode_varint(3) + encode_varint(10**9),
        "absurd string length": b"DD" + encode_varint(3) + encode_varint(1)
        + encode_varint(1 << 40),
        "duplicate series": b"DD" + encode_varint(3) + encode_varint(2) + entry + entry,
        "trailing bytes": build_frame(seed=3, num_series=2).to_frame() + b"\x00",
        "empty metric": _frame_of(_sketch_payload(), keys=[_Raw(b"\x00\x00")]),
        "invalid utf-8": _frame_of(_sketch_payload(), keys=[_Raw(b"\x02\xff\xfe\x00")]),
        "duplicate tag key": _frame_of(
            _sketch_payload(), keys=[_Raw(b"\x01m\x02\x01a\x01x\x01a\x01y")]
        ),
        "unsorted tags": _frame_of(
            _sketch_payload(), keys=[_Raw(b"\x01m\x02\x01b\x01x\x01a\x01y")]
        ),
        "absurd tag count": _frame_of(_sketch_payload(), keys=[_Raw(b"\x01m\xff\x7f")]),
        "long string": _frame_of(
            _sketch_payload(), keys=[_Raw(encode_varint(70000) + b"m" * 70000 + b"\x00")]
        ),
    }
    frame = build_frame(seed=4, num_series=3).to_frame()
    for cut in range(len(frame)):
        cases[f"truncated at {cut}"] = frame[:cut]
    frame = build_frame(seed=5, num_series=2).to_frame()
    for position in range(len(frame)):
        bits = range(8) if position < 160 else (position % 8,)
        for bit in bits:
            mutated = bytearray(frame)
            mutated[position] ^= 1 << bit
            cases[f"bit {bit} of byte {position} flipped"] = bytes(mutated)
    rng = np.random.default_rng(20261017)
    for index in range(150):
        junk = rng.integers(0, 256, int(rng.integers(0, 400)), dtype=np.uint8).tobytes()
        cases[f"random bytes {index}"] = b"DD" + junk
    return cases


class _Raw:
    """Raw series-key bytes standing in for a key (to forge bad ones)."""

    def __init__(self, wire_bytes):
        self.wire_bytes = wire_bytes


def _sketch_corpus():
    """The per-sketch cases of ``tests/test_codec_fuzz.py``, inside frames,
    plus the edges the columnar pass hands to the per-sketch loop."""
    header_end = 2 + 3 + 8 * 8  # the fuzz suite's _FIRST_STORE_OFFSET
    uniform_frame = encode_frame(
        [(SeriesKey("u"), UDDSketch(0.02, bin_limit=64).add_batch(np.logspace(-3, 4, 500)))]
    )
    cases = {
        "absurd bucket count": _PAYLOAD[:header_end] + encode_varint(0) + encode_varint(0)
        + encode_varint(10**18) + b"\x00" * 64,
        "absurd key span": _PAYLOAD[:header_end] + encode_varint(0) + encode_varint(0)
        + encode_varint(2) + encode_zigzag(0) + encode_float(1.0)
        + encode_zigzag(1 << 40) + encode_float(1.0),
        "trailing garbage": _PAYLOAD + b"\x00",
        "huge collapse count": _PAYLOAD[:20] + encode_varint(2**60) + _PAYLOAD[21:],
        "fuzz payload": _PAYLOAD,
        "version 1": _sketch_payload(version=1),
        "version 1 uniform": _sketch_payload(version=1, store_code=4, negative_code=4),
        "version 3": _sketch_payload(version=3),
        "unknown mapping": _sketch_payload(mapping_code=9),
        "accuracy above one": _sketch_payload(accuracy=1.5),
        "accuracy NaN": _sketch_payload(accuracy=float("nan")),
        "negative zero offset": _sketch_payload(offset=-0.0),
        "NaN offset": _sketch_payload(offset=float("nan")),
        "initial accuracy zero": _sketch_payload(initial=0.0),
        "unknown store": _sketch_payload(store_code=7),
        "zero count": _sketch_payload(pairs=((10, 0.0), (20, 1.0))),
        "negative zero count": _sketch_payload(pairs=((10, -0.0), (20, 1.0))),
        "negative count": _sketch_payload(pairs=((10, -1.0),)),
        "NaN count": _sketch_payload(pairs=((10, float("nan")),)),
        "infinite count": _sketch_payload(pairs=((10, float("inf")),)),
        "NaN summary count": _sketch_payload(summary=(0.0, float("nan"), 3.0, 1.0, 2.0)),
        "negative zero-count": _sketch_payload(summary=(-1.0, 2.0, 3.0, 1.0, 2.0)),
        "infinite sum": _sketch_payload(summary=(0.0, 2.0, float("inf"), 1.0, 2.0)),
        "NaN extremes": _sketch_payload(summary=(0.0, 2.0, 3.0, float("nan"), float("nan"))),
        "unsorted keys": _sketch_payload(pairs=((20, 1.0), (10, 0.5), (20, 0.25))),
        "repeated key": _sketch_payload(pairs=((10, 0.1), (10, 0.2), (10, 0.3))),
        "collapsing past its limit": _sketch_payload(bin_limit=4, pairs=((0, 1.0), (9, 2.0))),
        "collapsing highest past its limit": _sketch_payload(
            store_code=3, bin_limit=4, pairs=((0, 1.0), (9, 2.0))
        ),
        "dense store": _sketch_payload(
            store_code=0, negative_code=0, pairs=((-5, 1.0), (300, 2.5))
        ),
        "sparse store": _sketch_payload(
            store_code=1, negative_code=1, pairs=((-5, 1.0), (300, 2.5))
        ),
        "uniform past its limit": _sketch_payload(
            store_code=4, negative_code=4, bin_limit=4, pairs=((0, 1.0), (9, 2.0))
        ),
        "uniform with offset": _sketch_payload(
            store_code=4, negative_code=4, offset=1.0, pairs=((0, 1.0),)
        ),
        "uniform beside a dense store": _sketch_payload(store_code=4, negative_code=3),
        "uniform collapse count": _sketch_payload(
            store_code=4, negative_code=4, store_collapses=65
        ),
        "keys near the int64 edge": _sketch_payload(pairs=((2**62 + 5, 1.0),)),
        "delta past uint64": _sketch_payload(pairs=())[:-6]
        + encode_varint(2) + encode_varint(0) + encode_varint(1)
        + b"\xff" * 9 + b"\x7f" + encode_float(1.0)
        + encode_varint(3) + encode_varint(0) + encode_varint(0),
        "truncated sketch": _PAYLOAD[:-5],
    }
    frames = {name: _frame_of(payload) for name, payload in cases.items()}
    frames["uniform frame"] = uniform_frame
    return frames


def _compressed_corpus():
    """The compressed-envelope cases of ``tests/test_codec_fuzz.py``."""
    body = zlib.compress(_FRAME)
    cases = {
        "declared above guard": _envelope(1, MAX_DECOMPRESSED_FRAME_BYTES + 1, body),
        "understated": _envelope(1, 16, body),
        "overstated": _envelope(1, len(_FRAME) + 1, body),
        "bomb": _envelope(1, len(_FRAME), zlib.compress(b"\x00" * (4 << 20))),
        "unknown code": _envelope(7, 16, b"\x00" * 8),
        "unknown version": _envelope(1, 16, b"\x00" * 8, version=9),
        "body not a frame": _envelope(1, 8, zlib.compress(b"notframe")),
        "plain round trip": _ZFRAME,
    }
    if not zstd_available():
        cases["zstd without support"] = _envelope(
            2, len(_FRAME), b"\x28\xb5\x2f\xfd" + b"\x00" * 16
        )
    for cut in range(0, len(_ZFRAME), 7):
        cases[f"truncated at {cut}"] = _ZFRAME[:cut]
    return cases


_CORPORA = {
    "frame": _header_corpus(),
    "sketch": _sketch_corpus(),
    "compressed": {**_compressed_corpus(), "not bytes": "not-bytes"},
}


#: What a malformed frame may raise: a library error, or the OverflowError
#: the per-sketch loop lets escape for a bucket delta past int64.
_ERROR_TYPES = (ReproError, OverflowError)


def _same_outcome(payload, **kwargs):
    (numpy_kind, *numpy_rest), (native_kind, *native_rest) = under_both(
        decode_frame, payload, **kwargs
    )
    assert native_kind == numpy_kind
    if numpy_kind == "error":
        assert native_rest == numpy_rest
        assert issubclass(numpy_rest[0], _ERROR_TYPES)
    else:
        assert_same_entries(numpy_rest[0], native_rest[0])
    return numpy_kind


@pytest.mark.parametrize("corpus", sorted(_CORPORA))
def test_malformed_corpus_matches_the_oracle(corpus):
    outcomes = {_same_outcome(payload) for payload in _CORPORA[corpus].values()}
    assert "error" in outcomes


@pytest.mark.parametrize("name", ["fuzz payload", "uniform frame"])
@pytest.mark.parametrize("sketch_cls", [BaseDDSketch, DDSketch, UDDSketch])
def test_sketch_class_pairing_matches_the_oracle(name, sketch_cls):
    _same_outcome(_CORPORA["sketch"][name], sketch_cls=sketch_cls)


@pytest.mark.parametrize(
    "corpus, name",
    [
        ("frame", "unsorted tags"),
        ("sketch", "version 1"),
        ("sketch", "version 1 uniform"),
        ("sketch", "zero count"),
        ("sketch", "unsorted keys"),
        ("sketch", "NaN offset"),
        ("sketch", "negative zero offset"),
        ("sketch", "collapsing past its limit"),
        ("compressed", "plain round trip"),
    ],
)
def test_well_formed_edges_decode_alike(corpus, name):
    """Inputs the columnar pass declines but the per-sketch loop accepts
    (or that it handles itself) still decode, identically."""
    assert _same_outcome(_CORPORA[corpus][name]) == "ok"
