"""Fuzz and round-trip properties for every serialization codec.

Two complementary contracts are enforced:

* **No payload crashes the decoders.**  Random bytes, truncated payloads,
  bit-flipped payloads, and payloads with one corrupted field must either
  decode (a flip can land in a don't-care bit) or raise an error from
  :mod:`repro.exceptions` — never an ``IndexError``, ``struct.error``,
  ``KeyError``, or a ``MemoryError`` from an adversarial allocation size.
* **Every valid sketch round-trips bit-exactly.**  ``encode(decode(p)) == p``
  for the binary codec, across every sketch variant including collapsed
  UDDSketches.

The same contracts cover the DataDog-proto interop decoder
(:mod:`repro.serialization.interop`) and the compressed frame-v3 envelope
(:mod:`repro.serialization.frame`) — including decompression bombs: an
envelope may *declare* any size it likes, but nothing larger than the guard
is ever inflated, and a body that lies about its decompressed size in
either direction is rejected.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import (
    BaseDDSketch,
    DDSketch,
    FastDDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
    UDDSketch,
)
from repro.exceptions import DeserializationError, ReproError
from repro.registry import SeriesKey
from repro.serialization import decode_sketch, read_frame
from repro.serialization.encoding import encode_float, encode_varint, encode_zigzag

VARIANTS = {
    "default": lambda: DDSketch(relative_accuracy=0.02),
    "unbounded": lambda: LogUnboundedDenseDDSketch(relative_accuracy=0.02),
    "sparse": lambda: SparseDDSketch(relative_accuracy=0.02),
    "fast": lambda: FastDDSketch(relative_accuracy=0.02),
    "uniform": lambda: UDDSketch(relative_accuracy=0.02, bin_limit=64),
}

_magnitudes = st.floats(
    min_value=1e-4, max_value=1e4, allow_nan=False, allow_infinity=False
)
_values = st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda x: -x))


def _build(variant: str, values: list) -> BaseDDSketch:
    sketch = VARIANTS[variant]()
    if values:
        sketch.add_batch(np.asarray(values, dtype=np.float64))
    return sketch


def _reference_payload() -> bytes:
    """A moderately-sized, deterministic payload used by the mutation fuzzers."""
    sketch = UDDSketch(relative_accuracy=0.02, bin_limit=64)
    sketch.add_batch(np.logspace(-3.0, 4.0, 500))
    sketch.add_batch(-np.logspace(-2.0, 2.0, 100))
    sketch.add(0.0, 3.0)
    return sketch.to_bytes()


_PAYLOAD = _reference_payload()


def _sketch_payload(
    store_code=2, pairs=((10, 1.0), (20, 1.0)), version=2, mapping_code=0,
    accuracy=0.02, offset=0.0, collapses=0, initial=0.02, bin_limit=0,
    negative_code=3, summary=(0.0, 2.0, 3.0, 1.0, 2.0), store_collapses=0,
):
    """A hand-built sketch payload; every field can be made malformed.

    ``version=1`` writes the layout of the retired version 1, which has
    no collapse fields.
    """

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


class TestBinaryFuzz:
    @given(payload=st.binary(max_size=256))
    def test_random_bytes_never_crash(self, payload: bytes) -> None:
        try:
            BaseDDSketch.from_bytes(payload)
        except ReproError:
            pass  # the only acceptable failure mode

    @given(payload=st.binary(max_size=256))
    def test_random_bytes_after_magic_never_crash(self, payload: bytes) -> None:
        try:
            BaseDDSketch.from_bytes(b"DD" + payload)
        except ReproError:
            pass

    def test_every_truncation_raises_deserialization_error(self) -> None:
        """Every strict prefix of a valid payload must be rejected cleanly."""
        for cut in range(len(_PAYLOAD)):
            with pytest.raises(DeserializationError):
                BaseDDSketch.from_bytes(_PAYLOAD[:cut])

    @given(
        position=st.integers(min_value=0, max_value=len(_PAYLOAD) - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_bit_flips_never_crash(self, position: int, bit: int) -> None:
        corrupted = bytearray(_PAYLOAD)
        corrupted[position] ^= 1 << bit
        try:
            sketch = BaseDDSketch.from_bytes(bytes(corrupted))
        except ReproError:
            return
        # A flip in a don't-care bit may still decode; the result must at
        # least be a structurally sound sketch object.
        assert isinstance(sketch, BaseDDSketch)

    # Offset of the first store within a v2 payload whose header varints
    # (version, mapping code, collapse count) are all single-byte: 2 magic
    # + 3 varints + 8 float64 fields (accuracy, offset, initial accuracy,
    # zero count, count, sum, min, max).
    _FIRST_STORE_OFFSET = 2 + 3 + 8 * 8

    def test_absurd_bucket_count_is_rejected_without_allocation(self) -> None:
        """A huge declared bucket count must fail fast, not allocate."""
        from repro.serialization.encoding import encode_varint

        header = _PAYLOAD[: self._FIRST_STORE_OFFSET]
        corrupted = (
            header
            + encode_varint(0)  # store code: DenseStore
            + encode_varint(0)  # bin limit: unbounded
            + encode_varint(10**18)  # declared bucket count
            + b"\x00" * 64  # far fewer bytes than 1e18 buckets need
        )
        with pytest.raises(DeserializationError, match="bucket count"):
            BaseDDSketch.from_bytes(corrupted)

    def test_absurd_key_span_is_rejected_without_allocation(self) -> None:
        """Two buckets a trillion keys apart must not allocate a dense span."""
        from repro.serialization.encoding import encode_float, encode_varint, encode_zigzag

        header = _PAYLOAD[: self._FIRST_STORE_OFFSET]
        corrupted = (
            header
            + encode_varint(0)
            + encode_varint(0)
            + encode_varint(2)
            + encode_zigzag(0)
            + encode_float(1.0)
            + encode_zigzag(1 << 40)
            + encode_float(1.0)
        )
        with pytest.raises(DeserializationError, match="key span"):
            BaseDDSketch.from_bytes(corrupted)

    def test_trailing_garbage_is_rejected(self) -> None:
        with pytest.raises(DeserializationError):
            BaseDDSketch.from_bytes(_PAYLOAD + b"\x00")

    def test_huge_collapse_count_is_rejected(self) -> None:
        """Regression: an absurd collapse count in the header must be
        rejected at decode time, not spin the first post-decode mutation
        through billions of catch-up collapses."""
        from repro.serialization.encoding import encode_varint

        # The header's collapse varint sits right after magic + version +
        # mapping code + two float64 fields, and is 1 byte in the reference
        # payload (its real count is < 128).
        position = 2 + 1 + 1 + 16
        assert _PAYLOAD[position] < 0x80
        corrupted = _PAYLOAD[:position] + encode_varint(2**60) + _PAYLOAD[position + 1 :]
        with pytest.raises(DeserializationError, match="collapse count"):
            BaseDDSketch.from_bytes(corrupted)

    def test_wrong_sketch_class_for_store_family_is_rejected(self) -> None:
        """Explicitly requesting a mismatched class/store pairing fails
        cleanly instead of producing a sketch that corrupts on first use."""
        from repro import DDSketch, UDDSketch

        with pytest.raises(DeserializationError):
            UDDSketch.from_bytes(_build("default", [1.0, 2.0]).to_bytes())
        with pytest.raises(DeserializationError):
            DDSketch.from_bytes(_PAYLOAD)


class TestCorruptFields:
    """One corrupted field of an otherwise valid payload is always refused."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"mapping_code": 9}, "unknown mapping code"),
            ({"accuracy": 7.0}, "malformed sketch payload"),
            ({"summary": (0.0, float("nan"), 3.0, 1.0, 2.0)}, "invalid total count"),
            ({"summary": (0.0, -5.0, 3.0, 1.0, 2.0)}, "invalid total count"),
            ({"summary": (float("inf"), 2.0, 3.0, 1.0, 2.0)}, "invalid zero count"),
            ({"summary": (0.0, 2.0, float("nan"), 1.0, 2.0)}, "invalid sum"),
            ({"pairs": ((10, -1.0),)}, "finite and non-negative"),
            ({"pairs": ((10, float("nan")),)}, "finite and non-negative"),
            ({"store_code": 7}, "unknown store code"),
            ({"store_code": 4, "negative_code": 4, "store_collapses": 65}, "collapse count"),
            (
                dict(store_code=4, negative_code=4, bin_limit=4, pairs=((0, 1.0), (90, 1.0))),
                "bin limit",
            ),
        ],
    )
    def test_corrupt_field_is_rejected(self, fields, message) -> None:
        with pytest.raises(DeserializationError, match=message):
            decode_sketch(_sketch_payload(**fields))

    @pytest.mark.parametrize(
        "fields", [{}, {"store_code": 4, "negative_code": 4}], ids=["plain", "uniform"]
    )
    def test_version_1_is_refused_alike(self, kernel_backend, fields) -> None:
        """Version 1 is retired: refused alone and inside a frame, with one
        message, under both kernel backends."""
        payload = _sketch_payload(version=1, **fields)
        frame = (
            b"DD" + encode_varint(3) + encode_varint(1)
            + SeriesKey("m").wire_bytes + encode_varint(len(payload)) + payload
        )
        for decode in (lambda: decode_sketch(payload), lambda: read_frame(frame)):
            with pytest.raises(DeserializationError, match="^unsupported format version 1$"):
                decode()


class TestRoundTrips:
    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        values=st.lists(_values, max_size=60),
    )
    def test_binary_round_trip_is_bit_exact(self, variant: str, values: list) -> None:
        sketch = _build(variant, values)
        payload = sketch.to_bytes()
        decoded = BaseDDSketch.from_bytes(payload)
        assert decoded.to_bytes() == payload
        assert decoded.count == sketch.count
        assert decoded.get_quantiles((0.0, 0.5, 1.0)) == sketch.get_quantiles((0.0, 0.5, 1.0))

    def test_collapsed_uddsketch_round_trips_with_lineage(self) -> None:
        sketch = _build("uniform", list(np.logspace(-3.0, 4.0, 400)))
        assert sketch.collapse_count > 0
        decoded = BaseDDSketch.from_bytes(sketch.to_bytes())
        assert isinstance(decoded, UDDSketch)
        assert decoded.collapse_count == sketch.collapse_count
        assert decoded.initial_relative_accuracy == sketch.initial_relative_accuracy
        assert decoded.relative_accuracy == sketch.relative_accuracy
        assert decoded.store.collapse_count == sketch.store.collapse_count
        assert not math.isnan(decoded.sum)


# --------------------------------------------------------------------- #
# DataDog-proto interop decoder
# --------------------------------------------------------------------- #

from repro.serialization.interop import sketch_from_proto, sketch_to_proto  # noqa: E402


def _reference_proto() -> bytes:
    sketch = UDDSketch(relative_accuracy=0.02, bin_limit=64)
    sketch.add_batch(np.logspace(-3.0, 4.0, 500))
    sketch.add_batch(-np.logspace(-2.0, 2.0, 100))
    sketch.add(0.0, 3.0)
    return sketch_to_proto(sketch)


_PROTO = _reference_proto()


def _proto_with_store(store_bytes: bytes) -> bytes:
    """A minimal DDSketch message: a valid 1% mapping plus ``store_bytes``."""
    from repro.serialization.interop import _bytes_field, _mapping_to_proto

    mapping = DDSketch(relative_accuracy=0.01).mapping
    return _bytes_field(1, _mapping_to_proto(mapping)) + _bytes_field(2, store_bytes)


class TestProtoFuzz:
    @given(payload=st.binary(max_size=256))
    def test_random_bytes_never_crash(self, payload: bytes) -> None:
        try:
            sketch = sketch_from_proto(payload)
        except DeserializationError:
            return
        assert isinstance(sketch, BaseDDSketch)

    def test_every_truncation_decodes_or_raises_cleanly(self) -> None:
        """Proto prefixes that cut at a field boundary are legal messages;
        everything else must raise DeserializationError — never crash."""
        decoded = 0
        for cut in range(len(_PROTO)):
            try:
                sketch = sketch_from_proto(_PROTO[:cut])
            except DeserializationError:
                continue
            assert isinstance(sketch, BaseDDSketch)
            decoded += 1
        # Sanity: both outcomes actually occur on the reference payload.
        assert 0 < decoded < len(_PROTO)

    def test_mid_field_truncations_raise(self) -> None:
        # Cutting inside the trailing summary doubles is never a legal
        # message: the last field's declared width runs past the payload.
        for cut in range(len(_PROTO) - 7, len(_PROTO)):
            with pytest.raises(DeserializationError):
                sketch_from_proto(_PROTO[:cut])

    @given(
        position=st.integers(min_value=0, max_value=len(_PROTO) - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_bit_flips_never_crash(self, position: int, bit: int) -> None:
        corrupted = bytearray(_PROTO)
        corrupted[position] ^= 1 << bit
        try:
            sketch = sketch_from_proto(bytes(corrupted))
        except DeserializationError:
            return
        assert isinstance(sketch, BaseDDSketch)

    def test_absurd_declared_field_length_is_rejected_without_allocation(self) -> None:
        from repro.serialization.encoding import encode_varint

        # Field 2 (positiveValues), wire type 2, declaring a petabyte.
        payload = b"\x12" + encode_varint(10**15) + b"\x00" * 32
        with pytest.raises(DeserializationError, match="exceeds the remaining"):
            sketch_from_proto(payload)

    def test_absurd_key_span_is_rejected_without_allocation(self) -> None:
        from repro.serialization.interop import _sint_field, _double_field, _bytes_field

        entry_near = _sint_field(1, 0) + _double_field(2, 1.0)
        entry_far = _sint_field(1, 1 << 30) + _double_field(2, 1.0)
        store = _bytes_field(1, entry_near) + _bytes_field(1, entry_far)
        with pytest.raises(DeserializationError, match="key span"):
            sketch_from_proto(_proto_with_store(store))

    def test_group_wire_types_are_rejected(self) -> None:
        # Wire types 3/4 (the deprecated group encoding) are unsupported.
        with pytest.raises(DeserializationError, match="wire type"):
            sketch_from_proto(b"\x0b")

    def test_negative_and_non_finite_counts_are_rejected(self) -> None:
        from repro.serialization.interop import _sint_field, _double_field, _bytes_field

        for bad in (-1.0, math.nan, math.inf):
            entry = _sint_field(1, 3) + _double_field(2, bad)
            with pytest.raises(DeserializationError, match="finite and non-negative"):
                sketch_from_proto(_proto_with_store(_bytes_field(1, entry)))

    def test_bad_gamma_and_interpolation_are_rejected(self) -> None:
        from repro.serialization.interop import _bytes_field, _double_field, _varint_field

        for gamma in (0.5, 1.0, math.nan, math.inf):
            with pytest.raises(DeserializationError, match="gamma"):
                sketch_from_proto(_bytes_field(1, _double_field(1, gamma)))
        mapping = _double_field(1, 1.05) + _varint_field(3, 9)
        with pytest.raises(DeserializationError, match="interpolation"):
            sketch_from_proto(_bytes_field(1, mapping))

    def test_missing_mapping_is_rejected(self) -> None:
        with pytest.raises(DeserializationError, match="IndexMapping"):
            sketch_from_proto(b"")

    def test_unknown_store_code_extension_is_rejected(self) -> None:
        from repro.serialization.interop import _bytes_field, _varint_field

        with pytest.raises(DeserializationError, match="store-family"):
            sketch_from_proto(_proto_with_store(_varint_field(100, 99)))

    def test_huge_bin_limit_and_collapse_extensions_are_rejected(self) -> None:
        from repro.serialization.interop import _bytes_field, _varint_field

        with pytest.raises(DeserializationError, match="bin limit"):
            sketch_from_proto(_proto_with_store(_varint_field(101, 1 << 40)))
        with pytest.raises(DeserializationError, match="collapse count"):
            sketch_from_proto(_proto_with_store(_varint_field(102, 2**60)))

    def test_inconsistent_alpha_extension_is_rejected(self) -> None:
        from repro.serialization.interop import _bytes_field, _double_field

        mapping = _double_field(1, DDSketch(relative_accuracy=0.01).mapping.gamma)
        payload = _bytes_field(1, mapping) + _double_field(104, 0.3)
        with pytest.raises(DeserializationError, match="inconsistent"):
            sketch_from_proto(payload)

    def test_sint32_overflow_keys_are_rejected(self) -> None:
        from repro.serialization.encoding import encode_varint
        from repro.serialization.interop import _bytes_field, _double_field

        entry = b"\x08" + encode_varint(1 << 40) + _double_field(2, 1.0)
        with pytest.raises(DeserializationError, match="sint32"):
            sketch_from_proto(_proto_with_store(_bytes_field(1, entry)))

    def test_misaligned_packed_counts_are_rejected(self) -> None:
        from repro.serialization.interop import _bytes_field

        with pytest.raises(DeserializationError, match="multiple of 8"):
            sketch_from_proto(_proto_with_store(_bytes_field(2, b"\x00" * 11)))

    def test_non_bytes_payload_is_rejected(self) -> None:
        with pytest.raises(DeserializationError, match="bytes"):
            sketch_from_proto("not bytes")  # type: ignore[arg-type]


# --------------------------------------------------------------------- #
# Compressed frame-v3 envelope
# --------------------------------------------------------------------- #

from repro.serialization.frame import (  # noqa: E402
    MAX_DECOMPRESSED_FRAME_BYTES,
    compress_frame,
    decode_frame,
    decompress_frame,
    encode_frame,
    zstd_available,
)


def _reference_frame() -> bytes:
    entries = []
    for index in range(16):
        sketch = DDSketch(relative_accuracy=0.02)
        sketch.add_batch(np.logspace(-1.0, 3.0, 64) + index)
        entries.append((f"fuzz.metric.{index}", sketch))
    return encode_frame(entries)


_FRAME = _reference_frame()
_ZFRAME = compress_frame(_FRAME, "zlib")


def _envelope(code: int, declared: int, body: bytes, version: int = 3) -> bytes:
    return b"DZ" + encode_varint(version) + bytes((code,)) + encode_varint(declared) + body


class TestCompressedFrameFuzz:
    @given(payload=st.binary(max_size=256))
    def test_random_bytes_after_magic_never_crash(self, payload: bytes) -> None:
        for magic in (b"DZ", b""):
            try:
                decode_frame(magic + payload)
            except DeserializationError:
                pass

    def test_every_truncation_raises(self) -> None:
        for cut in range(len(_ZFRAME)):
            with pytest.raises(DeserializationError):
                decode_frame(_ZFRAME[:cut])

    @given(
        position=st.integers(min_value=0, max_value=len(_ZFRAME) - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_bit_flips_never_crash(self, position: int, bit: int) -> None:
        corrupted = bytearray(_ZFRAME)
        corrupted[position] ^= 1 << bit
        try:
            entries = decode_frame(bytes(corrupted))
        except DeserializationError:
            return
        assert isinstance(entries, list)

    def test_declared_size_above_guard_is_rejected_before_inflating(self) -> None:
        """The bomb guard: a petabyte declaration dies on arithmetic alone."""
        import zlib

        body = zlib.compress(_FRAME)
        for declared in (MAX_DECOMPRESSED_FRAME_BYTES + 1, 10**18):
            with pytest.raises(DeserializationError, match="exceeds"):
                decode_frame(_envelope(1, declared, body))

    def test_understated_declared_size_is_rejected(self) -> None:
        """A bomb that lies small: body inflates past its declaration."""
        import zlib

        body = zlib.compress(_FRAME)
        with pytest.raises(DeserializationError):
            decode_frame(_envelope(1, 16, body))

    def test_overstated_declared_size_is_rejected(self) -> None:
        import zlib

        body = zlib.compress(_FRAME)
        with pytest.raises(DeserializationError):
            decode_frame(_envelope(1, len(_FRAME) + 1, body))

    def test_zlib_bomb_never_allocates_the_expansion(self) -> None:
        """1 GiB of zeros compresses to ~1 MB; inflating it must stop at the
        declared-size cap instead of materializing the gigabyte."""
        import zlib

        bomb = zlib.compress(b"\x00" * (1 << 30), 9)
        assert len(bomb) < 2 * (1 << 20)
        with pytest.raises(DeserializationError):
            decode_frame(_envelope(1, len(_FRAME), bomb))

    def test_unknown_compression_code_is_rejected(self) -> None:
        with pytest.raises(DeserializationError, match="compression"):
            decode_frame(_envelope(7, 16, b"\x00" * 8))

    def test_unknown_version_is_rejected(self) -> None:
        with pytest.raises(DeserializationError, match="version"):
            decode_frame(_envelope(1, 16, b"\x00" * 8, version=9))

    def test_zstd_frame_without_support_is_rejected(self) -> None:
        if zstd_available():
            pytest.skip("zstd is importable here; the unsupported path is moot")
        with pytest.raises(DeserializationError, match="zstd"):
            decode_frame(_envelope(2, len(_FRAME), b"\x28\xb5\x2f\xfd" + b"\x00" * 16))

    def test_nested_compression_is_rejected(self) -> None:
        from repro.exceptions import IllegalArgumentError

        with pytest.raises(IllegalArgumentError):
            compress_frame(_ZFRAME, "zlib")

    def test_decompressed_body_must_be_a_frame(self) -> None:
        import zlib

        junk = b"XX" + b"\x00" * 30
        with pytest.raises(DeserializationError):
            decompress_frame(_envelope(1, len(junk), zlib.compress(junk)))

    def test_compressed_round_trip(self) -> None:
        assert decompress_frame(_ZFRAME) == _FRAME
        assert encode_frame(decode_frame(_ZFRAME)) == _FRAME
        if zstd_available():
            zst = compress_frame(_FRAME, "zstd")
            assert decompress_frame(zst) == _FRAME
