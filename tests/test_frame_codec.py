"""Tests for the multi-sketch wire frame (format v3): round trips and fuzzing.

Mirrors the hardening contract of the per-sketch codec
(``tests/test_codec_fuzz.py``): every well-formed frame round-trips
bit-exactly, and every malformed input — truncated, bit-flipped, or
structurally adversarial — decodes to ``DeserializationError`` (a ``repro``
exception), never to an ``IndexError``/``MemoryError``/``UnicodeDecodeError``
escaping the internals.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DDSketch, SeriesKey, SketchRegistry, UDDSketch
from repro.exceptions import DeserializationError, ReproError
from repro.serialization import decode_frame, encode_frame
from repro.serialization.encoding import encode_varint


def build_frame(seed=0, num_series=6, factory=None):
    registry = SketchRegistry(sketch_factory=factory)
    rng = np.random.default_rng(seed)
    keys = [
        SeriesKey("web.latency", (("endpoint", f"/e{index % 3}"), ("host", f"h{index}")))
        for index in range(num_series)
    ]
    registry.ingest_grouped(
        keys, rng.integers(0, num_series, 4_000), rng.lognormal(0.0, 1.5, 4_000)
    )
    return registry


class TestFrameRoundTrip:
    def test_binary_round_trip_is_bit_exact(self):
        registry = build_frame()
        frame = registry.to_frame()
        entries = decode_frame(frame)
        assert [key for key, _ in entries] == registry.series_keys()
        for key, sketch in entries:
            original = registry.get(key)
            assert sketch.store.key_counts() == original.store.key_counts()
            assert sketch.count == original.count
            assert sketch.to_bytes() == original.to_bytes()
        # Re-encoding the decoded entries reproduces the identical frame.
        assert encode_frame(entries) == frame

    def test_uniform_collapse_series_auto_upgrade(self):
        registry = build_frame(
            seed=2, factory=lambda: UDDSketch(relative_accuracy=0.01, bin_limit=64)
        )
        entries = decode_frame(registry.to_frame())
        assert all(type(sketch) is UDDSketch for _, sketch in entries)

    def test_empty_frame_round_trips(self):
        frame = encode_frame([])
        assert decode_frame(frame) == []

    def test_untagged_series_round_trip(self):
        sketch = DDSketch()
        sketch.add(1.0)
        entries = decode_frame(encode_frame([(SeriesKey("m"), sketch)]))
        assert entries[0][0] == SeriesKey("m")
        assert entries[0][1].count == 1


class TestFrameHardening:
    def test_not_bytes_rejected(self):
        with pytest.raises(DeserializationError):
            decode_frame("not-bytes")

    def test_wrong_magic_and_version(self):
        with pytest.raises(DeserializationError):
            decode_frame(b"XX" + b"\x03\x00")
        with pytest.raises(DeserializationError):
            decode_frame(b"DD" + encode_varint(2) + encode_varint(0))

    def test_absurd_series_count_rejected_without_allocation(self):
        payload = b"DD" + encode_varint(3) + encode_varint(10**9)
        with pytest.raises(DeserializationError):
            decode_frame(payload)

    def test_absurd_string_length_rejected(self):
        body = encode_varint(1 << 40)
        payload = b"DD" + encode_varint(3) + encode_varint(1) + body
        with pytest.raises(DeserializationError):
            decode_frame(payload)

    def test_duplicate_series_rejected(self):
        sketch = DDSketch()
        sketch.add(1.0)
        frame = encode_frame([(SeriesKey("m"), sketch), (SeriesKey("n"), sketch)])
        # Duplicates are rejected at encode-input level only by the decoder:
        duplicated = encode_frame([(SeriesKey("m"), sketch)])
        # Manually splice the single entry twice into one frame.
        entry = duplicated[2 + 1 + 1 :]  # strip magic + version + count
        forged = b"DD" + encode_varint(3) + encode_varint(2) + entry + entry
        with pytest.raises(DeserializationError):
            decode_frame(forged)
        assert len(decode_frame(frame)) == 2

    @staticmethod
    def _wide_dense_frame(entries):
        """``entries`` plain dense stores holding keys 0 and 8,000,000: each
        passes the per-store span cap, and decodes to ~64 MB of bins."""
        from repro import LogUnboundedDenseDDSketch

        sketch = LogUnboundedDenseDDSketch(0.01)
        sketch.store.add(0)
        sketch.store.add(8_000_000)
        payload = sketch.to_bytes()
        sketch.store.clear()
        body = b"".join(
            SeriesKey(f"m{index}").wire_bytes + encode_varint(len(payload)) + payload
            for index in range(entries)
        )
        return b"DD" + encode_varint(3) + encode_varint(entries) + body

    def test_frame_past_the_bin_budget_is_rejected(self, kernel_backend):
        # Five such stores sum to ~320 MB of bins, past the 256 MiB budget;
        # the payload itself is ~0.5 KB.
        frame = self._wide_dense_frame(5)
        assert len(frame) < 1000
        with pytest.raises(DeserializationError, match="bytes of bins"):
            decode_frame(frame, bin_budget=True)

    def test_bin_budget_counts_the_whole_frame(self, kernel_backend, monkeypatch):
        import repro.serialization.frame as frame_codec

        frame = build_frame(seed=9, num_series=4).to_frame()
        spans = [
            sketch.store.max_key - sketch.store.min_key + 1 for _, sketch in decode_frame(frame)
        ]
        monkeypatch.setattr(frame_codec, "MAX_DECOMPRESSED_FRAME_BYTES", 8 * sum(spans))
        assert len(decode_frame(frame, bin_budget=True)) == 4
        monkeypatch.setattr(frame_codec, "MAX_DECOMPRESSED_FRAME_BYTES", 8 * sum(spans) - 8)
        with pytest.raises(DeserializationError, match="bytes of bins"):
            decode_frame(frame, bin_budget=True)
        assert len(decode_frame(frame)) == 4

    @pytest.mark.parametrize("margin", [0, 1])
    def test_local_decodes_ignore_the_bin_budget(self, kernel_backend, monkeypatch, margin):
        # A registry's own frame round-trips on either side of the push
        # budget: only the server's push decode enforces it.
        import repro.serialization.frame as frame_codec
        from repro.monitoring import Aggregator, FramePayload

        registry = build_frame(seed=9, num_series=4)
        frame = registry.to_frame()
        spans = sum(
            store.max_key - store.min_key + 1
            for _, sketch in registry
            for store in (sketch.store, sketch.negative_store)
            if not store.is_empty
        )
        monkeypatch.setattr(frame_codec, "MAX_DECOMPRESSED_FRAME_BYTES", 8 * (spans - margin))
        assert SketchRegistry.from_frame(frame).to_frame() == frame
        merged = SketchRegistry()
        assert merged.merge_frame(frame) == 4
        assert merged.to_frame() == frame
        payload = FramePayload(
            host="a", interval_start=0.0, interval_length=1.0, payload=frame, num_series=4
        )
        assert Aggregator().ingest_frame(payload) == 4
        if margin:
            with pytest.raises(DeserializationError, match="bytes of bins"):
                decode_frame(frame, bin_budget=True)
        else:
            assert len(decode_frame(frame, bin_budget=True)) == 4

    def test_trailing_bytes_rejected(self):
        frame = build_frame(seed=3, num_series=2).to_frame()
        with pytest.raises(DeserializationError):
            decode_frame(frame + b"\x00")

    def test_truncations_never_crash(self):
        frame = build_frame(seed=4, num_series=3).to_frame()
        for cut in range(len(frame)):
            with pytest.raises(DeserializationError):
                decode_frame(frame[:cut])

    @settings(max_examples=60)
    @given(data=st.data())
    def test_bit_flips_never_crash(self, data):
        frame = build_frame(seed=5, num_series=2).to_frame()
        position = data.draw(st.integers(0, len(frame) - 1))
        bit = data.draw(st.integers(0, 7))
        mutated = bytearray(frame)
        mutated[position] ^= 1 << bit
        try:
            decode_frame(bytes(mutated))
        except ReproError:
            pass  # any library error is acceptable; crashes are not

    @settings(max_examples=60)
    @given(junk=st.binary(max_size=400))
    def test_random_bytes_never_crash(self, junk):
        try:
            decode_frame(b"DD" + junk)
        except ReproError:
            pass
