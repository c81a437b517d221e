"""Tests for the serialization layer: varints and the binary codec."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DDSketch,
    FastDDSketch,
    LogCollapsingHighestDenseDDSketch,
    LogCollapsingLowestDenseDDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
)
from repro.core import BaseDDSketch
from repro.exceptions import DeserializationError
from repro.mapping import LogarithmicMapping
from repro.serialization import (
    decode_sketch,
    decode_varint,
    decode_zigzag,
    encode_sketch,
    encode_varint,
    encode_zigzag,
)
from repro.serialization.encoding import VarintReader, decode_float, encode_float
from repro.store import CollapsingLowestDenseStore, DenseStore, SparseStore


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 20, 2 ** 35, 2 ** 62])
    def test_varint_round_trip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_varint_rejects_negative(self):
        with pytest.raises(Exception):
            encode_varint(-1)

    def test_varint_truncated_payload(self):
        encoded = encode_varint(2 ** 20)
        with pytest.raises(DeserializationError):
            decode_varint(encoded[:-1])

    @pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 1000, -1000, 2 ** 40, -(2 ** 40)])
    def test_zigzag_round_trip(self, value):
        decoded, _ = decode_zigzag(encode_zigzag(value))
        assert decoded == value

    def test_small_magnitudes_encode_small(self):
        assert len(encode_zigzag(-1)) == 1
        assert len(encode_zigzag(1)) == 1
        assert len(encode_zigzag(-(2 ** 40))) > 4

    @given(value=st.integers(min_value=-(2 ** 60), max_value=2 ** 60))
    @settings(max_examples=200, deadline=None)
    def test_zigzag_property(self, value):
        decoded, _ = decode_zigzag(encode_zigzag(value))
        assert decoded == value

    @given(value=st.floats(allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_float_round_trip(self, value):
        decoded, _ = decode_float(encode_float(value))
        assert decoded == value

    def test_reader_sequential_decoding(self):
        payload = encode_varint(5) + encode_zigzag(-7) + encode_float(2.5)
        reader = VarintReader(payload)
        assert reader.read_varint() == 5
        assert reader.read_zigzag() == -7
        assert reader.read_float() == 2.5
        assert reader.exhausted

    def test_reader_truncated_bytes(self):
        reader = VarintReader(b"\x01")
        reader.read_varint()
        with pytest.raises(DeserializationError):
            reader.read_bytes(4)


class TestBinaryCodec:
    @pytest.mark.parametrize(
        "sketch_factory", [DDSketch, FastDDSketch, SparseDDSketch, LogUnboundedDenseDDSketch]
    )
    def test_round_trip_all_variants(self, sketch_factory, mixed_sign_stream):
        sketch = sketch_factory(relative_accuracy=0.01)
        sketch.add_all(mixed_sign_stream[:2000])
        restored = decode_sketch(encode_sketch(sketch))
        assert restored.count == pytest.approx(sketch.count)
        assert restored.zero_count == pytest.approx(sketch.zero_count)
        assert restored.relative_accuracy == pytest.approx(sketch.relative_accuracy)
        for quantile in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert restored.get_quantile_value(quantile) == pytest.approx(
                sketch.get_quantile_value(quantile)
            )

    def test_round_trip_preserves_quantiles(self, pareto_stream):
        sketch = DDSketch()
        sketch.add_all(pareto_stream[:5000])
        restored = DDSketch.from_bytes(sketch.to_bytes())
        for quantile in (0.0, 0.5, 0.99, 1.0):
            assert restored.get_quantile_value(quantile) == sketch.get_quantile_value(quantile)
        assert restored.count == sketch.count
        assert restored.min == sketch.min
        assert restored.max == sketch.max

    @pytest.mark.parametrize(
        "store_factory",
        [DenseStore, SparseStore, lambda: CollapsingLowestDenseStore(bin_limit=64)],
    )
    def test_store_round_trip(self, store_factory):
        store = store_factory()
        for key, weight in ((-5, 1.0), (0, 2.5), (42, 0.25)):
            store.add(key, weight)
        sketch = BaseDDSketch(LogarithmicMapping(0.01), store, DenseStore())
        restored = BaseDDSketch.from_bytes(sketch.to_bytes())
        assert type(restored.store) is type(store)
        assert restored.store.key_counts() == store.key_counts()

    def test_empty_sketch_round_trip(self):
        restored = decode_sketch(encode_sketch(DDSketch()))
        assert restored.is_empty
        assert restored.get_quantile_value(0.5) is None

    def test_magic_bytes_checked(self):
        with pytest.raises(DeserializationError):
            decode_sketch(b"XX" + encode_sketch(DDSketch())[2:])

    def test_encoded_size_is_compact(self, pareto_stream):
        # A 1%-accuracy sketch of 20k heavy-tailed values should fit in a few
        # kilobytes on the wire — that is the whole point of sketching.
        sketch = DDSketch()
        sketch.add_all(pareto_stream)
        assert len(encode_sketch(sketch)) < 10_000

    def test_merge_after_round_trip(self, pareto_stream):
        half = len(pareto_stream) // 2
        left = DDSketch()
        right = DDSketch()
        left.add_all(pareto_stream[:half])
        right.add_all(pareto_stream[half:])
        reference = DDSketch()
        reference.add_all(pareto_stream)

        left_restored = decode_sketch(encode_sketch(left))
        right_restored = decode_sketch(encode_sketch(right))
        left_restored.merge(right_restored)
        for quantile in (0.5, 0.95, 0.99):
            assert left_restored.get_quantile_value(quantile) == pytest.approx(
                reference.get_quantile_value(quantile)
            )

    def test_to_bytes_from_bytes_methods(self):
        sketch = DDSketch()
        sketch.add_all([1.0, -2.0, 0.0, math.pi])
        restored = DDSketch.from_bytes(sketch.to_bytes())
        assert restored.count == sketch.count
        assert restored.sum == pytest.approx(sketch.sum)


@pytest.mark.parametrize(
    "sketch_cls",
    [
        DDSketch,
        LogCollapsingLowestDenseDDSketch,
        LogCollapsingHighestDenseDDSketch,
        FastDDSketch,
    ],
)
class TestDecodedDefaultSketch:
    """A bounded sketch keeps its bin limit through a decode, a copy and a
    rollup, so its ``bin_limit`` reads as on the sketch that was encoded."""

    @pytest.mark.parametrize("bin_limit", [2048, 37])
    def test_round_trips_keep_the_bin_limit(self, kernel_backend, sketch_cls, bin_limit):
        from repro.registry import SeriesKey
        from repro.serialization.frame import decode_frame, encode_frame, read_frame

        sketch = sketch_cls(0.02, bin_limit=bin_limit)
        sketch.add_all([0.5, 3.0, -7.0, 0.0, 1e4])
        payload = sketch.to_bytes()
        frame = encode_frame([(SeriesKey.of("m", {"a": "b"}), sketch)])
        decoded = [
            sketch_cls.from_bytes(payload),
            decode_sketch(payload, sketch_cls=sketch_cls),
            decode_frame(frame, sketch_cls=sketch_cls)[0][1],
            read_frame(frame, sketch_cls=sketch_cls).sketch(0),
        ]
        for restored in decoded:
            assert type(restored) is sketch_cls
            assert restored.bin_limit == bin_limit
            copied = restored.copy()
            assert copied.bin_limit == bin_limit
            assert copied.to_bytes() == payload
            assert copied.get_quantiles([0.0, 0.5, 1.0]) == sketch.get_quantiles([0.0, 0.5, 1.0])

    @pytest.mark.parametrize("bin_limit", [2048, 37])
    def test_copies_and_rollups_keep_the_bin_limit(self, kernel_backend, sketch_cls, bin_limit):
        from repro.registry import SketchRegistry

        sketch = sketch_cls(0.02, bin_limit=bin_limit)
        sketch.add_all([0.5, 3.0, -7.0, 0.0, 1e4])
        copied = sketch.copy()
        assert type(copied) is sketch_cls
        assert copied.bin_limit == bin_limit
        assert copied.to_bytes() == sketch.to_bytes()

        registry = SketchRegistry(lambda: sketch_cls(0.02, bin_limit=bin_limit))
        registry.add_batch("m", np.geomspace(1e-3, 1e6, 500), tags={"h": "1"})
        registry.add_batch("m", np.geomspace(1e-2, 1e3, 300), tags={"h": "2"})
        rollup = registry.rollup("m")
        assert type(rollup) is sketch_cls
        assert rollup.bin_limit == bin_limit
        assert rollup.copy().bin_limit == bin_limit

    def test_empty_round_trip_copies(self, kernel_backend, sketch_cls):
        restored = sketch_cls.from_bytes(sketch_cls().to_bytes())
        assert restored.copy().bin_limit == 2048
        assert restored.copy().is_empty
