"""Golden-vector pinning of the wire formats against committed bytes.

``tests/golden/`` holds proto payloads (dense, sparse, mid-collapse UDD,
and a pure reference-schema export) plus an uncompressed and a
zlib-compressed frame-v3 corpus, all generated deterministically by
``tests/golden/make_golden.py``.  These tests pin both directions:

* decoding each committed payload reproduces the manifest's summary
  statistics, quantiles, store/mapping families, and collapse state
  *exactly* (float equality, not approximate);
* re-encoding the decoded objects reproduces the committed bytes
  byte-for-byte — the encoders are deterministic functions of sketch state;
* both kernel backends produce those identical bytes (the native backend
  leg skips where the compiled kernel cannot be built, and fails where it
  was built and then failed its self-test).

A failure here means the wire format changed.  If the change is
intentional, regenerate the corpus and let the ``.bin`` diff document it;
nothing may change these bytes silently.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import kernel
from repro.core import UDDSketch
from repro.serialization import (
    compress_frame,
    decode_frame,
    decompress_frame,
    encode_frame,
    encode_sketch,
    frame_compression,
    sketch_from_proto,
    sketch_to_proto,
)

from _kernel_testkit import require_native_kernel

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.fixture(params=["numpy", "native"])
def backend(request):
    if request.param == "native":
        require_native_kernel()
    kernel.set_backend(request.param)
    try:
        yield request.param
    finally:
        kernel.set_backend("auto")


def _load(entry):
    payload = (GOLDEN / entry["file"]).read_bytes()
    assert hashlib.sha256(payload).hexdigest() == entry["sha256"], (
        "committed fixture bytes do not match the manifest checksum"
    )
    return payload


PROTO_CASES = sorted(MANIFEST["proto"])


class TestProtoGoldenVectors:
    @pytest.mark.parametrize("case", PROTO_CASES)
    def test_decode_matches_manifest_exactly(self, backend, case):
        entry = MANIFEST["proto"][case]
        sketch = sketch_from_proto(_load(entry))
        expect = entry["expect"]
        assert sketch.count == expect["count"]
        assert sketch.sum == expect["sum"]
        assert sketch.min == expect["min"]
        assert sketch.max == expect["max"]
        assert sketch.zero_count == expect["zero_count"]
        assert type(sketch.store).__name__ == expect["store_class"]
        assert type(sketch.negative_store).__name__ == expect["negative_store_class"]
        assert type(sketch.mapping).__name__ == expect["mapping_class"]
        assert sketch.mapping.relative_accuracy == expect["relative_accuracy"]
        assert int(getattr(sketch, "collapse_count", 0)) == expect["collapse_count"]
        for q, value in expect["quantiles"].items():
            assert sketch.quantile(float(q)) == value, f"quantile {q} drifted"

    @pytest.mark.parametrize("case", PROTO_CASES)
    def test_reencode_is_byte_identical(self, backend, case):
        entry = MANIFEST["proto"][case]
        payload = _load(entry)
        sketch = sketch_from_proto(payload)
        assert sketch_to_proto(sketch, extensions=entry["lossless"]) == payload

    def test_udd_fixture_is_mid_collapse(self, backend):
        sketch = sketch_from_proto(_load(MANIFEST["proto"]["udd_collapsed"]))
        assert isinstance(sketch, UDDSketch)
        assert sketch.collapse_count > 0
        assert sketch.store.collapse_count > 0

    def test_reference_schema_fixture_carries_no_extensions(self, backend):
        # The reference fixture is what a DataDog encoder would emit: no
        # field numbers >= 100 anywhere.  Cheap structural scan: our own
        # extension re-encode of its decode must be strictly larger.
        entry = MANIFEST["proto"]["reference_schema"]
        payload = _load(entry)
        sketch = sketch_from_proto(payload)
        assert len(sketch_to_proto(sketch, extensions=True)) > len(payload)


class TestFrameGoldenVectors:
    def test_raw_frame_decodes_and_reencodes(self, backend):
        spec = MANIFEST["frame"]
        raw = (GOLDEN / spec["raw_file"]).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == spec["raw_sha256"]
        entries = decode_frame(raw)
        assert len(entries) == spec["num_series"]
        for (name, sketch), expect in zip(entries, spec["series"]):
            assert name.metric == expect["name"] and name.tags == ()
            assert sketch.count == expect["count"]
            assert sketch.quantile(0.5) == expect["q50"]
            encoded = encode_sketch(sketch)
            assert hashlib.sha256(encoded).hexdigest() == expect["sketch_sha256"]
        assert encode_frame(entries) == raw

    def test_zlib_fixture_decompresses_to_the_raw_bytes(self, backend):
        spec = MANIFEST["frame"]
        raw = (GOLDEN / spec["raw_file"]).read_bytes()
        compressed = (GOLDEN / spec["zlib_file"]).read_bytes()
        assert frame_compression(compressed) == "zlib"
        assert decompress_frame(compressed) == raw
        # decode_frame unwraps transparently; the corpus reads identically.
        assert encode_frame(decode_frame(compressed)) == encode_frame(decode_frame(raw))
        # Round trip through the local zlib as well: compression output may
        # differ across zlib builds, but its inverse may not.
        assert decompress_frame(compress_frame(raw, "zlib")) == raw
