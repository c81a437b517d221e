"""Serialization of sketches for transport between processes and hosts.

Mergeability is only useful in a distributed system if sketches can travel:
workers serialize their per-interval sketches and ship them to an aggregator
which deserializes and merges them (Figure 1 of the paper).  Two codecs are
provided:

* :mod:`repro.serialization.json_codec` — a human-readable dictionary/JSON
  representation, convenient for debugging and interoperability tests.
* :mod:`repro.serialization.binary_codec` — a compact binary format using
  variable-length integers and delta-encoded bucket keys, representative of
  what a production agent would put on the wire.

High-cardinality agents batch all of their tagged series into one
length-prefixed multi-sketch **frame** (format version 3,
:mod:`repro.serialization.frame`) instead of shipping one payload per
series.  Frames optionally travel compressed (``compress_frame`` /
``decompress_frame``; zlib always, zstd when importable), and
:mod:`repro.serialization.interop` exchanges single sketches with DataDog's
reference implementations via their protobuf schema.
"""

from repro.serialization.encoding import (
    encode_varint,
    decode_varint,
    encode_zigzag,
    decode_zigzag,
    encode_float,
    decode_float,
    VarintReader,
)
from repro.serialization.json_codec import (
    sketch_to_json,
    sketch_from_json,
    store_from_dict,
)
from repro.serialization.binary_codec import encode_sketch, decode_sketch
from repro.serialization.frame import (
    DecodedFrame,
    encode_frame,
    decode_frame,
    read_frame,
    frame_to_dict,
    frame_from_dict,
    compress_frame,
    decompress_frame,
    frame_compression,
    frame_compressions,
    zstd_available,
    COMPRESSION_CODES,
    MAX_DECOMPRESSED_FRAME_BYTES,
)
from repro.serialization.interop import (
    sketch_to_proto,
    sketch_from_proto,
    INTERPOLATION_CODES,
)

__all__ = [
    "encode_varint",
    "decode_varint",
    "encode_zigzag",
    "decode_zigzag",
    "encode_float",
    "decode_float",
    "VarintReader",
    "sketch_to_json",
    "sketch_from_json",
    "store_from_dict",
    "encode_sketch",
    "decode_sketch",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "DecodedFrame",
    "frame_to_dict",
    "frame_from_dict",
    "compress_frame",
    "decompress_frame",
    "frame_compression",
    "frame_compressions",
    "zstd_available",
    "COMPRESSION_CODES",
    "MAX_DECOMPRESSED_FRAME_BYTES",
    "sketch_to_proto",
    "sketch_from_proto",
    "INTERPOLATION_CODES",
]
