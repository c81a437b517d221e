"""Multi-sketch wire frame (format version 3): one payload, many series.

The per-sketch binary format (:mod:`repro.serialization.binary_codec`,
versions 1–2) matches the paper's one-payload-per-metric flush.  A
high-cardinality agent instead tracks thousands of ``(metric, tags)`` series
per flush interval; shipping one payload per series would drown the backend
in per-payload overhead.  The frame format batches them: a small header
followed by length-prefixed entries, each carrying the series identity
(metric plus tags, as varint-length-prefixed UTF-8 strings) and one embedded
version-2 sketch payload.

Format (all multi-byte integers are varints unless noted)::

    magic        2 bytes   b"DD"
    version      varint    3
    n series     varint
    entries      n * entry

    entry:
      metric     varint length + UTF-8 bytes
      n tags     varint
      tags       n * (varint length + UTF-8 key, varint length + UTF-8 value)
      sketch len varint
      sketch     sketch-len bytes, a version-2 payload (decode_sketch)

Like the per-sketch codec, decoding is fuzz-hardened: truncated, bit-flipped,
or adversarial frames (absurd series/tag counts or lengths, duplicate
series, trailing bytes, embedded-sketch corruption) raise
:class:`~repro.exceptions.DeserializationError` — never an ``IndexError`` or
``MemoryError`` from the internals.  A JSON-object twin
(:func:`frame_to_dict` / :func:`frame_from_dict`) round-trips the same
content readably.

**Compression.**  At 10k series per frame the wire size is the scaling cost
of the service tier, and a frame full of delta-varint keys and float64
counts is highly redundant.  A frame may therefore travel inside a
*compressed envelope* (:func:`compress_frame`), a sniffable wrapper around
the unchanged inner frame-v3 bytes::

    magic          2 bytes   b"DZ"
    frame version  varint    3 (the version of the wrapped frame)
    compression    1 byte    0 = none, 1 = zlib, 2 = zstd
    raw length     varint    exact byte length of the decompressed frame
    body           rest      the (compressed) frame-v3 payload

:func:`decode_frame` dispatches on the leading magic, so every consumer of
frame bytes — the service push envelope, the segment log, the
:class:`~repro.service.FrameSpool`, the CLI — handles compressed and plain
frames interchangeably; an *uncompressed* frame is byte-identical to what
previous releases produced.  Decompression is bomb-guarded: the declared
raw length is checked against ``max_decompressed_bytes`` before any
inflation, the decompressor is capped at that length, and a body whose
actual size disagrees with the declaration is rejected — a hostile payload
can never cause a multi-GB allocation.  ``zlib`` is always available;
``zstd`` is a soft dependency (used only when the ``zstandard`` package —
or the stdlib ``compression.zstd`` of Python 3.14+ — is importable, see
:func:`zstd_available`).
"""

from __future__ import annotations

import math
import zlib
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernel
from repro.core.ddsketch import DEFAULT_BIN_LIMIT, BaseDDSketch
from repro.core.uddsketch import UDDSketch
from repro.exceptions import DeserializationError, IllegalArgumentError, ReproError
from repro.kernel.native import DECODED_STORE_COLUMNS
from repro.registry.series import MAX_STRING_BYTES, SeriesKey
from repro.serialization.binary_codec import (
    _MAPPING_CODE,
    _MAPPING_CODES,
    _STORE_CODE,
    _STORE_CODES,
    _UNIFORM_CODE,
    _WINDOW_CODES,
    _BinBudget,
    _decode_sketch,
    encode_sketch,
)
from repro.serialization.encoding import VarintReader, decode_varint, encode_varint
from repro.store import UniformCollapsingDenseStore
from repro.store.dense import CHUNK_SIZE, DenseStore
from repro.store.grouped import SEGMENT_STORE_TYPES

_MAGIC = b"DD"
_COMPRESSED_MAGIC = b"DZ"
_FRAME_VERSION = 3

#: Wire codes of the compression byte inside a compressed frame envelope.
COMPRESSION_CODES = {"none": 0, "zlib": 1, "zstd": 2}
_CODE_TO_COMPRESSION = {code: name for name, code in COMPRESSION_CODES.items()}

#: Ceiling on the *declared* decompressed size of a compressed frame.  A
#: genuine 10k-series frame at 1% accuracy is a few MB; anything claiming
#: more than this is a decompression bomb (or corrupt) and is rejected
#: before any inflation happens.
MAX_DECOMPRESSED_FRAME_BYTES = 256 * 1024 * 1024

#: Series gathered per native encode or decode call.  A snapshot of a large
#: state is coded chunk by chunk, so its bins are never copied all at once.
FRAME_CHUNK_SERIES = 1024

#: Most series keys, and most raw key bytes, the decoder remembers by their
#: raw frame bytes.  Agents push the same keys every interval, so each is
#: parsed and validated once; past either cap the table starts over, so keys
#: from frames the server goes on to reject cannot pile up.
KEY_INTERN_LIMIT = 1 << 16
KEY_INTERN_BYTES = 1 << 23

# Store type -> (wire code, encodes its raw dense window, has a bin limit).
_STORE_INFO = {
    cls: (code, cls in SEGMENT_STORE_TYPES, hasattr(cls, "bin_limit"))
    for cls, code in _STORE_CODE.items()
}

# Store code -> constructor of the decoded state, for the dense windows.
_DECODED_WINDOW = {code: _STORE_CODES[code]._decoded for code in _WINDOW_CODES}

# Raw key bytes -> parsed SeriesKey.  A pure cache: keys are immutable and
# parsing is a function of the bytes alone, so a hit is what parsing gives.
_interned_keys: Dict[bytes, SeriesKey] = {}
_interned_bytes = 0

#: Most mappings the decoder remembers; past it the table starts over.
MAPPING_INTERN_LIMIT = 256

# (mapping code, accuracy, offset bit pattern) -> mapping.  Mappings are
# immutable, so every decoded sketch of one mapping shares one object, across
# frames too: a series stored from one frame then holds the very mapping
# object the next frame's entry carries, and a merge check finds it at once.
_interned_mappings: Dict[Tuple[int, float, int], Any] = {}

#: Minimum wire size of one frame entry: metric (>= 2 bytes), tag count,
#: sketch length, and the smallest well-formed version-2 sketch payload
#: (fixed header floats alone are 56 bytes).  Used to reject series counts
#: that cannot possibly fit in the remaining payload.
_MIN_ENTRY_BYTES = 2 + 1 + 1 + 60


def _load_zstd():
    """Return a ``(compress, decompress_capped)`` pair, or ``None``.

    ``decompress_capped(body, declared)`` must return at most ``declared + 1``
    bytes (so an over-long stream is detectable without inflating it fully)
    and raise :class:`DeserializationError` on malformed input.  Prefers the
    third-party ``zstandard`` package; falls back to the stdlib
    ``compression.zstd`` module of Python 3.14+.
    """
    try:
        import zstandard
    except ImportError:
        zstandard = None
    if zstandard is not None:

        def _compress(data: bytes) -> bytes:
            return zstandard.ZstdCompressor().compress(data)

        def _decompress(body: bytes, declared: int) -> bytes:
            decompressor = zstandard.ZstdDecompressor()
            try:
                return decompressor.decompress(body, max_output_size=declared + 1)
            except zstandard.ZstdError as error:
                raise DeserializationError(
                    f"malformed zstd frame body: {error}"
                ) from error

        return _compress, _decompress
    try:
        from compression import zstd as stdlib_zstd
    except ImportError:
        return None

    def _compress_stdlib(data: bytes) -> bytes:
        return stdlib_zstd.compress(data)

    def _decompress_stdlib(body: bytes, declared: int) -> bytes:
        decompressor = stdlib_zstd.ZstdDecompressor()
        try:
            raw = decompressor.decompress(body, max_length=declared + 1)
        except stdlib_zstd.ZstdError as error:
            raise DeserializationError(f"malformed zstd frame body: {error}") from error
        if not decompressor.eof or decompressor.unused_data:
            # Either the stream continues past the cap (a bomb) or carries
            # trailing garbage; both mean the declaration lied.
            raise DeserializationError(
                "zstd frame body does not match its declared raw length"
            )
        return raw

    return _compress_stdlib, _decompress_stdlib


def zstd_available() -> bool:
    """Whether the optional zstd codec can be used in this environment."""
    return _load_zstd() is not None


def frame_compressions() -> Tuple[str, ...]:
    """The compression names usable for encoding here, in wire-code order."""
    names = ["none", "zlib"]
    if zstd_available():
        names.append("zstd")
    return tuple(names)


def compress_frame(payload: bytes, compression: str = "zlib") -> bytes:
    """Wrap encoded frame-v3 bytes in a compressed envelope.

    ``compression`` is ``"none"`` (returns the input unchanged — a plain
    frame *is* the uncompressed wire form), ``"zlib"``, or ``"zstd"`` (only
    when :func:`zstd_available`).  The input must be a plain frame payload;
    re-compressing an already-compressed envelope is rejected so envelopes
    never nest.
    """
    payload = bytes(payload)
    if compression not in COMPRESSION_CODES:
        raise IllegalArgumentError(
            f"unknown frame compression {compression!r}; "
            f"expected one of {', '.join(sorted(COMPRESSION_CODES))}"
        )
    if payload[:2] != _MAGIC:
        raise IllegalArgumentError(
            "compress_frame expects plain frame-v3 bytes"
            + (" (already compressed)" if payload[:2] == _COMPRESSED_MAGIC else "")
        )
    if compression == "none":
        return payload
    if compression == "zlib":
        body = zlib.compress(payload, 6)
    else:
        codec = _load_zstd()
        if codec is None:
            raise IllegalArgumentError(
                "zstd compression requested but neither the 'zstandard' package "
                "nor stdlib 'compression.zstd' is importable"
            )
        body = codec[0](payload)
    return (
        _COMPRESSED_MAGIC
        + encode_varint(_FRAME_VERSION)
        + bytes((COMPRESSION_CODES[compression],))
        + encode_varint(len(payload))
        + body
    )


def frame_compression(payload: bytes) -> str:
    """Report which compression an encoded frame payload travels under.

    Returns ``"none"`` for a plain frame, the codec name for a compressed
    envelope; raises :class:`DeserializationError` when the payload starts
    with neither magic or the envelope header is malformed.
    """
    payload = bytes(payload)
    if payload[:2] == _MAGIC:
        return "none"
    if payload[:2] != _COMPRESSED_MAGIC:
        raise DeserializationError("payload does not start with a frame magic")
    reader = VarintReader(payload[2:])
    reader.read_varint()  # frame version, validated by the full decode
    code = reader.read_bytes(1)[0]
    if code not in _CODE_TO_COMPRESSION:
        raise DeserializationError(f"unknown frame compression code {code}")
    return _CODE_TO_COMPRESSION[code]


def decompress_frame(
    payload: bytes, max_decompressed_bytes: int = MAX_DECOMPRESSED_FRAME_BYTES
) -> bytes:
    """Unwrap a (possibly) compressed frame envelope to plain frame bytes.

    A plain frame passes through unchanged.  For a compressed envelope the
    declared raw length is validated against ``max_decompressed_bytes``
    *before* inflating, the decompressor output is capped, and any mismatch
    between declaration and actual content is rejected — the decompression
    bomb guard of the wire tier.

    Raises
    ------
    DeserializationError
        Wrong magic, unknown compression code, a declaration exceeding the
        guard, a zstd body without zstd support, a corrupt body, or a body
        whose decompressed size differs from the declaration.
    """
    if not isinstance(payload, (bytes, bytearray, memoryview)):
        raise DeserializationError(
            f"frame payload must be bytes, got {type(payload).__name__}"
        )
    payload = bytes(payload)
    if payload[:2] == _MAGIC:
        return payload
    if payload[:2] != _COMPRESSED_MAGIC:
        raise DeserializationError("payload does not start with a frame magic")
    reader = VarintReader(payload[2:])
    version = reader.read_varint()
    if version != _FRAME_VERSION:
        raise DeserializationError(f"unsupported compressed-frame version {version}")
    code = reader.read_bytes(1)[0]
    if code not in _CODE_TO_COMPRESSION:
        raise DeserializationError(f"unknown frame compression code {code}")
    compression = _CODE_TO_COMPRESSION[code]
    declared = reader.read_varint()
    if declared > max_decompressed_bytes:
        raise DeserializationError(
            f"declared decompressed frame size {declared} exceeds the "
            f"{max_decompressed_bytes}-byte guard"
        )
    body = reader.read_bytes(reader.remaining)
    if compression == "none":
        raw = body
    elif compression == "zlib":
        decompressor = zlib.decompressobj()
        try:
            raw = decompressor.decompress(body, declared + 1)
        except zlib.error as error:
            raise DeserializationError(f"malformed zlib frame body: {error}") from error
        if not decompressor.eof or decompressor.unused_data or decompressor.unconsumed_tail:
            raise DeserializationError(
                "zlib frame body does not match its declared raw length"
            )
    else:
        codec = _load_zstd()
        if codec is None:
            raise DeserializationError(
                "frame is zstd-compressed but neither the 'zstandard' package "
                "nor stdlib 'compression.zstd' is importable"
            )
        raw = codec[1](body, declared)
    if len(raw) != declared:
        raise DeserializationError(
            f"decompressed frame size {len(raw)} differs from the declared {declared}"
        )
    if raw[:2] != _MAGIC:
        # Forbids nesting and catches envelopes around non-frame payloads.
        raise DeserializationError(
            "decompressed body is not a plain frame-v3 payload"
        )
    return raw


def _encode_string(text: str) -> bytes:
    encoded = text.encode("utf-8")
    return encode_varint(len(encoded)) + encoded


def _read_string(reader: VarintReader, what: str) -> str:
    length = reader.read_varint()
    if length > MAX_STRING_BYTES:
        # Real series names are tens of bytes; a longer one is a malformed
        # length field that would otherwise drive a giant slice.
        # SeriesKey refuses longer strings, so the encoder never writes one.
        raise DeserializationError(
            f"{what} length {length} exceeds the sanity limit {MAX_STRING_BYTES}"
        )
    chunk = reader.read_bytes(length)
    try:
        return chunk.decode("utf-8")
    except UnicodeDecodeError as error:
        raise DeserializationError(f"{what} is not valid UTF-8") from error


def encode_frame(
    entries: Iterable[Tuple[SeriesKey, Any]], compression: str = "none"
) -> bytes:
    """Serialize ``(series_key, sketch)`` pairs into one frame payload.

    Accepts any iterable of pairs — a :class:`~repro.registry.SketchRegistry`
    iterates as one.  With the native kernel the entries are gathered into
    columns and encoded by :func:`repro.kernel.encode_frame_columns`, a
    chunk of :data:`FRAME_CHUNK_SERIES` series per call; otherwise each
    sketch is embedded via
    :func:`~repro.serialization.binary_codec.encode_sketch`.  Both give the
    same bytes.  With the default ``compression="none"`` the bytes are
    identical to what earlier releases produced; ``"zlib"``/``"zstd"`` wrap
    the frame in the compressed envelope described in the module docstring.
    """
    entries = [(SeriesKey.of(key), sketch) for key, sketch in entries]
    body = None
    if kernel.columnar_frames():
        body = _encode_columns(entries, kernel.encode_frame_columns)
    if body is None:
        body = _encode_entries(entries)
    frame = _MAGIC + encode_varint(_FRAME_VERSION) + encode_varint(len(entries)) + body
    if compression == "none":
        return frame
    return compress_frame(frame, compression)


def split_for_push(
    entries: Iterable[Tuple[SeriesKey, Any]]
) -> List[List[Tuple[SeriesKey, Any]]]:
    """Split ``entries``, in order, into runs whose frames each pass the
    server's push decode (``decode_frame(..., bin_budget=True)``).

    That budget charges every dense store the key span it decodes to, and
    a store's allocated span (``key_span``) bounds it from above.  The
    entries stay one run unless their allocated spans sum past
    :data:`MAX_DECOMPRESSED_FRAME_BYTES` of float64 bins; every run holds at
    least one entry.
    """
    limit = MAX_DECOMPRESSED_FRAME_BYTES // 8
    runs: List[List[Tuple[SeriesKey, Any]]] = [[]]
    used = 0
    for key, sketch in entries:
        bins = _allocated_bins(sketch.store) + _allocated_bins(sketch.negative_store)
        if used + bins > limit and runs[-1]:
            runs.append([])
            used = 0
        runs[-1].append((key, sketch))
        used += bins
    return runs


def _allocated_bins(store) -> int:
    """Bins a store's decode is charged at most: sparse stores are not charged."""
    return store.key_span if isinstance(store, DenseStore) else 0


def _encode_entries(entries: List[Tuple[SeriesKey, Any]]) -> bytes:
    """The per-sketch encode loop: the reference for the columnar encoder."""
    body = bytearray()
    for key, sketch in entries:
        body += _encode_string(key.metric)
        body += encode_varint(len(key.tags))
        for tag_key, tag_value in key.tags:
            body += _encode_string(tag_key)
            body += _encode_string(tag_value)
        sketch_bytes = encode_sketch(sketch)
        body += encode_varint(len(sketch_bytes))
        body += sketch_bytes
    return bytes(body)


def _encode_columns(
    entries: List[Tuple[SeriesKey, Any]], encode_columns: Callable[..., Optional[bytes]]
) -> Optional[bytes]:
    """Frame entries through ``encode_columns`` (the native encoder), or ``None``.

    ``None`` hands the frame to :func:`_encode_entries`: for a mapping or
    store type without a wire code (which raises there) or a value the
    native pass does not encode.
    """
    parts = []
    for start in range(0, len(entries), FRAME_CHUNK_SERIES):
        part = _encode_chunk(entries[start : start + FRAME_CHUNK_SERIES], encode_columns)
        if part is None:
            return None
        parts.append(part)
    return b"".join(parts)


def _encode_chunk(
    entries: List[Tuple[SeriesKey, Any]], encode_columns: Callable[..., Optional[bytes]]
) -> Optional[bytes]:
    """Gather one chunk's columns and encode it in one native call.

    Dense windows (:data:`~repro.store.grouped.SEGMENT_STORE_TYPES`) pass
    their raw cells, which the native pass scans for non-empty ones; other
    stores pass ``nonzero_bins()``.
    """
    wires = []
    ints: List[int] = []
    floats: List[float] = []
    stores: List[int] = []
    cells = []
    keys = []
    counts = []
    num_cells = 0
    num_pairs = 0
    for key, sketch in entries:
        wires.append(key.wire_bytes)
        mapping = sketch.mapping
        accuracy = mapping.relative_accuracy
        zero_count, count, total = sketch.zero_count, sketch.count, sketch.sum
        minimum = sketch.min if count > 0 else math.nan
        maximum = sketch.max if count > 0 else math.nan
        collapses = getattr(sketch, "collapse_count", 0)
        initial = getattr(sketch, "initial_relative_accuracy", accuracy)
        mapping_code = _MAPPING_CODE.get(type(mapping))
        if mapping_code is None:
            return None
        ints += (mapping_code, int(collapses))
        floats += (
            accuracy, mapping.offset, float(initial), zero_count, count, total, minimum, maximum
        )
        for store in (sketch.store, sketch.negative_store):
            info = _STORE_INFO.get(type(store))
            if info is None:
                return None
            store_code, window, limited = info
            bin_limit = store.bin_limit if limited else 0
            store_collapses = store.collapse_count if store_code == _UNIFORM_CODE else 0
            if window:
                offset, bins = store.bins_window()
                size = bins.size
                stores += (store_code, bin_limit, store_collapses, 1, offset, num_cells, size)
                if size:
                    cells.append(bins)
                    num_cells += size
            else:
                store_keys, store_counts = store.nonzero_bins()
                stores += (
                    store_code, bin_limit, store_collapses, 0, 0, num_pairs, store_keys.size
                )
                keys.append(store_keys)
                counts.append(store_counts)
                num_pairs += store_keys.size
    try:
        columns = (
            np.array(ints, dtype=np.int64),
            np.array(floats, dtype=np.float64),
            np.array(stores, dtype=np.int64),
        )
    except OverflowError:
        return None  # a count or limit past int64: the loop raises or copes
    return encode_columns(
        b"".join(wires),
        np.cumsum([len(wire) for wire in wires], dtype=np.int64),
        *columns,
        np.concatenate(cells) if cells else np.zeros(0),
        np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64),
        np.concatenate(counts) if counts else np.zeros(0),
    )


def decode_frame(
    payload: bytes,
    sketch_cls: Any = None,
    max_decompressed_bytes: Optional[int] = None,
    bin_budget: bool = False,
) -> List[Tuple[SeriesKey, Any]]:
    """Decode a (plain or compressed) frame into ``(series_key, sketch)`` pairs.

    ``list(read_frame(...))``: :func:`read_frame` with every sketch built.
    The arguments and errors are :func:`read_frame`'s, and every call
    returns new sketches that no one else holds.
    """
    return list(read_frame(payload, sketch_cls, max_decompressed_bytes, bin_budget))


def read_frame(
    payload: bytes,
    sketch_cls: Any = None,
    max_decompressed_bytes: Optional[int] = None,
    bin_budget: bool = False,
) -> "DecodedFrame":
    """Decode a (plain or compressed) frame into a :class:`DecodedFrame`.

    Dispatches on the leading magic: a ``b"DZ"`` compressed envelope is
    unwrapped through the bomb-guarded :func:`decompress_frame` first
    (``max_decompressed_bytes`` tightens or relaxes the default guard), a
    plain ``b"DD"`` frame decodes directly.  ``sketch_cls`` is the class
    :func:`~repro.serialization.binary_codec.decode_sketch` would give every
    entry (by default, payloads carrying uniform-collapse stores
    auto-upgrade to :class:`~repro.core.UDDSketch`).

    With ``bin_budget=True`` the frame's dense stores may decode to at most
    :data:`MAX_DECOMPRESSED_FRAME_BYTES` of float64 bins in total, the
    ceiling a compressed frame may inflate to: a short frame declaring long
    key spans is rejected before its bins are allocated.  The server passes
    it for every pushed frame; local decodes (a registry's own frames,
    snapshots, log replay) do not, since a large state legitimately holds
    more bins.  An agent keeps its pushes within the budget with
    :func:`split_for_push`.

    With the native kernel, one :func:`repro.kernel.decode_frame_columns`
    call parses a chunk of :data:`FRAME_CHUNK_SERIES` entries: series keys
    are interned by their raw bytes and one mapping object serves each
    distinct mapping, and the frame keeps the columns, from which it
    builds each sketch when first asked for.  Any input that pass declines
    is decoded by the per-sketch loop instead, which raises the errors
    below and builds every sketch at once.  Either way the whole frame is
    validated here.

    Raises
    ------
    DeserializationError
        For any malformed payload: wrong magic or version, a compressed
        envelope failing its size declaration or guard, series/tag counts
        or string/sketch lengths that cannot fit the remaining bytes,
        invalid UTF-8, duplicate series, corrupt embedded sketches, dense
        stores past the bin budget, or trailing bytes.
    """
    if not isinstance(payload, (bytes, bytearray, memoryview)):
        raise DeserializationError(
            f"frame payload must be bytes, got {type(payload).__name__}"
        )
    payload = bytes(payload)
    if payload[:2] == _COMPRESSED_MAGIC:
        payload = decompress_frame(
            payload,
            max_decompressed_bytes=(
                MAX_DECOMPRESSED_FRAME_BYTES
                if max_decompressed_bytes is None
                else max_decompressed_bytes
            ),
        )
    if payload[:2] != _MAGIC:
        raise DeserializationError("payload does not start with the DDSketch magic bytes")
    limit = MAX_DECOMPRESSED_FRAME_BYTES if bin_budget else None
    if kernel.columnar_frames():
        frame = _decode_columns(payload, sketch_cls, limit, kernel.decode_frame_columns)
        if frame is not None:
            return frame
    entries = _decode_entries(payload, sketch_cls, None if limit is None else _BinBudget(limit))
    return DecodedFrame.of(entries, decoded=True)


# Columns of a decoded store row (FrameColumns.stores) that locate its window.
_LOW, _SIZE, _FIRST_CELL = 5, 6, 9

_BASE_MERGE = BaseDDSketch.merge


class DecodedFrame:
    """A frame's series entries: every key at once, each sketch when first needed.

    :func:`read_frame` returns one.  Iterating it yields ``(series_key,
    sketch)`` pairs in frame order, building each sketch (``list(frame)``
    is what :func:`decode_frame` returns), and :meth:`sketch` builds one.
    A sketch is built once; it is a new object no one else holds, whose
    stores hold their own bins.  A bulk merge may adopt the sketches it
    builds, so a frame goes into one bulk merge.

    Under the native backend the frame keeps each chunk's decoded columns
    (:class:`~repro.kernel.native.FrameColumns`), and a bulk merge
    (:func:`~repro.registry.merge_entries_into`) folds an entry into a
    series already stored without building it: :meth:`check_targets`
    compares the frame's mapping objects, and :meth:`merge_into` reads each
    dense store's window in place from its chunk's ``cells``.  Those cells
    are only read: no stored store ever adopts them.

    Entries that never were a frame take the same shape through :meth:`of`,
    every sketch already built.
    """

    __slots__ = ("keys", "decoded", "_sketches", "_chunks", "_mappings", "_classes", "_states")

    def __init__(self) -> None:
        #: Series keys in frame order.
        self.keys: List[SeriesKey] = []
        #: Whether the decoder made this frame: then its keys are distinct
        #: and no one else holds its sketches.
        self.decoded = True
        self._sketches: List[Any] = []
        # Per chunk: its columns and the builder of its stores.
        self._chunks: List[Tuple[Any, "_StoreBuilder"]] = []
        # Per entry: its mapping and sketch class, or None when every
        # sketch is built already.
        self._mappings: Optional[List[Any]] = []
        self._classes: List[Any] = []
        # Per entry: its state as merge_checked_pairs takes it, or False
        # when a store is not a dense window; None until a merge asks.
        self._states: Optional[List[Any]] = None

    @classmethod
    def of(cls, entries: Iterable[Tuple[Any, Any]], decoded: bool = False) -> "DecodedFrame":
        """``entries`` as a frame: itself when it is one, else its
        ``(series, sketch)`` pairs, keys normalized and sketches as given.

        ``decoded=True`` is for the decoder's own entries (distinct keys,
        sketches no one else holds).
        """
        if isinstance(entries, DecodedFrame):
            return entries
        pairs = list(entries)
        frame = cls()
        frame.keys = [SeriesKey.of(key) for key, _ in pairs]
        frame.decoded = decoded
        frame._sketches = [sketch for _, sketch in pairs]
        frame._mappings = None
        return frame

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Tuple[SeriesKey, Any]]:
        """``(series_key, sketch)`` pairs in frame order, every sketch built."""
        if self._mappings is not None:
            self._build_all()
        return zip(self.keys, self._sketches)

    def sketch(self, index: int) -> Any:
        """Entry ``index``'s sketch, built on first use."""
        sketch = self._sketches[index]
        if sketch is None:
            sketch = self._sketches[index] = self._build(index)
        return sketch

    def counts(self) -> List[float]:
        """Each entry's sketch count, in frame order (no sketch is built)."""
        if self._mappings is None:
            return [sketch.count for sketch in self._sketches]
        counts: List[float] = []
        for columns, _ in self._chunks:
            counts += columns.floats[4::8]
        return counts

    def check_targets(self, targets: Sequence[Any]) -> None:
        """Raise what ``targets[i].check_mergeable(self.sketch(i))`` raises
        for the first ``i`` that does; ``None`` targets are skipped.

        A target whose class keeps :class:`~repro.core.BaseDDSketch`'s check
        and ``mergeable_with`` is compared with the entry's mapping object,
        building nothing; the rest, and a mapping that differs (to raise
        the merge's own error), build the entry.
        """
        if self._mappings is None:
            for target, sketch in zip(targets, self._sketches):
                if target is not None:
                    target.check_mergeable(sketch)
            return
        by_mapping: Dict[Any, bool] = {}
        for index, (target, mapping) in enumerate(zip(targets, self._mappings)):
            if target is None:
                continue
            cls = type(target)
            plain = by_mapping.get(cls)
            if plain is None:
                plain = by_mapping[cls] = (
                    cls.check_mergeable is BaseDDSketch.check_mergeable
                    and cls.mergeable_with is BaseDDSketch.mergeable_with
                )
            if plain and (target._mapping is mapping or target._mapping == mapping):
                continue
            target.check_mergeable(self.sketch(index))

    def merge_into(self, targets: Sequence[Any], indices: Sequence[int]) -> None:
        """Fold entry ``indices[i]`` into ``targets[i]`` for every ``i``, in one bulk pass.

        Bit for bit ``BaseDDSketch.merge_checked_pairs(targets,
        [self.sketch(i) for i in indices])``, under its conditions: every
        pair checked, no target twice.  An entry whose two stores are dense
        windows goes into a target that keeps
        :meth:`~repro.core.BaseDDSketch.merge` as its decoded state, with
        its windows read in place; every other pair builds its entry.
        """
        if self._mappings is None:
            sources = [self._sketches[index] for index in indices]
        else:
            if self._states is None and targets:
                self._states = [
                    state for columns, builder in self._chunks
                    for state in _decoded_states(columns, builder.store_at)
                ]
            states = self._states
            sketch = self.sketch
            sources = [
                (type(target).merge is _BASE_MERGE and states[index]) or sketch(index)
                for target, index in zip(targets, indices)
            ]
        BaseDDSketch.merge_checked_pairs(targets, sources)

    def _build(self, index: int) -> Any:
        """Entry ``index``'s sketch from its columns, in its per-sketch decode state."""
        chunk, row = divmod(index, FRAME_CHUNK_SERIES)
        columns, builder = self._chunks[chunk]
        return _decoded_sketch(
            self._classes[index], self._mappings[index],
            builder.store_at(2 * row), builder.store_at(2 * row + 1),
            columns.floats[8 * row : 8 * row + 8], columns.ints[4 * row + 3],
        )

    def _build_all(self) -> None:
        """Build every sketch not built yet: :meth:`_build` over whole chunks."""
        sketches = self._sketches
        width = DECODED_STORE_COLUMNS
        for chunk, (columns, builder) in enumerate(self._chunks):
            first = chunk * FRAME_CHUNK_SERIES
            end = first + len(columns.totals) // 2
            build = builder.build
            # zip recycles its result tuples, so the loop allocates nothing
            # per row; `rows` and `totals` appear twice because each entry
            # takes two stores, positive first.
            rows = zip(*[iter(columns.stores)] * width)
            totals = iter(columns.totals)
            for index, cls, mapping, collapses, summary, positive, negative, \
                    positive_total, negative_total in zip(
                        range(first, end), self._classes[first:end], self._mappings[first:end],
                        columns.ints[3::4], zip(*[iter(columns.floats)] * 8),
                        rows, rows, totals, totals,
                    ):
                if sketches[index] is None:
                    sketches[index] = _decoded_sketch(
                        cls, mapping, build(positive, positive_total),
                        build(negative, negative_total), summary, collapses,
                    )


def _decoded_sketch(cls, mapping, store, negative_store, summary, collapses: int) -> Any:
    """A sketch of class ``cls`` in its per-sketch decode state; ``summary``
    is the entry's eight header floats (``FrameColumns.floats``)."""
    _, _, initial, zero_count, count, total, minimum, maximum = summary
    sketch = cls._decoded(mapping, store, negative_store, zero_count, count, total, minimum, maximum)
    if type(store) is UniformCollapsingDenseStore:
        sketch._collapse_count = collapses
        sketch._initial_relative_accuracy = initial
        sketch._bin_limit = store.bin_limit
    return sketch


def _decoded_states(columns, store_at: Callable[[int], Any]) -> List[Any]:
    """Each entry of a chunk as :meth:`~repro.core.BaseDDSketch.merge_checked_pairs`
    takes a decoded sketch, or ``False`` when a store is not a dense window.

    A store is ``None`` when empty, else a merge source window over the
    chunk's ``cells`` (:func:`~repro.store.grouped.merge_store_pairs`) that
    ``store_at`` builds.
    """
    cells = columns.cells
    stores = columns.stores
    width = DECODED_STORE_COLUMNS
    windows = [
        (cells, first, size, low, total, store_at, index) if total > 0.0 else None
        for index, (first, size, low, total) in enumerate(zip(
            stores[_FIRST_CELL::width], stores[_SIZE::width], stores[_LOW::width], columns.totals
        ))
    ]
    codes = stores[::width]
    floats = columns.floats
    return [
        (zero_count, count, total, minimum, maximum, positive, negative)
        if positive_code in _WINDOW_CODES and negative_code in _WINDOW_CODES
        else False
        for zero_count, count, total, minimum, maximum, positive, negative, positive_code,
        negative_code in zip(
            floats[3::8], floats[4::8], floats[5::8], floats[6::8], floats[7::8],
            windows[0::2], windows[1::2], codes[0::2], codes[1::2],
        )
    ]


def _decode_entries(
    payload: bytes, sketch_cls: Any, budget: Optional[_BinBudget]
) -> List[Tuple[SeriesKey, Any]]:
    """The per-sketch decode loop: the oracle for the columnar decoder.

    Every error message of :func:`read_frame` comes from here.
    """
    reader = VarintReader(payload[2:])
    entries: List[Tuple[SeriesKey, Any]] = []
    seen: set = set()
    try:
        version = reader.read_varint()
        if version != _FRAME_VERSION:
            raise DeserializationError(f"unsupported frame version {version}")
        num_series = reader.read_varint()
        if num_series > reader.remaining // _MIN_ENTRY_BYTES:
            raise DeserializationError(
                f"series count {num_series} cannot fit in the remaining payload"
            )
        for _ in range(num_series):
            metric = _read_string(reader, "metric name")
            num_tags = reader.read_varint()
            if num_tags > reader.remaining // 2:
                raise DeserializationError(
                    f"tag count {num_tags} cannot fit in the remaining payload"
                )
            tags = tuple(
                (_read_string(reader, "tag key"), _read_string(reader, "tag value"))
                for _ in range(num_tags)
            )
            sketch_length = reader.read_varint()
            if sketch_length > reader.remaining:
                raise DeserializationError(
                    f"sketch length {sketch_length} exceeds the remaining payload"
                )
            sketch_bytes = reader.read_bytes(sketch_length)
            key = SeriesKey(metric, tags)
            if key in seen:
                raise DeserializationError(f"duplicate series {key} in frame")
            seen.add(key)
            entries.append((key, _decode_sketch(sketch_bytes, sketch_cls, budget)))
        if not reader.exhausted:
            raise DeserializationError(
                f"{reader.remaining} trailing bytes after the frame"
            )
    except DeserializationError:
        raise
    except ReproError as error:
        # Anything the library itself rejected (e.g. a malformed SeriesKey)
        # means the payload is bad.
        raise DeserializationError(f"malformed frame payload: {error}") from error
    return entries


class _Declined(Exception):
    """The columnar decode cannot reproduce the per-sketch loop for a frame."""


def _decode_columns(
    payload: bytes, sketch_cls: Any, limit: Optional[int], decode_columns: Callable[..., Any]
) -> Optional[DecodedFrame]:
    """Decode a plain frame through ``decode_columns`` (the native pass), or ``None``.

    ``None`` sends the frame to :func:`_decode_entries`: malformed input,
    which that loop rejects with its exact message, or well-formed input
    outside the native pass (version-1 sketches, non-positive counts).
    """
    try:
        version, position = decode_varint(payload, 2)
        num_series, position = decode_varint(payload, position)
    except DeserializationError:
        return None
    if version != _FRAME_VERSION or num_series > (len(payload) - position) // _MIN_ENTRY_BYTES:
        return None
    budget = np.array([limit is not None, (limit or 0) // 8], dtype=np.int64)
    reader = _EntryReader(payload, sketch_cls)
    while num_series:
        count = min(num_series, FRAME_CHUNK_SERIES)
        columns = decode_columns(payload, position, count, budget, CHUNK_SIZE, DEFAULT_BIN_LIMIT)
        if columns is None:
            return None
        try:
            reader.add(columns)
        except _Declined:
            return None
        position = columns.end
        num_series -= count
    return reader.frame if position == len(payload) else None


class _EntryReader:
    """Reads a frame's entries from native frame columns, chunk by chunk:
    each entry's key, mapping and sketch class (its sketch is built later)."""

    def __init__(self, payload: bytes, sketch_cls: Any) -> None:
        self.payload = payload
        self.sketch_cls = BaseDDSketch if sketch_cls is None else sketch_cls
        self.frame = DecodedFrame()
        self.seen: set = set()
        # Sketch class per number of uniform-collapse stores, checked once.
        self.classes: Dict[int, Any] = {}

    def add(self, columns) -> None:
        """Append one chunk's entries; raise :class:`_Declined` on any doubt."""
        payload = self.payload
        seen = self.seen
        frame = self.frame
        keys = frame.keys
        add_key = keys.append
        add_mapping = frame._mappings.append
        add_class = frame._classes.append
        classes = self.classes
        mapping_id = mapping = None
        ints = columns.ints
        floats = columns.floats
        # Each entry's positive store code, then its negative store code.
        codes = columns.stores[::DECODED_STORE_COLUMNS]
        for (
            key_start, key_end, mapping_code, accuracy, offset, offset_bits, positive, negative
        ) in zip(
            ints[0::4], ints[1::4], ints[2::4], floats[0::8], floats[1::8],
            columns.offset_bits, codes[0::2], codes[1::2],
        ):
            raw = payload[key_start:key_end]
            key = _interned_keys.get(raw)
            if key is None:
                key = _intern_key(raw)
            seen.add(key)
            add_key(key)
            if mapping_id != (mapping_code, accuracy, offset_bits):
                mapping_id = (mapping_code, accuracy, offset_bits)
                mapping = _interned_mappings.get(mapping_id)
                if mapping is None:
                    mapping = _intern_mapping(mapping_id, offset)
            add_mapping(mapping)
            uniform = (positive == _UNIFORM_CODE) + (negative == _UNIFORM_CODE)
            cls = classes.get(uniform)
            if cls is None:
                cls = self._sketch_class(uniform)
            if uniform and offset != 0.0:
                raise _Declined
            add_class(cls)
        if len(seen) != len(keys):
            raise _Declined  # a duplicate series
        added = len(ints) // 4
        frame._sketches += [None] * added
        frame._chunks.append((columns, _StoreBuilder(columns)))

    def _sketch_class(self, uniform: int) -> Any:
        """The decoded class for ``uniform`` uniform-collapse stores (as
        :func:`~repro.serialization.binary_codec.decode_sketch` picks it)."""
        cls = self.sketch_cls
        if cls is BaseDDSketch and uniform:
            cls = UDDSketch
        if uniform and not issubclass(cls, UDDSketch):
            raise _Declined
        if issubclass(cls, UDDSketch) and uniform != 2:
            raise _Declined
        self.classes[uniform] = cls
        return cls


class _StoreBuilder:
    """Rebuilds each store of a column chunk in its per-sketch decode state."""

    def __init__(self, columns) -> None:
        self.cells = columns.cells
        self.keys = columns.keys
        self.counts = columns.counts
        self.stores = columns.stores
        self.totals = columns.totals

    def store_at(self, index: int):
        """Store ``index`` of the chunk (each entry's positive store first),
        holding a copy of its window."""
        first = index * DECODED_STORE_COLUMNS
        return self.build(self.stores[first : first + DECODED_STORE_COLUMNS], self.totals[index])

    def build(self, row: List[int], total: float):
        """The store of one column row; its count total is ``total``."""
        code, limit, collapses, first_pair, pairs, low, size, collapsed, positive, first = row
        if code in _WINDOW_CODES:
            return _DECODED_WINDOW[code](
                self.cells[first : first + size].copy() if pairs else np.zeros(0),
                low, total, positive, limit, collapsed == 1,
            )
        if code == _UNIFORM_CODE:
            store = UniformCollapsingDenseStore(bin_limit=limit)
        else:
            store = _STORE_CODES[code]()
        if pairs:
            end = first_pair + pairs
            store.add_batch(self.keys[first_pair:end], self.counts[first_pair:end])
        if code == _UNIFORM_CODE:
            store._collapse_count = collapses
        return store


def _intern_mapping(mapping_id: Tuple[int, float, int], offset: float):
    """The key mapping a sketch header declares, remembered; or :class:`_Declined`."""
    code, accuracy, _ = mapping_id
    try:
        mapping = _MAPPING_CODES[code](accuracy, offset=offset)
    except ReproError:
        raise _Declined from None
    if len(_interned_mappings) >= MAPPING_INTERN_LIMIT:
        _interned_mappings.clear()
    _interned_mappings[mapping_id] = mapping
    return mapping


def _intern_key(raw: bytes) -> SeriesKey:
    """Parse one entry's series-key bytes and remember the key."""
    global _interned_bytes
    reader = VarintReader(raw)
    try:
        metric = _read_string(reader, "metric name")
        tags = tuple(
            (_read_string(reader, "tag key"), _read_string(reader, "tag value"))
            for _ in range(reader.read_varint())
        )
        key = SeriesKey(metric, tags)
    except ReproError:
        raise _Declined from None
    size = len(raw)
    if len(_interned_keys) >= KEY_INTERN_LIMIT or _interned_bytes + size > KEY_INTERN_BYTES:
        _interned_keys.clear()
        _interned_bytes = 0
        if size > KEY_INTERN_BYTES:
            return key
    _interned_keys[raw] = key
    _interned_bytes += size
    return key


def frame_to_dict(entries: Iterable[Tuple[SeriesKey, Any]]) -> Dict[str, Any]:
    """JSON-friendly twin of :func:`encode_frame`."""
    series = []
    for key, sketch in entries:
        key = SeriesKey.of(key)
        series.append(
            {
                "metric": key.metric,
                "tags": {tag_key: tag_value for tag_key, tag_value in key.tags},
                "sketch": sketch.to_dict(),
            }
        )
    return {"version": _FRAME_VERSION, "series": series}


def frame_from_dict(payload: Dict[str, Any]) -> List[Tuple[SeriesKey, Any]]:
    """Rebuild ``(series_key, sketch)`` pairs from :func:`frame_to_dict` output.

    Applies the same auto-upgrade rule as the binary path: a series whose
    positive store carries uniform-collapse state decodes to
    :class:`~repro.core.UDDSketch`.
    """
    if not isinstance(payload, dict):
        raise DeserializationError("expected a JSON object at the top level")
    if payload.get("version") != _FRAME_VERSION:
        raise DeserializationError(
            f"unsupported frame version {payload.get('version')!r}"
        )
    series = payload.get("series")
    if not isinstance(series, list):
        raise DeserializationError("the 'series' section must be an array")
    entries: List[Tuple[SeriesKey, Any]] = []
    seen: set = set()
    for entry in series:
        try:
            if not isinstance(entry, dict):
                raise DeserializationError("every series entry must be an object")
            tags = entry.get("tags", {})
            if not isinstance(tags, dict):
                raise DeserializationError("the 'tags' section must be an object")
            key = SeriesKey(entry["metric"], tuple(tags.items()))
            sketch_payload = entry["sketch"]
            if not isinstance(sketch_payload, dict):
                raise DeserializationError("the 'sketch' section must be an object")
            store_payload = sketch_payload.get("store")
            sketch_cls = BaseDDSketch
            if (
                isinstance(store_payload, dict)
                and store_payload.get("type") == "UniformCollapsingDenseStore"
            ):
                sketch_cls = UDDSketch
            sketch = sketch_cls.from_dict(sketch_payload)
        except DeserializationError:
            raise
        except ReproError as error:
            raise DeserializationError(f"malformed frame payload: {error}") from error
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise DeserializationError(f"malformed frame payload: {error}") from error
        if key in seen:
            raise DeserializationError(f"duplicate series {key} in frame")
        seen.add(key)
        entries.append((key, sketch))
    return entries
