"""The pure-NumPy reference backend of the columnar ingest kernel.

This backend *is* the semantics: every operation here performs exactly the
array expressions the pre-kernel code paths performed (mask comparisons,
``key_batch`` per sign, ``clip`` + ``bincount`` binning, the flat-index
grouped ``bincount``, and the per-bucket varint codec loops), so refactoring
the sketch/store layers onto the kernel changed no observable byte anywhere.
The optional native backend (:mod:`repro.kernel.native`) is validated against
this one — at load time by a self-test and continuously by the
``tests/test_kernel_backends.py`` property suite.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernel.segments import (
    NEGATIVE,
    POSITIVE,
    Selection,
    SignSplit,
)


class NumpySignSplit(SignSplit):
    """Eager mask-based sign split (the historical ``add_batch`` pass)."""

    __slots__ = ("_mapping", "_masks", "_keys", "_ranges")

    def __init__(self, mapping, values: "np.ndarray") -> None:
        min_possible = mapping.min_possible
        positive_mask = values > min_possible
        negative_mask = values < -min_possible
        super().__init__(
            values,
            int(np.count_nonzero(positive_mask)),
            int(np.count_nonzero(negative_mask)),
        )
        self._mapping = mapping
        self._masks = {POSITIVE: positive_mask, NEGATIVE: negative_mask}
        self._keys: dict = {}
        self._ranges: dict = {}

    def mask_for(self, sign: int) -> "np.ndarray":
        """Full-length boolean mask of the samples with the given sign."""
        return self._masks[sign]

    def keys_for(self, sign: int) -> "np.ndarray":
        """Compressed keys via one :meth:`KeyMapping.key_batch` call per sign."""
        keys = self._keys.get(sign)
        if keys is None:
            selected = self.values[self._masks[sign]]
            if sign == NEGATIVE:
                selected = -selected
            keys = self._mapping.key_batch(selected)
            self._keys[sign] = keys
        return keys

    def key_range(self, sign: int) -> Tuple[int, int]:
        """``(min_key, max_key)`` from the compressed key array."""
        cached = self._ranges.get(sign)
        if cached is None:
            keys = self.keys_for(sign)
            cached = (int(keys.min()), int(keys.max()))
            self._ranges[sign] = cached
        return cached


class NumpyBackend:
    """Kernel backend implemented entirely with NumPy array expressions."""

    name = "numpy"
    #: No columnar frame pass: frames take the per-sketch loop of
    #: :mod:`repro.serialization.frame`, the codec's oracle.
    columnar_frames = False
    #: No bulk store merge either: every pair takes ``Store.merge``, the
    #: oracle of :func:`repro.kernel.merge_windows` and
    #: :func:`repro.kernel.move_windows`.
    window_merges = False

    def split_keys(self, mapping, values: "np.ndarray") -> NumpySignSplit:
        """Sign-split a value batch and prepare per-sign key computation."""
        return NumpySignSplit(mapping, values)

    def bin_selection(self, selection: Selection, lo: int, hi: int) -> "np.ndarray":
        """Bin a selection into the contiguous key window ``[lo, hi]``.

        Out-of-window keys clip onto the boundary cells — exactly where a
        bounded store's per-item path folds them.  ``bincount`` accumulates
        in input order, so fractional weights sum in the same order as a
        per-item loop.
        """
        indices = np.clip(selection.keys, lo, hi) - lo
        return np.bincount(indices, weights=selection.weights, minlength=hi - lo + 1)

    def group_key_ranges(
        self, group_indices: "np.ndarray", keys: "np.ndarray", num_groups: int
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Per-group key extrema via one scatter-min and one scatter-max."""
        min_keys = np.full(num_groups, np.iinfo(np.int64).max, dtype=np.int64)
        max_keys = np.full(num_groups, np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(min_keys, group_indices, keys)
        np.maximum.at(max_keys, group_indices, keys)
        return min_keys, max_keys

    def bin_grouped(
        self,
        group_indices: "np.ndarray",
        keys: "np.ndarray",
        weights: Optional["np.ndarray"],
        row_bases: "np.ndarray",
        num_cells: int,
        scratch=None,
    ) -> "np.ndarray":
        """One combined ``bincount`` over the flat index ``row_bases[group] + key``.

        ``scratch`` (a :class:`repro.store.grouped.GroupedScratch`) lets a
        registry's single-writer grouped ingest reuse the batch-sized
        flat-index temporary; the in-place arithmetic produces bit-identical
        indices.
        """
        if scratch is None:
            flat = row_bases[group_indices] + keys
        else:
            flat = scratch.flat_index(keys.size)
            np.take(row_bases, group_indices, out=flat)
            flat += keys
        return np.bincount(flat, weights=weights, minlength=num_cells)

    def encode_bucket_pairs(self, deltas: "np.ndarray", counts: "np.ndarray") -> bytes:
        """Encode ``(zig-zag delta, float64 count)`` pairs to wire bytes."""
        from repro.serialization.encoding import encode_float, encode_zigzag

        out = bytearray()
        for delta, count in zip(deltas.tolist(), counts.tolist()):
            out += encode_zigzag(delta)
            out += encode_float(count)
        return bytes(out)

    def decode_bucket_pairs(self, reader, num_buckets: int) -> Tuple["np.ndarray", "np.ndarray"]:
        """Decode ``num_buckets`` wire pairs, advancing ``reader``.

        Raises the codec's exact error contract
        (:class:`~repro.exceptions.DeserializationError` on truncated or
        over-long varints, ``OverflowError`` on deltas outside ``int64``)
        because it *is* the historical per-bucket loop.
        """
        deltas = np.empty(num_buckets, dtype=np.int64)
        counts = np.empty(num_buckets, dtype=np.float64)
        for index in range(num_buckets):
            deltas[index] = reader.read_zigzag()
            counts[index] = reader.read_float()
        return deltas, counts

    def encode_proto_bins(self, keys: "np.ndarray", counts: "np.ndarray") -> bytes:
        """Encode sparse bins as DataDog-proto ``binCounts`` map entries."""
        return compose_proto_bins(self.encode_bucket_pairs(keys, counts), keys)


def zigzag_byte_lengths(keys: "np.ndarray") -> "np.ndarray":
    """Per-key byte length of the zig-zag varint encoding, vectorized.

    Mirrors :func:`repro.serialization.encoding.encode_zigzag` exactly: the
    signed key is zig-zag mapped to an unsigned integer, whose base-128
    varint occupies one byte per started 7-bit group.
    """
    keys = np.asarray(keys, dtype=np.int64)
    mapped = ((keys << 1) ^ (keys >> 63)).view(np.uint64)
    lengths = np.ones(keys.size, dtype=np.int64)
    mapped = mapped >> np.uint64(7)
    while mapped.any():
        lengths += mapped != 0
        mapped = mapped >> np.uint64(7)
    return lengths


def compose_proto_bins(pairs: bytes, keys: "np.ndarray") -> bytes:
    """Assemble proto map entries around pre-encoded ``(zigzag, float)`` pairs.

    ``pairs`` is the output of ``encode_bucket_pairs(keys, counts)`` — the
    concatenation of ``zigzag(key) + float64(count)`` per bin.  Each bin
    becomes one ``binCounts`` map-entry submessage of the DataDog ``Store``
    proto: field 1 (``sint32`` key, tag ``0x08``) followed by field 2
    (``double`` count, tag ``0x11``), wrapped in a length-delimited field-1
    tag (``0x0a``).  Shared by both kernel backends, so the proto bytes are
    identical by construction wherever the bucket pairs are (which
    ``tests/test_kernel_backends.py`` pins).
    """
    from repro.serialization.encoding import encode_varint

    lengths = zigzag_byte_lengths(keys)
    out = bytearray()
    offset = 0
    view = memoryview(pairs)
    for zigzag_length in lengths.tolist():
        pair_length = zigzag_length + 8
        # 1 tag byte before the key, 1 before the count.
        out += b"\x0a" + encode_varint(pair_length + 2)
        out += b"\x08" + bytes(view[offset : offset + zigzag_length])
        out += b"\x11" + bytes(view[offset + zigzag_length : offset + pair_length])
        offset += pair_length
    return bytes(out)
