"""The columnar ingest kernel: one engine behind every ingest path.

``repro.kernel`` is the single place where values become *(keys, counts)*
segments.  The scalar :meth:`~repro.core.BaseDDSketch.add`, the vectorized
:meth:`~repro.core.BaseDDSketch.add_batch`, the grouped high-cardinality
pipeline (:func:`repro.store.grouped.add_grouped_batch`), the registry flush
paths, and the frame-v3 bucket codec all call into this module instead of
carrying their own key-computation or binning loops.

Two interchangeable backends implement the inner loops:

* ``numpy`` — the pure-NumPy reference (:mod:`repro.kernel.reference`),
  always available, and definitionally correct;
* ``native`` — a small C library compiled on demand from
  ``src/repro/kernel/_kernel.c`` and loaded via ctypes
  (:mod:`repro.kernel.native`).  A *soft* dependency: it requires only a C
  compiler on the host, and silently gives way to NumPy when one is missing.

Selection: :func:`set_backend` programmatically, or the ``REPRO_KERNEL``
environment variable (``auto`` — the default — prefers native when it can be
built and self-tested; ``numpy`` forces the reference; ``native`` requires
the compiled backend, warning and falling back if unavailable).  Both
backends are bit-exact down to serialized frame bytes — enforced by a native
load-time self-test and by ``tests/test_kernel_backends.py``.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from repro.exceptions import IllegalArgumentError
from repro.kernel.segments import (
    NEGATIVE,
    POSITIVE,
    ZERO,
    Selection,
    SignSplit,
    apply_segments,
    classify_value,
    coerce_values_weights,
    selection_from_keys,
)

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "ZERO",
    "Selection",
    "SignSplit",
    "active_backend",
    "apply_segments",
    "backend_info",
    "bin_grouped",
    "bin_selection",
    "classify_value",
    "coerce_values_weights",
    "columnar_frames",
    "compute_keys",
    "decode_bucket_pairs",
    "decode_frame_columns",
    "encode_bucket_pairs",
    "encode_frame_columns",
    "encode_proto_bins",
    "fold_rows",
    "fold_scalars",
    "fold_windows",
    "group_key_ranges",
    "merge_entries",
    "merge_rows",
    "merge_windows",
    "move_windows",
    "native_available",
    "selection_from_keys",
    "set_backend",
    "used_edges",
    "window_merges",
]

#: Environment variable selecting the kernel backend (``auto``/``numpy``/``native``).
BACKEND_ENV = "REPRO_KERNEL"

_VALID_CHOICES = ("auto", "numpy", "native")

_active = None  # resolved lazily on first kernel call


def _numpy_backend():
    from repro.kernel.reference import NumpyBackend

    return NumpyBackend()


def _resolve_backend(choice: str, *, strict: bool):
    """Instantiate the backend for ``choice``.

    ``strict`` controls what happens when ``native`` is requested but
    unavailable: raise (programmatic :func:`set_backend`) versus warn and
    fall back (environment-variable selection, which must never break a
    deployment that merely lost its compiler).
    """
    if choice == "numpy":
        return _numpy_backend()
    from repro.kernel.native import NativeKernelUnavailable, load_native_backend

    if choice == "native":
        try:
            return load_native_backend()
        except NativeKernelUnavailable as error:
            if strict:
                raise IllegalArgumentError(
                    f"native kernel backend unavailable: {error}"
                ) from error
            warnings.warn(
                f"REPRO_KERNEL=native requested but unavailable ({error}); "
                "falling back to the numpy backend",
                RuntimeWarning,
                stacklevel=3,
            )
            return _numpy_backend()
    # auto: prefer native, quietly use numpy otherwise.
    try:
        return load_native_backend()
    except NativeKernelUnavailable:
        return _numpy_backend()


def _backend():
    """The active backend object, resolving ``REPRO_KERNEL`` on first use."""
    global _active
    if _active is None:
        choice = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
        if choice not in _VALID_CHOICES:
            warnings.warn(
                f"unknown {BACKEND_ENV}={choice!r} (expected one of "
                f"{', '.join(_VALID_CHOICES)}); using auto",
                RuntimeWarning,
                stacklevel=3,
            )
            choice = "auto"
        _active = _resolve_backend(choice, strict=False)
    return _active


def set_backend(name: str) -> str:
    """Select the kernel backend programmatically.

    ``name`` is ``"numpy"``, ``"native"``, or ``"auto"``.  Requesting
    ``"native"`` when it cannot be compiled/loaded raises
    :class:`~repro.exceptions.IllegalArgumentError` (unlike the environment
    variable, which warns and falls back).  Returns the name of the backend
    now active.  Existing sketches are unaffected retroactively; the backend
    only changes how *future* kernel calls execute — results are bit-exact
    either way.
    """
    global _active
    choice = str(name).strip().lower()
    if choice not in _VALID_CHOICES:
        raise IllegalArgumentError(
            f"unknown kernel backend {name!r}; expected one of {', '.join(_VALID_CHOICES)}"
        )
    _active = _resolve_backend(choice, strict=True)
    return _active.name


def active_backend() -> str:
    """Name of the backend currently serving kernel calls (``numpy``/``native``)."""
    return _backend().name


def native_available() -> bool:
    """Whether the compiled backend can be built, loaded, and self-tested here."""
    from repro.kernel.native import availability

    return availability()[0]


def backend_info() -> dict:
    """Diagnostics for ``--version`` output and BENCH artifacts.

    Returns a dict with the ``active`` backend name, whether ``native`` is
    available, the unavailability ``reason`` (or ``None``), and the raw
    ``REPRO_KERNEL`` environment setting.
    """
    from repro.kernel.native import availability

    available, reason = availability()
    return {
        "active": active_backend(),
        "native_available": available,
        "native_unavailable_reason": reason,
        "env": os.environ.get(BACKEND_ENV),
    }


def compute_keys(mapping, values) -> SignSplit:
    """Sign-split a float64 value batch and compute its bucket keys.

    The single kernel behind every batch ingest path: values strictly above
    ``mapping.min_possible`` map through ``mapping``'s key function, values
    strictly below its negation map by magnitude, and the remainder land in
    the zero bucket.  Returns a :class:`SignSplit` exposing per-sign masks,
    compressed keys, key ranges, and :meth:`~SignSplit.selection` packaging.
    """
    return _backend().split_keys(mapping, values)


def bin_selection(selection: Selection, lo: int, hi: int):
    """Bin a :class:`Selection` into the key window ``[lo, hi]``.

    Returns a dense count array of ``hi - lo + 1`` cells; out-of-window keys
    accumulate onto the boundary cells, matching bounded-store folding.
    """
    return _backend().bin_selection(selection, lo, hi)


def group_key_ranges(group_indices, keys, num_groups):
    """Per-group ``(min_keys, max_keys)`` of a grouped batch, in one pass.

    Both are ``int64`` arrays of ``num_groups`` entries; a group without
    samples keeps the sentinels ``min_keys[g] > max_keys[g]``.  The caller
    guarantees every group index lies in ``[0, num_groups)`` (the native
    backend does not bounds-check).
    """
    return _backend().group_key_ranges(group_indices, keys, num_groups)


def bin_grouped(group_indices, keys, weights, row_bases, num_cells, scratch=None):
    """Bin a grouped batch into one flat buffer of per-group rows.

    Cell ``row_bases[g] + k`` accumulates the weight of every sample with
    group ``g`` and key ``k``; the caller guarantees every group index
    indexes ``row_bases`` and lays the rows out so that every such cell
    falls in ``[0, num_cells)``.  Returns the ``num_cells``
    cells.  ``scratch`` optionally recycles the reference backend's
    flat-index temporary for single-writer callers.
    """
    return _backend().bin_grouped(
        group_indices, keys, weights, row_bases, num_cells, scratch=scratch
    )


def encode_bucket_pairs(deltas, counts) -> bytes:
    """Encode frame-v3 ``(zig-zag key delta, float64 count)`` bucket pairs."""
    return _backend().encode_bucket_pairs(deltas, counts)


def decode_bucket_pairs(reader, num_buckets: int):
    """Decode ``num_buckets`` frame-v3 bucket pairs from a varint reader.

    Returns ``(deltas, counts)`` arrays and advances ``reader`` past the
    consumed bytes; malformed input raises the codec's historical exceptions.
    """
    return _backend().decode_bucket_pairs(reader, num_buckets)


def columnar_frames() -> bool:
    """Whether the active backend codes whole frames in one pass.

    Only the native backend does.  Under the NumPy backend
    :func:`~repro.serialization.frame.encode_frame` and
    :func:`~repro.serialization.frame.decode_frame` run their per-sketch
    loop, the reference both backends must agree with byte for byte.
    """
    return _backend().columnar_frames


def encode_frame_columns(key_bytes, key_ends, ints, floats, stores, cells, keys, counts):
    """Encode frame-v3 entries from gathered columns in one native pass.

    ``key_bytes`` holds the entries' series-key bytes end to end
    (``key_ends`` marks where each stops); ``ints`` rows are (mapping code,
    sketch collapse count); ``floats`` rows are (accuracy, offset, initial
    accuracy, zero count, count, sum, min, max).  ``stores`` has one row per
    store, positive store first: (code, bin limit, collapse count, window
    flag, window start key, first cell or pair, length).  A window store's
    cells are read from ``cells`` and its positive cells written as
    buckets; any other store lists its buckets in ``keys``/``counts``.
    Returns the entries' bytes, or ``None`` for a value the pass does not
    encode (the per-sketch loop then raises its error).  Only for backends
    with :func:`columnar_frames`.
    """
    return _backend().encode_frame_columns(
        key_bytes, key_ends, ints, floats, stores, cells, keys, counts
    )


def decode_frame_columns(payload, start, count, budget, dense_chunk, default_bin_limit):
    """Parse ``count`` frame-v3 entries from ``payload[start:]`` in one native pass.

    Returns a :class:`~repro.kernel.native.FrameColumns` chunk — each
    entry's key span and sketch header, each store's header, buckets and
    (for the dense families) the window ``add_batch`` into an empty store
    would give, already binned — or ``None`` for anything the pass does not
    decode exactly as the per-sketch loop, malformed input included.
    ``budget`` is an ``int64`` pair ``[enforced, remaining cells]`` charged
    with every dense store's key span; ``dense_chunk`` and
    ``default_bin_limit`` are the plain dense store's allocation chunk and
    the bin limit a zero on the wire stands for.  Only for backends with
    :func:`columnar_frames`.
    """
    return _backend().decode_frame_columns(
        payload, start, count, budget, dense_chunk, default_bin_limit
    )


def window_merges() -> bool:
    """Whether the active backend merges many store pairs in one pass.

    Only the native backend does.  Under the NumPy backend every pair of a
    bulk merge (:func:`repro.store.grouped.merge_store_pairs`) goes through
    ``Store.merge``, the oracle :func:`merge_windows`, :func:`move_windows`
    and :func:`fold_windows` must agree with, every fold
    (:meth:`repro.core.BaseDDSketch.fold`) takes the copy-first loop, and
    every bounds pass
    (:meth:`repro.core.BaseDDSketch.quantile_bound_columns`) the
    per-sketch ``quantile_bounds`` loop, the oracle of :func:`used_edges`.
    The row forms (:func:`merge_entries`, :func:`merge_rows`,
    :func:`fold_rows`) and :func:`fold_scalars` serve the service's
    columnar window buckets (:mod:`repro.service.buckets`), which fall back
    to the same oracles.
    """
    return _backend().window_merges


def merge_windows(targets, pairs, sources):
    """Add many source windows into their target stores' bins, in one pass.

    ``targets`` lists each ``(target, source)`` dense-store pair's target
    bins (non-empty, contiguous, writable ``float64`` arrays), in merge
    order, and ``pairs`` has one ``int64`` row per pair: the target's key
    offset, kind (0 plain dense, 1 collapsing lowest, 2 collapsing highest)
    and bin limit (unused for a plain dense store), then the source
    window's key offset, buffer (an index into ``sources``), first cell in
    that buffer and size.  ``sources`` is
    a sequence of ``float64`` buffers holding the source windows; each
    window is read in place when its pair is merged.

    A pair is accepted only when ``Store.merge`` would leave the target's
    window and collapse flag where they are: the source's used keys lie in
    the window, and for a collapsing store the top (lowest-collapsing) or
    bottom (highest-collapsing) allocated bin is used or equals the
    source's extreme key.  An accepted pair adds the overlap into the
    target's bins in place; its entry of the returned ``int64`` array is
    the number of bins that went from zero to positive.  A declined pair is
    untouched and reads ``-1``.  The caller passes only targets that hold
    weight and sources that are not empty, and updates the stores' counts.
    Only for backends with :func:`window_merges`.
    """
    return _backend().merge_windows(targets, pairs, sources)


def move_windows(targets, pairs, sources, moves, arena):
    """``Store.merge`` for the pairs :func:`merge_windows` declines, in one pass.

    ``targets``, ``pairs`` and ``sources`` are as for :func:`merge_windows`,
    except that a plain dense store's pair row holds its chunk size where a
    collapsing store's holds its bin limit.  For each pair whose target
    window must move, the pass builds the target's new bins in
    ``arena[start:start + cells]`` (``moves`` has one ``(start, cells)``
    row per pair; ``arena`` is a writable ``float64`` array): the old bins
    moved as the store's ``_extend_range`` moves them, whatever falls
    outside folded onto the collapsing side, then the source window added
    as ``_merge_dense`` adds it.  Returns an ``int64`` array with one row
    per pair: the new window's first key and size (-1 for a pair the pass
    leaves to ``Store.merge``, the targets untouched), its positive cells
    (for a plain dense store, the cells the merge made positive) and
    whether the store collapsed.  The caller installs each new window and
    updates the stores' counts.  Only for backends with
    :func:`window_merges`.
    """
    return _backend().move_windows(targets, pairs, sources, moves, arena)


def merge_rows(
    columns, counts, count_column, cells, tail, rows, signs, sources, totals, source_cells,
    scratch,
):
    """``Store.merge`` of many store windows into the rows of a column store, in one pass.

    The rows are :class:`~repro.service.buckets.BucketStore`'s: ``columns``
    (``int64``, rows × 2 stores × 8) holds each store's key offset, kind,
    bin limit (a plain store's chunk size), first cell and size in
    ``cells``, positive cells, collapsed flag and chunk size, and
    ``counts`` (``float64``, one row per row) each store's count in
    columns ``count_column`` and ``count_column + 1``.  Source ``i`` (one
    ``(key offset, first cell, size)`` row of ``sources`` over
    ``source_cells``, holding ``totals[i]``) merges into store
    ``signs[i]`` of row ``rows[i]``, as :func:`merge_windows` and then
    :func:`move_windows` merge a pair: a window that stays takes the source
    in place, and one that moves is built in ``scratch`` and appended at
    the tail of ``cells`` (``tail`` is ``[cells in use, dead cells]``; the
    old window's cells become dead).  Columns, counts and ``tail`` are
    updated in place.  Returns one ``int64`` per pair: 0 where merged, 1
    for a pair left to ``Store.merge`` (a target without weight or cells,
    one the passes decline, or a moved window larger than ``scratch``),
    and minus the cells needed for a moved window that found no room at
    the tail, the pair left unchanged.  Only for backends with
    :func:`window_merges`.
    """
    return _backend().merge_rows(
        columns, counts, count_column, cells, tail, rows, signs, sources, totals, source_cells,
        scratch,
    )


def merge_entries(
    columns, floats, cells, tail, entries, rows, summaries, stores, totals, source_cells, scratch,
):
    """Fold decoded frame entries into the rows of a column store, in one pass.

    ``columns``, ``cells`` and ``tail`` are :func:`merge_rows`'; ``floats``
    holds each row's count, zero count, sum, min, max and two store counts.
    Entry ``entries[i]`` of a decoded chunk (its header row in
    ``summaries``, eight columns as
    :class:`~repro.kernel.native.FrameColumns` gives them, its two store rows
    in ``stores`` with ``totals``, windows in ``source_cells``) folds into
    row ``rows[i]`` as ``BaseDDSketch.merge_checked_pairs`` folds a decoded
    entry: nothing for a count ``<= 0``, else the scalars (sums added, min
    and max by strict comparison), then each store holding weight as
    :func:`merge_rows` merges it.  Returns an ``int64`` row per entry: each
    store's :func:`merge_rows` result (0 for a store without weight).  Only
    for backends with :func:`window_merges`.
    """
    return _backend().merge_entries(
        columns, floats, cells, tail, entries, rows, summaries, stores, totals, source_cells,
        scratch,
    )


def fold_windows(ends, heads, offsets, windows, counts, total_cells, group_cells):
    """Fold many dense store windows into one, as ``Store.merge`` folds them, in one pass.

    The windows come in groups: group ``g`` is windows ``ends[g - 1]`` to
    ``ends[g] - 1`` (from 0 for the first).  Each group is folded in order,
    as ``copy(first)`` followed by ``merge`` of every later window (one
    whose count is not positive adds nothing), and each later group's
    result is merged into group 0's as soon as it is done, where its head
    row says so.  Window ``i`` is the store whose bins are ``windows[i]``
    (read in place) from key ``offsets[i]`` and whose count is
    ``counts[i]``.  ``heads`` has five entries per group, for the store the
    group starts from: its kind (0 plain dense, 1 collapsing lowest, 2
    collapsing highest), bin limit (a plain store's chunk size), positive
    bins and collapse flag, then whether the group's result is merged into
    the total; a group of one window after the first needs only the last.
    Group 0's result lives in ``total_cells`` cells and each later group's
    in ``group_cells``, so each must hold any window its fold can reach.

    Returns ``(bins, offset, positive, collapsed, count)`` of the result, or
    ``None`` for a fold the pass leaves to the loop: a window without a used
    bin where its count says it holds weight, keys past +-2**50, or a
    window that would outgrow its cells.  Only for backends with
    :func:`window_merges`.
    """
    return _backend().fold_windows(
        ends, heads, offsets, windows, counts, total_cells, group_cells
    )


def fold_rows(ends, heads, rows, buffers, counts, total_cells, group_cells):
    """:func:`fold_windows` over windows that lie inside a few buffers.

    ``rows`` has one ``int64`` row per window: its key offset, buffer (an
    index into ``buffers``, one-dimensional ``float64`` arrays), first cell
    in that buffer and size; every window must lie inside its buffer.  The
    rest, and the result, are :func:`fold_windows`'.  Only for backends with
    :func:`window_merges`.
    """
    return _backend().fold_rows(ends, heads, rows, buffers, counts, total_cells, group_cells)


def fold_scalars(ends, scalars):
    """The scalars of :meth:`~repro.core.BaseDDSketch.fold`'s copy-first loop, in one pass.

    Group ``g`` is rows ``ends[g - 1]`` to ``ends[g] - 1`` of ``scalars``
    (from 0 for the first), a ``float64`` array whose first five columns
    are each sketch's count, zero count, sum, min and max.  Each group
    starts from its first row and adds every later row whose count is not
    ``<= 0``; group 0's result starts the total, and every later group's is
    added where its count is ``> 0``, min and max by strict comparison, in
    the loop's order.  Returns ``(take, merged, total)``: whether each
    row's stores take part in the fold, whether each group's result is
    merged into the total, and the total's count, zero count, sum, min and
    max.  Only for backends with :func:`window_merges`.
    """
    return _backend().fold_scalars(ends, scalars)


def used_edges(windows):
    """The first and last used cell of many dense store windows, in one pass.

    ``windows`` lists store bins (one-dimensional ``float64`` arrays), each
    read in place.  Returns two ``int64`` arrays, one entry per window: the
    index of its first and of its last cell holding weight (``> 0``), as
    ``DenseStore.min_key`` and ``max_key`` find them before adding the
    offset, or ``-1`` for both where no cell does.  Only for backends with
    :func:`window_merges`.
    """
    return _backend().used_edges(windows)


def encode_proto_bins(keys, counts) -> bytes:
    """Encode sparse bins as DataDog-proto ``binCounts`` map entries.

    The interop codec's (:mod:`repro.serialization.interop`) bucket loop:
    each ``(key, count)`` becomes one length-delimited map-entry submessage
    (``sint32`` zig-zag key + ``double`` count).  The zig-zag/float pair
    bytes inside every entry come from :func:`encode_bucket_pairs`, so the
    proto bytes are identical under both kernel backends wherever the
    frame-v3 bucket bytes are.
    """
    return _backend().encode_proto_bins(keys, counts)
