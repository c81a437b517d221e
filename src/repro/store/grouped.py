"""Grouped (multi-store) bulk ingestion: the high-cardinality hot path.

High-cardinality aggregation workloads (the setting of Gan et al.'s
moment-sketch paper, and of the monitoring scenario in Section 1 of the
DDSketch paper once every metric is split by host/endpoint/status tags) hand
the store layer *columns*: a ``group_indices`` array saying which series each
sample belongs to and a parallel ``keys`` array of bucket keys.  Feeding the
groups one at a time costs one Python-level ``add_batch`` per series; this
module finds every group's ``[min_key, max_key]`` in one vectorized pass,
lays one row per group end to end in a single cell buffer, accumulates
**all** groups' buckets with one binning pass over the flat index
``row_start[group] + (key - min_key[group])``, and then fans each group's
pre-binned row out into its own store.  The buffer holds the sum of the
per-group key spans, not ``groups x`` the batch's global span.

The combined pass accepts the plain :class:`~repro.store.dense.DenseStore`
and both tail-collapsing stores (the default ``DDSketch``'s): each of them
ingests a batch as one window placement over the batch's ``[min, max]`` key
range plus one binning pass, and a row spanning exactly the group's own key
range lands through ``_add_binned_segment`` in the same window and the same
folded buckets as the group's keys would through ``add_batch``.  A
collapsing store with no bins allocated whose row fits its bin limit takes
the row as its window directly, which is where that hook would put it.  The
uniform-collapse store re-keys after the batch lands and the sparse store
has no contiguous backing to fan a row into; for those — and for batches
whose rows would exceed :data:`MAX_FLAT_CELLS` — the primitive falls back to
one stable sort plus one per-group ``add_batch`` slice, which preserves every
store family's exact semantics while still being vectorized per group.
"""

from __future__ import annotations

from itertools import islice
from operator import attrgetter
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernel
from repro.exceptions import IllegalArgumentError
from repro.store.base import Store
from repro.store.collapsing import CollapsingHighestDenseStore, CollapsingLowestDenseStore
from repro.store.dense import DenseStore

#: Store types the combined pass feeds through ``_add_binned_segment``
#: (exact types: a subclass may change how a batch lands).
SEGMENT_STORE_TYPES = (DenseStore, CollapsingLowestDenseStore, CollapsingHighestDenseStore)

#: Kind code of each type in :data:`SEGMENT_STORE_TYPES` for the bulk merge
#: pass (:func:`repro.kernel.merge_windows`).
_MERGE_KINDS = {DenseStore: 0, CollapsingLowestDenseStore: 1, CollapsingHighestDenseStore: 2}

#: Largest cell buffer (the sum of the per-group key spans, float64 cells)
#: the combined-bincount fast path may allocate.  Anything past this cap
#: falls back to the per-group path instead of allocating a giant scratch
#: array.
MAX_FLAT_CELLS = 1 << 26


class GroupedScratch:
    """Reusable scratch for the combined-bincount fast path.

    Every :func:`add_grouped_batch` call on the fast path materialises one
    ``int64`` flat-index array as large as the batch.  A registry that
    ingests a columnar batch every interval would reallocate that temporary
    on every call; holding a ``GroupedScratch`` per single-writer owner (each
    :class:`~repro.registry.SketchRegistry` holds one) lets the allocation be
    grown once and reused (the batch math is computed in place with ``out=``,
    producing bit-identical indices).

    Instances are **not** thread-safe: each concurrent writer must own its
    own scratch, which the single-writer registry guarantees.
    """

    __slots__ = ("_flat",)

    def __init__(self) -> None:
        self._flat: Optional["np.ndarray"] = None

    def flat_index(self, size: int) -> "np.ndarray":
        """A writable ``int64`` view of ``size`` elements, grown on demand."""
        if self._flat is None or self._flat.size < size:
            self._flat = np.empty(max(size, 1024), dtype=np.int64)
        return self._flat[:size]


def _coerce_grouped(
    num_groups: int,
    group_indices: "np.ndarray",
    keys: "np.ndarray",
    weights: Optional["np.ndarray"],
) -> Tuple["np.ndarray", "np.ndarray", Optional["np.ndarray"]]:
    """Validate and normalize one grouped batch (shared with the core layer)."""
    group_indices = np.asarray(group_indices, dtype=np.int64).reshape(-1)
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    if group_indices.shape != keys.shape:
        raise IllegalArgumentError(
            f"group_indices shape {group_indices.shape} does not match "
            f"keys shape {keys.shape}"
        )
    if group_indices.size and (
        int(group_indices.min()) < 0 or int(group_indices.max()) >= num_groups
    ):
        raise IllegalArgumentError(
            f"group indices must be in [0, {num_groups}), got range "
            f"[{int(group_indices.min())}, {int(group_indices.max())}]"
        )
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.shape != keys.shape:
            raise IllegalArgumentError(
                f"weights shape {weights.shape} does not match keys shape {keys.shape}"
            )
        if not np.isfinite(weights).all() or not (weights > 0.0).all():
            raise IllegalArgumentError("weights must be positive finite numbers")
    return group_indices, keys, weights


def group_totals(
    num_groups: int,
    group_indices: "np.ndarray",
    weights: Optional["np.ndarray"] = None,
) -> "np.ndarray":
    """Per-group total weight, accumulated in input order.

    ``bincount`` adds the weights sequentially in array order, so each
    group's total is the same left-to-right float sum a per-item ``add``
    loop over that group's subsequence would produce — bit for bit.
    """
    if weights is None:
        return np.bincount(group_indices, minlength=num_groups).astype(np.float64)
    return np.bincount(group_indices, weights=weights, minlength=num_groups)


def add_grouped_batch(
    stores: Sequence[Store],
    group_indices: "np.ndarray",
    keys: "np.ndarray",
    weights: Optional["np.ndarray"] = None,
    scratch: Optional[GroupedScratch] = None,
) -> None:
    """Accumulate ``(group, key[, weight])`` columns into ``stores[group]``.

    Parameters
    ----------
    stores:
        One store per group; ``group_indices`` values index into this
        sequence.  The stores may be of any concrete type (mixing is fine).
    group_indices : numpy.ndarray
        Integer group index per sample, each in ``[0, len(stores))``.
    keys : numpy.ndarray
        Integer bucket keys, parallel to ``group_indices``.
    weights : numpy.ndarray, optional
        Positive finite per-sample weights; unit weights when omitted.
    scratch : GroupedScratch, optional
        Reusable flat-index scratch owned by a single-writer caller (e.g.
        one registry's grouped ingest); when given, the fast path computes
        its combined index in place instead of allocating a fresh
        batch-sized temporary.  The resulting indices — and therefore the
        stores — are bit-identical either way.

    Notes
    -----
    When every target's type is in :data:`SEGMENT_STORE_TYPES` and the
    per-group rows fit :data:`MAX_FLAT_CELLS`, the per-group key ranges come
    from one :func:`repro.kernel.group_key_ranges` pass, all buckets are
    accumulated with **one** :func:`repro.kernel.bin_grouped` pass into the
    rows, and the rows are fanned out (:func:`_fan_out`: a fresh collapsing
    store takes its row as its window in one step, every other store one
    :func:`repro.kernel.apply_segments` segment add) — ``O(n + sum of the
    group spans)`` total.  Otherwise the batch is stable-sorted by group
    once and each group's slice goes through its store's own ``add_batch``,
    which preserves the uniform/sparse semantics exactly.

    Either way the resulting per-store contents are identical to calling
    ``stores[g].add_batch`` with each group's own slice: bit-for-bit for
    unit weights, including each store's window offset and collapse state.
    With fractional weights the running count and any folded boundary
    bucket are summed in a different order, so they may differ in the last
    ulp.
    """
    num_groups = len(stores)
    group_indices, keys, weights = _coerce_grouped(num_groups, group_indices, keys, weights)
    if keys.size == 0:
        return
    if all(type(store) in SEGMENT_STORE_TYPES for store in stores) and _add_segments(
        stores, group_indices, keys, weights, scratch
    ):
        return

    order = np.argsort(group_indices, kind="stable")
    sorted_groups = group_indices[order]
    sorted_keys = keys[order]
    sorted_weights = None if weights is None else weights[order]
    boundaries = np.searchsorted(sorted_groups, np.arange(num_groups + 1))
    for group in np.unique(sorted_groups).tolist():
        low, high = int(boundaries[group]), int(boundaries[group + 1])
        stores[group].add_batch(
            sorted_keys[low:high],
            None if sorted_weights is None else sorted_weights[low:high],
        )


def _add_segments(
    stores: Sequence[Store],
    group_indices: "np.ndarray",
    keys: "np.ndarray",
    weights: Optional["np.ndarray"],
    scratch: Optional[GroupedScratch],
) -> bool:
    """The combined pass; returns ``False`` (having changed nothing) when the
    rows would exceed :data:`MAX_FLAT_CELLS`."""
    num_groups = len(stores)
    min_keys, max_keys = kernel.group_key_ranges(group_indices, keys, num_groups)
    present = np.flatnonzero(max_keys >= min_keys)
    min_keys = min_keys[present]
    max_keys = max_keys[present]
    # Bound the global span in Python integers first, so the int64 row
    # arithmetic below cannot overflow on absurd keys.
    if int(max_keys.max()) - int(min_keys.min()) >= MAX_FLAT_CELLS:
        return False
    row_ends = np.cumsum(max_keys - min_keys + 1)
    num_cells = int(row_ends[-1])
    if num_cells > MAX_FLAT_CELLS:
        return False
    # Key k of a group lands at row_start + (k - min_key), where the row
    # starts at row_end - (max_key - min_key + 1).
    row_bases = np.zeros(num_groups, dtype=np.int64)
    row_bases[present] = row_ends - max_keys - 1
    cells = kernel.bin_grouped(
        group_indices, keys, weights, row_bases, num_cells, scratch=scratch
    )
    totals = group_totals(num_groups, group_indices, weights)[present]
    targets = [stores[group] for group in present.tolist()]
    _fan_out(targets, cells, min_keys, row_ends - (max_keys - min_keys + 1), row_ends, totals)
    return True


#: Store types whose fresh stores take a row of the combined pass in one
#: step (:func:`_fan_out`).
_INSTALL_TYPES = (CollapsingLowestDenseStore, CollapsingHighestDenseStore)


def _fan_out(
    targets: Sequence[Store],
    cells: "np.ndarray",
    min_keys: "np.ndarray",
    row_starts: "np.ndarray",
    row_ends: "np.ndarray",
    totals: "np.ndarray",
) -> None:
    """Land row ``i`` of the combined pass in ``targets[i]``, as
    :func:`repro.kernel.apply_segments` lands it, bit for bit.

    A store of a type in :data:`_INSTALL_TYPES` with no bins allocated (a
    fresh store, or a cleared one) whose row is no wider than its bin limit
    takes the row in one step.  ``_add_binned_segment`` would allocate a
    zeroed window exactly over the row (a bounded store's first window is
    the batch's key range when that fits the limit) and add the row in.
    So the store takes a copy of the row as its bins and the row's first
    key as its offset, and adds the row total to its count and the row's
    cells above zero, counted in one vectorized pass, to its positive bins.
    Every other row goes through ``apply_segments``, the oracle and the
    fallback, and so does every row when a store is listed twice.
    """
    widths = (row_ends - row_starts).tolist()
    installs: List[int] = []
    if len(set(map(id, targets))) == len(targets):
        for index, (store, width) in enumerate(zip(targets, widths)):
            if type(store) in _INSTALL_TYPES and not store._bins.size and width <= store._bin_limit:
                installs.append(index)
    if len(installs) < len(targets):
        rest = np.ones(len(targets), dtype=bool)
        rest[installs] = False
        kernel.apply_segments(
            [target for target, keep in zip(targets, rest.tolist()) if keep],
            cells, min_keys[rest], row_starts[rest], row_ends[rest], totals[rest],
        )
    if not installs:
        return
    positives = np.add.reduceat(cells > 0.0, row_starts, dtype=np.int64)[installs]
    for index, offset, start, end, total, positive in zip(
        installs,
        min_keys[installs].tolist(),
        row_starts[installs].tolist(),
        row_ends[installs].tolist(),
        totals[installs].tolist(),
        positives.tolist(),
    ):
        store = targets[index]
        # astype copies; the NumPy backend bins unit weights as int64.
        store._bins = cells[start:end].astype(np.float64)
        store._offset = offset
        store._count += total
        store._num_positive += positive


def merge_store_pairs(targets: Sequence[Store], sources: Sequence[Any]) -> None:
    """Fold ``sources[i]`` into ``targets[i]`` for every ``i``, in one bulk pass.

    The result is ``targets[i].merge(sources[i])`` for each ``i`` in order,
    bit for bit.  No store may be the target of two pairs, nor a target and
    the source of another pair, so the pairs are independent.

    A source is a :class:`~repro.store.Store`, or a *window*: a tuple
    ``(cells, start, size, offset, count, build, tag)`` standing for a
    :data:`SEGMENT_STORE_TYPES` store whose bins are
    ``cells[start:start + size]`` from key ``offset`` and whose count is
    ``count``, where ``build(tag)`` returns that store holding a copy of
    its window.  A window's cells are only ever read, in place; a pair
    that takes ``Store.merge`` merges the built store instead.

    Under a backend with :func:`repro.kernel.window_merges`, every pair of
    two :data:`SEGMENT_STORE_TYPES` stores whose target holds weight goes
    to one :func:`repro.kernel.merge_windows` call, which adds each source
    window into its target's bins where ``Store.merge`` would leave the
    target's window as it is.  The pairs it declines, whose target window
    must grow or move, go to one :func:`repro.kernel.move_windows` call,
    which builds each moved window as ``Store.merge`` does.  What that pass
    leaves, and every other pair, takes ``Store.merge``: the NumPy backend
    sends every pair there.  The windows of :class:`~repro.store.Store`
    sources are copied into one buffer for the calls (one copy costs less
    than reading one more buffer's address), so a pair whose source is its
    own target reads the pre-merge cells.
    """
    if not kernel.window_merges():
        for target, source in zip(targets, sources):
            target.merge(_built(source))
        return
    kinds = _MERGE_KINDS
    rows: List[int] = []
    target_bins = []
    buffers: List[Optional["np.ndarray"]] = []
    copies = []
    copy_buffer = -1
    copied = 0
    passed = []
    others = []
    last = None
    buffer = -1
    for target, source in zip(targets, sources):
        kind = kinds.get(type(target))
        if source.__class__ is tuple:
            cells, start, size, offset, count, _, _ = source
            if count <= 0:
                continue  # every Store.merge returns at once for an empty source
            if kind is None:
                others.append((target, source))
                continue
            bins = target._bins
            if target._count <= 0 or not bins.size:
                # An emptied target re-anchors its window in Store.merge.
                others.append((target, source))
                continue
            if cells is not last:
                last = cells
                buffer = len(buffers)
                buffers.append(cells)
            rows += (
                target._offset, kind, target._bin_limit if kind else target._chunk_size,
                offset, buffer, start, size,
            )
        else:
            if kind is None or type(source) not in kinds:
                others.append((target, source))
                continue
            count = source._count
            if count <= 0:
                continue  # Store.merge returns at once
            bins = target._bins
            if target._count <= 0 or not bins.size:
                others.append((target, source))
                continue
            window = source._bins
            if copy_buffer < 0:
                copy_buffer = len(buffers)
                buffers.append(None)  # the copies, concatenated below
                last = None
            rows += (
                target._offset, kind, target._bin_limit if kind else target._chunk_size,
                source._offset, copy_buffer, copied, window.size,
            )
            copies.append(window)
            copied += window.size
        target_bins.append(bins)
        passed.append((target, source, count))
    if passed:
        if copies:
            buffers[copy_buffer] = np.concatenate(copies)
        table = np.array(rows, dtype=np.int64).reshape(len(passed), -1)
        added = kernel.merge_windows(target_bins, table, buffers).tolist()
        declined = []
        for index, ((target, source, count), positive) in enumerate(zip(passed, added)):
            if positive < 0:
                declined.append(index)
            else:
                target._num_positive += positive
                target._count += count
        if declined:
            _move_declined(
                [passed[index] for index in declined],
                table[declined],
                [target_bins[index] for index in declined],
                buffers,
            )
    for target, source in others:
        target.merge(_built(source))


#: Most cells :func:`_move_declined`'s arena holds (32 MiB of float64): the
#: pairs that could need more take ``Store.merge``.
MAX_MOVED_CELLS = 1 << 22


def _move_declined(passed, table: "np.ndarray", target_bins, buffers) -> None:
    """The pairs :func:`repro.kernel.merge_windows` declined, through one
    :func:`repro.kernel.move_windows` pass; the pairs it leaves take
    ``Store.merge``.

    Each pair gets arena cells enough for any window its merge can move to:
    the union of the two windows, capped at a collapsing store's bin limit
    and widened by two chunks for a plain one.  Pairs past
    :data:`MAX_MOVED_CELLS` cells in all get none and take ``Store.merge``.
    """
    offsets, kinds, limits, source_offsets, _, _, source_sizes = table.T
    sizes = np.array([bins.size for bins in target_bins], dtype=np.int64)
    span = np.maximum(offsets + sizes, source_offsets + source_sizes) - np.minimum(
        offsets, source_offsets
    )
    cells = np.where(kinds == 0, span + 2 * limits, np.minimum(span, limits))
    cells[(cells > MAX_MOVED_CELLS) | (span > MAX_MOVED_CELLS)] = 0
    cells[np.cumsum(cells) > MAX_MOVED_CELLS] = 0
    starts = np.cumsum(cells) - cells
    arena = np.empty(int(cells.sum()))
    moved = kernel.move_windows(
        target_bins, table, buffers, np.stack([starts, cells], axis=1), arena
    )
    for (target, source, count), (first, size, positive, collapsed), start, kind in zip(
        passed, moved.tolist(), starts.tolist(), kinds.tolist()
    ):
        if size < 0:
            target.merge(_built(source))
            continue
        target._bins = arena[start : start + size].copy()
        target._offset = first
        if kind:
            target._num_positive = positive
            if collapsed:
                target._is_collapsed = True
        else:
            target._num_positive += positive
        target._count += count


def fold_store_groups(
    stores: Sequence[Store], ends: Sequence[int], merged: Sequence[bool]
) -> Optional[Store]:
    """A new store holding the fold of groups of ``stores``, in one native pass, or ``None``.

    Group ``g`` is ``stores[ends[g - 1]:ends[g]]`` (from 0 for the first).
    The fold is the copy-first loop, bit for bit: each group's first store
    is copied and every later one merged into the copy in order; then each
    later group's result is merged into group 0's where ``merged[g]`` is
    set.  (A sketch-level fold leaves out the stores of sketches whose
    merge returns at once, and clears ``merged[g]`` for a group whose
    sketch holds no weight.)  The result is a new store of the first
    store's type and settings; no input store changes.

    ``None`` leaves the fold to that loop: under a backend without
    :func:`repro.kernel.window_merges`, for a store type outside
    :data:`SEGMENT_STORE_TYPES`, for scratch past :data:`MAX_MOVED_CELLS`
    cells, and for what :func:`repro.kernel.fold_windows` declines (a store
    whose count says it holds weight where no bin does, or keys past
    +-2**50).  Each running target lives in scratch as large as it can
    grow: a collapsing store's bin limit, or the union of every window plus
    two chunks for a plain one.
    """
    if not kernel.window_merges():
        return None
    kinds = _MERGE_KINDS
    if any(cls not in kinds for cls in set(map(type, stores))):
        return None
    first = stores[0]
    counts = list(map(_COUNT, stores))
    if not any(count > 0 for count in islice(counts, 1, None)):
        return first.copy()  # every merge of the loop returns at once
    heads: List[Any] = []
    group_cells = 0
    dense_chunk = 0
    begin = 0
    for index, end in enumerate(ends):
        if index and end - begin == 1:
            heads += (0, 0, 0, 0, merged[index])  # merged straight from its window
        else:
            head = stores[begin]
            kind = kinds[type(head)]
            limit = head._bin_limit if kind else head._chunk_size
            collapsed = head._is_collapsed if kind else False
            heads += (kind, limit, head._num_positive, collapsed, merged[index])
            if not index:
                total_kind, total_limit = kind, limit
            elif kind:
                group_cells = max(group_cells, limit)
            else:
                dense_chunk = max(dense_chunk, limit)
        begin = end
    try:
        offsets = np.fromiter(map(_OFFSET, stores), dtype=np.int64, count=len(stores))
    except OverflowError:
        return None
    windows = list(map(_BINS, stores))
    sizes = None
    if not total_kind or dense_chunk:
        sizes = np.fromiter(map(len, windows), dtype=np.int64, count=len(windows))
    cells = fold_cells(total_kind, total_limit, group_cells, dense_chunk, offsets, sizes)
    if cells is None:
        return None
    folded = kernel.fold_windows(ends, heads, offsets, windows, counts, *cells)
    if folded is None:
        return None
    return folded_store(type(first), first._chunk_size, total_limit, folded)


def fold_cells(
    total_kind: int, total_limit: int, group_cells: int, dense_chunk: int,
    offsets: "np.ndarray", sizes: Optional["np.ndarray"],
) -> Optional[Tuple[int, int]]:
    """The scratch cells of a fold pass, ``(total_cells, group_cells)``, or
    ``None`` past :data:`MAX_MOVED_CELLS`.

    Group 0's result starts from a store of kind ``total_kind`` and limit
    ``total_limit``; ``group_cells`` is the largest bin limit of the later
    groups' collapsing heads and ``dense_chunk`` the largest chunk of their
    plain heads.  A plain store's window stays within the union of every
    window, widened by one chunk on each side: ``sizes`` (the windows'
    cells, from key ``offsets``) is needed only where a plain store is.
    """
    total_cells = total_limit
    if not total_kind or dense_chunk:
        used = sizes > 0
        span = int((offsets + sizes)[used].max() - offsets[used].min()) if used.any() else 0
        if not total_kind:
            total_cells = span + 2 * total_limit
        if dense_chunk:
            group_cells = max(group_cells, span + 2 * dense_chunk)
    if total_cells > MAX_MOVED_CELLS or group_cells > MAX_MOVED_CELLS:
        return None
    return total_cells, group_cells


def folded_store(store_type: type, chunk_size: int, limit: int, folded) -> Store:
    """A ``store_type`` store holding what a fold pass returned.

    ``folded`` is :func:`repro.kernel.fold_windows`' result; ``chunk_size``
    and ``limit`` are the first store's (``limit`` is a bounded store's bin
    limit).  Set attribute by attribute, in ``__init__``'s order, as
    :meth:`~repro.store.dense.DenseStore.copy` sets them: reading the first
    store's ``__dict__`` would give both stores an instance dict, and every
    later attribute read on them would be slower.
    """
    bins, offset, positive, collapsed, count = folded
    store = store_type.__new__(store_type)
    store._chunk_size = chunk_size
    store._bins = bins
    store._offset = offset
    store._count = count
    store._num_positive = positive
    if store_type is not DenseStore:
        store._bin_limit = limit
        store._is_collapsed = collapsed
    return store


#: Keys past +-2**50 (no mapping makes them) are left to the stores' own
#: reads, as the native merge passes leave them (``KEY_LIMIT`` in
#: ``_kernel.c``).
_KEY_LIMIT = 1 << 50


def used_key_ranges(
    stores: Sequence[Store],
) -> Optional[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]:
    """Every store's lowest and highest used key, in one native pass, or ``None``.

    Returns ``(used, min_keys, max_keys)``, one entry per store: whether
    any of its bins holds weight and, where one does, the keys
    ``min_key`` and ``max_key`` return (elsewhere, where they raise
    :class:`~repro.exceptions.EmptySketchError`, the keys mean nothing).
    The bins are read in place by one :func:`repro.kernel.used_edges`
    call instead of two scans per store.

    ``None`` leaves the reads to the stores: under a backend without
    :func:`repro.kernel.window_merges`, for a store type outside
    :data:`SEGMENT_STORE_TYPES`, and for window offsets past +-2**50.
    """
    if not kernel.window_merges():
        return None
    if any(cls not in _MERGE_KINDS for cls in set(map(type, stores))):
        return None
    try:
        offsets = np.fromiter(map(_OFFSET, stores), dtype=np.int64, count=len(stores))
    except OverflowError:
        return None
    if ((offsets < -_KEY_LIMIT) | (offsets > _KEY_LIMIT)).any():
        return None
    first, last = kernel.used_edges(list(map(_BINS, stores)))
    return first >= 0, offsets + first, offsets + last


_COUNT = attrgetter("_count")
_OFFSET = attrgetter("_offset")
_BINS = attrgetter("_bins")


def _built(source) -> Store:
    """A merge source as a :class:`~repro.store.Store` (a window is built)."""
    return source[5](source[6]) if type(source) is tuple else source
