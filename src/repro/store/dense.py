"""Contiguous (dense) bucket store.

This is the contiguous-counters storage strategy from the paper's
implementation discussion (Section 2.2): a dense store keeps one counter per
key in a contiguous ``numpy.float64`` array covering the span between the
smallest and largest key seen so far.  Insertion is an index computation plus
an increment — exactly the one-increment cost the paper's speed evaluation
(Figure 8) relies on — which makes it the fastest store, at the cost of
memory proportional to the covered key span rather than to the number of
non-empty buckets.

The ndarray backing is what makes the two post-insertion operations of the
paper cheap as well: merging (Section 2.3, Figure 9) is a clipped slice
addition over the counter array, and rank queries (the heart of every
quantile read, Figures 10–11) are one ``cumsum`` plus one ``searchsorted``
instead of a Python-level scan over the buckets.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro import kernel
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.store.base import Bucket, Store

#: Number of bins allocated at a time when the store needs to grow.
CHUNK_SIZE = 128


class DenseStore(Store):
    """Growable contiguous store of bucket counters.

    Parameters
    ----------
    chunk_size:
        Allocation granularity; the backing array always grows by a multiple
        of this many bins to amortize resizing.
    """

    def __init__(self, chunk_size: int = CHUNK_SIZE) -> None:
        if chunk_size <= 0:
            raise IllegalArgumentError(f"chunk_size must be positive, got {chunk_size!r}")
        self._chunk_size = int(chunk_size)
        self._bins: np.ndarray = np.zeros(0, dtype=np.float64)
        self._offset = 0  # key of self._bins[0]
        self._count = 0.0
        # Number of bins currently holding a strictly positive counter.  Kept
        # exact across every mutation path so that remove() can tell "truly
        # empty" from "float drift left a near-zero total" in O(1) instead of
        # rescanning the whole allocation.
        self._num_positive = 0

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, key: int, weight: float = 1.0) -> None:
        weight = self._validate_weight(weight)
        if weight == 0.0:
            return
        if weight < 0.0:
            self.remove(key, -weight)
            return
        index = self._get_index(key)
        if self._bins[index] == 0.0:
            self._num_positive += 1
        self._bins[index] += weight
        self._count += weight

    def add_batch(self, keys: "np.ndarray", weights: Optional["np.ndarray"] = None) -> None:
        """Vectorized bulk insertion: grow once, then one ``bincount`` pass.

        The allocation (or, for the bounded subclasses, the collapsed window)
        is extended a single time to cover the batch's ``[min, max]`` key
        span via :meth:`_extend_range` — the same hook the bulk-merge fast
        path uses — after which all counters are accumulated in place with
        one ``numpy.bincount`` call directly into the backing array slice the
        batch touches.  Keys falling outside the window after a collapse are
        clipped onto the boundary bucket, which is exactly where the per-item
        path folds them.

        Parameters
        ----------
        keys : numpy.ndarray
            Integer bucket keys (any integer dtype).
        weights : numpy.ndarray, optional
            Positive finite per-key weights, same length as ``keys``; unit
            weights when omitted.  Batches containing zero or negative
            weights fall back to the per-item loop, which implements the
            skip/remove semantics of :meth:`add`.

        Notes
        -----
        ``O(len(keys) + key_span)`` and a single allocation, versus
        ``O(len(keys))`` Python-level calls for the per-item loop.  The final
        ``(key, count)`` contents are identical to the per-item loop,
        including the window placement and folding of the collapsing
        subclasses.  This method is a thin adapter over the columnar ingest
        kernel: it wraps the pair as a :class:`repro.kernel.Selection` and
        hands it to :meth:`_add_selection`, the same hook the sketch-level
        batch paths use.
        """
        keys, weights = self._coerce_batch(keys, weights)
        if keys.size == 0:
            return
        if weights is not None and not (weights > 0.0).all():
            # Zero weights are skips and negative weights are removals in the
            # scalar path; route mixed batches through it unchanged.
            super().add_batch(keys, weights)
            return
        self._add_selection(kernel.selection_from_keys(keys, weights))

    def _add_selection(self, selection) -> None:
        """Bin a kernel selection straight into the counter window.

        The allocation (or, for the bounded subclasses, the collapsed
        window) is extended a single time to cover the selection's
        ``[min_key, max_key]`` span via :meth:`_batch_extend_range`, after
        which the active kernel backend accumulates all counters with one
        binning pass (:func:`repro.kernel.bin_selection`) over the exact
        window slice the selection touches — keys falling outside a bounded
        window are folded onto the boundary buckets, which is where the
        per-item path sends them.
        """
        if self._count <= 0 and self._bins.size:
            # Mirror the collapsing stores' scalar path, which re-anchors an
            # emptied store on the next insertion instead of letting a stale
            # window constrain where new weight lands.
            self.clear()
        min_key = selection.min_key
        max_key = selection.max_key
        self._batch_extend_range(min_key, max_key)
        # Accumulate into the slice of the allocation the batch actually
        # touches, so a small batch costs O(batch span), not O(store span).
        last_index = self._bins.size - 1
        low = min(max(min_key - self._offset, 0), last_index)
        high = min(max(max_key - self._offset, 0), last_index)
        counts = kernel.bin_selection(selection, self._offset + low, self._offset + high)
        segment = self._bins[low : high + 1]
        self._num_positive += int(np.count_nonzero((segment == 0.0) & (counts > 0)))
        segment += counts
        self._count += selection.total

    def _add_binned_segment(self, min_key: int, counts: "np.ndarray", total: float) -> None:
        """Accumulate a pre-binned contiguous counter segment starting at ``min_key``.

        This is the fan-out half of the grouped ingestion primitive
        (:func:`repro.store.grouped.add_grouped_batch`): the caller has
        already folded a batch into per-key counts (one row of the combined
        ``bincount``), so this method only has to place the window once and
        add the segment in.  ``total`` is the batch's total weight for this
        store, accumulated by the caller in input order so the running count
        matches a per-item loop bit for bit.

        The window placement and the clipping of out-of-window keys onto the
        boundary buckets mirror :meth:`add_batch` exactly, so a segment that
        spans exactly a batch's ``[min_key, max_key]`` lands in the same
        window and the same buckets the batch itself would — for the
        collapsing subclasses too, whose window placement depends only on
        that range.
        """
        if counts.size == 0 or total <= 0.0:
            return
        if self._count <= 0 and self._bins.size:
            # Same re-anchoring as add_batch: an emptied store must not let a
            # stale window constrain where new weight lands.
            self.clear()
        max_key = min_key + int(counts.size) - 1
        self._batch_extend_range(min_key, max_key)
        last_index = self._bins.size - 1
        low = min(max(min_key - self._offset, 0), last_index)
        high = min(max(max_key - self._offset, 0), last_index)
        if low == min_key - self._offset and high == max_key - self._offset:
            segment_counts = counts
        else:
            # Part of the segment falls outside a bounded window: fold it
            # onto the boundary buckets, exactly where add_batch's index
            # clipping sends the matching keys.
            indices = np.clip(np.arange(min_key, max_key + 1) - self._offset, low, high) - low
            segment_counts = np.bincount(indices, weights=counts, minlength=high - low + 1)
        segment = self._bins[low : high + 1]
        self._num_positive += int(np.count_nonzero((segment == 0.0) & (segment_counts > 0)))
        segment += segment_counts
        self._count += float(total)

    def remove(self, key: int, weight: float = 1.0) -> None:
        """Decrease the counter of ``key`` by ``weight``, clamped at zero."""
        weight = self._validate_weight(weight)
        if weight < 0.0:
            raise IllegalArgumentError("cannot remove a negative weight")
        if weight == 0.0 or self._bins.size == 0:
            return
        index = key - self._offset
        if index < 0 or index >= self._bins.size:
            return
        current = float(self._bins[index])
        removed = min(current, weight)
        self._bins[index] = current - removed
        self._count -= removed
        if removed > 0.0 and current == removed:
            # The subtraction is exact when the whole counter is removed, so
            # this is the only way a bin transitions back to zero.
            self._num_positive -= 1
        if self._count < 1e-12 and self._num_positive <= 0:
            # Every bin is exactly zero; whatever tiny total is left is float
            # drift accumulated in the running count, so reset it.  Tracking
            # the number of positive bins makes this O(1) per removal instead
            # of a rescan of the whole allocation.
            self.clear()

    def merge(self, other: Store) -> None:
        if other.is_empty:
            return
        if isinstance(other, DenseStore):
            if self._count <= 0 and self._bins.size:
                # Same re-anchoring as add_batch: an emptied store must not
                # let a stale window constrain where the merged weight lands.
                self.clear()
            # Fast path: direct bin addition; an empty target anchors its
            # window on the source's key range.
            self._merge_dense(other)
            return
        for bucket in other:
            self.add(bucket.key, bucket.count)

    def _merge_dense(self, other: "DenseStore") -> None:
        """Merge another dense store by direct bin addition.

        This is the fast path that makes DDSketch merges cheap (Figure 9 of
        the paper): once the backing array covers the other store's key range
        (or the window has collapsed appropriately), merging is one clipped
        slice addition — the overlapping key range is added array-to-array,
        and only the weight falling outside this store's (collapsed) window
        is folded into the boundary buckets.
        """
        min_key = other.min_key
        max_key = other.max_key
        # Make sure the allocation (or collapsed window) accounts for the
        # incoming key range; collapsing subclasses move their window here.
        self._extend_range(min_key, max_key)
        bins = self._bins
        size = bins.size
        source = other._bins
        # Index of source[0] within this store's backing array.
        start = other._offset - self._offset
        low = max(start, 0)
        high = min(start + source.size, size)
        if low < high:
            chunk = source[low - start : high - start]
            self._num_positive += int(np.count_nonzero((bins[low:high] == 0.0) & (chunk > 0.0)))
            bins[low:high] += chunk
        if start < 0:
            # Source bins below this window fold into the lowest bucket.
            below = float(source[: min(-start, source.size)].sum())
            if below > 0.0:
                if bins[0] == 0.0:
                    self._num_positive += 1
                bins[0] += below
        if start + source.size > size:
            # Source bins above this window fold into the highest bucket.
            above = float(source[max(size - start, 0) :].sum())
            if above > 0.0:
                if bins[size - 1] == 0.0:
                    self._num_positive += 1
                bins[size - 1] += above
        self._count += other._count

    @classmethod
    def _decoded(
        cls, bins: "np.ndarray", offset: int, count: float, num_positive: int,
        bin_limit: int, is_collapsed: bool,
    ) -> "DenseStore":
        """A default-configured store that adopts ``bins`` from key ``offset``.

        The columnar frame decoder computes the window that ``add_batch``
        into an empty store places and bins it natively; this constructor
        installs that state without replaying the batch.  ``count`` is the
        batch total and ``num_positive`` the cells above zero.  The plain
        store has no bin limit and never collapses, so it ignores the last
        two arguments, which the bounded subclasses keep.
        """
        store = cls.__new__(cls)
        store._chunk_size = CHUNK_SIZE
        store._bins = bins
        store._offset = offset
        store._count = count
        store._num_positive = num_positive
        return store

    def copy(self) -> "DenseStore":
        new = type(self)(chunk_size=self._chunk_size)
        new._bins = self._bins.copy()
        new._offset = self._offset
        new._count = self._count
        new._num_positive = self._num_positive
        return new

    def clear(self) -> None:
        self._bins = np.zeros(0, dtype=np.float64)
        self._offset = 0
        self._count = 0.0
        self._num_positive = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def count(self) -> float:
        return self._count

    @property
    def min_key(self) -> int:
        indices = np.flatnonzero(self._bins > 0.0)
        if indices.size == 0:
            raise EmptySketchError("the store is empty")
        return int(indices[0]) + self._offset

    @property
    def max_key(self) -> int:
        indices = np.flatnonzero(self._bins > 0.0)
        if indices.size == 0:
            raise EmptySketchError("the store is empty")
        return int(indices[-1]) + self._offset

    def key_at_rank(self, rank: float, lower: bool = True) -> int:
        if self.is_empty:
            raise EmptySketchError("cannot query the rank of an empty store")
        return int(self.key_at_rank_batch(np.array([rank], dtype=np.float64), lower)[0])

    def key_at_rank_batch(self, ranks: "np.ndarray", lower: bool = True) -> "np.ndarray":
        """Batched :meth:`key_at_rank`: one ``cumsum`` + one ``searchsorted``.

        The cumulative counts are accumulated in the same left-to-right order
        as the scalar scan, so the returned keys are identical to calling
        :meth:`key_at_rank` per rank — including at exact cumulative-count
        boundaries.  ``searchsorted`` can never land on an empty bucket: the
        cumulative array is flat across empty bins, so the insertion point of
        a strictly-greater (or greater-or-equal) threshold always falls on a
        bin that increased it.
        """
        if self.is_empty:
            raise EmptySketchError("cannot query the rank of an empty store")
        ranks = np.asarray(ranks, dtype=np.float64).reshape(-1)
        cumulative = np.cumsum(self._bins)
        if lower:
            indices = np.searchsorted(cumulative, ranks, side="right")
        else:
            indices = np.searchsorted(cumulative, ranks + 1.0, side="left")
        # Clamp to the used key range: ranks below zero would land on a
        # leading zero bin (the cumulative array is flat at 0 there) and
        # ranks at or past the total count resolve to max_key, both matching
        # the scalar scan, which only ever visits non-empty buckets.
        positive = np.flatnonzero(self._bins > 0.0)
        first_positive = int(positive[0])
        last_positive = int(positive[-1])
        return np.clip(indices, first_positive, last_positive).astype(np.int64) + self._offset

    def key_at_reversed_rank(self, rank: float) -> int:
        if self.is_empty:
            raise EmptySketchError("cannot query the rank of an empty store")
        return int(self.key_at_reversed_rank_batch(np.array([rank], dtype=np.float64))[0])

    def key_at_reversed_rank_batch(self, ranks: "np.ndarray") -> "np.ndarray":
        """Batched upper-rank query over the reversed key order.

        Mirrors :meth:`key_at_rank_batch` on the reversed bin array: one
        descending ``cumsum`` + one ``searchsorted``, with ranks at or past
        the total count resolving to ``min_key``.
        """
        if self.is_empty:
            raise EmptySketchError("cannot query the rank of an empty store")
        ranks = np.asarray(ranks, dtype=np.float64).reshape(-1)
        cumulative = np.cumsum(self._bins[::-1])
        indices = np.searchsorted(cumulative, ranks, side="right")
        # Same clamping as key_at_rank_batch, mirrored: negative ranks would
        # land on a trailing zero bin, overflowing ranks resolve to min_key.
        positive = np.flatnonzero(self._bins > 0.0)
        first_positive = int(positive[0])
        last_positive = int(positive[-1])
        size = self._bins.size
        indices = np.clip(indices, size - 1 - last_positive, size - 1 - first_positive)
        return (size - 1 - indices).astype(np.int64) + self._offset

    def __iter__(self) -> Iterator[Bucket]:
        for index in np.flatnonzero(self._bins > 0.0).tolist():
            yield Bucket(index + self._offset, float(self._bins[index]))

    def reversed(self) -> Iterator[Bucket]:
        """Iterate over non-empty buckets in decreasing key order.

        Direct reverse walk over the backing array — no materialize-and-sort.
        """
        for index in np.flatnonzero(self._bins > 0.0)[::-1].tolist():
            yield Bucket(index + self._offset, float(self._bins[index]))

    def bins_window(self) -> Tuple[int, "np.ndarray"]:
        """``(offset, bins)``: the key of the first allocated cell and the
        backing cells themselves, empty ones included (not a copy)."""
        return self._offset, self._bins

    def nonzero_bins(self) -> Tuple["np.ndarray", "np.ndarray"]:
        indices = np.flatnonzero(self._bins > 0.0)
        return indices.astype(np.int64) + self._offset, self._bins[indices]

    @property
    def num_buckets(self) -> int:
        return int(np.count_nonzero(self._bins > 0.0))

    @property
    def key_span(self) -> int:
        """Number of keys covered by the backing array (allocated bins)."""
        return int(self._bins.size)

    def size_in_bytes(self) -> int:
        # Model: 8 bytes per allocated counter plus fixed overhead, matching
        # what a flat array-of-doubles implementation would use.
        return 64 + 8 * int(self._bins.size)

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        payload["chunk_size"] = self._chunk_size
        return payload

    # ------------------------------------------------------------------ #
    # Internal index management
    # ------------------------------------------------------------------ #

    def _get_index(self, key: int) -> int:
        """Return the array index for ``key``, growing the backing array if needed."""
        if self._bins.size == 0:
            self._initialize(key)
            return key - self._offset
        if key < self._offset:
            self._extend_below(key)
        elif key >= self._offset + self._bins.size:
            self._extend_above(key)
        return key - self._offset

    def _initialize(self, key: int) -> None:
        self._bins = np.zeros(self._chunk_size, dtype=np.float64)
        self._offset = key - self._chunk_size // 2

    def _extend_range(self, min_key: int, max_key: int) -> None:
        """Grow the allocation so it covers ``[min_key, max_key]``.

        Bounded subclasses override this to move their window (and fold
        whatever falls outside of it) instead of growing without limit.
        """
        if self._bins.size == 0:
            self._initialize(min_key)
        if min_key < self._offset:
            self._extend_below(min_key)
        if max_key >= self._offset + self._bins.size:
            self._extend_above(max_key)

    def _batch_extend_range(self, min_key: int, max_key: int) -> None:
        """Window placement used by :meth:`add_batch`.

        For the unbounded store this is plain :meth:`_extend_range`.  The
        collapsing subclasses refine it so that a batch arriving after the
        window has already collapsed folds out-of-window keys into the
        boundary bucket — exactly what the scalar path's ``is_collapsed``
        short-circuit does — instead of letting the bulk-merge anchoring
        re-open the window.
        """
        self._extend_range(min_key, max_key)

    def _extend_below(self, key: int) -> None:
        missing = self._offset - key
        grow_by = int(math.ceil(missing / self._chunk_size)) * self._chunk_size
        self._bins = np.concatenate([np.zeros(grow_by, dtype=np.float64), self._bins])
        self._offset -= grow_by

    def _extend_above(self, key: int) -> None:
        missing = key - (self._offset + self._bins.size) + 1
        grow_by = int(math.ceil(missing / self._chunk_size)) * self._chunk_size
        self._bins = np.concatenate([self._bins, np.zeros(grow_by, dtype=np.float64)])

    def _key_range_hint(self) -> Optional[range]:
        """Range of keys currently covered by the allocation (for testing)."""
        if self._bins.size == 0:
            return None
        return range(self._offset, self._offset + self._bins.size)
