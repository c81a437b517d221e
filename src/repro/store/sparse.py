"""Sparse (dictionary-backed) bucket store.

This is one of the bucket-storage strategies the paper discusses in
Section 2.2 ("contiguous or not" in the implementation notes): memory grows
with the number of *non-empty* buckets only, which is the behaviour assumed
by the size analysis of Section 3.  Insertion is a dictionary update, slower
than the dense store's list indexing but free of any range bookkeeping.  This
store also offers the paper's exact collapse primitive of Algorithms 3 and 4
(fold the lowest non-empty bucket into the next non-empty one), which
:class:`~repro.core.SparseDDSketch` uses when configured with a maximum
number of buckets.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.store.base import Bucket, Store
from repro.store.dense import DenseStore


class SparseStore(Store):
    """Dictionary-backed store: ``{key: count}`` with only non-empty keys."""

    def __init__(self) -> None:
        self._bins: Dict[int, float] = {}
        self._count = 0.0

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, key: int, weight: float = 1.0) -> None:
        """Add ``weight`` to ``key``'s entry; a zero weight is a no-op and a
        negative one a :meth:`remove`."""
        weight = self._validate_weight(weight)
        if weight == 0.0:
            return
        if weight < 0.0:
            self.remove(key, -weight)
            return
        self._bins[key] = self._bins.get(key, 0.0) + weight
        self._count += weight

    def add_batch(self, keys: "np.ndarray", weights: Optional["np.ndarray"] = None) -> None:
        """Bulk insertion: one ``numpy.unique`` pass, one dict update per bucket.

        Keys are deduplicated and their weights pre-summed with NumPy so that
        the Python-level dictionary update runs once per *distinct* bucket
        rather than once per value — for sketch workloads the number of
        distinct buckets is orders of magnitude below the batch length
        (Section 3 of the paper bounds it logarithmically in the data range).

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
        ``O(len(keys) * log(len(keys)))`` for the sort inside ``unique`` plus
        ``O(num_distinct)`` dictionary updates.  The final contents are
        identical to the per-item loop (bit-for-bit for unit weights).
        """
        keys, weights = self._coerce_batch(keys, weights)
        if keys.size == 0:
            return
        if weights is None:
            unique_keys, per_key = np.unique(keys, return_counts=True)
            per_key = per_key.astype(np.float64)
        else:
            if not (weights > 0.0).all():
                super().add_batch(keys, weights)
                return
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            per_key = np.bincount(inverse, weights=weights)
        bins = self._bins
        for key, weight in zip(unique_keys.tolist(), per_key.tolist()):
            bins[key] = bins.get(key, 0.0) + weight
        self._count += float(per_key.sum())

    def remove(self, key: int, weight: float = 1.0) -> None:
        """Take up to ``weight`` from ``key``'s entry, dropping it once empty."""
        weight = self._validate_weight(weight)
        if weight < 0.0:
            raise IllegalArgumentError("cannot remove a negative weight")
        current = self._bins.get(key, 0.0)
        if current <= 0.0 or weight == 0.0:
            return
        removed = min(current, weight)
        remaining = current - removed
        if remaining > 0.0:
            self._bins[key] = remaining
        else:
            del self._bins[key]
        self._count -= removed

    def merge(self, other: Store) -> None:
        """Add every bucket of ``other``; a dense source in one :meth:`add_batch`."""
        if other.is_empty:
            return
        if isinstance(other, DenseStore):
            # Bulk-convert the dense backing array instead of iterating
            # Bucket objects: one flatnonzero export, one pre-aggregated
            # dictionary pass via add_batch.
            keys, counts = other.nonzero_bins()
            self.add_batch(keys, counts)
            return
        for bucket in other:
            self.add(bucket.key, bucket.count)

    def copy(self) -> "SparseStore":
        """A deep copy: the same entries in a new dictionary."""
        new = type(self)()
        new._bins = dict(self._bins)
        new._count = self._count
        return new

    def clear(self) -> None:
        """Drop every entry."""
        self._bins = {}
        self._count = 0.0

    def collapse_lowest(self) -> None:
        """Fold the lowest non-empty bucket into the next lowest one.

        This is exactly the collapse step of Algorithms 3 and 4 in the paper.
        A no-op when the store has fewer than two non-empty buckets.
        """
        if len(self._bins) < 2:
            return
        keys = sorted(self._bins)
        lowest, second = keys[0], keys[1]
        self._bins[second] += self._bins.pop(lowest)

    def collapse_highest(self) -> None:
        """Fold the highest non-empty bucket into the next highest one."""
        if len(self._bins) < 2:
            return
        keys = sorted(self._bins)
        highest, second = keys[-1], keys[-2]
        self._bins[second] += self._bins.pop(highest)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def count(self) -> float:
        """The running total of the weight added."""
        return self._count

    @property
    def min_key(self) -> int:
        """The lowest key with an entry."""
        if not self._bins:
            raise EmptySketchError("the store is empty")
        return min(self._bins)

    @property
    def max_key(self) -> int:
        """The highest key with an entry."""
        if not self._bins:
            raise EmptySketchError("the store is empty")
        return max(self._bins)

    def key_at_rank(self, rank: float, lower: bool = True) -> int:
        """Scan the entries in key order until the running count passes ``rank``."""
        if self.is_empty:
            raise EmptySketchError("cannot query the rank of an empty store")
        running = 0.0
        last_key = 0
        for key in sorted(self._bins):
            running += self._bins[key]
            last_key = key
            if (lower and running > rank) or (not lower and running >= rank + 1):
                return key
        return last_key

    def _sorted_arrays(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """The bucket contents as parallel (keys, counts) arrays, key-sorted."""
        keys = np.array(sorted(self._bins), dtype=np.int64)
        counts = np.array([self._bins[key] for key in keys.tolist()], dtype=np.float64)
        return keys, counts

    def key_at_rank_batch(self, ranks: "np.ndarray", lower: bool = True) -> "np.ndarray":
        """Batched rank query: one cumulative pass over the sorted buckets.

        The cumulative counts accumulate in the same key order as the scalar
        scan, so the answers are identical to per-rank :meth:`key_at_rank`
        calls.
        """
        if self.is_empty:
            raise EmptySketchError("cannot query the rank of an empty store")
        ranks = np.asarray(ranks, dtype=np.float64).reshape(-1)
        keys, counts = self._sorted_arrays()
        cumulative = np.cumsum(counts)
        if lower:
            indices = np.searchsorted(cumulative, ranks, side="right")
        else:
            indices = np.searchsorted(cumulative, ranks + 1.0, side="left")
        return keys[np.minimum(indices, keys.size - 1)]

    def key_at_reversed_rank_batch(self, ranks: "np.ndarray") -> "np.ndarray":
        """Batched upper-rank query over the descending key order."""
        if self.is_empty:
            raise EmptySketchError("cannot query the rank of an empty store")
        ranks = np.asarray(ranks, dtype=np.float64).reshape(-1)
        keys, counts = self._sorted_arrays()
        cumulative = np.cumsum(counts[::-1])
        indices = np.searchsorted(cumulative, ranks, side="right")
        return keys[::-1][np.minimum(indices, keys.size - 1)]

    def __iter__(self) -> Iterator[Bucket]:
        for key in sorted(self._bins):
            value = self._bins[key]
            if value > 0:
                yield Bucket(key, value)

    def reversed(self) -> Iterator[Bucket]:
        """Iterate over non-empty buckets in decreasing key order.

        One descending sort of the keys — no intermediate Bucket list.
        """
        for key in sorted(self._bins, reverse=True):
            value = self._bins[key]
            if value > 0:
                yield Bucket(key, value)

    def nonzero_bins(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(keys, counts)`` of every entry, in key order."""
        return self._sorted_arrays()

    @property
    def num_buckets(self) -> int:
        """The number of entries."""
        return len(self._bins)

    def size_in_bytes(self) -> int:
        """Modelled footprint: a key and a counter (8 bytes each) per entry,
        times 1.5 for the hash table's load factor, plus 64 of overhead."""
        return 64 + int(24 * len(self._bins))
