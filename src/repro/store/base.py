"""Abstract interface for DDSketch bucket stores (Section 2.2 of the paper)."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import EmptySketchError, IllegalArgumentError


@dataclass(frozen=True)
class Bucket:
    """A single (key, count) pair exposed when iterating over a store."""

    key: int
    count: float

    def __iter__(self) -> Iterator[Any]:
        return iter((self.key, self.count))


class Store(ABC):
    """A mapping from integer keys to non-negative counts.

    Stores are the only stateful component of a DDSketch besides a handful of
    scalar summaries; every concrete store supports weighted insertion,
    merging with another store of any concrete type, rank queries, and
    iteration in key order.
    """

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    @abstractmethod
    def add(self, key: int, weight: float = 1.0) -> None:
        """Increase the counter of ``key`` by ``weight`` (default 1)."""

    def add_batch(self, keys: "np.ndarray", weights: Optional["np.ndarray"] = None) -> None:
        """Add a whole array of keys (with optional per-key weights) at once.

        This is the store half of the batch-ingestion hot path.  The base
        implementation is a per-item loop with exactly the same semantics as
        calling :meth:`add` for each ``(key, weight)`` pair; concrete stores
        override it with a vectorized accumulation (dense stores grow their
        allocation once to cover the batch's key span, then accumulate with a
        single ``numpy.bincount`` pass).

        Parameters
        ----------
        keys : numpy.ndarray
            Integer bucket keys (any integer dtype; converted to ``int64``).
        weights : numpy.ndarray, optional
            Positive finite per-key weights, same length as ``keys``.  When
            omitted every key is added with weight 1.

        Notes
        -----
        Complexity is ``O(len(keys))`` plus, for dense stores, one allocation
        covering the batch's key span.  The resulting store state is
        identical to the per-item loop (bit-for-bit for unit weights;
        summation order inside one bucket may differ in the last ulp for
        fractional weights).
        """
        keys, weights = self._coerce_batch(keys, weights)
        if keys.size == 0:
            return
        if weights is None:
            for key in keys.tolist():
                self.add(key, 1.0)
        else:
            for key, weight in zip(keys.tolist(), weights.tolist()):
                self.add(key, weight)

    def _add_selection(self, selection) -> None:
        """Accumulate one :class:`repro.kernel.Selection` into this store.

        This is the store half of the columnar ingest kernel: the sketch
        layer hands each store the pre-keyed, pre-weighted slice of a batch
        (one sign's selection) and the store folds it in.  The base
        implementation materializes the selection's compressed keys/weights
        and delegates to :meth:`add_batch`, which is correct for every store
        type; :class:`~repro.store.DenseStore` overrides it to bin the
        selection straight into its counter window via the kernel, and the
        uniform-collapsing store appends its collapse check.  ``selection``
        is guaranteed non-empty with strictly positive finite weights.
        """
        self.add_batch(selection.keys, selection.weights)

    def remove(self, key: int, weight: float = 1.0) -> None:
        """Decrease the counter of ``key`` by ``weight``.

        The counter is clamped at zero: removing more weight than present
        empties the bucket rather than going negative.  Subclasses may
        override this with a more efficient implementation.
        """
        self.add(key, -weight)

    @abstractmethod
    def merge(self, other: "Store") -> None:
        """Add every (key, count) pair of ``other`` into this store."""

    @abstractmethod
    def copy(self) -> "Store":
        """Return a deep copy of this store."""

    @abstractmethod
    def clear(self) -> None:
        """Remove every bucket, leaving an empty store."""

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    @abstractmethod
    def count(self) -> float:
        """The total weight across all buckets."""

    @abstractmethod
    def key_at_rank(self, rank: float, lower: bool = True) -> int:
        """Return the key whose bucket contains the item of the given rank.

        Buckets are scanned in increasing key order and their counts summed;
        the returned key is the first one whose cumulative count exceeds
        ``rank`` (strictly, when ``lower`` is true — matching the paper's
        lower-quantile definition) or reaches it (when ``lower`` is false).
        """

    def key_at_rank_batch(self, ranks: "np.ndarray", lower: bool = True) -> "np.ndarray":
        """Answer many rank queries at once.

        This is the store half of the multi-quantile read path
        (:meth:`repro.core.BaseDDSketch.get_quantiles`): the base
        implementation loops :meth:`key_at_rank`, while the array-backed
        stores override it with one cumulative-count pass plus a single
        ``searchsorted`` over all ranks.

        Parameters
        ----------
        ranks : numpy.ndarray
            Ranks in ``[0, count)`` (values beyond the total count resolve to
            the extreme key, matching the scalar scan).
        lower : bool
            Same rank definition as :meth:`key_at_rank`.

        Returns
        -------
        numpy.ndarray
            ``int64`` keys, elementwise identical to calling
            :meth:`key_at_rank` per rank.
        """
        ranks = np.asarray(ranks, dtype=np.float64).reshape(-1)
        return np.fromiter(
            (self.key_at_rank(rank, lower) for rank in ranks.tolist()),
            dtype=np.int64,
            count=ranks.size,
        )

    def key_at_reversed_rank(self, rank: float) -> int:
        """Return the key at ``rank`` counted from the *top* of the store.

        The upper-rank query used for the negative branch of a two-sided
        sketch: buckets are walked in decreasing key order via
        :meth:`reversed` and the returned key is the first one whose
        cumulative count (from the top) strictly exceeds ``rank``.  For exact
        arithmetic this is the mirror image of ``key_at_rank(count - 1 -
        rank, lower=False)``; walking from the top avoids materializing the
        reversed rank.
        """
        if self.is_empty:
            raise EmptySketchError("cannot query the rank of an empty store")
        running = 0.0
        key = 0
        for bucket in self.reversed():
            running += bucket.count
            key = bucket.key
            if running > rank:
                return bucket.key
        return key

    def key_at_reversed_rank_batch(self, ranks: "np.ndarray") -> "np.ndarray":
        """Batched :meth:`key_at_reversed_rank`; overridden with one
        descending cumulative pass by the array-backed stores."""
        ranks = np.asarray(ranks, dtype=np.float64).reshape(-1)
        return np.fromiter(
            (self.key_at_reversed_rank(rank) for rank in ranks.tolist()),
            dtype=np.int64,
            count=ranks.size,
        )

    @abstractmethod
    def __iter__(self) -> Iterator[Bucket]:
        """Iterate over non-empty buckets in increasing key order."""

    def reversed(self) -> Iterator[Bucket]:
        """Iterate over non-empty buckets in decreasing key order.

        The base implementation materializes and sorts; the concrete stores
        override it with a direct reverse walk of their backing structure.
        """
        return iter(sorted(self, key=lambda bucket: -bucket.key))

    def nonzero_bins(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """Return the store contents as ``(keys, counts)`` ndarrays.

        Keys are ``int64`` in increasing order, counts the matching strictly
        positive ``float64`` weights.  This is the array-native export used
        by the serialization codecs and the cross-type bulk merges; dense
        stores produce it with one ``flatnonzero`` over the backing array.
        """
        keys = []
        counts = []
        for bucket in self:
            keys.append(bucket.key)
            counts.append(bucket.count)
        return (
            np.asarray(keys, dtype=np.int64),
            np.asarray(counts, dtype=np.float64),
        )

    @property
    @abstractmethod
    def min_key(self) -> int:
        """The smallest key with a non-zero count.

        Raises :class:`~repro.exceptions.EmptySketchError` when empty.
        """

    @property
    @abstractmethod
    def max_key(self) -> int:
        """The largest key with a non-zero count.

        Raises :class:`~repro.exceptions.EmptySketchError` when empty.
        """

    @property
    def num_buckets(self) -> int:
        """The number of non-empty buckets."""
        return sum(1 for _ in self)

    @property
    def is_empty(self) -> bool:
        """Whether the store holds no weight at all."""
        return self.count <= 0

    # ------------------------------------------------------------------ #
    # Introspection / serialization
    # ------------------------------------------------------------------ #

    def size_in_bytes(self) -> int:
        """Estimate of the memory footprint of this store in bytes.

        The estimate is a model of what a tight native implementation would
        use (8-byte counters plus per-structure overhead) rather than the
        Python object graph size, so that cross-sketch memory comparisons
        (Figure 6 of the paper) are meaningful and not dominated by
        interpreter overhead.
        """
        return 64 + 8 * max(self.num_buckets, 0)

    def key_counts(self) -> Dict[int, float]:
        """Return the store contents as a plain ``{key: count}`` dictionary."""
        return {bucket.key: bucket.count for bucket in self}

    # ------------------------------------------------------------------ #
    # Helpers shared by subclasses
    # ------------------------------------------------------------------ #

    @staticmethod
    def _validate_weight(weight: float) -> float:
        if weight != weight or weight == float("inf"):
            raise IllegalArgumentError(f"weight must be a finite number, got {weight!r}")
        return float(weight)

    @staticmethod
    def _coerce_batch(
        keys: "np.ndarray", weights: Optional["np.ndarray"]
    ) -> Tuple["np.ndarray", Optional["np.ndarray"]]:
        """Normalize and validate an ``add_batch`` input pair.

        Returns ``keys`` as a flat ``int64`` array and ``weights`` as a flat
        finite ``float64`` array of the same shape (or ``None`` when unit
        weights were requested).
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if weights is None:
            return keys, None
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.shape != keys.shape:
            raise IllegalArgumentError(
                f"weights shape {weights.shape} does not match keys shape {keys.shape}"
            )
        if not np.isfinite(weights).all():
            raise IllegalArgumentError("weights must be finite numbers")
        return keys, weights

    def __len__(self) -> int:
        return self.num_buckets

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Store):
            return NotImplemented
        return self.key_counts() == other.key_counts()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(count={self.count!r}, num_buckets={self.num_buckets})"
