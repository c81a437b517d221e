"""Bounded-size dense stores that collapse extreme buckets.

These stores implement the bounded-memory behaviour of the full DDSketch
(Algorithms 3 and 4 of the paper): once the span of tracked keys reaches the
configured limit ``bin_limit``, buckets at one end of the key range are folded
together so that the store never tracks more than ``bin_limit`` keys.

:class:`CollapsingLowestDenseStore` collapses the *lowest* keys, preserving
accuracy for the high quantiles (the common case for latency monitoring);
:class:`CollapsingHighestDenseStore` collapses the *highest* keys and is used
for the negative-value half of a two-sided sketch, where large keys correspond
to values far below zero.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.exceptions import IllegalArgumentError
from repro.store.base import Store
from repro.store.dense import CHUNK_SIZE, DenseStore


class _BoundedDenseStore(DenseStore):
    """Shared plumbing for the two collapsing dense stores.

    The backing array always covers a contiguous key window whose width never
    exceeds ``bin_limit``.  Subclasses decide which side of the window gives
    way when it has to move.

    The batch-insertion path (:meth:`DenseStore.add_batch`) is inherited
    unchanged: it delegates window placement to :meth:`_extend_range`, which
    the subclasses override below, so a batch moves the window at most once
    and any key left outside it is clipped onto the boundary bucket — the
    same bucket the per-item path folds it into.  ``bin_limit`` is therefore
    honored identically by scalar and batch insertion.
    """

    def __init__(self, bin_limit: int, chunk_size: int = CHUNK_SIZE) -> None:
        if bin_limit <= 0:
            raise IllegalArgumentError(f"bin_limit must be positive, got {bin_limit!r}")
        super().__init__(chunk_size=max(1, min(chunk_size, bin_limit)))
        self._bin_limit = int(bin_limit)
        self._is_collapsed = False

    @property
    def bin_limit(self) -> int:
        """Maximum number of keys this store will track without collapsing."""
        return self._bin_limit

    @property
    def is_collapsed(self) -> bool:
        """Whether any weight has been folded into a boundary bucket."""
        return self._is_collapsed

    @classmethod
    def _decoded(
        cls, bins: "np.ndarray", offset: int, count: float, num_positive: int,
        bin_limit: int, is_collapsed: bool,
    ) -> "_BoundedDenseStore":
        """The bounded form of :meth:`DenseStore._decoded`."""
        store = cls.__new__(cls)
        store._chunk_size = CHUNK_SIZE if bin_limit >= CHUNK_SIZE else max(1, bin_limit)
        store._bins = bins
        store._offset = offset
        store._count = count
        store._num_positive = num_positive
        store._bin_limit = bin_limit
        store._is_collapsed = is_collapsed
        return store

    def copy(self) -> "_BoundedDenseStore":
        new = type(self)(bin_limit=self._bin_limit, chunk_size=self._chunk_size)
        new._bins = self._bins.copy()
        new._offset = self._offset
        new._count = self._count
        new._num_positive = self._num_positive
        new._is_collapsed = self._is_collapsed
        return new

    def clear(self) -> None:
        super().clear()
        self._is_collapsed = False

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        payload["bin_limit"] = self._bin_limit
        payload["is_collapsed"] = self._is_collapsed
        return payload

    def size_in_bytes(self) -> int:
        return 64 + 8 * min(int(self._bins.size), self._bin_limit)

    # ------------------------------------------------------------------ #
    # Window management shared by both collapse directions
    # ------------------------------------------------------------------ #

    def _initialize(self, key: int) -> None:
        size = min(self._chunk_size, self._bin_limit)
        self._bins = np.zeros(size, dtype=np.float64)
        self._offset = key - size // 2

    def _move_window(self, new_first: int, new_last: int, fold_low: bool) -> None:
        """Rebuild the backing array to cover ``[new_first, new_last]``.

        Existing weight outside the new window is folded into the boundary
        bucket on the collapsing side (``fold_low`` selects the low boundary).
        The overlapping key range moves as one array copy; only the weight
        left outside the new window needs summing.
        """
        size = new_last - new_first + 1
        new_bins = np.zeros(size, dtype=np.float64)
        old = self._bins
        # Position of old[0] within the new window.
        start = self._offset - new_first
        low = max(0, -start)
        high = min(int(old.size), size - start)
        if low < high:
            new_bins[start + low : start + high] = old[low:high]
            folded = float(old[:low].sum() + old[high:].sum())
        else:
            folded = float(old.sum())
        if folded > 0:
            new_bins[0 if fold_low else size - 1] += folded
            self._is_collapsed = True
        self._bins = new_bins
        self._offset = new_first
        self._num_positive = int(np.count_nonzero(new_bins > 0.0))


class CollapsingLowestDenseStore(_BoundedDenseStore):
    """Dense store bounded to ``bin_limit`` keys, collapsing the lowest keys.

    The window of tracked keys follows the maximum key: once the span would
    exceed ``bin_limit``, the window becomes ``[max_key - bin_limit + 1,
    max_key]`` and any weight destined below it is folded into the lowest
    tracked bucket.  This is exactly the size/accuracy trade-off of
    Proposition 4: quantile queries stay alpha-accurate as long as the
    queried value is within a factor ``gamma**(bin_limit - 1)`` of the
    maximum inserted value.
    """

    def _get_index(self, key: int) -> int:
        if self._bins.size == 0 or self._count <= 0:
            self.clear()
            self._initialize(key)
            return key - self._offset

        first = self._offset
        last = self._offset + len(self._bins) - 1

        if first <= key <= last:
            return key - first

        # The window is computed from the keys actually holding weight, not
        # from the allocation, so unused padding never triggers a collapse.
        used_min = self.min_key
        used_max = self.max_key

        if key > last:
            new_last = key
            new_first = max(min(used_min, first), new_last - self._bin_limit + 1)
            self._move_window(new_first, new_last, fold_low=True)
            return key - self._offset

        # key < first: growing downwards.
        if self._is_collapsed:
            # The window already gave up on lower keys; fold into the lowest bin.
            return 0
        new_first = key
        new_last = used_max
        if new_last - new_first + 1 > self._bin_limit:
            # Growing down would exceed the limit: anchor the window at the
            # highest used key and fold the new low value into the lowest
            # kept bucket.
            new_first = new_last - self._bin_limit + 1
            self._move_window(new_first, new_last, fold_low=True)
            self._is_collapsed = True
            return 0
        self._move_window(new_first, new_last, fold_low=True)
        return key - self._offset

    def _batch_extend_range(self, min_key: int, max_key: int) -> None:
        if self._is_collapsed and self._bins.size:
            # The scalar path's is_collapsed short-circuit folds keys below
            # an already-collapsed window into the boundary bucket without
            # moving the window; clamping here makes the batch path do the
            # same instead of re-opening the window via the merge anchoring.
            min_key = max(min_key, self._offset)
        self._extend_range(min_key, max_key)

    def _extend_range(self, min_key: int, max_key: int) -> None:
        """Cover ``[min_key, max_key]``, folding low keys if the span is too wide.

        Used by the bulk-merge fast path: the window is anchored at the
        highest key that needs covering, so the high quantiles keep their
        accuracy and everything below ``max - bin_limit + 1`` folds into the
        lowest kept bucket.
        """
        if self._bins.size == 0:
            first = max(min_key, max_key - self._bin_limit + 1)
            self._bins = np.zeros(max_key - first + 1, dtype=np.float64)
            self._offset = first
            if first > min_key:
                self._is_collapsed = True
            return
        first = self._offset
        last = self._offset + len(self._bins) - 1
        # Anchor at the highest key that actually needs covering (used weight
        # or incoming), so allocated-but-unused top bins do not waste window.
        used_top = self.max_key if self._count > 0 else last
        new_last = max(used_top, max_key)
        new_first = min(first, min_key)
        if new_last - new_first + 1 > self._bin_limit:
            new_first = new_last - self._bin_limit + 1
        if new_first > min_key:
            self._is_collapsed = True
        if (new_first, new_last) != (first, last):
            self._move_window(new_first, new_last, fold_low=True)


class CollapsingHighestDenseStore(_BoundedDenseStore):
    """Dense store bounded to ``bin_limit`` keys, collapsing the highest keys.

    Mirror image of :class:`CollapsingLowestDenseStore`: the window follows
    the minimum key and weight destined above it is folded into the highest
    tracked bucket.  Used for the negative branch of a two-sided sketch so
    that the values of smallest magnitude keep their accuracy.
    """

    def _get_index(self, key: int) -> int:
        if self._bins.size == 0 or self._count <= 0:
            self.clear()
            self._initialize(key)
            return key - self._offset

        first = self._offset
        last = self._offset + len(self._bins) - 1

        if first <= key <= last:
            return key - first

        # Mirror of the lowest-collapsing store: size the window from the keys
        # actually holding weight.
        used_min = self.min_key
        used_max = self.max_key

        if key < first:
            new_first = key
            new_last = min(max(used_max, last), new_first + self._bin_limit - 1)
            self._move_window(new_first, new_last, fold_low=False)
            return key - self._offset

        # key > last: growing upwards.
        if self._is_collapsed:
            return len(self._bins) - 1
        new_first = used_min
        new_last = key
        if new_last - new_first + 1 > self._bin_limit:
            new_last = new_first + self._bin_limit - 1
            self._move_window(new_first, new_last, fold_low=False)
            self._is_collapsed = True
            return len(self._bins) - 1
        self._move_window(new_first, new_last, fold_low=False)
        return key - self._offset

    def _batch_extend_range(self, min_key: int, max_key: int) -> None:
        if self._is_collapsed and self._bins.size:
            # Mirror of the lowest-collapsing clamp: keys above an already-
            # collapsed window fold into the top boundary bucket.
            max_key = min(max_key, self._offset + len(self._bins) - 1)
        self._extend_range(min_key, max_key)

    def _extend_range(self, min_key: int, max_key: int) -> None:
        """Cover ``[min_key, max_key]``, folding high keys if the span is too wide.

        Mirror of the lowest-collapsing version: the window is anchored at the
        lowest key that needs covering.
        """
        if self._bins.size == 0:
            last = min(max_key, min_key + self._bin_limit - 1)
            self._bins = np.zeros(last - min_key + 1, dtype=np.float64)
            self._offset = min_key
            if last < max_key:
                self._is_collapsed = True
            return
        first = self._offset
        last = self._offset + len(self._bins) - 1
        used_bottom = self.min_key if self._count > 0 else first
        new_first = min(used_bottom, min_key)
        new_last = max(last, max_key)
        if new_last - new_first + 1 > self._bin_limit:
            new_last = new_first + self._bin_limit - 1
        if new_last < max_key:
            self._is_collapsed = True
        if (new_first, new_last) != (first, last):
            self._move_window(new_first, new_last, fold_low=False)
