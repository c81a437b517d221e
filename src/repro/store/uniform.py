"""Uniform-collapse dense store (the UDDSketch storage strategy).

The paper's collapsing stores (Algorithms 3 and 4) bound memory by folding
*one end* of the key range together, which sacrifices the relative-error
guarantee for the collapsed tail.  UDDSketch (Epicoco et al., 2020) instead
collapses *uniformly*: every pair of adjacent bucket keys ``(2k - 1, 2k)`` is
folded into the single key ``k`` — equivalently ``k -> ceil(k / 2)`` — which
is exactly the bucket layout of a sketch whose growth factor is ``gamma**2``.
Each collapse therefore degrades the accuracy ``alpha`` gracefully and
*uniformly* (``alpha' = 2 * alpha / (1 + alpha**2)``) instead of destroying it
for one tail, so quantile queries stay relative-error accurate over the whole
``[0, 1]`` range no matter how many collapses happened.

:class:`UniformCollapsingDenseStore` implements the storage half of that
scheme: it behaves like a :class:`~repro.store.dense.DenseStore` until the
span of used keys exceeds ``bin_limit``, at which point it folds even/odd key
pairs in one vectorized ``bincount`` pass and increments
:attr:`collapse_count`.  The store cannot re-key the data on its own — bucket
keys are produced by the sketch's :class:`~repro.mapping.KeyMapping` — so the
counter is the *signal* to the owning sketch (``UDDSketch``) that it must
square ``gamma`` (via :meth:`~repro.mapping.KeyMapping.with_doubled_gamma`)
and collapse its sibling store the same number of times to keep both key
spaces aligned.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import IllegalArgumentError
from repro.store.base import Store
from repro.store.dense import CHUNK_SIZE, DenseStore


class UniformCollapsingDenseStore(DenseStore):
    """Dense store bounded to ``bin_limit`` keys by uniform even/odd folding.

    Unlike the tail-collapsing stores, a collapse here changes the meaning of
    *every* key (``k -> ceil(k / 2)``), so the owning sketch must track
    :attr:`collapse_count` and keep its key mapping (and its other store) in
    step; see :class:`repro.core.UDDSketch`.

    Parameters
    ----------
    bin_limit:
        Maximum span of used keys tracked before a uniform collapse halves
        the key space.
    chunk_size:
        Allocation granularity inherited from :class:`DenseStore`.
    """

    def __init__(self, bin_limit: int, chunk_size: int = CHUNK_SIZE) -> None:
        if bin_limit < 2:
            raise IllegalArgumentError(
                f"bin_limit must be at least 2 to allow folding, got {bin_limit!r}"
            )
        super().__init__(chunk_size=max(1, min(chunk_size, int(bin_limit))))
        self._bin_limit = int(bin_limit)
        self._collapse_count = 0

    # ------------------------------------------------------------------ #
    # Collapse bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def bin_limit(self) -> int:
        """Maximum span of used keys tracked without collapsing."""
        return self._bin_limit

    @property
    def collapse_count(self) -> int:
        """How many uniform collapses this store has performed.

        Each collapse corresponds to one squaring of the owning sketch's
        ``gamma``; the sketch reads this counter after every mutation to know
        how many times to refine its mapping.
        """
        return self._collapse_count

    @property
    def is_collapsed(self) -> bool:
        """Whether at least one uniform collapse has happened."""
        return self._collapse_count > 0

    def collapse(self) -> None:
        """Perform one uniform collapse pass: fold key ``k`` into ``ceil(k/2)``.

        The whole used key range is folded in a single vectorized
        ``bincount`` over the backing array; the total weight is conserved
        exactly (each new counter is the sum of at most two old ones).  The
        pass is performed even when it is not needed to satisfy
        ``bin_limit`` — the owning sketch calls it on the sibling store to
        keep both halves of a two-sided sketch in the same key space.
        """
        self._collapse_count += 1
        if self._num_positive == 0:
            # Nothing to fold; drop any stale allocation so its offset cannot
            # leak pre-collapse key positions into later anchoring.
            if self._bins.size:
                self._bins = np.zeros(0, dtype=np.float64)
                self._offset = 0
            return
        first = self.min_key
        last = self.max_key
        used = self._bins[first - self._offset : last - self._offset + 1]
        keys = np.arange(first, last + 1, dtype=np.int64)
        folded_keys = -(-keys // 2)  # ceil division, exact for negatives too
        new_offset = int(folded_keys[0])
        new_bins = np.bincount(folded_keys - new_offset, weights=used)
        self._bins = new_bins
        self._offset = new_offset
        self._num_positive = int(np.count_nonzero(new_bins > 0.0))

    def _collapse_if_needed(self) -> None:
        """Collapse until the used key span fits in ``bin_limit``.

        Also trims the backing allocation down to the used span whenever the
        chunked growth of the dense store left it wider than the budget, so
        the memory bound holds for the allocation and not just for the keys.
        """
        while self._num_positive > 0:
            if self.max_key - self.min_key + 1 <= self._bin_limit:
                break
            self.collapse()
        if self._bins.size > self._bin_limit:
            if self._num_positive == 0:
                self._bins = np.zeros(0, dtype=np.float64)
                self._offset = 0
            else:
                first = self.min_key
                last = self.max_key
                self._bins = self._bins[first - self._offset : last - self._offset + 1].copy()
                self._offset = first

    # ------------------------------------------------------------------ #
    # Mutation (inherited paths + post-operation collapse check)
    # ------------------------------------------------------------------ #

    def add(self, key: int, weight: float = 1.0) -> None:
        """:meth:`DenseStore.add`, then collapse until the used span fits."""
        super().add(key, weight)
        self._collapse_if_needed()

    def add_batch(self, keys: "np.ndarray", weights: Optional["np.ndarray"] = None) -> None:
        """:meth:`DenseStore.add_batch`, then collapse until the used span fits."""
        super().add_batch(keys, weights)
        self._collapse_if_needed()

    def _add_selection(self, selection) -> None:
        """Kernel-selection ingest with the uniform span check appended.

        The dense binning pass may push the used key span past ``bin_limit``
        for one moment; collapsing after the whole selection has landed
        (rather than mid-batch) matches :meth:`add_batch` — and the paper's
        UDD semantics — exactly, because the uniform fold commutes with
        accumulation at the original keys.
        """
        super()._add_selection(selection)
        self._collapse_if_needed()

    def merge(self, other: Store) -> None:
        """Merge without intermediate folds, then collapse once if needed.

        The per-item :meth:`add` path must not be used here: a collapse in
        the middle of a merge would leave the remaining source buckets keyed
        in the pre-collapse space.  All source buckets are therefore summed
        in at their original keys first (growing the allocation transiently
        beyond ``bin_limit`` if necessary) and the span check runs exactly
        once, over the union.
        """
        if other.is_empty:
            return
        if isinstance(other, DenseStore) and self._count > 0:
            self._merge_dense(other)
        else:
            keys, counts = other.nonzero_bins()
            DenseStore.add_batch(self, keys, counts)
        self._collapse_if_needed()

    def copy(self) -> "UniformCollapsingDenseStore":
        """:meth:`DenseStore.copy`, bin limit and collapse count included."""
        new = super().copy()
        new._bin_limit = self._bin_limit
        new._collapse_count = self._collapse_count
        return new

    def clear(self) -> None:
        """:meth:`DenseStore.clear`; the collapse count starts over too."""
        super().clear()
        self._collapse_count = 0

    # ------------------------------------------------------------------ #
    # Introspection / serialization
    # ------------------------------------------------------------------ #

    def size_in_bytes(self) -> int:
        """The dense model, counting at most ``bin_limit`` bins."""
        return 64 + 8 * min(int(self._bins.size), self._bin_limit)
