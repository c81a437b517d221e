"""UDDSketch: DDSketch with uniform collapses and an adaptive accuracy.

The paper's bounded sketch (Algorithms 3 and 4) keeps memory constant by
collapsing the buckets of one tail, which abandons the relative-error
guarantee for the quantiles that land there.  UDDSketch (Epicoco, Melle,
Cafaro, Pulimeno, 2020) keeps the guarantee over the *entire* ``[0, 1]``
quantile range instead: when the bucket budget is exceeded, every pair of
adjacent buckets is folded together (``k -> ceil(k / 2)``), which is exactly
the sketch that would have been built with ``gamma**2`` from the start.  Each
collapse therefore trades accuracy uniformly —

    ``alpha' = 2 * alpha / (1 + alpha**2)``

— and the sketch always knows its *current* guarantee, exposed as
:attr:`UDDSketch.relative_accuracy` (the inherited property now reflects the
degraded mapping) next to the configured :attr:`initial_relative_accuracy`.

Merging follows the stream-fusion semantics of the follow-up work (Cafaro et
al., 2021): two UDDSketches whose mappings descend from the same initial
``gamma`` by different numbers of collapses are merged by first collapsing
the *finer* side until both use the same ``gamma``, so the result carries the
coarser input's guarantee.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ddsketch import BaseDDSketch, DEFAULT_RELATIVE_ACCURACY, bin_limit_property
from repro.exceptions import IllegalArgumentError
from repro.mapping import KeyMapping, LogarithmicMapping
from repro.store import UniformCollapsingDenseStore

#: Default bucket budget per store.  Smaller than the tail-collapsing default
#: (2048) because a uniform collapse recovers half the budget in one pass, so
#: the steady-state cost of a tight budget is a coarser-but-valid guarantee
#: rather than a destroyed tail.
DEFAULT_UNIFORM_BIN_LIMIT = 512

#: Sanity cap on deserialized collapse counts.  The accuracy degradation
#: ``alpha' = 2 alpha / (1 + alpha**2)`` pushes alpha to within float
#: rounding of 1.0 after a few dozen collapses even from alpha = 1e-6, so no
#: genuine sketch ever gets near this; a larger wire value is a malformed
#: payload (and, unvalidated, would make the first post-decode mutation spin
#: through billions of catch-up collapse calls).
MAX_COLLAPSE_COUNT = 64


class UDDSketch(BaseDDSketch):
    """Quantile sketch with bounded memory and a uniformly-degrading guarantee.

    Parameters
    ----------
    relative_accuracy:
        The *initial* accuracy ``alpha``; the effective accuracy degrades as
        collapses happen and is always available as ``relative_accuracy``.
    bin_limit:
        Bucket budget per store; exceeding it triggers a uniform collapse.
    mapping:
        Optional explicit key mapping.  Must be the exact logarithmic mapping
        family for the fold-vs-``gamma**2`` correspondence to be exact; the
        default is :class:`~repro.mapping.LogarithmicMapping`.

    Examples
    --------
    >>> import numpy as np
    >>> sketch = UDDSketch(relative_accuracy=0.01, bin_limit=128)
    >>> sketch.add_batch(np.logspace(-3, 6, 100_000))  # doctest: +ELLIPSIS
    UDDSketch(...)
    >>> sketch.collapse_count >= 1
    True
    >>> sketch.relative_accuracy > sketch.initial_relative_accuracy
    True
    """

    # Class-level defaults so instances built via ``__new__`` by the codecs
    # are well-formed before the decoder restores the real values.
    _collapse_count: int = 0
    _initial_relative_accuracy: Optional[float] = None

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        bin_limit: int = DEFAULT_UNIFORM_BIN_LIMIT,
        mapping: Optional[KeyMapping] = None,
    ) -> None:
        if mapping is None:
            mapping = LogarithmicMapping(relative_accuracy)
        if mapping.offset != 0.0:
            # The store fold k -> ceil(k/2) matches the gamma**2 mapping only
            # for unshifted keys; an offset (a foreign-payload compatibility
            # shim) would drift off the folded grid after the first collapse.
            raise IllegalArgumentError(
                f"UDDSketch requires a mapping with offset 0, got {mapping.offset!r}"
            )
        if bin_limit < 2:
            raise IllegalArgumentError(
                f"bin_limit must be at least 2 to allow folding, got {bin_limit!r}"
            )
        super().__init__(
            mapping=mapping,
            store=UniformCollapsingDenseStore(bin_limit=bin_limit),
            negative_store=UniformCollapsingDenseStore(bin_limit=bin_limit),
        )
        self._initial_relative_accuracy = float(mapping.relative_accuracy)
        self._collapse_count = 0

    # ------------------------------------------------------------------ #
    # Accuracy bookkeeping
    # ------------------------------------------------------------------ #

    bin_limit = bin_limit_property

    @property
    def initial_relative_accuracy(self) -> float:
        """The accuracy the sketch was configured with, before any collapse."""
        if self._initial_relative_accuracy is None:
            return self._mapping.relative_accuracy
        return self._initial_relative_accuracy

    @property
    def collapse_count(self) -> int:
        """Number of uniform collapses (``gamma`` squarings) performed so far."""
        return self._collapse_count

    def _sync_collapses(self) -> None:
        """Bring both stores and the mapping to the same collapse count.

        A mutation can trigger a collapse in one store only; the sibling
        store must fold the same number of times (so both halves of the
        sketch share one key space) and the mapping must square its ``gamma``
        once per collapse so freshly inserted values land in the folded
        buckets.
        """
        self._collapse_to(
            max(self._store.collapse_count, self._negative_store.collapse_count)
        )

    def _collapse_to(self, target: int) -> None:
        """Coarsen stores and mapping until all have ``target`` collapses."""
        for store in (self._store, self._negative_store):
            while store.collapse_count < target:
                store.collapse()
        while self._collapse_count < target:
            self._mapping = self._mapping.with_doubled_gamma()
            self._collapse_count += 1

    def _mapping_after_collapses(self, extra: int) -> KeyMapping:
        """The mapping this sketch would use after ``extra`` more collapses."""
        mapping = self._mapping
        for _ in range(extra):
            mapping = mapping.with_doubled_gamma()
        return mapping

    # ------------------------------------------------------------------ #
    # Mutation (inherited behaviour + collapse synchronization)
    # ------------------------------------------------------------------ #

    def add(self, value: float, weight: float = 1.0) -> None:
        """Insert ``value``, then bring both stores and the mapping to one collapse count."""
        super().add(value, weight)
        self._sync_collapses()

    def add_batch(self, values, weights=None) -> "UDDSketch":
        """Insert a batch, then bring both stores and the mapping to one collapse count."""
        super().add_batch(values, weights)
        self._sync_collapses()
        return self

    def delete(self, value: float, weight: float = 1.0) -> None:
        """Delete with immediate re-synchronization.

        Fully draining a store makes it ``clear()`` itself, which resets its
        collapse counter while the sketch's mapping stays coarsened.
        Re-syncing here — while the store is still empty, so the catch-up
        ``collapse()`` calls bump its counter without folding anything —
        prevents a later insertion from being folded twice.
        """
        super().delete(value, weight)
        self._sync_collapses()

    def mergeable_with(self, other: BaseDDSketch) -> bool:
        """Whether :meth:`merge` accepts ``other``.

        Another :class:`UDDSketch` qualifies when it shares this sketch's
        lineage: the finer side's mapping, collapsed as often as the
        coarser side was, equals the coarser side's mapping (with equal
        collapse counts, the mappings are equal).  Any other sketch needs
        an equal mapping, as in the base class.
        """
        if not isinstance(other, UDDSketch) or other._collapse_count == self._collapse_count:
            return super().mergeable_with(other)
        if other._collapse_count > self._collapse_count:
            finer, coarser = self, other
        else:
            finer, coarser = other, self
        extra = coarser._collapse_count - finer._collapse_count
        return finer._mapping_after_collapses(extra) == coarser._mapping

    def merge(self, other: BaseDDSketch) -> None:
        """Merge with mismatched-``alpha`` fusion semantics.

        Another :class:`UDDSketch` descending from the same initial mapping
        is merged by first collapsing the *finer* side (fewer collapses)
        until both sketches share one ``gamma``; the merged sketch carries
        the coarser guarantee.  ``other`` is never mutated — when it is the
        finer side, a coarsened copy is merged instead.  Any other sketch is
        merged under the usual equal-mapping rule of the base class.

        Lineage compatibility (:meth:`mergeable_with`) is validated
        *before* anything is coarsened: a rejected merge must not leave
        this sketch with a needlessly degraded guarantee.
        """
        self.check_mergeable(other)
        if isinstance(other, UDDSketch) and other._collapse_count != self._collapse_count:
            if other._collapse_count > self._collapse_count:
                self._collapse_to(other._collapse_count)
            else:
                other = other.copy()
                other._collapse_to(self._collapse_count)
        super().merge(other)
        self._sync_collapses()

    def copy(self) -> "UDDSketch":
        """Return a deep copy of this sketch, collapse lineage included."""
        new = super().copy()
        new._collapse_count = self._collapse_count
        new._initial_relative_accuracy = self._initial_relative_accuracy
        return new

    # ------------------------------------------------------------------ #
    # Representation
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}("
            f"initial_relative_accuracy={self.initial_relative_accuracy!r}, "
            f"current_relative_accuracy={self.relative_accuracy!r}, "
            f"collapse_count={self._collapse_count}, "
            f"count={self._count!r}, num_buckets={self.num_buckets})"
        )
