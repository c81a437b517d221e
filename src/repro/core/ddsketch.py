"""DDSketch: a fast, fully-mergeable quantile sketch with relative-error guarantees.

This module implements the sketch described in Section 2 of the paper.  The
sketch assigns every value to a logarithmically-sized bucket (via a
:class:`~repro.mapping.KeyMapping`), counts per-bucket weights in a
:class:`~repro.store.Store`, and answers quantile queries by walking the
buckets in key order until the cumulative count passes the requested rank.
Values within any bucket are within a relative distance ``alpha`` of the
bucket's representative value (Lemma 2), so every reported quantile is an
``alpha``-accurate estimate (Proposition 3).

On top of the paper's positive-value sketch, this implementation adds the
extensions discussed in Section 2.2:

* a mirrored second store for negative values,
* a dedicated counter for zero (and near-zero) values,
* exact tracking of count, sum, min and max,
* weighted insertion and deletion,
* merging of sketches that share the same mapping (fully mergeable), and
* serialization to and from the compact binary format
  (:mod:`repro.serialization`).
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import kernel
from repro.exceptions import (
    EmptySketchError,
    IllegalArgumentError,
    UnequalSketchParametersError,
)
from repro.mapping import KeyMapping, LogarithmicMapping
from repro.store import CollapsingLowestDenseStore, CollapsingHighestDenseStore, Store

#: Default number of buckets for the bounded default sketch; matches the
#: paper's experiments (Table 2) where m = 2048 covers values from roughly
#: 80 microseconds to 1 year at alpha = 0.01.
DEFAULT_BIN_LIMIT = 2048

#: Default relative accuracy; matches the paper's experiments (Table 2).
DEFAULT_RELATIVE_ACCURACY = 0.01


class BaseDDSketch:
    """Quantile sketch with relative-error guarantees over arbitrary reals.

    This class implements the sketch mechanics for a given key mapping and a
    pair of stores; the ready-to-use configurations live in
    :mod:`repro.core.presets` and :class:`DDSketch` below.

    Parameters
    ----------
    mapping:
        The :class:`~repro.mapping.KeyMapping` translating values to bucket
        keys; its ``relative_accuracy`` is the sketch's accuracy guarantee.
    store:
        Bucket store for positive values.
    negative_store:
        Bucket store for the magnitudes of negative values.
    zero_count:
        Initial weight of the zero bucket (used when deserializing).
    """

    def __init__(
        self,
        mapping: KeyMapping,
        store: Store,
        negative_store: Store,
        zero_count: float = 0.0,
    ) -> None:
        self._mapping = mapping
        self._store = store
        self._negative_store = negative_store
        self._zero_count = float(zero_count)

        self._min = float("inf")
        self._max = float("-inf")
        self._count = float(zero_count)
        self._sum = 0.0

    # ------------------------------------------------------------------ #
    # Scalar summaries
    # ------------------------------------------------------------------ #

    @property
    def relative_accuracy(self) -> float:
        """The relative accuracy ``alpha`` guaranteed for quantile estimates."""
        return self._mapping.relative_accuracy

    @property
    def gamma(self) -> float:
        """The bucket growth factor ``(1 + alpha) / (1 - alpha)``."""
        return self._mapping.gamma

    @property
    def mapping(self) -> KeyMapping:
        """The key mapping used by this sketch."""
        return self._mapping

    @property
    def store(self) -> Store:
        """The store holding positive-value buckets."""
        return self._store

    @property
    def negative_store(self) -> Store:
        """The store holding negative-value buckets (keyed by magnitude)."""
        return self._negative_store

    @property
    def count(self) -> float:
        """Total inserted weight."""
        return self._count

    @property
    def total_count(self) -> float:
        """Alias of :attr:`count`.

        Mirrors the ``total_count`` property of the aggregation container
        :class:`~repro.monitoring.SketchTimeSeries`, so generic code can read
        ``total_count`` off a sketch or a container of sketches alike.
        (:meth:`repro.registry.SketchRegistry.total_count` is a *method*, as
        it takes metric/tag filters.)
        """
        return self._count

    @property
    def zero_count(self) -> float:
        """Weight assigned to the dedicated zero bucket."""
        return self._zero_count

    @property
    def sum(self) -> float:
        """Exact sum of all inserted values (weighted)."""
        return self._sum

    @property
    def avg(self) -> float:
        """Exact average of all inserted values (weighted)."""
        if self._count <= 0:
            raise EmptySketchError("cannot compute the average of an empty sketch")
        return self._sum / self._count

    @property
    def min(self) -> float:
        """Exact minimum inserted value."""
        if self._count <= 0:
            raise EmptySketchError("cannot compute the minimum of an empty sketch")
        return self._min

    @property
    def max(self) -> float:
        """Exact maximum inserted value."""
        if self._count <= 0:
            raise EmptySketchError("cannot compute the maximum of an empty sketch")
        return self._max

    @property
    def is_empty(self) -> bool:
        """Whether no weight has been inserted (or everything was deleted)."""
        return self._count <= 0

    @property
    def num_buckets(self) -> int:
        """Number of non-empty buckets across both stores (plus the zero bucket)."""
        zero_bucket = 1 if self._zero_count > 0 else 0
        return self._store.num_buckets + self._negative_store.num_buckets + zero_bucket

    def size_in_bytes(self) -> int:
        """Modelled memory footprint in bytes (see :meth:`Store.size_in_bytes`)."""
        # 5 scalar summaries of 8 bytes each on top of the two stores.
        return self._store.size_in_bytes() + self._negative_store.size_in_bytes() + 40

    # ------------------------------------------------------------------ #
    # Insertion and deletion
    # ------------------------------------------------------------------ #

    def add(self, value: float, weight: float = 1.0) -> None:
        """Insert ``value`` into the sketch with multiplicity ``weight``.

        ``weight`` may be fractional but must be positive.  Values whose
        magnitude is below the mapping's smallest indexable value are counted
        in the dedicated zero bucket (Section 2.2 of the paper).
        """
        if weight <= 0 or math.isnan(weight) or math.isinf(weight):
            raise IllegalArgumentError(f"weight must be a positive finite number, got {weight!r}")
        if math.isnan(value) or math.isinf(value):
            raise IllegalArgumentError(f"value must be a finite number, got {value!r}")

        sign, key = kernel.classify_value(self._mapping, value)
        if sign == kernel.POSITIVE:
            self._store.add(key, weight)
        elif sign == kernel.NEGATIVE:
            self._negative_store.add(key, weight)
        else:
            self._zero_count += weight

        self._count += weight
        self._sum += value * weight
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def delete(self, value: float, weight: float = 1.0) -> None:
        """Remove ``weight`` worth of ``value`` from the sketch.

        Deletion is supported because the bucket boundaries do not depend on
        the data (Section 2.1).  The exact ``min``/``max``/``sum`` summaries
        become upper/lower bounds after a deletion since the sketch cannot
        know whether the deleted value was the extreme one.
        """
        if weight <= 0 or math.isnan(weight) or math.isinf(weight):
            raise IllegalArgumentError(f"weight must be a positive finite number, got {weight!r}")
        if math.isnan(value) or math.isinf(value):
            raise IllegalArgumentError(f"value must be a finite number, got {value!r}")
        if self._count <= 0:
            return

        removable = min(weight, self._count)
        sign, key = kernel.classify_value(self._mapping, value)
        if sign == kernel.POSITIVE:
            self._store.remove(key, removable)
        elif sign == kernel.NEGATIVE:
            self._negative_store.remove(key, removable)
        else:
            self._zero_count = max(0.0, self._zero_count - removable)

        self._count = max(0.0, self._count - removable)
        self._sum -= value * removable
        if self._count == 0:
            self._min = float("inf")
            self._max = float("-inf")
            self._sum = 0.0

    def add_batch(
        self,
        values: "np.ndarray",
        weights: Optional[Union[float, "np.ndarray"]] = None,
    ) -> "BaseDDSketch":
        """Insert a whole array of values at once (vectorized hot path).

        This is the batch counterpart of :meth:`add` and the entry point of
        the columnar ingestion pipeline: one
        :func:`repro.kernel.compute_keys` pass performs the sign/zero split
        and the bucket-key computation, and each store accumulates its
        sign's :class:`~repro.kernel.Selection` through the segment hook
        (``Store._add_selection``).  The exact ``count``, ``sum``, ``min``
        and ``max`` summaries are updated from array reductions.

        Parameters
        ----------
        values : numpy.ndarray
            Finite floats (any shape; flattened).  Anything array-like that
            ``numpy.asarray`` accepts works, but an existing ``float64``
            array is ingested without copying.
        weights : float or numpy.ndarray, optional
            Positive finite multiplicities: either one scalar applied to
            every value or an array of the same length as ``values``.
            Omitted means weight 1 per value.

        Returns
        -------
        BaseDDSketch
            ``self``, for chaining.

        Raises
        ------
        IllegalArgumentError
            If any value or weight is non-finite, any weight is not
            positive, or the shapes do not match.  Validation happens before
            any mutation, so a rejected batch leaves the sketch unchanged
            (unlike a per-item loop, which would raise halfway through).

        Notes
        -----
        ``O(len(values))`` — one key computation and one counter
        accumulation per value, as in Section 2.1 of the paper, without the
        per-value Python call chain.  This method is a thin adapter over
        :mod:`repro.kernel`: the sign split and key computation run in the
        active kernel backend (NumPy or compiled), the stores consume the
        resulting per-sign selections through their segment hooks, and the
        exact summaries come from shared array reductions — so the resulting
        sketch is bit-identical across backends, and identical to looping
        :meth:`add` over the batch (same buckets and counts, same
        ``count``/``min``/``max``; ``sum`` may differ only by summation
        order).
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            return self
        values, weight_array = kernel.coerce_values_weights(values, weights)

        split = kernel.compute_keys(self._mapping, values)
        if split.num_positive:
            self._store._add_selection(split.selection(kernel.POSITIVE, weight_array))
        if split.num_negative:
            self._negative_store._add_selection(
                split.selection(kernel.NEGATIVE, weight_array)
            )

        if weight_array is None:
            zero_weight = float(split.num_zero)
            total_weight = float(values.size)
            batch_sum = float(values.sum())
        else:
            zero_weight = float(weight_array[split.zero_mask].sum())
            total_weight = float(weight_array.sum())
            batch_sum = float((values * weight_array).sum())

        self._zero_count += zero_weight
        self._count += total_weight
        self._sum += batch_sum
        batch_min = float(values.min())
        batch_max = float(values.max())
        if batch_min < self._min:
            self._min = batch_min
        if batch_max > self._max:
            self._max = batch_max
        return self

    @staticmethod
    def add_grouped_batch(
        sketches: Sequence["BaseDDSketch"],
        group_indices: "np.ndarray",
        values: "np.ndarray",
        weights: Optional[Union[float, "np.ndarray"]] = None,
        scratch: Optional["GroupedScratch"] = None,
    ) -> None:
        """Ingest one columnar batch into many sketches at once (group-by path).

        This is the sketch half of the high-cardinality ingestion pipeline:
        a batch arrives as parallel ``(group_index, value)`` columns — one
        series per group — and is folded into ``sketches[group]`` without a
        Python-level loop over the samples.

        When every sketch shares the same mapping and uses plain or
        tail-collapsing dense stores — the default :class:`DDSketch` does —
        the whole batch is keyed with **one** :func:`repro.kernel.compute_keys`
        pass and accumulated across all groups with one combined binning
        pass per sign (:func:`repro.store.grouped.add_grouped_batch`); the
        exact per-sketch ``count``/``sum``/``min``/``max`` summaries come from
        grouped array reductions and one scalar loop.  On that pass a fresh
        target (a collapsing store with no bins allocated, as a new series
        has) whose row fits its bin limit takes a copy of the row as its
        window in one step, bit for bit what
        :func:`repro.kernel.apply_segments` gives, which every other target
        still takes.  Any other configuration — uniform-collapse
        or sparse stores, sketch classes with their own :meth:`add_batch`,
        sketches whose mappings have diverged (e.g. independently collapsed
        :class:`~repro.core.UDDSketch` series) — falls back to one stable
        sort plus a per-group :meth:`add_batch` slice, which preserves each
        sketch type's semantics exactly (adaptive alpha, bucket limits).

        Parameters
        ----------
        sketches:
            The target sketches; ``group_indices`` values index into this
            sequence.
        group_indices : numpy.ndarray
            Integer group index per sample, each in ``[0, len(sketches))``.
        values : numpy.ndarray
            Finite floats, parallel to ``group_indices``.
        weights : float or numpy.ndarray, optional
            Positive finite multiplicities (scalar or per-sample array).
        scratch : repro.store.GroupedScratch, optional
            Reusable flat-index scratch for the combined ``bincount`` pass;
            single-writer callers that ingest repeatedly (each registry's
            grouped ingest) pass one to avoid reallocating the batch-sized
            temporary every call.  Results are bit-identical with or without
            it.

        Notes
        -----
        The result is identical to splitting the columns by group and calling
        ``sketches[g].add_batch`` per group — and therefore to looping
        :meth:`add` per sample: bit-for-bit for unit weights (buckets, store
        windows and collapse state, ``count``, ``zero_count``, ``min``,
        ``max``).  On the combined pass ``sum`` is each group's
        left-to-right input-order sum, like the per-item loop's, where
        :meth:`add_batch` sums pairwise; the two may differ in the last ulp
        for groups of 8 or more values.
        """
        from repro.store.grouped import SEGMENT_STORE_TYPES, group_totals
        from repro.store.grouped import add_grouped_batch as store_add_grouped

        sketches = list(sketches)
        num_groups = len(sketches)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        group_indices = np.asarray(group_indices, dtype=np.int64).reshape(-1)
        if group_indices.shape != values.shape:
            raise IllegalArgumentError(
                f"group_indices shape {group_indices.shape} does not match "
                f"values shape {values.shape}"
            )
        if values.size == 0:
            return
        if num_groups == 0:
            raise IllegalArgumentError("cannot ingest a grouped batch into zero sketches")
        if int(group_indices.min()) < 0 or int(group_indices.max()) >= num_groups:
            raise IllegalArgumentError(
                f"group indices must be in [0, {num_groups}), got range "
                f"[{int(group_indices.min())}, {int(group_indices.max())}]"
            )
        values, weight_array = kernel.coerce_values_weights(values, weights)

        mapping = sketches[0]._mapping
        shared_fast_path = all(
            type(sketch).add_batch is BaseDDSketch.add_batch
            and type(sketch._store) in SEGMENT_STORE_TYPES
            and type(sketch._negative_store) in SEGMENT_STORE_TYPES
            and (sketch._mapping is mapping or sketch._mapping == mapping)
            for sketch in sketches
        )

        if not shared_fast_path:
            # Per-group fallback: one stable sort, then each group's slice
            # through its own add_batch (full subclass semantics preserved).
            order = np.argsort(group_indices, kind="stable")
            sorted_groups = group_indices[order]
            sorted_values = values[order]
            sorted_weights = None if weight_array is None else weight_array[order]
            boundaries = np.searchsorted(sorted_groups, np.arange(num_groups + 1))
            for group in np.unique(sorted_groups).tolist():
                low, high = int(boundaries[group]), int(boundaries[group + 1])
                sketches[group].add_batch(
                    sorted_values[low:high],
                    None if sorted_weights is None else sorted_weights[low:high],
                )
            return

        split = kernel.compute_keys(mapping, values)
        if split.num_positive:
            positive_mask = split.positive_mask
            store_add_grouped(
                [sketch._store for sketch in sketches],
                group_indices[positive_mask],
                split.keys_for(kernel.POSITIVE),
                None if weight_array is None else weight_array[positive_mask],
                scratch=scratch,
            )
        if split.num_negative:
            negative_mask = split.negative_mask
            store_add_grouped(
                [sketch._negative_store for sketch in sketches],
                group_indices[negative_mask],
                split.keys_for(kernel.NEGATIVE),
                None if weight_array is None else weight_array[negative_mask],
                scratch=scratch,
            )

        zero_mask = split.zero_mask
        zero_add = group_totals(num_groups, group_indices[zero_mask],
                                None if weight_array is None else weight_array[zero_mask])
        count_add = group_totals(num_groups, group_indices, weight_array)
        sum_add = np.bincount(
            group_indices,
            weights=values if weight_array is None else values * weight_array,
            minlength=num_groups,
        )

        # Per-group min/max via scatter reductions — min and max are
        # order-independent, so the unordered accumulation is exact.
        group_mins = np.full(num_groups, np.inf)
        group_maxs = np.full(num_groups, -np.inf)
        np.minimum.at(group_mins, group_indices, values)
        np.maximum.at(group_maxs, group_indices, values)

        groups = np.flatnonzero(count_add > 0.0)
        for sketch, zero_weight, weight, batch_sum, batch_min, batch_max in zip(
            [sketches[group] for group in groups.tolist()],
            zero_add[groups].tolist(),
            count_add[groups].tolist(),
            sum_add[groups].tolist(),
            group_mins[groups].tolist(),
            group_maxs[groups].tolist(),
        ):
            sketch._zero_count += zero_weight
            sketch._count += weight
            sketch._sum += batch_sum
            if batch_min < sketch._min:
                sketch._min = batch_min
            if batch_max > sketch._max:
                sketch._max = batch_max

    def add_all(self, values: Iterable[float]) -> "BaseDDSketch":
        """Insert every value from an iterable; returns ``self`` for chaining.

        NumPy arrays are routed through the vectorized :meth:`add_batch`
        path; any other iterable falls back to the per-item loop.
        """
        if isinstance(values, np.ndarray):
            return self.add_batch(values)
        for value in values:
            self.add(value)
        return self

    # ------------------------------------------------------------------ #
    # Quantile queries
    # ------------------------------------------------------------------ #

    def get_quantile_value(self, quantile: float) -> Optional[float]:
        """Return an ``alpha``-accurate estimate of the ``quantile``-quantile.

        Uses the paper's lower-quantile definition: the returned estimate is
        within relative distance ``alpha`` of the item whose rank is
        ``floor(1 + q * (n - 1))`` in the sorted multiset.  Returns ``None``
        for an empty sketch or a quantile outside ``[0, 1]``.

        Delegates to :meth:`get_quantiles`, so single-quantile and batched
        reads share one code path and always agree exactly.
        """
        return self.get_quantiles((quantile,))[0]

    def get_quantiles(self, quantiles: Sequence[float]) -> List[Optional[float]]:
        """Return estimates for several quantiles at once (vectorized).

        The batched counterpart of :meth:`get_quantile_value` and the read
        half of the array-oriented pipeline: all requested ranks are resolved
        against each store with **one** cumulative-count pass plus a single
        ``searchsorted`` (:meth:`~repro.store.Store.key_at_rank_batch` /
        ``key_at_reversed_rank_batch``), and the resulting keys are converted
        back to values with one vectorized
        :meth:`~repro.mapping.KeyMapping.value_batch` call per sign — instead
        of one full bucket scan per quantile.

        Parameters
        ----------
        quantiles:
            Any sequence of quantiles.  Entries outside ``[0, 1]`` yield
            ``None`` in the matching output slot; an empty sketch yields all
            ``None``.

        Returns
        -------
        list of float or None
            One estimate per requested quantile, in input order, each
            identical to what :meth:`get_quantile_value` returns for that
            quantile alone.

        Notes
        -----
        ``O(num_buckets + len(quantiles) * log(num_buckets))`` with
        NumPy-level constants, versus ``O(num_buckets * len(quantiles))``
        Python-level bucket scans for repeated single-quantile calls.
        """
        qs = np.asarray(list(quantiles), dtype=np.float64).reshape(-1)
        results: List[Optional[float]] = [None] * qs.size
        if qs.size == 0 or self._count == 0:
            return results

        valid = (qs >= 0.0) & (qs <= 1.0)
        # Clamp at rank 0: when the total weight is below 1 (possible with
        # fractional weights) the raw rank goes negative, which would route
        # the query into a store that may hold no weight at all.  For any
        # non-negative rank the clamp is the identity, so this changes
        # nothing on the unit-weight path.
        ranks = np.maximum(qs * (self._count - 1), 0.0)
        negative_count = self._negative_store.count
        zero_boundary = self._zero_count + negative_count

        negative_mask = valid & (ranks < negative_count)
        zero_mask = valid & ~negative_mask & (ranks < zero_boundary)
        positive_mask = valid & (ranks >= zero_boundary)

        if negative_mask.any():
            keys = self._negative_store.key_at_reversed_rank_batch(ranks[negative_mask])
            values = -self._mapping.value_batch(keys)
            for index, value in zip(np.flatnonzero(negative_mask).tolist(), values.tolist()):
                results[index] = value
        for index in np.flatnonzero(zero_mask).tolist():
            results[index] = 0.0
        if positive_mask.any():
            store_ranks = ranks[positive_mask] - self._zero_count - negative_count
            keys = self._store.key_at_rank_batch(store_ranks)
            values = self._mapping.value_batch(keys)
            for index, value in zip(np.flatnonzero(positive_mask).tolist(), values.tolist()):
                results[index] = value
        return results

    def quantile(self, quantile: float) -> float:
        """Like :meth:`get_quantile_value` but raises on empty/invalid input."""
        if quantile < 0 or quantile > 1:
            raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
        if self._count == 0:
            raise EmptySketchError("cannot query a quantile of an empty sketch")
        value = self.get_quantile_value(quantile)
        assert value is not None
        return value

    def get_rank_value(self, rank: float) -> Optional[float]:
        """Return the estimated value at an absolute ``rank`` in ``[0, count)``."""
        if self._count == 0 or rank < 0 or rank >= self._count:
            return None
        return self.get_quantile_value(rank / max(self._count - 1, 1))

    def quantile_bounds(self, quantile: float) -> Tuple[float, float]:
        """Cheap ``(lower, upper)`` bounds enclosing :meth:`quantile`'s estimate.

        Resolves only which *region* (negative store, zero bucket, positive
        store) the requested rank falls in — the same classification
        :meth:`get_quantiles` performs — and returns the representative values
        of that store's extreme keys, without walking any bucket counts.  The
        guarantee is ``lower <= self.quantile(q) <= upper``: every estimate
        the sketch can return for that rank is ``mapping.value(key)`` for a
        key between the store's ``min_key`` and ``max_key``, and the key
        mapping is monotone.  This holds for every store family, including
        the collapsing and adaptive-accuracy (UDDSketch) variants, because it
        bounds the *estimate*, not the underlying data.

        Each extreme key costs one scan: of the whole bin allocation for a
        dense store (``min_key`` and ``max_key`` scan once each), of the
        buckets for a sparse one.  No counts are accumulated, which makes
        this the pruning primitive for threshold queries ("which series
        have p99 > 500ms?"): if ``upper <= threshold`` the series cannot
        match, and if ``lower > threshold`` it must.
        :meth:`quantile_bound_columns` bounds many sketches in one pass.

        Raises
        ------
        IllegalArgumentError
            If ``quantile`` is outside ``[0, 1]``.
        EmptySketchError
            If the sketch holds no data.
        """
        if quantile < 0 or quantile > 1:
            raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
        if self._count == 0:
            raise EmptySketchError("cannot bound a quantile of an empty sketch")
        rank = max(quantile * (self._count - 1), 0.0)
        negative_count = self._negative_store.count
        zero_boundary = self._zero_count + negative_count
        if rank < negative_count:
            return (
                -self._mapping.value(self._negative_store.max_key),
                -self._mapping.value(self._negative_store.min_key),
            )
        if rank < zero_boundary:
            return (0.0, 0.0)
        return (
            self._mapping.value(self._store.min_key),
            self._mapping.value(self._store.max_key),
        )

    @staticmethod
    def quantile_bound_columns(
        sketches: Sequence["BaseDDSketch"], quantile: float
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """:meth:`quantile_bounds` of many sketches, as two columns, in one pass.

        Returns ``float64`` arrays ``(lower, upper)``, one entry per sketch,
        bit for bit the per-sketch loop ``bound_columns(sketches, lambda
        sketch: sketch.quantile_bounds(quantile))``: a sketch for which
        :meth:`quantile_bounds` raises
        :class:`~repro.exceptions.EmptySketchError` reads ``(inf, -inf)``,
        an interval nothing lies in.

        Under a backend with :func:`repro.kernel.window_merges`, the counts
        are read into arrays, each sketch's rank region is picked with
        :meth:`quantile_bounds`' arithmetic, the region stores' lowest and
        highest used keys come from one
        :func:`repro.store.grouped.used_key_ranges` pass, and the keys
        become values with one :meth:`~repro.mapping.KeyMapping.value_batch`
        call per mapping object.  The loop runs instead, as the oracle and
        fallback, under the NumPy backend, when a sketch's class overrides
        :meth:`quantile_bounds`, and when a region store is outside
        :data:`~repro.store.grouped.SEGMENT_STORE_TYPES` (sparse, uniform
        and :class:`~repro.core.UDDSketch` stores).  Raises
        :class:`IllegalArgumentError` for a quantile outside ``[0, 1]``.
        """
        if not 0 <= quantile <= 1:  # rejects NaN as well
            raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
        columns = _bounds_natively(sketches, quantile)
        if columns is None:
            columns = bound_columns(sketches, lambda sketch: sketch.quantile_bounds(quantile))
        return columns

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #

    def mergeable_with(self, other: "BaseDDSketch") -> bool:
        """Whether ``other`` uses compatible bucket boundaries."""
        return self._mapping == other._mapping

    def check_mergeable(self, other: object) -> None:
        """Raise the error :meth:`merge` raises for ``other``, or return.

        :class:`IllegalArgumentError` when ``other`` is not a sketch,
        :class:`UnequalSketchParametersError` when :meth:`mergeable_with`
        says no.  Changes nothing, so a bulk merge can check every pair
        before it mutates any.
        """
        if not isinstance(other, BaseDDSketch):
            raise IllegalArgumentError(f"cannot merge DDSketch with {type(other).__name__}")
        if not self.mergeable_with(other):
            raise UnequalSketchParametersError(
                "cannot merge sketches with different mappings: "
                f"{self._mapping!r} vs {other._mapping!r}"
            )

    def merge(self, other: "BaseDDSketch") -> None:
        """Fold ``other`` into this sketch (full mergeability, Algorithm 4).

        Because bucket boundaries are fixed by ``gamma`` and not by the data,
        merging is a per-key sum of counters and is associative and
        commutative: merging sketches in any order or shape of tree yields
        exactly the same result as sketching the concatenated stream.
        """
        self.check_mergeable(other)
        if other.is_empty:
            return

        self._store.merge(other._store)
        self._negative_store.merge(other._negative_store)
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max

    @staticmethod
    def merge_checked_pairs(
        targets: Sequence["BaseDDSketch"], sources: Sequence[Any]
    ) -> None:
        """Fold ``sources[i]`` into ``targets[i]`` for every ``i``, in one bulk pass.

        The result is ``targets[i].merge(sources[i])`` for each ``i`` in
        order, bit for bit, but the store merges run through one
        :func:`repro.store.grouped.merge_store_pairs` call.  The caller has
        checked every pair with :meth:`check_mergeable`, and no sketch is
        the target of two pairs or the target of one and the source of
        another.  A target whose class overrides :meth:`merge`
        (:class:`~repro.core.UDDSketch`) takes its own ``merge``; for the
        rest the scalars update here, in :meth:`merge`'s order.

        A source is a sketch or, for a target that keeps this class's
        :meth:`merge`, a decoded sketch's state: the tuple ``(zero_count,
        count, sum, min, max, store, negative_store)``, whose stores are
        sources as :func:`~repro.store.grouped.merge_store_pairs` takes
        them or ``None`` for an empty one (every ``Store.merge`` returns at
        once for an empty source), and whose ``min`` / ``max`` may be NaN
        when empty (no comparison with NaN holds, as none with the empty
        sentinels does).
        """
        from repro.store.grouped import merge_store_pairs

        base_merge = BaseDDSketch.merge
        store_targets: List[Any] = []
        store_sources: List[Any] = []
        add_target = store_targets.append
        add_source = store_sources.append
        own_merges = []
        for target, source in zip(targets, sources):
            if type(target).merge is not base_merge:
                own_merges.append((target, source))
                continue
            if type(source) is tuple:
                zero_count, count, total, minimum, maximum, store, negative = source
                if count <= 0:
                    continue
                if store is not None:
                    add_target(target._store)
                    add_source(store)
                if negative is not None:
                    add_target(target._negative_store)
                    add_source(negative)
            else:
                count = source._count
                if count <= 0:
                    continue
                zero_count, total = source._zero_count, source._sum
                minimum, maximum = source._min, source._max
                store_targets += (target._store, target._negative_store)
                store_sources += (source._store, source._negative_store)
            target._zero_count += zero_count
            target._count += count
            target._sum += total
            if minimum < target._min:
                target._min = minimum
            if maximum > target._max:
                target._max = maximum
        merge_store_pairs(store_targets, store_sources)
        for target, source in own_merges:
            target.merge(source)

    @staticmethod
    def fold(groups: Sequence[Sequence["BaseDDSketch"]]) -> "BaseDDSketch":
        """Merge groups of sketches into a new sketch, in one bulk pass.

        The result is, bit for bit, what this copy-first loop returns (and
        no input changes)::

            total = None
            for group in groups:
                merged = group[0].copy()
                for sketch in group[1:]:
                    merged.merge(sketch)
                if total is None:
                    total = merged
                else:
                    total.merge(merged)

        A one-group fold is the plain copy-first merge of that group; the
        second level is how a rollup over many series merges each series'
        own fold over its time buckets.  With fractional weights the sums
        depend on that two-level order, so it is kept exactly.

        Under a backend with :func:`repro.kernel.window_merges`, the scalars
        accumulate here in the loop's order and each store side folds in
        one :func:`repro.store.grouped.fold_store_groups` pass; the result
        is built through :meth:`_decoded` with the first sketch's class and
        mapping.  The loop above runs instead, as the oracle and fallback,
        under the NumPy backend, when a sketch's mapping differs from the
        first sketch's (the loop then raises what it raises), when a
        group's first sketch has a class that overrides :meth:`merge` or
        :meth:`copy` (:class:`~repro.core.UDDSketch`), and where a store is
        outside :data:`~repro.store.grouped.SEGMENT_STORE_TYPES` or the
        store pass declines.

        Raises
        ------
        IllegalArgumentError
            For no groups, an empty group, or an entry that is not a
            sketch, as :meth:`merge` raises it.
        UnequalSketchParametersError
            For sketches that cannot merge, as :meth:`merge` raises it.
        """
        if not groups or not all(groups):
            raise IllegalArgumentError("a fold needs at least one group and no empty group")
        folded = _fold_natively(groups)
        return _fold_loop(groups) if folded is None else folded

    def __iadd__(self, other: "BaseDDSketch") -> "BaseDDSketch":
        self.merge(other)
        return self

    def __add__(self, other: "BaseDDSketch") -> "BaseDDSketch":
        """Return a new sketch holding the merge of both operands.

        Neither operand is mutated.  The merge goes through :meth:`merge` on
        a copy of ``self``, so subclass semantics are preserved — in
        particular two :class:`~repro.core.UDDSketch` operands with different
        collapse counts fuse to the coarser guarantee, exactly as an explicit
        ``merge`` would.
        """
        if not isinstance(other, BaseDDSketch):
            return NotImplemented
        result = self.copy()
        result.merge(other)
        return result

    @classmethod
    def _decoded(
        cls, mapping: KeyMapping, store: Store, negative_store: Store,
        zero_count: float, count: float, total: float, minimum: float, maximum: float,
    ) -> "BaseDDSketch":
        """A sketch of class ``cls`` holding exactly the given decoded state.

        The decoders' constructor (through
        :func:`repro.serialization.binary_codec._decoded_sketch`): no
        validation, and ``minimum`` / ``maximum`` may be NaN for an empty
        sketch (stored as the empty sentinels).  A
        :class:`~repro.core.UDDSketch` still needs its collapse lineage set
        by the caller.
        """
        sketch = cls.__new__(cls)
        # Attribute by attribute, in __init__'s order, so the instance keeps
        # CPython's compact attribute storage.
        sketch._mapping = mapping
        sketch._store = store
        sketch._negative_store = negative_store
        sketch._zero_count = zero_count
        sketch._min = math.inf if minimum != minimum else minimum
        sketch._max = -math.inf if maximum != maximum else maximum
        sketch._count = count
        sketch._sum = total
        return sketch

    def copy(self) -> "BaseDDSketch":
        """Return a deep copy of this sketch.

        The copy shares this sketch's mapping (mappings are immutable) and
        owns copies of its stores.  Attributes are set directly, in
        ``__init__``'s order, as :meth:`_decoded` sets them: a registry's
        grouped ingest makes most of its new series as copies of one
        factory sketch.
        """
        new = type(self).__new__(type(self))
        new._mapping = self._mapping
        new._store = self._store.copy()
        new._negative_store = self._negative_store.copy()
        new._zero_count = self._zero_count
        new._min = self._min
        new._max = self._max
        new._count = self._count
        new._sum = self._sum
        return new

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialize to the compact binary format (see :mod:`repro.serialization`)."""
        from repro.serialization.binary_codec import encode_sketch

        return encode_sketch(self)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BaseDDSketch":
        """Deserialize from the compact binary format."""
        from repro.serialization.binary_codec import decode_sketch

        return decode_sketch(payload, sketch_cls=cls)

    # ------------------------------------------------------------------ #
    # Dunder helpers
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self._count)

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(relative_accuracy={self.relative_accuracy!r}, "
            f"count={self._count!r}, num_buckets={self.num_buckets})"
        )


def _fold_loop(groups: Sequence[Sequence[BaseDDSketch]]) -> BaseDDSketch:
    """:meth:`BaseDDSketch.fold` by its definition: copy first, merge the rest."""
    total = None
    for group in groups:
        merged = group[0].copy()
        for sketch in group[1:]:
            merged.merge(sketch)
        if total is None:
            total = merged
        else:
            total.merge(merged)
    return total


def _plain_fold_class(cls: type) -> bool:
    """Whether a group may start from a ``cls`` sketch in the native fold:
    its merge and mergeability are the base class's, and its copy keeps
    only what :meth:`BaseDDSketch._decoded` rebuilds."""
    return (
        issubclass(cls, BaseDDSketch)
        and cls.merge is BaseDDSketch.merge
        and cls.check_mergeable is BaseDDSketch.check_mergeable
        and cls.mergeable_with is BaseDDSketch.mergeable_with
        and cls.copy is BaseDDSketch.copy
    )


def _fold_natively(groups: Sequence[Sequence[BaseDDSketch]]) -> Optional[BaseDDSketch]:
    """:meth:`BaseDDSketch.fold` through the store pass, or ``None`` for the loop."""
    from repro.store.grouped import fold_store_groups

    if not kernel.window_merges():
        return None
    sketches = [sketch for group in groups for sketch in group]
    if not all(issubclass(cls, BaseDDSketch) for cls in set(map(type, sketches))):
        return None
    if not all(_plain_fold_class(cls) for cls in {type(group[0]) for group in groups}):
        return None
    mapping = groups[0][0]._mapping
    if any(other is not mapping and other != mapping for other in map(_MAPPING, sketches)):
        return None
    # The scalars in the loop's two-level order, and the sketches whose
    # stores the loop merges: a merge of a sketch without weight returns
    # at once, at either level.
    merging: List[BaseDDSketch] = []
    take = merging.append
    ends: List[int] = []
    merged: List[bool] = []
    total = None
    for group in groups:
        head = group[0]
        take(head)
        count, zero_count, total_sum, minimum, maximum = _SCALARS(head)
        for sketch in group[1:]:
            weight, zeros, added, low, high = _SCALARS(sketch)
            if weight <= 0:
                continue
            count += weight
            zero_count += zeros
            total_sum += added
            if low < minimum:
                minimum = low
            if high > maximum:
                maximum = high
            take(sketch)
        ends.append(len(merging))
        if total is None:
            total = [count, zero_count, total_sum, minimum, maximum]
        elif count > 0:
            total[0] += count
            total[1] += zero_count
            total[2] += total_sum
            if minimum < total[3]:
                total[3] = minimum
            if maximum > total[4]:
                total[4] = maximum
        merged.append(count > 0)
    store = fold_store_groups(list(map(_STORE, merging)), ends, merged)
    if store is None:
        return None
    negative_store = fold_store_groups(list(map(_NEGATIVE_STORE, merging)), ends, merged)
    if negative_store is None:
        return None
    count, zero_count, total_sum, minimum, maximum = total
    return type(groups[0][0])._decoded(
        mapping, store, negative_store, zero_count, count, total_sum, minimum, maximum
    )


def bound_columns(
    sources: Sequence[Any], bounds: Callable[[Any], Tuple[float, float]]
) -> Tuple["np.ndarray", "np.ndarray"]:
    """``bounds(source)`` of every source as ``float64`` columns ``(lower, upper)``.

    The per-series bounds loop: a source for which ``bounds`` raises
    :class:`~repro.exceptions.EmptySketchError` (no data) reads ``(inf,
    -inf)``, an interval nothing lies in, so every threshold prunes it.
    """
    lower = np.full(len(sources), math.inf)
    upper = np.full(len(sources), -math.inf)
    for index, source in enumerate(sources):
        try:
            lower[index], upper[index] = bounds(source)
        except EmptySketchError:
            pass
    return lower, upper


def _plain_bounds_class(cls: type) -> bool:
    """Whether :meth:`BaseDDSketch.quantile_bound_columns` may bound a
    ``cls`` sketch from its counts and stores."""
    return issubclass(cls, BaseDDSketch) and cls.quantile_bounds is BaseDDSketch.quantile_bounds


def _bounds_natively(
    sketches: Sequence[BaseDDSketch], quantile: float
) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
    """:meth:`BaseDDSketch.quantile_bound_columns` through one used-edge
    pass, or ``None`` for the loop."""
    from repro.store.grouped import used_key_ranges

    if not kernel.window_merges():
        return None
    if not all(_plain_bounds_class(cls) for cls in set(map(type, sketches))):
        return None
    size = len(sketches)
    counts = np.fromiter(map(_COUNT, sketches), dtype=np.float64, count=size)
    zero_counts = np.fromiter(map(_ZERO_COUNT, sketches), dtype=np.float64, count=size)
    negatives = list(map(_NEGATIVE_STORE, sketches))
    negative_counts = np.fromiter(map(_STORE_COUNT, negatives), dtype=np.float64, count=size)
    # quantile_bounds' arithmetic, sketch by sketch: the rank, then the
    # region it falls in.  A sketch without weight has no bounds.
    ranks = np.maximum(quantile * (counts - 1), 0.0)
    held = counts != 0
    negative = ranks < negative_counts
    zero = held & ~negative & (ranks < zero_counts + negative_counts)
    lower = np.full(size, math.inf)
    upper = np.full(size, -math.inf)
    lower[zero] = upper[zero] = 0.0
    rows = np.flatnonzero(held & ~zero)
    picks = negative[rows]
    stores = list(map(_STORE, sketches))
    region = [
        negatives[row] if pick else stores[row]
        for row, pick in zip(rows.tolist(), picks.tolist())
    ]
    ranges = used_key_ranges(region)
    if ranges is None:
        return None
    # A region store without a used bin raises EmptySketchError in
    # quantile_bounds: its sketch keeps the empty interval.
    used, min_keys, max_keys = ranges
    rows, picks = rows[used], picks[used]
    if not rows.size:
        return lower, upper
    mappings = [sketches[row]._mapping for row in rows.tolist()]
    low, high = _values(mappings, np.stack([min_keys[used], max_keys[used]]))
    lower[rows] = np.where(picks, -high, low)
    upper[rows] = np.where(picks, -low, high)
    return lower, upper


def _values(mappings: Sequence[KeyMapping], keys: "np.ndarray") -> "np.ndarray":
    """Column ``i`` of ``keys`` through ``mappings[i].value_batch``, one call
    per distinct mapping object."""
    first = mappings[0]
    if all(mapping is first for mapping in mappings):
        return first.value_batch(keys).reshape(keys.shape)
    by_id = {id(mapping): mapping for mapping in mappings}
    codes = {key: code for code, key in enumerate(by_id)}
    columns = np.fromiter(
        (codes[id(mapping)] for mapping in mappings), dtype=np.int64, count=len(mappings)
    )
    values = np.empty(keys.shape)
    for code, mapping in enumerate(by_id.values()):
        chosen = columns == code
        values[:, chosen] = mapping.value_batch(keys[:, chosen]).reshape(2, -1)
    return values


def _positive_store_bin_limit(sketch: BaseDDSketch) -> int:
    """Maximum number of buckets per store before collapsing begins.

    Read from the positive store, so every copy, fold and decode of the
    sketch keeps it; a store without one (a plain dense store decoded into a
    bounded class) reads as :data:`DEFAULT_BIN_LIMIT`.
    """
    return getattr(sketch._store, "bin_limit", DEFAULT_BIN_LIMIT)


#: The ``bin_limit`` property of the sketch classes with bounded stores.
bin_limit_property = property(_positive_store_bin_limit)

_MAPPING = attrgetter("_mapping")
_SCALARS = attrgetter("_count", "_zero_count", "_sum", "_min", "_max")
_COUNT = attrgetter("_count")
_ZERO_COUNT = attrgetter("_zero_count")
_STORE = attrgetter("_store")
_NEGATIVE_STORE = attrgetter("_negative_store")
_STORE_COUNT = attrgetter("count")


class DDSketch(BaseDDSketch):
    """The default DDSketch configuration.

    Uses the memory-optimal logarithmic mapping with bounded collapsing dense
    stores (lowest buckets collapse for positive values, highest for negative
    magnitudes), matching the configuration evaluated in the paper:
    ``alpha = 0.01`` and ``m = 2048`` buckets by default (Table 2).

    Examples
    --------
    >>> sketch = DDSketch(relative_accuracy=0.01)
    >>> for value in (1.0, 2.0, 3.0, 4.0, 5.0):
    ...     sketch.add(value)
    >>> round(sketch.get_quantile_value(0.5), 1)
    3.0
    """

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        bin_limit: int = DEFAULT_BIN_LIMIT,
        mapping: Optional[KeyMapping] = None,
    ) -> None:
        if mapping is None:
            mapping = LogarithmicMapping(relative_accuracy)
        elif mapping.relative_accuracy != relative_accuracy and relative_accuracy != DEFAULT_RELATIVE_ACCURACY:
            raise IllegalArgumentError(
                "pass either relative_accuracy or an explicit mapping, not conflicting values"
            )
        if bin_limit <= 0:
            raise IllegalArgumentError(f"bin_limit must be positive, got {bin_limit!r}")
        super().__init__(
            mapping=mapping,
            store=CollapsingLowestDenseStore(bin_limit=bin_limit),
            negative_store=CollapsingHighestDenseStore(bin_limit=bin_limit),
        )

    bin_limit = bin_limit_property
