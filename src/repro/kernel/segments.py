"""Segments: the universal currency of the columnar ingest kernel.

Every ingest path in the repository — scalar :meth:`~repro.core.BaseDDSketch.add`,
:meth:`~repro.core.BaseDDSketch.add_batch`, and the grouped high-cardinality
pipeline — now speaks the same language: a batch of values is split by sign,
mapped to integer bucket keys, binned into contiguous ``(keys, counts)``
*segments*, and fanned out into stores.  This module holds the shared,
backend-independent half of that pipeline:

* :func:`coerce_values_weights` — the single audited entry point for the
  zero/negative/NaN filtering that ``add_batch`` and ``add_grouped_batch``
  previously each reimplemented,
* :func:`classify_value` — the scalar sign split used by ``add``/``delete``,
* :class:`SignSplit` / :class:`Selection` — the lazy result objects produced
  by a backend's key-computation pass, and
* :func:`apply_segments` — the fan-out of pre-binned rows into stores via
  their ``_add_binned_segment`` hook.

Everything numerically order-sensitive (pairwise ``numpy.sum`` weight totals,
min/max reductions) lives *here*, in shared NumPy code operating on identical
arrays regardless of backend — which is what guarantees that the NumPy and
native backends produce bit-identical sketches down to the serialized bytes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import IllegalArgumentError

#: Sign labels used throughout the kernel layer: a value strictly above the
#: mapping's ``min_possible`` is POSITIVE, strictly below ``-min_possible`` is
#: NEGATIVE (stored by magnitude), and everything in between is ZERO.
POSITIVE = 1
NEGATIVE = -1
ZERO = 0


def coerce_values_weights(
    values: "np.ndarray",
    weights: Optional[Union[float, "np.ndarray"]],
) -> Tuple["np.ndarray", Optional["np.ndarray"]]:
    """Normalize and validate one ingestion batch (the audited entry point).

    Returns flat finite ``float64`` values plus either ``None`` (unit
    weights) or a matching array of positive finite weights (a scalar weight
    is broadcast).  Every batch entry point — ``add_batch``,
    ``add_grouped_batch``, and the registry flush paths that delegate to
    them — funnels through this one function, so the edge-case semantics
    (empty batch, all-zero values, mixed signs, non-finite rejection) are
    defined exactly once and pinned by ``tests/test_kernel_segments.py``.

    Raises
    ------
    IllegalArgumentError
        If any value is non-finite, any weight is non-finite or not strictly
        positive, or the weight shape does not match the value shape.
        Validation happens before any sketch mutation, so a rejected batch
        leaves its target unchanged.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise IllegalArgumentError(f"value must be a finite number, got {bad!r}")
    if weights is None:
        return values, None
    weight_array = np.asarray(weights, dtype=np.float64)
    if weight_array.ndim == 0:
        weight_array = np.full(values.shape, float(weight_array))
    else:
        weight_array = weight_array.reshape(-1)
    if weight_array.shape != values.shape:
        raise IllegalArgumentError(
            f"weights shape {weight_array.shape} does not match "
            f"values shape {values.shape}"
        )
    if not np.isfinite(weight_array).all() or not (weight_array > 0.0).all():
        bad = weight_array[~(np.isfinite(weight_array) & (weight_array > 0.0))][0]
        raise IllegalArgumentError(
            f"weight must be a positive finite number, got {bad!r}"
        )
    return values, weight_array


def classify_value(mapping, value: float) -> Tuple[int, int]:
    """Scalar sign split: return ``(sign, key)`` for one value.

    ``sign`` is :data:`POSITIVE`, :data:`NEGATIVE` or :data:`ZERO`; ``key``
    is the bucket key of the value's magnitude (0 for the zero bucket).
    This is the scalar adapter over the kernel's sign-split semantics, used
    by :meth:`~repro.core.BaseDDSketch.add` and ``delete`` so that the
    scalar and batch paths share one classification rule.
    """
    min_possible = mapping.min_possible
    if value > min_possible:
        return POSITIVE, mapping.key(value)
    if value < -min_possible:
        return NEGATIVE, mapping.key(-value)
    return ZERO, 0


class Selection:
    """One sign's slice of a batch, ready to be binned into a store.

    Produced by :meth:`SignSplit.selection`.  Carries everything a store
    adapter needs to place its window and accumulate the batch:

    * ``count`` — number of selected samples,
    * ``min_key`` / ``max_key`` — key range of the selection,
    * ``total`` — total selected weight, computed in shared NumPy code
      (``float(count)`` for unit weights, a pairwise ``numpy.sum`` of the
      compressed weights otherwise) so it is identical across backends,
    * ``weights`` — compressed per-sample weights, or ``None`` for unit
      weights,
    * ``keys`` — compressed ``int64`` bucket keys (materialized lazily; the
      native backend can bin directly from its flagged full-batch arrays
      without ever compressing).
    """

    __slots__ = ("count", "min_key", "max_key", "total", "weights", "_keys", "_split", "_sign")

    def __init__(
        self,
        count: int,
        min_key: int,
        max_key: int,
        total: float,
        weights: Optional["np.ndarray"],
        keys: Optional["np.ndarray"] = None,
        split: Optional["SignSplit"] = None,
        sign: int = ZERO,
    ) -> None:
        self.count = int(count)
        self.min_key = int(min_key)
        self.max_key = int(max_key)
        self.total = float(total)
        self.weights = weights
        self._keys = keys
        self._split = split
        self._sign = sign

    @property
    def keys(self) -> "np.ndarray":
        """The selection's compressed ``int64`` bucket keys (lazy)."""
        if self._keys is None:
            assert self._split is not None
            self._keys = self._split.keys_for(self._sign)
        return self._keys

    @property
    def split(self) -> Optional["SignSplit"]:
        """The originating :class:`SignSplit` (``None`` for raw-key selections)."""
        return self._split

    @property
    def sign(self) -> int:
        """Which sign of the split this selection covers."""
        return self._sign


def selection_from_keys(
    keys: "np.ndarray", weights: Optional["np.ndarray"]
) -> Selection:
    """Wrap an already-keyed batch (e.g. a decoded store payload) as a selection.

    Used by :meth:`~repro.store.DenseStore.add_batch` so that direct
    key-level bulk insertion rides the same binning kernel as the
    value-level ingest paths.  ``keys`` must be a non-empty flat ``int64``
    array; ``weights`` either ``None`` or strictly positive finite floats of
    the same length (the store adapter validates this upstream).
    """
    total = float(weights.sum()) if weights is not None else float(keys.size)
    return Selection(
        count=keys.size,
        min_key=int(keys.min()),
        max_key=int(keys.max()),
        total=total,
        weights=weights,
        keys=keys,
    )


class SignSplit:
    """Result of a backend's sign-split + key-computation pass over a batch.

    Concrete subclasses are produced by the active backend
    (:func:`repro.kernel.compute_keys`); they differ in *how* the split is
    represented (eager NumPy masks vs. a flagged full-batch key array from
    the native pass) but expose one protocol:

    * :attr:`num_positive` / :attr:`num_negative` — selected sample counts,
    * :meth:`mask_for` — full-length boolean mask per sign,
    * :meth:`keys_for` — compressed ``int64`` keys per sign (magnitude keys
      for the negative sign),
    * :meth:`key_range` — ``(min_key, max_key)`` per sign,
    * :meth:`selection` — package one sign (plus optional weights) for a
      store adapter.
    """

    __slots__ = ("values", "size", "num_positive", "num_negative")

    def __init__(self, values: "np.ndarray", num_positive: int, num_negative: int) -> None:
        self.values = values
        self.size = int(values.size)
        self.num_positive = int(num_positive)
        self.num_negative = int(num_negative)

    @property
    def num_zero(self) -> int:
        """Number of samples routed to the zero bucket."""
        return self.size - self.num_positive - self.num_negative

    def mask_for(self, sign: int) -> "np.ndarray":
        """Full-length boolean mask of the samples with the given sign."""
        raise NotImplementedError

    def keys_for(self, sign: int) -> "np.ndarray":
        """Compressed ``int64`` bucket keys of the samples with the given sign."""
        raise NotImplementedError

    def key_range(self, sign: int) -> Tuple[int, int]:
        """``(min_key, max_key)`` over the samples with the given sign."""
        raise NotImplementedError

    @property
    def positive_mask(self) -> "np.ndarray":
        """Mask of the strictly-positive (indexable) samples."""
        return self.mask_for(POSITIVE)

    @property
    def negative_mask(self) -> "np.ndarray":
        """Mask of the strictly-negative (indexable) samples."""
        return self.mask_for(NEGATIVE)

    @property
    def zero_mask(self) -> "np.ndarray":
        """Mask of the samples routed to the zero bucket."""
        return ~(self.mask_for(POSITIVE) | self.mask_for(NEGATIVE))

    def selection(
        self, sign: int, weight_array: Optional["np.ndarray"] = None
    ) -> Selection:
        """Package one sign of the split (plus optional weights) for a store.

        The weight compression and the pairwise total live here, in shared
        code, so every backend hands the store bit-identical totals.
        """
        count = self.num_positive if sign == POSITIVE else self.num_negative
        if weight_array is None:
            weights = None
            total = float(count)
        else:
            weights = weight_array[self.mask_for(sign)]
            total = float(weights.sum())
        min_key, max_key = self.key_range(sign)
        return Selection(
            count=count,
            min_key=min_key,
            max_key=max_key,
            total=total,
            weights=weights,
            split=self,
            sign=sign,
        )


def apply_segments(
    stores: Sequence,
    cells: "np.ndarray",
    min_keys: "np.ndarray",
    row_ends: "np.ndarray",
    totals: "np.ndarray",
) -> None:
    """Fan pre-binned rows out into stores via ``_add_binned_segment``.

    ``cells`` is the grouped binning result: one row per store, laid end to
    end.  Row ``i`` is ``cells[row_ends[i - 1]:row_ends[i]]`` (from 0 for
    the first) and counts keys ``min_keys[i], min_keys[i] + 1, ...`` for
    ``stores[i]``; ``totals[i]`` is that store's input-order weight total
    from :func:`repro.store.grouped.group_totals`.  Each row spans exactly
    its group's ``[min_key, max_key]``, so the store's
    ``_add_binned_segment`` hook places the window and folds boundary keys
    exactly as its ``add_batch`` would for the group's own keys.
    """
    start = 0
    for store, min_key, end, total in zip(
        stores, min_keys.tolist(), row_ends.tolist(), totals.tolist()
    ):
        store._add_binned_segment(min_key, cells[start:end], total)
        start = end
