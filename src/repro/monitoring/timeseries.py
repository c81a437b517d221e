"""Per-series time series of merged sketches, with hierarchical rollups.

This is the storage half of the monitoring system sketched in the paper's
Section 1 (Figure 1): the backend keeps, for every tagged series, one merged
sketch per time interval.  Thanks to full mergeability (Section 2.1,
Algorithm 4 / Table 1), any rollup — a coarser time granularity, a dashboard
window, a month-long SLO report — is obtained by merging the per-interval
sketches, with exactly the same accuracy guarantee as if a single sketch had
seen all the raw data.

On top of the flat per-interval dict, the series maintains a **hierarchy of
coarser windows** (``window_factors``, e.g. 16 and 256 intervals) that are
materialised by merge on first use and cached until an underlying interval
receives new data.  A "p99 over any window" query is answered by covering
the window with the coarsest cached pieces and merging only those — instead
of re-merging every interval on every query.

Buckets are keyed internally by the **integer interval index**
``floor(timestamp / interval_length)`` — never by the float interval start.
Deriving both the bucket key and the window index from one canonical
floor-division keeps them consistent for non-unit and fractional interval
lengths (where ``floor(0.3 / 0.1) == 2`` in float arithmetic, and
``round(start / length)`` can disagree with the flooring that produced
``start``), so a bucket can never be orphaned from window invalidation.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ddsketch import BaseDDSketch, DDSketch
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.registry.series import SeriesKey, TagsLike

#: Default hierarchy: windows of 16 and 256 intervals.  With 1-second
#: intervals that is ~quarter-minute and ~4-minute rollup granularities; a
#: day-long query touches ~340 cached pieces instead of 86.4k intervals.
DEFAULT_WINDOW_FACTORS: Tuple[int, ...] = (16, 256)


def interval_index(timestamp: float, interval_length: float) -> int:
    """Canonical index of the interval of ``interval_length`` holding ``timestamp``.

    One floor-division: the float pre-estimate ``floor(t / L)`` can be off
    by one when ``t / L`` rounds across an integer (``0.3 / 0.1 ==
    2.9999...``), so the result is fixed up until it satisfies the defining
    invariant ``index * L <= timestamp < (index + 1) * L`` in float
    arithmetic — which also makes ``interval_index(i * L, L) == i``, the
    round-trip the old ``round(start / L)`` lookup path violated.  Raises
    :class:`~repro.exceptions.IllegalArgumentError` for a timestamp without
    one: infinite, NaN, or too large for its quotient to be finite.
    """
    try:
        index = math.floor(timestamp / interval_length)
    except (OverflowError, ValueError):
        raise IllegalArgumentError(
            f"timestamp {timestamp!r} has no interval index; it must be finite"
        ) from None
    while (index + 1) * interval_length <= timestamp:
        index += 1
    while index * interval_length > timestamp:
        index -= 1
    return index


class SketchTimeSeries:
    """A time-indexed collection of sketches for a single tagged series.

    Parameters
    ----------
    metric:
        Name of the metric this series stores.
    interval_length:
        Length of one storage interval in seconds; timestamps are snapped down
        to interval boundaries.
    sketch_factory:
        Factory used to create the per-interval sketches when data arrives.
    tags:
        Optional tags identifying this series within its metric.
    window_factors:
        Interval counts of the coarser rollup windows kept by the hierarchy;
        strictly increasing, each a multiple of the previous.  Pass an empty
        tuple to disable the hierarchy (every rollup then merges the raw
        intervals).
    """

    def __init__(
        self,
        metric: str,
        interval_length: float = 1.0,
        sketch_factory: Optional[Callable[[], BaseDDSketch]] = None,
        tags: TagsLike = None,
        window_factors: Sequence[int] = DEFAULT_WINDOW_FACTORS,
    ) -> None:
        if interval_length <= 0:
            raise IllegalArgumentError(f"interval_length must be positive, got {interval_length!r}")
        self._series_key = SeriesKey.of(str(metric), tags)
        self._metric = self._series_key.metric
        self._interval_length = float(interval_length)
        self._sketch_factory = sketch_factory or (lambda: DDSketch(relative_accuracy=0.01))
        # Canonical storage: one sketch per *integer* interval index.
        self._buckets: Dict[int, BaseDDSketch] = {}
        self._invalidation_hooks: List[Callable[[SeriesKey, int], None]] = []

        factors = tuple(int(factor) for factor in window_factors)
        previous = 1
        for factor in factors:
            if factor < 2 or factor % previous != 0 or factor == previous:
                raise IllegalArgumentError(
                    "window_factors must be strictly increasing multiples of "
                    f"each other (>= 2), got {factors!r}"
                )
            previous = factor
        self._window_factors = factors
        # Per-factor cache of materialised window sketches, keyed by the
        # integer window index; an entry holding None records "known empty".
        self._window_cache: Dict[int, Dict[int, Optional[BaseDDSketch]]] = {
            factor: {} for factor in factors
        }

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def metric(self) -> str:
        """Metric name."""
        return self._metric

    @property
    def series_key(self) -> SeriesKey:
        """The tagged series identity of this time series."""
        return self._series_key

    @property
    def tags(self) -> Tuple[Tuple[str, str], ...]:
        """The normalized tags of this series."""
        return self._series_key.tags

    @property
    def interval_length(self) -> float:
        """Storage interval length in seconds."""
        return self._interval_length

    @property
    def window_factors(self) -> Tuple[int, ...]:
        """Interval counts of the hierarchical rollup windows."""
        return self._window_factors

    @property
    def num_intervals(self) -> int:
        """Number of intervals holding data."""
        return len(self._buckets)

    @property
    def cached_window_count(self) -> int:
        """Number of materialised window sketches currently cached."""
        return sum(
            1
            for cache in self._window_cache.values()
            for sketch in cache.values()
            if sketch is not None
        )

    @property
    def total_count(self) -> float:
        """Total weight across every interval."""
        return sum(sketch.count for sketch in self._buckets.values())

    def intervals(self) -> List[float]:
        """Sorted interval start times holding data."""
        return [self._start_of(index) for index in sorted(self._buckets)]

    def interval_indices(self) -> List[int]:
        """Sorted canonical integer interval indices holding data.

        The index is the single source of truth for bucket identity: the
        float start returned by :meth:`intervals` is *derived* from it
        (``index * interval_length``), never the other way around.
        """
        return sorted(self._buckets)

    def size_in_bytes(self) -> int:
        """Modelled memory footprint of all stored sketches."""
        return sum(sketch.size_in_bytes() for sketch in self._buckets.values())

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def _index_for(self, timestamp: float) -> int:
        """Canonical interval index of ``timestamp`` (see :func:`interval_index`)."""
        return interval_index(timestamp, self._interval_length)

    def _start_of(self, index: int) -> float:
        """Float interval start derived from the canonical integer index."""
        return index * self._interval_length

    def _record(self, timestamp: float, add: Callable[[BaseDDSketch], None]) -> None:
        """Run ``add`` on the interval sketch containing ``timestamp``; a new
        interval is kept only once ``add`` accepted its input."""
        index = self._index_for(timestamp)
        sketch = self._buckets.get(index)
        if sketch is None:
            sketch = self._sketch_factory()
            add(sketch)
            self._buckets[index] = sketch
        else:
            add(sketch)
        self._invalidate_windows(index)

    def add_invalidation_hook(self, hook: Callable[[SeriesKey, int], None]) -> None:
        """Register ``hook(series_key, interval_index)`` to fire on every mutation.

        The hook runs whenever an interval is about to receive new data —
        the same moment the hierarchical window cache above that interval is
        dropped — so external caches (e.g. the query engine's merge cache)
        can invalidate entries derived from this series without polling.
        """
        self._invalidation_hooks.append(hook)

    def _invalidate_windows(self, index: int) -> None:
        """Drop every cached window covering a freshly-mutated interval."""
        for factor in self._window_factors:
            self._window_cache[factor].pop(index // factor, None)
        for hook in self._invalidation_hooks:
            hook(self._series_key, index)

    def ingest_sketch(self, timestamp: float, sketch: BaseDDSketch, copy: bool = True) -> None:
        """Merge a sketch into the interval containing ``timestamp``.

        With ``copy=False`` a sketch landing in a fresh interval is adopted
        directly instead of deep-copied — for callers handing over ownership
        (e.g. sketches decoded from a wire frame), which avoids one copy per
        series on the high-cardinality ingestion path.
        """
        index = self._index_for(timestamp)
        existing = self._buckets.get(index)
        if existing is None:
            self._buckets[index] = sketch.copy() if copy else sketch
        else:
            existing.merge(sketch)
        self._invalidate_windows(index)

    def ingest_value(self, timestamp: float, value: float, weight: float = 1.0) -> None:
        """Record a single raw value into the interval containing ``timestamp``."""
        self._record(timestamp, lambda sketch: sketch.add(value, weight))

    def ingest_values(
        self,
        timestamp: float,
        values: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
    ) -> None:
        """Record an array of raw values into the interval containing ``timestamp``.

        The batch counterpart of :meth:`ingest_value`: all values land in the
        same interval sketch through its vectorized ``add_batch`` path.
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            return
        self._record(timestamp, lambda sketch: sketch.add_batch(values, weights))

    # ------------------------------------------------------------------ #
    # Hierarchical windows
    # ------------------------------------------------------------------ #

    def _window_sketch(self, level: int, window_index: int) -> Optional[BaseDDSketch]:
        """The cached merge of the window's children (None when empty).

        Level 0 windows merge raw intervals; higher levels merge the windows
        of the level below, so a cold cache still builds each coarse window
        from ``factor / child_factor`` pieces rather than from every
        interval.
        """
        factor = self._window_factors[level]
        cache = self._window_cache[factor]
        if window_index in cache:
            return cache[window_index]
        child_factor = self._window_factors[level - 1] if level > 0 else 1
        pieces = []
        first_child = window_index * (factor // child_factor)
        for child_index in range(first_child, first_child + factor // child_factor):
            if child_factor == 1:
                piece = self._buckets.get(child_index)
            else:
                piece = self._window_sketch(level - 1, child_index)
            if piece is not None and piece.count > 0:
                pieces.append(piece)
        merged = BaseDDSketch.fold([pieces]) if pieces else None
        cache[window_index] = merged
        return merged

    def _cover_pieces(self, lo_index: int, hi_index: int) -> List[BaseDDSketch]:
        """Sketches covering interval indices ``[lo_index, hi_index)``.

        Greedy left-to-right cover: at every position the coarsest aligned
        window fitting inside the range is taken, falling back to the raw
        interval.  The pieces are returned in time order, so merging them is
        the same multiset sum as merging every interval directly.
        """
        pieces: List[BaseDDSketch] = []
        index = lo_index
        while index < hi_index:
            piece: Optional[BaseDDSketch] = None
            step = 1
            for level in range(len(self._window_factors) - 1, -1, -1):
                factor = self._window_factors[level]
                if index % factor == 0 and index + factor <= hi_index:
                    piece = self._window_sketch(level, index // factor)
                    step = factor
                    break
            else:
                piece = self._buckets.get(index)
            if piece is not None and piece.count > 0:
                pieces.append(piece)
            index += step
        return pieces

    def _selected_indices(
        self, start: Optional[float], end: Optional[float]
    ) -> List[int]:
        """Sorted stored interval indices whose start lies in ``[start, end)``."""
        for bound in (start, end):
            if bound is not None and not math.isfinite(bound):
                raise IllegalArgumentError(
                    f"window bounds must be finite, got [{start!r}, {end!r})"
                )
        lo = None if start is None else self._index_for(start)
        return [
            index
            for index in sorted(self._buckets)
            if (lo is None or index >= lo) and (end is None or self._start_of(index) < end)
        ]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def sketch_at(self, timestamp: float) -> Optional[BaseDDSketch]:
        """The sketch of the interval containing ``timestamp``, if any."""
        return self._buckets.get(self._index_for(timestamp))

    def rollup(self, start: Optional[float] = None, end: Optional[float] = None) -> BaseDDSketch:
        """Merge every interval in ``[start, end)`` into a single sketch.

        With both bounds omitted the rollup covers the whole series.  The
        merge is served from the hierarchical window cache: the queried range
        is covered with the coarsest materialised windows available, so
        repeated "p99 over any window" reads merge a handful of cached
        pieces instead of every interval.  The result is a *new* sketch; the
        stored per-interval sketches are not modified.
        """
        return BaseDDSketch.fold([self._rollup_pieces(start, end)])

    def _rollup_pieces(self, start: Optional[float], end: Optional[float]) -> List[BaseDDSketch]:
        """The sketches :meth:`rollup` folds, in time order (raising as it raises)."""
        if not self._buckets:
            raise EmptySketchError(f"no data stored for metric {self._metric!r}")
        selected = self._selected_indices(start, end)
        if not selected:
            raise EmptySketchError(
                f"no data for metric {self._metric!r} in [{start!r}, {end!r})"
            )
        pieces = self._cover_pieces(selected[0], selected[-1] + 1)
        # Every selected interval may hold an empty sketch: the rollup is
        # then an empty copy, as a plain merge would give.
        return pieces or [self._buckets[selected[0]]]

    def quantile_bounds(
        self,
        quantile: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Tuple[float, float]:
        """Bounds enclosing ``rollup(start, end).quantile(quantile)`` — without merging.

        The pruning primitive for threshold queries across many series: a
        single pass over the per-interval scalar summaries (count, zero
        count, negative count, exact min/max) classifies which region of the
        merged sketch the rank would fall in, then brackets every estimate
        that region could return using the exact extremes and the worst
        relative accuracy among the intervals.  No sketch is copied or
        merged.  The guarantee is
        ``lower <= rollup(start, end).quantile(quantile) <= upper``; the
        bounds are *sound* for every store family (collapsing stores only
        move keys inward, and adaptive-accuracy merges are covered by taking
        the max ``alpha``), but deliberately loose — they answer "can this
        series possibly exceed the threshold?", not "what is the quantile?".

        Raises ``IllegalArgumentError`` for a quantile outside ``[0, 1]``
        and ``EmptySketchError`` when no data lies in the window — the same
        contract as :meth:`rollup` followed by ``quantile``.
        """
        if quantile < 0 or quantile > 1:
            raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
        selected = [
            index
            for index in self._selected_indices(start, end)
            if self._buckets[index].count > 0
        ]
        if not selected:
            raise EmptySketchError(
                f"no data for metric {self._metric!r} in [{start!r}, {end!r})"
            )
        if len(selected) == 1:
            return self._buckets[selected[0]].quantile_bounds(quantile)
        sketches = [self._buckets[index] for index in selected]
        total = sum(sketch.count for sketch in sketches)
        negative = sum(sketch.negative_store.count for sketch in sketches)
        zero = sum(sketch.zero_count for sketch in sketches)
        positive = total - zero - negative
        minimum = min(sketch.min for sketch in sketches)
        maximum = max(sketch.max for sketch in sketches)
        alpha = max(sketch.relative_accuracy for sketch in sketches)
        # Merging adaptive-accuracy sketches can trigger *further* uniform
        # collapses (the merged key span may exceed the bucket budget), so
        # the merged guarantee can be coarser than any input's.  The
        # degradation saturates strictly below alpha = 1, so widening to the
        # alpha -> 1 envelope keeps the bounds sound without simulating the
        # collapse cascade.
        from repro.core.uddsketch import UDDSketch

        if any(isinstance(sketch, UDDSketch) for sketch in sketches):
            alpha = 1.0
        rank = max(quantile * (total - 1), 0.0)
        # The merged sketch accumulates the same counts in a different float
        # summation order; widen the region boundaries by a relative epsilon
        # so a rank that could land either side of a boundary in the merged
        # sketch contributes both regions' bounds.
        tolerance = 1e-9 * max(total, 1.0)
        zero_boundary = zero + negative
        lower = math.inf
        upper = -math.inf
        if negative > 0 and rank < negative + tolerance:
            # Estimates are -value(key) for keys covering negative inputs:
            # within relative distance alpha of some |v| in [0, -minimum].
            lower = min(lower, minimum * (1.0 + alpha))
            upper = max(upper, maximum * (1.0 - alpha) if maximum < 0 else 0.0)
        if zero > 0 and negative - tolerance <= rank < zero_boundary + tolerance:
            lower = min(lower, 0.0)
            upper = max(upper, 0.0)
        if positive > 0 and rank >= zero_boundary - tolerance:
            lower = min(lower, minimum * (1.0 - alpha) if minimum > 0 else 0.0)
            upper = max(upper, maximum * (1.0 + alpha))
        return lower, upper

    def quantile_series(self, quantile: float) -> List[Tuple[float, float]]:
        """Per-interval quantile estimates: ``[(interval_start, value), ...]``."""
        return [
            (interval_start, values[0])
            for interval_start, values in self.quantiles_series((quantile,))
            if values[0] is not None
        ]

    def quantiles_series(
        self, quantiles: Sequence[float]
    ) -> List[Tuple[float, List[Optional[float]]]]:
        """Per-interval estimates for several quantiles at once.

        One :meth:`~repro.core.BaseDDSketch.get_quantiles` call per interval
        — a single cumulative-count pass per sketch answers every requested
        quantile, instead of one bucket scan per (interval, quantile) pair.
        Returns ``[(interval_start, [value_per_quantile, ...]), ...]`` in
        interval order; a slot is ``None`` when the interval has no data for
        it (e.g. an out-of-range quantile).
        """
        return [
            (self._start_of(index), self._buckets[index].get_quantiles(quantiles))
            for index in sorted(self._buckets)
        ]

    def average_series(self) -> List[Tuple[float, float]]:
        """Per-interval averages (exact, from the sketches' sum/count)."""
        return [
            (self._start_of(index), self._buckets[index].avg)
            for index in sorted(self._buckets)
            if self._buckets[index].count > 0
        ]

    def quantile_over_windows(
        self, quantile: float, window_length: float
    ) -> List[Tuple[float, float]]:
        """Quantile estimates rolled up to coarser windows of ``window_length``.

        This is the "roll up the sums and counts to graph ... over much larger
        intervals" operation from the paper's introduction, except that thanks
        to mergeability it works for quantiles, not just averages.  Each
        window's merge is served through the hierarchical window cache
        (:meth:`_cover_pieces`), so repeated dashboard reads over the same
        windows merge a few cached pieces instead of every raw interval.
        """
        if not window_length > 0 or not math.isfinite(window_length):  # rejects NaN as well
            raise IllegalArgumentError(
                f"window_length must be positive and finite, got {window_length!r}"
            )
        # Group stored intervals by containing window.  The interval -> window
        # assignment is monotone in the interval index, so each window's
        # indices form a contiguous range coverable by cached pieces.
        groups: Dict[int, List[int]] = {}
        order: List[int] = []
        for index in sorted(self._buckets):
            start = self._start_of(index)
            window_index = math.floor(start / window_length)
            while (window_index + 1) * window_length <= start:
                window_index += 1
            while window_index * window_length > start:
                window_index -= 1
            group = groups.get(window_index)
            if group is None:
                groups[window_index] = [index]
                order.append(window_index)
            else:
                group.append(index)
        series = []
        for window_index in order:
            group = groups[window_index]
            pieces = self._cover_pieces(group[0], group[-1] + 1)
            if not pieces:
                continue
            value = BaseDDSketch.fold([pieces]).get_quantile_value(quantile)
            if value is not None:
                series.append((window_index * window_length, value))
        return series

    def __iter__(self) -> Iterator[Tuple[float, BaseDDSketch]]:
        for index in sorted(self._buckets):
            yield self._start_of(index), self._buckets[index]

    def __len__(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:
        return (
            f"SketchTimeSeries(series={str(self._series_key)!r}, intervals={len(self._buckets)}, "
            f"total_count={self.total_count!r})"
        )
