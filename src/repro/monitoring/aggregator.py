"""Ingestion tier: merges sketch payloads from many agents.

The :class:`Aggregator` models the "monitoring system" box of the paper's
motivating scenario (Section 1, Figure 1): it receives serialized sketches
from any number of agents, groups them by **tagged series** (metric plus
host/endpoint/status tags), and maintains a
:class:`~repro.monitoring.SketchTimeSeries` per series.  Because merging is
associative and commutative (Section 2.1), payloads can arrive out of order,
from transient containers, or be routed through intermediate aggregators, and
the final answer is identical to a single sketch over the raw stream.

Queries come in the three high-cardinality shapes: **exact series** (pass
``tags``), **tag-filtered merge** (pass ``tag_filter``; every series of the
metric carrying those tags is merged), and **metric rollup** (pass neither).
Each series' time dimension is served by the hierarchical window cache of
:class:`~repro.monitoring.SketchTimeSeries`, so "p99 over any window" does
not re-merge every interval.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ddsketch import BaseDDSketch, DDSketch
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.monitoring.agent import FramePayload, SketchPayload
from repro.monitoring.timeseries import DEFAULT_WINDOW_FACTORS, SketchTimeSeries
from repro.registry.series import SeriesKey, TagsLike


class Aggregator:
    """Receives sketch payloads and serves quantile queries per tagged series.

    Parameters
    ----------
    interval_length:
        Storage interval used for every series' time series.
    sketch_factory:
        Factory for per-interval sketches (only used when raw values are
        ingested directly; payload ingestion reuses the decoded sketches).
    window_factors:
        Hierarchical rollup window sizes forwarded to every
        :class:`SketchTimeSeries`.
    """

    def __init__(
        self,
        interval_length: float = 1.0,
        sketch_factory: Optional[Callable[[], BaseDDSketch]] = None,
        window_factors: Sequence[int] = DEFAULT_WINDOW_FACTORS,
    ) -> None:
        self._interval_length = float(interval_length)
        self._sketch_factory = sketch_factory or (lambda: DDSketch(relative_accuracy=0.01))
        self._window_factors = tuple(int(factor) for factor in window_factors)
        self._series: Dict[SeriesKey, SketchTimeSeries] = {}
        self._payloads_received = 0
        self._series_received = 0
        self._bytes_received = 0
        self._ingest_observers: List[Callable[[SeriesKey, float, BaseDDSketch], None]] = []
        self._invalidation_hooks: List[Callable[[SeriesKey, int], None]] = []

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def metrics(self) -> List[str]:
        """Sorted names of the metrics with stored data."""
        return sorted({key.metric for key in self._series})

    def series_keys(
        self, metric: Optional[str] = None, tag_filter: TagsLike = None
    ) -> List[SeriesKey]:
        """Sorted keys of the stored series, optionally filtered."""
        return sorted(key for key in self._series if key.matches(metric, tag_filter))

    @property
    def num_series(self) -> int:
        """Number of stored tagged series."""
        return len(self._series)

    @property
    def payloads_received(self) -> int:
        """Number of payloads (single-series or frames) ingested so far."""
        return self._payloads_received

    @property
    def series_received(self) -> int:
        """Number of per-series sketches ingested so far (frames count each)."""
        return self._series_received

    @property
    def bytes_received(self) -> int:
        """Total wire bytes ingested so far."""
        return self._bytes_received

    def series(self, metric: str, tags: TagsLike = None) -> SketchTimeSeries:
        """The time series for one tagged series (created on first use)."""
        key = SeriesKey.of(metric, tags)
        existing = self._series.get(key)
        if existing is None:
            existing = SketchTimeSeries(
                key.metric,
                interval_length=self._interval_length,
                sketch_factory=self._sketch_factory,
                tags=key.tags,
                window_factors=self._window_factors,
            )
            for hook in self._invalidation_hooks:
                existing.add_invalidation_hook(hook)
            self._series[key] = existing
        return existing

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def add_ingest_observer(
        self, observer: Callable[[SeriesKey, float, BaseDDSketch], None]
    ) -> None:
        """Register ``observer(key, timestamp, delta_sketch)`` on every ingest.

        The observer fires *before* the delta is merged into the stored
        series, with a read-only borrow of the incoming sketch — the seam the
        query engine's rollup cubes use to stay incrementally up to date.
        Observers must not retain or mutate the sketch (copy it if needed).
        """
        self._ingest_observers.append(observer)

    def add_invalidation_hook(self, hook: Callable[[SeriesKey, int], None]) -> None:
        """Register ``hook(series_key, interval_index)`` on every interval mutation.

        Forwards to :meth:`SketchTimeSeries.add_invalidation_hook` of every
        stored series — existing and future — so external caches track the
        same invalidation events as the per-series window hierarchy.
        """
        self._invalidation_hooks.append(hook)
        for series in self._series.values():
            series.add_invalidation_hook(hook)

    def _notify_ingest(self, key: SeriesKey, timestamp: float, sketch: BaseDDSketch) -> None:
        """Fire every registered ingest observer for one incoming delta."""
        for observer in self._ingest_observers:
            observer(key, timestamp, sketch)

    def ingest(self, payload: SketchPayload) -> None:
        """Decode one payload and merge it into the matching series/interval."""
        sketch = payload.decode()
        series = self.series(payload.metric, payload.tags)
        self._notify_ingest(series.series_key, payload.interval_start, sketch)
        series.ingest_sketch(payload.interval_start, sketch)
        self._payloads_received += 1
        self._series_received += 1
        self._bytes_received += payload.size_in_bytes

    def ingest_frame(self, frame: FramePayload) -> int:
        """Decode one multi-sketch frame and merge every carried series.

        The high-cardinality ingestion path: one wire payload delivers an
        agent's whole series population for the interval.  Returns the number
        of series merged.
        """
        entries = frame.decode()
        for key, sketch in entries:
            series = self.series(key.metric, key.tags)
            self._notify_ingest(series.series_key, frame.interval_start, sketch)
            # Decoded sketches are exclusively owned; adopt them instead of
            # paying one deep copy per series.
            series.ingest_sketch(frame.interval_start, sketch, copy=False)
        self._payloads_received += 1
        self._series_received += len(entries)
        self._bytes_received += frame.size_in_bytes
        return len(entries)

    def ingest_many(self, payloads: Iterable[SketchPayload]) -> int:
        """Ingest an iterable of payloads; returns how many were processed."""
        processed = 0
        for payload in payloads:
            self.ingest(payload)
            processed += 1
        return processed

    def ingest_values(
        self,
        metric: str,
        timestamp: float,
        values: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        tags: TagsLike = None,
    ) -> None:
        """Record raw values directly (bypassing the agent/payload hop).

        Convenience for co-located producers — e.g. a service embedding the
        aggregator in-process — that want the batch ingestion path without
        serializing a payload first.  All values land in the series'
        interval containing ``timestamp``.
        """
        series = self.series(metric, tags)
        if self._ingest_observers:
            # Observers receive deltas as sketches; materialise the batch as
            # one for them.  The stored series still takes the raw values, so
            # storage is bit-identical whether or not anyone is watching.
            values = np.asarray(values, dtype=np.float64).reshape(-1)
            if values.size == 0:
                return
            delta = self._sketch_factory()
            delta.add_batch(values, weights)
            self._notify_ingest(series.series_key, timestamp, delta)
        series.ingest_values(timestamp, values, weights)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _selected_series(
        self, metric: str, tags: TagsLike, tag_filter: TagsLike
    ) -> List[SketchTimeSeries]:
        """The stored time series a query addresses (never empty)."""
        if tags is not None and tag_filter is not None:
            raise IllegalArgumentError(
                "pass either tags (exact series) or tag_filter, not both"
            )
        if tags is not None:
            key = SeriesKey.of(metric, tags)
            series = self._series.get(key)
            if series is None:
                raise EmptySketchError(f"no data for series {key}")
            return [series]
        selected = [self._series[key] for key in self.series_keys(metric, tag_filter)]
        if not selected:
            raise EmptySketchError(f"no data for metric {metric!r}")
        return selected

    def rollup(
        self,
        metric: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
    ) -> BaseDDSketch:
        """Merge the addressed series over ``[start, end)`` into a new sketch.

        Raises :class:`EmptySketchError` when the metric/series is unknown or
        the window holds no data for any addressed series.
        """
        merged: Optional[BaseDDSketch] = None
        for series in self._selected_series(metric, tags, tag_filter):
            try:
                piece = series.rollup(start, end)
            except EmptySketchError:
                continue
            if merged is None:
                merged = piece
            else:
                merged.merge(piece)
        if merged is None:
            raise EmptySketchError(
                f"no data for metric {metric!r} in the requested window"
            )
        return merged

    def quantile(
        self,
        metric: str,
        quantile: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
    ) -> float:
        """Quantile of a metric over the time window ``[start, end)``.

        ``tags`` addresses one exact series, ``tag_filter`` the merge of all
        series carrying those tags, neither the whole metric.
        """
        return self.quantiles(
            metric, (quantile,), start=start, end=end, tags=tags, tag_filter=tag_filter
        )[0]

    def quantiles(
        self,
        metric: str,
        quantiles: Sequence[float],
        start: Optional[float] = None,
        end: Optional[float] = None,
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
    ) -> List[float]:
        """Several quantiles of a metric over ``[start, end)`` in one read.

        The rollup sketch is built once and every requested quantile is
        answered from a single cumulative-count pass
        (:meth:`~repro.core.BaseDDSketch.get_quantiles`) — the dashboard
        pattern of fetching p50/p75/p90/p95/p99 together costs one bucket
        scan instead of five.
        """
        for quantile in quantiles:
            if not 0 <= quantile <= 1:  # rejects NaN as well
                raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
        rollup = self.rollup(metric, start=start, end=end, tags=tags, tag_filter=tag_filter)
        values = rollup.get_quantiles(quantiles)
        if any(value is None for value in values):
            raise EmptySketchError(f"no data for metric {metric!r} in the requested window")
        return [float(value) for value in values]

    def interval_series(
        self,
        metric: str,
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
        copy: bool = True,
    ) -> List[Tuple[float, BaseDDSketch]]:
        """Per-interval sketches of the addressed series, merged across series.

        One cross-series merge pass serves any number of reads (averages and
        multi-quantile series alike).  By default every returned sketch is
        caller-owned: the single-series path used to hand out the *live*
        stored sketches (unlike the multi-series path, which always merges
        fresh), so a caller mutating the result corrupted stored state and
        left stale window caches behind.  Pass ``copy=False`` only for
        read-only internal consumers that want to skip the defensive copies.
        """
        selected = self._selected_series(metric, tags, tag_filter)
        if len(selected) == 1:
            if copy:
                return [(start, sketch.copy()) for start, sketch in selected[0]]
            return list(selected[0])
        merged: Dict[float, BaseDDSketch] = {}
        for series in selected:
            for interval_start, sketch in series:
                existing = merged.get(interval_start)
                if existing is None:
                    merged[interval_start] = sketch.copy()
                else:
                    existing.merge(sketch)
        return [(interval_start, merged[interval_start]) for interval_start in sorted(merged)]

    def quantile_series(
        self,
        metric: str,
        quantile: float,
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
    ) -> List[Tuple[float, float]]:
        """Per-interval quantile estimates for a metric."""
        return [
            (interval_start, values[0])
            for interval_start, values in self.quantiles_series(
                metric, (quantile,), tags=tags, tag_filter=tag_filter
            )
            if values[0] is not None
        ]

    def quantiles_series(
        self,
        metric: str,
        quantiles: Sequence[float],
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
    ) -> List[Tuple[float, List[Optional[float]]]]:
        """Per-interval estimates for several quantiles of a metric at once."""
        for quantile in quantiles:
            if not 0 <= quantile <= 1:
                raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
        return [
            (interval_start, sketch.get_quantiles(quantiles))
            for interval_start, sketch in self.interval_series(
                metric, tags, tag_filter, copy=False
            )
        ]

    def average_series(
        self, metric: str, tags: TagsLike = None, tag_filter: TagsLike = None
    ) -> List[Tuple[float, float]]:
        """Per-interval averages for a metric (exact)."""
        return [
            (interval_start, sketch.avg)
            for interval_start, sketch in self.interval_series(
                metric, tags, tag_filter, copy=False
            )
            if sketch.count > 0
        ]

    def count(
        self, metric: str, tags: TagsLike = None, tag_filter: TagsLike = None
    ) -> float:
        """Total number of recorded values for the addressed series (0.0 when none)."""
        try:
            selected = self._selected_series(metric, tags, tag_filter)
        except EmptySketchError:
            return 0.0
        return sum(series.total_count for series in selected)

    def query_engine(
        self,
        cube_dimensions: Sequence[Sequence[str]] = (),
        cache_capacity: int = 128,
    ) -> "QueryEngine":
        """A :class:`~repro.query.QueryEngine` bound to this aggregator.

        The engine registers itself on the ingest-observer and
        invalidation-hook seams, so its rollup cubes stay incrementally
        up to date and its merge cache never serves a stale answer.
        """
        from repro.query import QueryEngine

        return QueryEngine.over_aggregator(
            self, cube_dimensions=cube_dimensions, cache_capacity=cache_capacity
        )

    def size_in_bytes(self) -> int:
        """Modelled memory footprint of every stored sketch."""
        return sum(series.size_in_bytes() for series in self._series.values())

    def __repr__(self) -> str:
        return (
            f"Aggregator(metrics={self.metrics}, num_series={self.num_series}, "
            f"payloads_received={self._payloads_received})"
        )
