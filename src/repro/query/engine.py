"""The query engine: cubes + merge cache + sketch-bound threshold pruning.

:class:`QueryEngine` fronts a data source — a live
:class:`~repro.monitoring.Aggregator` or a
:class:`~repro.registry.SketchRegistry` — and answers the two
interactive query shapes of the paper's motivating dashboard scenario:

* **tag-slice quantiles** ("p99 for endpoint /checkout over this window"):
  answered from the LRU merge cache when warm, from a premerged
  :class:`~repro.query.RollupCube` cell when the filter's key set matches a
  configured dimension, and by naive merge-on-read otherwise.  Every path
  produces the *same bits* — mergeability makes the merged sketch
  independent of merge order and grouping — so caching and precomputation
  are pure latency optimizations.
* **threshold queries** ("which series have p99 > 500ms?"): each candidate
  series is first classified from cheap rank/count bounds
  (:meth:`~repro.core.BaseDDSketch.quantile_bounds` /
  :meth:`~repro.monitoring.SketchTimeSeries.quantile_bounds`) that cost a
  scalar-summary pass, no merge.  Only series whose bounds straddle the
  threshold are scanned with a real quantile estimate; on selective
  thresholds the vast majority of series is pruned without touching any
  bucket data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.ddsketch import BaseDDSketch
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.query.cache import MergeCache
from repro.query.cube import RollupCube
from repro.registry.series import SeriesKey, TagsLike, normalize_tags


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of one threshold query over a series population.

    ``matches`` lists every series whose quantile estimate passes the
    threshold — identical to what a naive scan estimating every series
    would report.  ``scanned`` lists the subset that actually needed an
    estimate (their bounds straddled the threshold); everything else was
    classified from bounds alone.  The pruning contract is one-sided
    soundness: bounds may force a *scan* that turns out unnecessary, but
    they never misclassify — a series excluded by bounds cannot match, and
    one included by bounds always does.
    """

    metric: str
    quantile: float
    threshold: float
    above: bool
    matches: List[SeriesKey] = field(default_factory=list)
    scanned: List[SeriesKey] = field(default_factory=list)
    total_series: int = 0

    @property
    def pruned(self) -> int:
        """Series classified without a quantile scan (or empty in-window)."""
        return self.total_series - len(self.scanned)

    @property
    def prune_rate(self) -> float:
        """Fraction of the population resolved without scanning (0 when empty)."""
        if self.total_series == 0:
            return 0.0
        return self.pruned / self.total_series


class QueryEngine:
    """Interactive tag-slice and threshold queries over a sketch source.

    Build engines through :meth:`over_aggregator` /
    :meth:`over_registry` (or the ``query_engine()`` convenience methods on
    :class:`~repro.monitoring.Aggregator` and
    :class:`~repro.registry.SketchRegistry`) rather than the constructor.

    Over an **aggregator**, the engine registers an ingest observer (keeps
    cube cells incrementally premerged) and an invalidation hook (drops
    stale merge-cache entries the moment an underlying interval mutates).
    Over a **registry**, there is no observer seam; the engine snapshots the
    registry's ``data_version`` instead and rebuilds cube + cache whenever
    the version moved — free for immutable snapshots, conservative for live
    registries.  Registry sources have no time dimension, so ``start`` /
    ``end`` must be None there.
    """

    def __init__(
        self,
        source,
        cube: RollupCube,
        cache: MergeCache,
        has_time_dimension: bool,
    ) -> None:
        self._source = source
        self._cube = cube
        self._cache = cache
        self._has_time = has_time_dimension
        self._source_version: Optional[int] = getattr(source, "data_version", None)
        self._cube_hits = 0
        self._naive_merges = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def over_aggregator(
        cls,
        aggregator,
        cube_dimensions: Sequence[Sequence[str]] = (),
        cache_capacity: int = 128,
    ) -> "QueryEngine":
        """An engine wired into an :class:`~repro.monitoring.Aggregator`.

        Existing data is folded into the cube up front; from then on the
        aggregator's ingest-observer seam keeps cells current and its
        invalidation hooks keep the cache honest.
        """
        cube = RollupCube(
            cube_dimensions,
            interval_length=aggregator._interval_length,
            sketch_factory=aggregator._sketch_factory,
        )
        if cube.dimensions:
            cube.seed(
                (key, list(aggregator.series(key.metric, key.tags)))
                for key in aggregator.series_keys()
            )
        cache = MergeCache(capacity=cache_capacity)
        engine = cls(aggregator, cube, cache, has_time_dimension=True)
        aggregator.add_ingest_observer(cube.observe)
        aggregator.add_invalidation_hook(cache.invalidate_series)
        return engine

    @classmethod
    def over_registry(
        cls,
        registry,
        cube_dimensions: Sequence[Sequence[str]] = (),
        cache_capacity: int = 128,
    ) -> "QueryEngine":
        """An engine over a :class:`~repro.registry.SketchRegistry`.

        Registries hold one sketch per series (no time dimension); cube
        cells are premerged from the current contents, and the registry's
        ``data_version`` counter guards against serving answers derived
        from a superseded state.
        """
        cube = RollupCube(cube_dimensions, interval_length=1.0)
        if cube.dimensions:
            cube.seed((key, [(0.0, sketch)]) for key, sketch in registry)
        cache = MergeCache(capacity=cache_capacity)
        return cls(registry, cube, cache, has_time_dimension=False)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def cube(self) -> RollupCube:
        """The engine's rollup cube."""
        return self._cube

    @property
    def cache(self) -> MergeCache:
        """The engine's merge cache."""
        return self._cache

    def stats(self) -> Dict[str, float]:
        """Counters for observability: cache traffic, cube hits, merges."""
        return {
            "cache_hits": float(self._cache.hits),
            "cache_misses": float(self._cache.misses),
            "cache_entries": float(len(self._cache)),
            "cache_invalidations": float(self._cache.invalidations),
            "cube_cells": float(self._cube.num_cells),
            "cube_hits": float(self._cube_hits),
            "naive_merges": float(self._naive_merges),
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _check_window(self, start: Optional[float], end: Optional[float]) -> None:
        if not self._has_time and (start is not None or end is not None):
            raise IllegalArgumentError(
                "time windows are not supported over a registry source"
            )

    def _check_version(self) -> None:
        """Rebuild cube and cache when a versioned source has moved on."""
        if self._source_version is None:
            return
        version = self._source.data_version
        if version == self._source_version:
            return
        self._cache.clear()
        self._cube = RollupCube(
            self._cube.dimensions, interval_length=self._cube._interval_length
        )
        if self._cube.dimensions:
            self._cube.seed((key, [(0.0, sketch)]) for key, sketch in self._source)
        self._source_version = version

    def _merged_filter(
        self,
        metric: str,
        tag_filter: Tuple[Tuple[str, str], ...],
        start: Optional[float],
        end: Optional[float],
    ) -> BaseDDSketch:
        """The merged sketch for a normalized predicate (cache → cube → naive).

        The returned sketch is engine-owned (cached); callers must not
        mutate it.
        """
        cache_key = (metric, tag_filter, start, end)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        cell = self._cube.cell(metric, tag_filter) if tag_filter else None
        if cell is not None:
            self._cube_hits += 1
            merged = cell.rollup(start, end)
        else:
            merged = self._naive_merge(metric, tag_filter, start, end)
        self._cache.put(cache_key, merged)
        return merged

    def _naive_merge(
        self,
        metric: str,
        tag_filter: Tuple[Tuple[str, str], ...],
        start: Optional[float],
        end: Optional[float],
    ) -> BaseDDSketch:
        """Merge-on-read over every matching series (the baseline path)."""
        self._naive_merges += 1
        if self._has_time:
            return self._source.rollup(
                metric, start=start, end=end, tag_filter=tag_filter or None
            )
        return self._source.rollup(metric, tag_filter=tag_filter or None)

    def _series_population(
        self, metric: str, tag_filter: Tuple[Tuple[str, str], ...]
    ) -> List[SeriesKey]:
        return self._source.series_keys(metric, tag_filter or None)

    def _series_bounds(
        self,
        key: SeriesKey,
        quantile: float,
        start: Optional[float],
        end: Optional[float],
    ) -> Tuple[float, float]:
        """Rank/count bounds for one series — raises EmptySketchError when bare."""
        if self._has_time:
            series = self._source.series(key.metric, key.tags)
            return series.quantile_bounds(quantile, start, end)
        return self._source.get(key).quantile_bounds(quantile)

    def _series_estimate(
        self,
        key: SeriesKey,
        quantile: float,
        start: Optional[float],
        end: Optional[float],
    ) -> float:
        """The real per-series quantile estimate (identical to a naive scan)."""
        if self._has_time:
            series = self._source.series(key.metric, key.tags)
            return series.rollup(start, end).quantile(quantile)
        return self._source.get(key).quantile(quantile)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def rollup(
        self,
        metric: str,
        tag_filter: TagsLike = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> BaseDDSketch:
        """A caller-owned merged sketch for the predicate.

        Raises :class:`EmptySketchError` when nothing matches — the same
        contract as the sources' ``rollup``.
        """
        self._check_window(start, end)
        self._check_version()
        merged = self._merged_filter(metric, normalize_tags(tag_filter), start, end)
        return merged.copy()

    def quantiles(
        self,
        metric: str,
        quantiles: Sequence[float],
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[float]:
        """Several quantiles of one predicate in one read.

        Mirrors :meth:`repro.monitoring.Aggregator.quantiles`: ``tags``
        addresses one exact series (delegated straight to the source —
        single-series reads need no merging), ``tag_filter`` the merge of
        every series carrying those tags, neither the whole metric.
        """
        for quantile in quantiles:
            if not 0 <= quantile <= 1:  # rejects NaN as well
                raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
        if tags is not None and tag_filter is not None:
            raise IllegalArgumentError(
                "pass either tags (exact series) or tag_filter, not both"
            )
        self._check_window(start, end)
        self._check_version()
        if tags is not None:
            if self._has_time:
                return self._source.quantiles(metric, quantiles, start=start, end=end, tags=tags)
            return self._source.quantiles(metric, quantiles, tags=tags)
        merged = self._merged_filter(metric, normalize_tags(tag_filter), start, end)
        values = merged.get_quantiles(quantiles)
        if any(value is None for value in values):
            raise EmptySketchError(f"no data for metric {metric!r} in the requested window")
        return [float(value) for value in values]

    def quantile(
        self,
        metric: str,
        quantile: float,
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> float:
        """One quantile of one predicate (see :meth:`quantiles`)."""
        return self.quantiles(
            metric, (quantile,), tags=tags, tag_filter=tag_filter, start=start, end=end
        )[0]

    def threshold_query(
        self,
        metric: str,
        quantile: float,
        threshold: float,
        above: bool = True,
        tag_filter: TagsLike = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> ThresholdResult:
        """Which series' ``quantile`` estimate is strictly beyond ``threshold``?

        With ``above=True`` a series matches when its per-series quantile
        estimate is ``> threshold`` (``< threshold`` with ``above=False``) —
        estimates, not true data quantiles: the answer agrees exactly with
        scanning every series' estimate, so it composes bit-exactly with
        everything else built on the sketches.  Series holding no data in
        the window never match and are never scanned.

        The bounds pass costs one scalar-summary sweep per series; only
        series whose bounds straddle ``threshold`` pay a real merge+scan.
        """
        if not 0 <= quantile <= 1:
            raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
        threshold = float(threshold)
        self._check_window(start, end)
        self._check_version()
        normalized = normalize_tags(tag_filter)
        population = self._series_population(metric, normalized)
        matches: List[SeriesKey] = []
        scanned: List[SeriesKey] = []
        for key in population:
            try:
                lower, upper = self._series_bounds(key, quantile, start, end)
            except EmptySketchError:
                continue  # no data in window: cannot match, nothing to scan
            if above:
                if upper <= threshold:
                    continue  # pruned out: estimate cannot exceed threshold
                if lower > threshold:
                    matches.append(key)  # pruned in: estimate must exceed it
                    continue
            else:
                if lower >= threshold:
                    continue
                if upper < threshold:
                    matches.append(key)
                    continue
            scanned.append(key)
            estimate = self._series_estimate(key, quantile, start, end)
            if (estimate > threshold) if above else (estimate < threshold):
                matches.append(key)
        return ThresholdResult(
            metric=metric,
            quantile=quantile,
            threshold=threshold,
            above=above,
            matches=matches,
            scanned=scanned,
            total_series=len(population),
        )
