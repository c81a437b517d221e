"""The query engine: cubes + merge cache + sketch-bound threshold pruning.

:class:`QueryEngine` fronts a live :class:`~repro.monitoring.Aggregator`
and answers the two interactive query shapes of the paper's motivating
dashboard scenario:

* **tag-slice quantiles** ("p99 for endpoint /checkout over this window"):
  answered from the LRU merge cache when warm, from a premerged
  :class:`~repro.query.RollupCube` cell when the filter's key set matches a
  configured dimension, and by naive merge-on-read otherwise.  Every path
  produces the *same bits* — mergeability makes the merged sketch
  independent of merge order and grouping — so caching and precomputation
  are pure latency optimizations.
* **threshold queries** ("which series have p99 > 500ms?"): each candidate
  series is first classified from cheap bounds, with no merge.  Over an
  aggregator they come from each series'
  :meth:`~repro.monitoring.SketchTimeSeries.quantile_bounds` (a pass over
  its intervals' scalar summaries, or the used-key scans of its one
  interval's sketch); over a registry from one pass over every series
  (:meth:`~repro.core.BaseDDSketch.quantile_bound_columns`: count columns
  and one native scan for the region stores' used keys).  Only series
  whose bounds straddle the threshold are scanned with a real quantile
  estimate (:func:`~repro.registry.registry.threshold_scan`); on selective
  thresholds the vast majority of series is pruned without a rank scan.

A cache of merged answers is sound only where every write invalidates it,
and the aggregator's hooks see every write.  A
:class:`~repro.registry.SketchRegistry` has no such seam — a sketch it
handed out can be written at any time — so over a registry the engine
keeps no cube or cache, and each read is the registry's own method.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.ddsketch import BaseDDSketch, bound_columns
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.query.cache import MergeCache
from repro.query.cube import RollupCube
from repro.registry import SketchRegistry, ThresholdResult
from repro.registry.registry import threshold_scan
from repro.registry.series import TagsLike, normalize_tags


class QueryEngine:
    """Interactive tag-slice and threshold queries over a sketch source.

    Build engines through :meth:`over_aggregator` /
    :meth:`over_registry` (or
    :meth:`~repro.monitoring.Aggregator.query_engine`) rather than the
    constructor.

    Over an **aggregator**, the engine registers an ingest observer (keeps
    cube cells incrementally premerged) and an invalidation hook (drops
    stale merge-cache entries the moment an underlying interval mutates).
    Over a **registry** it keeps neither (:meth:`over_registry`), and as
    registries have no time dimension, ``start`` / ``end`` must be None.
    """

    def __init__(
        self,
        source,
        cube: Optional[RollupCube] = None,
        cache: Optional[MergeCache] = None,
    ) -> None:
        self._source = source
        self._cube = cube
        self._cache = cache
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
        engine = cls(aggregator, cube, cache)
        aggregator.add_ingest_observer(cube.observe)
        aggregator.add_invalidation_hook(cache.invalidate_series)
        return engine

    @classmethod
    def over_registry(cls, registry: SketchRegistry) -> "QueryEngine":
        """An engine over a :class:`~repro.registry.SketchRegistry`.

        It keeps no cube, cache or version: :meth:`rollup`,
        :meth:`quantiles`, :meth:`quantile` and :meth:`threshold_query` are
        the registry's own methods, so every answer reflects the registry as
        it is, including values added through a sketch that
        :meth:`~repro.registry.SketchRegistry.sketch` or
        :meth:`~repro.registry.SketchRegistry.get` handed out.
        """
        return cls(registry)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def cube(self) -> Optional[RollupCube]:
        """The engine's rollup cube (None over a registry)."""
        return self._cube

    @property
    def cache(self) -> Optional[MergeCache]:
        """The engine's merge cache (None over a registry)."""
        return self._cache

    def stats(self) -> Dict[str, float]:
        """Counters for observability: cache traffic, cube hits, merges.

        Empty over a registry, which has neither cube nor cache.
        """
        if self._cache is None:
            return {}
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

    def _registry(
        self, start: Optional[float], end: Optional[float]
    ) -> Optional[SketchRegistry]:
        """The source when it is a registry (refusing a time window), else None."""
        if self._cache is not None:
            return None
        if start is not None or end is not None:
            raise IllegalArgumentError(
                "time windows are not supported over a registry source"
            )
        return self._source

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
            # Merge-on-read over every matching series (the baseline path).
            self._naive_merges += 1
            merged = self._source.rollup(
                metric, start=start, end=end, tag_filter=tag_filter or None
            )
        self._cache.put(cache_key, merged)
        return merged

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
        registry = self._registry(start, end)
        if registry is not None:
            return registry.rollup(metric, tag_filter)
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
        registry = self._registry(start, end)
        if registry is not None:
            return registry.quantiles(metric, quantiles, tags=tags, tag_filter=tag_filter)
        for quantile in quantiles:
            if not 0 <= quantile <= 1:  # rejects NaN as well
                raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
        if tags is not None and tag_filter is not None:
            raise IllegalArgumentError(
                "pass either tags (exact series) or tag_filter, not both"
            )
        if tags is not None:
            return self._source.quantiles(metric, quantiles, start=start, end=end, tags=tags)
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

        Each series is bounded by
        :meth:`~repro.monitoring.SketchTimeSeries.quantile_bounds`: a sweep
        of its intervals' scalar summaries, or, for a series with data in
        one interval, that sketch's used-key scans.  Only series whose
        bounds straddle ``threshold`` pay a real merge+scan.  A
        ``threshold`` that is not finite raises
        :class:`~repro.exceptions.IllegalArgumentError`.  Over a registry
        this is :meth:`~repro.registry.SketchRegistry.threshold_query`, one
        bounds pass over every series.
        """
        registry = self._registry(start, end)
        if registry is not None:
            return registry.threshold_query(
                metric, quantile, threshold, above=above, tag_filter=tag_filter
            )
        aggregator = self._source
        keys = aggregator.series_keys(metric, tag_filter)
        population = [aggregator.series(key.metric, key.tags) for key in keys]
        return threshold_scan(
            metric,
            quantile,
            threshold,
            above,
            keys,
            bounds=lambda: bound_columns(
                population, lambda series: series.quantile_bounds(quantile, start, end)
            ),
            estimate=lambda index: population[index].rollup(start, end).quantile(quantile),
        )
