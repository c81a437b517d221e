"""LRU cache of merged query results, keyed by normalized predicates.

Dashboards re-issue the same handful of queries every few seconds; the
merge that answers a tag-filtered quantile read is pure (a deterministic
function of the stored data and the predicate), so its result can be cached
until any underlying series changes.  The cache is invalidated through the
same per-interval hooks that drop the series-local window hierarchy
(:meth:`repro.monitoring.SketchTimeSeries.add_invalidation_hook`), so a
cached answer can never outlive the data it was derived from.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple

from repro.core.ddsketch import BaseDDSketch
from repro.exceptions import IllegalArgumentError
from repro.registry.series import SeriesKey

#: A normalized predicate: ``(metric, normalized tag filter, start, end)``.
CacheKey = Tuple[str, Tuple[Tuple[str, str], ...], Optional[float], Optional[float]]


class MergeCache:
    """Least-recently-used cache of merged sketches per query predicate.

    Parameters
    ----------
    capacity:
        Maximum number of merged results retained; the least recently used
        entry is evicted first.  Each entry costs one merged sketch (bounded
        by the sketch family's bucket budget), so the memory ceiling is
        roughly ``capacity * sketch_size``.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise IllegalArgumentError(f"capacity must be at least 1, got {capacity!r}")
        self._capacity = int(capacity)
        self._entries: "OrderedDict[CacheKey, BaseDDSketch]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained entries."""
        return self._capacity

    @property
    def hits(self) -> int:
        """Number of :meth:`get` calls answered from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of :meth:`get` calls that found nothing."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Number of entries dropped to make room."""
        return self._evictions

    @property
    def invalidations(self) -> int:
        """Number of entries dropped because underlying data changed."""
        return self._invalidations

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> Optional[BaseDDSketch]:
        """The cached merged sketch for ``key``, or None; refreshes recency.

        The returned sketch is the cache's own copy — callers must not
        mutate it (the engine copies before handing results out).
        """
        sketch = self._entries.get(key)
        if sketch is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return sketch

    def put(self, key: CacheKey, sketch: BaseDDSketch) -> None:
        """Store a merged result, evicting the least recently used entry."""
        self._entries[key] = sketch
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def invalidate_series(self, series_key: SeriesKey, interval_start: Hashable) -> None:
        """Drop every entry whose predicate could cover a mutated series.

        Called from the ingest-side invalidation hooks with the series that
        just received data.  An entry is dropped when its metric matches and
        the mutated series carries the entry's tag filter — the same subset
        semantics the merge used to select series, so every entry that could
        have included the series goes, and no other.  The window bounds are
        deliberately ignored (a conservative over-invalidation): correctness
        never depends on them, only re-merge frequency does.
        """
        stale = [
            key
            for key in self._entries
            if series_key.matches(key[0], key[1] or None)
        ]
        for key in stale:
            del self._entries[key]
            self._invalidations += 1
