"""Interactive query engine over sketch registries and aggregators.

The paper's motivating scenario (Section 1) is a dashboard asking "p99
latency for this endpoint over this window" against a very large population
of tagged series.  Answering that by merging every matching series on every
read — the registry/aggregator baseline — is linear in cardinality; the
Moments-sketch line of work (Gan et al., VLDB 2018) shows interactive
sub-population quantile queries need *precomputation* and *pruning* instead.
This package supplies both, without giving up the sketches' accuracy
guarantee (mergeability keeps every precomputed answer bit-identical to the
merge-on-read one):

:class:`RollupCube`
    Precomputed rollups over configured tag dimensions, maintained
    incrementally on ingest — a tag-slice query whose filter keys match a
    cube dimension reads one premerged cell instead of merging thousands of
    series.
:class:`MergeCache`
    An LRU cache of merged query results keyed by the normalized predicate
    ``(metric, tag_filter, window)``, invalidated through the same hooks
    that invalidate the per-series window hierarchy — a repeated dashboard
    query costs one cache lookup.
:class:`QueryEngine`
    The front-end tying both to a :class:`~repro.monitoring.Aggregator`,
    plus sketch-bound **threshold queries** ("which series have p99 >
    500ms?") that prune series from cheap rank/count bounds before merging
    or scanning anything (:class:`ThresholdResult`).  Over a
    :class:`~repro.registry.SketchRegistry`, whose writes no hook sees, it
    keeps no cube or cache and each read is the registry's own method.
"""

from repro.query.cache import MergeCache
from repro.query.cube import RollupCube
from repro.query.engine import QueryEngine
from repro.registry import ThresholdResult

__all__ = [
    "MergeCache",
    "RollupCube",
    "QueryEngine",
    "ThresholdResult",
]
