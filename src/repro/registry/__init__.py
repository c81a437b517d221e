"""High-cardinality sketch engine: many tagged series behind one registry.

The paper's monitoring scenario (Section 1) talks about "a metric", but a
production metric is a family of thousands of concrete series — one per
host/endpoint/status tag combination — and the queries that matter are
aggregations over arbitrary subsets of them.  Full mergeability
(Section 2.1) is exactly what makes DDSketch the right primitive for this
setting (compare Gan et al., "Moment-Based Quantile Sketches for Efficient
High Cardinality Aggregation Queries"): each series keeps its own sketch,
and any tag-filtered or metric-level answer is a merge with an intact
accuracy guarantee.

* :class:`SeriesKey` — the canonical ``(metric, tags)`` identity of one
  series (normalized, hashable, ordered).
* :class:`SketchRegistry` — owns one sketch per series, ingests columnar
  ``(series, value)`` batches through the grouped vectorized pipeline, and
  answers exact-series / tag-filtered / metric-rollup quantile queries and
  threshold queries (:class:`ThresholdResult`).
* Wire frames — a registry round-trips through the length-prefixed
  multi-sketch frame of :mod:`repro.serialization.frame`, so an agent
  flushes its whole series population in one payload.

A registry is single-writer, and ingestion scales out by process: every
agent process owns its own registry and pushes its frames to one
aggregation server (``repro serve``), where full mergeability gives the
same answers as one registry fed every value.
"""

from repro.registry.series import SeriesKey, normalize_tags
from repro.registry.registry import SketchRegistry, ThresholdResult, check_entries, merge_entries_into

__all__ = [
    "SeriesKey",
    "SketchRegistry",
    "ThresholdResult",
    "check_entries",
    "merge_entries_into",
    "normalize_tags",
]
