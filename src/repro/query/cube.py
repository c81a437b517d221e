"""Precomputed rollup cubes over configured tag dimensions.

The cube trades write-time work for read-time latency: for every configured
dimension (an ordered set of tag keys, e.g. ``("endpoint",)`` or
``("endpoint", "status")``), it maintains one premerged
:class:`~repro.monitoring.SketchTimeSeries` per observed combination of
values for those keys.  Because sketch merging is associative and
commutative (paper Section 2.1), folding each ingest delta into the cell as
it arrives produces *exactly* the sketch a merge-on-read over the matching
series would — a tag-slice query whose filter keys equal a dimension is one
dict lookup plus a window rollup, independent of series cardinality.

Series that do not carry every key of a dimension do not enter that
dimension's cells; this mirrors the registry's subset filter semantics
(``tag_filter`` matches series carrying *all* filter tags), so the cell and
the naive merge always cover the same series population.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.ddsketch import BaseDDSketch
from repro.exceptions import IllegalArgumentError
from repro.monitoring.timeseries import SketchTimeSeries
from repro.registry.series import SeriesKey

#: One cube dimension: a sorted tuple of tag keys.
Dimension = Tuple[str, ...]
#: One cell address: ``(metric, ((key, value), ...))`` for a dimension.
CellKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def normalize_dimension(keys: Sequence[str]) -> Dimension:
    """Validate and canonicalize one dimension spec (sorted, unique keys)."""
    if isinstance(keys, str):
        keys = (keys,)
    dimension = tuple(sorted(str(key) for key in keys))
    if not dimension:
        raise IllegalArgumentError("a cube dimension needs at least one tag key")
    if len(set(dimension)) != len(dimension):
        raise IllegalArgumentError(f"cube dimension has duplicate keys: {keys!r}")
    return dimension


class RollupCube:
    """Incrementally-maintained premerged rollups over tag dimensions.

    Parameters
    ----------
    dimensions:
        Iterable of dimension specs (each a tag key or sequence of tag
        keys).  Cell count — and therefore memory — scales with the product
        of observed value cardinalities per dimension, so dimensions should
        be low-cardinality tag keys (endpoint, status, region), not
        unbounded ones (request id).
    interval_length, sketch_factory, window_factors:
        Forwarded to each cell's :class:`SketchTimeSeries`; must match the
        source feeding the cube so cells merge compatible sketches.
    """

    def __init__(
        self,
        dimensions: Sequence[Sequence[str]],
        interval_length: float = 1.0,
        sketch_factory: Optional[Callable[[], BaseDDSketch]] = None,
        window_factors: Sequence[int] = (),
    ) -> None:
        normalized = tuple(normalize_dimension(spec) for spec in dimensions)
        if len(set(normalized)) != len(normalized):
            raise IllegalArgumentError(f"duplicate cube dimensions: {normalized!r}")
        self._dimensions = normalized
        self._interval_length = float(interval_length)
        self._sketch_factory = sketch_factory
        self._window_factors = tuple(int(factor) for factor in window_factors)
        self._cells: Dict[Dimension, Dict[CellKey, SketchTimeSeries]] = {
            dimension: {} for dimension in normalized
        }
        self._ingested = 0

    @property
    def dimensions(self) -> Tuple[Dimension, ...]:
        """The normalized cube dimensions."""
        return self._dimensions

    @property
    def num_cells(self) -> int:
        """Total premerged cells across every dimension."""
        return sum(len(cells) for cells in self._cells.values())

    @property
    def ingested(self) -> int:
        """Number of deltas folded into the cube so far."""
        return self._ingested

    def cell_counts(self) -> Dict[Dimension, int]:
        """Cells per dimension — the observed value cardinalities."""
        return {dimension: len(cells) for dimension, cells in self._cells.items()}

    def _cell_key(self, dimension: Dimension, key: SeriesKey) -> Optional[CellKey]:
        """The cell ``key`` projects onto, or None if a dimension key is absent."""
        tags = key.tag_dict
        projected = []
        for tag_key in dimension:
            value = tags.get(tag_key)
            if value is None:
                return None
            projected.append((tag_key, value))
        return (key.metric, tuple(projected))

    def observe(self, key: SeriesKey, timestamp: float, sketch: BaseDDSketch) -> None:
        """Fold one ingest delta into every dimension cell it projects onto.

        This is the :meth:`~repro.monitoring.Aggregator.add_ingest_observer`
        callback shape; the sketch is borrowed, so cells merge a copy.
        """
        for dimension in self._dimensions:
            cell_key = self._cell_key(dimension, key)
            if cell_key is None:
                continue
            cells = self._cells[dimension]
            cell = cells.get(cell_key)
            if cell is None:
                cell = SketchTimeSeries(
                    key.metric,
                    interval_length=self._interval_length,
                    sketch_factory=self._sketch_factory,
                    tags=cell_key[1],
                    window_factors=self._window_factors,
                )
                cells[cell_key] = cell
            cell.ingest_sketch(timestamp, sketch, copy=True)
        self._ingested += 1

    def seed(self, entries) -> None:
        """Populate the cube from already-stored data.

        ``entries`` yields ``(series_key, interval_iterable)`` pairs where
        the interval iterable yields ``(timestamp, sketch)`` — the shape of
        iterating a :class:`SketchTimeSeries`.  Used when an engine is
        attached to a source that already holds data.
        """
        for key, intervals in entries:
            for timestamp, sketch in intervals:
                self.observe(key, timestamp, sketch)

    def dimension_for(self, tag_filter: Tuple[Tuple[str, str], ...]) -> Optional[Dimension]:
        """The dimension whose key set equals the filter's, if configured."""
        keys = tuple(sorted(tag_key for tag_key, _ in tag_filter))
        return keys if keys in self._cells else None

    def cell(
        self, metric: str, tag_filter: Tuple[Tuple[str, str], ...]
    ) -> Optional[SketchTimeSeries]:
        """The premerged cell answering ``(metric, tag_filter)``, if any.

        Returns None either when no dimension covers the filter's key set or
        when no series with those exact values has been ingested (in which
        case a merge-on-read would find nothing either).
        """
        dimension = self.dimension_for(tag_filter)
        if dimension is None:
            return None
        cell_key = (metric, tuple(sorted(tag_filter)))
        return self._cells[dimension].get(cell_key)

    def size_in_bytes(self) -> int:
        """Modelled memory footprint of every cell."""
        return sum(
            cell.size_in_bytes()
            for cells in self._cells.values()
            for cell in cells.values()
        )

    def __repr__(self) -> str:
        return (
            f"RollupCube(dimensions={self._dimensions!r}, num_cells={self.num_cells}, "
            f"ingested={self._ingested})"
        )
