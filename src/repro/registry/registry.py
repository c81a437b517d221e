"""The sketch registry: many tagged series behind one ingestion front-end.

:class:`SketchRegistry` owns one sketch per :class:`~repro.registry.SeriesKey`
and feeds them in bulk: columnar batches labelled with series keys flow
through the grouped ingestion pipeline (one
:meth:`~repro.mapping.KeyMapping.key_batch` call and one combined
``bincount`` for the whole batch when the sketch family allows it — see
:meth:`repro.core.BaseDDSketch.add_grouped_batch`), and reads answer the
three query shapes of a high-cardinality monitoring backend:

* **exact series** — the sketch of one ``(metric, tags)`` combination;
* **tag-filtered merge** — every series of a metric carrying the filter
  tags, merged (full mergeability, Section 2.1 of the paper, keeps the
  accuracy guarantee intact);
* **metric rollup** — all series of a metric, merged.

A registry serializes to the length-prefixed multi-sketch wire frame
(:mod:`repro.serialization.frame`), which is how an agent flushes thousands
of series in one payload.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core.ddsketch import BaseDDSketch, DDSketch
from repro.core.grouped import GroupedIngest
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.registry.series import SeriesKey, SeriesLike, TagsLike

if TYPE_CHECKING:
    from repro.serialization.frame import DecodedFrame


class SketchRegistry:
    """A collection of sketches keyed by tagged series, fed in bulk.

    Parameters
    ----------
    sketch_factory:
        Zero-argument callable creating the sketch for a series the first
        time it receives data; defaults to the paper's configuration
        (``DDSketch(relative_accuracy=0.01)``).

    Examples
    --------
    >>> import numpy as np
    >>> registry = SketchRegistry()
    >>> keys = [SeriesKey("latency", (("endpoint", "/home"),)),
    ...         SeriesKey("latency", (("endpoint", "/api"),))]
    >>> registry.ingest_grouped(keys, np.array([0, 1, 0]), np.array([1.0, 2.0, 3.0]))
    3
    >>> registry.total_count()
    3.0
    >>> registry.quantile("latency", 0.5, tag_filter={"endpoint": "/home"}) > 0
    True
    """

    def __init__(self, sketch_factory: Optional[Callable[[], BaseDDSketch]] = None) -> None:
        self._sketch_factory = sketch_factory or (lambda: DDSketch(relative_accuracy=0.01))
        self._ingest = GroupedIngest(self._sketch_factory)
        self._data_version = 0

    # ------------------------------------------------------------------ #
    # Series access
    # ------------------------------------------------------------------ #

    @property
    def data_version(self) -> int:
        """Monotone counter bumped on every mutating call.

        Read-side caches (e.g. :class:`~repro.query.QueryEngine` over a live
        registry) compare this against the version they derived from to
        detect staleness without tracking individual series.  Handing out a
        mutable sketch via :meth:`sketch` conservatively counts as a
        mutation; values added through a previously-obtained live reference
        are the one write path the counter cannot see.
        """
        return self._data_version

    def sketch(self, series: SeriesLike, tags: TagsLike = None) -> BaseDDSketch:
        """The sketch for a series, created on first use."""
        self._data_version += 1
        return self._ingest.sketch(SeriesKey.of(series, tags))

    def get(self, series: SeriesLike, tags: TagsLike = None) -> BaseDDSketch:
        """The sketch for a series; raises :class:`EmptySketchError` if unknown."""
        key = SeriesKey.of(series, tags)
        try:
            return self._ingest.get(key)
        except EmptySketchError:
            raise EmptySketchError(f"no data for series {key}") from None

    def series_keys(self, metric: Optional[str] = None, tag_filter: TagsLike = None) -> List[SeriesKey]:
        """Sorted keys of the stored series, optionally filtered."""
        return sorted(
            (key for key in self._ingest.series_ids() if key.matches(metric, tag_filter)),
            key=SeriesKey.sort_key,
        )

    def metrics(self) -> List[str]:
        """Sorted names of the metrics with at least one series."""
        return sorted({key.metric for key in self._ingest.series_ids()})

    @property
    def num_series(self) -> int:
        """Number of stored series."""
        return len(self._ingest)

    def __len__(self) -> int:
        return len(self._ingest)

    def __contains__(self, series: SeriesLike) -> bool:
        return SeriesKey.of(series) in self._ingest

    def __iter__(self) -> Iterator[Tuple[SeriesKey, BaseDDSketch]]:
        """Iterate ``(key, sketch)`` pairs in sorted key order."""
        for key in self.series_keys():
            yield key, self._ingest.get(key)

    def total_count(self, metric: Optional[str] = None, tag_filter: TagsLike = None) -> float:
        """Total inserted weight over the matching series (0.0 when none match)."""
        return sum(
            self._ingest.get(key).count
            for key in self.series_keys(metric, tag_filter)
        )

    def size_in_bytes(self) -> int:
        """Modelled memory footprint of every stored sketch."""
        return sum(sketch.size_in_bytes() for _, sketch in self._ingest)

    def clear(self) -> None:
        """Drop every series."""
        self._data_version += 1
        self._ingest.clear()

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def add(
        self,
        series: SeriesLike,
        value: float,
        weight: float = 1.0,
        tags: TagsLike = None,
    ) -> None:
        """Record one value for one series.

        A new series is only created once its first value was accepted, so
        a rejected value leaves no empty phantom series behind (the same
        contract as :meth:`ingest_grouped`).
        """
        key = SeriesKey.of(series, tags)
        if key in self._ingest:
            self.sketch(key).add(value, weight)
            return
        sketch = self._sketch_factory()
        sketch.add(value, weight)
        self.merge_series(key, sketch, copy=False)

    def add_batch(
        self,
        series: SeriesLike,
        values: "np.ndarray",
        weights: Optional[Union[float, "np.ndarray"]] = None,
        tags: TagsLike = None,
    ) -> None:
        """Record a whole array for one series (vectorized).

        As with :meth:`add`, a rejected or empty batch creates no series.
        """
        key = SeriesKey.of(series, tags)
        if key in self._ingest:
            self.sketch(key).add_batch(values, weights)
            return
        sketch = self._sketch_factory()
        sketch.add_batch(values, weights)
        if sketch.count > 0:
            self.merge_series(key, sketch, copy=False)

    def ingest_grouped(
        self,
        series: Sequence[SeriesLike],
        group_indices: "np.ndarray",
        values: "np.ndarray",
        weights: Optional[Union[float, "np.ndarray"]] = None,
    ) -> int:
        """Ingest pre-factorized columns across many series at once.

        ``series`` lists one key per group and ``group_indices`` maps each
        sample to a position in that list; the batch flows through the
        grouped pipeline (one ``key_batch``, one combined ``bincount`` where
        possible).  Returns the number of samples ingested.
        """
        keys = [SeriesKey.of(entry) for entry in series]
        self._data_version += 1
        return self._ingest.ingest_grouped(keys, group_indices, values, weights)

    def ingest_columns(
        self,
        series: Sequence[SeriesLike],
        values: "np.ndarray",
        weights: Optional[Union[float, "np.ndarray"]] = None,
    ) -> int:
        """Ingest raw parallel ``(series, value)`` columns (factorized here).

        ``series`` may be an array of metric strings (the common columnar
        shape) or any sequence of loose series descriptions; each unique
        entry is normalized to a :class:`SeriesKey` once.
        """
        array = np.asarray(series)
        if array.ndim == 1 and array.dtype.kind == "U":
            # Vectorized factorization for the all-strings column, then one
            # SeriesKey normalization per *unique* metric.  (Bytes columns
            # fall through to the loose path, which rejects non-string
            # metrics instead of repr-mangling them.)
            uniques, codes = np.unique(array, return_inverse=True)
            keys = [SeriesKey.of(str(unique)) for unique in uniques.tolist()]
            self._data_version += 1
            return self._ingest.ingest_grouped(keys, codes.astype(np.int64), values, weights)
        # Loose descriptions: normalize to hashable keys, then let the
        # facade's own factorization do the dict scan.
        keys = [SeriesKey.of(entry) for entry in series]
        self._data_version += 1
        return self._ingest.ingest_columns(keys, values, weights)

    def merge_series(
        self,
        series: SeriesLike,
        sketch: BaseDDSketch,
        tags: TagsLike = None,
        copy: bool = True,
    ) -> None:
        """Fold one sketch into one series (created on first use).

        With ``copy=False`` a *new* series adopts ``sketch`` itself instead
        of a copy — the ownership-transfer shape used when routing decoded
        wire-frame entries (:meth:`merge_frame`), where the caller holds the
        only reference.  Merging into an existing
        series behaves identically either way (Algorithm 4 mergeability).
        """
        self._data_version += 1
        self._ingest.merge_sketch(SeriesKey.of(series, tags), sketch, copy=copy)

    def merge_entries(
        self, entries: Iterable[Tuple[SeriesLike, BaseDDSketch]], copy: bool = True
    ) -> int:
        """Fold ``(series, sketch)`` entries into this registry in one bulk merge.

        The result is :meth:`merge_series` for each entry in order, bit for
        bit, but every entry is checked first: a repeated series, or a
        sketch its stored series cannot merge
        (:meth:`~repro.core.BaseDDSketch.check_mergeable`), raises before
        anything changes.  A new series adopts its sketch (a copy with
        ``copy=True``); every merge into an existing series runs through
        one :meth:`~repro.core.BaseDDSketch.merge_checked_pairs` pass.
        Returns the number of entries.
        """
        entries = list(entries)
        merge_entries_into([(self, copy)], entries)
        return len(entries)

    def merge(self, other: "SketchRegistry") -> None:
        """Fold every series of ``other`` into this registry (one bulk merge).

        Takes ``other``'s series as stored, unsorted: each series merges on
        its own, so the order changes no answer.
        """
        self.merge_entries(other._ingest)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def rollup(self, metric: str, tag_filter: TagsLike = None) -> BaseDDSketch:
        """Merge every matching series into a new sketch.

        With no filter this is the metric-level rollup; with a filter it is
        the tag-filtered merge.  The stored per-series sketches are not
        modified.  Raises :class:`EmptySketchError` when nothing matches.
        """
        selected = self.series_keys(metric, tag_filter)
        if not selected:
            raise EmptySketchError(
                f"no data for metric {metric!r}"
                + (f" with tags {dict(self._normalized_filter(tag_filter))}" if tag_filter else "")
            )
        merged = self._ingest.get(selected[0]).copy()
        for key in selected[1:]:
            merged.merge(self._ingest.get(key))
        return merged

    @staticmethod
    def _normalized_filter(tag_filter: TagsLike) -> Tuple[Tuple[str, str], ...]:
        from repro.registry.series import normalize_tags

        return normalize_tags(tag_filter)

    def quantile(
        self,
        metric: str,
        quantile: float,
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
    ) -> float:
        """One quantile of a metric: exact series, tag-filtered, or rollup.

        ``tags`` selects one exact series; ``tag_filter`` merges every series
        carrying those tags; neither merges the whole metric.  Raises
        :class:`IllegalArgumentError` for an out-of-range quantile and
        :class:`EmptySketchError` when no matching data exists.
        """
        return self.quantiles(metric, (quantile,), tags=tags, tag_filter=tag_filter)[0]

    def quantiles(
        self,
        metric: str,
        quantiles: Sequence[float],
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
    ) -> List[float]:
        """Several quantiles from one merged read (single cumulative pass)."""
        for quantile in quantiles:
            if not 0 <= quantile <= 1:  # rejects NaN as well
                raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
        if tags is not None and tag_filter is not None:
            raise IllegalArgumentError("pass either tags (exact series) or tag_filter, not both")
        if tags is not None:
            sketch: BaseDDSketch = self.get(metric, tags)
        else:
            sketch = self.rollup(metric, tag_filter)
        values = sketch.get_quantiles(quantiles)
        if any(value is None for value in values):
            raise EmptySketchError(f"no data for metric {metric!r}")
        return [float(value) for value in values]

    def query_engine(
        self,
        cube_dimensions: Sequence[Sequence[str]] = (),
        cache_capacity: int = 128,
    ) -> "QueryEngine":
        """A :class:`~repro.query.QueryEngine` over this registry.

        Cube cells are premerged from the current contents; the engine
        watches :attr:`data_version` and rebuilds them whenever this
        registry mutates, so it is cheapest over an immutable snapshot.
        """
        from repro.query import QueryEngine

        return QueryEngine.over_registry(
            self, cube_dimensions=cube_dimensions, cache_capacity=cache_capacity
        )

    # ------------------------------------------------------------------ #
    # Wire frames
    # ------------------------------------------------------------------ #

    def to_frame(self) -> bytes:
        """Serialize every series into one multi-sketch wire frame (v3)."""
        from repro.serialization.frame import encode_frame

        return encode_frame(self)

    def flush_frame(self) -> bytes:
        """Serialize every series into one frame, then drop the local state.

        This is the agent-side flush of the paper's monitoring loop
        (Section 1), generalized to high cardinality: thousands of series
        leave in a single length-prefixed payload.
        """
        frame = self.to_frame()
        self.clear()
        return frame

    def merge_frame(self, payload: bytes) -> int:
        """Decode a frame and merge every carried series into this registry.

        Returns the number of series merged.  Raises
        :class:`~repro.exceptions.DeserializationError` for malformed
        payloads and :class:`~repro.exceptions.UnequalSketchParametersError`
        for a sketch a stored series cannot merge; either way the registry
        is left unchanged.
        """
        from repro.serialization.frame import read_frame

        # The decoded sketches are owned by nobody else; adopt them directly.
        frame = read_frame(payload)
        merge_entries_into([(self, False)], frame)
        return len(frame)

    @classmethod
    def from_frame(
        cls,
        payload: bytes,
        sketch_factory: Optional[Callable[[], BaseDDSketch]] = None,
    ) -> "SketchRegistry":
        """Rebuild a registry from one wire frame."""
        registry = cls(sketch_factory=sketch_factory)
        registry.merge_frame(payload)
        return registry

    def __repr__(self) -> str:
        return (
            f"SketchRegistry(num_series={self.num_series}, "
            f"metrics={self.metrics()})"
        )


#: What a bulk merge takes: a decoded frame or ``(series, sketch)`` pairs.
Entries = Union["DecodedFrame", Iterable[Tuple[SeriesLike, BaseDDSketch]]]


def check_entries(registries: Sequence[SketchRegistry], entries: "Entries") -> None:
    """Raise what merging ``entries`` into each registry would raise.

    Changes nothing.  ``entries`` is a
    :class:`~repro.serialization.frame.DecodedFrame` or ``(series, sketch)``
    pairs.  The errors are those of :func:`merge_entries_into`: a repeated
    registry or series raises
    :class:`~repro.exceptions.IllegalArgumentError`, and a sketch that a
    registry's stored series cannot merge raises what
    :meth:`~repro.core.BaseDDSketch.check_mergeable` raises.
    """
    _checked_targets(registries, _frame_of(entries))


def merge_entries_into(
    destinations: Sequence[Tuple[SketchRegistry, bool]], entries: "Entries"
) -> None:
    """Fold ``entries`` into every ``(registry, copy)`` destination in one bulk merge.

    ``entries`` is a :class:`~repro.serialization.frame.DecodedFrame` or
    ``(series, sketch)`` pairs.  The result is, bit for bit::

        for series, sketch in entries:
            for registry, copy in destinations:
                registry.merge_series(series, sketch, copy=copy)

    except that :func:`check_entries` runs first, so an entry that cannot
    merge leaves every registry unchanged.  New series adopt their sketch
    (or a copy), and every merge into an existing series runs through one
    :meth:`~repro.serialization.frame.DecodedFrame.merge_into` pass, which
    builds no sketch for a decoded entry whose stores are dense windows.  A
    sketch both stored and merged from (a registry merged into itself,
    say) sends the entries through the loop above instead, which keeps
    every read after the writes before it.
    """
    frame = _frame_of(entries)
    found = _checked_targets([registry for registry, _ in destinations], frame)
    targets: List[BaseDDSketch] = []
    indices: List[int] = []
    for stored in found:
        for index, target in enumerate(stored):
            if target is not None:
                targets.append(target)
                indices.append(index)
    keys = frame.keys
    written = {id(target) for target in targets}
    if len(written) < len(targets) or (
        not frame.decoded and any(id(sketch) in written for _, sketch in frame)
    ):
        for key, sketch in frame:
            for registry, copy in destinations:
                registry._ingest.merge_sketch(key, sketch, copy=copy)
    else:
        for (registry, copy), stored in zip(destinations, found):
            for index, target in enumerate(stored):
                if target is None:
                    registry._ingest.merge_sketch(keys[index], frame.sketch(index), copy=copy)
        frame.merge_into(targets, indices)
    for registry, _ in destinations:
        registry._data_version += 1


def _frame_of(entries: Entries) -> "DecodedFrame":
    from repro.serialization.frame import DecodedFrame

    return DecodedFrame.of(entries)


def _checked_targets(
    registries: Sequence[SketchRegistry], frame: "DecodedFrame"
) -> List[List[Optional[BaseDDSketch]]]:
    """Each registry's stored sketch per entry (``None`` for a new series),
    every existing one checked against its entry's sketch."""
    if len({id(registry) for registry in registries}) < len(registries):
        raise IllegalArgumentError("a bulk merge names one registry twice")
    keys = frame.keys
    if not frame.decoded and len(set(keys)) < len(keys):
        raise IllegalArgumentError("a bulk merge names one series twice")
    found = []
    for registry in registries:
        stored = registry._ingest.sketches_of(keys)
        frame.check_targets(stored)
        found.append(stored)
    return found
