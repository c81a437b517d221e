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
* **metric rollup** — all series of a metric, merged;

and :meth:`SketchRegistry.threshold_query` lists the series whose quantile
estimate lies beyond a threshold, pruning most of them from cheap bounds
(:func:`threshold_scan`).

A registry serializes to the length-prefixed multi-sketch wire frame
(:mod:`repro.serialization.frame`), which is how an agent flushes thousands
of series in one payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

import numpy as np

from repro.core.ddsketch import BaseDDSketch, DDSketch
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.registry.series import (
    SeriesKey, SeriesLike, TagsLike, matching_keys, normalize_tags,
)
from repro.store.grouped import GroupedScratch

if TYPE_CHECKING:
    from repro.serialization.frame import DecodedFrame


class SketchRegistry:
    """A collection of sketches keyed by tagged series, fed in bulk.

    Parameters
    ----------
    sketch_factory:
        Zero-argument callable creating the sketch for a series the first
        time it receives data; defaults to the paper's configuration
        (``DDSketch(relative_accuracy=0.01)``).  :meth:`ingest_grouped` and
        :meth:`ingest_columns` call it once per call that creates series;
        that call's other new series are copies of its sketch, taken before
        the batch lands, so they share its mapping.

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
        self._sketches: Dict[SeriesKey, BaseDDSketch] = {}
        # Every stored key in sorted order, kept until a series is added or
        # the registry is cleared (only this module writes _sketches).
        self._sorted: Optional[List[SeriesKey]] = None
        # The grouped pass's reusable flat-index scratch: a registry has one
        # writer, as GroupedScratch requires.
        self._scratch = GroupedScratch()

    # ------------------------------------------------------------------ #
    # Series access
    # ------------------------------------------------------------------ #

    def sketch(self, series: SeriesLike, tags: TagsLike = None) -> BaseDDSketch:
        """The sketch for a series, created on first use."""
        key = SeriesKey.of(series, tags)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = self._sketches[key] = self._sketch_factory()
            self._sorted = None
        return sketch

    def get(self, series: SeriesLike, tags: TagsLike = None) -> BaseDDSketch:
        """The sketch for a series; raises :class:`EmptySketchError` if unknown."""
        key = SeriesKey.of(series, tags)
        sketch = self._sketches.get(key)
        if sketch is None:
            raise EmptySketchError(f"no data for series {key}")
        return sketch

    def series_keys(self, metric: Optional[str] = None, tag_filter: TagsLike = None) -> List[SeriesKey]:
        """Sorted keys of the stored series, optionally filtered.

        The sorted key list is kept until a series is added or the registry
        is cleared, so a read filters it instead of sorting its selection.
        """
        if self._sorted is None:
            self._sorted = sorted(self._sketches, key=SeriesKey.sort_key)
        return matching_keys(self._sorted, metric, tag_filter)

    def metrics(self) -> List[str]:
        """Sorted names of the metrics with at least one series."""
        return sorted({key.metric for key in self._sketches})

    @property
    def num_series(self) -> int:
        """Number of stored series."""
        return len(self._sketches)

    def __len__(self) -> int:
        return len(self._sketches)

    def __contains__(self, series: SeriesLike) -> bool:
        return SeriesKey.of(series) in self._sketches

    def __iter__(self) -> Iterator[Tuple[SeriesKey, BaseDDSketch]]:
        """Iterate ``(key, sketch)`` pairs in sorted key order."""
        for key in self.series_keys():
            yield key, self._sketches[key]

    def total_count(self, metric: Optional[str] = None, tag_filter: TagsLike = None) -> float:
        """Total inserted weight over the matching series (0.0 when none match)."""
        return sum(self._sketches[key].count for key in self.series_keys(metric, tag_filter))

    def size_in_bytes(self) -> int:
        """Modelled memory footprint of every stored sketch."""
        return sum(sketch.size_in_bytes() for sketch in self._sketches.values())

    def clear(self) -> None:
        """Drop every series."""
        self._sketches = {}
        self._sorted = None

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
        sketch = self._sketches.get(key)
        if sketch is not None:
            sketch.add(value, weight)
            return
        sketch = self._sketch_factory()
        sketch.add(value, weight)
        self._sketches[key] = sketch
        self._sorted = None

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
        sketch = self._sketches.get(key)
        if sketch is not None:
            sketch.add_batch(values, weights)
            return
        sketch = self._sketch_factory()
        sketch.add_batch(values, weights)
        if sketch.count > 0:
            self._sketches[key] = sketch
            self._sorted = None

    def ingest_grouped(
        self,
        series: Sequence[SeriesLike],
        group_indices: "np.ndarray",
        values: "np.ndarray",
        weights: Optional[Union[float, "np.ndarray"]] = None,
    ) -> int:
        """Ingest pre-factorized columns across many series at once.

        ``series`` lists one key per group and ``group_indices`` maps each
        sample to a position in that list; the series that receive samples
        take the batch in one
        :meth:`~repro.core.BaseDDSketch.add_grouped_batch` (one
        ``key_batch``, one combined ``bincount`` where possible).  The
        factory runs once if any listed series is new; the other new series
        are copies of its sketch.  A new series is only stored once that
        call accepted the batch, so a rejected batch changes no series and
        creates none (the contract of :meth:`add`).  Returns the number of
        samples ingested.
        """
        keys = [SeriesKey.of(entry) for entry in series]
        return self._ingest_keys(keys, group_indices, values, weights)

    def ingest_columns(
        self,
        series: Sequence[SeriesLike],
        values: "np.ndarray",
        weights: Optional[Union[float, "np.ndarray"]] = None,
    ) -> int:
        """Ingest raw parallel ``(series, value)`` columns (factorized here).

        ``series`` may be a NumPy array of metric strings (the common
        columnar shape, factorized with one ``numpy.unique``) or any
        sequence of loose series descriptions, each normalized to a
        :class:`SeriesKey` and factorized through a dictionary.  The
        batch then flows through :meth:`ingest_grouped`'s pass.
        """
        if isinstance(series, np.ndarray) and series.ndim == 1 and series.dtype.kind == "U":
            uniques, codes = np.unique(series, return_inverse=True)
            keys = [SeriesKey.of(metric) for metric in uniques.tolist()]
        else:
            # SeriesKey.of refuses a metric that is not a string (a bytes
            # column, say) instead of repr-mangling it.
            positions: Dict[SeriesKey, int] = {}
            codes = [positions.setdefault(SeriesKey.of(entry), len(positions)) for entry in series]
            keys = list(positions)
        return self._ingest_keys(keys, codes, values, weights)

    def _ingest_keys(
        self,
        keys: List[SeriesKey],
        group_indices: "np.ndarray",
        values: "np.ndarray",
        weights: Optional[Union[float, "np.ndarray"]],
    ) -> int:
        """:meth:`ingest_grouped` over normalized keys."""
        group_indices = np.asarray(group_indices, dtype=np.int64).reshape(-1)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if group_indices.shape != values.shape:
            raise IllegalArgumentError(
                f"group_indices shape {group_indices.shape} does not match "
                f"values shape {values.shape}"
            )
        if group_indices.size == 0:
            return 0
        num_listed = len(keys)
        lowest, highest = int(group_indices.min()), int(group_indices.max())
        if lowest < 0 or highest >= num_listed:
            raise IllegalArgumentError(
                f"group indices must be in [0, {num_listed}), got range [{lowest}, {highest}]"
            )
        # Only the listed series that receive samples take part: the
        # presence scan and the dense re-coding are O(n) array passes.
        present = np.flatnonzero(np.bincount(group_indices, minlength=num_listed))
        if present.size < num_listed:
            recode = np.empty(num_listed, dtype=np.int64)
            recode[present] = np.arange(present.size)
            group_indices = recode[group_indices]
        stored = self._sketches
        new: Dict[SeriesKey, BaseDDSketch] = {}
        sketches = []
        # One factory call per ingest that creates series; its other new
        # series are copies of that sketch, taken before the batch lands.
        template = None
        for position in present.tolist():
            key = keys[position]
            sketch = stored.get(key)
            if sketch is None:
                # A series listed twice takes both groups into one sketch.
                sketch = new.get(key)
                if sketch is None:
                    if template is None:
                        sketch = template = self._sketch_factory()
                    else:
                        sketch = template.copy()
                    new[key] = sketch
            sketches.append(sketch)
        BaseDDSketch.add_grouped_batch(
            sketches, group_indices, values, weights, scratch=self._scratch
        )
        if new:
            stored.update(new)
            self._sorted = None
        return int(values.size)

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
        key = SeriesKey.of(series, tags)
        stored = self._sketches.get(key)
        if stored is None:
            self._sketches[key] = sketch.copy() if copy else sketch
            self._sorted = None
        else:
            stored.merge(sketch)

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
        self.merge_entries(other._sketches.items())

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def rollup(self, metric: str, tag_filter: TagsLike = None) -> BaseDDSketch:
        """Merge every matching series into a new sketch.

        With no filter this is the metric-level rollup; with a filter it is
        the tag-filtered merge.  The series merge in sorted key order
        through one :meth:`~repro.core.BaseDDSketch.fold`, and the stored
        per-series sketches are not modified.  Raises
        :class:`EmptySketchError` when nothing matches.
        """
        selected = self.series_keys(metric, tag_filter)
        if not selected:
            raise no_data(metric, tag_filter)
        return BaseDDSketch.fold([[sketch] for sketch in map(self._sketches.get, selected)])

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
        check_quantile_read(quantiles, tags, tag_filter)
        sketch = self.rollup(metric, tag_filter) if tags is None else self.get(metric, tags)
        return quantile_values(sketch, metric, quantiles)

    def threshold_query(
        self,
        metric: str,
        quantile: float,
        threshold: float,
        above: bool = True,
        tag_filter: TagsLike = None,
    ) -> ThresholdResult:
        """Which series' ``quantile`` estimate is strictly beyond ``threshold``?

        With ``above=True`` a series of ``metric`` carrying every
        ``tag_filter`` tag matches when its estimate is ``> threshold``
        (``< threshold`` with ``above=False``).  Every selected series is
        first classified from its
        :meth:`~repro.core.BaseDDSketch.quantile_bounds`, all of them taken
        in one :meth:`~repro.core.BaseDDSketch.quantile_bound_columns` pass
        (count columns and one native scan for the used keys), and only a
        series whose bounds straddle ``threshold`` is asked for its estimate
        (:func:`threshold_scan`), so the matches equal scanning every
        series' estimate.  A series without data never matches.  Raises
        :class:`IllegalArgumentError` for a quantile outside ``[0, 1]`` or a
        ``threshold`` that is not finite, before any series is read.
        """
        # The series in storage order: threshold_scan sorts only the
        # matches and the scanned series, not the whole selection.
        keys = matching_keys(self._sketches, metric, tag_filter)
        sketches = list(map(self._sketches.__getitem__, keys))
        return threshold_scan(
            metric,
            quantile,
            threshold,
            above,
            keys,
            bounds=lambda: BaseDDSketch.quantile_bound_columns(sketches, quantile),
            estimate=lambda index: sketches[index].quantile(quantile),
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


def check_entries(
    registries: Sequence[SketchRegistry], entries: "Entries"
) -> List[List[Optional[BaseDDSketch]]]:
    """Raise what merging ``entries`` into each registry would raise.

    Changes nothing.  ``entries`` is a
    :class:`~repro.serialization.frame.DecodedFrame` or ``(series, sketch)``
    pairs.  The errors are those of :func:`merge_entries_into`: a repeated
    registry or series raises
    :class:`~repro.exceptions.IllegalArgumentError`, and a sketch that a
    registry's stored series cannot merge raises what
    :meth:`~repro.core.BaseDDSketch.check_mergeable` raises.  Returns each
    registry's stored sketch per entry (``None`` for a new series), which
    :func:`merge_entries_into` takes as ``checked`` for the same entries.
    """
    return _checked_targets(registries, _frame_of(entries))


def merge_entries_into(
    destinations: Sequence[Tuple[SketchRegistry, bool]],
    entries: "Entries",
    checked: Optional[List[List[Optional[BaseDDSketch]]]] = None,
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
    every read after the writes before it.  ``checked`` is what
    :func:`check_entries` returned for these registries and entries, when
    the caller has checked them already and changed nothing since.
    """
    frame = _frame_of(entries)
    found = checked
    if found is None:
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
                registry.merge_series(key, sketch, copy=copy)
    else:
        for (registry, copy), stored in zip(destinations, found):
            for index, target in enumerate(stored):
                if target is None:
                    registry.merge_series(keys[index], frame.sketch(index), copy=copy)
        frame.merge_into(targets, indices)


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
        stored = list(map(registry._sketches.get, keys))
        frame.check_targets(stored)
        found.append(stored)
    return found


def check_quantile_read(quantiles: Sequence[float], tags: TagsLike, tag_filter: TagsLike) -> None:
    """Refuse a quantile read's arguments as :meth:`SketchRegistry.quantiles`
    does: a quantile outside ``[0, 1]``, or both ``tags`` and ``tag_filter``."""
    for quantile in quantiles:
        if not 0 <= quantile <= 1:  # rejects NaN as well
            raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
    if tags is not None and tag_filter is not None:
        raise IllegalArgumentError("pass either tags (exact series) or tag_filter, not both")


def no_data(metric: str, tag_filter: TagsLike) -> EmptySketchError:
    """The error of a rollup that selects no series."""
    return EmptySketchError(
        f"no data for metric {metric!r}"
        + (f" with tags {dict(normalize_tags(tag_filter))}" if tag_filter else "")
    )


def quantile_values(sketch: BaseDDSketch, metric: str, quantiles: Sequence[float]) -> List[float]:
    """A read's answer: ``sketch``'s quantiles, or :class:`EmptySketchError`
    when it holds no weight."""
    values = sketch.get_quantiles(quantiles)
    if any(value is None for value in values):
        raise EmptySketchError(f"no data for metric {metric!r}")
    return [float(value) for value in values]


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


def threshold_scan(
    metric: str,
    quantile: float,
    threshold: float,
    above: bool,
    keys: Sequence[SeriesKey],
    bounds: Callable[[], Tuple["np.ndarray", "np.ndarray"]],
    estimate: Callable[[int], float],
) -> ThresholdResult:
    """Classify every series of ``keys`` against ``threshold``.

    The bounds-then-estimate cascade of Gan et al.'s moment sketch: cheap
    bounds decide most series, and only the rest pay for an estimate.
    A series matches when its ``quantile`` estimate is ``> threshold``
    (``< threshold`` with ``above=False``).  ``bounds()`` returns two
    ``float64`` columns ``(lower, upper)``, entry ``i`` enclosing the
    estimate of ``keys[i]``, or ``(inf, -inf)`` for a series without data,
    which then neither matches nor is scanned
    (:func:`~repro.core.ddsketch.bound_columns` makes them from per-series
    bounds).  ``estimate(i)`` is that estimate itself, asked only of a
    series whose bounds straddle ``threshold``.  ``matches`` and
    ``scanned`` come in sorted key order, whatever the order of ``keys``.
    Raises
    :class:`~repro.exceptions.IllegalArgumentError` for a quantile outside
    ``[0, 1]`` or a ``threshold`` that is not finite, before ``bounds`` is
    called.
    """
    if not 0 <= quantile <= 1:  # rejects NaN as well
        raise IllegalArgumentError(f"quantile must be in [0, 1], got {quantile!r}")
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise IllegalArgumentError(f"threshold must be finite, got {threshold!r}")
    lower, upper = bounds()
    if above:
        pruned = upper <= threshold  # the estimate cannot exceed threshold
        matched = ~pruned & (lower > threshold)  # the estimate must exceed it
    else:
        pruned = lower >= threshold
        matched = ~pruned & (upper < threshold)
    straddling = np.flatnonzero(~(pruned | matched)).tolist()
    for index in straddling:
        value = estimate(index)
        if (value > threshold) if above else (value < threshold):
            matched[index] = True
    return ThresholdResult(
        metric=metric,
        quantile=quantile,
        threshold=threshold,
        above=above,
        matches=sorted(
            map(keys.__getitem__, np.flatnonzero(matched).tolist()), key=SeriesKey.sort_key
        ),
        scanned=sorted(map(keys.__getitem__, straddling), key=SeriesKey.sort_key),
        total_series=len(keys),
    )
