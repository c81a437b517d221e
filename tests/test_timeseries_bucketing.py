"""Regression tests for the time-bucketing correctness fixes.

Three bugs are pinned here, each with a failing-before/passing-after test:

1. ``SketchTimeSeries`` used to keep *two* representations of an interval's
   identity — the float ``interval_start`` (``floor(t / L) * L``) as the
   storage key and a rounded integer index (``round(start / L)``) in a
   reverse map — and the two disagreed for non-unit ``interval_length``:
   distinct float starts can round to the same integer index, so the reverse
   map silently dropped one bucket and the window hierarchy could no longer
   reach it.  The fix makes the integer interval index the single canonical
   form (floats are derived, never compared).
2. ``quantile_over_windows`` used to re-merge the member intervals of every
   window from scratch, bypassing the hierarchical window cache that
   ``rollup`` uses; it now routes window merges through ``_cover_pieces``.
3. ``Aggregator.interval_series`` used to return the *live* stored sketches
   when exactly one series was addressed, so callers mutating the result
   corrupted stored state; it now returns defensive copies by default.

An infinite or NaN timestamp or window bound has no interval index; it
used to leak ``OverflowError``/``ValueError`` from the index computation
and is now refused with ``IllegalArgumentError``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DDSketch, EmptySketchError, UDDSketch
from repro.exceptions import IllegalArgumentError
from repro.monitoring import Aggregator, SketchTimeSeries

NON_FINITE = pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"]
)


def make_series(interval_length, window_factors=(4, 16)):
    return SketchTimeSeries(
        "latency",
        interval_length=interval_length,
        sketch_factory=lambda: DDSketch(relative_accuracy=0.01),
        window_factors=window_factors,
    )


class TestCanonicalIntervalIndex:
    """Bugfix 1: the integer index is the single source of truth."""

    # With interval_length = 1e-6 (microsecond buckets) and epoch-scale
    # timestamps, the old float round-trip collides: the two timestamps
    # below land in *different* buckets (their floor-derived starts differ),
    # but both starts round to the same integer index, so the old reverse
    # map kept only one of them and orphaned the other from the window
    # hierarchy.
    COLLIDING_L = 1e-6
    COLLIDING_T1 = 4500000000.000012
    COLLIDING_T2 = 4500000000.000013

    def test_old_representation_actually_collided(self):
        # Documents the failure mode of the pre-fix arithmetic: distinct
        # floor-derived starts, identical rounded indices.
        L, t1, t2 = self.COLLIDING_L, self.COLLIDING_T1, self.COLLIDING_T2
        old_start_1 = math.floor(t1 / L) * L
        old_start_2 = math.floor(t2 / L) * L
        assert old_start_1 != old_start_2
        assert round(old_start_1 / L) == round(old_start_2 / L)

    def test_colliding_timestamps_keep_distinct_buckets(self):
        L, t1, t2 = self.COLLIDING_L, self.COLLIDING_T1, self.COLLIDING_T2
        series = make_series(L)
        series.ingest_values(t1, [1.0, 2.0])
        series.ingest_values(t2, [3.0])
        assert len(series.interval_indices()) == 2
        assert series.rollup().count == 3
        # The window path (what the old reverse map fed) sees all the data.
        merged_counts = sum(
            series.rollup(start, start + L) .count for start in series.intervals()
        )
        assert merged_counts == 3

    def test_window_queries_cover_orphan_prone_buckets(self):
        L, t1, t2 = self.COLLIDING_L, self.COLLIDING_T1, self.COLLIDING_T2
        series = make_series(L)
        series.ingest_values(t1, [1.0, 2.0])
        series.ingest_values(t2, [3.0])
        points = series.quantile_over_windows(1.0, window_length=4 * L)
        total = 0.0
        for start, _ in points:
            total += series.rollup(start, start + 4 * L).count
        assert total == 3

    @given(
        interval_length=st.sampled_from([1.0, 0.1, 1 / 3, 0.07, 2.5, 60.0, 1e-3, 1e-6]),
        base=st.sampled_from([0.0, -1e4, 1.7e9, 4.5e9, -4.5e9]),
        offsets=st.lists(
            st.integers(min_value=-50, max_value=50), min_size=1, max_size=20
        ),
        jitter=st.floats(min_value=0.0, max_value=0.999),
    )
    @settings(max_examples=150, deadline=None)
    def test_index_invariants_property(self, interval_length, base, offsets, jitter):
        """For arbitrary (fractional, non-unit) lengths and signed timestamps:

        * every timestamp's index brackets it: ``start(i) <= t < start(i+1)``
        * the float start round-trips to the same index
        * no two distinct indices share a float start
        * every ingested value is reachable through ``rollup``
        """
        series = make_series(interval_length)
        timestamps = [
            base + (offset + jitter) * interval_length for offset in offsets
        ]
        for timestamp in timestamps:
            index = series._index_for(timestamp)
            assert series._start_of(index) <= timestamp < series._start_of(index + 1)
            assert series._index_for(series._start_of(index)) == index
            series.ingest_value(timestamp, 1.0)
        indices = series.interval_indices()
        starts = [series._start_of(index) for index in indices]
        assert len(set(starts)) == len(indices)
        assert series.rollup().count == len(timestamps)
        assert series.total_count == len(timestamps)

    def test_negative_timestamps_bucket_below_zero(self):
        series = make_series(0.25)
        series.ingest_value(-0.1, 1.0)
        series.ingest_value(0.1, 2.0)
        indices = series.interval_indices()
        assert indices[0] < 0 <= indices[1]
        assert series.rollup(-1.0, 0.0).count == 1
        assert series.rollup(0.0, 1.0).count == 1

    @NON_FINITE
    @pytest.mark.parametrize(
        "operation",
        [
            lambda series, bad: series.ingest_value(bad, 1.0),
            lambda series, bad: series.ingest_sketch(bad, DDSketch()),
            lambda series, bad: series.sketch_at(bad),
            lambda series, bad: series.rollup(start=bad),
            lambda series, bad: series.rollup(end=bad),
            lambda series, bad: series.quantile_bounds(0.5, end=bad),
        ],
        ids=[
            "ingest_value", "ingest_sketch", "sketch_at",
            "rollup_start", "rollup_end", "bounds_end",
        ],
    )
    def test_non_finite_timestamps_are_refused(self, operation, bad):
        series = make_series(0.25)
        series.ingest_value(0.1, 1.0)
        with pytest.raises(IllegalArgumentError, match="finite"):
            operation(series, bad)
        assert series.interval_indices() == [0]
        assert series.rollup().count == 1

    @NON_FINITE
    def test_non_finite_window_length_is_refused(self, bad):
        series = make_series(0.25)
        series.ingest_value(0.1, 1.0)
        with pytest.raises(IllegalArgumentError, match="finite"):
            series.quantile_over_windows(0.5, window_length=bad)
        assert series.quantile_over_windows(0.5, window_length=1.0) == [
            (0.0, pytest.approx(1.0, rel=0.01))
        ]

    def test_refused_values_leave_no_empty_interval(self):
        series = make_series(0.25)
        series.ingest_value(0.1, 1.0)
        with pytest.raises(IllegalArgumentError):
            series.ingest_values(3.1, np.array([1.0, math.nan]))
        with pytest.raises(IllegalArgumentError):
            series.ingest_value(3.1, 2.0, weight=-1.0)
        assert series.interval_indices() == [0]
        with pytest.raises(EmptySketchError):
            series.rollup(3.0, 4.0)

    def test_timestamp_whose_index_overflows_is_refused(self):
        with pytest.raises(IllegalArgumentError, match="finite"):
            make_series(1e-3).ingest_value(1e308, 1.0)

    @NON_FINITE
    @pytest.mark.parametrize(
        "operation",
        [
            lambda aggregator, bad: aggregator.rollup("latency", start=bad),
            lambda aggregator, bad: aggregator.rollup("latency", end=bad),
            lambda aggregator, bad: aggregator.quantiles("latency", [0.5], start=bad),
            lambda aggregator, bad: aggregator.quantiles("latency", [0.5], end=bad),
            lambda aggregator, bad: aggregator.ingest_values("latency", bad, np.ones(3)),
        ],
        ids=["rollup_start", "rollup_end", "quantiles_start", "quantiles_end", "ingest_values"],
    )
    def test_aggregator_refuses_non_finite_timestamps(self, operation, bad):
        aggregator = Aggregator(interval_length=0.25)
        aggregator.ingest_values("latency", 0.1, np.ones(2))
        with pytest.raises(IllegalArgumentError, match="finite"):
            operation(aggregator, bad)
        assert aggregator.quantiles("latency", [0.5], start=0.0, end=1.0) == [
            pytest.approx(1.0, rel=0.01)
        ]


def _refused_ingest(aggregator, entry):
    from repro.monitoring.agent import FramePayload, SketchPayload
    from repro.registry import SketchRegistry

    sketch = DDSketch()
    sketch.add(2.0)
    registry = SketchRegistry()
    registry.add("new", 2.0, tags={"endpoint": "/a"})
    if entry == "ingest":
        aggregator.ingest(SketchPayload("h", "new", math.inf, 0.25, sketch.to_bytes()))
    elif entry == "ingest_frame":
        aggregator.ingest_frame(FramePayload("h", math.nan, 0.25, registry.to_frame(), 1))
    elif entry == "ingest_values_timestamp":
        aggregator.ingest_values("new", math.inf, np.ones(3))
    else:
        aggregator.ingest_values("new", 0.0, np.array([1.0, math.nan]))


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize(
    "entry", ["ingest", "ingest_frame", "ingest_values_timestamp", "ingest_values_value"]
)
def test_refused_input_creates_no_series(entry, observed):
    """A series, and a rollup-cube cell fed by an ingest observer, exist
    only once input was accepted for them."""
    aggregator = Aggregator(interval_length=0.25)
    aggregator.ingest_values("latency", 0.1, np.ones(2))
    engine = aggregator.query_engine(cube_dimensions=(("endpoint",),)) if observed else None
    with pytest.raises(IllegalArgumentError):
        _refused_ingest(aggregator, entry)
    assert aggregator.num_series == 1
    assert aggregator.metrics == ["latency"]
    assert aggregator.series_keys() == [aggregator.series("latency").series_key]
    if engine is not None:
        assert engine.cube.num_cells == 0
    aggregator.ingest_values("latency", 0.1, np.array([]))
    aggregator.ingest_values("empty", 0.1, np.array([]))
    assert aggregator.metrics == ["latency"]


class TestWindowQueryUsesCache:
    """Bugfix 2: ``quantile_over_windows`` routes through the window cache."""

    def _populated(self):
        series = make_series(1.0, window_factors=(4, 16))
        for interval in range(32):
            series.ingest_values(float(interval), [float(interval) + 1.0, 2.0])
        return series

    def test_window_query_populates_window_cache(self):
        series = self._populated()
        assert series.cached_window_count == 0
        series.quantile_over_windows(0.5, window_length=4.0)
        assert series.cached_window_count > 0

    def test_window_query_matches_naive_per_window_merge(self):
        series = self._populated()
        points = series.quantile_over_windows(0.95, window_length=4.0)
        assert len(points) == 8
        for start, value in points:
            expected = series.rollup(start, start + 4.0).quantile(0.95)
            assert value == expected

    def test_repeated_window_query_is_stable(self):
        series = self._populated()
        first = series.quantile_over_windows(0.99, window_length=16.0)
        second = series.quantile_over_windows(0.99, window_length=16.0)
        assert first == second

    def test_window_query_after_invalidation_stays_correct(self):
        series = self._populated()
        before = series.quantile_over_windows(0.5, window_length=4.0)
        series.ingest_values(2.0, [1000.0] * 8)
        after = series.quantile_over_windows(0.5, window_length=4.0)
        assert after != before
        for start, value in after:
            assert value == series.rollup(start, start + 4.0).quantile(0.5)


class TestIntervalSeriesIsolation:
    """Bugfix 3: single-series ``interval_series`` hands out copies."""

    def _aggregator(self):
        aggregator = Aggregator(interval_length=1.0)
        aggregator.ingest_values("lat", 0.0, [1.0, 2.0, 3.0], tags={"host": "a"})
        aggregator.ingest_values("lat", 1.0, [4.0, 5.0], tags={"host": "a"})
        return aggregator

    def test_mutating_result_does_not_corrupt_store(self):
        aggregator = self._aggregator()
        before = aggregator.quantile("lat", 0.99, tags={"host": "a"})
        for _, sketch in aggregator.interval_series("lat", tags={"host": "a"}):
            sketch.add(1e9)
        assert aggregator.quantile("lat", 0.99, tags={"host": "a"}) == before
        assert aggregator.rollup("lat", tags={"host": "a"}).count == 5

    def test_copy_false_returns_live_sketches(self):
        aggregator = self._aggregator()
        live = aggregator.interval_series("lat", tags={"host": "a"}, copy=False)
        stored = list(aggregator.series("lat", {"host": "a"}))
        assert [sketch for _, sketch in live] == [sketch for _, sketch in stored]

    def test_multi_series_path_already_isolated(self):
        aggregator = self._aggregator()
        aggregator.ingest_values("lat", 0.0, [10.0], tags={"host": "b"})
        before = aggregator.quantile("lat", 0.5, tag_filter={})
        for _, sketch in aggregator.interval_series("lat"):
            sketch.add(1e9)
        assert aggregator.quantile("lat", 0.5, tag_filter={}) == before


class TestQuantileBoundsContract:
    """`quantile_bounds` always encloses the real rollup estimate."""

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
                lambda value: 0.0 if abs(value) < 1e-3 else value
            ),
            min_size=1,
            max_size=60,
        ),
        spread=st.integers(min_value=1, max_value=6),
        quantile=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounds_enclose_estimate(self, values, spread, quantile):
        series = make_series(1.0)
        for position, value in enumerate(values):
            series.ingest_value(float(position % spread), value)
        lower, upper = series.quantile_bounds(quantile)
        estimate = series.rollup().quantile(quantile)
        assert lower <= estimate <= upper

    @given(
        values=st.lists(
            st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        spread=st.integers(min_value=1, max_value=6),
        quantile=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_enclose_udd_estimate(self, values, spread, quantile):
        series = SketchTimeSeries(
            "lat",
            interval_length=1.0,
            sketch_factory=lambda: UDDSketch(relative_accuracy=0.01, bin_limit=32),
        )
        for position, value in enumerate(values):
            series.ingest_value(float(position % spread), value)
        lower, upper = series.quantile_bounds(quantile)
        estimate = series.rollup().quantile(quantile)
        assert lower <= estimate <= upper

    def test_windowed_bounds_and_empty_window(self):
        series = make_series(1.0)
        series.ingest_values(0.0, [1.0, 2.0])
        series.ingest_values(5.0, [100.0])
        lower, upper = series.quantile_bounds(0.5, 0.0, 1.0)
        assert lower <= series.rollup(0.0, 1.0).quantile(0.5) <= upper
        with pytest.raises(EmptySketchError):
            series.quantile_bounds(0.5, 2.0, 4.0)
