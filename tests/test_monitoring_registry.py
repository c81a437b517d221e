"""End-to-end tests for the high-cardinality monitoring pipeline.

Covers the registry-backed agents (grouped ingestion, frame flushes, what
one push sends), the tag-aware aggregator (exact-series / tag-filtered /
metric rollups), the hierarchical time-window rollups, the error-behaviour
contract (unknown metric or empty window raises
``EmptySketchError``/``IllegalArgumentError``, never a bare ``KeyError``),
and the UDDSketch-factory end-to-end equivalence with a naive per-series
``add`` loop.
"""

import numpy as np
import pytest

from repro import DDSketch, SeriesKey, UDDSketch
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.monitoring import (
    Aggregator,
    MetricAgent,
    MonitoringSimulation,
    SketchTimeSeries,
)
from repro.service.protocol import decode_push_envelope

from _service_testkit import RecordingClient


class TestTaggedAgent:
    def test_record_with_tags_flushes_per_series(self):
        agent = MetricAgent("host-1")
        agent.record("latency", 1.0, tags={"endpoint": "/a"})
        agent.record("latency", 2.0, tags={"endpoint": "/b"})
        agent.record("latency", 3.0, tags={"endpoint": "/a"})
        assert agent.pending_metrics == ["latency"]
        assert len(agent.pending_series) == 2

        payloads = agent.flush(0.0)
        assert len(payloads) == 2
        by_series = {payload.series_key: payload for payload in payloads}
        key_a = SeriesKey("latency", {"endpoint": "/a"})
        assert by_series[key_a].decode().count == 2
        assert by_series[key_a].tags == (("endpoint", "/a"),)

    def test_record_grouped_reaches_every_series(self):
        agent = MetricAgent("host-2")
        keys = [SeriesKey("m", {"e": str(index)}) for index in range(4)]
        recorded = agent.record_grouped(
            keys, np.array([0, 1, 1, 3]), np.array([1.0, 2.0, 3.0, 4.0])
        )
        assert recorded == 4
        assert agent.records_since_flush == 4
        # Series 2 received nothing, so only three series are pending.
        assert len(agent.pending_series) == 3

    def test_flush_frame_carries_all_series_and_resets(self):
        agent = MetricAgent("host-3")
        agent.record("a", 1.0)
        agent.record("b", 2.0, tags={"x": "1"})
        frame = agent.flush_frame(5.0)
        assert frame.num_series == 2
        assert frame.host == "host-3"
        assert agent.flush_frame(6.0) is None
        entries = dict(frame.decode())
        assert entries[SeriesKey("a")].count == 1
        assert entries[SeriesKey("b", {"x": "1"})].count == 1


class TestTagAwareAggregator:
    def build(self):
        aggregator = Aggregator(interval_length=1.0)
        agent = MetricAgent("h")
        rng = np.random.default_rng(0)
        for interval in range(3):
            for endpoint in ("/a", "/b"):
                agent.record_batch(
                    "latency",
                    rng.lognormal(0.0, 1.0, 200) * (1.0 if endpoint == "/a" else 3.0),
                    tags={"endpoint": endpoint, "host": "h"},
                )
            aggregator.ingest_frame(agent.flush_frame(float(interval)))
        return aggregator

    def test_exact_tag_filtered_and_rollup_queries(self):
        aggregator = self.build()
        assert aggregator.metrics == ["latency"]
        assert aggregator.num_series == 2
        exact = aggregator.quantile(
            "latency", 0.5, tags={"endpoint": "/a", "host": "h"}
        )
        filtered = aggregator.quantile("latency", 0.5, tag_filter={"endpoint": "/a"})
        assert exact == filtered  # the filter selects exactly that series
        overall = aggregator.quantile("latency", 0.5)
        assert overall >= filtered  # /b runs 3x slower, pulling the merge up
        assert aggregator.count("latency") == 1200
        assert aggregator.count("latency", tag_filter={"endpoint": "/b"}) == 600

    def test_frame_ingestion_tracks_wire_stats(self):
        aggregator = self.build()
        assert aggregator.payloads_received == 3
        assert aggregator.series_received == 6
        assert aggregator.bytes_received > 0

    def test_tag_filtered_answers_match_naive_merge(self):
        aggregator = self.build()
        series_a = aggregator.series("latency", {"endpoint": "/a", "host": "h"})
        series_b = aggregator.series("latency", {"endpoint": "/b", "host": "h"})
        naive = series_a.rollup().copy()
        naive.merge(series_b.rollup())
        quantiles = (0.1, 0.5, 0.99)
        assert aggregator.quantiles("latency", quantiles) == [
            pytest.approx(value) for value in naive.get_quantiles(quantiles)
        ]

    def test_unknown_and_empty_queries_raise_proper_errors(self):
        aggregator = self.build()
        with pytest.raises(EmptySketchError):
            aggregator.quantile("missing", 0.5)
        with pytest.raises(EmptySketchError):
            aggregator.quantile("latency", 0.5, tags={"endpoint": "/nope"})
        with pytest.raises(EmptySketchError):
            aggregator.quantile("latency", 0.5, tag_filter={"endpoint": "/nope"})
        with pytest.raises(EmptySketchError):
            aggregator.quantile("latency", 0.5, start=100.0, end=200.0)
        with pytest.raises(EmptySketchError):
            aggregator.quantile_series("missing", 0.5)
        with pytest.raises(EmptySketchError):
            aggregator.average_series("missing")
        with pytest.raises(EmptySketchError):
            aggregator.rollup("missing")
        with pytest.raises(IllegalArgumentError):
            aggregator.quantile("latency", 1.5)
        with pytest.raises(IllegalArgumentError):
            aggregator.quantile("latency", float("nan"))
        with pytest.raises(IllegalArgumentError):
            aggregator.quantiles_series("latency", (0.5, -0.1))
        with pytest.raises(IllegalArgumentError):
            aggregator.quantile(
                "latency", 0.5, tags={"a": "1"}, tag_filter={"b": "2"}
            )
        assert aggregator.count("missing") == 0.0

    def test_metric_series_merges_across_tagged_series(self):
        aggregator = self.build()
        merged_series = aggregator.quantiles_series("latency", (0.5,))
        assert len(merged_series) == 3  # one entry per interval, both series merged
        per_interval_counts = [
            sketch.count for _, sketch in aggregator.interval_series("latency")
        ]
        assert per_interval_counts == [400.0, 400.0, 400.0]


class TestHierarchicalWindows:
    def make_series(self, factory=None, intervals=200, factors=(4, 16)):
        series = SketchTimeSeries(
            "m", interval_length=1.0, sketch_factory=factory, window_factors=factors
        )
        rng = np.random.default_rng(1)
        for interval in range(intervals):
            if interval % 7 == 3:
                continue  # leave gaps: sparse series must roll up correctly
            series.ingest_values(float(interval), rng.lognormal(0.0, 1.0, 30))
        return series

    def naive_rollup(self, series, start=None, end=None):
        selected = [
            sketch
            for interval_start, sketch in series
            if (start is None or interval_start >= np.floor(start)) and (end is None or interval_start < end)
        ]
        merged = selected[0].copy()
        for sketch in selected[1:]:
            merged.merge(sketch)
        return merged

    @pytest.mark.parametrize(
        "factory",
        [
            None,
            lambda: DDSketch(relative_accuracy=0.01, bin_limit=128),
            lambda: UDDSketch(relative_accuracy=0.01, bin_limit=128),
        ],
        ids=["default", "collapsing", "uniform"],
    )
    def test_windowed_rollups_bit_exact_with_naive_merge(self, factory):
        series = self.make_series(factory=factory)
        quantiles = (0.01, 0.5, 0.9, 0.99)
        for window in [(None, None), (0, 64), (3, 37), (16, 80), (50.5, 199.5), (100, None), (None, 20)]:
            rollup = series.rollup(*window)
            naive = self.naive_rollup(series, *window)
            assert rollup.count == naive.count, window
            assert rollup.get_quantiles(quantiles) == naive.get_quantiles(quantiles), window

    def test_cache_is_populated_and_invalidated(self):
        series = self.make_series()
        assert series.cached_window_count == 0
        series.rollup()
        cached = series.cached_window_count
        assert cached > 0
        # New data in a covered interval drops the covering windows…
        series.ingest_value(8.0, 1.0)
        assert series.cached_window_count < cached
        # …and the next rollup still matches the naive merge.
        rollup = series.rollup(0, 32)
        naive = self.naive_rollup(series, 0, 32)
        assert rollup.count == naive.count
        assert rollup.get_quantile_value(0.9) == naive.get_quantile_value(0.9)

    def test_repeated_window_queries_reuse_cached_merges(self):
        series = self.make_series(intervals=128, factors=(16,))
        series.rollup(0, 128)
        cached_before = series.cached_window_count
        series.rollup(0, 128)
        assert series.cached_window_count == cached_before  # nothing rebuilt

    def test_negative_timestamps_roll_up_correctly(self):
        series = SketchTimeSeries("m", interval_length=1.0, window_factors=(4,))
        for interval in range(-10, 6):
            series.ingest_value(float(interval), float(abs(interval)) + 1.0)
        rollup = series.rollup(-8.0, 4.0)
        naive = self.naive_rollup(series, -8.0, 4.0)
        assert rollup.count == naive.count == 12

    def test_invalid_window_factors_rejected(self):
        for factors in [(1,), (4, 6), (8, 4), (4, 4)]:
            with pytest.raises(IllegalArgumentError):
                SketchTimeSeries("m", window_factors=factors)

    def test_empty_window_queries_raise(self):
        series = self.make_series(intervals=10)
        with pytest.raises(EmptySketchError):
            series.rollup(500, 600)
        with pytest.raises(EmptySketchError):
            SketchTimeSeries("m").rollup()


class TestUDDSketchEndToEnd:
    """Satellite: registry-driven monitoring with a UDDSketch factory must be
    bit-exact with a naive per-series ``add`` loop and conserve counts across
    flush/frame round trips."""

    def test_grouped_ingestion_matches_per_series_add_loop(self):
        factory = lambda: UDDSketch(relative_accuracy=0.01, bin_limit=128)  # noqa: E731
        keys = [SeriesKey("lat", {"endpoint": f"/e{index}"}) for index in range(8)]
        rng = np.random.default_rng(42)
        group_indices = rng.integers(0, 8, 30_000)
        # A heavy-tailed workload wide enough to force uniform collapses.
        values = rng.pareto(1.0, 30_000) * 1e-3 + 1e-6

        agent = MetricAgent("host", sketch_factory=factory)
        agent.record_grouped(keys, group_indices, values)

        naive = {key: factory() for key in keys}
        for group, value in zip(group_indices.tolist(), values.tolist()):
            naive[keys[group]].add(value)

        quantiles = (0.0, 0.01, 0.5, 0.99, 1.0)
        for key in keys:
            sketch = agent.registry.get(key)
            reference = naive[key]
            assert sketch.collapse_count == reference.collapse_count
            assert sketch.relative_accuracy == reference.relative_accuracy
            assert sketch.store.key_counts() == reference.store.key_counts()
            assert sketch.count == reference.count
            assert sketch.get_quantiles(quantiles) == reference.get_quantiles(quantiles)

        # Counts survive the frame round trip into the aggregator…
        aggregator = Aggregator(sketch_factory=factory)
        frame = agent.flush_frame(0.0)
        assert aggregator.ingest_frame(frame) == 8
        assert aggregator.count("lat") == 30_000
        # …and the merged metric rollup equals the naive merged rollup.
        ordered = sorted(naive)
        merged = naive[ordered[0]].copy()
        for key in ordered[1:]:
            merged.merge(naive[key])
        assert aggregator.quantile("lat", 0.99) == merged.get_quantile_value(0.99)
        assert aggregator.rollup("lat").count == 30_000

    def test_simulation_with_udd_factory_and_cardinality(self):
        simulation = MonitoringSimulation(
            num_hosts=3,
            requests_per_interval=1000,
            num_intervals=3,
            seed=9,
            series_cardinality=8,
            sketch_factory=lambda: UDDSketch(relative_accuracy=0.01, bin_limit=256),
        )
        report = simulation.run()
        assert report.total_requests == 3000
        assert report.num_series == 8
        assert simulation.aggregator.count(simulation.metric) == 3000
        assert len(report.endpoint_p99) == 8


class TestHighCardinalitySimulation:
    def test_cardinality_one_matches_legacy_single_series(self):
        report = MonitoringSimulation(
            num_hosts=3, requests_per_interval=400, num_intervals=5, seed=1
        ).run()
        assert report.num_series == 1
        assert report.series_cardinality == 1
        assert report.endpoint_p99 == {}
        assert report.max_relative_error() <= 0.01 * (1 + 1e-9)

    def test_high_cardinality_run_keeps_the_guarantee(self):
        simulation = MonitoringSimulation(
            num_hosts=4,
            requests_per_interval=2000,
            num_intervals=4,
            seed=5,
            series_cardinality=32,
        )
        report = simulation.run()
        assert report.num_series == 32
        assert report.max_relative_error() <= 0.01 * (1 + 1e-9)
        assert len(report.endpoint_p99) == 32
        # Frames, not per-series payloads: one wire payload per host/interval.
        assert simulation.aggregator.payloads_received == 16
        assert simulation.aggregator.series_received >= 32

    def test_tag_filtered_p99_matches_direct_series_query(self):
        simulation = MonitoringSimulation(
            num_hosts=2,
            requests_per_interval=1000,
            num_intervals=2,
            seed=3,
            series_cardinality=4,
        )
        report = simulation.run()
        for key in simulation.series_keys:
            endpoint = dict(key.tags)["endpoint"]
            direct = simulation.aggregator.quantile(
                simulation.metric, 0.99, tag_filter=dict(key.tags)
            )
            assert report.endpoint_p99[endpoint] == direct


class TestAgentPush:
    """What ``MetricAgent.push_frames`` ships: one envelope, or nothing."""

    def test_empty_agent_builds_no_envelope(self):
        agent = MetricAgent("host-a")
        client = RecordingClient()
        sequence = client.next_sequence("host-a")
        assert agent.push_frames(client, interval_start=0.0) == []
        assert client.envelopes == []
        assert client.next_sequence("host-a") == sequence

    def test_push_sends_one_envelope_carrying_the_flush_frame(self):
        rng = np.random.default_rng(9)
        keys = [SeriesKey("lat", (("e", f"/{index}"),)) for index in range(12)]
        groups = rng.integers(0, len(keys), 20_000)
        values = rng.lognormal(0.0, 1.0, 20_000)
        agent, twin = MetricAgent("host-a"), MetricAgent("host-a")
        agent.record_grouped(keys, groups, values)
        twin.record_grouped(keys, groups, values)

        client = RecordingClient()
        assert agent.push_frames(client, interval_start=3.0) == [{"status": "ok"}]
        [raw] = client.envelopes
        envelope = decode_push_envelope(raw)
        assert envelope.identity == ("host-a", 1)
        assert envelope.interval_start == 3.0
        assert envelope.frame == twin.flush_frame(3.0).payload
        assert agent.records_since_flush == 0
        assert client.next_sequence("host-a") == 2
