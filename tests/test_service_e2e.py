"""End-to-end tests: real server, real sockets, concurrent agent processes.

The acceptance scenario from the ISSUE: at least two concurrent agents
(threads *and* separate OS processes) push tagged frames into one
:class:`~repro.service.AggregationServer`, and the aggregated quantile
surface — whole-metric, tag-filtered rollups, and windowed queries — is
*identical* to a single-process reference registry that merged the same
frames (full mergeability across process boundaries, paper Section 2.1).
"""

import itertools
import json
import math
import multiprocessing
import socket
import threading

import numpy as np
import pytest
from _service_testkit import reference_threshold

from repro.core.ddsketch import DDSketch
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.monitoring import MetricAgent
from repro.registry import SketchRegistry
from repro.service import ServiceClient, protocol, serve_in_thread
from repro.service.loadgen import (
    METRIC,
    build_fleet_frames,
    reference_registry,
    run_load_generator,
)

QUANTILES = (0.5, 0.9, 0.99)


def _fleet(num_agents=4, series_per_agent=3, num_intervals=3, values_per_interval=200):
    return build_fleet_frames(num_agents, series_per_agent, num_intervals, values_per_interval)


class TestThreadedAgents:
    def test_concurrent_threads_build_one_quantile_surface(self, tmp_path):
        frames, total_values = _fleet()
        hosts = sorted({host for host, _, _ in frames})
        with serve_in_thread(data_dir=tmp_path) as handle:
            address = handle.address

            def _agent_thread(agent_host):
                with ServiceClient(*address) as client:
                    for host, interval_start, payload in frames:
                        if host == agent_host:
                            client.push_frame(payload, host=host, interval_start=interval_start)

            threads = [
                threading.Thread(target=_agent_thread, args=(host,)) for host in hosts
            ]
            assert len(threads) >= 2
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            reference = reference_registry(frames)
            with ServiceClient(*address) as client:
                stats = client.stats()
                assert stats["total_count"] == float(total_values)
                assert stats["num_series"] == float(reference.num_series)
                # Whole-metric rollup (merge of every endpoint series).
                served = client.query_quantiles(METRIC, QUANTILES, tag_filter={})
                assert served["values"] == reference.quantiles(
                    METRIC, QUANTILES, tag_filter={}
                )
                # Tag-filtered rollup: one endpoint across every host.
                tag_filter = {"endpoint": "/e0001"}
                served = client.query_quantiles(METRIC, QUANTILES, tag_filter=tag_filter)
                assert served["values"] == reference.quantiles(
                    METRIC, QUANTILES, tag_filter=tag_filter
                )

    def test_metric_agent_push_frames_round_trip(self):
        with serve_in_thread() as handle:
            with ServiceClient(*handle.address) as client:
                agents = [MetricAgent(host=f"agent-{index}") for index in range(2)]
                reference = SketchRegistry()
                rng = np.random.default_rng(7)
                for interval in range(3):
                    for agent in agents:
                        values = rng.lognormal(0.0, 1.0, 300)
                        agent.record_batch("api.latency", values, tags={"region": "eu"})
                        mirror = SketchRegistry()
                        mirror.add_batch("api.latency", values, tags={"region": "eu"})
                        reference.merge(mirror)
                        acks = agent.push_frames(client, interval_start=float(interval))
                        assert acks and all(ack["status"] == "ok" for ack in acks)
                        assert agent.records_since_flush == 0
                served = client.query_quantiles(
                    "api.latency", QUANTILES, tags={"region": "eu"}
                )["values"]
            assert served == reference.quantiles("api.latency", QUANTILES, tags={"region": "eu"})

    def test_windowed_queries_match_interval_reference(self):
        frames, _ = _fleet(num_agents=2, num_intervals=4)
        with serve_in_thread(retention_intervals=16) as handle:
            with ServiceClient(*handle.address) as client:
                for host, interval_start, payload in frames:
                    client.push_frame(payload, host=host, interval_start=interval_start)
                served = client.query_quantiles(
                    METRIC, QUANTILES, tag_filter={}, window_start=1.0, window_end=3.0
                )["values"]
        window_reference = reference_registry(
            [frame for frame in frames if 1.0 <= frame[1] < 3.0]
        )
        assert served == window_reference.quantiles(METRIC, QUANTILES, tag_filter={})

    def test_threshold_queries_match_the_registry_reference(self):
        """Windowed and ``above=False`` threshold replies equal a per-series
        bounds/estimate loop over the window's frames merged into one
        registry; the series sit on different scales and some buckets miss
        some series, so thresholds both prune and scan."""
        rng = np.random.default_rng(11)
        frames = []
        for bucket in range(4):
            for host in ("h1", "h2"):
                registry = SketchRegistry()
                for index in range(8):
                    if (index + bucket) % 3:
                        registry.add_batch(
                            METRIC, rng.lognormal(0.0, 0.5, 40) * (index + 1),
                            tags={"endpoint": f"/e{index}", "tier": f"t{index % 2}"},
                        )
                frames.append((host, float(bucket), registry.flush_frame()))
        with serve_in_thread(retention_intervals=16) as handle:
            with ServiceClient(*handle.address) as client:
                for host, interval_start, payload in frames:
                    client.push_frame(payload, host=host, interval_start=interval_start)
                for window_start, window_end in ((None, None), (1.0, 3.0), (2.0, None)):
                    reference = reference_registry([
                        frame for frame in frames
                        if (window_start is None or frame[1] >= window_start)
                        and (window_end is None or frame[1] < window_end)
                    ])
                    for tag_filter, threshold, above in itertools.product(
                        (None, {"tier": "t1"}), (0.5, 4.0, 1e6), (True, False)
                    ):
                        reply = client.query_threshold(
                            METRIC, 0.9, threshold, above=above, tag_filter=tag_filter,
                            window_start=window_start, window_end=window_end,
                        )
                        matches, scanned, total_series, prune_rate = reference_threshold(
                            reference, METRIC, 0.9, threshold, above, tag_filter
                        )
                        assert (
                            reply["matches"], reply["scanned"], reply["total_series"],
                            reply["prune_rate"], reply["above"],
                        ) == (
                            [str(key) for key in matches], len(scanned), total_series,
                            prune_rate, above,
                        ), (window_start, window_end, tag_filter, threshold, above)

    def test_error_contract_crosses_the_wire(self):
        with serve_in_thread() as handle:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(EmptySketchError):
                    client.query_quantiles("no.such.metric", [0.5])
                with pytest.raises(IllegalArgumentError):
                    client.query_quantiles(METRIC, [])
                with pytest.raises(IllegalArgumentError, match="window_start must be finite"):
                    client.query_quantiles(METRIC, [0.5], window_start=math.inf)
                frames, _ = _fleet(num_agents=1, num_intervals=1)
                client.push_frame(frames[0][2], host=frames[0][0], interval_start=0.0)
            # Raw bodies the client would not build: each is refused as
            # IllegalArgumentError, never answered or failed as TypeError.
            with socket.create_connection(handle.address, timeout=10) as sock:
                for body, message in (
                    ({"metric": METRIC, "quantiles": [0.5], "tags": 5}, "mapping or an iterable"),
                    ({"metric": METRIC, "quantiles": [0.5], "tag_filter": 5},
                     "mapping or an iterable"),
                    ({"metric": METRIC, "quantiles": [0.9], "threshold": 1.0, "tag_filter": 5},
                     "mapping or an iterable"),
                    ({"metric": METRIC, "quantiles": [0.9], "threshold": 1.0,
                      "tags": {"endpoint": "/e0000"}}, "tag_filter, not tags"),
                    ({"metric": METRIC, "quantiles": [0.9], "threshold": 1.0, "below": "no"},
                     "below must be a boolean"),
                    ({"metric": [METRIC], "quantiles": [0.5]}, "metric must be a string"),
                    # Only JSON numbers count as numbers: float() would
                    # read true as 1.0 and "0.5" as 0.5.
                    ({"metric": METRIC, "quantiles": [0.9], "threshold": True},
                     "threshold must be a number"),
                    ({"metric": METRIC, "quantiles": [0.9], "threshold": "2"},
                     "threshold must be a number"),
                    ({"metric": METRIC, "quantiles": [0.9], "threshold": 10**400},
                     "threshold must be a number"),
                    ({"metric": METRIC, "quantiles": [True]}, "quantiles must be numbers"),
                    ({"metric": METRIC, "quantiles": ["0.5"]}, "quantiles must be numbers"),
                    ({"metric": METRIC, "quantiles": [0.5], "window_start": True,
                      "window_end": "3"}, "window_start/window_end must be numbers"),
                    ({"metric": METRIC, "quantiles": [0.5], "window_end": False},
                     "window_start/window_end must be numbers"),
                ):
                    reply_type, reply = protocol.request(
                        sock, protocol.MSG_QUERY, json.dumps(body).encode("utf-8")
                    )
                    assert reply_type == protocol.MSG_ERROR, body
                    error = protocol.decode_json_body(reply)
                    assert error["kind"] == "IllegalArgumentError", (body, error)
                    assert message in error["message"], (body, error)


    def test_client_refuses_bad_tags_before_any_request(self):
        # The client builds its query body from normalize_tags, so tags the
        # server would refuse raise the server's IllegalArgumentError on the
        # client, and nothing is sent.
        with serve_in_thread() as handle:
            with ServiceClient(*handle.address) as client:
                sent = []
                send = client._request
                client._request = lambda *args, **kwargs: sent.append(args) or send(*args, **kwargs)
                for query in (
                    lambda: client.query_quantiles(METRIC, [0.5], tags=5),
                    lambda: client.query_quantiles(METRIC, [0.5], tag_filter=5),
                    lambda: client.query_quantiles(METRIC, [0.5], tags={"a": 1}),
                    lambda: client.query_threshold(METRIC, 0.9, 1.0, tag_filter=5),
                    lambda: client.query_threshold(METRIC, 0.9, 1.0, tag_filter=[("a",)]),
                ):
                    with pytest.raises(IllegalArgumentError):
                        query()
                assert sent == []
                with pytest.raises(EmptySketchError):
                    client.query_quantiles(METRIC, [0.5], tags=[("endpoint", "/e0000")])
                assert len(sent) == 1


class TestRestart:
    def test_restarted_server_answers_identically(self, tmp_path):
        frames, total_values = _fleet(num_agents=3)
        with serve_in_thread(data_dir=tmp_path, snapshot_every=5) as handle:
            with ServiceClient(*handle.address) as client:
                for host, interval_start, payload in frames:
                    client.push_frame(payload, host=host, interval_start=interval_start)
                before = client.query_quantiles(METRIC, QUANTILES, tag_filter={})["values"]
                before_frame = handle.server.state.to_frame()

        with serve_in_thread(data_dir=tmp_path) as handle:
            assert handle.server.state.to_frame() == before_frame
            with ServiceClient(*handle.address) as client:
                after = client.query_quantiles(METRIC, QUANTILES, tag_filter={})["values"]
                assert after == before
                assert client.stats()["total_count"] == float(total_values)


def _child_push(address, agent_index, ready):
    """One agent process: build its deterministic frames and push them."""
    frames, _ = _fleet()
    host = f"host-{agent_index:04d}"
    with ServiceClient(*address) as client:
        for frame_host, interval_start, payload in frames:
            if frame_host == host:
                client.push_frame(payload, host=frame_host, interval_start=interval_start)
    ready.put(agent_index)


class TestMultiProcess:
    def test_two_processes_aggregate_into_one_surface(self):
        num_agents = 2
        with serve_in_thread() as handle:
            context = multiprocessing.get_context("spawn")
            ready = context.Queue()
            children = [
                context.Process(target=_child_push, args=(handle.address, index, ready))
                for index in range(num_agents)
            ]
            for child in children:
                child.start()
            finished = {ready.get(timeout=120) for _ in children}
            for child in children:
                child.join(timeout=30)
                assert child.exitcode == 0
            assert finished == set(range(num_agents))

            # The parent rebuilds the same deterministic frames to know what
            # the children pushed (build_fleet_frames is seed-stable).
            frames, _ = _fleet()
            pushed = [
                frame for frame in frames
                if frame[0] in {f"host-{index:04d}" for index in range(num_agents)}
            ]
            reference = reference_registry(pushed)
            with ServiceClient(*handle.address) as client:
                stats = client.stats()
                served = client.query_quantiles(METRIC, QUANTILES, tag_filter={})["values"]
        assert stats["total_count"] == reference.total_count()
        assert served == reference.quantiles(METRIC, QUANTILES, tag_filter={})


class TestLoadGenerator:
    def test_load_generator_is_self_verifying(self):
        metrics = run_load_generator(
            num_agents=6,
            series_per_agent=4,
            num_intervals=2,
            values_per_interval=300,
            push_threads=3,
        )
        assert metrics["reference_match"] is True
        assert metrics["frames"] == 12
        assert metrics["values"] == 3600
        assert metrics["values_per_sec"] > 0
