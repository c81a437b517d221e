"""Ingestion scaled out by process: many single-writer agents, one answer.

More cores come from more agent processes, not from threads inside one: run
one single-writer :class:`~repro.monitoring.MetricAgent` per process, each
with its own ``host``, all pushing to one aggregation server, which
deduplicates pushes by ``(host, sequence)``.  Full mergeability (paper
Section 2.1, Algorithm 4) makes the split lossless: however the values were
spread over agents, flush intervals and delivery orders, the merged state
answers exactly like one agent that saw them all.

* **Series partitioned across agents** (each process owns some series):
  every consumer of agent frames — :meth:`SketchRegistry.merge_frame`,
  :meth:`Aggregator.ingest_frame` and :meth:`ServiceState.apply` — rebuilds
  one agent's state byte for byte, for every store family.
* **One series split across agents** (each process serves part of the
  traffic): the merged buckets, extremes and quantiles equal one agent's,
  even when bounded stores collapse and UDDSketch agents degrade alpha a
  different number of times.
* **Delivery**: per-host sequences, retransmits and any arrival order
  converge on the same state; two agents sharing a ``host`` collide in the
  dedup table, which is why every agent needs its own.
* **The single-writer agent**: rejected input records nothing, recorded
  arrays are not aliased, and every recorded value leaves in exactly one
  frame.
"""

import itertools
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DDSketch,
    LogCollapsingHighestDenseDDSketch,
    LogUnboundedDenseDDSketch,
    SeriesKey,
    SketchRegistry,
    SparseDDSketch,
    UDDSketch,
)
from repro.exceptions import DeserializationError, IllegalArgumentError
from repro.monitoring import Aggregator, FramePayload, MetricAgent
from repro.service import ServiceClient, serve_in_thread
from repro.service.protocol import decode_push_envelope, encode_push_envelope
from repro.service.state import ServiceState

from _service_testkit import RecordingClient

FACTORIES = {
    "dense": lambda: LogUnboundedDenseDDSketch(relative_accuracy=0.01),
    "collapsing": lambda: DDSketch(relative_accuracy=0.01, bin_limit=128),
    "uniform": lambda: UDDSketch(relative_accuracy=0.01, bin_limit=128),
}

# Families for one series split across agents.  The workload's keys span
# about 800 buckets, so every bounded family here collapses: the merge must
# reproduce one agent's collapses, not just add counts.
SPLIT_FACTORIES = dict(
    FACTORIES,
    sparse=lambda: SparseDDSketch(relative_accuracy=0.01),
    highest=lambda: LogCollapsingHighestDenseDDSketch(relative_accuracy=0.01, bin_limit=128),
)

QUANTILES = (0.0, 0.01, 0.5, 0.9, 0.99, 1.0)


def grouped_workload(seed=0, n=20_000, groups=23):
    """Columnar samples over ``groups`` series: both signs, zeros, wide span."""
    rng = np.random.default_rng(seed)
    group_indices = rng.integers(0, groups, n)
    values = np.concatenate(
        [
            rng.lognormal(0.0, 2.0, n // 2),
            -rng.lognormal(0.0, 1.0, n - n // 2 - 50),
            np.zeros(50),
        ]
    )
    rng.shuffle(values)
    keys = [SeriesKey("m", (("s", f"{index:03d}"),)) for index in range(groups)]
    return keys, group_indices, values


def fleet(num_agents, owner, keys, group_indices, values, factory=None):
    """One agent per host; sample ``i`` is recorded by agent ``owner[i]``."""
    agents = [
        MetricAgent(f"host-{index}", sketch_factory=factory) for index in range(num_agents)
    ]
    for index, agent in enumerate(agents):
        mine = owner == index
        agent.record_grouped(keys, group_indices[mine], values[mine])
    return agents


def one_agent(keys, group_indices, values, factory=None):
    """The reference: a single agent that records every sample."""
    agent = MetricAgent("host-all", sketch_factory=factory)
    agent.record_grouped(keys, group_indices, values)
    return agent


def pushed_envelopes(agents, interval_start=0.0):
    """Each agent pushes through its own client, as separate processes do."""
    envelopes = []
    for agent in agents:
        client = RecordingClient()
        agent.push_frames(client, interval_start=interval_start)
        envelopes.extend(client.envelopes)
    return envelopes


def assert_same_sketch(merged, reference):
    """Bucket-level equality (``sum`` may differ by summation order)."""
    assert merged.count == reference.count
    assert merged.zero_count == reference.zero_count
    assert (merged.min, merged.max) == (reference.min, reference.max)
    assert merged.relative_accuracy == reference.relative_accuracy
    assert merged.store.key_counts() == reference.store.key_counts()
    assert merged.negative_store.key_counts() == reference.negative_store.key_counts()


class TestSeriesPartitionedAcrossAgents:
    """Each agent process owns a subset of the series."""

    @pytest.mark.parametrize("family", sorted(FACTORIES))
    @pytest.mark.parametrize("num_agents", [1, 3, 8])
    def test_frames_merge_bit_exact_with_one_agent(self, family, num_agents):
        factory = FACTORIES[family]
        keys, group_indices, values = grouped_workload()
        reference = one_agent(keys, group_indices, values, factory).registry
        expected_frame = reference.to_frame()

        agents = fleet(num_agents, group_indices % num_agents, keys, group_indices, values, factory)
        assert sum(agent.registry.num_series for agent in agents) == len(keys)
        frames = [agent.flush_frame(0.0) for agent in agents]

        registry = SketchRegistry(sketch_factory=factory)
        aggregator = Aggregator()
        state = ServiceState()
        for frame in frames:
            registry.merge_frame(frame.payload)
            aggregator.ingest_frame(frame)
            state.apply(
                decode_push_envelope(
                    encode_push_envelope(frame.payload, host=frame.host, sequence=1)
                )
            )
        assert registry.to_frame() == expected_frame
        assert state.to_frame() == expected_frame
        assert state.frames_applied == num_agents
        assert state.total_count() == float(values.size)
        assert aggregator.count("m") == float(values.size)
        assert aggregator.quantiles("m", QUANTILES) == reference.quantiles("m", QUANTILES)
        for key in (keys[0], keys[len(keys) // 2], keys[-1]):
            tags = dict(key.tags)
            assert aggregator.quantiles("m", QUANTILES, tags=tags) == (
                reference.quantiles("m", QUANTILES, tags=tags)
            )

    def test_mixed_record_shapes_match_one_agent(self):
        rng = np.random.default_rng(3)
        agents = [MetricAgent(f"host-{index}") for index in range(3)]
        reference = MetricAgent("host-all")
        for index in range(200):
            value = float(rng.lognormal())
            tags = {"h": str(index % 3)}
            for agent in (agents[index % 3], reference):
                agent.record("m", value, weight=2.0, tags=tags)
        batch = rng.lognormal(0.0, 1.0, 1_000)
        weighted = rng.lognormal(0.0, 1.0, 500)
        weights = rng.uniform(0.5, 2.0, 500)
        for agent in (agents[1], reference):
            agent.record_batch("m", batch, tags={"h": "1"})
        for agent in (agents[2], reference):
            agent.record_batch("m", weighted, weights, tags={"h": "2"})

        merged = SketchRegistry()
        for agent in agents:
            merged.merge_frame(agent.flush_frame(0.0).payload)
        assert merged.to_frame() == reference.registry.to_frame()
        assert merged.total_count() == 400.0 + 1_000 + float(np.sum(weights))
        for tag in ("0", "1", "2"):
            assert merged.quantiles("m", QUANTILES, tag_filter={"h": tag}) == (
                reference.registry.quantiles("m", QUANTILES, tag_filter={"h": tag})
            )

    def test_uniform_series_collapse_independently_and_still_merge(self):
        """Per-series UDD alphas differ; the rollup still fuses them exactly."""
        factory = lambda: UDDSketch(relative_accuracy=0.01, bin_limit=32)  # noqa: E731
        rng = np.random.default_rng(11)
        keys = [SeriesKey("m", (("s", f"{index}"),)) for index in range(6)]
        # Different log-spans per series force different collapse counts.
        spans = [1.001, 2.0, 10.0, 1e3, 1e8, 30.0]
        agents = [MetricAgent(f"host-{index}", sketch_factory=factory) for index in range(3)]
        reference = MetricAgent("host-all", sketch_factory=factory)
        for index, (key, span) in enumerate(zip(keys, spans)):
            values = rng.uniform(1.0, span, 4_000)
            agents[index % 3].record_batch(key, values)
            reference.record_batch(key, values)

        aggregator = Aggregator()
        merged = SketchRegistry(sketch_factory=factory)
        for agent in agents:
            frame = agent.flush_frame(0.0)
            merged.merge_frame(frame.payload)
            aggregator.ingest_frame(frame)
        alphas = {merged.get(key).relative_accuracy for key in keys}
        assert len(alphas) > 1, "expected series to collapse to different alphas"
        assert merged.to_frame() == reference.registry.to_frame()
        expected = reference.registry.quantiles("m", QUANTILES)
        assert merged.quantiles("m", QUANTILES) == expected
        assert aggregator.quantiles("m", QUANTILES) == expected


class TestSameSeriesSplitAcrossAgents:
    """Each agent process serves part of the traffic of every series."""

    @pytest.mark.parametrize("family", sorted(SPLIT_FACTORIES))
    @pytest.mark.parametrize("num_agents", [2, 3, 8])
    def test_split_series_merge_to_one_agents_buckets(self, family, num_agents):
        factory = SPLIT_FACTORIES[family]
        keys, group_indices, values = grouped_workload(seed=1)
        owner = np.random.default_rng(2).integers(0, num_agents, values.size)
        reference = one_agent(keys, group_indices, values, factory).registry

        envelopes = pushed_envelopes(fleet(num_agents, owner, keys, group_indices, values, factory))
        assert len(envelopes) == num_agents
        state = ServiceState()
        for raw in envelopes:
            state.apply_envelope_bytes(raw)
        assert state.frames_applied == num_agents
        assert state.total_count() == float(values.size)
        for key, sketch in reference:
            assert_same_sketch(state.registry.get(key), sketch)
        assert state.quantiles("m", QUANTILES) == reference.quantiles("m", QUANTILES)
        for key in (keys[0], keys[-1]):
            tags = dict(key.tags)
            assert state.quantiles("m", QUANTILES, tags=tags) == (
                reference.quantiles("m", QUANTILES, tags=tags)
            )

    def test_uniform_agents_that_collapsed_differently_merge_to_one_agents_alpha(self):
        factory = lambda: UDDSketch(relative_accuracy=0.01, bin_limit=32)  # noqa: E731
        rng = np.random.default_rng(12)
        narrow = rng.uniform(10.0, 11.0, 3_000)
        wide = rng.lognormal(0.0, 3.0, 3_000)
        agents = [MetricAgent(host, sketch_factory=factory) for host in ("narrow", "wide")]
        reference = MetricAgent("host-all", sketch_factory=factory)
        for agent, values in zip(agents, (narrow, wide)):
            agent.record_batch("lat", values)
            reference.record_batch("lat", values)
        collapses = [agent.registry.get("lat").collapse_count for agent in agents]
        assert collapses[0] < collapses[1]

        merged = SketchRegistry(sketch_factory=factory)
        for agent in agents:
            merged.merge_frame(agent.flush_frame(0.0).payload)
        expected = reference.registry.get("lat")
        assert merged.get("lat").collapse_count == expected.collapse_count
        assert_same_sketch(merged.get("lat"), expected)
        assert merged.quantiles("lat", QUANTILES) == reference.registry.quantiles("lat", QUANTILES)

    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_split_across_agents_and_intervals_in_the_aggregator(self, family):
        factory = FACTORIES[family]
        keys, group_indices, values = grouped_workload(seed=4, n=12_000, groups=5)
        interval = np.random.default_rng(5).integers(0, 4, values.size)
        owner = np.random.default_rng(6).integers(0, 3, values.size)
        agents = [MetricAgent(f"host-{index}", sketch_factory=factory) for index in range(3)]
        reference = MetricAgent("host-all", sketch_factory=factory)
        split, single = Aggregator(), Aggregator()
        for start in range(4):
            now = interval == start
            for index, agent in enumerate(agents):
                mine = now & (owner == index)
                agent.record_grouped(keys, group_indices[mine], values[mine])
                split.ingest_frame(agent.flush_frame(float(start)))
            reference.record_grouped(keys, group_indices[now], values[now])
            single.ingest_frame(reference.flush_frame(float(start)))

        assert split.payloads_received == 12
        assert split.count("m") == single.count("m") == float(values.size)
        for start, end in ((None, None), (0.0, 1.0), (1.0, 3.0), (2.0, 4.0)):
            assert split.quantiles("m", QUANTILES, start=start, end=end) == (
                single.quantiles("m", QUANTILES, start=start, end=end)
            )
            for key in keys:
                tags = dict(key.tags)
                assert split.quantiles("m", QUANTILES, start=start, end=end, tags=tags) == (
                    single.quantiles("m", QUANTILES, start=start, end=end, tags=tags)
                )

    def test_query_engine_over_merged_agents_matches_one_agent(self):
        keys, group_indices, values = grouped_workload(seed=7, n=8_000, groups=16)
        # Scale each series differently so thresholds separate them.
        values = values * (1.0 + group_indices)
        owner = np.random.default_rng(8).integers(0, 4, values.size)
        split, single = Aggregator(), Aggregator()
        for agent in fleet(4, owner, keys, group_indices, values):
            split.ingest_frame(agent.flush_frame(0.0))
        single.ingest_frame(one_agent(keys, group_indices, values).flush_frame(0.0))

        split_engine, single_engine = split.query_engine(), single.query_engine()
        assert split_engine.rollup("m", tag_filter={}).get_quantiles(QUANTILES) == (
            single_engine.rollup("m", tag_filter={}).get_quantiles(QUANTILES)
        )
        for threshold in (1.0, 20.0, 100.0, 1e9):
            result = split_engine.threshold_query("m", 0.9, threshold)
            expected = {
                str(key)
                for key in keys
                if single.quantile("m", 0.9, tags=dict(key.tags)) > threshold
            }
            assert {str(key) for key in result.matches} == expected
            assert {str(key) for key in single_engine.threshold_query("m", 0.9, threshold).matches} == expected


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    num_agents=st.integers(2, 5),
    num_intervals=st.integers(1, 4),
    family=st.sampled_from(sorted(SPLIT_FACTORIES)),
    retransmits=st.integers(0, 6),
)
def test_any_split_flush_schedule_and_delivery_order_converges(
    seed, num_agents, num_intervals, family, retransmits
):
    """Whichever agent records each sample, whenever the agents flush, and
    in whatever order (and how often) their envelopes arrive, the served
    state — all-time and per window — equals one agent's."""
    factory = SPLIT_FACTORIES[family]
    rng = np.random.default_rng(seed)
    keys, group_indices, values = grouped_workload(seed=seed, n=3_000, groups=7)
    owner = rng.integers(0, num_agents, values.size)
    flushed_in = rng.integers(0, num_intervals, values.size)
    agents = [MetricAgent(f"host-{index}", sketch_factory=factory) for index in range(num_agents)]
    clients = [RecordingClient() for _ in agents]
    for interval in range(num_intervals):
        for index, (agent, client) in enumerate(zip(agents, clients)):
            mine = (owner == index) & (flushed_in == interval)
            agent.record_grouped(keys, group_indices[mine], values[mine])
            agent.push_frames(client, interval_start=float(interval))
    envelopes = [raw for client in clients for raw in client.envelopes]
    delivered = envelopes + [envelopes[i] for i in rng.integers(0, len(envelopes), retransmits)]
    delivered = [delivered[i] for i in rng.permutation(len(delivered))]

    state = ServiceState()
    for raw in delivered:
        state.apply_envelope_bytes(raw)
    assert state.frames_applied == len(envelopes)
    assert state.duplicates_rejected == retransmits
    assert state.total_count() == float(values.size)

    reference = SketchRegistry(sketch_factory=factory)
    reference.ingest_grouped(keys, group_indices, values)
    for key, sketch in reference:
        assert_same_sketch(state.registry.get(key), sketch)
    assert state.quantiles("m", QUANTILES) == reference.quantiles("m", QUANTILES)
    for interval in range(num_intervals):
        now = flushed_in == interval
        if not now.any():
            continue
        window = SketchRegistry(sketch_factory=factory)
        window.ingest_grouped(keys, group_indices[now], values[now])
        assert state.quantiles(
            "m", QUANTILES, window_start=float(interval), window_end=interval + 1.0
        ) == window.quantiles("m", QUANTILES)


class TestDeliveryAcrossHosts:
    """The server's ``(host, sequence)`` dedup under many agent processes."""

    def test_every_host_numbers_its_own_pushes(self):
        agents = [MetricAgent(f"host-{index}") for index in range(3)]
        clients = [RecordingClient() for _ in agents]
        state = ServiceState()
        for round_number in (1, 2):
            for agent, client in zip(agents, clients):
                agent.record_batch("lat", np.full(10, float(round_number)))
                agent.push_frames(client, interval_start=float(round_number))
        identities = [
            decode_push_envelope(raw).identity for client in clients for raw in client.envelopes
        ]
        assert identities == [
            (f"host-{index}", sequence) for index in range(3) for sequence in (1, 2)
        ]
        for client in clients:
            for raw in client.envelopes:
                state.apply_envelope_bytes(raw)
        assert state.frames_applied == 6
        assert state.duplicates_rejected == 0
        assert state.total_count() == 60.0

    def test_agents_sharing_a_host_collide_in_dedup(self):
        """Why every agent process needs its own ``host``: two processes
        named alike both send ``(host, 1)`` and the second push is dropped."""
        first, second = MetricAgent("web-1"), MetricAgent("web-1")
        first.record_batch("lat", np.ones(5))
        second.record_batch("lat", np.ones(7))
        envelopes = pushed_envelopes([first, second])
        assert [decode_push_envelope(raw).identity for raw in envelopes] == [("web-1", 1)] * 2

        state = ServiceState()
        for raw in envelopes:
            state.apply_envelope_bytes(raw)
        assert state.frames_applied == 1
        assert state.duplicates_rejected == 1
        assert state.total_count() == 5.0

    def test_retransmitted_pushes_apply_once(self):
        keys, group_indices, values = grouped_workload(seed=9, n=4_000, groups=6)
        owner = np.random.default_rng(9).integers(0, 3, values.size)
        envelopes = pushed_envelopes(fleet(3, owner, keys, group_indices, values))
        once = ServiceState()
        for raw in envelopes:
            once.apply_envelope_bytes(raw)
        thrice = ServiceState()
        for raw in envelopes * 3:
            thrice.apply_envelope_bytes(raw)
        assert thrice.frames_applied == 3
        assert thrice.duplicates_rejected == 6
        assert thrice.to_frame() == once.to_frame()
        assert thrice.total_count() == float(values.size)

    def test_arrival_order_across_hosts_is_irrelevant(self):
        keys, group_indices, values = grouped_workload(seed=10, n=6_000, groups=9)
        expected = one_agent(keys, group_indices, values).registry.to_frame()
        envelopes = pushed_envelopes(fleet(3, group_indices % 3, keys, group_indices, values))
        for order in itertools.permutations(envelopes):
            state = ServiceState()
            for raw in order:
                state.apply_envelope_bytes(raw)
            assert state.to_frame() == expected

    def test_windows_and_merged_state_agree(self):
        """Window buckets adopt decoded sketches while the merged registry
        keeps copies: later pushes must not leak between the two."""
        rng = np.random.default_rng(13)
        agents = [MetricAgent(f"host-{index}") for index in range(2)]
        clients = [RecordingClient() for _ in agents]
        per_interval = {}
        for interval in range(3):
            for agent, client in zip(agents, clients):
                values = rng.lognormal(float(interval), 1.0, 400)
                agent.record_batch("lat", values)
                agent.push_frames(client, interval_start=float(interval))
                per_interval.setdefault(interval, SketchRegistry()).add_batch("lat", values)
        state = ServiceState(retention_intervals=8)
        for raw in clients[0].envelopes + clients[1].envelopes:
            state.apply_envelope_bytes(raw)

        everything = SketchRegistry()
        for registry in per_interval.values():
            everything.merge(registry)
        assert state.quantiles("lat", QUANTILES) == everything.quantiles("lat", QUANTILES)
        for interval, registry in per_interval.items():
            assert state.quantiles(
                "lat", QUANTILES, window_start=float(interval), window_end=interval + 1.0
            ) == registry.quantiles("lat", QUANTILES)
        assert state.total_count() == 2_400.0

    def test_corrupt_frame_changes_nothing_and_leaves_its_identity_free(self):
        good = MetricAgent("host-b")
        good.record_batch("lat", np.arange(1.0, 11.0))
        [good_envelope] = pushed_envelopes([good])
        first = MetricAgent("host-a")
        first.record_batch("lat", np.ones(4))
        state = ServiceState()
        for raw in pushed_envelopes([first]):
            state.apply_envelope_bytes(raw)
        before = state.to_frame()

        corrupt = encode_push_envelope(b"not a frame", host="host-b", sequence=1)
        with pytest.raises(DeserializationError):
            state.apply_envelope_bytes(corrupt)
        assert state.to_frame() == before
        assert state.frames_applied == 1
        assert not state.is_duplicate("host-b", 1)
        # The sender's retransmit of the real frame still lands.
        state.apply_envelope_bytes(good_envelope)
        assert state.total_count() == 14.0


class TestSingleWriterAgent:
    """The agent-side contract a split across processes relies on."""

    def test_records_are_counted_until_flush(self):
        agent = MetricAgent("h")
        agent.record("m", 1.5)
        agent.record_batch("m", np.array([2.5, 3.5]))
        assert agent.record_grouped(
            [SeriesKey("m", {"k": "a"})], np.array([0, 0]), np.array([4.0, 5.0])
        ) == 2
        assert agent.records_since_flush == 5
        assert agent.registry.total_count("m") == 5.0
        frame = agent.flush_frame(0.0)
        assert frame.num_series == 2
        assert agent.records_since_flush == 0
        assert agent.pending_series == []
        assert sum(sketch.count for _, sketch in frame.decode()) == 5.0

    def test_rejected_input_records_nothing(self):
        agent = MetricAgent("h")
        with pytest.raises(IllegalArgumentError):
            agent.record("m", float("nan"))
        with pytest.raises(IllegalArgumentError):
            agent.record("m", 1.0, weight=0.0)
        with pytest.raises(IllegalArgumentError):
            agent.record_batch("m", np.array([1.0, float("inf")]))
        with pytest.raises(IllegalArgumentError):
            agent.record_batch("m", np.array([1.0]), weights=np.array([-1.0]))
        keys = [SeriesKey("m")]
        with pytest.raises(IllegalArgumentError):
            agent.record_grouped(keys, np.array([0, 1]), np.array([1.0, 2.0]))
        with pytest.raises(IllegalArgumentError):
            agent.record_grouped(keys, np.array([0]), np.array([float("nan")]))
        assert agent.records_since_flush == 0
        assert agent.pending_series == []
        client = RecordingClient()
        assert agent.push_frames(client, interval_start=0.0) == []
        assert client.envelopes == []

    def test_rejected_input_leaves_existing_series_intact(self):
        agent = MetricAgent("h")
        agent.record("m", 2.0)
        with pytest.raises(IllegalArgumentError):
            agent.record("m", float("nan"))
        with pytest.raises(IllegalArgumentError):
            agent.record_batch("m", np.array([1.0, float("inf")]))
        assert agent.records_since_flush == 1
        [(key, sketch)] = agent.flush_frame(0.0).decode()
        assert key == SeriesKey("m")
        assert sketch.count == 1.0

    def test_empty_batches_are_no_ops(self):
        agent = MetricAgent("h")
        agent.record_batch("m", np.array([]))
        assert agent.record_grouped([SeriesKey("m")], np.array([]), np.array([])) == 0
        agent.registry.add_batch("n", np.array([]))
        assert agent.records_since_flush == 0
        assert agent.pending_series == []
        assert agent.flush_frame(0.0) is None

    def test_recorded_arrays_do_not_alias_caller_buffers(self):
        """An agent reusing its instrumentation buffer between records must
        not rewrite what it already recorded."""
        agent = MetricAgent("h")
        scratch = np.array([1.0, 2.0, 3.0])
        agent.record_batch("m", scratch, tags={"p": "batch"})
        scratch[:] = 1e9
        weights = np.array([2.0])
        grouped_scratch = np.array([5.0])
        agent.record_grouped(
            [SeriesKey("m", {"p": "grouped"})], np.array([0]), grouped_scratch, weights
        )
        grouped_scratch[:] = 1e9
        weights[:] = 1e9
        restored = SketchRegistry.from_frame(agent.flush_frame(0.0).payload)
        assert restored.quantile("m", 1.0, tags={"p": "batch"}) == pytest.approx(3.0, rel=0.011)
        assert restored.quantile("m", 1.0, tags={"p": "grouped"}) == pytest.approx(5.0, rel=0.011)
        assert restored.total_count("m", tag_filter={"p": "grouped"}) == 2.0

    def test_every_record_leaves_in_exactly_one_frame(self):
        rng = np.random.default_rng(14)
        agent = MetricAgent("h")
        reference = SketchRegistry()
        keys = [SeriesKey("m", {"k": str(index)}) for index in range(31)]
        frames = []
        recorded = 0
        for step in range(30):
            key = keys[step % len(keys)]
            value = float(rng.lognormal())
            agent.record(key, value)
            reference.add(key, value)
            batch = rng.lognormal(0.0, 1.0, step)
            agent.record_batch(key, batch)
            if batch.size:
                reference.add_batch(key, batch)
            groups = rng.integers(0, len(keys), 40)
            grouped = rng.lognormal(0.0, 1.0, 40)
            agent.record_grouped(keys, groups, grouped)
            reference.ingest_grouped(keys, groups, grouped)
            recorded += 1 + step + 40
            if step % 4 == 3:
                frames.append(agent.flush_frame(float(step)))
        frames.append(agent.flush_frame(30.0))
        assert agent.flush_frame(31.0) is None

        delivered = SketchRegistry()
        for frame in frames:
            delivered.merge_frame(frame.payload)
        assert sum(sketch.count for frame in frames for _, sketch in frame.decode()) == recorded
        assert delivered.total_count() == float(recorded)
        for key, sketch in reference:
            assert_same_sketch(delivered.get(key), sketch)

    def test_flush_frame_round_trip(self):
        keys, group_indices, values = grouped_workload(n=2_000)
        agent = one_agent(keys, group_indices, values)
        expected = agent.registry.quantiles("m", QUANTILES)
        expected_frame = agent.registry.to_frame()
        frame = agent.flush_frame(0.0)
        assert agent.registry.num_series == 0
        assert frame.payload == expected_frame
        assert frame.num_series == len(set(group_indices.tolist()))
        restored = SketchRegistry.from_frame(frame.payload)
        assert restored.quantiles("m", QUANTILES) == expected

    def test_garbage_frames_are_rejected_without_mutation(self):
        registry = SketchRegistry()
        registry.add("m", 1.0)
        with pytest.raises(DeserializationError):
            registry.merge_frame(b"not a frame")
        assert registry.total_count("m") == 1.0

        aggregator = Aggregator()
        agent = MetricAgent("h")
        agent.record("m", 1.0)
        aggregator.ingest_frame(agent.flush_frame(0.0))
        with pytest.raises(DeserializationError):
            aggregator.ingest_frame(FramePayload("h", 1.0, 1.0, b"not a frame", 1))
        assert aggregator.payloads_received == 1
        assert aggregator.num_series == 1
        assert aggregator.count("m") == 1.0


SERVED_METRIC = "web.latency"
SERVED_TAGS = {"endpoint": "/checkout"}


def _process_share(seed, index, intervals=3):
    """The latencies agent process ``index`` records, one array per interval."""
    rng = np.random.default_rng([seed, index])
    return [rng.lognormal(0.0, 1.0, 500) for _ in range(intervals)]


def _agent_process(address, index, seed, ready):
    """One agent process: record its share of the traffic, push each interval."""
    agent = MetricAgent(f"proc-{index}")
    with ServiceClient(*address) as client:
        for interval, values in enumerate(_process_share(seed, index)):
            agent.record_batch(SERVED_METRIC, values, tags=SERVED_TAGS)
            agent.push_frames(client, interval_start=float(interval))
    ready.put(index)


class TestAgentProcesses:
    def test_agent_processes_push_to_one_server(self):
        num_agents, seed = 2, 17
        with serve_in_thread() as handle:
            context = multiprocessing.get_context("spawn")
            ready = context.Queue()
            children = [
                context.Process(target=_agent_process, args=(handle.address, index, seed, ready))
                for index in range(num_agents)
            ]
            for child in children:
                child.start()
            finished = {ready.get(timeout=120) for _ in children}
            for child in children:
                child.join(timeout=30)
                assert child.exitcode == 0
            assert finished == set(range(num_agents))
            with ServiceClient(*handle.address) as client:
                stats = client.stats()
                served = client.query_quantiles(
                    SERVED_METRIC, QUANTILES, tags=SERVED_TAGS
                )["values"]

        reference = MetricAgent("reference")
        for index in range(num_agents):
            for values in _process_share(seed, index):
                reference.record_batch(SERVED_METRIC, values, tags=SERVED_TAGS)
        assert stats["total_count"] == float(num_agents * 3 * 500)
        assert served == reference.registry.quantiles(SERVED_METRIC, QUANTILES, tags=SERVED_TAGS)
