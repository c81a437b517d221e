"""Property-based crash/recovery testing of the aggregation service.

Hypothesis drives random sequences of ``ingest`` / ``rotate`` / ``snapshot``
/ ``crash+restart`` operations against a durable
:class:`~repro.service.AggregationServer` and checks, after every restart
and at the end, that the recovered state is **bit-identical** (via
``to_frame()``) to an uncrashed in-memory reference that applied the same
envelopes in the same order — the paper's full-mergeability claim
(Section 2.1) extended across arbitrary crash points, segment boundaries,
and snapshot/compaction cycles.  A mixed-alpha UDDSketch variant pins the
same property for heterogeneous sketch families sharing one log.
"""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _service_testkit import make_envelope, reference_state
from repro.core.uddsketch import UDDSketch
from repro.registry import SketchRegistry
from repro.exceptions import DeserializationError, EmptySketchError, IllegalArgumentError
from repro.service import AggregationServer, SegmentLog, ServiceState
from repro.service.protocol import decode_push_envelope, encode_push_envelope

_HOSTS = ("alpha", "beta", "gamma")

_values = st.lists(
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)

_ingest = st.tuples(
    st.just("ingest"),
    st.sampled_from(_HOSTS),
    _values,
    st.integers(min_value=0, max_value=7),  # interval bucket
    st.booleans(),  # tag the series?
)
_operation = st.one_of(
    _ingest,
    st.just(("rotate",)),
    st.just(("snapshot",)),
    st.just(("crash",)),
)


def _build_envelope(host, values, interval, tagged, sequence, factory=None):
    registry = SketchRegistry(sketch_factory=factory)
    tags = {"endpoint": "/hot"} if tagged else None
    registry.add_batch("latency", np.asarray(values, dtype=np.float64), tags=tags)
    return encode_push_envelope(
        registry.flush_frame(), host=host, sequence=sequence, interval_start=float(interval)
    )


def _run_scenario(operations, tmp_dir, frame_factory=None):
    """Drive the server through the operations; compare against the reference."""
    server = AggregationServer(
        data_dir=tmp_dir,
        max_segment_bytes=256,  # tiny segments: rotation happens constantly
        retention_intervals=4,
    )
    server.recover()
    applied = []  # envelopes the reference must see, in acceptance order
    sequences = {host: 0 for host in _HOSTS}
    for operation in operations:
        if operation[0] == "ingest":
            _, host, values, interval, tagged = operation
            sequences[host] += 1
            envelope = _build_envelope(
                host, values, interval, tagged, sequences[host], factory=frame_factory
            )
            ack = server._handle_push(envelope)
            assert ack["duplicate"] is False
            applied.append(envelope)
        elif operation[0] == "rotate":
            server.log.rotate()
        elif operation[0] == "snapshot":
            server._write_snapshot()
        else:  # crash: abandon the object, restart from disk
            server = AggregationServer(
                data_dir=tmp_dir,
                max_segment_bytes=256,
                retention_intervals=4,
            )
            server.recover()
            _assert_matches_reference(server, applied)
    _assert_matches_reference(server, applied)


def _assert_matches_reference(server, applied):
    reference = reference_state(applied, retention_intervals=4)
    assert server.state.to_frame() == reference.to_frame()
    assert server.state.frames_applied == reference.frames_applied
    assert server.state.window_buckets() == reference.window_buckets()
    for bucket in reference.window_buckets():
        assert (
            server.state._windows[bucket].to_frame()
            == reference._windows[bucket].to_frame()
        )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations=st.lists(_operation, min_size=1, max_size=14))
def test_crash_replay_matches_uncrashed_reference(operations):
    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp_dir:
        _run_scenario(operations, tmp_dir)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    operations=st.lists(_operation, min_size=1, max_size=10),
    alpha=st.sampled_from([0.005, 0.02, 0.05]),
)
def test_mixed_alpha_uddsketch_recovery(operations, alpha):
    # Frames carry UDDSketch series at a Hypothesis-chosen alpha, whose small
    # bin limit collapses them to different effective alphas: the log
    # replays the mixed-alpha fusion into the same bit-exact state.
    with tempfile.TemporaryDirectory(prefix="repro-recovery-udd-") as tmp_dir:
        _run_scenario(
            operations,
            tmp_dir,
            frame_factory=lambda: UDDSketch(relative_accuracy=alpha, bin_limit=64),
        )


@settings(max_examples=25, deadline=None)
@given(
    operations=st.lists(_ingest, min_size=1, max_size=8),
)
def test_snapshot_round_trip_is_bit_exact(operations):
    state = ServiceState(retention_intervals=4)
    sequences = {host: 0 for host in _HOSTS}
    for _, host, values, interval, tagged in operations:
        sequences[host] += 1
        state.apply_envelope_bytes(
            _build_envelope(host, values, interval, tagged, sequences[host])
        )
    restored = ServiceState.from_snapshot(state.to_snapshot(), retention_intervals=4)
    assert restored.to_frame() == state.to_frame()
    assert restored.stats() == state.stats()
    assert restored.window_buckets() == state.window_buckets()
    # The dedup table survives: every applied identity is still a duplicate.
    for host, last in sequences.items():
        for sequence in range(1, last + 1):
            assert restored.is_duplicate(host, sequence)


class TestDedupTableBounds:
    """The dedup table is O(hosts), not O(frames ever applied)."""

    def test_watermark_absorbs_contiguous_sequences(self):
        state = ServiceState(retention_intervals=0)
        for sequence in range(1, 201):
            state.apply_envelope_bytes(_build_envelope("h", [1.0], 0, False, sequence))
        assert state._seen_watermark == {"h": 200}
        assert state._seen_ahead == {}  # no out-of-order residue retained
        for sequence in range(1, 201):
            assert state.is_duplicate("h", sequence)
        assert not state.is_duplicate("h", 201)

    def test_out_of_order_arrivals_drain_into_the_watermark(self):
        state = ServiceState(retention_intervals=0)
        for sequence in (3, 1, 4, 2):
            state.apply_envelope_bytes(_build_envelope("h", [1.0], 0, False, sequence))
        assert state._seen_watermark == {"h": 4}
        assert state._seen_ahead == {}

    def test_gap_overflow_jumps_the_watermark(self):
        state = ServiceState(retention_intervals=0, dedup_window=4)
        # Sequence 1 was burned by the client (never delivered); later
        # pushes arrive in order above the permanent gap.
        for sequence in range(2, 12):
            state.apply_envelope_bytes(_build_envelope("h", [1.0], 0, False, sequence))
        assert state.frames_applied == 10
        assert len(state._seen_ahead.get("h", ())) <= 4
        # Every applied identity still dedups, and the jumped-over gap is
        # treated as a duplicate — the documented reordering bound.
        for sequence in range(1, 12):
            assert state.is_duplicate("h", sequence)

    def test_snapshot_size_does_not_grow_with_applied_frames(self):
        def _snapshot_after(frames):
            state = ServiceState(retention_intervals=0)
            for sequence in range(1, frames + 1):
                state.apply_envelope_bytes(_build_envelope("h", [1.0], 0, False, sequence))
            return state.to_snapshot()

        small, large = _snapshot_after(50), _snapshot_after(1500)
        # Identical values, so the registry side is constant: the only
        # growth allowed is a few varint counter bytes, never a
        # per-sequence dedup list.
        assert len(large) - len(small) < 16


class TestIntervalBucketRange:
    """Every accepted bucket fits a snapshot; nothing else is accepted."""

    def test_restart_after_a_refused_bucket_and_a_snapshot_recovers(self, tmp_path):
        server = AggregationServer(data_dir=tmp_path)
        server.recover()
        server._handle_push(make_envelope([1.0], host="h", sequence=1))
        with pytest.raises(DeserializationError, match="64-bit"):
            server._handle_push(make_envelope([2.0], host="h", sequence=2, interval_start=1e25))
        server._write_snapshot()
        expected = server.state.to_snapshot()
        server.log.close()
        restarted = AggregationServer(data_dir=tmp_path)
        restarted.recover()
        assert restarted.state.to_snapshot() == expected
        restarted.log.close()

    @pytest.mark.parametrize("interval_start", [1e18, 9.2e18, -(2.0**63)])
    def test_large_in_range_bucket_round_trips_through_a_snapshot(self, interval_start):
        state = ServiceState(retention_intervals=2)
        state.apply_envelope_bytes(make_envelope([1.0], interval_start=interval_start))
        assert state.window_buckets() == [int(interval_start)]
        restored = ServiceState.from_snapshot(state.to_snapshot(), retention_intervals=2)
        assert restored.window_buckets() == state.window_buckets()
        assert restored.to_snapshot() == state.to_snapshot()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("bound", ["window_start", "window_end"])
    def test_non_finite_window_bounds_are_refused(self, bound, bad):
        state = ServiceState(retention_intervals=2)
        state.apply_envelope_bytes(make_envelope([1.0]))
        with pytest.raises(IllegalArgumentError, match=bound):
            state.quantiles("latency", [0.5], **{bound: bad})
        with pytest.raises(IllegalArgumentError, match=bound):
            state.threshold_query("latency", 0.5, 0.5, **{bound: bad})

    def test_apply_refuses_before_mutating(self):
        state = ServiceState()
        envelope = decode_push_envelope(
            make_envelope([1.0], host="h", sequence=1, interval_start=1e25)
        )
        with pytest.raises(DeserializationError, match="64-bit"):
            state.apply(envelope)
        assert state.frames_applied == 0
        assert not state.is_duplicate("h", 1)
        assert state.registry.num_series == 0

    def test_replay_skips_a_logged_out_of_range_bucket(self, tmp_path):
        # Such a record could have been logged before the server refused
        # these pushes; replay counts it corrupt instead of failing.
        good = make_envelope([1.0], host="h", sequence=1)
        log = SegmentLog(tmp_path)
        log.append(make_envelope([2.0], host="h", sequence=2, interval_start=1e25))
        log.append(good)
        log.close()
        server = AggregationServer(data_dir=tmp_path)
        report = server.recover()
        assert (report.records_replayed, report.corrupt_records) == (1, 1)
        assert server.state.to_snapshot() == reference_state([good]).to_snapshot()
        server.log.close()


class TestProductionSizeFrames:
    """Exactly-once, conservation and bit-exact replay at production frame sizes.

    Two hosts push 5,000-series frames (five native decode chunks, the
    last one partial) through a live server with a data dir: each round
    retransmits a push, which comes back as a duplicate, the second round
    opens a new window bucket, and the server restarts before the third.
    """

    SERIES = 5_000
    HOSTS = ("prod-a", "prod-b")

    @pytest.fixture
    def native_kernel(self):
        """The columnar decode these frame sizes exercise is the native one."""
        from repro import kernel

        from _kernel_testkit import require_native_kernel

        require_native_kernel()
        before = kernel.active_backend()
        kernel.set_backend("native")
        try:
            yield
        finally:
            kernel.set_backend(before)

    def _rounds(self):
        """Per round, per host: the push's frame, host, sequence, bucket,
        series count and values recorded."""
        from repro.serialization.frame import FRAME_CHUNK_SERIES

        assert 4 * FRAME_CHUNK_SERIES < self.SERIES < 5 * FRAME_CHUNK_SERIES
        series = [
            ("prod.latency", {"endpoint": f"/e{index:04d}", "region": f"r{index % 8}"})
            for index in range(self.SERIES)
        ]
        rng = np.random.default_rng(2026)
        rounds = []
        for round_index, bucket in enumerate((0, 1, 1)):
            pushes = []
            for host in self.HOSTS:
                # Each series gets 0-3 values, so some series are absent
                # from a frame and new in a window bucket later.
                groups = np.repeat(np.arange(self.SERIES), rng.integers(0, 4, self.SERIES))
                registry = SketchRegistry()
                registry.ingest_grouped(series, groups, rng.lognormal(0.0, 1.5, groups.size))
                pushes.append(
                    (registry.to_frame(), host, round_index + 1, float(bucket),
                     registry.num_series, int(groups.size))
                )
            rounds.append(pushes)
        return rounds

    def test_pushes_apply_once_conserve_values_and_replay_bit_exactly(
        self, tmp_path, native_kernel
    ):
        from repro.service import ServiceClient, serve_in_thread

        rounds = self._rounds()
        applied = []
        recorded = 0
        for phase in (rounds[:2], rounds[2:]):
            retransmits = 0
            with serve_in_thread(data_dir=tmp_path) as handle:
                with ServiceClient(*handle.address) as client:
                    for pushes in phase:
                        for frame, host, sequence, start, series, values in pushes:
                            ack = client.push_frame(
                                frame, host=host, sequence=sequence, interval_start=start
                            )
                            assert ack["duplicate"] is False
                            assert ack["series"] == series
                            applied.append(
                                encode_push_envelope(
                                    frame, host=host, sequence=sequence, interval_start=start
                                )
                            )
                            recorded += values
                        # Retransmit the round's first push: acknowledged, not applied.
                        frame, host, sequence, start, _, _ = pushes[0]
                        ack = client.push_frame(
                            frame, host=host, sequence=sequence, interval_start=start
                        )
                        assert ack["duplicate"] is True
                        retransmits += 1
                    stats = client.stats()
            assert stats["frames_applied"] == len(applied)
            assert stats["total_count"] == float(recorded)
            assert stats["duplicates_rejected"] == retransmits  # since the restart

        reference = reference_state(applied)
        restarted = AggregationServer(data_dir=tmp_path)
        restarted.recover()
        state = restarted.state
        assert state.frames_applied == len(applied)
        assert state.total_count() == float(recorded) == reference.total_count()
        assert state.window_buckets() == reference.window_buckets() == [0, 1]
        assert state.to_frame() == reference.to_frame()
        for bucket in reference.window_buckets():
            assert state._windows[bucket].to_frame() == reference._windows[bucket].to_frame()
        assert state.to_snapshot() == reference.to_snapshot()
        restarted.log.close()


class TestRetentionChangeOnRestore:
    """``repro serve --retention`` can change between restarts: a restored
    state keeps only the buckets its own retention would have kept."""

    PUSHES = [make_envelope([1.0 + bucket], interval_start=float(bucket), sequence=bucket + 1)
              for bucket in range(6)]

    def _snapshot(self):
        return reference_state(self.PUSHES, retention_intervals=4).to_snapshot()

    def test_a_smaller_retention_drops_the_buckets_behind_its_horizon(self):
        restored = ServiceState.from_snapshot(self._snapshot(), retention_intervals=2)
        assert restored.window_buckets() == [4, 5]
        built = reference_state(self.PUSHES, retention_intervals=2)
        assert restored.to_snapshot() == built.to_snapshot()
        assert restored.quantiles("latency", [1.0], window_start=0.0, window_end=6.0) == (
            built.quantiles("latency", [1.0], window_start=0.0, window_end=6.0)
        )

    def test_retention_zero_keeps_no_window(self):
        restored = ServiceState.from_snapshot(self._snapshot(), retention_intervals=0)
        assert restored.window_buckets() == []
        with pytest.raises(EmptySketchError):
            restored.quantiles("latency", [0.5], window_start=0.0, window_end=6.0)
        more = make_envelope([9.0], interval_start=6.0, sequence=7)
        restored.apply_envelope_bytes(more)
        built = reference_state(self.PUSHES + [more], retention_intervals=0)
        assert restored.to_snapshot() == built.to_snapshot()

    def test_a_larger_retention_keeps_every_bucket_and_the_newest(self):
        restored = ServiceState.from_snapshot(self._snapshot(), retention_intervals=8)
        assert restored.window_buckets() == [2, 3, 4, 5]
        restored.apply_envelope_bytes(make_envelope([3.0], interval_start=1.0, sequence=7))
        assert restored.window_buckets() == [1, 2, 3, 4, 5]

    def test_inconsistent_bucket_lists_are_refused(self):
        state = reference_state(self.PUSHES, retention_intervals=4)
        state._max_bucket = 4  # bucket 5 is above the recorded newest bucket
        with pytest.raises(DeserializationError, match="above its newest"):
            ServiceState.from_snapshot(state.to_snapshot(), retention_intervals=4)
        state._max_bucket = None  # buckets, but no newest bucket
        with pytest.raises(DeserializationError, match="no newest bucket"):
            ServiceState.from_snapshot(state.to_snapshot(), retention_intervals=4)
