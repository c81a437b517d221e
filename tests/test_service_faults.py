"""Fault injection against the segment log and the aggregation server.

The claims under test (ISSUE: crash-recoverable durability):

* a process killed mid-flush (torn write) loses at most the unacknowledged
  record; every acknowledged record replays, and the torn tail is
  quarantined — never silently dropped, never an ``IndexError``;
* truncated or bit-flipped log tails quarantine the poisoned region and
  replay the intact prefix;
* replay is **bit-exact**: a recovered server's ``to_frame()`` bytes are
  identical to the uncrashed reference fed the same accepted envelopes;
* dropped, duplicated, and reordered frames on the wire converge to
  exactly-once application (the paper's mergeability makes order
  irrelevant; the dedup table makes duplicates idempotent).
"""

import threading
import time

import numpy as np
import pytest

from _service_testkit import (
    SimulatedCrash,
    make_envelope,
    make_frame,
    reference_state,
    slow_write_factory,
    torn_write_factory,
)
from repro import DDSketch
from repro.exceptions import DeserializationError, ServiceError, UnequalSketchParametersError
from repro.registry import SketchRegistry
from repro.service import AggregationServer, SegmentLog, ServiceClient, serve_in_thread
from repro.service.protocol import encode_push_envelope
from repro.service.segment_log import _RECORD_HEADER
from repro.service.state import ServiceState


def _fill_log(directory, envelopes, **log_kwargs):
    """Append every envelope to a fresh log in ``directory``; returns the log."""
    log = SegmentLog(directory, **log_kwargs)
    for payload in envelopes:
        log.append(payload)
    return log


def _envelopes(count, host="host-a", start_seq=1):
    return [
        make_envelope([float(index + 1), float(index + 2)], host=host, sequence=start_seq + index)
        for index in range(count)
    ]


class TestTornWrites:
    def test_kill_mid_flush_keeps_acknowledged_prefix(self, tmp_path):
        envelopes = _envelopes(8)
        sizes = []
        probe = SegmentLog(tmp_path / "probe")
        for payload in envelopes:
            before = probe._writer_size if probe._writer is not None else 0
            probe.append(payload)
            sizes.append(probe._writer_size - before)
        probe.close()

        # Kill the writer halfway through the 6th record's bytes.
        budget = sum(sizes[:5]) + sizes[5] // 2
        log = SegmentLog(tmp_path / "log", file_factory=torn_write_factory(budget))
        accepted = []
        with pytest.raises(SimulatedCrash):
            for payload in envelopes:
                log.append(payload)
                accepted.append(payload)
        assert len(accepted) == 5

        recovered = SegmentLog(tmp_path / "log")
        replayed = [record.payload for record in recovered.replay()]
        assert replayed == accepted
        assert len(recovered.last_replay.quarantined) == 1
        event = recovered.last_replay.quarantined[0]
        assert "torn" in event.reason
        assert event.quarantine_path is not None and event.quarantine_path.exists()

    @pytest.mark.parametrize("cut", [1, 4, 11, 17])
    def test_truncated_tail_replays_intact_prefix(self, tmp_path, cut):
        envelopes = _envelopes(4)
        _fill_log(tmp_path, envelopes).close()
        segment = SegmentLog(tmp_path).segment_paths()[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - cut])

        log = SegmentLog(tmp_path)
        replayed = [record.payload for record in log.replay()]
        assert replayed == envelopes[:3]
        assert len(log.last_replay.quarantined) == 1
        assert "torn" in log.last_replay.quarantined[0].reason

    def test_bit_flip_quarantines_from_the_flip(self, tmp_path):
        # Identical values + single-byte sequences: all three records have
        # exactly the same size, so thirds of the file are record boundaries.
        envelopes = [
            make_envelope([4.0, 7.0], host="h", sequence=sequence) for sequence in (1, 2, 3)
        ]
        _fill_log(tmp_path, envelopes).close()
        segment = SegmentLog(tmp_path).segment_paths()[-1]
        data = bytearray(segment.read_bytes())
        record_size = len(data) // 3
        # Flip one bit inside the middle record's body.
        data[record_size + _RECORD_HEADER.size + 3] ^= 0x40
        segment.write_bytes(bytes(data))

        log = SegmentLog(tmp_path)
        replayed = [record.payload for record in log.replay()]
        assert replayed == envelopes[:1]
        assert len(log.last_replay.quarantined) == 1
        event = log.last_replay.quarantined[0]
        assert "CRC" in event.reason or "magic" in event.reason
        assert event.quarantine_path.read_bytes() == bytes(data[record_size:])

    def test_restart_never_appends_into_a_torn_headed_segment(self, tmp_path):
        # A crash tears the FIRST record of a segment: the restart scan
        # finds nothing replayable in it, so the next append targets the
        # same segment filename.  Appending there would put freshly acked
        # records behind the garbage — and the next replay would
        # quarantine them wholesale.  The log must retire the stale file
        # instead.
        _fill_log(tmp_path, _envelopes(1)).close()
        segment = SegmentLog(tmp_path).segment_paths()[0]
        segment.write_bytes(segment.read_bytes()[:7])  # tear mid-header

        restarted = SegmentLog(tmp_path)
        acked = make_envelope([42.0], host="h", sequence=1)
        restarted.append(acked)
        restarted.close()

        recovered = SegmentLog(tmp_path)
        replayed = [record.payload for record in recovered.replay()]
        assert replayed == [acked]  # the acknowledged record replays
        # The stale torn bytes were preserved next to the log, not buried.
        quarantined = list(tmp_path.glob("*.quarantine-torn"))
        assert len(quarantined) == 1
        assert quarantined[0].stat().st_size == 7

    def test_corruption_in_old_segment_spares_newer_segments(self, tmp_path):
        envelopes = _envelopes(6)
        log = _fill_log(tmp_path, envelopes[:3], max_segment_bytes=1)  # rotate every append
        for payload in envelopes[3:]:
            log.append(payload)
        log.close()
        segments = SegmentLog(tmp_path).segment_paths()
        assert len(segments) == 6
        second = bytearray(segments[1].read_bytes())
        second[len(second) // 2] ^= 0xFF
        segments[1].write_bytes(bytes(second))

        fresh = SegmentLog(tmp_path)
        replayed = [record.payload for record in fresh.replay()]
        # Segment 2's record is quarantined; every other segment replays.
        assert replayed == [envelopes[0]] + envelopes[2:]
        assert len(fresh.last_replay.quarantined) == 1


class TestBitExactRecovery:
    def test_recovered_server_state_is_bit_identical(self, tmp_path):
        envelopes = [
            make_envelope([1.0, 2.0, 3.0], host="a", sequence=1, interval_start=0.0),
            make_envelope([10.0, 20.0], host="b", sequence=1, interval_start=1.0,
                          tags={"endpoint": "/x"}),
            make_envelope([0.5], host="a", sequence=2, interval_start=2.0),
        ]
        crashed = AggregationServer(data_dir=tmp_path)
        crashed.recover()
        for payload in envelopes:
            crashed._handle_push(payload)
        pre_crash_frame = crashed.state.to_frame()
        # Crash: drop the object without stop()/close() — the log flushed
        # each append, so the bytes are on disk but the writer is still open.

        recovered = AggregationServer(data_dir=tmp_path)
        report = recovered.recover()
        assert report.records_replayed == len(envelopes)
        assert recovered.state.to_frame() == pre_crash_frame
        assert recovered.state.to_frame() == reference_state(envelopes).to_frame()
        assert recovered.state.frames_applied == len(envelopes)

    def test_torn_tail_recovery_matches_acknowledged_reference(self, tmp_path):
        envelopes = _envelopes(6)
        log = _fill_log(tmp_path, envelopes)
        # Tear the last record: keep all but its final 5 bytes.
        log.close()
        segment = SegmentLog(tmp_path).segment_paths()[-1]
        segment.write_bytes(segment.read_bytes()[:-5])

        server = AggregationServer(data_dir=tmp_path)
        report = server.recover()
        assert report.records_replayed == 5
        assert len(report.quarantined) == 1
        assert server.state.to_frame() == reference_state(envelopes[:5]).to_frame()

    def test_snapshot_plus_tail_replay_is_bit_exact(self, tmp_path):
        envelopes = _envelopes(9)
        server = AggregationServer(data_dir=tmp_path, snapshot_every=4)
        server.recover()
        for payload in envelopes:
            server._handle_push(payload)
        pre_crash_frame = server.state.to_frame()
        assert server.log.snapshot_paths(), "snapshot_every must have fired"

        recovered = AggregationServer(data_dir=tmp_path)
        report = recovered.recover()
        assert report.snapshot_applied == 8
        assert report.records_replayed == 1
        assert recovered.state.to_frame() == pre_crash_frame


class TestDeliveryFaults:
    def test_drop_duplicate_reorder_converge_exactly_once(self, tmp_path):
        frames = {
            sequence: make_frame([float(sequence)] * 3, tags={"endpoint": "/api"})
            for sequence in (1, 2, 3, 5)  # 4 is dropped forever
        }
        with serve_in_thread(data_dir=tmp_path) as handle:
            with ServiceClient(*handle.address) as client:
                # Reordered arrival, with retransmissions interleaved.
                order = [3, 1, 1, 2, 5, 3, 2, 5, 1]
                duplicates = 0
                for sequence in order:
                    ack = client.push_frame(frames[sequence], host="h", sequence=sequence)
                    duplicates += ack["duplicate"]
                stats = client.stats()
                served = client.query_quantiles("latency", [0.5, 0.99])["values"]
            assert duplicates == len(order) - len(frames)
            assert stats["duplicates_rejected"] == duplicates
            assert stats["frames_applied"] == len(frames)
            assert stats["total_count"] == 3.0 * len(frames)

        envelopes = [
            make_envelope([float(sequence)] * 3, host="h", sequence=sequence,
                          tags={"endpoint": "/api"})
            for sequence in sorted(frames)
        ]
        assert served == reference_state(envelopes).quantiles("latency", [0.5, 0.99])

    def test_duplicates_are_deduplicated_across_a_crash(self, tmp_path):
        envelope = make_envelope([7.0, 8.0], host="h", sequence=1)
        server = AggregationServer(data_dir=tmp_path)
        server.recover()
        assert server._handle_push(envelope)["duplicate"] is False

        recovered = AggregationServer(data_dir=tmp_path)
        recovered.recover()
        # The client never saw the ACK and retransmits after the restart.
        ack = recovered._handle_push(envelope)
        assert ack["duplicate"] is True
        assert recovered.state.total_count() == 2.0

    def test_corrupt_frame_is_rejected_before_the_log(self, tmp_path):
        good = make_envelope([1.0], host="h", sequence=1)
        corrupt_frame = bytearray(make_frame([2.0]))
        corrupt_frame[len(corrupt_frame) // 2] ^= 0xFF
        with serve_in_thread(data_dir=tmp_path) as handle:
            with ServiceClient(*handle.address, retries=0) as client:
                # push_frame wraps the frame in a well-formed envelope; the
                # server's validate-before-persist catches the bad frame.
                client.push_frame(make_frame([1.0]), host="h", sequence=1)
                with pytest.raises(DeserializationError):
                    client.push_frame(bytes(corrupt_frame), host="h", sequence=2)

        # Only the good envelope reached the log.
        replayed = list(SegmentLog(tmp_path).replay())
        assert len(replayed) == 1
        assert replayed[0].payload == good

    def test_failed_push_burns_its_sequence(self):
        with serve_in_thread() as handle:
            with ServiceClient(*handle.address, retries=0) as client:
                assert client.push_frame(make_frame([1.0]), host="h")["sequence"] == 1

                def _failing_request(message_type, payload, retry):
                    raise ServiceError("injected transport failure")

                original = client._request
                client._request = _failing_request
                with pytest.raises(ServiceError):
                    client.push_frame(make_frame([2.0]), host="h")
                client._request = original
                # The server may have applied the failed push without the
                # ACK arriving, so its sequence is burned: the next
                # *different* frame gets a fresh identity instead of being
                # silently deduplicated against a possibly-applied one.
                assert client.next_sequence("h") == 3
                ack = client.push_frame(make_frame([3.0]), host="h")
                assert ack["sequence"] == 3
                assert ack["duplicate"] is False

    def test_concurrent_same_host_pushes_never_collide(self):
        import threading

        with serve_in_thread() as handle:
            with ServiceClient(*handle.address) as client:
                errors = []

                def _worker(value):
                    try:
                        ack = client.push_frame(make_frame([value]), host="h")
                        assert ack["duplicate"] is False
                    except Exception as error:  # surfaced after the join
                        errors.append(error)

                threads = [
                    threading.Thread(target=_worker, args=(float(index + 1),))
                    for index in range(16)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                stats = client.stats()
            assert not errors
            assert stats["frames_applied"] == 16.0
            assert stats["duplicates_rejected"] == 0.0

    def test_malformed_query_values_get_an_error_reply_not_a_hangup(self):
        import json
        import socket

        from repro.service import protocol

        with serve_in_thread() as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                for body in (
                    {"metric": "latency", "quantiles": ["abc"]},
                    {"metric": "latency", "quantiles": [0.5], "window_start": "abc"},
                    {"metric": "latency", "quantiles": [0.5], "window_end": {}},
                ):
                    payload = json.dumps(body).encode("utf-8")
                    reply_type, reply = protocol.request(sock, protocol.MSG_QUERY, payload)
                    assert reply_type == protocol.MSG_ERROR
                    kind = protocol.decode_json_body(reply)["kind"]
                    assert kind == "IllegalArgumentError"
                # The same connection still serves well-formed requests.
                reply_type, _ = protocol.request(sock, protocol.MSG_PING, b"")
                assert reply_type == protocol.MSG_OK

    def test_sub_one_sequence_is_rejected_not_silently_deduped(self):
        import socket
        import struct

        from repro.service import protocol
        from repro.service.protocol import ENVELOPE_MAGIC, ENVELOPE_VERSION
        from repro.serialization.encoding import encode_varint

        # Hand-build a sequence-0 envelope (the client-side encoder now
        # rejects them): the server must answer with an explicit error,
        # never treat an unseen frame as a duplicate.
        frame = make_frame([1.0])
        envelope = (
            ENVELOPE_MAGIC
            + encode_varint(ENVELOPE_VERSION)
            + encode_varint(1)
            + b"h"
            + encode_varint(0)  # sequence 0
            + struct.pack("<d", 0.0)
            + encode_varint(len(frame))
            + frame
        )
        with serve_in_thread() as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                reply_type, reply = protocol.request(sock, protocol.MSG_PUSH, envelope)
                assert reply_type == protocol.MSG_ERROR
                assert protocol.decode_json_body(reply)["kind"] == "IllegalArgumentError"

    def test_unframed_garbage_gets_one_error_reply_then_disconnect(self, tmp_path):
        import socket

        from repro.service import protocol

        with serve_in_thread() as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
                reply_type, payload = protocol.read_message_blocking(sock)
                assert reply_type == protocol.MSG_ERROR
                assert protocol.decode_json_body(payload)["kind"] == "DeserializationError"
                assert sock.recv(1) == b""  # server closed the connection
            # The server survives and keeps serving.
            with ServiceClient(*handle.address) as client:
                assert client.ping()


def _count_frame_decodes(monkeypatch):
    """Record the payload of every frame decode (``read_frame``, which
    ``decode_frame`` calls too)."""
    import repro.serialization.frame as frame_codec

    calls = []
    original = frame_codec.read_frame

    def read_frame(payload, *args, **kwargs):
        calls.append(bytes(payload))
        return original(payload, *args, **kwargs)

    monkeypatch.setattr(frame_codec, "read_frame", read_frame)
    return calls


class TestSingleDecode:
    """The decode that validates a push is the one the state folds in."""

    def test_accepted_push_decodes_its_frame_once(self, tmp_path, monkeypatch, kernel_backend):
        frames = [
            make_frame([1.0, 2.0, 3.0], tags={"endpoint": "/api"}),
            make_frame([4.0], tags={"endpoint": "/api"}),
        ]
        calls = _count_frame_decodes(monkeypatch)
        with serve_in_thread(data_dir=tmp_path) as handle:
            with ServiceClient(*handle.address) as client:
                for sequence, frame in enumerate(frames, start=1):
                    decoded_before = len(calls)
                    assert client.push_frame(frame, host="h", sequence=sequence)["duplicate"] is False
                    assert calls[decoded_before:] == [frame]
                stats = client.stats()
                served = client.query_quantiles("latency", [0.5, 0.99])["values"]
        assert stats["frames_applied"] == 2
        assert stats["total_count"] == 4.0
        envelopes = [
            make_envelope(values, host="h", sequence=sequence, tags={"endpoint": "/api"})
            for sequence, values in ((1, [1.0, 2.0, 3.0]), (2, [4.0]))
        ]
        assert served == reference_state(envelopes).quantiles("latency", [0.5, 0.99])

    def test_corrupt_frame_is_refused_before_the_log_with_nothing_applied(
        self, tmp_path, monkeypatch, kernel_backend
    ):
        good = make_envelope([1.0], host="h", sequence=1)
        corrupt = bytearray(make_frame([2.0]))
        corrupt[len(corrupt) // 2] ^= 0xFF
        calls = _count_frame_decodes(monkeypatch)
        server = AggregationServer(data_dir=tmp_path)
        server.recover()
        server._handle_push(good)
        with pytest.raises(DeserializationError):
            server._handle_push(encode_push_envelope(bytes(corrupt), host="h", sequence=2))
        assert calls[-1] == bytes(corrupt) and len(calls) == 2
        assert server.state.frames_applied == 1
        assert server.state.total_count() == 1.0
        assert not server.state.is_duplicate("h", 2)
        server.log.close()
        assert [record.payload for record in SegmentLog(tmp_path).replay()] == [good]

    def test_state_adopts_pre_decoded_entries(self, kernel_backend):
        from repro.serialization.frame import decode_frame
        from repro.service.protocol import decode_push_envelope
        from repro.service.state import ServiceState

        payloads = [make_envelope([float(n), 2.0 * n], host="h", sequence=n) for n in (1, 2, 3)]
        decoding = ServiceState(retention_intervals=2)
        handed = ServiceState(retention_intervals=2)
        for payload in payloads:
            decoding.apply_envelope_bytes(payload)
            envelope = decode_push_envelope(payload)
            handed.apply(envelope, decode_frame(envelope.frame))
        assert handed.to_snapshot() == decoding.to_snapshot()


class TestPushLimits:
    """Pushes the server refuses with an ERROR reply before they reach the log."""

    def test_push_past_the_bin_budget_is_refused_before_the_log(
        self, tmp_path, monkeypatch, kernel_backend
    ):
        import repro.serialization.frame as frame_codec

        good = make_envelope([1.0], host="h", sequence=1)
        # A store spanning ~2,000 keys, against a 100-bin budget.
        wide = make_frame([1e-3, 1e6])
        monkeypatch.setattr(frame_codec, "MAX_DECOMPRESSED_FRAME_BYTES", 8 * 100)
        with serve_in_thread(data_dir=tmp_path) as handle:
            with ServiceClient(*handle.address, retries=0) as client:
                client.push_envelope(good)
                with pytest.raises(DeserializationError, match="bytes of bins"):
                    client.push_frame(wide, host="h", sequence=2)
                assert client.stats()["frames_applied"] == 1
        assert [record.payload for record in SegmentLog(tmp_path).replay()] == [good]

    def test_snapshot_past_the_bin_budget_still_restores(
        self, tmp_path, monkeypatch, kernel_backend
    ):
        import repro.serialization.frame as frame_codec

        server = AggregationServer(data_dir=tmp_path, retention_intervals=4)
        server.recover()
        for sequence in (1, 2):
            server._handle_push(
                make_envelope([1e-3, 1e6], host="h", sequence=sequence,
                              interval_start=float(sequence))
            )
        server._write_snapshot()
        expected = server.state.to_snapshot()
        merged = server.state.to_frame()
        server.log.close()
        monkeypatch.setattr(frame_codec, "MAX_DECOMPRESSED_FRAME_BYTES", 8 * 100)
        with pytest.raises(DeserializationError, match="bytes of bins"):
            frame_codec.decode_frame(merged, bin_budget=True)  # too large to push
        restarted = AggregationServer(data_dir=tmp_path, retention_intervals=4)
        report = restarted.recover()
        assert report.snapshot_applied == 2
        assert restarted.state.to_snapshot() == expected
        restarted.log.close()

    @pytest.mark.parametrize("budget", ["allocated", "allocated - 1", "decoded - 1"])
    def test_agent_pushes_stay_within_the_bin_budget(
        self, tmp_path, monkeypatch, kernel_backend, budget
    ):
        """An agent splits its flush where the series' allocated spans would
        pass the push budget, so the server accepts every frame, even where
        the flush as one frame would be refused."""
        import repro.serialization.frame as frame_codec
        from repro.monitoring import MetricAgent

        agent = MetricAgent("h")
        for index in range(4):
            agent.record_batch(f"m{index}", np.array([1e-3, 1e6]))
        frame = agent.registry.to_frame()
        stores = [
            store for _, sketch in agent.registry
            for store in (sketch.store, sketch.negative_store)
        ]
        allocated = sum(store.key_span for store in stores)
        decoded = sum(
            store.max_key - store.min_key + 1 for store in stores if not store.is_empty
        )
        bins = {
            "allocated": allocated, "allocated - 1": allocated - 1, "decoded - 1": decoded - 1
        }[budget]
        monkeypatch.setattr(frame_codec, "MAX_DECOMPRESSED_FRAME_BYTES", 8 * bins)
        if bins < decoded:
            with pytest.raises(DeserializationError, match="bytes of bins"):
                frame_codec.decode_frame(frame, bin_budget=True)
        with serve_in_thread(data_dir=tmp_path) as handle:
            with ServiceClient(*handle.address, retries=0) as client:
                acks = agent.push_frames(client, interval_start=0.0)
                assert [ack["status"] for ack in acks] == ["ok"] * len(acks)
                assert len(acks) == (1 if bins == allocated else 2)
                assert client.stats()["frames_applied"] == len(acks)
            assert handle.server.state.to_frame() == frame
        assert agent.pending_series == []

    @pytest.mark.parametrize("interval_start", [1e25, -1e25, 1e300, -1e300, 2.0**63])
    def test_unsnapshotable_bucket_is_refused_before_the_log(self, tmp_path, interval_start):
        good = make_envelope([1.0], host="h", sequence=1)
        bad = make_envelope([2.0], host="h", sequence=2, interval_start=interval_start)
        with serve_in_thread(data_dir=tmp_path) as handle:
            with ServiceClient(*handle.address, retries=0) as client:
                client.push_envelope(good)
                with pytest.raises(DeserializationError, match="64-bit"):
                    client.push_envelope(bad)
                assert client.stats()["frames_applied"] == 1
        assert [record.payload for record in SegmentLog(tmp_path).replay()] == [good]


def _series_frame(*series):
    """One frame of ``(metric, relative accuracy, value)`` series."""
    registry = SketchRegistry()
    for metric, accuracy, value in series:
        sketch = DDSketch(relative_accuracy=accuracy)
        sketch.add(value)
        registry.merge_series(metric, sketch, copy=False)
    return registry.to_frame()


#: ``a`` and ``b`` at the default accuracy, then a push whose ``b`` has
#: another accuracy: its ``a`` would merge, its ``c`` is new, and the push
#: as a whole cannot be applied.
FIRST = _series_frame(("a", 0.01, 1.0), ("b", 0.01, 2.0))
CONFLICTING = _series_frame(("a", 0.01, 3.0), ("b", 0.02, 4.0), ("c", 0.01, 5.0))


class TestUnmergeablePush:
    """A push carrying a sketch its stored series cannot merge is refused
    whole, with nothing logged or applied, and never blocks a restart."""

    def test_refused_before_the_log_with_nothing_changed(self, tmp_path, kernel_backend):
        first = encode_push_envelope(FIRST, host="h1", sequence=1, interval_start=0.0)
        with serve_in_thread(data_dir=tmp_path) as handle:
            with ServiceClient(*handle.address, retries=0) as client:
                client.push_envelope(first)
                before = client.stats()
                snapshot = handle.server.state.to_snapshot()
                with pytest.raises(UnequalSketchParametersError):
                    client.push_frame(CONFLICTING, host="h2", sequence=1, interval_start=0.0)
                assert client.stats() == before
                assert handle.server.state.to_snapshot() == snapshot
        assert [record.payload for record in SegmentLog(tmp_path).replay()] == [first]
        with serve_in_thread(data_dir=tmp_path) as handle:
            assert handle.server.last_recovery.refused_records == 0
            assert handle.server.state.to_snapshot() == snapshot
            with ServiceClient(*handle.address, retries=0) as client:
                # (h2, 1) was never applied, so a mergeable push under it is.
                ack = client.push_frame(
                    _series_frame(("a", 0.01, 3.0), ("c", 0.01, 5.0)),
                    host="h2", sequence=1, interval_start=0.0,
                )
                assert ack["duplicate"] is False
                assert client.stats()["total_count"] == 4.0

    def test_apply_refuses_a_logged_push_and_recovery_skips_it(self, tmp_path, kernel_backend):
        """A push that reached the log anyway (it raced a conflicting push
        past the pre-log check) changes nothing when ``apply`` refuses it,
        and a restart counts it and applies the records after it."""
        payloads = [
            encode_push_envelope(FIRST, host="h1", sequence=1, interval_start=0.0),
            encode_push_envelope(CONFLICTING, host="h2", sequence=1, interval_start=0.0),
            encode_push_envelope(
                _series_frame(("a", 0.01, 6.0), ("d", 0.01, 7.0)),
                host="h3", sequence=1, interval_start=1.0,
            ),
        ]
        state = ServiceState()
        state.apply_envelope_bytes(payloads[0])
        snapshot = state.to_snapshot()
        with pytest.raises(UnequalSketchParametersError):
            state.apply_envelope_bytes(payloads[1])
        assert state.to_snapshot() == snapshot
        assert not state.is_duplicate("h2", 1)

        _fill_log(tmp_path, payloads).close()
        server = AggregationServer(data_dir=tmp_path)
        report = server.recover()
        assert (report.records_replayed, report.refused_records, report.corrupt_records) == (
            2, 1, 0,
        )
        expected = reference_state([payloads[0], payloads[2]])
        assert server.state.to_snapshot() == expected.to_snapshot()
        server.log.close()

    def test_a_push_racing_a_conflicting_one_is_refused_by_apply(self, tmp_path):
        """Two pushes create one series with different accuracies at once:
        both pass the pre-log check while the first is being logged, the
        second is logged and refused by ``apply``, and a restart agrees."""
        envelopes = [
            encode_push_envelope(
                _series_frame(("c", accuracy, 1.0)), host=host, sequence=1, interval_start=0.0
            )
            for host, accuracy in (("h1", 0.01), ("h2", 0.02))
        ]
        outcomes = {}

        def push(envelope):
            with ServiceClient(*handle.address, retries=0) as client:
                try:
                    client.push_envelope(envelope)
                    outcomes[envelope] = "ok"
                except UnequalSketchParametersError:
                    outcomes[envelope] = "refused"

        with serve_in_thread(
            data_dir=tmp_path, log_file_factory=slow_write_factory(1.0)
        ) as handle:
            threads = [threading.Thread(target=push, args=(envelope,)) for envelope in envelopes]
            threads[0].start()
            time.sleep(0.1)  # the first push is in its slow append
            threads[1].start()
            for thread in threads:
                thread.join()
            snapshot = handle.server.state.to_snapshot()
        assert sorted(outcomes.values()) == ["ok", "refused"]
        applied = [envelope for envelope in envelopes if outcomes[envelope] == "ok"]
        assert snapshot == reference_state(applied).to_snapshot()
        # Both were logged, the applied one first (apply order is log order).
        logged = [record.payload for record in SegmentLog(tmp_path).replay()]
        assert logged == sorted(envelopes, key=lambda envelope: outcomes[envelope])
        with serve_in_thread(data_dir=tmp_path) as handle:
            report = handle.server.last_recovery
            assert (report.records_replayed, report.refused_records) == (1, 1)
            assert handle.server.state.to_snapshot() == snapshot
