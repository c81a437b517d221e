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

import pytest

from _service_testkit import (
    SimulatedCrash,
    make_envelope,
    make_frame,
    reference_state,
    torn_write_factory,
)
from repro.exceptions import DeserializationError, ServiceError
from repro.service import AggregationServer, SegmentLog, ServiceClient, serve_in_thread
from repro.service.protocol import encode_push_envelope
from repro.service.segment_log import _RECORD_HEADER


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
    """Record the payload of every ``decode_frame`` call."""
    import repro.serialization.frame as frame_codec

    calls = []
    original = frame_codec.decode_frame

    def decode_frame(payload, *args, **kwargs):
        calls.append(bytes(payload))
        return original(payload, *args, **kwargs)

    monkeypatch.setattr(frame_codec, "decode_frame", decode_frame)
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
