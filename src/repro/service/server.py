"""The long-running aggregation server: asyncio sockets + write-ahead log.

:class:`AggregationServer` is the cross-process version of the paper's
"monitoring system" box (Section 1, Figure 1): any number of
:class:`~repro.monitoring.MetricAgent` processes push frame-v3 payloads over
the length-prefixed socket protocol (:mod:`repro.service.protocol`), the
server folds them into one :class:`~repro.service.state.ServiceState`
(merged registry + windowed retention + deduplication), and — when a data
directory is configured — persists every accepted envelope to a
crash-recoverable :class:`~repro.service.segment_log.SegmentLog` *before*
applying and acknowledging it.  The accept path is therefore::

    decode envelope + frame -> merge check -> dedup -> log.append -> state.apply -> ACK

Decoding the frame is its validation, so only frames that decode reach the
log, and ``state.apply`` folds in those decoded sketches: each accepted
frame is decoded once.  The merge check refuses, before the log, a frame
carrying a sketch its stored series cannot merge (another mapping, say).

A frame is acknowledged only after it is durable, so a crash between append
and ACK leaves the client unacknowledged: it retransmits, the server dedups,
and state converges to exactly-once application (at-least-once on the wire,
exactly-once in the registry).  On startup, :meth:`AggregationServer.recover`
loads the newest valid snapshot and replays the log tail, landing on a
registry whose ``to_frame()`` bytes are identical to the pre-crash server's
(full mergeability, Section 2.1 — pinned by ``tests/test_service_faults.py``
and ``tests/test_service_recovery.py``).

The event loop is single-threaded, so handlers mutate state without locks.
Durable appends (the only blocking I/O on the accept path) run on a
dedicated **single-writer executor thread**: the event loop stays responsive
— a concurrent ``PING`` answers immediately while a large fsync-ed push is
in flight — while appends stay strictly serialized, so apply order equals
log order and recovery stays bit-exact.  The server degrades gracefully
instead of queueing unboundedly under overload:

* an **admission gate** sheds pushes beyond ``max_inflight_pushes`` and
  connections beyond ``max_connections`` with an explicit ``OVERLOADED``
  reply carrying a ``retry_after`` hint (never a hang, never an unbounded
  queue);
* **per-connection deadlines** reap idle or slow-loris clients
  (``idle_timeout`` covers the whole read, header and payload) and
  slow-consumer clients that stop reading replies (``write_timeout``);
* **graceful drain shutdown** stops accepting, lets in-flight requests
  finish (bounded by ``drain_timeout``), then flushes the log — and writes
  a final compacted snapshot when automatic snapshots are enabled.

:func:`serve_in_thread` runs the whole server on a background thread for
tests, the CLI, and the load generator.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.exceptions import (
    DeserializationError,
    EmptySketchError,
    IllegalArgumentError,
    ReproError,
    ServiceOverloadedError,
    UnequalSketchParametersError,
)
from repro.service import protocol
from repro.service.protocol import PushEnvelope, decode_push_envelope
from repro.service.segment_log import QuarantineEvent, SegmentLog
from repro.service.state import ServiceState

if TYPE_CHECKING:
    from repro.serialization.frame import DecodedFrame


@dataclass
class RecoveryReport:
    """What one startup recovery pass found and rebuilt."""

    snapshot_applied: int = 0
    records_replayed: int = 0
    corrupt_records: int = 0
    #: Intact records whose series the state could not merge (a push that
    #: raced a conflicting one past the pre-log check); skipped, as the
    #: live server refused them.
    refused_records: int = 0
    quarantined: List[QuarantineEvent] = field(default_factory=list)


class AggregationServer:
    """Asyncio aggregation server with a crash-recoverable segment log.

    Parameters
    ----------
    data_dir:
        Directory for the segment log and snapshots.  ``None`` runs the
        server in-memory only (no durability, no recovery).
    host / port:
        Listen address; port ``0`` picks a free port (see :attr:`address`).
    interval_length / retention_intervals:
        Forwarded to :class:`~repro.service.state.ServiceState`.
    max_segment_bytes / fsync:
        Forwarded to :class:`~repro.service.segment_log.SegmentLog`.
    snapshot_every:
        Write a compacted snapshot (and compact covered segments) after
        every N accepted frames; ``0`` disables automatic snapshots (the
        ``SNAPSHOT`` wire op still triggers one on demand).
    max_inflight_pushes:
        Admission gate: pushes arriving while this many are already being
        appended/applied are shed with an ``OVERLOADED`` reply instead of
        queueing unboundedly behind the log writer.
    max_connections:
        Concurrent-connection cap; a connection beyond it receives one
        ``OVERLOADED`` reply and is closed.
    idle_timeout:
        Per-connection read deadline in seconds: a client that sends no
        complete message within it (idle, or slow-loris dribbling header
        bytes) is disconnected.  ``None`` disables the deadline.
    write_timeout:
        Per-reply drain deadline in seconds: a client that stops reading
        replies (slow consumer) is disconnected instead of pinning buffer
        memory.  ``None`` disables the deadline.
    drain_timeout:
        Graceful-shutdown bound in seconds: stop accepting, wait this long
        for in-flight requests to finish, then cancel whatever remains.
        ``None`` waits indefinitely.
    overload_retry_after:
        The ``retry_after`` hint, in seconds, carried by ``OVERLOADED``
        replies.
    max_message_bytes:
        Inbound wire-message ceiling; a length prefix above it is rejected
        with a ``DeserializationError`` reply *before* any payload is read.
        Clamped to the protocol-wide limit.
    log_file_factory:
        Forwarded to the :class:`SegmentLog` ``file_factory`` seam — the
        fault-injection/throttling hook used by the chaos tests and the
        overload benchmark.
    """

    def __init__(
        self,
        data_dir=None,
        host: str = "127.0.0.1",
        port: int = 0,
        interval_length: float = 1.0,
        retention_intervals: int = 64,
        max_segment_bytes: int = 4 * 1024 * 1024,
        snapshot_every: int = 0,
        fsync: bool = False,
        max_inflight_pushes: int = 64,
        max_connections: int = 256,
        idle_timeout: Optional[float] = 300.0,
        write_timeout: Optional[float] = 30.0,
        drain_timeout: Optional[float] = 5.0,
        overload_retry_after: float = 0.05,
        max_message_bytes: int = protocol.MAX_MESSAGE_BYTES,
        log_file_factory=None,
    ) -> None:
        if snapshot_every < 0:
            raise IllegalArgumentError(
                f"snapshot_every must be non-negative, got {snapshot_every!r}"
            )
        if max_inflight_pushes < 1:
            raise IllegalArgumentError(
                f"max_inflight_pushes must be positive, got {max_inflight_pushes!r}"
            )
        if max_connections < 1:
            raise IllegalArgumentError(
                f"max_connections must be positive, got {max_connections!r}"
            )
        for name, value in (
            ("idle_timeout", idle_timeout),
            ("write_timeout", write_timeout),
            ("drain_timeout", drain_timeout),
        ):
            if value is not None and value <= 0:
                raise IllegalArgumentError(f"{name} must be positive or None, got {value!r}")
        if overload_retry_after < 0:
            raise IllegalArgumentError(
                f"overload_retry_after must be non-negative, got {overload_retry_after!r}"
            )
        if max_message_bytes < 1:
            raise IllegalArgumentError(
                f"max_message_bytes must be positive, got {max_message_bytes!r}"
            )
        self._host = host
        self._port = int(port)
        self._interval_length = float(interval_length)
        self._retention_intervals = int(retention_intervals)
        self._snapshot_every = int(snapshot_every)
        self._max_inflight_pushes = int(max_inflight_pushes)
        self._max_connections = int(max_connections)
        self._idle_timeout = None if idle_timeout is None else float(idle_timeout)
        self._write_timeout = None if write_timeout is None else float(write_timeout)
        self._drain_timeout = None if drain_timeout is None else float(drain_timeout)
        self._overload_retry_after = float(overload_retry_after)
        self._max_message_bytes = min(int(max_message_bytes), protocol.MAX_MESSAGE_BYTES)
        self.state = ServiceState(
            interval_length=interval_length,
            retention_intervals=retention_intervals,
        )
        self.log: Optional[SegmentLog] = (
            SegmentLog(
                data_dir,
                max_segment_bytes=max_segment_bytes,
                fsync=fsync,
                file_factory=log_file_factory,
            )
            if data_dir is not None
            else None
        )
        self.last_recovery: Optional[RecoveryReport] = None
        self._last_applied_sequence = 0
        self._frames_since_snapshot = 0
        self._bytes_received = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._writers: set = set()
        self._draining = False
        # Single-writer executor for durable appends + snapshot persistence:
        # one thread, so log writes stay strictly ordered while the event
        # loop keeps serving pings and queries.
        self._log_writer: Optional[ThreadPoolExecutor] = None
        self._inflight_pushes = 0
        self._inflight_requests = 0
        self._inflight_identities: set = set()
        self._idle: Optional[asyncio.Event] = None
        self._snapshot_in_progress = False
        #: Pushes refused at the admission gate (OVERLOADED replies).
        self.pushes_shed = 0
        #: Connections refused at the connection cap (OVERLOADED + close).
        self.connections_shed = 0
        #: Connections disconnected by the read or write deadline.
        self.connections_reaped = 0

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def recover(self) -> RecoveryReport:
        """Rebuild state from the newest snapshot plus the log tail.

        Intact records are applied in log order; records whose *payload*
        fails to decode despite a valid CRC (which disk corruption cannot
        produce, but a hostile log could) are counted as corrupt and
        skipped, and records whose series the state cannot merge (which
        ``apply`` refused when they were live) are counted as refused and
        skipped — recovery never raises on bad data and never loses intact
        records that follow it.
        """
        report = RecoveryReport()
        self.state = ServiceState(
            interval_length=self._interval_length,
            retention_intervals=self._retention_intervals,
        )
        self._last_applied_sequence = 0
        if self.log is None:
            self.last_recovery = report
            return report
        snapshot = self.log.latest_snapshot()
        if snapshot is not None:
            applied, payload = snapshot
            self.state = ServiceState.from_snapshot(
                payload,
                interval_length=self._interval_length,
                retention_intervals=self._retention_intervals,
            )
            report.snapshot_applied = applied
            self._last_applied_sequence = applied
        for record in self.log.replay(after=self._last_applied_sequence):
            try:
                self.state.apply_envelope_bytes(record.payload)
            except DeserializationError:
                report.corrupt_records += 1
                continue
            except UnequalSketchParametersError:
                report.refused_records += 1
                continue
            self._last_applied_sequence = record.sequence
            report.records_replayed += 1
        report.quarantined = list(self.log.last_replay.quarantined)
        self.last_recovery = report
        return report

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid once started)."""
        if self._server is None or not self._server.sockets:
            return (self._host, self._port)
        bound = self._server.sockets[0].getsockname()
        return (bound[0], bound[1])

    async def start(self) -> None:
        """Recover from the log (if any) and start accepting connections."""
        self.recover()
        self._stop_event = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        if self.log is not None and self._log_writer is None:
            self._log_writer = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="segment-log"
            )
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._port
        )

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop` (or :meth:`stop`) is called."""
        if self._stop_event is None:
            raise IllegalArgumentError("server is not started")
        await self._stop_event.wait()
        await self._shutdown()

    def request_stop(self) -> None:
        """Signal the serving loop to shut down (safe from the event loop)."""
        if self._stop_event is not None:
            self._stop_event.set()

    @property
    def stop_requested(self) -> bool:
        """Whether :meth:`request_stop` was called since the server started."""
        return self._stop_event is not None and self._stop_event.is_set()

    async def stop(self) -> None:
        """Stop accepting connections, drain in-flight work, close the log."""
        self.request_stop()
        await self._shutdown()

    async def _shutdown(self) -> None:
        # Graceful drain: stop accepting -> finish in-flight (bounded by
        # drain_timeout) -> cancel idle/stuck connections -> final flush,
        # plus a final compacted snapshot when auto-snapshots are on.
        if self._server is not None:
            self._server.close()
        drained = await self._drain_inflight()
        # Cooperative cancellation alone is not enough: on Python 3.11 a
        # cancel that lands just as a handler's awaited future completes is
        # swallowed by wait_for (the task keeps running with the cancel
        # request consumed), after which cancelling it again is a no-op.
        # The draining flag stops the read loop, aborting the transports
        # ends any in-progress read with EOF, and the bounded wait below is
        # the backstop so shutdown can never hang on a stuck handler.
        self._draining = True
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.transport.abort()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.wait(set(self._connections), timeout=5.0)
            self._connections.clear()
        if self._server is not None:
            # On Python >= 3.12 wait_closed() also waits for connection
            # handlers, so it must run *after* they were cancelled above.
            await self._server.wait_closed()
            self._server = None
        if self._log_writer is not None:
            self._log_writer.shutdown(wait=True)
            self._log_writer = None
        if self.log is not None:
            if drained and self._snapshot_every and self._frames_since_snapshot > 0:
                self._write_snapshot()
            self.log.close()

    async def _drain_inflight(self) -> bool:
        """Wait for in-flight requests to finish; False when the wait timed out."""
        if self._inflight_requests == 0 or self._idle is None:
            return True
        if self._drain_timeout is None:
            await self._idle.wait()
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=self._drain_timeout)
            return True
        except asyncio.TimeoutError:
            return False

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader, writer) -> None:
        """Serve one client connection until EOF, deadline, or a framing violation."""
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self._writers.add(writer)
        try:
            if len(self._connections) > self._max_connections:
                # Over the connection cap: one explicit OVERLOADED reply,
                # then close — the client backs off and redials later.
                self.connections_shed += 1
                await self._send_best_effort(
                    writer,
                    self._overloaded_reply(
                        f"connection limit ({self._max_connections}) reached"
                    ),
                )
                return
            while True:
                if self._draining:
                    break  # shutdown: stop reading even if our cancel was lost
                try:
                    read = protocol.read_message(reader, max_bytes=self._max_message_bytes)
                    if self._idle_timeout is not None:
                        message_type, payload = await asyncio.wait_for(
                            read, timeout=self._idle_timeout
                        )
                    else:
                        message_type, payload = await read
                except asyncio.TimeoutError:
                    # Idle or slow-loris: no complete message within the
                    # read deadline — reap the connection.
                    self.connections_reaped += 1
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except asyncio.CancelledError:
                    break  # server shutdown: close the connection quietly
                except DeserializationError:
                    # The stream itself is unframed garbage (or claims an
                    # over-limit payload): reply once and drop the
                    # connection (resynchronization is impossible).
                    await self._send_best_effort(
                        writer,
                        protocol.encode_json_message(
                            protocol.MSG_ERROR,
                            {"status": "error", "kind": "DeserializationError",
                             "message": "malformed message framing"},
                        ),
                    )
                    break
                # The in-flight window spans dispatch *and* the reply write,
                # so the graceful drain only completes once acks are on the
                # wire — aborting the transports can never eat an ack.
                self._begin_request()
                try:
                    reply = await self._dispatch(message_type, payload)
                    writer.write(reply)
                    try:
                        if self._write_timeout is not None:
                            await asyncio.wait_for(
                                writer.drain(), timeout=self._write_timeout
                            )
                        else:
                            await writer.drain()
                    except asyncio.TimeoutError:
                        # Slow consumer: the client stopped reading replies.
                        self.connections_reaped += 1
                        break
                    except ConnectionError:
                        break
                finally:
                    self._end_request()
        finally:
            if task is not None:
                self._connections.discard(task)
            self._writers.discard(writer)
            # CancelledError is a BaseException: a task cancelled by shutdown
            # re-raises it from wait_closed(), so suppress it explicitly.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _send_best_effort(self, writer, reply: bytes) -> None:
        """Write one reply, swallowing transport errors (the peer may be gone)."""
        with contextlib.suppress(Exception):
            writer.write(reply)
            await writer.drain()

    def _overloaded_reply(self, message: str) -> bytes:
        return protocol.encode_json_message(
            protocol.MSG_OVERLOADED,
            {
                "status": "overloaded",
                "kind": "ServiceOverloadedError",
                "message": message,
                "retry_after": self._overload_retry_after,
            },
        )

    def _begin_request(self) -> None:
        self._inflight_requests += 1
        if self._idle is not None:
            self._idle.clear()

    def _end_request(self) -> None:
        self._inflight_requests -= 1
        if self._inflight_requests == 0 and self._idle is not None:
            self._idle.set()

    async def _dispatch(self, message_type: int, payload: bytes) -> bytes:
        """Route one request message to its handler; never raises."""
        try:
            if message_type == protocol.MSG_PUSH:
                return protocol.encode_json_message(
                    protocol.MSG_OK, await self._handle_push_async(payload)
                )
            if message_type == protocol.MSG_QUERY:
                body = protocol.decode_json_body(payload)
                return protocol.encode_json_message(protocol.MSG_OK, self._handle_query(body))
            if message_type == protocol.MSG_STATS:
                return protocol.encode_json_message(protocol.MSG_OK, self._handle_stats())
            if message_type == protocol.MSG_SNAPSHOT:
                return protocol.encode_json_message(
                    protocol.MSG_OK, await self._handle_snapshot_async()
                )
            if message_type == protocol.MSG_PING:
                return protocol.encode_json_message(protocol.MSG_OK, {"status": "ok"})
            raise IllegalArgumentError(f"unsupported request type 0x{message_type:02x}")
        except ServiceOverloadedError as error:
            return self._overloaded_reply(str(error))
        except ReproError as error:
            return protocol.encode_json_message(
                protocol.MSG_ERROR,
                {"status": "error", "kind": type(error).__name__, "message": str(error)},
            )
        except Exception as error:
            # A handler bug (or request shape the handlers did not
            # anticipate) must cost one ERROR reply, not the connection.
            return protocol.encode_json_message(
                protocol.MSG_ERROR,
                {
                    "status": "error",
                    "kind": "ServiceError",
                    "message": f"internal error: {type(error).__name__}: {error}",
                },
            )

    # ------------------------------------------------------------------ #
    # Push path
    # ------------------------------------------------------------------ #

    def _decode_push(self, payload: bytes) -> Tuple[PushEnvelope, "DecodedFrame"]:
        """Decode and validate one push payload, counting its bytes.

        Returns the envelope and its decoded frame.  Decoding the frame is
        the validation, and it happens once per push: the frame goes on to
        :meth:`ServiceState.apply`, which folds it in, building sketches
        only for the series it does not hold yet.  A frame
        whose dense stores would decode past the push bin budget (see
        :func:`~repro.serialization.frame.read_frame`), an envelope whose
        interval bucket a snapshot could not store, and a frame carrying a
        sketch its stored series cannot merge
        (:meth:`ServiceState.check_entries`) are rejected here, before they
        reach the log.
        """
        from repro.serialization.frame import read_frame

        envelope = decode_push_envelope(payload)
        self.state.envelope_bucket(envelope)
        entries = read_frame(envelope.frame, bin_budget=True)
        if envelope.sequence < 1:
            # Sequences are 1-based (the dedup watermark's zero state means
            # "nothing applied"); reject loudly rather than dedup silently.
            raise IllegalArgumentError(
                f"envelope sequence must be >= 1, got {envelope.sequence!r}"
            )
        self.state.check_entries(envelope, entries)
        self._bytes_received += len(payload)
        return envelope, entries

    def _duplicate_ack(self, envelope: PushEnvelope) -> Dict[str, Any]:
        self.state.duplicates_rejected += 1
        return {
            "status": "ok",
            "duplicate": True,
            "host": envelope.host,
            "sequence": envelope.sequence,
            "series": 0,
        }

    def _apply_decoded(self, envelope: PushEnvelope, entries: "DecodedFrame") -> Dict[str, Any]:
        """Fold one decoded (and already persisted) envelope into state."""
        series = self.state.apply(envelope, entries)
        self._frames_since_snapshot += 1
        return {
            "status": "ok",
            "duplicate": False,
            "host": envelope.host,
            "sequence": envelope.sequence,
            "series": series,
        }

    async def _handle_push_async(self, payload: bytes) -> Dict[str, Any]:
        """The wire push path: admission gate, dedup, executor append, apply.

        Appends run on the single-writer executor so one durable (possibly
        fsync-ed) push never stalls the event loop; because that executor
        has exactly one thread, append order is total, and because the loop
        resumes waiters in completion order, apply order equals append
        order — the bit-exact-replay invariant survives concurrency.
        """
        if self._inflight_pushes >= self._max_inflight_pushes:
            self.pushes_shed += 1
            raise ServiceOverloadedError(
                f"server at capacity ({self._max_inflight_pushes} in-flight pushes)",
                retry_after=self._overload_retry_after,
            )
        envelope, entries = self._decode_push(payload)
        if self.state.is_duplicate(envelope.host, envelope.sequence):
            return self._duplicate_ack(envelope)
        if envelope.identity in self._inflight_identities:
            # A retransmission raced its own original (e.g. via a second
            # connection): answering "duplicate" would claim the original
            # was applied before it durably was, so ask for a retry instead.
            raise ServiceOverloadedError(
                f"push {envelope.identity} is already in flight",
                retry_after=self._overload_retry_after,
            )
        self._inflight_pushes += 1
        self._inflight_identities.add(envelope.identity)
        try:
            if self.log is not None:
                if self._log_writer is not None:
                    loop = asyncio.get_running_loop()
                    self._last_applied_sequence = await loop.run_in_executor(
                        self._log_writer, self.log.append, payload
                    )
                else:
                    self._last_applied_sequence = self.log.append(payload)
            ack = self._apply_decoded(envelope, entries)
        finally:
            self._inflight_pushes -= 1
            self._inflight_identities.discard(envelope.identity)
        if (
            self._snapshot_every
            and self._frames_since_snapshot >= self._snapshot_every
            and not self._snapshot_in_progress
        ):
            await self._write_snapshot_async()
        return ack

    def _handle_push(self, payload: bytes) -> Dict[str, Any]:
        """Validate, dedup, persist, and apply one pushed envelope (sync path).

        The direct, single-threaded entry point used by tools and tests that
        drive a non-serving server; the wire path goes through
        :meth:`_handle_push_async` (admission gate + executor append).
        """
        envelope, entries = self._decode_push(payload)
        if self.state.is_duplicate(envelope.host, envelope.sequence):
            return self._duplicate_ack(envelope)
        if self.log is not None:
            self._last_applied_sequence = self.log.append(payload)
        ack = self._apply_decoded(envelope, entries)
        if self._snapshot_every and self._frames_since_snapshot >= self._snapshot_every:
            self._write_snapshot()
        return ack

    # ------------------------------------------------------------------ #
    # Queries / stats / snapshots
    # ------------------------------------------------------------------ #

    def _handle_query(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Answer a quantile query over the merged state or a time window."""
        try:
            metric = body["metric"]
            quantiles = body.get("quantiles", [0.5, 0.95, 0.99])
        except (KeyError, TypeError) as error:
            raise IllegalArgumentError(f"malformed query: {error}") from None
        if not isinstance(metric, str):
            raise IllegalArgumentError(f"query metric must be a string, got {metric!r}")
        if not isinstance(quantiles, list) or not quantiles:
            raise IllegalArgumentError("query quantiles must be a non-empty array")
        try:
            quantile_values = [_number(quantile) for quantile in quantiles]
        except (TypeError, OverflowError):
            raise IllegalArgumentError(
                f"query quantiles must be numbers, got {quantiles!r}"
            ) from None
        window_start = body.get("window_start")
        window_end = body.get("window_end")
        try:
            window_start = None if window_start is None else _number(window_start)
            window_end = None if window_end is None else _number(window_end)
        except (TypeError, OverflowError):
            raise IllegalArgumentError(
                "query window_start/window_end must be numbers, got "
                f"{body.get('window_start')!r}/{body.get('window_end')!r}"
            ) from None
        if body.get("threshold") is not None:
            try:
                threshold = _number(body["threshold"])
            except (TypeError, OverflowError):
                raise IllegalArgumentError(
                    f"query threshold must be a number, got {body.get('threshold')!r}"
                ) from None
            below = body.get("below", False)
            if not isinstance(below, bool):
                raise IllegalArgumentError(f"query below must be a boolean, got {below!r}")
            if body.get("tags") is not None:
                raise IllegalArgumentError(
                    "a threshold query selects series with tag_filter, not tags"
                )
            result = self.state.threshold_query(
                metric,
                quantile_values[0],
                threshold,
                above=not below,
                tag_filter=body.get("tag_filter"),
                window_start=window_start,
                window_end=window_end,
            )
            return {
                "status": "ok",
                "metric": metric,
                "quantile": quantile_values[0],
                "threshold": threshold,
                "above": result.above,
                "matches": [str(key) for key in result.matches],
                "total_series": result.total_series,
                "scanned": len(result.scanned),
                "pruned": result.pruned,
                "prune_rate": result.prune_rate,
            }
        values = self.state.quantiles(
            metric,
            quantile_values,
            tags=body.get("tags"),
            tag_filter=body.get("tag_filter"),
            window_start=window_start,
            window_end=window_end,
        )
        return {"status": "ok", "metric": metric, "quantiles": quantiles, "values": values}

    def _handle_stats(self) -> Dict[str, Any]:
        """The server's counters (state stats + wire/log/overload bookkeeping)."""
        stats: Dict[str, Any] = {"status": "ok"}
        stats.update(self.state.stats())
        stats["bytes_received"] = self._bytes_received
        stats["durable"] = self.log is not None
        stats["last_applied_sequence"] = self._last_applied_sequence
        stats["pushes_shed"] = self.pushes_shed
        stats["connections_shed"] = self.connections_shed
        stats["connections_reaped"] = self.connections_reaped
        stats["open_connections"] = len(self._connections)
        stats["inflight_pushes"] = self._inflight_pushes
        stats["max_inflight_pushes"] = self._max_inflight_pushes
        stats["max_connections"] = self._max_connections
        return stats

    async def _handle_snapshot_async(self) -> Dict[str, Any]:
        """Write a compacted snapshot on demand (no-op without a log)."""
        if self.log is None:
            return {"status": "ok", "snapshot": None}
        path = await self._write_snapshot_async()
        return {"status": "ok", "snapshot": path.name}

    async def _write_snapshot_async(self):
        """Snapshot with the file I/O on the log-writer executor.

        The state payload is captured on the event loop (no concurrent
        mutation), then persisted on the same single-writer thread that
        runs appends, so the log never sees two writers.
        """
        payload = self.state.to_snapshot()
        applied = self._last_applied_sequence
        self._snapshot_in_progress = True
        try:
            if self._log_writer is not None:
                loop = asyncio.get_running_loop()
                path = await loop.run_in_executor(
                    self._log_writer, self._persist_snapshot, payload, applied
                )
            else:
                path = self._persist_snapshot(payload, applied)
        finally:
            self._snapshot_in_progress = False
        self._frames_since_snapshot = 0
        return path

    def _persist_snapshot(self, payload: bytes, applied: int):
        path = self.log.write_snapshot(payload, applied=applied)
        self.log.compact(applied)
        return path

    def _write_snapshot(self):
        path = self._persist_snapshot(self.state.to_snapshot(), self._last_applied_sequence)
        self._frames_since_snapshot = 0
        return path


class ServerThread:
    """A running :class:`AggregationServer` on a background event loop."""

    def __init__(self, server: AggregationServer, thread: threading.Thread, loop) -> None:
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` of the running server."""
        return self.server.address

    def stop(self) -> None:
        """Stop the server (graceful drain) and join the background thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        """Context-manager entry: the handle itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: stop the server."""
        self.stop()


def _number(value: Any) -> float:
    """A JSON number of a query body as a float.

    Raises ``TypeError`` for anything else, a boolean included (``float``
    would read ``true`` as 1.0 and ``"3"`` as 3.0), and ``OverflowError``
    for an integer past the float range.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def serve_in_thread(**kwargs) -> ServerThread:
    """Start an :class:`AggregationServer` on a daemon thread; returns a handle.

    Accepts the :class:`AggregationServer` constructor arguments.  The
    returned :class:`ServerThread` is a context manager whose ``address``
    is ready immediately (startup — including log recovery — completes
    before this function returns; a startup failure is re-raised here).
    """
    server = AggregationServer(**kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: List[BaseException] = []

    async def _main() -> None:
        try:
            await server.start()
        except BaseException as error:  # startup failures surface to the caller
            failure.append(error)
            started.set()
            return
        started.set()
        await server.serve_until_stopped()

    def _runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(_main())
        finally:
            loop.close()

    thread = threading.Thread(target=_runner, name="aggregation-server", daemon=True)
    thread.start()
    started.wait(timeout=30)
    if failure:
        thread.join(timeout=5)
        raise failure[0]
    return ServerThread(server, thread, loop)
