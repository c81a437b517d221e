"""Shared helpers for the aggregation-service test harness.

Importable from any test module (pytest puts ``tests/`` on ``sys.path``):
fault-injection file objects for the segment log's ``file_factory`` seam,
an in-process TCP chaos proxy (latency, black-holes, resets, partial
writes), frame/envelope builders, and a reference-state helper that mirrors
what an uncrashed server would hold.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np

from repro.core.ddsketch import DDSketch
from repro.registry import SketchRegistry
from repro.service.client import ServiceClient
from repro.service.protocol import encode_push_envelope
from repro.service.state import ServiceState


class SimulatedCrash(Exception):
    """Raised by a :class:`TornWriteFile` at its configured kill point."""


class TornWriteFile:
    """A file wrapper that dies mid-``write`` after a byte budget.

    Once cumulative written bytes would exceed ``budget``, the write that
    crosses the line lands only partially (the prefix up to the budget is
    written and flushed — the bytes the OS had already accepted when the
    process was killed) and :class:`SimulatedCrash` is raised.  This is the
    torn-write fault the segment log's CRC must catch on replay.
    """

    def __init__(self, raw, budget: int, counter: dict) -> None:
        self._raw = raw
        self._budget = int(budget)
        self._counter = counter

    def write(self, data: bytes) -> int:
        remaining = self._budget - self._counter["written"]
        if len(data) > remaining:
            self._raw.write(data[:remaining])
            self._raw.flush()
            self._counter["written"] = self._budget
            raise SimulatedCrash(
                f"killed after {self._budget} bytes ({len(data) - remaining} bytes torn off)"
            )
        self._raw.write(data)
        self._counter["written"] += len(data)
        return len(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


def torn_write_factory(budget: int):
    """A ``file_factory`` for :class:`~repro.service.SegmentLog` that tears
    the write crossing ``budget`` cumulative bytes (across all segments)."""
    counter = {"written": 0}

    def _open(path, mode):
        return TornWriteFile(open(path, mode), budget, counter)

    return _open


class SlowWriteFile:
    """A file wrapper that sleeps before every write — a slow disk.

    Used as the server's ``log_file_factory`` to make durable appends take
    long enough for overload tests to observe admission-gate behavior and
    event-loop responsiveness deterministically.
    """

    def __init__(self, raw, delay: float) -> None:
        self._raw = raw
        self._delay = float(delay)

    def write(self, data: bytes) -> int:
        time.sleep(self._delay)
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


def slow_write_factory(delay: float):
    """A ``file_factory`` whose files sleep ``delay`` seconds per write."""

    def _open(path, mode):
        return SlowWriteFile(open(path, mode), delay)

    return _open


def free_port() -> int:
    """A TCP port that was just free (bind-then-release; fine for tests)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


class ChaosProxy:
    """An in-process TCP proxy that injects network faults on demand.

    Sits between a client and the aggregation server, forwarding bytes in
    both directions through pump threads.  Faults are plain attributes,
    adjustable at runtime:

    * ``latency`` — seconds slept before forwarding each chunk;
    * ``blackhole`` — when true, bytes are read and silently discarded in
      both directions (the peer sees a connection that never answers);
    * ``chunk_size`` — forward at most this many bytes per send with a
      tiny pause between chunks (partial writes / fragmentation).

    :meth:`reset_all` hard-resets every proxied connection (RST via
    ``SO_LINGER``), and :meth:`close` tears the whole proxy down.
    """

    def __init__(self, upstream_host: str, upstream_port: int) -> None:
        self._upstream = (upstream_host, int(upstream_port))
        self.latency = 0.0
        self.blackhole = False
        self.chunk_size = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(32)
        self._closed = False
        self._lock = threading.Lock()
        self._sockets = []  # every socket belonging to a proxied pair
        self._accepter = threading.Thread(target=self._accept_loop, daemon=True)
        self._accepter.start()

    @property
    def address(self):
        """The ``(host, port)`` clients should dial instead of the server."""
        return self._listener.getsockname()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return
            try:
                upstream = socket.create_connection(self._upstream, timeout=5.0)
            except OSError:
                downstream.close()
                continue
            with self._lock:
                self._sockets.extend((downstream, upstream))
            for source, sink in ((downstream, upstream), (upstream, downstream)):
                threading.Thread(
                    target=self._pump, args=(source, sink), daemon=True
                ).start()

    def _pump(self, source: socket.socket, sink: socket.socket) -> None:
        while True:
            try:
                data = source.recv(65536)
            except OSError:
                break
            if not data:
                break
            if self.blackhole:
                continue  # swallow the bytes: the peer waits forever
            if self.latency:
                time.sleep(self.latency)
            try:
                if self.chunk_size:
                    for start in range(0, len(data), self.chunk_size):
                        sink.sendall(data[start : start + self.chunk_size])
                        time.sleep(0.001)
                else:
                    sink.sendall(data)
            except OSError:
                break
        for side in (source, sink):
            try:
                side.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def reset_all(self) -> None:
        """Hard-reset (RST) every currently proxied connection."""
        with self._lock:
            victims, self._sockets = self._sockets, []
        for sock in victims:
            try:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        """Stop accepting and tear down every proxied connection."""
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        self.reset_all()

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RecordingClient(ServiceClient):
    """A service client that records push envelopes instead of sending them.

    It never connects: envelopes are built (reserving per-host sequence
    numbers) exactly as for a live server and kept in ``envelopes``.
    """

    def __init__(self) -> None:
        super().__init__("127.0.0.1", 0)
        self.envelopes = []

    def push_envelope(self, envelope: bytes) -> dict:
        self.envelopes.append(bytes(envelope))
        return {"status": "ok"}


def make_frame(values, metric: str = "latency", tags=None, relative_accuracy: float = 0.01):
    """One frame-v3 payload holding a single sketched series."""
    registry = SketchRegistry(
        sketch_factory=lambda: DDSketch(relative_accuracy=relative_accuracy)
    )
    registry.add_batch(metric, np.asarray(values, dtype=np.float64), tags=tags)
    return registry.flush_frame()


def make_envelope(
    values,
    host: str = "host-a",
    sequence: int = 1,
    interval_start: float = 0.0,
    metric: str = "latency",
    tags=None,
):
    """One serialized push envelope around a single-series frame."""
    return encode_push_envelope(
        make_frame(values, metric=metric, tags=tags),
        host=host,
        sequence=sequence,
        interval_start=interval_start,
    )


def reference_state(envelopes, **state_kwargs) -> ServiceState:
    """The uncrashed reference: every envelope applied in order, in memory."""
    state = ServiceState(**state_kwargs)
    for payload in envelopes:
        state.apply_envelope_bytes(payload)
    return state
