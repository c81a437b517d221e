"""Blocking client of the aggregation service.

:class:`ServiceClient` is the agent-side half of the cross-process
transport: it connects to one :class:`~repro.service.server.AggregationServer`
over TCP, wraps frame-v3 payloads in push envelopes
(:mod:`repro.service.protocol`), and assigns per-host sequence numbers so
the server can deduplicate retransmissions.  The delivery contract:

* **at-least-once on the wire** — :meth:`ServiceClient.push_frame` retries
  a timed-out push with the *same* sequence number;
* **exactly-once in state** — the server applies each ``(host, sequence)``
  identity at most once, so retries (and crash/replay cycles) never double
  count.

The client is also a good citizen of a struggling server:

* retries use **exponential backoff with decorrelated jitter** (a fleet of
  agents de-synchronizes instead of thundering back in lockstep), and an
  ``OVERLOADED`` reply's ``retry_after`` hint sets the floor of the next
  delay;
* an optional **per-call deadline budget** bounds the total time one call
  may spend across connects, retries, and backoff sleeps;
* an optional **circuit breaker** opens after ``breaker_threshold``
  consecutive transport failures: calls then fail fast with
  :class:`~repro.exceptions.CircuitOpenError` (no socket I/O) until a
  cooldown elapses and a half-open ``PING`` probe proves the server back.

Error replies re-raise as the library's own exception types: a query against
an unknown metric raises :class:`~repro.exceptions.EmptySketchError` exactly
as the in-process registry would — the service boundary does not change the
error contract.  Load shedding surfaces as
:class:`~repro.exceptions.ServiceOverloadedError` (after retries are
exhausted), never as a silent hang.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.exceptions import (
    CircuitOpenError,
    DeserializationError,
    EmptySketchError,
    IllegalArgumentError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    UnequalSketchParametersError,
)
from repro.registry.series import TagsLike, normalize_tags
from repro.service import protocol

_ERROR_KINDS = {
    "EmptySketchError": EmptySketchError,
    "IllegalArgumentError": IllegalArgumentError,
    "DeserializationError": DeserializationError,
    "UnequalSketchParametersError": UnequalSketchParametersError,
}

#: Exceptions that mean "the transport failed", as opposed to the server
#: rejecting the request: these are retried, count toward the circuit
#: breaker, and never carry application meaning.
_TRANSPORT_ERRORS = (socket.timeout, ConnectionError, OSError, DeserializationError)


class ServiceClient:
    """A blocking, thread-safe connection to the aggregation server.

    Parameters
    ----------
    host / port:
        The server's listen address (``server.address`` of a started
        :class:`~repro.service.server.AggregationServer`).
    timeout:
        Socket timeout in seconds for each request/response round trip.
    retries:
        How many times a failed push is retransmitted (with the same
        sequence number, so the server's dedup keeps it exactly-once).
    deadline:
        Overall per-call time budget in seconds, covering every connect,
        attempt, and backoff sleep of one :meth:`push_frame` (or other
        retried call).  ``None`` (the default) bounds each attempt only by
        ``timeout``.
    backoff_base / backoff_cap:
        Decorrelated-jitter retry delays: each sleep is drawn uniformly
        from ``[backoff_base, 3 * previous]`` and clamped to
        ``backoff_cap`` — and never below the ``retry_after`` hint of an
        ``OVERLOADED`` reply.
    breaker_threshold:
        Consecutive transport failures that open the circuit breaker;
        ``0`` (the default) disables the breaker entirely.
    breaker_cooldown:
        Seconds the breaker stays open before a half-open ``PING`` probe
        is allowed to test the server.
    rng:
        Source of jitter (``random.Random``); injectable for deterministic
        tests.

    One socket serves all calls; a lock serializes request/response pairs so
    the client may be shared across producer threads.  The connection is
    dialed lazily on the first request, so constructing a client while the
    server is down is not an error — the first call (not the constructor)
    reports the outage.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retries: int = 2,
        deadline: Optional[float] = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        breaker_threshold: int = 0,
        breaker_cooldown: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if retries < 0:
            raise IllegalArgumentError(f"retries must be non-negative, got {retries!r}")
        if deadline is not None and deadline <= 0:
            raise IllegalArgumentError(f"deadline must be positive or None, got {deadline!r}")
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise IllegalArgumentError(
                f"backoff range [{backoff_base!r}, {backoff_cap!r}] is not valid"
            )
        if breaker_threshold < 0:
            raise IllegalArgumentError(
                f"breaker_threshold must be non-negative, got {breaker_threshold!r}"
            )
        if breaker_cooldown <= 0:
            raise IllegalArgumentError(
                f"breaker_cooldown must be positive, got {breaker_cooldown!r}"
            )
        self._address = (host, int(port))
        self._timeout = float(timeout)
        self._retries = int(retries)
        self._deadline = None if deadline is None else float(deadline)
        self._backoff_base = float(backoff_base)
        self._backoff_cap = float(backoff_cap)
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_cooldown = float(breaker_cooldown)
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self._sequences: Dict[str, int] = {}
        self._socket: Optional[socket.socket] = None
        self._consecutive_failures = 0
        self._breaker_open_until: Optional[float] = None
        self._counters: Dict[str, int] = {
            "retries": 0,
            "transport_failures": 0,
            "overloads": 0,
            "breaker_opens": 0,
            "breaker_fast_fails": 0,
        }

    def _connect(self) -> None:
        self._socket = socket.create_connection(self._address, timeout=self._timeout)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        """Close the connection (idempotent); the next request redials."""
        if self._socket is not None:
            try:
                self._socket.close()
            finally:
                self._socket = None

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry: the client itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    @property
    def counters(self) -> Dict[str, int]:
        """A snapshot of this client's resilience counters.

        Keys: ``retries`` (re-attempts after the first), ``transport_failures``,
        ``overloads`` (``OVERLOADED`` replies received), ``breaker_opens``, and
        ``breaker_fast_fails`` (calls refused while the breaker was open).
        """
        with self._lock:
            return dict(self._counters)

    # ------------------------------------------------------------------ #
    # Request plumbing
    # ------------------------------------------------------------------ #

    def _wire_request(self, message_type: int, payload: bytes, timeout: float) -> Tuple[int, bytes]:
        """One socket-level round trip (connect lazily, send, read reply)."""
        if self._socket is None:
            self._connect()
        return protocol.request(self._socket, message_type, payload, timeout=timeout)

    def _request(self, message_type: int, payload: bytes, retry: bool) -> Dict[str, Any]:
        """One request/response round trip with backoff, deadline, breaker."""
        attempts = self._retries + 1 if retry else 1
        deadline_at = None if self._deadline is None else time.monotonic() + self._deadline
        last_error: Optional[Exception] = None
        with self._lock:
            self._check_breaker()
            backoff = self._backoff_base
            for attempt in range(attempts):
                if attempt:
                    self._counters["retries"] += 1
                remaining = self._remaining(deadline_at)
                if remaining is not None and remaining <= 0:
                    break
                attempt_timeout = (
                    self._timeout if remaining is None else min(self._timeout, remaining)
                )
                try:
                    reply_type, reply = self._wire_request(message_type, payload, attempt_timeout)
                except _TRANSPORT_ERRORS as error:
                    # Request payloads are encoded (and validated) before
                    # `_request` is entered, so a DeserializationError here
                    # means a garbled reply stream — a transport failure,
                    # retried like a dropped connection.  Application errors
                    # surface from `_unwrap` below, outside this handler, so
                    # a server-reported DeserializationError is never eaten
                    # by the retry loop.
                    last_error = error
                    self.close()
                    if self._record_failure():
                        break  # the breaker just opened: stop hammering
                    backoff = self._sleep_backoff(backoff, deadline_at)
                    if backoff is None:
                        break
                    continue
                self._record_success()
                try:
                    return self._unwrap(reply_type, reply)
                except ServiceOverloadedError as error:
                    # The server is healthy but shedding: honor its
                    # retry_after hint as the floor of the next delay.  Not
                    # a transport failure — the breaker stays closed.
                    self._counters["overloads"] += 1
                    last_error = error
                    if attempt + 1 >= attempts:
                        raise
                    backoff = self._sleep_backoff(
                        backoff, deadline_at, minimum=error.retry_after
                    )
                    if backoff is None:
                        break
                    continue
        if isinstance(last_error, ServiceOverloadedError):
            raise last_error
        raise ServiceError(
            f"request to {self._address[0]}:{self._address[1]} failed "
            f"after {attempts} attempt(s): {last_error}"
        ) from last_error

    def _remaining(self, deadline_at: Optional[float]) -> Optional[float]:
        return None if deadline_at is None else deadline_at - time.monotonic()

    def _sleep_backoff(
        self, previous: float, deadline_at: Optional[float], minimum: float = 0.0
    ) -> Optional[float]:
        """Sleep one decorrelated-jitter delay; ``None`` when it would bust the deadline."""
        delay = min(self._backoff_cap, self._rng.uniform(self._backoff_base, previous * 3))
        delay = max(delay, float(minimum))
        remaining = self._remaining(deadline_at)
        if remaining is not None and delay >= remaining:
            return None
        time.sleep(delay)
        return delay

    # -- circuit breaker ------------------------------------------------ #

    def _record_failure(self) -> bool:
        """Count one transport failure; True when it just opened the breaker."""
        self._counters["transport_failures"] += 1
        self._consecutive_failures += 1
        if (
            self._breaker_threshold
            and self._consecutive_failures >= self._breaker_threshold
            and self._breaker_open_until is None
        ):
            self._breaker_open_until = time.monotonic() + self._breaker_cooldown
            self._counters["breaker_opens"] += 1
            return True
        return False

    def _record_success(self) -> None:
        self._consecutive_failures = 0
        self._breaker_open_until = None

    def _check_breaker(self) -> None:
        """Fail fast while the breaker is open; probe half-open after cooldown."""
        if self._breaker_open_until is None:
            return
        now = time.monotonic()
        if now < self._breaker_open_until:
            self._counters["breaker_fast_fails"] += 1
            raise CircuitOpenError(
                f"circuit breaker to {self._address[0]}:{self._address[1]} is open "
                f"for another {self._breaker_open_until - now:.2f}s"
            )
        # Half-open: one PING probe decides.  Any reply — even OVERLOADED —
        # proves the server is back; only a transport failure re-opens.
        try:
            reply_type, reply = self._wire_request(protocol.MSG_PING, b"", self._timeout)
            self._unwrap(reply_type, reply)
        except ServiceOverloadedError:
            pass
        except (ServiceError,) + _TRANSPORT_ERRORS as error:
            self.close()
            self._breaker_open_until = time.monotonic() + self._breaker_cooldown
            raise CircuitOpenError(
                f"half-open probe of {self._address[0]}:{self._address[1]} failed "
                f"({error}); breaker re-opened"
            ) from error
        self._record_success()

    @staticmethod
    def _unwrap(reply_type: int, reply: bytes) -> Dict[str, Any]:
        try:
            body = protocol.decode_json_body(reply)
        except DeserializationError as error:
            raise ServiceError(f"the server sent a garbled reply: {error}") from error
        if reply_type == protocol.MSG_OK:
            return body
        if reply_type == protocol.MSG_OVERLOADED:
            raise ServiceOverloadedError(
                body.get("message", "the server shed the request"),
                retry_after=body.get("retry_after", 0.0),
            )
        if reply_type == protocol.MSG_ERROR:
            kind = body.get("kind", "ServiceError")
            message = body.get("message", "the server rejected the request")
            raise _ERROR_KINDS.get(kind, ServiceError)(message)
        raise ServiceError(f"unexpected reply type 0x{reply_type:02x}")

    # ------------------------------------------------------------------ #
    # Pushes
    # ------------------------------------------------------------------ #

    def next_sequence(self, host: str) -> int:
        """The sequence number the next pushed frame for ``host`` will get."""
        with self._lock:
            return self._sequences.get(host, 0) + 1

    def build_envelope(
        self,
        frame: bytes,
        host: str,
        interval_start: float = 0.0,
        sequence: Optional[int] = None,
    ) -> bytes:
        """Encode a push envelope, reserving its per-host sequence number.

        The returned bytes carry a fixed ``(host, sequence)`` identity, so
        they may be pushed now (:meth:`push_envelope`), spooled to disk for
        later (:class:`~repro.service.FrameSpool`), or retransmitted any
        number of times — the server applies the identity at most once.
        """
        host = str(host)
        with self._lock:
            if sequence is None:
                sequence = self._sequences.get(host, 0) + 1
            self._sequences[host] = max(self._sequences.get(host, 0), int(sequence))
        return protocol.encode_push_envelope(
            frame, host=host, sequence=sequence, interval_start=interval_start
        )

    def push_envelope(self, envelope: bytes) -> Dict[str, Any]:
        """Push one already-encoded envelope (see :meth:`build_envelope`)."""
        return self._request(protocol.MSG_PUSH, bytes(envelope), retry=True)

    def push_frame(
        self,
        frame: bytes,
        host: str,
        interval_start: float = 0.0,
        sequence: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Push one frame-v3 payload; returns the server's acknowledgement.

        ``sequence`` defaults to a per-host counter maintained by this
        client; pass it explicitly to retransmit a specific identity or to
        coordinate sequences across client instances.  The counter is
        reserved under the client lock *before* the send, so concurrent
        same-host pushes never share an identity, and a push that exhausts
        its retries burns its sequence — the server may have applied the
        frame without the ACK arriving, so reusing that identity for a
        *different* frame would be silently deduplicated away.  The
        acknowledgement carries ``duplicate: True`` when the server had
        already applied this ``(host, sequence)``.
        """
        envelope = self.build_envelope(
            frame, host=host, interval_start=interval_start, sequence=sequence
        )
        return self._request(protocol.MSG_PUSH, envelope, retry=True)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query_quantiles(
        self,
        metric: str,
        quantiles: Sequence[float],
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
        window_start: Optional[float] = None,
        window_end: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Quantiles of a metric on the server (merged or windowed).

        Mirrors :meth:`repro.registry.SketchRegistry.quantiles`: ``tags``
        addresses one exact series, ``tag_filter`` the merge of matching
        series, neither the whole metric.  Raises
        :class:`~repro.exceptions.EmptySketchError` when nothing matches, and
        :class:`~repro.exceptions.IllegalArgumentError`, before any request,
        for ``tags`` or ``tag_filter`` that
        :func:`~repro.registry.series.normalize_tags` refuses.
        """
        body: Dict[str, Any] = {
            "metric": metric,
            "quantiles": [float(quantile) for quantile in quantiles],
        }
        if tags is not None:
            body["tags"] = dict(normalize_tags(tags))
        if tag_filter is not None:
            body["tag_filter"] = dict(normalize_tags(tag_filter))
        if window_start is not None:
            body["window_start"] = float(window_start)
        if window_end is not None:
            body["window_end"] = float(window_end)
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        return self._request(protocol.MSG_QUERY, payload, retry=False)

    def query_threshold(
        self,
        metric: str,
        quantile: float,
        threshold: float,
        above: bool = True,
        tag_filter: TagsLike = None,
        window_start: Optional[float] = None,
        window_end: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Which series' ``quantile`` estimate passes ``threshold`` on the server?

        The wire form of :meth:`repro.registry.SketchRegistry.threshold_query`
        (:meth:`repro.service.ServiceState.threshold_query` on the server,
        over its merged registry or the window's buckets): the server
        prunes its series population from cheap sketch bounds and scans
        only the stragglers.  The reply carries the matching series
        (string form), the population size, and the prune rate.  A
        ``tag_filter`` that :func:`~repro.registry.series.normalize_tags`
        refuses raises :class:`~repro.exceptions.IllegalArgumentError`
        before any request.
        """
        body: Dict[str, Any] = {
            "metric": metric,
            "quantiles": [float(quantile)],
            "threshold": float(threshold),
        }
        if not above:
            body["below"] = True
        if tag_filter is not None:
            body["tag_filter"] = dict(normalize_tags(tag_filter))
        if window_start is not None:
            body["window_start"] = float(window_start)
        if window_end is not None:
            body["window_end"] = float(window_end)
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        return self._request(protocol.MSG_QUERY, payload, retry=False)

    def stats(self) -> Dict[str, Any]:
        """The server's counters (series, counts, dedup, bytes, log position)."""
        return self._request(protocol.MSG_STATS, b"", retry=False)

    def ping(self) -> bool:
        """Round-trip liveness check; ``False`` on any failure, never raises.

        A dead, unreachable, or breaker-isolated server answers ``False``
        instead of raising :class:`~repro.exceptions.ServiceError` — a
        liveness probe that throws is just a slower way of saying no.
        """
        try:
            return self._request(protocol.MSG_PING, b"", retry=False).get("status") == "ok"
        except ServiceError:
            return False

    def snapshot(self) -> Dict[str, Any]:
        """Ask the server to write a compacted snapshot now."""
        return self._request(protocol.MSG_SNAPSHOT, b"", retry=False)

    def __repr__(self) -> str:
        return f"ServiceClient(address={self._address[0]}:{self._address[1]})"
