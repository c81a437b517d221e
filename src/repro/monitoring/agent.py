"""Per-container metric agent.

A :class:`MetricAgent` is the component running next to the application code
in the paper's motivating scenario (Section 1, Figure 1): it records raw
measurements into local sketches and, once per flush interval, emits the
serialized state together with routing metadata and resets.  Because the
sketch is fully mergeable (Section 2.1), the monitoring backend can combine
payloads from any number of agents and flush intervals without losing the
accuracy guarantee.

The agent is built on a :class:`~repro.registry.SketchRegistry`, so every
metric may fan out into many tagged series (host/endpoint/status, …).
High-rate sources hand it whole arrays via :meth:`MetricAgent.record_batch`
(one series) or :meth:`MetricAgent.record_grouped` (columnar batches across
many series, ingested through the grouped ``bincount`` pipeline), and a
flush can ship the entire series population as **one** multi-sketch wire
frame (:meth:`MetricAgent.flush_frame`) instead of one payload per series.

An agent is single-writer, like the registry it wraps.  To use more cores,
run one agent per process, each with its own ``host``, all pushing to one
aggregation server: the server deduplicates pushes by ``(host, sequence)``
and full mergeability makes the merged state independent of how the values
were split across agents.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.ddsketch import BaseDDSketch, DDSketch
from repro.exceptions import IllegalArgumentError, ServiceError
from repro.registry import SeriesKey, SketchRegistry
from repro.registry.series import SeriesLike, TagsLike
from repro.serialization.frame import compress_frame, encode_frame, split_for_push


@dataclass(frozen=True)
class SketchPayload:
    """One flushed series as it would travel to the monitoring backend."""

    host: str
    metric: str
    interval_start: float
    interval_length: float
    payload: bytes
    tags: Tuple[Tuple[str, str], ...] = field(default=())

    @property
    def series_key(self) -> SeriesKey:
        """The tagged series identity this payload belongs to."""
        return SeriesKey(self.metric, self.tags)

    def decode(self) -> BaseDDSketch:
        """Deserialize the sketch carried by this payload."""
        return BaseDDSketch.from_bytes(self.payload)

    @property
    def size_in_bytes(self) -> int:
        """Number of bytes this payload puts on the wire."""
        return len(self.payload)


@dataclass(frozen=True)
class FramePayload:
    """A whole flushed series population in one multi-sketch wire frame."""

    host: str
    interval_start: float
    interval_length: float
    payload: bytes
    num_series: int

    def decode(self) -> List[Tuple[SeriesKey, BaseDDSketch]]:
        """Deserialize every ``(series, sketch)`` pair carried by this frame."""
        from repro.serialization.frame import decode_frame

        return decode_frame(self.payload)

    @property
    def size_in_bytes(self) -> int:
        """Number of bytes this frame puts on the wire."""
        return len(self.payload)


class MetricAgent:
    """Records values for tagged series and flushes sketches per interval.

    Parameters
    ----------
    host:
        Identifier of the container/host this agent runs on.
    sketch_factory:
        Zero-argument callable creating a fresh sketch for each series and
        interval; defaults to the paper's configuration
        (``DDSketch(relative_accuracy=0.01)``).
    interval_length:
        Length of a flush interval in seconds (only recorded in the payload
        metadata; the agent itself is driven explicitly via :meth:`flush`).
    """

    def __init__(
        self,
        host: str,
        sketch_factory: Optional[Callable[[], BaseDDSketch]] = None,
        interval_length: float = 1.0,
    ) -> None:
        if interval_length <= 0:
            raise IllegalArgumentError(f"interval_length must be positive, got {interval_length!r}")
        self._host = str(host)
        self._interval_length = float(interval_length)
        self._registry = SketchRegistry(
            sketch_factory=sketch_factory or (lambda: DDSketch(relative_accuracy=0.01))
        )
        self._records = 0
        # The agent is single-writer, but this read-modify-write counter
        # stays exact even if a caller records from a second thread.
        self._records_lock = threading.Lock()

    @property
    def host(self) -> str:
        """Identifier of the host this agent runs on."""
        return self._host

    @property
    def interval_length(self) -> float:
        """Flush interval length in seconds."""
        return self._interval_length

    @property
    def registry(self) -> SketchRegistry:
        """The registry holding this agent's unflushed series."""
        return self._registry

    @property
    def pending_metrics(self) -> List[str]:
        """Metrics with unflushed data."""
        return self._registry.metrics()

    @property
    def pending_series(self) -> List[SeriesKey]:
        """Tagged series with unflushed data, in sorted order."""
        return self._registry.series_keys()

    @property
    def records_since_flush(self) -> int:
        """Number of values recorded since the last flush."""
        return self._records

    def record(
        self, metric: SeriesLike, value: float, weight: float = 1.0, tags: TagsLike = None
    ) -> None:
        """Record one measurement for a (possibly tagged) series."""
        self._registry.add(metric, value, weight, tags=tags)
        with self._records_lock:
            self._records += 1

    def record_batch(
        self,
        metric: SeriesLike,
        values: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        tags: TagsLike = None,
    ) -> None:
        """Record a whole array of measurements for one series at once.

        Equivalent to calling :meth:`record` for every element, but ingested
        through the sketch's vectorized ``add_batch`` path — the natural
        interface for agents that drain an instrumentation buffer per tick
        rather than intercepting requests one by one.
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            return
        self._registry.add_batch(metric, values, weights, tags=tags)
        with self._records_lock:
            self._records += int(values.size)

    def record_grouped(
        self,
        series: Sequence[SeriesLike],
        group_indices: "np.ndarray",
        values: "np.ndarray",
        weights: Optional[Union[float, "np.ndarray"]] = None,
    ) -> int:
        """Record one columnar batch across many series at once.

        ``series`` lists one (possibly tagged) series per group and
        ``group_indices`` maps each sample to a position in that list; the
        batch flows through the registry's grouped ``bincount`` pipeline.
        Returns the number of samples recorded.
        """
        recorded = self._registry.ingest_grouped(series, group_indices, values, weights)
        with self._records_lock:
            self._records += recorded
        return recorded

    def flush(self, interval_start: float) -> List[SketchPayload]:
        """Serialize and return the pending series, then reset local state.

        Returns one payload per series that received data during the
        interval, in sorted series order; an agent with no data returns an
        empty list (transient containers that served no request send
        nothing, as in the paper's deployment).
        """
        payloads = [
            SketchPayload(
                host=self._host,
                metric=key.metric,
                interval_start=float(interval_start),
                interval_length=self._interval_length,
                payload=sketch.to_bytes(),
                tags=key.tags,
            )
            for key, sketch in self._registry
        ]
        self._registry.clear()
        self._records = 0
        return payloads

    def flush_frame(self, interval_start: float) -> Optional[FramePayload]:
        """Serialize every pending series into **one** wire frame, then reset.

        The high-cardinality flush: thousands of series leave in a single
        length-prefixed payload (format v3) instead of one payload each.
        Returns ``None`` when the agent holds no data.
        """
        num_series = self._registry.num_series
        if num_series == 0:
            return None
        frame = self._registry.flush_frame()
        self._records = 0
        return FramePayload(
            host=self._host,
            interval_start=float(interval_start),
            interval_length=self._interval_length,
            payload=frame,
            num_series=num_series,
        )

    def push_frames(
        self, client, interval_start: float, spool=None, compression: str = "none"
    ) -> List[dict]:
        """Flush the pending series and push them to an aggregation service.

        The cross-process flush: the agent's series population leaves as
        one frame-v3 payload (the bytes of :meth:`flush_frame`) and travels
        through ``client`` — a :class:`~repro.service.ServiceClient`
        connected to a running :class:`~repro.service.AggregationServer` —
        which wraps the frame in a push envelope carrying this agent's host
        identity and a deduplicating sequence number.  Series whose bins
        would decode past the server's per-push budget leave in several
        frames instead, each within it
        (:func:`~repro.serialization.frame.split_for_push`).  Returns the
        server's acknowledgements, one per frame; an agent with no data
        pushes nothing and returns an empty list.  The client retransmits
        timed-out pushes with the same sequence number and the server
        deduplicates, so retries never double count.

        Without a ``spool``, a push that still fails after its retries
        raises :class:`~repro.exceptions.ServiceError` (local state was
        already reset by the flush — treat an unrecoverable transport
        failure as dropped samples, exactly like a lost UDP flush in the
        paper's deployment).  With a
        :class:`~repro.service.FrameSpool`, the failed envelope is spooled
        to disk instead — its acknowledgement entry reads ``{"status":
        "spooled", ...}`` — and any envelopes already spooled are drained
        first, so frames from a past outage arrive before this interval's.
        An envelope the spool's byte budget forces out is *counted* in the
        spool's ``frames_dropped``, never lost silently.

        ``compression`` (``"none"``/``"zlib"``/``"zstd"``) wraps the frame
        in the compressed envelope of
        :func:`repro.serialization.frame.compress_frame` before it enters
        the push envelope; the server decodes either form transparently,
        and spooled envelopes keep their compressed body on disk.
        """
        if spool is not None and spool.pending:
            # Recovery path first: older spooled envelopes should land
            # before this interval's frame.  A still-down server just
            # leaves them spooled for the next flush.
            try:
                spool.drain(client.push_envelope)
            except ServiceError:
                pass
        if self._registry.num_series == 0:
            return []
        frames = [encode_frame(run) for run in split_for_push(self._registry)]
        self._registry.clear()
        self._records = 0
        acks = []
        for frame in frames:
            envelope = client.build_envelope(
                compress_frame(frame, compression),
                host=self._host,
                interval_start=float(interval_start),
            )
            try:
                acks.append(client.push_envelope(envelope))
            except ServiceError:
                if spool is None:
                    raise
                spooled = spool.offer(envelope)
                acks.append(
                    {
                        "status": "spooled" if spooled else "dropped",
                        "host": self._host,
                        "spooled": spooled,
                    }
                )
        return acks

    def __repr__(self) -> str:
        return f"MetricAgent(host={self._host!r}, pending_metrics={self.pending_metrics})"
