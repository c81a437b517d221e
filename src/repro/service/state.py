"""In-memory state of the aggregation service, deterministically rebuildable.

:class:`ServiceState` is everything the server knows, expressed so that
*applying the same accepted envelopes in the same order always produces the
same bytes*: recovery replays the segment log and must land on a registry
whose :meth:`~repro.registry.SketchRegistry.to_frame` output is bit-identical
to the pre-crash server's (the mergeability claim of paper Section 2.1,
extended across process restarts).  It holds:

* the **merged registry** — every accepted frame folded into one
  :class:`~repro.registry.SketchRegistry` (the all-time quantile surface);
* **windowed retention** — one columnar bucket store per flush-interval
  bucket (:class:`~repro.service.buckets.BucketStore`: every series' store
  windows in one cell buffer, one row of columns per series), bounded to
  the newest ``retention_intervals`` buckets, for "p99 over the last N
  intervals" queries without keeping unbounded history;
* the **deduplication table** — a per-host high-watermark (every 1-based
  sequence ``<= watermark`` was applied) plus a bounded set of
  out-of-order sequences above it, so a retransmitted ``(host,
  sequence)`` identity is applied at most once (clients get
  at-least-once delivery, state gets exactly-once application) while the
  table stays O(hosts), not O(frames ever applied): client sequences are
  monotonic per host, so the watermark absorbs the contiguous prefix and
  only in-flight reordering occupies memory.

The whole state round-trips through an opaque snapshot payload
(:meth:`ServiceState.to_snapshot` / :meth:`ServiceState.from_snapshot`)
that the segment log persists and CRC-checks; snapshot-then-replay is part
of the bit-exactness contract and is pinned by
``tests/test_service_recovery.py``.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional, Sequence, Set

from repro.exceptions import DeserializationError, EmptySketchError, IllegalArgumentError
from repro.registry import SketchRegistry, ThresholdResult, check_entries, merge_entries_into
from repro.registry.registry import (
    Entries, check_quantile_read, no_data, quantile_values,
)
from repro.registry.series import SeriesKey, TagsLike
from repro.serialization.encoding import (
    VarintReader,
    encode_varint,
    encode_zigzag,
)
from repro.service.buckets import BucketStore, fold_series
from repro.service.protocol import PushEnvelope, decode_push_envelope

_SNAPSHOT_STATE_VERSION = 2

#: Envelope buckets ``floor(interval_start / interval_length)`` must lie in
#: ``[-2**63, 2**63)``: snapshots store them as zig-zag varints, which
#: ``decode_varint`` reads back only up to that range.
_BUCKET_LIMIT = float(2**63)

#: How many out-of-order sequences above a host's watermark the dedup table
#: tracks individually.  When a gap (a sequence a client burned without the
#: server ever seeing it) would let the set grow past this, the watermark
#: jumps over the oldest gap: a frame arriving more than this many identities
#: late is treated as a duplicate — the documented reordering bound.
DEDUP_WINDOW = 1024


class ServiceState:
    """Deduplicating, windowed aggregation state fed by push envelopes.

    Every series it holds is a decoded frame entry it adopted or copied, so
    each keeps the family it was pushed with (a UDDSketch series stays UDD).

    Parameters
    ----------
    interval_length:
        Length of one retention bucket in seconds; an envelope lands in the
        bucket containing its ``interval_start``.
    retention_intervals:
        Number of newest interval buckets retained for windowed queries;
        ``0`` disables window tracking entirely (the merged registry still
        accumulates everything).
    dedup_window:
        Out-of-order bound of the dedup table: at most this many applied
        sequences above a host's watermark are tracked individually.
    """

    def __init__(
        self,
        interval_length: float = 1.0,
        retention_intervals: int = 64,
        dedup_window: int = DEDUP_WINDOW,
    ) -> None:
        if interval_length <= 0:
            raise IllegalArgumentError(
                f"interval_length must be positive, got {interval_length!r}"
            )
        if retention_intervals < 0:
            raise IllegalArgumentError(
                f"retention_intervals must be non-negative, got {retention_intervals!r}"
            )
        if dedup_window < 1:
            raise IllegalArgumentError(
                f"dedup_window must be positive, got {dedup_window!r}"
            )
        self._interval_length = float(interval_length)
        self._retention_intervals = int(retention_intervals)
        self._dedup_window = int(dedup_window)
        self.registry = SketchRegistry()
        self._windows: Dict[int, BucketStore] = {}
        self._max_bucket: Optional[int] = None
        # Dedup table: per-host contiguous-prefix watermark + the applied
        # sequences above it (out-of-order arrivals awaiting their gap).
        self._seen_watermark: Dict[str, int] = {}
        self._seen_ahead: Dict[str, Set[int]] = {}
        self.frames_applied = 0
        self.duplicates_rejected = 0
        self.values_applied = 0.0

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #

    @property
    def interval_length(self) -> float:
        """Length of one retention bucket in seconds."""
        return self._interval_length

    @property
    def retention_intervals(self) -> int:
        """Number of newest interval buckets kept for windowed queries."""
        return self._retention_intervals

    def is_duplicate(self, host: str, sequence: int) -> bool:
        """Whether the ``(host, sequence)`` identity was already applied.

        Sequences are 1-based; everything at or below the host's watermark
        counts as applied (including sequences the watermark jumped over
        once the out-of-order window overflowed).
        """
        if sequence <= self._seen_watermark.get(host, 0):
            return True
        return sequence in self._seen_ahead.get(host, ())

    def _mark_applied(self, host: str, sequence: int) -> None:
        """Record one applied identity, compacting the contiguous prefix."""
        watermark = self._seen_watermark.get(host, 0)
        ahead = self._seen_ahead.get(host)
        if sequence == watermark + 1:
            watermark += 1
        else:
            if ahead is None:
                ahead = self._seen_ahead[host] = set()
            ahead.add(sequence)
        if ahead:
            while watermark + 1 in ahead:
                ahead.remove(watermark + 1)
                watermark += 1
            while len(ahead) > self._dedup_window:
                # A gap kept the set from draining (the sender burned a
                # sequence): jump the watermark over the oldest gap so the
                # table stays bounded.
                watermark = min(ahead)
                ahead.remove(watermark)
                while watermark + 1 in ahead:
                    ahead.remove(watermark + 1)
                    watermark += 1
            if not ahead:
                del self._seen_ahead[host]
        self._seen_watermark[host] = watermark

    def apply(self, envelope: PushEnvelope, entries: Optional[Entries] = None) -> int:
        """Fold one decoded envelope into the state; returns series merged.

        A duplicate ``(host, sequence)`` identity is counted and ignored
        (returns 0) — the exactly-once half of the delivery contract.
        Raises :class:`~repro.exceptions.DeserializationError` when the
        carried frame is corrupt or the envelope's interval bucket is out
        of range (see :meth:`envelope_bucket`), and what
        :meth:`check_entries` raises when a series cannot merge its entry
        (:class:`~repro.exceptions.UnequalSketchParametersError`); nothing
        is mutated in either case, not even the dedup table.

        ``entries`` is the envelope's frame already decoded, as the
        server's validation produced it
        (:func:`~repro.serialization.frame.read_frame`, a
        :class:`~repro.serialization.frame.DecodedFrame`), so the frame is
        not decoded a second time; ``(series, sketch)`` pairs are taken as
        well.  The state may adopt those sketches — a window bucket keeps a
        new series of a family its rows cannot hold without copying — so
        they must reach exactly one ``apply`` and not be used after it.
        Without ``entries`` the frame is decoded here.  Every entry is
        checked against both destinations first.  The window bucket then
        takes a decoded frame in native passes over its rows
        (:meth:`~repro.service.buckets.BucketStore.merge`), and the merged
        registry in one bulk merge
        (:func:`~repro.registry.merge_entries_into`); neither builds a
        sketch for a decoded entry of a series it already holds.  Loose
        ``(series, sketch)`` pairs go into both destinations entry by
        entry, since a pair's sketch may be one the state holds.
        """
        from repro.serialization.frame import DecodedFrame, read_frame

        bucket = self.envelope_bucket(envelope)
        if self.is_duplicate(envelope.host, envelope.sequence):
            self.duplicates_rejected += 1
            return 0
        frame = read_frame(envelope.frame) if entries is None else DecodedFrame.of(entries)
        window = self._window_target(bucket)
        checked = check_entries([self.registry], frame)
        if window is not None:
            window.check(frame)
        if frame.decoded:
            if window is not None:
                window.merge(frame)
            merge_entries_into([(self.registry, True)], frame, checked=checked)
        else:
            for key, sketch in frame:
                self.registry.merge_series(key, sketch)
                if window is not None:
                    window.merge(DecodedFrame.of([(key, sketch)]))
        self._mark_applied(envelope.host, envelope.sequence)
        if window is not None:
            self._keep_window(bucket, window)
        for count in frame.counts():
            self.values_applied += count
        self.frames_applied += 1
        return len(frame)

    def check_entries(self, envelope: PushEnvelope, entries: Entries) -> None:
        """Raise what :meth:`apply` would raise for these entries; change nothing.

        Every entry is checked against the merged registry and against the
        envelope's retained window bucket, where one exists
        (:func:`~repro.registry.check_entries`).  The server runs this
        before it logs a push, so a push that cannot merge is refused with
        nothing logged.
        """
        from repro.serialization.frame import DecodedFrame

        window = self._windows.get(self.envelope_bucket(envelope))
        frame = DecodedFrame.of(entries)
        check_entries([self.registry], frame)
        if window is not None:
            window.check(frame)

    def apply_envelope_bytes(self, payload: bytes) -> int:
        """Decode a serialized envelope and apply it (the replay path)."""
        return self.apply(decode_push_envelope(payload))

    def envelope_bucket(self, envelope: PushEnvelope) -> int:
        """The retention bucket an envelope lands in, validated.

        The bucket is ``floor(interval_start / interval_length)``.  Raises
        :class:`~repro.exceptions.DeserializationError` when it does not fit
        a signed 64-bit integer: a snapshot could not store it.  The server
        checks this before it logs a push.
        """
        quotient = envelope.interval_start / self._interval_length
        if not -_BUCKET_LIMIT <= quotient < _BUCKET_LIMIT:
            raise DeserializationError(
                f"envelope interval_start {envelope.interval_start!r} maps to a "
                "bucket outside the signed 64-bit range"
            )
        return int(math.floor(quotient))

    def _bucket_of(self, interval_start: float) -> int:
        return int(math.floor(interval_start / self._interval_length))

    def _window_target(self, bucket: int) -> Optional[BucketStore]:
        """The bucket store an envelope lands in, changing nothing.

        ``None`` when windows are off or the bucket is older than the
        retention horizon; a new, not yet retained store when the bucket
        holds nothing so far (:meth:`_keep_window` retains it).
        """
        if self._retention_intervals == 0:
            return None
        if self._max_bucket is not None and bucket <= self._max_bucket - self._retention_intervals:
            return None  # older than the retention horizon: merged-only
        window = self._windows.get(bucket)
        if window is None:
            window = BucketStore()
        return window

    def _keep_window(self, bucket: int, window: BucketStore) -> None:
        """Retain ``window`` as ``bucket``'s store, evicting what falls
        behind the retention horizon."""
        if self._max_bucket is None or bucket > self._max_bucket:
            self._max_bucket = bucket
            horizon = bucket - self._retention_intervals
            for old in [b for b in self._windows if b <= horizon]:
                del self._windows[old]
        self._windows[bucket] = window

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def total_count(self) -> float:
        """Total inserted weight across every series of the merged registry."""
        return self.registry.total_count()

    def to_frame(self) -> bytes:
        """The merged registry as one frame-v3 payload (sorted series order)."""
        return self.registry.to_frame()

    def window_buckets(self) -> List[int]:
        """Retained interval buckets, oldest first."""
        return sorted(self._windows)

    def quantiles(
        self,
        metric: str,
        quantiles: Sequence[float],
        tags: TagsLike = None,
        tag_filter: TagsLike = None,
        window_start: Optional[float] = None,
        window_end: Optional[float] = None,
    ) -> List[float]:
        """Quantiles over the merged state or a retained time window.

        Without window bounds the all-time merged registry answers; with
        bounds, each selected series is folded over the retained interval
        buckets intersecting ``[window_start, window_end)``, oldest first,
        and the series are then merged in sorted key order
        (:func:`~repro.service.buckets.fold_series`, from the buckets' row
        columns): the same answer as merging those buckets into one
        registry first, without building it.  The merged registry indexes
        the series, since every series a bucket holds is one of its own.
        Raises :class:`~repro.exceptions.EmptySketchError` when nothing
        matches — never ``KeyError`` (the repository-wide unknown-series
        contract) — and :class:`~repro.exceptions.IllegalArgumentError` for
        a window bound that is not finite, before anything else.
        """
        if window_start is None and window_end is None:
            return self.registry.quantiles(metric, quantiles, tags=tags, tag_filter=tag_filter)
        buckets = [self._windows[bucket] for bucket in self._buckets_in(window_start, window_end)]
        check_quantile_read(quantiles, tags, tag_filter)
        if tags is None:
            sketch = fold_series(buckets, self.registry.series_keys(metric, tag_filter))
            if sketch is None:
                raise no_data(metric, tag_filter)
        else:
            key = SeriesKey.of(metric, tags)
            sketch = fold_series(buckets, [key])
            if sketch is None:
                raise EmptySketchError(f"no data for series {key}")
        return quantile_values(sketch, metric, quantiles)

    def threshold_query(
        self,
        metric: str,
        quantile: float,
        threshold: float,
        above: bool = True,
        tag_filter: TagsLike = None,
        window_start: Optional[float] = None,
        window_end: Optional[float] = None,
    ) -> ThresholdResult:
        """Which stored series' quantile estimate passes ``threshold``?

        The sketch-bound threshold query of
        :meth:`~repro.registry.SketchRegistry.threshold_query`, over the
        merged registry or, with window bounds, over the retained interval
        buckets intersecting ``[window_start, window_end)`` merged into one
        registry (:meth:`_windowed_registry`).  Window bounds and
        ``threshold`` must be finite.
        """
        return self._windowed_registry(window_start, window_end).threshold_query(
            metric, quantile, threshold, above=above, tag_filter=tag_filter
        )

    def _buckets_in(self, window_start: Optional[float], window_end: Optional[float]) -> List[int]:
        """Retained buckets intersecting ``[window_start, window_end)``, oldest
        first; a bound that is not finite is refused."""
        for name, bound in (("window_start", window_start), ("window_end", window_end)):
            if bound is not None and not math.isfinite(bound):
                raise IllegalArgumentError(f"{name} must be finite, got {bound!r}")
        low = self._bucket_of(window_start) if window_start is not None else None
        # Bucket b covers [b*L, (b+1)*L); it intersects a half-open
        # [window_start, window_end) iff its own start is before the end.
        return [
            bucket
            for bucket in self.window_buckets()
            if (low is None or bucket >= low)
            and (window_end is None or bucket * self._interval_length < window_end)
        ]

    def _windowed_registry(
        self, window_start: Optional[float], window_end: Optional[float]
    ) -> SketchRegistry:
        """The merged registry, or the window's buckets merged into a new one.

        One bulk merge per bucket, its rows read in place as merge sources
        (:meth:`~repro.service.buckets.BucketStore.entries`): the cheapest
        way, so far, to give a windowed threshold query one sketch per
        series.
        """
        if window_start is None and window_end is None:
            return self.registry
        merged = SketchRegistry()
        for bucket in self._buckets_in(window_start, window_end):
            merge_entries_into([(merged, False)], self._windows[bucket].entries())
        return merged

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def to_snapshot(self) -> bytes:
        """Serialize the full state into one opaque snapshot payload."""
        parts = [encode_varint(_SNAPSHOT_STATE_VERSION)]
        merged = self.registry.to_frame()
        parts.append(encode_varint(len(merged)))
        parts.append(merged)
        parts.append(encode_zigzag(self._max_bucket if self._max_bucket is not None else 0))
        parts.append(encode_varint(1 if self._max_bucket is not None else 0))
        parts.append(encode_varint(len(self._windows)))
        for bucket in self.window_buckets():
            frame = self._windows[bucket].to_frame()
            parts.append(encode_zigzag(bucket))
            parts.append(encode_varint(len(frame)))
            parts.append(frame)
        parts.append(encode_varint(len(self._seen_watermark)))
        for host in sorted(self._seen_watermark):
            host_bytes = host.encode("utf-8")
            parts.append(encode_varint(len(host_bytes)))
            parts.append(host_bytes)
            watermark = self._seen_watermark[host]
            parts.append(encode_varint(watermark))
            ahead = sorted(self._seen_ahead.get(host, ()))
            parts.append(encode_varint(len(ahead)))
            previous = watermark
            for sequence in ahead:
                parts.append(encode_varint(sequence - previous))
                previous = sequence
        parts.append(encode_varint(self.frames_applied))
        parts.append(encode_varint(self.duplicates_rejected))
        parts.append(struct.pack("<d", self.values_applied))
        return b"".join(parts)

    @classmethod
    def from_snapshot(
        cls,
        payload: bytes,
        interval_length: float = 1.0,
        retention_intervals: int = 64,
        dedup_window: int = DEDUP_WINDOW,
    ) -> "ServiceState":
        """Rebuild a state from :meth:`to_snapshot` output.

        Raises :class:`~repro.exceptions.DeserializationError` for any
        malformed payload (the snapshot file's CRC catches disk corruption
        first; this guards the structure itself), a bucket above the
        snapshot's newest one included.  Snapshot frames decode without the
        push bin budget: the server's own state may legitimately hold more
        bins than one pushed frame may decode to.

        ``retention_intervals`` may differ from the snapshotted state's
        (``repro serve --retention`` can change between restarts): only the
        buckets within its horizon of the newest one are restored, as
        :meth:`apply` would have kept them, and none with windows off, which
        also forgets the newest bucket, as a state built so never knew it.
        """
        state = cls(
            interval_length=interval_length,
            retention_intervals=retention_intervals,
            dedup_window=dedup_window,
        )
        reader = VarintReader(bytes(payload))
        try:
            version = reader.read_varint()
            if version != _SNAPSHOT_STATE_VERSION:
                raise DeserializationError(f"unsupported state snapshot version {version}")
            merged_length = reader.read_varint()
            if merged_length > reader.remaining:
                raise DeserializationError("snapshot merged frame exceeds the payload")
            state.registry.merge_frame(reader.read_bytes(merged_length))
            max_bucket = reader.read_zigzag()
            has_bucket = reader.read_varint()
            retention = state._retention_intervals
            state._max_bucket = max_bucket if has_bucket and retention else None
            num_windows = reader.read_varint()
            if num_windows > reader.remaining:
                raise DeserializationError("snapshot window count exceeds the payload")
            if num_windows and not has_bucket:
                raise DeserializationError("snapshot lists window buckets but no newest bucket")
            for _ in range(num_windows):
                bucket = reader.read_zigzag()
                frame_length = reader.read_varint()
                if frame_length > reader.remaining:
                    raise DeserializationError("snapshot window frame exceeds the payload")
                if bucket > max_bucket:
                    raise DeserializationError(
                        f"snapshot window bucket {bucket} is above its newest bucket {max_bucket}"
                    )
                window = BucketStore.from_frame(reader.read_bytes(frame_length))
                if retention and bucket > max_bucket - retention:
                    state._windows[bucket] = window
            num_hosts = reader.read_varint()
            if num_hosts > reader.remaining:
                raise DeserializationError("snapshot host count exceeds the payload")
            for _ in range(num_hosts):
                host_length = reader.read_varint()
                if host_length > reader.remaining:
                    raise DeserializationError("snapshot host name exceeds the payload")
                try:
                    host = reader.read_bytes(host_length).decode("utf-8")
                except UnicodeDecodeError as error:
                    raise DeserializationError("snapshot host is not valid UTF-8") from error
                watermark = reader.read_varint()
                num_ahead = reader.read_varint()
                if num_ahead > reader.remaining + 1:
                    raise DeserializationError("snapshot sequence count exceeds the payload")
                ahead: Set[int] = set()
                current = watermark
                for _ in range(num_ahead):
                    delta = reader.read_varint()
                    if delta < 1:
                        raise DeserializationError(
                            "snapshot dedup sequences are not strictly increasing"
                        )
                    current += delta
                    ahead.add(current)
                state._seen_watermark[host] = watermark
                if ahead:
                    state._seen_ahead[host] = ahead
            state.frames_applied = reader.read_varint()
            state.duplicates_rejected = reader.read_varint()
            tail = reader.read_bytes(8)
            state.values_applied = struct.unpack("<d", tail)[0]
            if not reader.exhausted:
                raise DeserializationError(
                    f"{reader.remaining} trailing bytes after the state snapshot"
                )
        except DeserializationError:
            raise
        except (ValueError, TypeError, KeyError) as error:
            raise DeserializationError(f"malformed state snapshot: {error}") from error
        return state

    def stats(self) -> Dict[str, float]:
        """Counters describing the state (mirrored by the STATS wire op)."""
        return {
            "num_series": float(self.registry.num_series),
            "total_count": self.total_count(),
            "frames_applied": float(self.frames_applied),
            "duplicates_rejected": float(self.duplicates_rejected),
            "values_applied": self.values_applied,
            "window_buckets": float(len(self._windows)),
        }

    def __repr__(self) -> str:
        return (
            f"ServiceState(num_series={self.registry.num_series}, "
            f"frames_applied={self.frames_applied}, "
            f"windows={len(self._windows)})"
        )
