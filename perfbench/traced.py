"""Traced run: each workload's operations single-threaded and in-process.

Every call into a layer's public function is timed here, around the call,
so the program itself carries no instrumentation.  Inside a registry
ingest, ``repro.kernel.compute_keys`` and ``BaseDDSketch.add_grouped_batch``
are rebound to timing wrappers.  Both are called whichever path
``add_grouped_batch`` takes: the one-``bincount`` fast path for plain dense
stores, or the per-series ``add_batch`` fallback that the default
collapsing sketch takes.

The run pushes the workload's frames through agent registry, envelope,
segment log and service state for about 60% of ``--seconds``, then times
snapshot, recovery and query layers on the state it built, and checks the
state against a local reference.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import repro.kernel as kernel
from repro.core import BaseDDSketch
from repro.query import QueryEngine
from repro.registry import SketchRegistry
from repro.serialization.frame import decode_frame
from repro.service.protocol import decode_push_envelope, encode_push_envelope
from repro.service.segment_log import SegmentLog
from repro.service.state import ServiceState

from e2e import ServerProcess, Tally
from workloads import HOSTS, QUANTILES, WINDOW_BUCKETS, Reference, Workload, build_inputs

#: Share of ``--seconds`` spent pushing frames through the layers.
PUSH_SHARE = 0.6

#: Pings timed against the idle server.
IDLE_PINGS = 300

#: Repetitions of the snapshot/recovery and query measurements.
SNAPSHOT_ROUNDS = 3
QUERY_ROUNDS = 5


class Spans:
    """Per-layer call timings: total seconds and total work units per name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.work: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def add(self, name: str, seconds: float, work: float = 1.0) -> None:
        self.seconds[name] += seconds
        self.work[name] += work
        self.samples[name].append(seconds)

    def time(self, name: str, work, function, *args, **kwargs):
        begin = time.perf_counter()
        result = function(*args, **kwargs)
        self.add(name, time.perf_counter() - begin, work)
        return result

    def per_unit(self, name: str, scale: float) -> float:
        return self.seconds[name] / self.work[name] * scale

    def median_ms(self, name: str) -> float:
        return statistics.median(self.samples[name]) * 1e3


class _IngestTap:
    """Times ``kernel.compute_keys`` and ``BaseDDSketch.add_grouped_batch`` while enabled."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.enabled = False
        self._compute_keys = kernel.compute_keys
        # The raw staticmethod, so that __exit__ puts back exactly what was there.
        self._add_grouped_batch = BaseDDSketch.__dict__["add_grouped_batch"]

    def __enter__(self) -> "_IngestTap":
        compute_keys_function = self._compute_keys
        add_grouped_function = self._add_grouped_batch.__func__

        def compute_keys(mapping, values):
            if not self.enabled:
                return compute_keys_function(mapping, values)
            begin = time.perf_counter()
            result = compute_keys_function(mapping, values)
            self.spans.add("kernel.compute_keys", time.perf_counter() - begin, len(values))
            return result

        def add_grouped_batch(sketches, group_indices, values, weights=None, scratch=None):
            if not self.enabled:
                return add_grouped_function(sketches, group_indices, values, weights, scratch=scratch)
            begin = time.perf_counter()
            result = add_grouped_function(sketches, group_indices, values, weights, scratch=scratch)
            self.spans.add("sketch.add_grouped_batch", time.perf_counter() - begin, len(values))
            return result

        kernel.compute_keys = compute_keys
        BaseDDSketch.add_grouped_batch = staticmethod(add_grouped_batch)
        return self

    def __exit__(self, *exc_info) -> None:
        kernel.compute_keys = self._compute_keys
        BaseDDSketch.add_grouped_batch = self._add_grouped_batch


def _ping_idle_server(spans: Spans, workdir: Path, env, tally: Tally) -> None:
    server = ServerProcess(workdir / "trace-ping", env)
    try:
        server.start()
        with server.client() as client:
            client.ping()  # connect outside the timed calls
            for _ in range(IDLE_PINGS):
                tally.op(spans.time("client.ping", 1, client.ping), "idle ping")
    finally:
        server.stop()


def run_traced(workload: Workload, seed: int, seconds: float, workdir: Path, env) -> dict:
    """One traced run; returns ``correct``/``attempted``/``failed``/``metrics``/``report``."""
    inputs = build_inputs(workload, seed, seconds)
    spans = Spans()
    tally = Tally()
    _ping_idle_server(spans, workdir, env, tally)

    log = SegmentLog(workdir / "trace-log")
    state = ServiceState(retention_intervals=WINDOW_BUCKETS)
    registries = [SketchRegistry() for _ in range(HOSTS)]
    per_push = workload.endpoints
    deadline = time.perf_counter() + seconds * PUSH_SHARE
    pushes = 0
    with _IngestTap(spans) as tap:
        while pushes < inputs.pushes and (pushes < HOSTS or time.perf_counter() < deadline):
            host = pushes % HOSTS
            registry = registries[host]
            groups, values = inputs.batches[inputs.batch_of(pushes)]
            begin = time.perf_counter()
            tap.enabled = True
            registry.ingest_grouped(inputs.population, groups, values)
            tap.enabled = False
            elapsed = time.perf_counter() - begin
            spans.add("registry.ingest_grouped.series", elapsed, per_push)
            spans.add("registry.ingest_grouped.values", elapsed, values.size)
            frame = spans.time("registry.to_frame", per_push, registry.to_frame)
            registry.clear()

            interval = workload.interval_of(pushes)
            envelope = encode_push_envelope(
                frame, host=f"{workload.name}-{host}", sequence=pushes // HOSTS + 1,
                interval_start=float(interval),
            )
            decoded = spans.time(
                "protocol.decode_push_envelope", per_push, decode_push_envelope, envelope,
                validate_frame=True,
            )
            spans.time("serialization.decode_frame", per_push, decode_frame, decoded.frame)
            spans.time("segment_log.append", 1, log.append, envelope)
            if host == 0:
                spans.time("state.apply_new", per_push, ServiceState().apply, decoded)
            name = "state.apply_existing" if pushes else "state.apply_new"
            tally.op(spans.time(name, per_push, state.apply, decoded) == per_push, "apply")
            pushes += 1

    # Every push carries every series, so each retained bucket holds them all.
    num_series = state.registry.num_series
    stored = num_series * (1 + len(state.window_buckets()))
    for round_index in range(SNAPSHOT_ROUNDS):
        payload = spans.time("state.to_snapshot", stored, state.to_snapshot)
        spans.time("segment_log.write_snapshot", 1, log.write_snapshot, payload, applied=pushes)
        restored = spans.time("state.from_snapshot", stored, ServiceState.from_snapshot, payload)
        records = spans.time("segment_log.replay", pushes, lambda: list(log.replay()))
        if round_index == 0:
            tally.check("a snapshot restores the same state", restored.to_frame() == state.to_frame())
            tally.check("replay returns every appended frame", len(records) == pushes)
    log.close()

    reference = Reference(inputs, pushes=pushes)
    newest = workload.interval_of(pushes - 1)
    queries = [q for q in inputs.verification_queries(newest) if q.kind != "threshold"]
    prune_rates = []
    for _ in range(QUERY_ROUNDS):
        for query in queries:
            answer = spans.time(
                f"state.quantiles.{query.kind}", 1, state.quantiles, query.metric, QUANTILES,
                **query.selector(),
            )
            tally.check(f"state {query.kind} answers match the reference", answer == reference.answer(query))
        engine = QueryEngine.over_registry(state.registry)
        result = spans.time(
            "query.threshold_query", 1, engine.threshold_query, workload.metric, QUANTILES[-1],
            inputs.threshold,
        )
        prune_rates.append(result.prune_rate)
        tally.check("the threshold above every maximum matches nothing", not result.matches)
    tally.check(
        "total_count equals the values applied",
        state.total_count() == float(pushes * inputs.values_per_push),
    )

    metrics = {
        "registry.ingest_grouped.us_per_series": (spans.per_unit("registry.ingest_grouped.series", 1e6), "us"),
        "registry.ingest_grouped.ns_per_value": (spans.per_unit("registry.ingest_grouped.values", 1e9), "ns"),
        "registry.to_frame.us_per_series": (spans.per_unit("registry.to_frame", 1e6), "us"),
        "kernel.compute_keys.ns_per_value": (spans.per_unit("kernel.compute_keys", 1e9), "ns"),
        "sketch.add_grouped_batch.ns_per_value": (spans.per_unit("sketch.add_grouped_batch", 1e9), "ns"),
        "protocol.decode_push_envelope.us_per_series": (spans.per_unit("protocol.decode_push_envelope", 1e6), "us"),
        "serialization.decode_frame.us_per_series": (spans.per_unit("serialization.decode_frame", 1e6), "us"),
        "state.apply_new.us_per_series": (spans.per_unit("state.apply_new", 1e6), "us"),
        "state.apply_existing.us_per_series": (spans.per_unit("state.apply_existing", 1e6), "us"),
        "segment_log.append.us_per_frame": (spans.per_unit("segment_log.append", 1e6), "us"),
        "client.ping.rtt_us": (statistics.median(spans.samples["client.ping"]) * 1e6, "us"),
        "state.to_snapshot.us_per_series": (spans.per_unit("state.to_snapshot", 1e6), "us"),
        "segment_log.write_snapshot.ms": (spans.median_ms("segment_log.write_snapshot"), "ms"),
        "state.from_snapshot.us_per_series": (spans.per_unit("state.from_snapshot", 1e6), "us"),
        "segment_log.replay.us_per_frame": (spans.per_unit("segment_log.replay", 1e6), "us"),
        "state.quantiles.exact.ms": (spans.median_ms("state.quantiles.exact"), "ms"),
        "state.quantiles.slice.ms": (spans.median_ms("state.quantiles.slice"), "ms"),
        "state.quantiles.rollup.ms": (spans.median_ms("state.quantiles.rollup"), "ms"),
        "state.quantiles.window.ms": (spans.median_ms("state.quantiles.window"), "ms"),
        "query.threshold_query.ms": (spans.median_ms("query.threshold_query"), "ms"),
        "query.prune_rate": (statistics.fmean(prune_rates), "ratio"),
        "registry.size_in_bytes.per_series": (state.registry.size_in_bytes() / num_series, "B"),
    }
    tally.attempted += sum(len(samples) for samples in spans.samples.values())
    report = {
        "workload": workload.name,
        "pushes": pushes,
        "series": num_series,
        "window_buckets": len(state.window_buckets()),
        "checks": tally.checks,
        "errors": tally.errors,
    }
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "report": report,
    }

