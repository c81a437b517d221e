"""Workload definitions and seeded input generation for the benchmark.

A workload fixes the series population, the shape of every pushed batch,
the push count per second of run length and how a run splits into rounds.
:func:`build_inputs` turns a workload and a seed into every input a run
needs — value batches and query parameters — before any timing starts,
and :class:`Reference` rebuilds, from those same inputs, what the server
must answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.query import QueryEngine
from repro.registry import SeriesKey, SketchRegistry
from repro.serialization.frame import decode_frame

#: Quantiles every quantile query asks for.
QUANTILES = (0.5, 0.9, 0.99)

#: Region tag values; a series' region is its endpoint index modulo 8.
#: With 8, a region slice merges few enough series to cost clearly less
#: than a threshold query, so the query mix's p50 falls in the middle of
#: the threshold queries rather than where slices and thresholds overlap.
REGIONS = tuple(f"r{index}" for index in range(8))

#: The five query kinds the timed queries cycle through, in order.
QUERY_KINDS = ("exact", "slice", "rollup", "window", "threshold")

#: Interval buckets a window query covers (ending at the newest bucket),
#: and the buckets the server retains (``repro serve --retention``).
WINDOW_BUCKETS = 4

#: Agent hosts pushing in turn, each with its own sequence numbers.
HOSTS = 4

#: Distinct value batches generated per run; pushes cycle through them.
POOL_SIZE = 8

#: Floor on a run's push count, so push p90 has at least ten samples above it.
MIN_PUSHES = 100


@dataclass(frozen=True)
class Workload:
    """One traffic mix: what every push carries, how many pushes, how they are split."""

    name: str
    metric: str
    #: Series of ``metric`` (one per endpoint); every push carries all of them.
    endpoints: int
    values_per_series: int
    #: Pushes per second of ``--seconds``; the count never drops below
    #: :data:`MIN_PUSHES`.
    pushes_per_second: float
    #: Rounds of writes, queries and a restart; ``recovery_s`` is the median
    #: of one restart per round.
    rounds: int
    #: Timed queries per round, after the round's writes.
    queries_per_round: int
    #: Flushes per host that land in one interval bucket.
    flushes_per_bucket: int = 1

    def push_count(self, seconds: float) -> int:
        return max(MIN_PUSHES, int(round(self.pushes_per_second * seconds)))

    def interval_of(self, push_index: int) -> int:
        # The first pushes open one bucket each, so the server holds its
        # full retained window from the first round on: every restart and
        # every window query then sees state of the same shape.
        if push_index < WINDOW_BUCKETS:
            return push_index
        return WINDOW_BUCKETS + (push_index - WINDOW_BUCKETS) // (HOSTS * self.flushes_per_bucket)


WORKLOADS: Dict[str, Workload] = {
    "wide": Workload(
        name="wide",
        metric="wide.latency",
        endpoints=1_000,
        values_per_series=5,
        # Exactly the 100-push floor at --seconds 30.  A push and the record
        # before it take about 0.45 s on a 2-vCPU host, so the writes last
        # 40-50 s.
        pushes_per_second=100 / 30,
        # A bucket per 20 pushes, not per 4, so that a bucket, like the
        # all-time series, merges many frames.
        flushes_per_bucket=5,
        # Five rounds: the window queries that set query p90 fall in five
        # stretches of the run, not one.
        rounds=5,
        queries_per_round=35,
    ),
    "deep": Workload(
        name="deep",
        metric="deep.latency",
        endpoints=20,
        values_per_series=5_000,
        # 750 pushes at --seconds 30; the writes last 18-22 s.
        pushes_per_second=25.0,
        # Restarts take well under a second here, so many fit.  Some server
        # processes answer window queries up to 1.5 times as slowly as
        # others, and query p90 is the window queries' median, so the more
        # processes it is taken over, the steadier it is.
        rounds=16,
        queries_per_round=80,
    ),
}


@dataclass(frozen=True)
class Query:
    """One query: its kind and parameters (hashable, so answers can be cached)."""

    kind: str
    metric: str
    tags: Optional[Tuple[Tuple[str, str], ...]] = None
    region: Optional[str] = None
    window: Optional[Tuple[int, int]] = None
    threshold: Optional[float] = None

    def send(self, client):
        """Ask the server; returns the comparable part of the reply."""
        if self.kind == "threshold":
            reply = client.query_threshold(self.metric, QUANTILES[-1], self.threshold)
            return _threshold_answer(
                reply["matches"], reply["total_series"], reply["scanned"], reply["prune_rate"]
            )
        return client.query_quantiles(self.metric, QUANTILES, **self.selector())["values"]

    def selector(self) -> dict:
        if self.kind == "exact":
            return {"tags": dict(self.tags)}
        if self.kind == "slice":
            return {"tag_filter": {"region": self.region}}
        if self.kind == "window":
            return {"window_start": float(self.window[0]), "window_end": float(self.window[1])}
        return {}


def _threshold_answer(matches, total, scanned, prune_rate) -> dict:
    return {
        "matches": sorted(str(key) for key in matches),
        "total_series": int(total),
        "scanned": int(scanned),
        "prune_rate": float(prune_rate),
    }


@dataclass
class Inputs:
    """Everything one run pushes and asks, generated from the seed up front."""

    workload: Workload
    pushes: int
    population: List[SeriesKey]
    #: Pool of (group index per value, values) batches over ``population``.
    batches: List[Tuple[np.ndarray, np.ndarray]]
    threshold: float
    query_rng_seed: int

    def batch_of(self, push_index: int) -> int:
        return push_index % len(self.batches)

    @property
    def values_per_push(self) -> int:
        return self.workload.endpoints * self.workload.values_per_series

    @property
    def total_values(self) -> int:
        return self.pushes * self.values_per_push

    def newest_bucket(self, pushes: int) -> int:
        """The newest interval bucket once ``pushes`` pushes are applied."""
        return self.workload.interval_of(pushes - 1)

    def queries(self, count: int, newest: int, round_index: int) -> List[Query]:
        """``count`` queries cycling through the five kinds, deterministic in the seed."""
        rng = np.random.default_rng([self.query_rng_seed, round_index])
        metric = self.workload.metric
        result = []
        for index in range(count):
            kind = QUERY_KINDS[index % len(QUERY_KINDS)]
            if kind == "exact":
                key = self.population[int(rng.integers(len(self.population)))]
                result.append(Query(kind, metric, tags=key.tags))
            elif kind == "slice":
                region = REGIONS[int(rng.integers(len(REGIONS)))]
                result.append(Query(kind, metric, region=region))
            elif kind == "rollup":
                result.append(Query(kind, metric))
            elif kind == "window":
                low = max(newest - WINDOW_BUCKETS + 1, 0)
                result.append(Query(kind, metric, window=(low, newest + 1)))
            else:
                result.append(Query(kind, metric, threshold=self.threshold))
        return result

    def verification_queries(self, newest: int) -> List[Query]:
        """A fixed query set covering every kind and region."""
        metric = self.workload.metric
        queries: List[Query] = []
        step = max(len(self.population) // 8, 1)
        for key in self.population[::step][:8]:
            queries.append(Query("exact", metric, tags=key.tags))
        low = max(newest - WINDOW_BUCKETS + 1, 0)
        for region in REGIONS:
            queries.append(Query("slice", metric, region=region))
        queries.append(Query("rollup", metric))
        queries.append(Query("window", metric, window=(low, newest + 1)))
        queries.append(Query("threshold", metric, threshold=self.threshold))
        return queries


def build_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Generate every input of one run from ``seed``: same seed, same inputs."""
    rng = np.random.default_rng([seed, len(workload.name), sum(map(ord, workload.name))])
    population = [
        SeriesKey.of(workload.metric, {"endpoint": f"/e{endpoint:04d}", "region": REGIONS[endpoint % len(REGIONS)]})
        for endpoint in range(workload.endpoints)
    ]
    base = np.repeat(np.arange(workload.endpoints, dtype=np.int64), workload.values_per_series)
    batches = []
    for _ in range(POOL_SIZE):
        batches.append((rng.permutation(base), rng.lognormal(0.0, 1.5, base.size)))
    peak = max(float(values.max()) for _, values in batches)
    return Inputs(
        workload=workload,
        pushes=workload.push_count(seconds),
        population=population,
        batches=batches,
        # Above every value, and so above every series' maximum: the
        # threshold query prunes everything from sketch bounds alone.
        threshold=float(2.0 ** math.ceil(math.log2(peak * 2.0))),
        query_rng_seed=int(rng.integers(1 << 31)),
    )


def batch_frame(inputs: Inputs, entry: int) -> bytes:
    """The frame an agent flushes after recording pool entry ``entry``."""
    groups, values = inputs.batches[entry]
    registry = SketchRegistry()
    registry.ingest_grouped(inputs.population, groups, values)
    return registry.to_frame()


class Reference:
    """What the server must hold after ``pushes`` pushes, rebuilt locally from the same frames."""

    def __init__(self, inputs: Inputs, pushes: Optional[int] = None) -> None:
        pushes = inputs.pushes if pushes is None else pushes
        self.inputs = inputs
        decoded = [decode_frame(batch_frame(inputs, entry)) for entry in range(len(inputs.batches))]
        entries_of: Dict[int, List[int]] = {}
        for index in range(pushes):
            entries_of.setdefault(inputs.workload.interval_of(index), []).append(inputs.batch_of(index))
        # Bins hold whole-number counts, so a bucket's quantiles depend only
        # on which batches it merged, not on their order: buckets made of
        # the same batches share one registry, built once.
        built: Dict[Tuple[int, ...], SketchRegistry] = {}
        self.buckets: Dict[int, SketchRegistry] = {}
        self.all_time = SketchRegistry()
        for bucket, entries in sorted(entries_of.items()):
            signature = tuple(sorted(entries))
            if signature not in built:
                registry = built[signature] = SketchRegistry()
                for entry in entries:
                    for key, sketch in decoded[entry]:
                        registry.merge_series(key, sketch)
            self.buckets[bucket] = built[signature]
            self.all_time.merge(built[signature])
        self._answers: Dict[Query, object] = {}

    def answer(self, query: Query):
        """The reference answer to ``query`` (cached)."""
        if query not in self._answers:
            self._answers[query] = self._compute(query)
        return self._answers[query]

    def _compute(self, query: Query):
        if query.kind == "threshold":
            result = QueryEngine.over_registry(self.all_time).threshold_query(
                query.metric, QUANTILES[-1], query.threshold
            )
            return _threshold_answer(
                result.matches, result.total_series, len(result.scanned), result.prune_rate
            )
        if query.kind == "window":
            merged = SketchRegistry()
            for bucket in sorted(self.buckets):
                if query.window[0] <= bucket < query.window[1]:
                    merged.merge(self.buckets[bucket])
            return merged.quantiles(query.metric, QUANTILES)
        return self.all_time.quantiles(query.metric, QUANTILES, **query.selector())


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))
