"""End-to-end run: one load-generator process against a real ``repro serve``.

The main thread is the writer: four :class:`~repro.monitoring.MetricAgent`
instances record pooled batches with ``record_grouped`` and push them with
``push_frames``, one closed-loop push at a time.  While it writes, a second
thread, on its own connection, is an open-loop pinger that times each ping
from when it was due, so a stalled event loop shows as ping latency.

Every timed sample is kept as its ``(begin, end)`` interval and divided by
the host's slowdown over that interval (:mod:`hostspeed`), so a run that
shares its cores with a busier neighbour reads the same as one that does
not.  The report keeps the metrics as timed, before that division.

A run is a few rounds.  Each round writes its share of the pushes, warms
the server's query paths, times closed-loop queries, and then stops the
server gracefully and restarts it over the same data directory.  Spreading
every metric's samples over the whole run keeps them from resting on a
stretch of time when the shared host happened to be slow.  After the last
round's writes the run checks itself against a local
:class:`~repro.registry.SketchRegistry` reference fed the same frames, and
after its restart the server must answer exactly as before it.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.monitoring import MetricAgent
from repro.service import ServiceClient

from hostspeed import HostSpeed
from workloads import HOSTS, WINDOW_BUCKETS, Query, Reference, Workload, build_inputs, percentile

#: Open-loop ping period in seconds (100 pings per second), so that even
#: ``deep``'s shortest write phase leaves more than ten pings beyond p99.
#: At 200 per second the pinger could not keep up on ``wide``: its thread
#: waits on the writer for the GIL, so its schedule fell ever further
#: behind, and ping p99 read 2.5 times the server's longest stall.
PING_PERIOD = 0.01

#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Seconds to wait for a server to listen, or to exit after SIGINT.
SERVER_TIMEOUT = 60.0

_LISTENING = "listening on "


class ServerProcess:
    """One ``python -m repro serve`` child process."""

    def __init__(self, data_dir: Path, env: Dict[str, str], port: int = 0) -> None:
        self.data_dir = data_dir
        self.env = env
        self.process: Optional[subprocess.Popen] = None
        self.port = port

    def start(self) -> None:
        """Spawn the server and block until it prints its listen address."""
        command = [sys.executable, "-m", "repro", "serve", "--data-dir", str(self.data_dir)]
        command += ["--port", str(self.port), "--retention", str(WINDOW_BUCKETS)]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=self.env, cwd=self.data_dir.parent
        )
        deadline = time.monotonic() + SERVER_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("repro serve did not start listening in time")
            chunk = os.read(self.process.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError(f"repro serve exited early with {self.process.wait()}")
            line += chunk
        text = line.decode().strip()
        if not text.startswith(_LISTENING):
            raise RuntimeError(f"unexpected first line from repro serve: {text!r}")
        self.port = int(text.rsplit(":", 1)[1])

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=SERVER_TIMEOUT, **kwargs)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM) in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Graceful stop (SIGINT, as Ctrl-C); kill only if it hangs."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=SERVER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()


class Tally:
    """Attempted and failed operations, plus named self-checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.errors: List[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.errors) < 20:
                self.errors.append(what)

    def check(self, name: str, ok: bool) -> None:
        self.op(ok, f"check failed: {name}")
        self.checks[name] = self.checks.get(name, True) and ok

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


class Pinger(threading.Thread):
    """Open-loop pinger: one ping every :data:`PING_PERIOD`, timed from when due."""

    def __init__(self, server: ServerProcess) -> None:
        super().__init__(name="pinger", daemon=True)
        self._client = server.client(retries=0)
        self.stop_event = threading.Event()
        #: ``(due, answered)`` for every answered ping.
        self.ping_intervals: List[Tuple[float, float]] = []
        self.lateness: List[float] = []
        self.failures = 0

    def run(self) -> None:
        due = done = time.perf_counter()
        try:
            while not self.stop_event.is_set():
                wait = due - time.perf_counter()
                if wait > 0 and self.stop_event.wait(wait):
                    break
                sent = time.perf_counter()
                ok = self._client.ping()
                # How late the generator itself sent: a ping that was already
                # due while the previous one waited is the server's stall,
                # not the generator's, and counts in its latency instead.
                self.lateness.append(sent - max(due, done))
                done = time.perf_counter()
                if ok:
                    self.ping_intervals.append((due, done))
                else:
                    self.failures += 1
                due += PING_PERIOD
        finally:
            self._client.close()

    def stop(self) -> None:
        self.stop_event.set()

    @property
    def counters(self) -> Dict[str, int]:
        return self._client.counters


def _setup(data_dir: Path, env):
    """Spawn a server in ``data_dir``; returns (server, (spawned, listening))."""
    begin = time.perf_counter()
    server = ServerProcess(data_dir, env)
    try:
        server.start()
    except BaseException:
        server.stop()
        raise
    return server, (begin, time.perf_counter())


def _ask(client, query: Query, tally: Tally):
    try:
        answer = query.send(client)
    except ReproError as error:
        tally.op(False, f"{query.kind} query: {error}")
        return None
    tally.op(True)
    return answer


Interval = Tuple[float, float]


class Timings:
    """Every timed sample of a run as its ``(begin, end)`` interval."""

    def __init__(self) -> None:
        self.setups: List[Interval] = []
        self.writes: List[Interval] = []
        self.pushes: List[Interval] = []
        self.pings: List[Interval] = []
        self.queries: List[Interval] = []
        self.query_kinds: List[str] = []
        self.recoveries: List[Interval] = []
        self.lateness: List[float] = []


def _one_per_kind(queries: List[Query]) -> List[Query]:
    return list({query.kind: query for query in queries}.values())


def run_e2e(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    env: Dict[str, str],
    tamper: Optional[Callable[[Reference], None]] = None,
) -> dict:
    """One end-to-end run; returns ``correct``/``attempted``/``failed``/``metrics``/``report``."""
    inputs = build_inputs(workload, seed, seconds)
    tally = Tally()
    timings = Timings()
    rss_mb: List[float] = []
    counters: Dict[str, int] = {}
    recorded = 0
    server: Optional[ServerProcess] = None
    pinger: Optional[Pinger] = None
    with HostSpeed(workdir) as host:
        try:
            for attempt in range(SETUPS):
                if server is not None:
                    server.stop()
                    shutil.rmtree(server.data_dir)
                server, interval = _setup(workdir / f"data-{attempt}", env)
                timings.setups.append(interval)
            agents = [MetricAgent(host=f"{workload.name}-{h}") for h in range(HOSTS)]
            # One client for the whole run: it numbers each host's pushes, and
            # the server deduplicates by those numbers across restarts.
            writer = server.client()

            for round_index in range(workload.rounds):
                first = inputs.pushes * round_index // workload.rounds
                last = inputs.pushes * (round_index + 1) // workload.rounds
                newest = inputs.newest_bucket(last)
                pinger = Pinger(server)
                pinger.start()

                # ---- timed writes: record + flush + push, closed loop ----
                start = time.perf_counter()
                for index in range(first, last):
                    agent = agents[index % HOSTS]
                    groups, values = inputs.batches[inputs.batch_of(index)]
                    recorded += agent.record_grouped(inputs.population, groups, values)
                    begin = time.perf_counter()
                    try:
                        acks = agent.push_frames(writer, interval_start=float(workload.interval_of(index)))
                    except ReproError as error:
                        tally.op(False, f"push {index}: {error}")
                        continue
                    timings.pushes.append((begin, time.perf_counter()))
                    tally.op(
                        len(acks) == 1 and acks[0].get("status") == "ok" and not acks[0].get("duplicate"),
                        f"push {index} ack",
                    )
                timings.writes.append((start, time.perf_counter()))
                pinger.stop()
                pinger.join(timeout=SERVER_TIMEOUT)
                tally.check("the pinger thread ended", not pinger.is_alive())
                timings.pings += pinger.ping_intervals
                timings.lateness += pinger.lateness
                tally.attempted += len(pinger.ping_intervals) + pinger.failures
                tally.failed += pinger.failures
                for source in (writer, pinger):
                    for name, value in source.counters.items():
                        counters[name] = counters.get(name, 0) + value

                # ---- untimed warm-up, and the self-checks after the last writes ----
                # The first query of a kind in a server process pays one-off
                # set-up, and the first after writes refills caches.  One
                # query of each kind pays both before any query is timed.
                verification = inputs.verification_queries(newest)
                if round_index < workload.rounds - 1:
                    for query in _one_per_kind(verification):
                        _ask(writer, query, tally)
                else:
                    reference = Reference(inputs)
                    if tamper is not None:
                        tamper(reference)
                    stats = writer.stats()
                    tally.check("total_count equals the values generated", stats["total_count"] == float(inputs.total_values))
                    tally.check("values recorded equal the values generated", recorded == inputs.total_values)
                    tally.check("frames applied equal the frames pushed", stats["frames_applied"] == float(inputs.pushes))
                    tally.check("no push was deduplicated or shed", stats["duplicates_rejected"] == 0 and stats["pushes_shed"] == 0)
                    before = {}
                    for query in verification:
                        before[query] = _ask(writer, query, tally)
                        tally.check(f"{query.kind} answers match the reference", before[query] == reference.answer(query))

                # ---- timed queries, closed loop ----
                for query in inputs.queries(workload.queries_per_round, newest, round_index):
                    begin = time.perf_counter()
                    answer = _ask(writer, query, tally)
                    timings.queries.append((begin, time.perf_counter()))
                    timings.query_kinds.append(query.kind)
                    if answer is not None and round_index == workload.rounds - 1:
                        tally.check(f"{query.kind} answers match the reference", answer == reference.answer(query))

                # ---- graceful stop and restart on the same port and data, timed ----
                # `repro serve` writes no final snapshot when stopped by SIGINT,
                # so the stop asks for one first; without it every restart would
                # replay the whole log.  The writer redials on its next request.
                rss_mb.append(server.peak_rss_mb())
                begin = time.perf_counter()
                tally.op(writer.snapshot().get("status") == "ok", "snapshot")
                writer.close()
                server.stop()
                server = ServerProcess(server.data_dir, env, port=server.port)
                server.start()
                timings.recoveries.append((begin, time.perf_counter()))

            after = writer.stats()
            tally.check("total_count survives the restarts", after["total_count"] == stats["total_count"])
            for query, answer in before.items():
                tally.check("answers after the restarts equal those before", _ask(writer, query, tally) == answer)
            writer.close()
        finally:
            try:
                if pinger is not None and pinger.is_alive():
                    pinger.stop()
                    pinger.join(timeout=SERVER_TIMEOUT)
            finally:
                if server is not None:
                    server.stop()

    retried = counters["retries"] + counters["overloads"] + counters["transport_failures"]
    tally.attempted += retried
    tally.failed += retried
    metrics = _metrics(timings, recorded, rss_mb, host.normalize)
    as_timed = _metrics(timings, recorded, rss_mb, lambda intervals: [end - begin for begin, end in intervals])
    queries = host.normalize(timings.queries)
    by_kind: Dict[str, List[float]] = {}
    for kind, latency in zip(timings.query_kinds, queries):
        by_kind.setdefault(kind, []).append(latency)
    report = {
        "workload": workload.name,
        "pushes": len(timings.pushes),
        "pings": len(timings.pings),
        "queries": len(timings.queries),
        "write_seconds": sum(end - begin for begin, end in timings.writes),
        "host_probes": host.probes,
        "host_slowdown": {
            "writes": statistics.fmean(host.slowdown(*interval) for interval in timings.writes),
            "queries": statistics.fmean(host.slowdown(*interval) for interval in timings.queries),
            "recoveries": statistics.fmean(host.slowdown(*interval) for interval in timings.recoveries),
        },
        "metrics_as_timed": {name: value for name, (value, _) in as_timed.items()},
        "setup_samples_s": host.normalize(timings.setups),
        "recovery_samples_s": host.normalize(timings.recoveries),
        "query_ms_by_kind": {
            kind: {"p50": percentile(samples, 50) * 1e3, "p90": percentile(samples, 90) * 1e3}
            for kind, samples in by_kind.items()
        },
        "client_counters": counters,
        "ping_send_late_ms": {
            "p50": percentile(timings.lateness, 50) * 1e3,
            "p99": percentile(timings.lateness, 99) * 1e3,
            "max": max(timings.lateness) * 1e3,
        },
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


def _metrics(timings: Timings, recorded: int, rss_mb: List[float], seconds) -> dict:
    """The end-to-end metrics, each interval's length taken by ``seconds``."""
    pushes = seconds(timings.pushes)
    pings = seconds(timings.pings)
    queries = seconds(timings.queries)
    return {
        "setup_s": (statistics.median(seconds(timings.setups)), "s"),
        "values_per_s": (recorded / sum(seconds(timings.writes)), "1/s"),
        "push_p50_ms": (percentile(pushes, 50) * 1e3, "ms"),
        "push_p90_ms": (percentile(pushes, 90) * 1e3, "ms"),
        "ping_p99_ms": (percentile(pings, 99) * 1e3, "ms"),
        "query_p50_ms": (percentile(queries, 50) * 1e3, "ms"),
        "query_p90_ms": (percentile(queries, 90) * 1e3, "ms"),
        "recovery_s": (statistics.median(seconds(timings.recoveries)), "s"),
        "server_rss_mb": (max(rss_mb), "MiB"),
    }
