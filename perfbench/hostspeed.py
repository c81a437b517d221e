"""How fast the host runs while a benchmark run measures, sampled beside it.

On a shared host a CPU-bound task takes 1.6-1.8 times as long whenever
another tenant loads the same physical core, in episodes that last from a
fraction of a second to minutes.  A run that happens to fall in more of
them reads as a slower program.  To take that out, a probe process times a
fixed pure-Python task on each CPU in turn, every few milliseconds, for
the whole run; :meth:`HostSpeed.slowdown` turns the probes around any
interval into a factor relative to an unloaded core, and the end-to-end
run divides every timed sample by the factor over that sample's own
interval.  The probe times its task in thread CPU time, so waiting for a
CPU the benchmarked processes hold does not read as a slower host.

Run as a script, this file is the probe process itself::

    python3 perfbench/hostspeed.py <samples.json>

It probes until SIGTERM and then writes its samples to the file.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

#: Pause between two probes (each on the next CPU).
PERIOD = 0.0125

#: Thread CPU seconds the probe task takes on an unloaded core of a 2-vCPU
#: Xeon (Sapphire Rapids) VM with CPython 3.11 (0.29-0.33 ms; a loaded core
#: took 0.51-0.55 ms).  A slowdown of 1 means the host ran as fast as that.
REFERENCE_SECONDS = 0.00031

#: Probes around a sample that its slowdown averages at least: with two
#: CPUs probed in turn, half a dozen per CPU.
MIN_PROBES = 12

#: Seconds to wait for the probe process to start or to write its samples.
TIMEOUT = 30.0


def _task() -> None:
    table = {}
    for index in range(3000):
        table[index & 255] = table.get(index & 255, 0) + index


def _probe(out: Path) -> None:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    cpus = sorted(os.sched_getaffinity(0))
    samples: List[Tuple[float, float]] = []
    print("probing", flush=True)
    while not stopping:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            begin = time.thread_time()
            _task()
            samples.append((time.perf_counter(), time.thread_time() - begin))
            time.sleep(PERIOD)
    out.write_text(json.dumps(samples))


class HostSpeed:
    """Runs the probe process for the life of a ``with`` block.

    :meth:`slowdown` is usable after the block has exited.  ``perf_counter``
    reads the system-wide monotonic clock on Linux, so the probe's
    timestamps and the benchmark's are on one time line.
    """

    def __init__(self, workdir: Path) -> None:
        self._out = workdir / "host-probes.json"
        self._process: subprocess.Popen = None
        self._times = np.empty(0)
        self._cpu_seconds = np.empty(0)

    def __enter__(self) -> "HostSpeed":
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self._out)],
            stdout=subprocess.PIPE,
        )
        try:
            if self._process.stdout.readline() != b"probing\n":
                raise RuntimeError(f"host probe exited early with {self._process.wait(TIMEOUT)}")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self._stop()
        if exc_type is not None:
            return
        samples = np.asarray(json.loads(self._out.read_text()), dtype=np.float64).reshape(-1, 2)
        self._times, self._cpu_seconds = samples[:, 0], samples[:, 1]

    def _stop(self) -> None:
        try:
            self._process.terminate()
            self._process.wait(TIMEOUT)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        finally:
            self._process.stdout.close()

    @property
    def probes(self) -> int:
        return int(self._times.size)

    def slowdown(self, begin: float, end: float) -> float:
        """Mean probe time over ``[begin, end]`` against :data:`REFERENCE_SECONDS`.

        Takes every probe inside the interval, and at least the
        :data:`MIN_PROBES` nearest to its middle.
        """
        times, cpu_seconds = self._times, self._cpu_seconds
        low = int(np.searchsorted(times, begin))
        high = int(np.searchsorted(times, end, side="right"))
        if high - low < MIN_PROBES:
            middle = int(np.searchsorted(times, (begin + end) / 2.0))
            low = max(0, min(middle - MIN_PROBES // 2, times.size - MIN_PROBES))
            high = low + MIN_PROBES
        return float(cpu_seconds[low:high].mean()) / REFERENCE_SECONDS

    def normalize(self, intervals) -> List[float]:
        """Each ``(begin, end)`` interval's length divided by its slowdown."""
        return [(end - begin) / self.slowdown(begin, end) for begin, end in intervals]


if __name__ == "__main__":
    _probe(Path(sys.argv[1]))
