"""Run one benchmark workload end to end, or its traced per-layer run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

``--trace 0`` drives a real ``python -m repro serve`` process over sockets
and prints the end-to-end metrics; ``--trace 1`` runs the same workload's
operations in-process and prints the per-layer metrics.  The next-to-last
line of standard output is a JSON report (environment, sample counts,
self-checks); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.

Everything the run writes — the compiled kernel cache, server data
directories — stays under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("wide", "deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(seed: int) -> dict:
    """Kernel backend (what ``repro version`` prints), host, versions, commit, seed.

    Resolving the backend also builds the native kernel into the cache
    directory, so no timed step pays for the compile.
    """
    import numpy

    from repro import kernel

    info = kernel.backend_info()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "kernel_backend": info["active"],
        "native_available": info["native_available"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


def prepare_environment() -> dict:
    """Point imports, temporary files and the kernel cache at this checkout.

    Returns the environment for child ``repro`` processes.
    """
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(STATE / "kernel")
    os.environ["TMPDIR"] = str(STATE / "tmp")
    tempfile.tempdir = str(STATE / "tmp")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return dict(os.environ, PYTHONPATH=str(SRC))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    env = prepare_environment()
    # A terminated run still unwinds, so its servers are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from e2e import run_e2e
    from traced import run_traced
    from workloads import WORKLOADS

    environment = _environment(args.seed)
    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    try:
        runner = run_traced if args.trace else run_e2e
        result = runner(workload, args.seed, args.seconds, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = result.pop("report")
    print(json.dumps({"environment": environment, "trace": args.trace, **report}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
