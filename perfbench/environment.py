"""Environment block and the import profile measured from outside."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from statistics import median

from workloads import SRC, cli_env

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "ETBELL_THREADS",
)


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def environment() -> dict:
    """Python, numpy and BLAS build, thread variables as found, cores, src size."""
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
    }


def _wall(args, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(args, env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def import_profile(repeats: int = 3) -> dict:
    """Medians of ``python -c pass`` wall time and of the cumulative
    ``-X importtime`` figures for ``etbell`` and ``scipy.stats``."""
    env = cli_env()
    start = [_wall([sys.executable, "-c", "pass"], env) for _ in range(repeats)]
    cumulative = {"etbell": [], "scipy.stats": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import etbell"],
            env=env, check=True, capture_output=True, text=True, timeout=60,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in cumulative:
                cumulative[fields[2].strip()].append(int(fields[1]) / 1e6)
    return {
        "cli.interpreter_start_s": median(start),
        "cli.import_s": median(cumulative["etbell"]),
        "cli.import_scipy_stats_s": median(cumulative["scipy.stats"] or [0.0]),
    }
