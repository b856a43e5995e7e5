"""Machine and software facts recorded in every results file."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _openblas_pools() -> list:
    """Name, build string and thread count of each OpenBLAS loaded here.

    numpy and scipy wheels each bundle their own OpenBLAS, with symbols
    prefixed by the wheel; the libraries are found in the process map.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                            and ln.split()[-1].startswith("/")})
    except OSError:
        return []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                entry["threads"] = threads()
                entry["config"] = config().decode(errors="replace")
                break
            if "threads" in entry:
                break
        pools.append(entry)
    return pools


def _git_commit(repo_root: str) -> str | None:
    if not os.path.isdir(os.path.join(repo_root, ".git")):
        return None  # an exported checkout, not a git tree
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo_root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def collect(repo_root: str, seed: int) -> dict:
    """Facts about this process's interpreter, numpy, scipy and BLAS."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    pools = _openblas_pools()
    return {
        "seed": seed,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "pools": pools},
        "blas_threads_within_nproc": all(p.get("threads", 0) <= nproc
                                         for p in pools),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(repo_root),
        "executable": os.path.basename(sys.executable),
        "load": "closed loop, one client, one child process at a time",
    }
