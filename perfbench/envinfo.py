"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import importlib.metadata
import os
import platform
import re
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def commit(root: Path):
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha:
        return sha
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_digest(root: Path) -> str:
    """sha256 over the package sources, so a result names the code it ran
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(idx / "size")
    return out


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {"name": v.get("name"), "version": v.get("version")} for k, v in deps.items()}
    except (TypeError, KeyError):
        return {}


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    out = {}
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", _read("/proc/self/maps"))))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def threads_of_this_process() -> int:
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def record(root: Path, workload: str, seed: int, requests: int, trace: bool) -> dict:
    nproc = len(os.sched_getaffinity(0))
    threads = threads_of_this_process()
    return {
        "commit": commit(root),
        "src_sha256": src_digest(root),
        "workload": workload,
        "seed": seed,
        "requests": requests,
        "trace": trace,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "openblas_threads": _openblas_threads(),
        # threads besides the main one (numpy's BLAS pool, when loaded)
        "load_generator_threads_started": threads - 1,
        "load_generator_threads_within_nproc": 0 <= threads - 1 <= nproc,
    }
