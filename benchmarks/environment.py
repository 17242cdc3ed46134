"""The environment block recorded with every result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_info() -> dict:
    """BLAS name, version and build configuration as numpy reports them."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no mode= argument
        return {"name": "unknown"}
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git repository.

    The ceiling keeps git from finding a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path) -> dict:
    """The machine and software a result was measured on.

    ``--jobs`` differs between workloads, so each result's details carry it.
    """
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(root),
        "src_lines": src_lines(root),
    }
