"""The environment a set of numbers was measured in."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def schedulable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def load_average() -> float:
    return os.getloadavg()[0]


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path) -> dict:
    """Where and on what the benchmark ran; a checkout without git says so."""
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        "schedulable_cpus": schedulable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
    }


def noisy(load_start: float, load_end: float) -> bool:
    """Something else was competing for more than half the schedulable CPUs.

    At the end the benchmark's own busy process is part of the load average,
    so one CPU's worth is allowed on top.
    """
    half = schedulable_cpus() / 2
    return load_start > half or load_end > half + 1.0
