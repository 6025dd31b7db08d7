"""Shared helpers: locating the program, provenance, statistics, memory.

The benchmark runs from the root of a checkout and imports the program
from ``<root>/src``.  Everything it writes goes under ``<root>/.perfbench``.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

#: The simulation backend every workload runs on.
BACKEND = "vectorized"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def use_program() -> None:
    """Make ``import repro`` load the checkout's own sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def program_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def work_dir(name: str) -> Path:
    """A fresh per-run scratch directory inside the checkout."""
    path = WORK_DIR / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def git_sha() -> str:
    """Commit of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, input_seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "input_seed": input_seed,
        "backend": BACKEND,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0
