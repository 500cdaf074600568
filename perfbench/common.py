"""Shared helpers of the benchmark: paths, statistics, run record, memory."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: the benchmark's own directory and the repository root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for ledgers, service data and span dumps; removed by
#: the run that made it, listed in the root ``.gitignore``.
WORK = BENCH_DIR / ".work"


def program_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make the package under ``src/`` importable."""
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def cpu_count() -> int:
    """CPUs this process may run on (not the machine's total)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, fraction: float):
    """Nearest-rank percentile (``ceil(fraction * n) - 1`` zero-based)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def named_percentile(values, fraction: float):
    """The percentile, or ``None`` when fewer than ten samples lie beyond
    it — such a percentile is not reported."""
    if len(values) * (1.0 - fraction) < 10:
        return None
    return percentile(values, fraction)


#: one reference loop's time on the machine the benchmark was written on
#: (2-vCPU VM, Python 3.11.7); see :class:`Speed`.
REFERENCE_S = 0.010


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a, self.b = 1, 2


def _reference_step(cell: _Cell, table: dict, i: int) -> int:
    key = i & 255
    table[key] = table.get(key, 0) + cell.a * i
    cell.a = (cell.a * 3 + cell.b) & 0xFFFF
    return key


def reference_loop() -> float:
    """A fixed piece of interpreter work (calls, attribute and dict
    access, integer arithmetic) that no change to the program can alter;
    returns its wall time. The collector is off so the program's heap
    size does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        cell, table = _Cell(), {}
        for i in range(30_000):
            _reference_step(cell, table, i)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def probe() -> float:
    """The machine's current speed: median of five reference loops."""
    return median([reference_loop() for _ in range(5)])


class Speed:
    """Expresses measured times at the reference speed.

    A shared 2-vCPU host runs the same interpreter work 10-60% slower in
    some minutes than in others, and a slow phase can cover a whole run.
    So the closed-loop workloads probe the machine between operations
    and report each operation's time multiplied by ``REFERENCE_S`` over
    the mean of the probes just before and just after it. A change to
    the program moves the operation and not the probe, so it shows in
    full; a slow phase moves both and largely cancels. The raw times are
    printed beside."""

    def __init__(self) -> None:
        self.last = probe()

    def factor(self) -> float:
        """The factor for the operation since the previous call."""
        now = probe()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return factor


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports
    ``ru_maxrss`` in KiB). Every workload runs in this process and starts
    no other before the reading, so this is the benchmark's whole peak.
    ``RUSAGE_CHILDREN`` is not added: it also counts the children that
    the launching shell waited for before it started this program."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes): the
    program's identity where no git metadata is available."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    revision = done.stdout.strip()
    return revision if done.returncode == 0 and revision else "unknown (not a git checkout)"


def run_record(workload: str, seed: int, seconds: int, trace: bool, inputs: dict) -> dict:
    """What a number needs to count: revision, CPUs, Python, seed, input size."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_head": git_revision(),
        "src_digest": source_digest(),
        "cpu_count": cpu_count(),
        "python": platform.python_version(),
        "inputs": inputs,
    }
