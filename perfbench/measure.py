"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for a run (port files, logs, temp files); ignored by git.
RUN_DIR = ROOT / ".bench_run"

#: Environment switches that would override the defaults being measured.
_OVERRIDES = ("REPRO_LLM_TRANSPORT", "REPRO_EXECUTOR_BACKEND")

#: Set-up repetitions per run; the median is reported.
SETUP_REPEATS = 3


def child_env() -> Dict[str, str]:
    """Environment for processes of the program under test."""
    env = {key: value for key, value in os.environ.items()
           if key not in _OVERRIDES}
    env["PYTHONPATH"] = str(SRC)
    tmp = RUN_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def timed_setup(workload: str, repeats: int = SETUP_REPEATS) -> float:
    """Median seconds for a fresh interpreter to import the workload's
    modules and parse its inputs (``run.py --setup-probe``)."""
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # which would quantise the measurement.
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"),
             "--setup-probe", workload],
            cwd=ROOT, env=child_env(), check=True,
            stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return median(samples)


# -- /proc readings of the processes under test (Linux) ---------------------
def _proc_children(pid: int) -> List[int]:
    children: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return children
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(token) for token in text.split())
    return children


def process_tree(pids: Sequence[int]) -> List[int]:
    """``pids`` plus every live descendant."""
    seen: List[int] = []
    stack = list(pids)
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.append(pid)
        stack.extend(_proc_children(pid))
    return seen


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one live process (0 if gone)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return 0.0
    parts = fields.split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(parts[11]) + int(parts[12])) / ticks


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    try:
        lines = Path(f"/proc/{pid}/status").read_text().splitlines()
    except OSError:
        return 0.0
    for line in lines:
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0
