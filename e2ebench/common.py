"""Shared plumbing: clocks, process accounting, statistics, result output."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root (the parent of this directory) and the benchmark's
#: scratch area inside it: run results, traces and data dirs.
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "e2ebench" / "out"
CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def since_process_start() -> float:
    """Seconds since this process was started (10 ms tick resolution).

    Read from /proc/self/stat against CLOCK_BOOTTIME, so interpreter
    start-up and imports count; falls back to the time since this module
    was imported.
    """
    try:
        with open("/proc/self/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        started = int(fields[19]) / CLK_TCK
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED


_IMPORTED = time.perf_counter()


class ProcCpu:
    """CPU seconds of another process, from /proc/<pid>/stat (10 ms ticks)."""

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MB: this process, or *pid* via VmHWM."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


class Stopwatch:
    """Wall and CPU time of one timed phase of this process."""

    def __enter__(self) -> "Stopwatch":
        self.cpu0 = time.process_time()
        self.wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall = time.perf_counter() - self.wall0
        self.cpu = time.process_time() - self.cpu0
        return False


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], pct: int) -> float:
    """The *pct*-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def rounds_for(seconds: int, nominal_round_s: float) -> int:
    """Whole rounds that fill about *seconds* at the nominal round cost.

    The count depends only on the requested run length, never on how
    fast this machine is, so every run with the same ``--seconds`` does
    the same work.
    """
    return max(1, round(seconds / nominal_round_s))


def round_plan(rounds: int, trace: bool) -> List[bool]:
    """Which of a run's rounds are traced: none, or every second one.

    A traced run does as many rounds as an untraced one (at least two,
    so it has one of each kind), untraced and traced in turn, so it takes
    about as long.
    """
    if not trace:
        return [False] * rounds
    return [index % 2 == 1 for index in range(max(2, rounds))]


def work_dir(name: str) -> Path:
    """A fresh per-process scratch directory inside the checkout."""
    path = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def result_path(result: "Result", suffix: str) -> Path:
    """Where a run writes a file next to its result (traces, spans)."""
    OUT.mkdir(parents=True, exist_ok=True)
    return OUT / f"{result.workload}-seed{result.seed}.{suffix}"


class Result:
    """What one run measured, checked and counted."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: Dict[str, object] = {}

    def check(self, failures: Iterable[str]) -> None:
        self.failures.extend(failures)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return not self.failures

    def emit(self, wanted: Sequence[str]) -> int:
        """Print the readable table, write the result file, print the JSON.

        Every metric goes into the table and the result file; the last
        line carries exactly the metric names in *wanted*.
        """
        for line in self.failures:
            print(f"CHECK FAILED: {line}")
        width = max((len(name) for name in self.metrics), default=10)
        for name in sorted(self.metrics):
            value, unit = self.metrics[name]
            print(f"  {name:<{width}}  {value:>14.6g} {unit}")
        OUT.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(self.metrics.items())},
            "notes": self.notes,
        }
        name = f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
        missing = [metric for metric in wanted if metric not in self.metrics]
        if missing:
            print(f"CHECK FAILED: metrics not measured: {', '.join(missing)}")
            self.failures.append("missing metrics")
        line = {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                metric: {"value": self.metrics[metric][0], "unit": self.metrics[metric][1]}
                for metric in wanted
                if metric in self.metrics
            },
        }
        print(json.dumps(line))
        return 0 if self.correct else 1
