"""Shared plumbing for the benchmark workloads.

Every workload module exposes ``run(seed, seconds, trace, size, corrupt)``
returning an :class:`Outcome`; ``run.py`` turns it into the one-line JSON
result.  This module holds what the workloads share: locating the source
tree, the operation ledger (attempted / failed, with the reason for each
failure), percentiles, peak memory and the set-up timer.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where traces and server span dumps go (inside the checkout).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def ensure_source_tree() -> None:
    """Make ``repro`` importable from the checkout, or exit non-zero
    without printing a result when the program is not there."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class Ledger:
    """Operations attempted and failed; a wrong output is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 50:
                self.reasons.append(what)
        return ok

    def passed(self, count: int) -> None:
        """Record ``count`` operations that succeeded."""
        self.attempted += count


class Outcome:
    """What one workload run measured."""

    def __init__(self, ledger: Ledger, metrics: Dict[str, tuple]):
        self.ledger = ledger
        #: name -> (value, unit), end to end
        self.metrics = metrics
        #: diagnostics for stderr, not part of the result
        self.extra: Dict[str, object] = {}
        self.recorder = None
        self.tally: Dict[str, float] = {}
        self.overhead_pct = 0.0

    def trace(self, recorder, tally: Dict[str, float],
              overhead_pct: float) -> None:
        """Attach what the traced run measured per layer."""
        self.recorder = recorder
        self.tally = tally
        self.overhead_pct = overhead_pct

    def to_json(self) -> str:
        return json.dumps({
            "correct": self.ledger.failed == 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit)
                        in sorted(self.metrics.items())},
        })


def end_to_end(setups: Sequence[float], peak_mb: float,
               time_to_run_s: float, run_hz: float,
               work: Sequence[float]) -> Dict[str, tuple]:
    """The end-to-end metrics every workload reports (perfbench/DESIGN.md
    says what each means on each workload)."""
    return {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "time_to_run_s": (time_to_run_s, "s"),
        "run_hz": (run_hz, "Hz"),
        "work_s": (median(work), "s"),
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of another live process (Linux VmHWM)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def import_probe_s(modules: Sequence[str]) -> float:
    """Seconds a fresh interpreter takes to import ``modules`` — the
    import share of set-up, measured in a child that is waited for."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {SRC!r}); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


class Stopwatch:
    """Host seconds since construction."""

    def __init__(self):
        self.t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0


def another_unit(watch: Stopwatch, seconds: float,
                 durations: Sequence[float], minimum: int = 1) -> bool:
    """Whether to start another unit of work (a round, a pass, a
    session): always until ``minimum`` are done, then while the run
    would end nearer the budget with it than without it."""
    if len(durations) < minimum:
        return True
    return watch.elapsed() + median(durations) / 2 < seconds


def write_json(path: str, obj: object) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def read_json(path: str) -> object:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
