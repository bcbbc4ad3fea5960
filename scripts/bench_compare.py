"""Compare two sets of ``perfbench/run.py`` results (report only).

Prints, per workload and per end-to-end metric listed in
``BENCHMARK.json``, each side's median and interquartile range, the
ratio of the medians, how many pairs the change side won, and whether
the medians differ by more than the first side's IQR.  It decides
nothing and exits 0 whatever the numbers say.

The input is a committed trajectory, ``{"runs": [{"side", "pair",
"workload", "result", ...}, ...]}`` with sides ``parent`` and
``change``; runs that name a ``set`` are compared set by set::

    python scripts/bench_compare.py BENCH_sim_tiers.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _end_to_end() -> List[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load_trajectory(path: str) -> Dict[str, Dict[str, List[dict]]]:
    """workload (and set, when runs name one) -> side -> results,
    ordered by pair."""
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    out: Dict[str, Dict[str, List[dict]]] = {}
    for run in sorted(runs, key=lambda r: (r["pair"], r["side"])):
        key = run["workload"] + (f" [{run['set']}]" if "set" in run
                                 else "")
        out.setdefault(key, {}).setdefault(
            run["side"], []).append(run["result"])
    return out


def compare(workload: str, base: List[dict],
            new: List[dict]) -> List[str]:
    lines = [f"{workload}: {len(base)} parent / {len(new)} "
             f"change runs; failed operations "
             f"{sum(r['failed'] for r in base)} / "
             f"{sum(r['failed'] for r in new)}"]
    for metric in _end_to_end():
        name, better = metric["name"], metric["better"]
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in new]
        (a1, a2, a3), (b1, b2, b3) = _quartiles(a), _quartiles(b)
        pairs = list(zip(a, b))
        wins = sum((y < x) if better == "lower" else (y > x)
                   for x, y in pairs)
        ratio = b2 / a2 if a2 else float("nan")
        beyond = abs(b2 - a2) > (a3 - a1)
        lines.append(
            f"  {name:14s} ({better:6s}) parent {a2:12.4f} "
            f"[IQR {a3 - a1:.4f}]  change {b2:12.4f} "
            f"[IQR {b3 - b1:.4f}]  x{ratio:.3f}  wins {wins}/{len(pairs)}"
            f"  {'beyond' if beyond else 'within'} parent IQR")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trajectory", help="the trajectory JSON")
    args = parser.parse_args(argv)
    for workload, sides in sorted(_load_trajectory(args.trajectory).items()):
        print("\n".join(compare(workload, sides.get("parent", []),
                                sides.get("change", []))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
