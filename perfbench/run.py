"""The repository benchmark (see BENCHMARK.json for the design).

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim_tiers --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times every workload end to end with no wrappers
installed; ``--trace 1`` is the separate traced run that reports the
per-layer metrics and writes its spans as a Chrome trace under
``.perfbench_out/``.  The last line of standard output is the JSON
result; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import harness

WORKLOADS = ("sim_tiers", "compile_flow", "edit_tenants")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.ensure_source_tree()
    module = __import__(args.workload)
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    if args.trace:
        from layers import layer_metrics
        outcome.metrics = layer_metrics(outcome)
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        path = os.path.join(harness.OUT_DIR,
                            f"{args.workload}-seed{args.seed}.trace.json")
        outcome.recorder.write_chrome(path)
        outcome.extra["chrome_trace"] = path
    for reason in outcome.ledger.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps(outcome.extra, default=str), file=sys.stderr)
    print(outcome.to_json(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
