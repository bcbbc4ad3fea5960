"""Small-size self-test of every workload.

    python3 perfbench/selftest.py

For each workload, at small input sizes: an untraced run must pass its
checks and print exactly the end-to-end metrics ``BENCHMARK.json``
names, each a positive number; a traced run must print exactly the
per-layer metrics; and a run with one output deliberately corrupted
must count that output as a failed operation — so every check is shown
to be live.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import os
import sys

import harness

WORKLOADS = ("sim_tiers", "compile_flow", "edit_tenants")


def _result(outcome) -> dict:
    result = json.loads(outcome.to_json())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        sorted(result)
    assert isinstance(result["attempted"], int) \
        and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}, (name, entry)
        assert isinstance(entry["value"], (int, float)) \
            and math.isfinite(entry["value"]), (name, entry)
    return result


def main() -> int:
    harness.ensure_source_tree()
    from layers import PER_LAYER, layer_metrics

    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert per_layer == {name: unit for name, unit, _ in PER_LAYER}

    for name in WORKLOADS:
        module = __import__(name)

        plain = _result(module.run(1, 0.5, False, size="small"))
        assert plain["correct"] and plain["failed"] == 0, plain
        assert {k: v["unit"] for k, v in plain["metrics"].items()} \
            == e2e, sorted(plain["metrics"])
        for metric, entry in plain["metrics"].items():
            assert entry["value"] > 0, (name, metric, entry)

        outcome = module.run(1, 0.5, True, size="small")
        outcome.metrics = layer_metrics(outcome)
        traced = _result(outcome)
        assert traced["correct"], traced
        assert {k: v["unit"] for k, v in traced["metrics"].items()} \
            == per_layer, sorted(traced["metrics"])

        corrupted = _result(module.run(1, 0.5, False, size="small",
                                       corrupt=True))
        assert corrupted["failed"] >= 1 and not corrupted["correct"], \
            corrupted
        print(f"selftest {name}: ok ({plain['attempted']} checked, "
              f"{corrupted['failed']} corrupted outputs caught)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
