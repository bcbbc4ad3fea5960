"""The per-layer metrics of a traced run.

Times come from the spans recorded by :mod:`spans`; counts the program
already keeps come from its ``repro.obs`` registries (tallied with
:func:`tally_registry`, or from the server's ``metrics`` op with
:func:`tally_snapshot`).  Every traced run reports every metric listed
here; a layer a workload does not load reads 0.
"""

from __future__ import annotations

from typing import Dict, Mapping

#: Registry counters the per-layer metrics read.
REGISTRY_NAMES = (
    "compile.host.submit_s", "compile.host.wait_s", "compile.cancelled",
    "compile.failed", "compile.cache_hits", "compile.cache_misses",
    "compile.single_flight_joins", "compile.warm_starts",
    "estimate.fallbacks")

#: (name, unit, better) — the order BENCHMARK.json lists them in.
PER_LAYER = (
    ("verilog.parse_s", "s", "lower"),
    ("verilog.elaborate_s", "s", "lower"),
    ("ir.build_s", "s", "lower"),
    ("core.runtime.rebuild_s", "s", "lower"),
    ("core.runtime.rebuilds", "count", "lower"),
    ("interp.eval_s", "s", "lower"),
    ("interp.events", "count", "lower"),
    ("core.runtime.iter_us.interpreted", "us", "lower"),
    ("core.runtime.iter_us.sw-fast", "us", "lower"),
    ("core.runtime.iter_us.hardware", "us", "lower"),
    ("core.runtime.sched_self_s", "s", "lower"),
    ("core.plane.propagate_s", "s", "lower"),
    ("core.plane.propagate_calls", "count", "lower"),
    ("stdlib.engine_s", "s", "lower"),
    ("backend.hardware.eval_s", "s", "lower"),
    ("backend.hardware.open_loop_s", "s", "lower"),
    ("backend.pycompile.s", "s", "lower"),
    ("backend.estimate.s", "s", "lower"),
    ("backend.estimate.fallbacks", "count", "lower"),
    ("backend.synth.s", "s", "lower"),
    ("backend.synth.cells", "count", "lower"),
    ("backend.place.s", "s", "lower"),
    ("backend.place.moves_tried", "count", "lower"),
    ("backend.place.accept_ratio", "ratio", "higher"),
    ("backend.route.s", "s", "lower"),
    ("backend.route.iterations", "count", "lower"),
    ("backend.route.wirelength", "count", "lower"),
    ("backend.route.overflow", "count", "lower"),
    ("backend.timing.s", "s", "lower"),
    ("backend.compiler.submit_s", "s", "lower"),
    ("backend.compiler.wait_s", "s", "lower"),
    ("backend.compiler.cancelled", "count", "lower"),
    ("backend.compiler.failed", "count", "lower"),
    ("backend.cache.hit_ratio", "ratio", "higher"),
    ("backend.cache.single_flight_joins", "count", "higher"),
    ("backend.cache.warm_starts", "count", "higher"),
    ("server.turn_s", "s", "lower"),
    ("server.wait_s", "s", "lower"),
    ("server.dropped_outputs", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def tally_registry(tally: Dict[str, float], registry) -> None:
    """Add one ``MetricsRegistry``'s counters into ``tally``."""
    for name in REGISTRY_NAMES:
        tally[name] = tally.get(name, 0) + registry.value(name)


def tally_snapshot(tally: Dict[str, float],
                   snapshot: Mapping[str, object]) -> None:
    """Add a merged-registry snapshot (the server ``metrics`` op)."""
    for name in REGISTRY_NAMES:
        value = snapshot.get(name, 0)
        if isinstance(value, (int, float)):
            tally[name] = tally.get(name, 0) + value


def layer_metrics(outcome) -> Dict[str, tuple]:
    """name -> (value, unit) for every per-layer metric."""
    rec, tally = outcome.recorder, outcome.tally
    counts = rec.counts

    def per_iter_us(tier: str) -> float:
        n = counts.get(f"iter.{tier}.n", 0)
        return counts.get(f"iter.{tier}.s", 0.0) * 1e6 / n if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    tried = counts.get("backend.place.moves_tried", 0)
    hits = tally.get("compile.cache_hits", 0)
    lookups = hits + tally.get("compile.cache_misses", 0)
    values = {
        "verilog.parse_s": rec.self_s("verilog.parse"),
        "verilog.elaborate_s": rec.self_s("verilog.elaborate"),
        "ir.build_s": rec.self_s("ir.build"),
        "core.runtime.rebuild_s": rec.total_s("core.runtime.rebuild"),
        "core.runtime.rebuilds": rec.calls("core.runtime.rebuild"),
        "interp.eval_s": rec.self_s("interp.eval"),
        "interp.events": rec.calls("interp.eval"),
        "core.runtime.iter_us.interpreted": per_iter_us("interpreted"),
        "core.runtime.iter_us.sw-fast": per_iter_us("sw-fast"),
        "core.runtime.iter_us.hardware": per_iter_us("hardware"),
        "core.runtime.sched_self_s": rec.self_s("core.runtime.run"),
        "core.plane.propagate_s": rec.self_s("core.plane.propagate"),
        "core.plane.propagate_calls": rec.calls("core.plane.propagate"),
        "stdlib.engine_s": rec.self_s("stdlib.engine"),
        "backend.hardware.eval_s": rec.self_s("backend.hardware.eval"),
        "backend.hardware.open_loop_s":
            rec.self_s("backend.hardware.open_loop"),
        "backend.pycompile.s": rec.self_s("backend.pycompile"),
        "backend.estimate.s": rec.self_s("backend.estimate"),
        "backend.estimate.fallbacks": tally.get("estimate.fallbacks", 0),
        "backend.synth.s": rec.self_s("backend.synth"),
        "backend.synth.cells": counts.get("backend.synth.cells", 0),
        "backend.place.s": rec.self_s("backend.place"),
        "backend.place.moves_tried": tried,
        "backend.place.accept_ratio":
            ratio(counts.get("backend.place.moves_accepted", 0), tried),
        "backend.route.s": rec.self_s("backend.route"),
        "backend.route.iterations":
            counts.get("backend.route.iterations", 0),
        "backend.route.wirelength":
            counts.get("backend.route.wirelength", 0),
        "backend.route.overflow": counts.get("backend.route.overflow", 0),
        "backend.timing.s": rec.self_s("backend.timing"),
        "backend.compiler.submit_s":
            tally.get("compile.host.submit_s", 0.0),
        "backend.compiler.wait_s": tally.get("compile.host.wait_s", 0.0),
        "backend.compiler.cancelled": tally.get("compile.cancelled", 0),
        "backend.compiler.failed": tally.get("compile.failed", 0),
        "backend.cache.hit_ratio": ratio(hits, lookups),
        "backend.cache.single_flight_joins":
            tally.get("compile.single_flight_joins", 0),
        "backend.cache.warm_starts": tally.get("compile.warm_starts", 0),
        "server.turn_s": rec.total_s("server.turn"),
        "server.wait_s": counts.get("server.wait_s", 0.0),
        "server.dropped_outputs": counts.get("server.dropped_outputs", 0),
        "trace.overhead_pct": outcome.overhead_pct,
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (values[name], units[name]) for name in units}
