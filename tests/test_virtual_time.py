"""Virtual time is pinned: goldens for every tier and both figures.

Host-side optimisations of the scheduler, the data plane and the
compiled models must not move virtual time.  These goldens were
captured from the runtime before its scheduler loop was made lean; the
test reruns the same small windows of pow, regex and nw on the
interpreted, sw-fast and open-loop hardware tiers, plus the Figure 11/12
measurement harnesses at small parameters, and requires every virtual
clock tick count, virtual nanosecond, per-tier event tally and
``$display`` line to match exactly.

Open-loop batch sizes adapt to host speed, so the runtime's host clock
is frozen for the duration (no batch is ever resized) and the hardware
windows pin the executed-batch cap themselves, which makes the
fast-forward path run at the same points on every host.

Regenerate (only when a change is *meant* to move virtual time, and say
so in the change log)::

    PYTHONPATH=src python tests/test_virtual_time.py --write
"""

import json
import os
import sys

import pytest

from repro.apps.nw import nw_program
from repro.apps.pow import pow_program
from repro.apps.regex import regex_program
from repro.backend.compilequeue import CompileQueue
from repro.backend.compiler import CompileService
from repro.core import runtime as runtime_mod
from repro.core.runtime import Runtime
from repro.perf.figures import measure_pow_timeline, measure_regex_timeline

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "virtual_time_goldens.json")
REGEX = "GET (/[a-z0-9]*)+ HTTP"
STREAM = b"xx GET /ab0/c HTTP zz GET / HTTP GET /x9/ HTTP GEX /" * 8
#: (interpreted, sw-fast, hardware) window lengths, in iterations.
WINDOWS = {"pow": (40, 600, 6000), "regex": (1800, 2400, 6000),
           "nw": (120, 480, 6000)}
#: Executed-steps cap per open-loop batch in the hardware windows.
OLOOP_CAP = 700


class _FrozenClock:
    """Stands in for the runtime's ``time`` module: host time never
    advances, so open-loop batch sizes never adapt to the host."""

    @staticmethod
    def perf_counter():
        return 0.0


def _program(app):
    if app == "pow":
        return pow_program(target_zeros=1)
    if app == "regex":
        return regex_program(REGEX, report_every=1)[0]
    return nw_program("ACGTTGCA", "AGTTCA", finish_on_done=False)


def _runtime(tier):
    if tier == "interpreted":
        return Runtime(enable_jit=False)
    if tier == "sw-fast":
        rt = Runtime(compile_service=CompileService(latency_scale=1e9))
        # Inline codegen: the swap lands in the first window.
        rt._fast_queue = CompileQueue(max_workers=0)
        return rt
    return Runtime(compile_service=CompileService(latency_scale=0.0))


def _observe(rt):
    return {"ticks": rt.virtual_clock_ticks,
            "ns": rt.time_model.now_ns,
            "tier_events": dict(rt.time_model.tier_events),
            "lines": list(rt.output_lines),
            "leds": [list(p) for p in rt.board.led_trace()]}


def _tier_run(app, tier):
    rt = _runtime(tier)
    rt.eval_source(_program(app))
    if app == "regex":
        rt.board.fifo("input_fifo").attach_source(STREAM, 555_000.0)
    n = WINDOWS[app][("interpreted", "sw-fast", "hardware").index(tier)]
    if tier != "hardware":
        rt.run(iterations=n)
        return _observe(rt)
    rt.run(iterations=64)
    assert rt._open_loop_active, app
    start = rt.iterations
    while rt.iterations - start < n:
        rt._oloop_exec_cap = OLOOP_CAP
        rt.run(iterations=1, fast_forward=True)
    return _observe(rt)


def capture():
    out = {}
    for app in ("pow", "regex", "nw"):
        for tier in ("interpreted", "sw-fast", "hardware"):
            out[f"{app}/{tier}"] = _tier_run(app, tier)
    out["fig11"] = measure_pow_timeline(
        target_zeros=8, sim_iterations=60, hw_iterations=3000).as_dict()
    out["fig12"] = measure_regex_timeline(
        transport_bytes_per_sec=25e6, stream_len=512).as_dict()
    return json.loads(json.dumps(out))


@pytest.fixture
def frozen_host_clock(monkeypatch):
    monkeypatch.setattr(runtime_mod, "_time", _FrozenClock)


def test_virtual_time_matches_goldens(frozen_host_clock):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = capture()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    runtime_mod._time = _FrozenClock
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(capture(), fh, indent=1, sort_keys=True)
        fh.write("\n")
