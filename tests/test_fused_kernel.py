"""The fused sw-fast scheduler kernel against the general loop.

Every case runs the same scenario twice: once as shipped, and once with
the kernel's eligibility check patched to refuse every engine set, so
the general ``_phase_loop`` + ``_window`` loop runs every iteration.
The two runs must agree on everything the scheduler can affect:
iterations, virtual nanoseconds, per-tier event tallies, plane
messages, perf samples, program output, the LED trace, the user
engine's state and every engine's event count.  Each case also checks
that the kernel really ran, so a scenario that never reaches it cannot
pass vacuously.

Open-loop batch sizes adapt to host speed, so the runtime's host clock
is frozen (as in ``test_virtual_time.py``).
"""

import pytest

from repro.apps.nw import nw_program
from repro.apps.pow import pow_program
from repro.apps.regex import regex_program
from repro.backend.compilequeue import CompileQueue
from repro.backend.compiler import CompileService
from repro.common.errors import CascadeError
from repro.core import runtime as runtime_mod
from repro.core.repl import Repl
from repro.core.runtime import Runtime
from repro.perf.timemodel import TimeModel

STREAM = b"xx GET /ab0/c HTTP zz GET / HTTP GET /x9/ HTTP GEX /" * 8

DISPLAY_FINISH = """
reg [7:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  if (n % 5 == 0) $display("n=%0d", n);
  if (n == 90) $finish;
end
"""

COUNTER_LED = """
reg [7:0] n = 0;
always @(posedge clk.val) n <= n + 1;
assign led.val = n;
"""

PAD_RESET = """
reg [7:0] acc = 0;
always @(posedge clk.val)
  if (rst.val) acc <= 0;
  else acc <= acc + pad.val;
assign led.val = acc;
"""


class _FrozenClock:
    @staticmethod
    def perf_counter():
        return 0.0


@pytest.fixture(autouse=True)
def frozen_host_clock(monkeypatch):
    monkeypatch.setattr(runtime_mod, "_time", _FrozenClock)


def _runtime(latency_scale=1e9, **kwargs):
    rt = Runtime(compile_service=CompileService(latency_scale=latency_scale),
                 **kwargs)
    # Inline codegen: the sw-fast swap lands in the first window.
    rt._fast_queue = CompileQueue(max_workers=0)
    return rt


def _observe(rt):
    return {
        "iterations": rt.iterations,
        "now_ns": rt.time_model.now_ns,
        "tier_events": dict(rt.time_model.tier_events),
        "messages": rt.plane.messages_sent,
        "samples": list(rt.perf.samples),
        "lines": list(rt.output_lines),
        "leds": list(rt.board.leds.trace),
        "finished": rt.finished,
        "main": {k: repr(v) for k, v in
                 sorted(rt.engines["main"].get_state().items())},
        "events": {name: engine.events_processed()
                   for name, engine in rt.engines.items()},
        "tiers": rt.engine_tiers(),
    }


def _compare(monkeypatch, scenario):
    """Run ``scenario`` on the kernel and on the general loop; return
    the kernel arm's runtime after asserting the two agree."""
    fused = scenario()
    with monkeypatch.context() as m:
        m.setattr(Runtime, "_fused_plan",
                  lambda self, active, polled: None)
        reference = scenario()
    assert reference.metrics.value("runtime.fused.iterations") == 0
    got, want = _observe(fused), _observe(reference)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
    assert fused.metrics.value("runtime.fused.iterations") > 0
    return fused


def _handbacks(rt, reason):
    return rt.metrics.value(f"runtime.fused.handback.{reason}")


@pytest.mark.parametrize("app", ["pow", "regex", "nw"])
def test_apps_match_general_loop(monkeypatch, app):
    def scenario():
        rt = _runtime()
        if app == "pow":
            rt.eval_source(pow_program(target_zeros=1))
        elif app == "regex":
            rt.eval_source(regex_program("GET (/[a-z0-9]*)+ HTTP",
                                         report_every=1)[0])
            rt.board.fifo("input_fifo").attach_source(STREAM, 555_000.0)
        else:
            rt.eval_source(nw_program("ACGTTGCA", "AGTTCA",
                                      finish_on_done=False))
        for n in (1, 5, 200, 333, 600):
            rt.run(iterations=n)
        return rt

    rt = _compare(monkeypatch, scenario)
    assert rt.engine_tiers()["main"] == "sw-fast"
    if app == "regex":
        # The FIFO refills between steps: its status changes hand back.
        assert _handbacks(rt, "board") > 0


def test_display_and_finish_inside_a_batch(monkeypatch):
    def scenario():
        rt = _runtime()
        rt.eval_source(DISPLAY_FINISH)
        rt.run(iterations=10_000)
        return rt

    rt = _compare(monkeypatch, scenario)
    assert rt.finished == 0
    assert rt.output_lines[-1] == "n=90"
    assert _handbacks(rt, "task") > 0


def test_counter_drives_leds(monkeypatch):
    def scenario():
        rt = _runtime()
        rt.eval_source(COUNTER_LED)
        rt.run(iterations=700)
        rt.run(iterations=65)
        return rt

    rt = _compare(monkeypatch, scenario)
    assert len(rt.board.leds.trace) > 100


def test_pad_and_reset_between_runs_and_by_action(monkeypatch):
    def scenario():
        rt = _runtime()
        rt.eval_source(PAD_RESET)
        rt.run(iterations=100)
        rt.board.pad.press(0)
        rt.run(iterations=100)
        rt.board.reset = 1
        rt.run(iterations=7)
        rt.board.reset = 0
        rt.board.pad.press(1)
        rt.run(iterations=100)
        # An action pushed from inside a batch (the LED strip passing a
        # value) releases the pad at the next window.
        leds_set = rt.board.leds.set

        def set_and_act(value, time):
            leds_set(value, time)
            if value > 200 and rt.board.pad.value:
                rt.interrupts.push_action(rt.board.pad.release_all)
        rt.board.leds.set = set_and_act
        rt.run(iterations=300)
        return rt

    rt = _compare(monkeypatch, scenario)
    assert _handbacks(rt, "board") > 0
    assert _handbacks(rt, "interrupt") > 0
    assert rt.board.pad.value == 0


def test_fabric_compile_lands_inside_a_batch(monkeypatch):
    def scenario():
        rt = _runtime(latency_scale=1e-3)
        rt.eval_source(COUNTER_LED)
        rt.run(iterations=1)
        (job,) = rt.compiler.jobs
        # Due after a few dozen sw-fast iterations, between samples.
        assert 0.01 < job.ready_at_s < 0.5
        rt.run(virtual_seconds=job.ready_at_s + 0.01)
        return rt

    rt = _compare(monkeypatch, scenario)
    assert rt.engine_tiers()["main"] == "hardware"
    assert _handbacks(rt, "compile") == 1


def test_run_bounds(monkeypatch):
    def scenario():
        rt = _runtime()
        rt.eval_source(DISPLAY_FINISH)
        for _ in range(5):
            rt.run(iterations=1)
        rt.run(virtual_seconds=0.0123)
        rt.run(iterations=3, sample_every=2)
        rt.run_until_finish()
        return rt

    rt = _compare(monkeypatch, scenario)
    assert rt.finished == 0
    assert _handbacks(rt, "bound") > 0


@pytest.mark.parametrize("model", [
    {"fabric_mhz": 33.0},
    {"fabric_mhz": 33.0, "mmio_ns": 1234.567, "sw_event_ns": 98765.4321,
     "runtime_overhead_ns": 3999.99}])
def test_non_integer_charges(monkeypatch, model):
    def scenario():
        rt = _runtime(time_model=TimeModel(**model))
        rt.eval_source(pow_program(target_zeros=1))
        rt.run(iterations=500)
        return rt

    rt = _compare(monkeypatch, scenario)
    assert not float(rt.time_model.now_ns).is_integer()


def test_memory_clocked_through_the_engine(monkeypatch):
    """A passive engine clocked through the engine's output net (as the
    FIFO is in regex) takes the normal propagate path."""
    def scenario():
        rt = _runtime()
        rt.eval_source("""
reg [7:0] n = 0;
wire [7:0] q;
always @(posedge clk.val) n <= n + 1;
Memory#(4, 8) mem(.clk(clk.val), .wen(1'b1), .waddr(n[3:0]),
                  .wdata(n), .raddr(n[3:0] - 4'd3), .rdata(q));
assign led.val = q;
""")
        rt.run(iterations=400)
        return rt

    rt = _compare(monkeypatch, scenario)
    assert len(rt.board.leds.trace) > 50


def test_ineligible_engine_set_is_counted():
    """Two user engines keep the general loop, and :stats says why."""
    rt = _runtime(inline_user_logic=False)
    rt.eval_source("""
module Count(input wire clk, output reg [7:0] n);
  always @(posedge clk) n <= n + 1;
endmodule
wire [7:0] n;
Count c(.clk(clk.val), .n(n));
assign led.val = n;
""")
    rt.run(iterations=200)
    assert set(rt.engine_tiers().values()) >= {"sw-fast"}
    assert rt.metrics.value("runtime.fused.iterations") == 0
    assert _handbacks(rt, "ineligible") >= 1
    assert "one sw-fast engine" in rt.fused_ineligible


def test_sw_fast_settle_bound_still_raises():
    """A design that never settles after the swap raises on the sw-fast
    tier, as the general loop's 100,000-round bound does."""
    rt = _runtime()
    rt.eval_source("""
reg [7:0] n = 0;
reg go = 0;
reg [31:0] b = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  if (n == 20) go <= 1;
end
always @(b or go) if (go) b <= b + 1;
""")
    rt.run(iterations=10)
    assert rt.engine_tiers()["main"] == "sw-fast"
    bounds = _handbacks(rt, "bound")
    with pytest.raises(CascadeError,
                       match="scheduler did not reach an observable state"):
        rt.run(iterations=100)
    # The kernel, not the general loop, hit the bound: the run stopped
    # short of its iteration bound, so only the raise counts "bound".
    assert _handbacks(rt, "bound") == bounds + 1


def test_stats_show_fused_iterations_and_handbacks():
    repl = Repl(_runtime())
    repl.feed(COUNTER_LED)
    repl.command(":run 200")
    rt = repl.runtime
    (line,) = [l for l in repl.command(":stats").splitlines()
               if l.startswith("fused kernel:")]
    fused = rt.metrics.value("runtime.fused.iterations")
    assert fused > 0
    assert line.startswith(f"fused kernel: {fused} iterations; "
                           "hand-backs: task 0, interrupt 0, sample ")
    assert line.endswith("ineligible engine sets: 0")
