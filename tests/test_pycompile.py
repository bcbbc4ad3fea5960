"""Differential tests: compiled hardware models vs the interpreter.

The compiled model is our stand-in for the bitstream, so it must agree
bit-for-bit with the reference interpreter on two-state synthesizable
designs — this file drives both from the same stimuli and compares.
"""

import random

import pytest

from repro.backend.pycompile import attr_name as _attr, compile_design
from repro.common.bits import Bits
from repro.interp.engine import SoftwareEngine
from repro.interp.sim import CollectingServices
from repro.verilog.elaborate import elaborate_leaf
from repro.verilog.parser import parse_module


def run_both(text, stimuli, outputs, cycles=20, top=None):
    """Drive interpreter and compiled model with the same input
    sequence; return (interp_trace, compiled_trace)."""
    module = parse_module(text)
    design_i = elaborate_leaf(module)
    design_c = elaborate_leaf(module)
    interp = SoftwareEngine(design_i, CollectingServices())
    compiled = compile_design(design_c).instantiate()

    def settle_interp():
        interp.evaluate()
        while interp.there_are_updates():
            interp.update()
            interp.evaluate()

    def settle_compiled():
        compiled.evaluate()
        while compiled._nba:
            compiled.update()
            compiled.evaluate()

    # The runtime always evaluates engines once at startup (the first
    # scheduler iteration), which registers process sensitivities.
    settle_interp()
    settle_compiled()

    trace_i, trace_c = [], []
    rng = random.Random(7)
    for cycle in range(cycles):
        values = stimuli(cycle, rng)
        for name, value in values.items():
            var = design_i.vars[name]
            interp.poke(name, Bits.from_int(value, var.width))
            setattr(compiled, _attr(name),
                    value & ((1 << var.width) - 1))
            compiled._dirty = True
        for clk in (1, 0):
            if "clk" in design_i.vars:
                interp.poke("clk", Bits.from_int(clk, 1))
                setattr(compiled, "v_clk", clk)
                compiled._dirty = True
            settle_interp()
            settle_compiled()
        trace_i.append(tuple(
            interp.peek(o).to_int_xz(0)
            & ((1 << design_i.vars[o].width) - 1) for o in outputs))
        trace_c.append(tuple(
            getattr(compiled, _attr(o)) for o in outputs))
    return trace_i, trace_c


ALU = """
module alu(input wire clk, input wire [7:0] a, input wire [7:0] b,
           input wire [2:0] op, output reg [15:0] acc = 0);
  always @(posedge clk)
    case (op)
      3'd0: acc <= a + b;
      3'd1: acc <= a - b;
      3'd2: acc <= a * b;
      3'd3: acc <= {a, b};
      3'd4: acc <= a & b;
      3'd5: acc <= (a < b) ? 16'd1 : 16'd0;
      3'd6: acc <= acc ^ {b, a};
      default: acc <= acc >> 1;
    endcase
endmodule
"""

SIGNED = """
module s(input wire clk, input wire signed [7:0] a,
         input wire signed [7:0] b, output reg signed [15:0] r = 0);
  always @(posedge clk)
    if (a > b)
      r <= a * b;
    else if (a == b)
      r <= a >>> 2;
    else
      r <= a - b;
endmodule
"""

COMB_FSM = """
module fsm(input wire clk, input wire go, output reg [1:0] state,
           output reg out);
  always @(posedge clk)
    case (state)
      2'd0: if (go) state <= 2'd1;
      2'd1: state <= 2'd2;
      2'd2: state <= go ? 2'd3 : 2'd0;
      default: state <= 2'd0;
    endcase
  always @(*)
    out = (state == 2'd3);
endmodule
"""

MEMORY = """
module m(input wire clk, input wire [3:0] addr, input wire wen,
         input wire [7:0] din, output reg [7:0] dout);
  reg [7:0] store [0:15];
  always @(posedge clk) begin
    if (wen)
      store[addr] <= din;
    dout <= store[addr];
  end
endmodule
"""

FUNCTION = """
module f(input wire clk, input wire [7:0] x, output reg [7:0] y);
  function [7:0] gray;
    input [7:0] v;
    gray = v ^ (v >> 1);
  endfunction
  always @(posedge clk)
    y <= gray(x);
endmodule
"""

PARTSEL = """
module p(input wire clk, input wire [15:0] v, input wire [1:0] sel,
         output reg [3:0] nib, output reg [15:0] spun);
  always @(posedge clk) begin
    nib <= v[sel * 4 +: 4];
    spun <= {v[7:0], v[15:8]};
    spun[0] <= v[15];
  end
endmodule
"""


# Assigns listed readers-first, part-select targets and a pure function
# the compiler inlines: the network is acyclic, so it settles in one
# pass in topological order.
ACYCLIC = """
module n(input wire [7:0] a, input wire [7:0] b, input wire [2:0] k,
         output wire [7:0] y, output wire [3:0] p);
  function [7:0] rotl;
    input [7:0] v;
    input [2:0] s;
    rotl = (v << s) | (v >> (8 - s));
  endfunction
  wire [7:0] t1;
  wire [7:0] t2;
  assign p[3:2] = t2[1:0];
  assign p[1:0] = y[3:2];
  assign y = t2 - rotl(t1, 3'd2);
  assign t2 = t1 ^ b;
  assign t1 = rotl(a, k) + 8'd3;
endmodule
"""


@pytest.mark.parametrize("name,text,inputs,outputs", [
    ("alu", ALU, {"a": 8, "b": 8, "op": 3}, ["acc"]),
    ("signed", SIGNED, {"a": 8, "b": 8}, ["r"]),
    ("fsm", COMB_FSM, {"go": 1}, ["state", "out"]),
    ("memory", MEMORY, {"addr": 4, "wen": 1, "din": 8}, ["dout"]),
    ("function", FUNCTION, {"x": 8}, ["y"]),
    ("partsel", PARTSEL, {"v": 16, "sel": 2}, ["nib", "spun"]),
    ("acyclic", ACYCLIC, {"a": 8, "b": 8, "k": 3}, ["y", "p"]),
])
def test_compiled_matches_interpreter(name, text, inputs, outputs):
    def stimuli(cycle, rng):
        return {k: rng.getrandbits(w) for k, w in inputs.items()}

    trace_i, trace_c = run_both(text, stimuli, outputs, cycles=40)
    assert trace_i == trace_c, f"{name}: divergence"


def test_compiled_collects_display_tasks():
    module = parse_module("""
module d(input wire clk, input wire [7:0] n);
  always @(posedge clk)
    if (n > 8'd250)
      $display("big %0d", n);
endmodule""")
    compiled = compile_design(elaborate_leaf(module)).instantiate()
    compiled.v_n = 255
    compiled.v_clk = 1
    compiled._dirty = True
    compiled.evaluate()
    assert compiled._tasks and compiled._tasks[0][0] == "display"


def test_compiled_finish_sets_flag():
    module = parse_module("""
module d(input wire clk);
  reg [3:0] n = 0;
  always @(posedge clk) begin
    n <= n + 1;
    if (n == 4'd5)
      $finish;
  end
endmodule""")
    compiled = compile_design(elaborate_leaf(module)).instantiate()
    done = compiled.open_loop("v_clk", 100)
    assert compiled._finished == 0
    assert done < 100


def test_open_loop_matches_stepped_execution():
    module = parse_module("""
module c(input wire clk, output reg [15:0] q);
  always @(posedge clk) q <= q + 3;
endmodule""")
    design = elaborate_leaf(module)
    a = compile_design(design).instantiate()
    b = compile_design(design).instantiate()
    a.open_loop("v_clk", 20)  # 20 half-cycles = 10 posedges
    for _ in range(10):
        for clk in (1, 0):
            b.v_clk = clk
            b._dirty = True
            b.evaluate()
            while b._nba:
                b.update()
                b.evaluate()
    assert a.v_q == b.v_q == 30


def test_unsynthesizable_rejected():
    from repro.common.errors import SynthesisError
    module = parse_module("""
module bad(input wire clk);
  reg r;
  initial r = 0;
endmodule""")
    with pytest.raises(SynthesisError):
        compile_design(elaborate_leaf(module))


def test_generated_source_is_python():
    module = parse_module("""
module tiny(input wire a, output wire b);
  assign b = ~a;
endmodule""")
    compiled = compile_design(elaborate_leaf(module))
    assert "def evaluate" in compiled.source
    compile(compiled.source, "<check>", "exec")


def _comb_source(compiled):
    src = compiled.source
    return src[src.index("def _eval_comb"):src.index("def _seq")]


def _settle(model, **inputs):
    for name, value in inputs.items():
        setattr(model, _attr(name), value)
    model._dirty = True
    model.evaluate()


def test_single_pass_comb_matches_fixpoint():
    """An acyclic network compiles to one straight pass; the same
    network forced onto the fixpoint loop (a comb block does that)
    settles to the same values."""
    lean = compile_design(elaborate_leaf(parse_module(ACYCLIC)))
    looped = compile_design(elaborate_leaf(parse_module(ACYCLIC.replace(
        "endmodule", "  reg d;\n  always @(*) d = a[0];\nendmodule"))))
    assert "for _pass" not in _comb_source(lean)
    assert "rotl" not in _comb_source(lean)     # inlined
    assert "for _pass" in _comb_source(looped)
    a, b = lean.instantiate(), looped.instantiate()
    rng = random.Random(3)
    for _ in range(200):
        inputs = {"a": rng.getrandbits(8), "b": rng.getrandbits(8),
                  "k": rng.getrandbits(3)}
        _settle(a, **inputs)
        _settle(b, **inputs)
        assert (a.v_y, a.v_p) == (b.v_y, b.v_p)


def test_cyclic_network_keeps_the_fixpoint_loop():
    osc = compile_design(elaborate_leaf(parse_module("""
module osc(input wire en, output wire q);
  wire a;
  wire b;
  assign a = en ? ~b : 1'b0;
  assign b = a;
  assign q = b;
endmodule""")))
    assert "for _pass" in _comb_source(osc)
    model = osc.instantiate()
    _settle(model, en=0)
    assert model.v_q == 0
    with pytest.raises(RuntimeError, match="combinational loop did not "
                                           "settle"):
        _settle(model, en=1)
    # An assign reading what it writes is a cycle too: it settles only
    # through repeated passes.
    shift = compile_design(elaborate_leaf(parse_module("""
module sh(input wire go, output wire [7:0] x);
  assign x = go ? {x[6:0], 1'b1} : 8'd0;
endmodule""")))
    assert "for _pass" in _comb_source(shift)
    model = shift.instantiate()
    _settle(model, go=1)
    assert model.v_x == 255


RESETTLE = """
module r(input wire clk, input wire [7:0] d, output wire [7:0] q,
         output reg [7:0] seen = 0, output reg [7:0] ticks = 0);
  reg [7:0] s = 0;
  reg [7:0] tmp = 0;
  reg half = 0;
  assign q = s + 8'd1;
  always @(posedge clk) begin
    if (d[0])
      s = d;            // read by comb logic: resettle
    tmp = d ^ 8'h55;    // read by nothing combinational: no resettle
    seen <= tmp;
    half = ~half;       // an edge signal: resettle, then its block fires
  end
  always @(posedge half)
    ticks <= ticks + 8'd1;
endmodule
"""


def test_seq_blocking_write_read_by_comb_resettles():
    compiled = compile_design(elaborate_leaf(parse_module(RESETTLE)))
    model = compiled.instantiate()
    model.evaluate()
    for d in (0x10, 0x21, 0x30, 0x43):
        s = model.v_s
        _settle(model, clk=1, d=d)
        # Settled within the posedge's own evaluate, before any update.
        assert model.v_q == ((d if d & 1 else s) + 1) & 0xFF
        while model._nba:
            model.update()
            model.evaluate()
        _settle(model, clk=0)
    assert model.v_s == 0x43 and model.v_q == 0x44
    assert model.v_seen == 0x43 ^ 0x55
    assert model.v_ticks == 2

    def stimuli(cycle, rng):
        return {"d": rng.getrandbits(8)}

    trace_i, trace_c = run_both(RESETTLE, stimuli,
                                ["q", "seen", "ticks"], cycles=30)
    assert trace_i == trace_c


def test_nba_only_fire_settles_once():
    """A posedge whose blocks write only nonblocking shadows leaves the
    settled network alone: one comb pass per evaluate."""
    compiled = compile_design(elaborate_leaf(parse_module("""
module c(input wire clk, output wire [7:0] q);
  reg [7:0] n = 0;
  reg [7:0] tmp = 0;
  assign q = n + 8'd1;
  always @(posedge clk) begin
    tmp = n + 8'd2;
    n <= tmp;
  end
endmodule""")))
    model = compiled.instantiate()
    model.evaluate()
    passes = []
    settle = model._eval_comb

    def counted():
        passes.append(1)
        settle()

    model._eval_comb = counted
    _settle(model, clk=1)
    assert len(passes) == 1 and model._nba
    model.update()
    model.evaluate()
    assert model.v_q == 3 and len(passes) == 2
