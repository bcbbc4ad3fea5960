"""The Cascade IR: port promotion, flattening, inlining, nets."""

import pytest

from repro.common.errors import ElaborationError, TypeError_
from repro.core.runtime import Runtime
from repro.interp.sim import simulate_source
from repro.ir.build import build_ir
from repro.stdlib.components import STDLIB_MODULE_NAMES, stdlib_modules
from repro.verilog import ast
from repro.verilog.elaborate import ModuleLibrary, elaborate_leaf
from repro.verilog.parser import parse_module, parse_source
from repro.verilog.printer import module_to_str


def make_library(*texts):
    library = ModuleLibrary(stdlib_modules())
    for text in texts:
        for m in parse_source(text).modules:
            library.declare(m)
    return library


def root_of(text):
    src = parse_source(text)
    return ast.Module("main", [], list(src.root_items))


RUNNING = """
module Rol(input wire [7:0] x, output wire [7:0] y);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule
"""

ROOT = """
Clock clk();
Pad#(4) pad();
Led#(8) led();
reg [7:0] cnt = 1;
Rol r(.x(cnt));
always @(posedge clk.val)
  if (pad.val == 0)
    cnt <= r.y;
assign led.val = cnt;
"""


class TestModuleGranularity:
    def test_one_subprogram_per_instance(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=False)
        assert set(program.subprograms) == {"main", "r", "clk", "pad",
                                            "led"}

    def test_figure4_port_promotion(self):
        """The root subprogram gets r_x/r_y promoted ports and the
        nested instantiation becomes assignments (Figure 4)."""
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=False)
        main = program.subprograms["main"]
        text = module_to_str(main.module_ast)
        assert "output" in text and "r_x" in text and "r_y" in text
        assert "assign r_x = cnt" in text
        assert "Rol" not in text  # no nested instantiation remains
        # Promoted names resolve only local variables.
        design = elaborate_leaf(main.module_ast)
        assert not any("." in name for name in design.vars)

    def test_net_single_driver_many_readers(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=False)
        net = program.nets["r.y"]
        assert net.driver == "r"
        assert "main" in net.readers
        clk_net = program.nets["clk.val"]
        assert clk_net.driver == "clk"

    def test_hierarchical_write_to_stdlib_input(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=False)
        net = program.nets["led.val"]
        assert net.driver == "main"
        assert "led" in net.readers

    def test_subprograms_are_standalone(self):
        """Every user subprogram elaborates as a leaf (no instances,
        no foreign names) — the IR invariant from §3.3."""
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=False)
        for sub in program.user_subprograms():
            design = elaborate_leaf(sub.module_ast)
            for port in sub.bindings:
                assert port in design.vars


class TestInlining:
    def test_user_logic_merges_into_one_subprogram(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=True)
        users = program.user_subprograms()
        assert len(users) == 1
        assert set(program.subprograms) == {"main", "clk", "pad", "led"}

    def test_inlined_names_are_prefixed(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=True)
        design = elaborate_leaf(program.subprograms["main"].module_ast)
        assert "r_x" in design.vars and "r_y" in design.vars

    def test_stdlib_never_inlined(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=True)
        assert program.subprograms["led"].external

    def test_deep_hierarchy_inlines(self):
        library = make_library("""
module Leaf(input wire [3:0] a, output wire [3:0] b);
  assign b = a + 1;
endmodule
module Mid(input wire [3:0] p, output wire [3:0] q);
  wire [3:0] t;
  Leaf inner(.a(p), .b(t));
  assign q = t << 1;
endmodule
""")
        program = build_ir(root_of("""
wire [3:0] out;
Mid m(.p(4'd3), .q(out));
"""), library, external=set(STDLIB_MODULE_NAMES), inlined=True)
        design = elaborate_leaf(program.subprograms["main"].module_ast)
        assert "m_inner_a" in design.vars
        assert "m_q" in design.vars


class TestParameters:
    def test_parameter_override_specializes(self):
        library = make_library("""
module Width #(parameter W = 4)(output wire [W-1:0] v);
  assign v = {W{1'b1}};
endmodule
""")
        program = build_ir(root_of("""
wire [7:0] a;
Width#(8) w8(.v(a));
"""), library, external=set(STDLIB_MODULE_NAMES), inlined=True)
        design = elaborate_leaf(program.subprograms["main"].module_ast)
        assert design.vars["w8_v"].width == 8

    def test_two_instances_different_params(self):
        library = make_library("""
module Width #(parameter W = 4)(output wire [W-1:0] v);
  assign v = {W{1'b1}};
endmodule
""")
        program = build_ir(root_of("""
wire [2:0] a;
wire [5:0] b;
Width#(3) w3(.v(a));
Width#(6) w6(.v(b));
"""), library, external=set(STDLIB_MODULE_NAMES), inlined=False)
        d3 = elaborate_leaf(program.subprograms["w3"].module_ast)
        d6 = elaborate_leaf(program.subprograms["w6"].module_ast)
        assert d3.vars["v"].width == 3
        assert d6.vars["v"].width == 6


class TestErrors:
    def test_unknown_module(self):
        with pytest.raises(ElaborationError):
            build_ir(root_of("Nope n();"), make_library())

    def test_duplicate_instance_names(self):
        with pytest.raises(ElaborationError):
            build_ir(root_of(RUNNING + """
reg [7:0] cnt = 0;
Rol r(.x(cnt));
Rol r(.x(cnt));
"""), make_library(RUNNING))

    def test_unresolvable_reference(self):
        with pytest.raises(TypeError_):
            build_ir(root_of("assign nothing.val = 1;"), make_library())

    def test_hierarchical_write_to_non_input(self):
        library = make_library(RUNNING)
        with pytest.raises(TypeError_):
            build_ir(root_of(RUNNING + """
reg [7:0] cnt = 0;
Rol r(.x(cnt));
assign r.y = 8'd1;
"""), library)

    def test_writing_stdlib_output_rejected(self):
        """clk.val is driven by the Clock engine; user code cannot
        drive it too (it is an output port, not an input)."""
        library = make_library(RUNNING)
        with pytest.raises(TypeError_):
            build_ir(root_of("""
Clock clk();
assign clk.val = 1;
"""), library, external=set(STDLIB_MODULE_NAMES))


class TestInternalVarPromotion:
    def test_root_ports_declared_once(self):
        """A root module with ports of its own (the standalone
        simulator's top) keeps them as they are: each is declared once
        and its inputs are read, not driven."""
        library = make_library()
        top = parse_module("""
module top(input wire [7:0] a, output wire [7:0] y);
  assign y = a + 1;
endmodule""")
        program = build_ir(top, library, inlined=True)
        sub = program.subprograms["main"]
        assert [p.name for p in sub.module_ast.ports] == ["a", "y"]
        assert sub.bindings["a"][1] == "in"
        assert sub.bindings["y"][1] == "out"

    def test_foreign_read_of_internal_reg(self):
        """Reading a child's internal register promotes it as an
        output of the child subprogram."""
        library = make_library("""
module Counter(input wire clk);
  reg [7:0] hidden = 7;
endmodule
""")
        program = build_ir(root_of("""
Clock clk();
Counter c(.clk(clk.val));
wire [7:0] probe;
assign probe = c.hidden;
"""), library, external=set(STDLIB_MODULE_NAMES), inlined=False)
        net = program.nets["c.hidden"]
        assert net.driver == "c"
        assert "main" in net.readers
        design = elaborate_leaf(program.subprograms["c"].module_ast)
        assert design.vars["hidden"].direction == "output"


class TestLeafRulesSurviveFlattening:
    """What the leaf elaborator keeps, the flattened program keeps:
    declared port ranges, non-ANSI port redeclarations with their
    initializers, and function locals that shadow a parameter."""

    KID = """
module Kid #(parameter N = 2)(a, b, y, z, q);
  input [8:1] a;
  input [0:3] b;
  output [1:4] y;
  output z;
  output [7:0] q;
  wire [7:0] z = f(a) << N;
  reg [7:0] q = 8'd42;
  function [7:0] f; input [7:0] v; reg [7:0] N; begin N = v; f = N + 1; end
  endfunction
  assign y = {a[1], a[8], b[0], b[3]};
endmodule
"""
    ROOT = """
  reg [8:1] a = 8'b1000_0011;
  reg [0:3] b = 4'b1001;
  wire [1:4] y;
  wire [7:0] z, q;
  Kid #(1) k(.a(a), .b(b), .y(y), .z(z), .q(q));
"""
    SHOW = '$display("%b %b %0d %0d", y, y[1], z, q);'
    EXPECTED = ["1111 1 8 42"]

    def test_standalone_simulator(self):
        tb = f"module tb;{self.ROOT}initial #1 {self.SHOW}\nendmodule"
        assert simulate_source(self.KID + tb) == self.EXPECTED

    @pytest.mark.parametrize("inline", [True, False])
    def test_runtime(self, inline):
        rt = Runtime(enable_jit=False, inline_user_logic=inline)
        rt.eval_source(self.KID)
        rt.eval_source(self.ROOT + "always @(posedge clk.val) begin "
                       + self.SHOW + " $finish; end")
        rt.run(iterations=100, until_finish=True)
        assert rt.output_lines == self.EXPECTED
