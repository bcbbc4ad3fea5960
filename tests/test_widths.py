"""Width annotation (repro.verilog.widths): what it records, and where."""

import pickle

import pytest

from repro.apps.pow import pow_program
from repro.common.errors import TypeError_
from repro.core.runtime import Runtime
from repro.ir.build import flatten
from repro.verilog import ast
from repro.verilog.elaborate import ModuleLibrary, elaborate_leaf
from repro.verilog.parser import parse_module, parse_source
from repro.verilog.visitor import walk

PARAM_SRC = """
module inner #(parameter W = 4) (input wire [W-1:0] a,
                                 output wire [W-1:0] y);
  assign y = a + 1;
endmodule
module top(input wire [7:0] x, output wire [3:0] p, output wire [7:0] q);
  inner #(.W(4)) narrow(.a(x[3:0]), .y(p));
  inner #(.W(8)) wide(.a(x), .y(q));
endmodule
"""


def _exprs(design):
    roots = list(design.assigns) + list(design.always) \
        + list(design.initials) \
        + [fn.body for fn in design.functions.values()]
    for root in roots:
        for node in walk(root):
            if isinstance(node, ast.Expr):
                yield node


def test_every_expression_of_an_elaborated_design_is_annotated():
    rt = Runtime(enable_jit=False)
    rt.eval_source(pow_program(target_zeros=1))
    rt.run(iterations=1)
    design = rt.engines["main"].design
    nodes = list(_exprs(design))
    assert nodes and all(n.ann is not None for n in nodes)


def test_parse_time_trees_are_never_annotated():
    src = parse_source(PARAM_SRC)
    library = ModuleLibrary(src.modules)
    design = flatten(library.get("top"), library)
    for module in src.modules:
        assert all(n.ann is None for n in walk(module)
                   if isinstance(n, ast.Expr))
    # Each instance's copy carries its own parameterization's widths.
    operand = {a.lhs.name: a.rhs.lhs.ann for a in design.assigns
               if isinstance(a.rhs, ast.Binary)}
    assert operand["narrow_y"] == (4, False, 32, False)
    assert operand["wide_y"] == (8, False, 32, False)


def test_annotations_are_interned_and_pickle():
    design = elaborate_leaf(parse_module(
        "module t(input wire [7:0] a, b, output wire [7:0] y, z);\n"
        "  assign y = a + b;\n  assign z = b + a;\nendmodule\n"))
    y, z = design.assigns
    assert y.rhs.ann is z.rhs.ann
    assert y.rhs.lhs.ann is z.rhs.rhs.ann
    loaded = pickle.loads(pickle.dumps(design))
    assert [a.rhs.ann for a in loaded.assigns] == \
        [a.rhs.ann for a in design.assigns]


def test_context_reaches_operands():
    design = elaborate_leaf(parse_module(
        "module t(input wire [7:0] a, input wire signed [3:0] b,\n"
        "         output wire [15:0] y);\n"
        "  assign y = (a < b) + (b >>> 2);\nendmodule\n"))
    rhs = design.assigns[0].rhs
    assert rhs.ann == (4, False, 16, False)
    compare, shift = rhs.lhs, rhs.rhs
    assert compare.ann == (1, False, 16, False)
    # Comparison operands: the max of their naturals, unsigned unless
    # both are signed.
    assert compare.lhs.ann == (8, False, 8, False)
    assert compare.rhs.ann == (4, True, 8, False)
    # A shift amount is self-determined.
    assert shift.rhs.ann[2] == 32


def test_function_bodies_use_the_frame_overlay():
    design = elaborate_leaf(parse_module(
        "module t(input wire [7:0] x, output wire [7:0] y);\n"
        "  function [7:0] twice;\n    input [5:0] v;\n"
        "    twice = v + v;\n  endfunction\n"
        "  assign y = twice(x);\nendmodule\n"))
    body = design.functions["twice"].body
    assign = next(n for n in walk(body)
                  if isinstance(n, ast.BlockingAssign))
    assert assign.rhs.lhs.ann[:2] == (6, False)
    # The return variable is unsigned inside the body, sized as declared.
    assert assign.lhs.ann[:2] == (8, False)
    call = design.assigns[0].rhs
    assert call.args[0].ann[2:] == (6, False)   # the port's context


@pytest.mark.parametrize("body, culprit", [
    ("assign y = ghost;", "ghost"),
    ("assign y = nope(1);", "nope"),
    ("reg [2:0] i; assign y = x[i:0];", "'i'"),
])
def test_sizing_errors_surface_at_elaboration(body, culprit):
    with pytest.raises(TypeError_, match=culprit):
        elaborate_leaf(parse_module(
            "module t(input wire [7:0] x, output wire [7:0] y);\n"
            f"  {body}\nendmodule\n"))
