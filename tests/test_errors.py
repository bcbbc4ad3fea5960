"""Error reporting: locations, messages, recovery behaviour."""

import pytest

from repro.common.errors import (CascadeError, ElaborationError, EvalError,
                                 LexError, ParseError, SourceLocation,
                                 TypeError_)
from repro.verilog.parser import parse_module, parse_source


class TestSourceLocations:
    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_source("module m();\n  wire = 1;\nendmodule", "f.v")
        assert exc.value.loc.source_name == "f.v"
        assert exc.value.loc.line == 2

    def test_lex_error_carries_position(self):
        with pytest.raises(LexError) as exc:
            parse_source('module m();\n  wire a;\n  $display("x\n', "g.v")
        assert exc.value.loc.line == 3

    def test_location_repr(self):
        loc = SourceLocation("x.v", 3, 7)
        assert repr(loc) == "x.v:3:7"
        assert loc == SourceLocation("x.v", 3, 7)
        assert loc != SourceLocation("x.v", 3, 8)

    def test_error_hierarchy(self):
        for kind in (ParseError, LexError, TypeError_, ElaborationError):
            assert issubclass(kind, CascadeError)
        assert issubclass(EvalError, CascadeError)


class TestParserDiagnostics:
    @pytest.mark.parametrize("bad,fragment", [
        ("module m(; endmodule", "identifier"),
        ("module m(input wire a; endmodule", "')'"),
        ("module m(); wire a endmodule", "';'"),
        ("module m(); case (1) endcase endmodule", "unexpected"),
        ("module m(); assign 1 = a; endmodule", "identifier"),
    ])
    def test_messages_name_the_problem(self, bad, fragment):
        with pytest.raises(ParseError) as exc:
            parse_module(bad)
        assert fragment.lower() in str(exc.value).lower()

    def test_unterminated_module(self):
        with pytest.raises(ParseError) as exc:
            parse_module("module m(); wire a;")
        assert "unterminated" in str(exc.value)

    def test_zero_replication_rejected(self):
        from repro.interp.sim import simulate_source
        with pytest.raises(CascadeError):
            simulate_source("""
module t;
  reg [7:0] a = 1;
  initial begin
    $display("%0d", {0{a}});
    $finish;
  end
endmodule""")


class TestRuntimeErrorIsolation:
    def test_bad_eval_leaves_program_running(self):
        from repro.core.runtime import Runtime
        rt = Runtime(enable_jit=False)
        rt.eval_source("reg [3:0] n = 0; "
                       "always @(posedge clk.val) n <= n + 1; "
                       "assign led.val = n;")
        rt.run(iterations=8)
        before = rt.board.leds.value
        items = list(rt.root_items)
        with pytest.raises(CascadeError):
            # The bad item fails at eval and is never admitted.
            rt.eval_source("assign led2_val_x = undeclared_name;")
        assert rt.root_items == items
        rt.run(iterations=8)
        assert rt.board.leds.value != before

    def test_undeclared_in_statement(self):
        from repro.interp.sim import simulate_source
        with pytest.raises(CascadeError):
            simulate_source("""
module t;
  initial begin
    x = 1;
    $finish;
  end
endmodule""")

    def test_width_sanity_bound(self):
        with pytest.raises(ElaborationError):
            from repro.verilog.elaborate import elaborate_leaf
            elaborate_leaf(parse_module(
                "module m(); wire [5000000:0] w; endmodule"))
