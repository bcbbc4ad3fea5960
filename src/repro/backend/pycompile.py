"""Design -> compiled Python model (the functional half of a bitstream).

A hardware engine cannot run on a real FPGA here, so the "compiled"
artifact our Quartus stand-in produces is a generated Python class that
evaluates the design with plain machine integers, two-state, with
sensitivity-driven sequential blocks and fixpoint combinational
settling.  It is bit-exact with the reference interpreter on
synthesizable designs (tested by differential tests) and one to two
orders of magnitude faster — the same *qualitative* gap that separates
an interpreted simulator from fabric, which the virtual time model then
scales to the paper's clock domains.

The structure of the generated class mirrors the Figure 10 hardware
transformation: current-value variables (``_vars``), shadow variables
for nonblocking updates (``_nvars``), an update flag (``_umask``), a
task queue (``_tmask``), and an ``open_loop`` entry point that toggles
the clock internally (``_oloop``).
"""

from __future__ import annotations

import functools
import re
from typing import Dict, List, Optional, Set, Tuple

from ..common.errors import SynthesisError
from ..verilog import ast
from ..verilog.elaborate import Design, Function
from ..interp.engine import read_set_of, read_set_of_lvalue_indices
from ..verilog.visitor import lvalue_idents, walk
from . import pyrt

__all__ = ["CompiledDesign", "compile_design", "attr_name"]

_NON_WORD = re.compile(r"\W")
#: Generated code made only of integer literals, operators and pyrt
#: helpers: a constant, folded at codegen time.
_CONST_CODE = re.compile(
    r"(?:[\d\s()+\-*/%<>=!&|^~,]|\b(?:if|else|and|or|not)\b|pyrt\.\w+)+")
#: Argument code cheap enough to repeat when a function is inlined.
_SIMPLE_ARG = re.compile(r"\(?(?:\d+|self\.\w+(?:\[\d+\])?|[al]_\w+)\)?")

_ARITH = {"+": "+", "-": "-", "*": "*"}
_BITWISE = {"&": "&", "|": "|", "^": "^"}
_COMPARE = {"==": "==", "!=": "!=", "===": "==", "!==": "!=",
            "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _mask(width: int) -> int:
    return (1 << width) - 1


def _fold(code: str) -> str:
    """``code`` evaluated now when it is a constant expression."""
    if code.isdigit() or not _CONST_CODE.fullmatch(code):
        return code
    try:
        value = int(eval(code, {"__builtins__": {}, "pyrt": pyrt}))
    except Exception:  # e.g. malformed; keep the runtime expression
        return code
    return str(value) if value >= 0 else f"({value})"


def _signed(code: str, width: int) -> str:
    """Two's-complement reinterpretation of ``width``-bit code, inline
    (equal to ``pyrt.to_signed`` for every non-negative int)."""
    sign = 1 << (width - 1)
    return _fold(f"((({code}) ^ {sign}) - {sign})")


def _const(code: str) -> Optional[int]:
    """The value of folded constant code, else None."""
    if code.isdigit():
        return int(code)
    if code.startswith("(-") and code[2:-1].isdigit():
        return -int(code[2:-1])
    return None


class CompiledDesign:
    """The output of compilation: source text plus an instantiable
    model class.

    ``comb_wake`` and ``edge_wake`` describe the design's *activation*
    structure, mirroring the interpreter's sensitivity exactly:
    ``comb_wake`` is the set of names whose value change activates
    combinational evaluation (continuous-assign dependencies plus
    comb-always sensitivity lists), and ``edge_wake`` maps each signal
    appearing in an edge-sensitive event control to the set of edges
    registered on it.  The software fast path uses them to charge the
    same number of ABI-level evaluate calls as the interpreter would.
    """

    def __init__(self, design: Design, source: str, model_class,
                 edge_signals: List[str],
                 comb_wake: Optional[Set[str]] = None,
                 edge_wake: Optional[Dict[str, Set[str]]] = None):
        self.design = design
        self.source = source
        self.model_class = model_class
        self.edge_signals = edge_signals
        self.comb_wake = comb_wake if comb_wake is not None else set()
        self.edge_wake = edge_wake if edge_wake is not None else {}

    def instantiate(self):
        return self.model_class()

    def wakes_on(self, name: str, old: int, new: int) -> bool:
        """Would the interpreter activate an evaluation event when
        ``name`` transitions ``old``→``new``?  True when the name feeds
        combinational logic, or when its LSB transition matches a
        registered edge."""
        if name in self.comb_wake:
            return True
        edges = self.edge_wake.get(name)
        if not edges:
            return False
        o, n = old & 1, new & 1
        if o == n:
            return False
        if n:
            return "posedge" in edges
        return "negedge" in edges


@functools.lru_cache(maxsize=4096)
def attr_name(name: str) -> str:
    """The model attribute holding Verilog variable ``name``."""
    return "v_" + _NON_WORD.sub("_", name)


class _Emitter:
    """Accumulates generated source lines."""

    def __init__(self):
        self.lines: List[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def blank(self) -> None:
        self.lines.append("")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _ExprCompiler:
    """Compiles expressions to Python int expressions.

    The value representation is an unsigned int in ``[0, 2**w)``; the
    compiler tracks context width/signedness exactly like the
    interpreter's evaluator, so results agree bit-for-bit on two-state
    inputs.
    """

    def __init__(self, compiler: "_DesignCompiler",
                 frame: Optional[Dict[str, str]] = None,
                 frame_widths: Optional[Dict[str, Tuple[int, bool]]] = None):
        self.c = compiler
        self.frame = frame or {}
        #: (width, signed) of the frame's names
        self.frame_widths = frame_widths or {}
        self.temp_id = 0

    # -- public ----------------------------------------------------------
    def rvalue(self, expr: ast.Expr, min_width: int = 0
               ) -> Tuple[str, int, bool]:
        """(code, ctx_width, signed) for an expression."""
        width, signed, _, _ = expr.ann
        ctx = max(width, min_width)
        return self._ctx(expr, ctx, signed), ctx, signed

    def condition(self, expr: ast.Expr) -> str:
        """A Python truth expression for ``expr != 0``: comparisons and
        logical operators stay booleans instead of 0/1 round trips."""
        if isinstance(expr, ast.Unary) and expr.op == "!":
            return f"(not {self.condition(expr.operand)})"
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                py = "and" if expr.op == "&&" else "or"
                return (f"({self.condition(expr.lhs)} {py} "
                        f"{self.condition(expr.rhs)})")
            if expr.op in _COMPARE:
                return self._compare(expr)
        code, _, _ = self.rvalue(expr)
        return f"(({code}) != 0)"

    # -- helpers -----------------------------------------------------------
    def _read(self, name: str) -> Tuple[str, int, bool]:
        if name in self.frame:
            w, s = self.frame_widths[name]
            return self.frame[name], w, s
        var = self.c.design.vars[name]
        return f"self.{attr_name(name)}", var.width, var.signed

    def is_array(self, name: str) -> bool:
        if name in self.frame_widths:
            return False
        var = self.c.design.vars.get(name)
        return var is not None and var.is_array

    def range_of(self, name: str) -> Tuple[int, int]:
        """Declared (msb, lsb); frame locals are [w-1:0]."""
        if name in self.frame_widths:
            return self.frame_widths[name][0] - 1, 0
        var = self.c.design.vars[name]
        return var.msb, var.lsb

    def _coerce(self, code: str, from_w: int, from_signed_ok: bool,
                ctx: int, signed: bool) -> str:
        """Extend/truncate a value of width from_w to ctx using the
        expression's signedness."""
        if from_w == ctx:
            return code
        if from_w > ctx:
            return f"(({code}) & {_mask(ctx)})"
        if signed:
            # Sign-extend then re-mask.
            return f"(({_signed(code, from_w)}) & {_mask(ctx)})"
        return code  # zero extension is a no-op for unsigned ints

    def _signed_pair(self, lcode: str, rcode: str, ctx: int
                     ) -> Tuple[str, str]:
        return _signed(lcode, ctx), _signed(rcode, ctx)

    # -- core ---------------------------------------------------------------
    def _ctx(self, expr: ast.Expr, ctx: int, signed: bool) -> str:
        return _fold(self._ctx_code(expr, ctx, signed))

    def _ctx_code(self, expr: ast.Expr, ctx: int, signed: bool) -> str:
        if isinstance(expr, ast.Number):
            value = expr.value.to_int_xz(0) & _mask(expr.value.width)
            # Extended with the expression's signedness, not the
            # literal's: a signed literal in an unsigned context
            # zero-extends.
            if signed and ctx > expr.value.width:
                value = pyrt.to_signed(value, expr.value.width) & _mask(ctx)
            return str(value)
        if isinstance(expr, ast.StringLit):
            data = expr.value.encode("latin-1", "replace") or b"\0"
            return str(int.from_bytes(data, "big") & _mask(max(ctx, 1)))
        if isinstance(expr, ast.Ident):
            code, w, _ = self._read(expr.name)
            return self._coerce(code, w, True, ctx, signed)
        if isinstance(expr, ast.IndexExpr):
            code, w = self._index(expr)
            return self._coerce(code, w, False, ctx, False)
        if isinstance(expr, ast.RangeExpr):
            code, w = self._range(expr)
            return self._coerce(code, w, False, ctx, False)
        if isinstance(expr, ast.Unary):
            return self._unary(expr, ctx, signed)
        if isinstance(expr, ast.Binary):
            return self._binary(expr, ctx, signed)
        if isinstance(expr, ast.Ternary):
            cond = self.condition(expr.cond)
            then = self._ctx(expr.then, ctx, signed)
            els = self._ctx(expr.els, ctx, signed)
            return f"(({then}) if {cond} else ({els}))"
        if isinstance(expr, ast.Concat):
            return self._concat(expr, ctx)
        if isinstance(expr, ast.Repeat):
            count = _const_int(expr.count)
            inner, w, _ = self.rvalue(expr.inner)
            parts = " | ".join(
                f"(({inner}) << {i * w})" for i in range(count))
            return self._coerce(f"({parts})", w * count, False, ctx, False)
        if isinstance(expr, ast.Call):
            return self._call(expr, ctx, signed)
        raise SynthesisError(
            f"cannot compile expression {type(expr).__name__}")

    def _index(self, expr: ast.IndexExpr) -> Tuple[str, int]:
        base = expr.base
        idx_code, _, _ = self.rvalue(expr.index)
        if isinstance(base, ast.Ident) and base.name not in self.frame \
                and self.is_array(base.name):
            var = self.c.design.vars[base.name]
            nwords, msb, lsb = var.array
            lo = min(msb, lsb)
            arr = f"self.{attr_name(base.name)}"
            off = _fold(f"(({idx_code}) - {lo})") if lo else idx_code
            k = _const(off)
            if k is not None:
                return (f"{arr}[{k}]" if 0 <= k < nwords else "0",
                        var.width)
            return (f"({arr}[{off}] if 0 <= {off} < {nwords} else 0)",
                    var.width)
        if isinstance(base, ast.Ident):
            code, w, _ = self._read(base.name)
            msb, lsb = self.range_of(base.name)
            offset = self._offset_code(idx_code, msb, lsb)
        else:
            code, w, _ = self.rvalue(base)
            offset = idx_code
        k = _const(offset)
        if k is not None:
            return (f"((({code}) >> {k}) & 1)" if 0 <= k < w else "0", 1)
        return (f"((({code}) >> ({offset})) & 1 "
                f"if 0 <= ({offset}) < {w} else 0)", 1)

    def _offset_code(self, idx_code: str, msb: int, lsb: int) -> str:
        if msb >= lsb:
            return _fold(f"(({idx_code}) - {lsb})") if lsb \
                else idx_code
        return _fold(f"({lsb} - ({idx_code}))")

    def _range(self, expr: ast.RangeExpr) -> Tuple[str, int]:
        base = expr.base
        if isinstance(base, ast.Ident) and not (
                base.name not in self.frame
                and self.is_array(base.name)):
            code, w, _ = self._read(base.name)
            msb, lsb = self.range_of(base.name)
        else:
            code, w, _ = self.rvalue(base)
            msb, lsb = w - 1, 0
        descending = msb >= lsb
        if expr.mode == ":":
            hi_i = _const_int(expr.left)
            lo_i = _const_int(expr.right)
            hi = hi_i - lsb if descending else lsb - hi_i
            lo = lo_i - lsb if descending else lsb - lo_i
            if hi < lo:
                hi, lo = lo, hi
            width = hi - lo + 1
            return (f"((({code}) >> {lo}) & {_mask(width)})", width)
        width = _const_int(expr.right)
        start_code, _, _ = self.rvalue(expr.left)
        lo_code = self._part_lo(start_code, msb, lsb, width, expr.mode)
        k = _const(lo_code)
        if k is not None:
            return (f"((({code}) >> {k}) & {_mask(width)})" if k >= 0
                    else "0", width)
        return (f"((({code}) >> ({lo_code})) & {_mask(width)} "
                f"if ({lo_code}) >= 0 else 0)", width)

    def _part_lo(self, start_code: str, msb: int, lsb: int, width: int,
                 mode: str) -> str:
        """Bit offset of the low end of an indexed part-select."""
        off = self._offset_code(start_code, msb, lsb)
        if (mode == "+:") == (msb >= lsb):
            return off
        return _fold(f"(({off}) - {width - 1})")

    def _unary(self, expr: ast.Unary, ctx: int, signed: bool) -> str:
        op = expr.op
        if op == "!":
            return f"(0 if {self.condition(expr.operand)} else 1)"
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            inner, w, _ = self.rvalue(expr.operand)
            if op == "&":
                return f"(1 if ({inner}) == {_mask(w)} else 0)"
            if op == "~&":
                return f"(0 if ({inner}) == {_mask(w)} else 1)"
            if op == "|":
                return f"(1 if ({inner}) else 0)"
            if op == "~|":
                return f"(0 if ({inner}) else 1)"
            if op == "^":
                return f"pyrt.red_xor({inner})"
            return f"(pyrt.red_xor({inner}) ^ 1)"
        operand = self._ctx(expr.operand, ctx, signed)
        if op == "~":
            return f"((~({operand})) & {_mask(ctx)})"
        if op == "-":
            return f"((-({operand})) & {_mask(ctx)})"
        if op == "+":
            return operand
        raise SynthesisError(f"unknown unary operator {op!r}")

    def _compare(self, expr: ast.Binary) -> str:
        """A comparison as a Python boolean expression."""
        lw, ls, _, _ = expr.lhs.ann
        rw, rs, _, _ = expr.rhs.ann
        w = max(lw, rw)
        s = ls and rs
        l = self._ctx(expr.lhs, w, s)
        r = self._ctx(expr.rhs, w, s)
        if s and expr.op in ("<", "<=", ">", ">="):
            # Flipping the sign bit maps signed order onto unsigned.
            sign = 1 << (w - 1)
            l, r = _fold(f"(({l}) ^ {sign})"), _fold(f"(({r}) ^ {sign})")
        return f"(({l}) {_COMPARE[expr.op]} ({r}))"

    def _binary(self, expr: ast.Binary, ctx: int, signed: bool) -> str:
        op = expr.op
        if op in ("&&", "||") or op in _COMPARE:
            return f"(1 if {self.condition(expr)} else 0)"
        if op in ("<<", "<<<", ">>") or (op == ">>>" and not signed):
            l = self._ctx(expr.lhs, ctx, signed)
            r, _, _ = self.rvalue(expr.rhs)
            shifted = f"(({l}) << ({r})) & {_mask(ctx)}" \
                if op in ("<<", "<<<") else f"({l}) >> ({r})"
            k = _const(r)
            if k is not None:
                return f"({shifted})" if k < ctx else "0"
            return f"(({shifted}) if ({r}) < {ctx} else 0)"
        if op == ">>>":
            l = self._ctx(expr.lhs, ctx, signed)
            r, _, _ = self.rvalue(expr.rhs)
            return f"pyrt.ashr({l}, {r}, {ctx})"
        if op == "**":
            # The exponent is resized to the context width first.
            l = self._ctx(expr.lhs, ctx, signed)
            r, rw, rs = self.rvalue(expr.rhs)
            if rw > ctx:
                r, rw = _fold(f"(({r}) & {_mask(ctx)})"), ctx
            if rs:
                return (f"pyrt.pow_signed_exp({l}, {_signed(r, rw)}, "
                        f"{ctx}, {signed})")
            return f"(pow({l}, {r}, {1 << ctx}))"
        l = self._ctx(expr.lhs, ctx, signed)
        r = self._ctx(expr.rhs, ctx, signed)
        if op in _ARITH:
            return f"((({l}) {_ARITH[op]} ({r})) & {_mask(ctx)})"
        if op == "/":
            if signed:
                sl, sr = self._signed_pair(l, r, ctx)
                return f"((pyrt.sdiv({sl}, {sr})) & {_mask(ctx)})"
            return f"((({l}) // ({r})) if ({r}) else 0)"
        if op == "%":
            if signed:
                sl, sr = self._signed_pair(l, r, ctx)
                return f"((pyrt.smod({sl}, {sr})) & {_mask(ctx)})"
            return f"((({l}) % ({r})) if ({r}) else 0)"
        if op in _BITWISE:
            return f"(({l}) {_BITWISE[op]} ({r}))"
        if op in ("^~", "~^"):
            return f"((~(({l}) ^ ({r}))) & {_mask(ctx)})"
        raise SynthesisError(f"unknown binary operator {op!r}")

    def _concat(self, expr: ast.Concat, ctx: int) -> str:
        parts = []
        total = 0
        compiled = []
        for p in expr.parts:
            code, w, _ = self.rvalue(p)
            compiled.append((code, w))
            total += w
        shift = total
        constant = 0
        for code, w in compiled:
            shift -= w
            k = _const(code)
            if k is not None:
                constant |= (k & _mask(w)) << shift
            else:
                parts.append(f"(({code}) << {shift})" if shift
                             else f"({code})")
        if constant or not parts:
            parts.append(str(constant))
        joined = " | ".join(parts)
        return self._coerce(f"({joined})", total, False, ctx, False)

    def _call(self, expr: ast.Call, ctx: int, signed: bool) -> str:
        name = expr.name
        if name in ("$signed", "$unsigned"):
            # Extended by the context's signedness, like any operand.
            code, w, _ = self.rvalue(expr.args[0])
            return self._coerce(code, w, True, ctx, signed)
        if name == "$clog2":
            code, _, _ = self.rvalue(expr.args[0])
            return f"(pyrt.clog2({code}) & {_mask(ctx)})"
        if name == "$bits":
            return str(expr.args[0].ann[0] & _mask(ctx))
        if name.startswith("$"):
            raise SynthesisError(f"{name} cannot be synthesized")
        fn = self.c.design.functions[name]
        args = []
        for arg, (_, w, s) in zip(expr.args, fn.ports):
            args.append(self._ctx(arg, w, s) if arg.ann[0] <= w else
                _fold(f"(({self._ctx(arg, w, s)}) & {_mask(w)})"))
        body = self.c.inline_body(fn)
        if body is not None and all(_SIMPLE_ARG.fullmatch(a) for a in args):
            # A pure single-expression function: substitute the
            # arguments into its expression instead of calling it.
            inner = _ExprCompiler(
                self.c, {p: a for (p, _, _), a in zip(fn.ports, args)},
                {p: (w, s) for p, w, s in fn.ports})
            code, body_w, _ = inner.rvalue(body, fn.ret_width)
            call = _fold(f"(({code}) & {_mask(fn.ret_width)})") \
                if body_w > fn.ret_width else code
        else:
            call = f"self.{self.c.function_name(name)}(" \
                + ", ".join(args) + ")"
        return self._coerce(call, fn.ret_width, fn.ret_signed, ctx, signed)


def _const_int(expr: ast.Expr) -> int:
    if isinstance(expr, ast.Number):
        return expr.value.to_int_xz(0) if not expr.value.signed \
            else pyrt.to_signed(expr.value.to_int_xz(0), expr.value.width)
    raise SynthesisError(
        "part-select bounds and replication counts must be constants "
        f"(found {type(expr).__name__})")


class _StmtCompiler:
    """Compiles statements inside always blocks (and functions)."""

    def __init__(self, compiler: "_DesignCompiler", emitter: _Emitter,
                 exprs: _ExprCompiler, nba_allowed: bool = True,
                 resettle: Optional[Set[str]] = None):
        self.c = compiler
        self.e = emitter
        self.x = exprs
        self.nba_allowed = nba_allowed
        #: Variables whose blocking write must raise the dirty flag so
        #: combinational logic resettles; None means every variable.
        self.resettle = resettle
        self._tmp = 0

    def tmp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def compile(self, stmt: Optional[ast.Stmt], indent: int) -> None:
        if stmt is None or isinstance(stmt, ast.NullStmt):
            self.e.emit(indent, "pass")
            return
        self._compile(stmt, indent)

    def _compile(self, stmt: ast.Stmt, indent: int) -> None:
        if isinstance(stmt, ast.Block):
            if not stmt.stmts:
                self.e.emit(indent, "pass")
                return
            for sub in stmt.stmts:
                self._compile(sub, indent)
        elif isinstance(stmt, ast.BlockingAssign):
            self._assign(stmt.lhs, stmt.rhs, indent, blocking=True)
        elif isinstance(stmt, ast.NonblockingAssign):
            if not self.nba_allowed:
                raise SynthesisError(
                    "nonblocking assignment in function body")
            self._assign(stmt.lhs, stmt.rhs, indent, blocking=False)
        elif isinstance(stmt, ast.If):
            self.e.emit(indent, f"if {self.x.condition(stmt.cond)}:")
            self.compile(stmt.then, indent + 1)
            if stmt.els is not None:
                self.e.emit(indent, "else:")
                self.compile(stmt.els, indent + 1)
        elif isinstance(stmt, ast.Case):
            self._case(stmt, indent)
        elif isinstance(stmt, ast.For):
            self._compile(stmt.init, indent)
            self.e.emit(indent, f"while {self.x.condition(stmt.cond)}:")
            self._compile(stmt.body, indent + 1)
            self._compile(stmt.step, indent + 1)
        elif isinstance(stmt, ast.RepeatStmt):
            count, _, _ = self.x.rvalue(stmt.count)
            var = self.tmp()
            self.e.emit(indent, f"for {var} in range({count}):")
            self.compile(stmt.body, indent + 1)
        elif isinstance(stmt, ast.SysTask):
            self._systask(stmt, indent)
        else:
            raise SynthesisError(
                f"{type(stmt).__name__} cannot be synthesized")

    # -- assignments ---------------------------------------------------------
    def _assign(self, lhs: ast.Expr, rhs: ast.Expr, indent: int,
                blocking: bool) -> None:
        code, ctx, _ = self.x.rvalue(rhs, lhs.ann[0])
        if isinstance(lhs, ast.Ident):
            self._store_ident(lhs.name, code, ctx, indent, blocking)
            return
        if isinstance(lhs, ast.Concat) or not _SIMPLE_ARG.fullmatch(code):
            # A concatenation target is stored part by part: read the
            # value once, before any part is written.
            tmp = self.tmp()
            self.e.emit(indent, f"{tmp} = {code}")
            code = tmp
        self._store(lhs, code, ctx, indent, blocking)

    def _mark_written(self, name: str, indent: int) -> None:
        if self.resettle is None or name in self.resettle:
            self.e.emit(indent, "self._dirty = True")

    def _store(self, lhs: ast.Expr, value: str, value_w: int, indent: int,
               blocking: bool) -> None:
        if isinstance(lhs, ast.Concat):
            widths = [p.ann[0] for p in lhs.parts]
            pos = sum(widths)
            for part, w in zip(lhs.parts, widths):
                pos -= w
                chunk = f"((({value}) >> {pos}) & {_mask(w)})"
                tmp = self.tmp()
                self.e.emit(indent, f"{tmp} = {chunk}")
                self._store(part, tmp, w, indent, blocking)
            return
        if isinstance(lhs, ast.Ident):
            self._store_ident(lhs.name, value, value_w, indent, blocking)
            return
        if isinstance(lhs, ast.IndexExpr):
            base = lhs.base
            if not isinstance(base, ast.Ident):
                raise SynthesisError("unsupported nested l-value")
            idx, _, _ = self.x.rvalue(lhs.index)
            if base.name not in self.x.frame and \
                    self.x.is_array(base.name):
                self._store_word(base.name, idx, value, value_w, indent,
                                 blocking)
            else:
                msb, lsb = self.x.range_of(base.name)
                off = self.x._offset_code(idx, msb, lsb)
                self._store_bits(base.name, off, 1, value, indent,
                                 blocking)
            return
        if isinstance(lhs, ast.RangeExpr):
            base = lhs.base
            if not isinstance(base, ast.Ident):
                raise SynthesisError("unsupported nested l-value")
            msb, lsb = self.x.range_of(base.name)
            descending = msb >= lsb
            if lhs.mode == ":":
                hi_i = _const_int(lhs.left)
                lo_i = _const_int(lhs.right)
                hi = hi_i - lsb if descending else lsb - hi_i
                lo = lo_i - lsb if descending else lsb - lo_i
                if hi < lo:
                    hi, lo = lo, hi
                self._store_bits(base.name, str(lo), hi - lo + 1, value,
                                 indent, blocking)
            else:
                width = _const_int(lhs.right)
                start, _, _ = self.x.rvalue(lhs.left)
                lo_code = self.x._part_lo(start, msb, lsb, width, lhs.mode)
                self._store_bits(base.name, lo_code, width, value, indent,
                                 blocking)
            return
        raise SynthesisError(f"invalid l-value {type(lhs).__name__}")

    def _target(self, name: str, blocking: bool) -> str:
        if name in self.x.frame:
            return self.x.frame[name]
        if blocking:
            return f"self.{attr_name(name)}"
        self.c.nba_targets.add(name)
        return f"self.n_{attr_name(name)}"

    def _store_ident(self, name: str, value: str, value_w: int,
                     indent: int, blocking: bool) -> None:
        if name in self.x.frame:
            w, s = self.x.frame_widths[name]
            code = f"(({value}) & {_mask(w)})" if value_w > w else value
            self.e.emit(indent, f"{self.x.frame[name]} = {code}")
            return
        var = self.c.design.vars[name]
        target = self._target(name, blocking)
        code = _fold(f"(({value}) & {_mask(var.width)})") \
            if value_w > var.width else value
        self.e.emit(indent, f"{target} = {code}")
        if blocking:
            self._mark_written(name, indent)
        else:
            self.e.emit(indent, "self._nba = True")

    def _store_word(self, name: str, idx: str, value: str, value_w: int,
                    indent: int, blocking: bool) -> None:
        var = self.c.design.vars[name]
        nwords, msb, lsb = var.array
        lo = min(msb, lsb)
        off = _fold(f"({idx}) - {lo}") if lo else idx
        k = _const(off)
        if k is None:
            off_var = self.tmp()
            self.e.emit(indent, f"{off_var} = {off}")
            self.e.emit(indent, f"if 0 <= {off_var} < {nwords}:")
            off = off_var
            indent += 1
        elif not 0 <= k < nwords:
            self.e.emit(indent, "pass")  # constant index out of range
            return
        masked = f"(({value}) & {_mask(var.width)})" \
            if value_w > var.width else value
        if blocking:
            # Change-filtered like the interpreter's _set_word: a
            # same-value rewrite must not bump the generation counter,
            # or a self-sensitive comb block never settles.
            self.e.emit(indent,
                        f"if self.{attr_name(name)}[{off}] != {masked}:")
            self.e.emit(indent + 1,
                        f"self.{attr_name(name)}[{off}] = {masked}")
            self.e.emit(indent + 1, f"self.g_{attr_name(name)} += 1")
            self._mark_written(name, indent + 1)
        else:
            # The target word list and whether the change activates
            # combinational logic are both known now.
            self.c.nba_array_targets.add(name)
            wake = name in self.c.comb_wake
            self.e.emit(indent,
                        f"self._nba_words.append((self.{attr_name(name)}, "
                        f"{off}, {masked}, {wake}))")
            self.e.emit(indent, "self._nba = True")

    def _store_bits(self, name: str, lo_code: str, width: int, value: str,
                    indent: int, blocking: bool) -> None:
        var = self.c.design.vars.get(name)
        if name in self.x.frame:
            w, _ = self.x.frame_widths[name]
            target = self.x.frame[name]
        else:
            w = var.width
            target = self._target(name, blocking)
        k = _const(lo_code)
        if k is None:
            lo = self.tmp()
            self.e.emit(indent, f"{lo} = {lo_code}")
            self.e.emit(indent, f"if 0 <= {lo} <= {w - width}:")
            indent += 1
        elif 0 <= k <= w - width:
            lo = str(k)
        else:
            self.e.emit(indent, "pass")  # constant offset out of range
            return
        self.e.emit(
            indent,
            f"{target} = ({target} & ~({_mask(width)} << {lo})) | "
            f"((({value}) & {_mask(width)}) << {lo})")
        if name not in self.x.frame:
            if blocking:
                self._mark_written(name, indent)
            else:
                self.e.emit(indent, "self._nba = True")

    # -- case ------------------------------------------------------------------
    def _case(self, stmt: ast.Case, indent: int) -> None:
        w = max([stmt.expr.ann[0]] + [e.ann[0] for item in stmt.items
                                      for e in item.exprs or []])
        sel_code = self.x._ctx(stmt.expr, w, False)
        sel = self.tmp()
        self.e.emit(indent, f"{sel} = {sel_code}")
        first = True
        default: Optional[ast.Stmt] = None
        conds: List[Tuple[str, Optional[ast.Stmt]]] = []
        for item in stmt.items:
            if item.exprs is None:
                default = item.body
                continue
            tests = []
            for label in item.exprs:
                tests.append(self._label_test(sel, label, w, stmt.kind))
            conds.append((" or ".join(tests), item.body))
        for cond, body in conds:
            kw = "if" if first else "elif"
            first = False
            self.e.emit(indent, f"{kw} {cond}:")
            self.compile(body, indent + 1)
        if default is not None:
            if first:
                self.compile(default, indent)
            else:
                self.e.emit(indent, "else:")
                self.compile(default, indent + 1)

    def _label_test(self, sel: str, label: ast.Expr, w: int,
                    kind: str) -> str:
        if isinstance(label, ast.Number) and kind in ("casez", "casex"):
            v = label.value.extend(w) if label.value.width < w \
                else label.value.resize(w)
            if kind == "casez":
                wild = (~v.aval & v.bval) & _mask(w)
            else:
                wild = v.bval & _mask(w)
            care = ~wild & _mask(w)
            want = v.aval & care
            return f"(({sel}) & {care}) == {want}"
        code = self.x._ctx(label, w, False)
        return f"({sel}) == ({code})"

    # -- system tasks -------------------------------------------------------------
    def _systask(self, stmt: ast.SysTask, indent: int) -> None:
        if stmt.name in ("$display", "$write"):
            parts = []
            for arg in stmt.args:
                if isinstance(arg, ast.StringLit):
                    parts.append(repr(arg.value))
                else:
                    code, w, s = self.x.rvalue(arg)
                    parts.append(f"({code}, {w}, {s})")
            newline = stmt.name == "$display"
            self.e.emit(indent,
                        f"self._task_display(({', '.join(parts)},), "
                        f"{newline})")
        elif stmt.name in ("$finish", "$stop"):
            code = "0"
            if stmt.args:
                code, _, _ = self.x.rvalue(stmt.args[0])
            self.e.emit(indent, f"self._task_finish({code})")
        else:
            raise SynthesisError(f"{stmt.name} cannot be synthesized")


class _DesignCompiler:
    """Drives compilation of one design into a model class."""

    def __init__(self, design: Design, class_name: str = "CompiledModel"):
        self.design = design
        self.class_name = class_name
        self.nba_targets: Set[str] = set()
        self.nba_array_targets: Set[str] = set()
        self._fn_names: Dict[str, str] = {}
        self._inline: Dict[str, Optional[ast.Expr]] = {}

    def function_name(self, name: str) -> str:
        if name not in self._fn_names:
            self._fn_names[name] = "f_" + _NON_WORD.sub("_", name) \
                + f"_{len(self._fn_names)}"
        return self._fn_names[name]

    def inline_body(self, fn: Function) -> Optional[ast.Expr]:
        """The expression of a pure single-expression function — one
        assignment to its result that reads only its arguments — else
        None."""
        if fn.name not in self._inline:
            self._inline[fn.name] = self._inline_body(fn)
        return self._inline[fn.name]

    @staticmethod
    def _inline_body(fn: Function) -> Optional[ast.Expr]:
        body = fn.body
        while isinstance(body, ast.Block) and len(body.stmts) == 1:
            body = body.stmts[0]
        if fn.locals_ or not isinstance(body, ast.BlockingAssign) or \
                not isinstance(body.lhs, ast.Ident) or \
                body.lhs.name not in (fn.name, fn.name.split(".")[-1]):
            return None
        ports = {p for p, _, _ in fn.ports}
        for node in walk(body.rhs):
            if isinstance(node, ast.Ident) and node.name not in ports:
                return None
            if isinstance(node, ast.Call) and not node.name.startswith("$"):
                return None
        return body.rhs

    # ------------------------------------------------------------------
    def compile(self) -> CompiledDesign:
        design = self.design
        comb_assigns: List[ast.ContinuousAssign] = list(design.assigns)
        comb_blocks: List[ast.AlwaysBlock] = []
        seq_blocks: List[ast.AlwaysBlock] = []
        for block in design.always:
            if block.ctrl is None:
                raise SynthesisError(
                    "always without event control cannot be synthesized")
            if block.ctrl.star or all(i.edge is None
                                      for i in block.ctrl.items):
                comb_blocks.append(block)
            elif all(i.edge is not None for i in block.ctrl.items):
                seq_blocks.append(block)
            else:
                raise SynthesisError(
                    "mixed edge/level sensitivity cannot be synthesized")
        if design.initials:
            raise SynthesisError("initial blocks cannot be synthesized")

        # Activation structure, mirroring the interpreter's sensitivity
        # registration (_build_assign_deps / _register_wait) exactly.
        self.comb_wake: Set[str] = set()
        for assign in comb_assigns:
            self.comb_wake |= read_set_of(assign.rhs)
            self.comb_wake |= read_set_of_lvalue_indices(assign.lhs)
        for block in comb_blocks:
            if block.ctrl.star:
                self.comb_wake |= read_set_of(block.body)
            else:
                for item in block.ctrl.items:
                    self.comb_wake |= read_set_of(item.expr)
        self.edge_wake: Dict[str, Set[str]] = {}
        for block in seq_blocks:
            for item in block.ctrl.items:
                if isinstance(item.expr, ast.Ident):
                    self.edge_wake.setdefault(
                        item.expr.name, set()).add(item.edge)
        # What a sequential blocking write must resettle for: names that
        # combinational logic (assigns, comb blocks, any function) or an
        # edge test reads.  Other writes leave the settled comb network
        # and every edge sample as they were.
        self.settle_reads: Set[str] = set(self.edge_wake)
        for assign in comb_assigns:
            self.settle_reads |= read_set_of(assign.rhs)
            self.settle_reads |= read_set_of_lvalue_indices(assign.lhs)
        for block in comb_blocks:
            self.settle_reads |= read_set_of(block.body)
        for fn in design.functions.values():
            self.settle_reads |= read_set_of(fn.body)

        e = _Emitter()
        e.emit(0, "from repro.backend import pyrt")
        e.blank()
        e.emit(0, f"class {self.class_name}:")
        # When _gate_wakes is True (the software fast path), update()
        # raises the dirty flag only for changes the interpreter would
        # also have activated on, so ABI-level call counts — and hence
        # virtual-time charges — match the interpreter bit for bit.
        e.emit(1, "_gate_wakes = False")

        # Pre-scan for NBA targets so __init__ can declare shadows: we
        # compile bodies into a scratch emitter first.
        scratch = _Emitter()
        self._compile_functions(scratch)
        self._compile_comb(scratch, comb_assigns, comb_blocks)
        self._compile_seq(scratch, seq_blocks)

        self._emit_init(e, seq_blocks)
        body = _Emitter()
        self._compile_functions(body)
        self._compile_comb(body, comb_assigns, comb_blocks)
        self._compile_seq(body, seq_blocks)
        self._emit_framework(body, seq_blocks)
        e.lines.extend(body.lines)

        source = e.source()
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<compiled:{design.name}>", "exec"),
             namespace)
        model_class = namespace[self.class_name]
        edge_signals = sorted({
            item.expr.name
            for block in seq_blocks
            for item in block.ctrl.items
            if isinstance(item.expr, ast.Ident)})
        return CompiledDesign(design, source, model_class, edge_signals,
                              comb_wake=set(self.comb_wake),
                              edge_wake={k: set(v) for k, v
                                         in self.edge_wake.items()})

    # ------------------------------------------------------------------
    def _emit_init(self, e: _Emitter,
                   seq_blocks: List[ast.AlwaysBlock]) -> None:
        e.emit(1, "def __init__(self):")
        for var in self.design.vars.values():
            attr = attr_name(var.name)
            if var.is_array:
                nwords = var.array[0]
                if var.init is not None:
                    init = var.init.to_int_xz(0)
                else:
                    init = 0
                e.emit(2, f"self.{attr} = [{init}] * {nwords}")
                e.emit(2, f"self.g_{attr} = 0")
            else:
                init = var.init.to_int_xz(0) if var.init is not None else 0
                e.emit(2, f"self.{attr} = {init}")
        for name in sorted(self.nba_targets):
            attr = attr_name(name)
            e.emit(2, f"self.n_{attr} = self.{attr}")
        e.emit(2, "self._nba_words = []")
        # Previous samples for edge detection.
        for sig in self._edge_signal_names(seq_blocks):
            e.emit(2, f"self.p_{attr_name(sig)} = self.{attr_name(sig)}")
        e.emit(2, "self._tasks = []")
        e.emit(2, "self._nba = False")
        e.emit(2, "self._dirty = True")
        e.emit(2, "self._finished = None")
        e.emit(2, "self._time = 0")
        e.blank()

    def _edge_signal_names(self, seq_blocks) -> List[str]:
        names = []
        for block in seq_blocks:
            for item in block.ctrl.items:
                if not isinstance(item.expr, ast.Ident):
                    raise SynthesisError(
                        "edge expressions must be simple signals")
                if item.expr.name not in names:
                    names.append(item.expr.name)
        return names

    def _compile_functions(self, e: _Emitter) -> None:
        for fn in self.design.functions.values():
            self._compile_function(e, fn)

    def _compile_function(self, e: _Emitter, fn: Function) -> None:
        short = fn.name.split(".")[-1]
        frame: Dict[str, str] = {}
        frame_widths: Dict[str, Tuple[int, bool]] = {}
        args = []
        for pname, w, s in fn.ports:
            py = "a_" + re.sub(r"\W", "_", pname)
            frame[pname] = py
            frame_widths[pname] = (w, s)
            args.append(py)
        for lname, w, s in fn.locals_:
            py = "l_" + re.sub(r"\W", "_", lname)
            frame[lname] = py
            frame_widths[lname] = (w, s)
        ret_py = "r_" + re.sub(r"\W", "_", short)
        frame[short] = ret_py
        frame[fn.name] = ret_py
        frame_widths[short] = (fn.ret_width, fn.ret_signed)
        frame_widths[fn.name] = (fn.ret_width, fn.ret_signed)
        e.emit(1, f"def {self.function_name(fn.name)}(self, "
               + ", ".join(args) + "):")
        for lname, _, _ in fn.locals_:
            e.emit(2, f"{frame[lname]} = 0")
        e.emit(2, f"{ret_py} = 0")
        exprs = _ExprCompiler(self, frame, frame_widths)
        stmts = _StmtCompiler(self, e, exprs, nba_allowed=False)
        stmts.compile(fn.body, 2)
        e.emit(2, f"return {ret_py}")
        e.blank()

    def _topo_sort_assigns(self, assigns: List[ast.ContinuousAssign]
                           ) -> Tuple[List[ast.ContinuousAssign], bool]:
        """Order continuous assigns so drivers precede readers, and say
        whether that order is proven acyclic: then one pass in it
        settles the network.  Reads include l-value indices and the
        bodies of called functions; an assign reading what it writes
        counts as a cycle.  Cycles fall back to input order and settle
        through extra passes."""
        def reads(a: ast.ContinuousAssign) -> List[str]:
            names = [n.name for n in walk(a.rhs) if isinstance(n, ast.Ident)]
            extra = read_set_of_lvalue_indices(a.lhs)
            todo = [n.name for n in walk(a.rhs) if isinstance(n, ast.Call)]
            seen: Set[str] = set()
            while todo:
                fn = self.design.functions.get(todo.pop())
                if fn is None or fn.name in seen:
                    continue
                seen.add(fn.name)
                extra |= read_set_of(fn.body)
                todo.extend(n.name for n in walk(fn.body)
                            if isinstance(n, ast.Call))
            return names + sorted(extra - set(names))

        writers: Dict[str, List[int]] = {}
        for i, a in enumerate(assigns):
            for ident in lvalue_idents(a.lhs):
                writers.setdefault(ident.name, []).append(i)
        order: List[int] = []
        state = [0] * len(assigns)  # 0 new, 1 visiting, 2 done
        cyclic = False

        def visit(i: int) -> None:
            nonlocal cyclic
            if state[i] == 2:
                return
            if state[i] == 1:
                cyclic = True
                return
            state[i] = 1
            for name in reads(assigns[i]):
                for j in writers.get(name, ()):
                    if j != i:
                        visit(j)
                    else:
                        cyclic = True
            state[i] = 2
            order.append(i)

        for i in range(len(assigns)):
            visit(i)
        if cyclic:
            return assigns, False
        return [assigns[i] for i in order], True

    def _compile_comb(self, e: _Emitter,
                      assigns: List[ast.ContinuousAssign],
                      blocks: List[ast.AlwaysBlock]) -> None:
        assigns, acyclic = self._topo_sort_assigns(assigns)
        e.emit(1, "def _eval_comb(self):")
        exprs = _ExprCompiler(self)
        if acyclic and not blocks:
            # Drivers precede readers: one straight pass settles it.
            stmts = _StmtCompiler(self, e, exprs, resettle=set())
            for assign in assigns:
                stmts._assign(assign.lhs, assign.rhs, 2, blocking=True)
            e.emit(2, "self._dirty = False")
            e.blank()
            return
        e.emit(2, "for _pass in range(128):")
        e.emit(3, "self._dirty = False")
        for assign in assigns:
            code, ctx, _ = exprs.rvalue(assign.rhs, assign.lhs.ann[0])
            stmts = _StmtCompiler(self, e, exprs, resettle=set())
            tmp = stmts.tmp()
            e.emit(3, f"{tmp} = {code}")
            self._emit_comb_store(e, stmts, assign.lhs, tmp, ctx)
        for i, block in enumerate(blocks):
            e.emit(3, f"_snap{i} = {self._snapshot(read_set_of(block.body))}")
            e.emit(3, f"if _snap{i} != self._comb_snap{i}:")
            e.emit(4, f"self._comb_snap{i} = _snap{i}")
            e.emit(4, f"self._comb_blk{i}()")
            e.emit(4, "self._dirty = True")
        e.emit(3, "if not self._dirty:")
        e.emit(4, "return")
        e.emit(2, "raise RuntimeError('combinational loop did not settle')")
        e.blank()
        for i, block in enumerate(blocks):
            e.emit(1, f"def _comb_blk{i}(self):")
            exprs_i = _ExprCompiler(self)
            stmts = _StmtCompiler(self, e, exprs_i)
            stmts.compile(block.body, 2)
            e.blank()

    def _snapshot(self, names) -> str:
        """A tuple expression of the current values of ``names`` (an
        array by its generation counter)."""
        parts = []
        for name in sorted(names):
            var = self.design.vars.get(name)
            if var is None:
                continue
            prefix = "g_" if var.is_array else ""
            parts.append(f"self.{prefix}{attr_name(name)}")
        return "(" + ", ".join(parts) + ("," if parts else "") + ")"

    def _emit_comb_store(self, e: _Emitter, stmts: "_StmtCompiler",
                         lhs: ast.Expr, tmp: str, ctx: int) -> None:
        """Continuous assign store with change detection, so the
        fixpoint converges: inline for full-variable targets (the
        common case), by comparing the written variables for the
        rest."""
        if isinstance(lhs, ast.Ident) and lhs.name in self.design.vars:
            var = self.design.vars[lhs.name]
            attr = attr_name(lhs.name)
            code = f"(({tmp}) & {_mask(var.width)})" \
                if ctx > var.width else tmp
            e.emit(3, f"if self.{attr} != ({code}):")
            e.emit(4, f"self.{attr} = {code}")
            e.emit(4, "self._dirty = True")
            return
        snap = self._snapshot(i.name for i in lvalue_idents(lhs))
        e.emit(3, f"_was = {snap}")
        stmts._store(lhs, tmp, ctx, 3, blocking=True)
        e.emit(3, f"if {snap} != _was:")
        e.emit(4, "self._dirty = True")

    def _compile_seq(self, e: _Emitter,
                     blocks: List[ast.AlwaysBlock]) -> None:
        e.emit(1, "def _seq(self):")
        e.emit(2, "fired = False")
        if not blocks:
            e.emit(2, "return False")
            e.blank()
            return
        conds = []
        for i, block in enumerate(blocks):
            tests = []
            for item in block.ctrl.items:
                if not isinstance(item.expr, ast.Ident):
                    raise SynthesisError(
                        "edge expressions must be simple signals")
                sig = attr_name(item.expr.name)
                cur = f"(self.{sig} & 1)"
                prev = f"(self.p_{sig} & 1)"
                if item.edge == "posedge":
                    tests.append(f"({prev} == 0 and {cur} == 1)")
                else:
                    tests.append(f"({prev} == 1 and {cur} == 0)")
            conds.append(" or ".join(tests))
        for i, cond in enumerate(conds):
            e.emit(2, f"if {cond}:")
            e.emit(3, "fired = True")
            e.emit(3, f"self._seq_blk{i}()")
        for sig in self._edge_signal_names(blocks):
            attr = attr_name(sig)
            e.emit(2, f"self.p_{attr} = self.{attr}")
        e.emit(2, "return fired")
        e.blank()
        for i, block in enumerate(blocks):
            e.emit(1, f"def _seq_blk{i}(self):")
            exprs = _ExprCompiler(self)
            stmts = _StmtCompiler(self, e, exprs,
                                  resettle=self.settle_reads)
            stmts.compile(block.body, 2)
            e.blank()

    def _emit_framework(self, e: _Emitter,
                        seq_blocks: List[ast.AlwaysBlock]) -> None:
        # Snapshot fields for comb blocks are created lazily in
        # __init__-time via class attribute defaults.
        e.emit(1, "def evaluate(self):")
        e.emit(2, "for _round in range(64):")
        e.emit(3, "self._eval_comb()")
        # Fired blocks that raised no dirty flag wrote only NBA shadows
        # and variables nothing combinational or edge-sensitive reads:
        # the network is still settled and no new edge can fire.
        e.emit(3, "if not self._seq() or not self._dirty:")
        e.emit(4, "return")
        e.emit(2, "raise RuntimeError('evaluation did not converge')")
        e.blank()
        e.emit(1, "def update(self):")
        e.emit(2, "changed = False")
        e.emit(2, "wake = False")
        for name in sorted(self.nba_targets):
            attr = attr_name(name)
            e.emit(2, f"if self.{attr} != self.n_{attr}:")
            edges = self.edge_wake.get(name)
            if name in self.comb_wake:
                e.emit(3, "wake = True")
            elif edges:
                # Edge-only signal: activation requires the LSB
                # transition to match a registered edge.  When it does
                # not, keep the previous-sample variable in sync so a
                # later matching edge is still detected (_seq will not
                # run for this change).
                if len(edges) == 2:
                    e.emit(3, f"if (self.{attr} ^ self.n_{attr}) & 1:")
                    e.emit(4, "wake = True")
                    e.emit(3, "else:")
                    e.emit(4, f"self.p_{attr} = self.n_{attr}")
                elif "posedge" in edges:
                    e.emit(3, f"if (self.{attr} & 1) == 0 and "
                           f"(self.n_{attr} & 1) == 1:")
                    e.emit(4, "wake = True")
                    e.emit(3, "else:")
                    e.emit(4, f"self.p_{attr} = self.n_{attr}")
                else:
                    e.emit(3, f"if (self.{attr} & 1) == 1 and "
                           f"(self.n_{attr} & 1) == 0:")
                    e.emit(4, "wake = True")
                    e.emit(3, "else:")
                    e.emit(4, f"self.p_{attr} = self.n_{attr}")
            e.emit(3, f"self.{attr} = self.n_{attr}")
            e.emit(3, "changed = True")
        e.emit(2, "if self._nba_words:")
        e.emit(3, "for _arr, _off, _val, _wake in self._nba_words:")
        e.emit(4, "if _arr[_off] != _val:")
        e.emit(5, "_arr[_off] = _val")
        e.emit(5, "changed = True")
        e.emit(5, "if _wake:")
        e.emit(6, "wake = True")
        for name in sorted(self.nba_array_targets):
            e.emit(3, f"self.g_{attr_name(name)} += 1")
        e.emit(3, "self._nba_words = []")
        e.emit(2, "self._nba = False")
        e.emit(2, "if changed and (wake or not self._gate_wakes):")
        e.emit(3, "self._dirty = True")
        e.emit(2, "return changed")
        e.blank()
        e.emit(1, "def there_are_updates(self):")
        e.emit(2, "return self._nba")
        e.blank()
        e.emit(1, "def _task_display(self, parts, newline):")
        e.emit(2, "self._tasks.append(('display', parts, newline))")
        e.blank()
        e.emit(1, "def _task_finish(self, code):")
        e.emit(2, "self._tasks.append(('finish', code, True))")
        e.emit(2, "self._finished = code")
        e.blank()
        e.emit(1, "def open_loop(self, clock_attr, steps):")
        e.emit(2, "done = 0")
        e.emit(2, "while done < steps:")
        e.emit(3, "setattr(self, clock_attr, "
               "getattr(self, clock_attr) ^ 1)")
        e.emit(3, "self._dirty = True")
        e.emit(3, "self.evaluate()")
        e.emit(3, "while self._nba:")
        e.emit(4, "self.update()")
        e.emit(4, "self.evaluate()")
        e.emit(3, "done += 1")
        e.emit(3, "if not (done & 1):")
        e.emit(4, "self._time += 1")
        e.emit(3, "if self._tasks:")
        e.emit(4, "break")
        e.emit(2, "return done")
        e.blank()


def compile_design(design: Design,
                   class_name: str = "CompiledModel") -> CompiledDesign:
    """Compile a synthesizable design into a fast Python model."""
    compiler = _DesignCompiler(design, class_name)
    compiled = compiler.compile()
    # Comb-block snapshot caches start unset so blocks run once.
    n_blocks = sum(
        1 for b in design.always
        if b.ctrl is not None and (b.ctrl.star or all(
            i.edge is None for i in b.ctrl.items)))
    for i in range(n_blocks):
        setattr(compiled.model_class, f"_comb_snap{i}", None)
    return compiled
