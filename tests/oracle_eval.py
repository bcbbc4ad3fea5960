"""The tree-walk expression evaluator, kept as a four-state test oracle.

This is the evaluator the interpreter used before expressions were
width-annotated once and built into closures: it re-derives IEEE 1364
§5.5 sizes with :func:`natural_size` on every evaluation and dispatches
on node type.  It is independent of :mod:`repro.verilog.widths` and
:mod:`repro.verilog.eval`, which is what makes it a useful oracle for
the differential fuzz test (``tests/test_expr_fuzz.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.bits import Bits
from repro.common.errors import EvalError, TypeError_
from repro.verilog import ast

__all__ = ["DesignScope", "ExprEvaluator", "natural_size"]


class DesignScope:
    """The oracle's view of a function-free design: declared widths from
    the variable table, current values from a name -> Bits dict."""

    def __init__(self, design, values: Dict[str, Bits]):
        self.design = design
        self.values = values

    def width_sign(self, name: str) -> Tuple[int, bool]:
        var = self.design.vars[name]
        return var.width, var.signed

    def is_array(self, name: str) -> bool:
        var = self.design.vars.get(name)
        return var is not None and var.is_array

    def element_width_sign(self, name: str) -> Tuple[int, bool]:
        return self.width_sign(name)

    def read(self, name: str) -> Bits:
        return self.values[name]

    def read_word(self, name: str, index: int) -> Bits:
        raise KeyError(name)

    def range_of(self, name: str) -> Tuple[int, int]:
        var = self.design.vars[name]
        return var.msb, var.lsb

    def function_width_sign(self, name: str) -> Tuple[int, bool]:
        raise KeyError(name)

    def function_port_widths(self, name: str) -> List[Tuple[int, bool]]:
        raise KeyError(name)

    def call_function(self, name: str, args: List[Bits]) -> Bits:
        raise EvalError(f"function call {name!r}")

    def sys_func(self, name: str, args, evaluator) -> Bits:
        raise EvalError(f"system function {name!r}")


# ----------------------------------------------------------------------
# Natural (self-determined) size and signedness
# ----------------------------------------------------------------------
_ARITH_OPS = frozenset(["+", "-", "*", "/", "%"])
_BITWISE_OPS = frozenset(["&", "|", "^", "^~", "~^"])
_COMPARE_OPS = frozenset(["==", "!=", "===", "!==", "<", "<=", ">", ">="])
_LOGICAL_OPS = frozenset(["&&", "||"])
_SHIFT_OPS = frozenset(["<<", ">>", "<<<", ">>>"])
_REDUCTION_OPS = frozenset(["&", "~&", "|", "~|", "^", "~^", "^~"])


def natural_size(expr: ast.Expr, scope: DesignScope) -> Tuple[int, bool]:
    """(width, signed) of the expression, self-determined."""
    if isinstance(expr, ast.Number):
        return expr.value.width, expr.value.signed
    if isinstance(expr, ast.StringLit):
        return max(8 * len(expr.value), 8), False
    if isinstance(expr, ast.Ident):
        try:
            return scope.width_sign(expr.name)
        except KeyError:
            raise TypeError_(f"undeclared identifier {expr.name!r}",
                             expr.loc) from None
    if isinstance(expr, ast.IndexExpr):
        base = expr.base
        if isinstance(base, ast.Ident) and scope.is_array(base.name):
            return scope.element_width_sign(base.name)
        return 1, False
    if isinstance(expr, ast.RangeExpr):
        if expr.mode == ":":
            msb = const_int(expr.left, scope, "part-select msb")
            lsb = const_int(expr.right, scope, "part-select lsb")
            return abs(msb - lsb) + 1, False
        width = const_int(expr.right, scope, "part-select width")
        if width <= 0:
            raise TypeError_("part-select width must be positive", expr.loc)
        return width, False
    if isinstance(expr, ast.Unary):
        if expr.op in ("!",) or expr.op in _REDUCTION_OPS:
            return 1, False
        return natural_size(expr.operand, scope)
    if isinstance(expr, ast.Binary):
        if expr.op in _COMPARE_OPS or expr.op in _LOGICAL_OPS:
            return 1, False
        lw, ls = natural_size(expr.lhs, scope)
        if expr.op in _SHIFT_OPS or expr.op == "**":
            return lw, ls
        rw, rs = natural_size(expr.rhs, scope)
        return max(lw, rw), ls and rs
    if isinstance(expr, ast.Ternary):
        tw, ts = natural_size(expr.then, scope)
        ew, es = natural_size(expr.els, scope)
        return max(tw, ew), ts and es
    if isinstance(expr, ast.Concat):
        return sum(natural_size(p, scope)[0] for p in expr.parts), False
    if isinstance(expr, ast.Repeat):
        count = const_int(expr.count, scope, "replication count")
        if count <= 0:
            raise TypeError_("replication count must be positive", expr.loc)
        inner, _ = natural_size(expr.inner, scope)
        return count * inner, False
    if isinstance(expr, ast.Call):
        name = expr.name
        if name == "$signed":
            w, _ = natural_size(expr.args[0], scope)
            return w, True
        if name == "$unsigned":
            w, _ = natural_size(expr.args[0], scope)
            return w, False
        if name in ("$time", "$stime"):
            return 64, False
        if name == "$random":
            return 32, True
        if name == "$clog2":
            return 32, True
        if name == "$bits":
            return 32, False
        if name.startswith("$"):
            return 32, False
        try:
            return scope.function_width_sign(name)
        except KeyError:
            raise TypeError_(f"unknown function {name!r}", expr.loc) \
                from None
    raise TypeError_(f"cannot size expression {type(expr).__name__}",
                     expr.loc)


def assign_target_width(lhs: ast.Expr, scope: DesignScope) -> int:
    """Width of an assignment target (drives the RHS context width)."""
    width, _ = natural_size(lhs, scope)
    return width


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
class ExprEvaluator:
    """Evaluates expressions against a :class:`DesignScope`."""

    def __init__(self, scope: DesignScope):
        self.scope = scope

    # -- public API ----------------------------------------------------
    def eval(self, expr: ast.Expr, min_width: int = 0) -> Bits:
        """Evaluate with a context at least ``min_width`` wide (use the
        l-value width for assignment right-hand sides)."""
        width, signed = natural_size(expr, self.scope)
        ctx = max(width, min_width)
        return self._eval_ctx(expr, ctx, signed)

    def eval_self(self, expr: ast.Expr) -> Bits:
        """Evaluate in a purely self-determined context."""
        return self.eval(expr, 0)

    def eval_bool(self, expr: ast.Expr) -> bool:
        """Condition truthiness: a known-1 bit somewhere."""
        return bool(self.eval_self(expr))

    # -- helpers --------------------------------------------------------
    def _coerce(self, value: Bits, ctx: int, signed: bool) -> Bits:
        v = value.as_signed() if signed else value.as_unsigned()
        if v.width == ctx:
            return v
        if v.width > ctx:
            return v.resize(ctx)
        return v.extend(ctx)

    def _eval_ctx(self, expr: ast.Expr, ctx: int, signed: bool) -> Bits:
        if isinstance(expr, ast.Number):
            return self._coerce_literal(expr.value, ctx, signed)
        if isinstance(expr, ast.StringLit):
            data = expr.value.encode("latin-1", "replace") or b"\0"
            value = int.from_bytes(data, "big")
            return Bits.from_int(value, ctx if ctx >= 8 * len(data)
                                 else 8 * len(data)).resize(ctx) \
                if ctx else Bits.from_int(value, 8 * len(data))
        if isinstance(expr, ast.Ident):
            return self._coerce(self._read_ident(expr), ctx, signed)
        if isinstance(expr, ast.IndexExpr):
            return self._coerce(self._eval_index(expr), ctx, signed)
        if isinstance(expr, ast.RangeExpr):
            return self._coerce(self._eval_range(expr), ctx, signed)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, ctx, signed)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, ctx, signed)
        if isinstance(expr, ast.Ternary):
            return self._eval_ternary(expr, ctx, signed)
        if isinstance(expr, ast.Concat):
            parts = [self.eval_self(p) for p in expr.parts]
            return self._coerce(Bits.concat(parts), ctx, False)
        if isinstance(expr, ast.Repeat):
            count = const_int(expr.count, self.scope, "replication count")
            inner = self.eval_self(expr.inner)
            return self._coerce(inner.replicate(count), ctx, False)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, ctx, signed)
        raise EvalError(f"cannot evaluate {type(expr).__name__}")

    def _coerce_literal(self, value: Bits, ctx: int, signed: bool) -> Bits:
        v = value.as_signed() if signed else value.as_unsigned()
        if v.width >= ctx:
            return v.resize(ctx) if v.width > ctx else v
        # Literals keep their own sign for extension when the context is
        # unsigned but the literal is a negative signed constant the
        # expression has already made unsigned -- the bits were fixed at
        # parse time, so plain extension with expression sign is correct.
        return v.extend(ctx)

    def _read_ident(self, expr: ast.Ident) -> Bits:
        try:
            return self.scope.read(expr.name)
        except KeyError:
            raise EvalError(f"undeclared identifier {expr.name!r}") from None

    def _bit_offset(self, name: str, index: int) -> Optional[int]:
        """Map a declared index to a physical bit offset, or None if out
        of the declared range."""
        msb, lsb = self.scope.range_of(name)
        if msb >= lsb:
            offset = index - lsb
        else:
            offset = lsb - index
        width = abs(msb - lsb) + 1
        if 0 <= offset < width:
            return offset
        return None

    def _eval_index(self, expr: ast.IndexExpr) -> Bits:
        base = expr.base
        index = self.eval_self(expr.index)
        if isinstance(base, ast.Ident) and self.scope.is_array(base.name):
            if index.has_xz:
                w, _ = self.scope.element_width_sign(base.name)
                return Bits.xes(w)
            return self.scope.read_word(base.name, index.to_uint())
        if isinstance(base, ast.Ident):
            if index.has_xz:
                return Bits.xes(1)
            offset = self._bit_offset(base.name, index.to_uint())
            value = self._read_ident(base)
            if offset is None:
                return Bits.xes(1)
            return value.select(offset)
        # Bit select of a computed value (e.g. mem[i][j]).
        value = self.eval_self(base)
        if index.has_xz:
            return Bits.xes(1)
        return value.select(index.to_uint())

    def _eval_range(self, expr: ast.RangeExpr) -> Bits:
        base = expr.base
        if isinstance(base, ast.Ident) and not self.scope.is_array(base.name):
            value = self._read_ident(base)
            msb_decl, lsb_decl = self.scope.range_of(base.name)
        else:
            value = self.eval_self(base)
            msb_decl, lsb_decl = value.width - 1, 0
        descending = msb_decl >= lsb_decl

        def offset_of(idx: int) -> int:
            return idx - lsb_decl if descending else lsb_decl - idx

        if expr.mode == ":":
            msb = const_int(expr.left, self.scope, "part-select msb")
            lsb = const_int(expr.right, self.scope, "part-select lsb")
            hi, lo = offset_of(msb), offset_of(lsb)
        else:
            start = self.eval_self(expr.left)
            width = const_int(expr.right, self.scope, "part-select width")
            if start.has_xz:
                return Bits.xes(width)
            s = start.to_uint()
            if expr.mode == "+:":
                hi, lo = offset_of(s) + width - 1, offset_of(s)
                if not descending:
                    hi, lo = offset_of(s), offset_of(s) - width + 1
            else:  # "-:"
                hi, lo = offset_of(s), offset_of(s) - width + 1
                if not descending:
                    hi, lo = offset_of(s) + width - 1, offset_of(s)
        if hi < lo:
            hi, lo = lo, hi
        return value.part(hi, lo)

    def _eval_unary(self, expr: ast.Unary, ctx: int, signed: bool) -> Bits:
        op = expr.op
        if op == "!":
            return self._coerce(self.eval_self(expr.operand).log_not(),
                                ctx, False)
        if op in _REDUCTION_OPS:
            v = self.eval_self(expr.operand)
            result = {
                "&": v.reduce_and, "~&": v.reduce_nand,
                "|": v.reduce_or, "~|": v.reduce_nor,
                "^": v.reduce_xor, "~^": v.reduce_xnor,
                "^~": v.reduce_xnor,
            }[op]()
            return self._coerce(result, ctx, False)
        operand = self._eval_ctx(expr.operand, ctx, signed)
        if op == "~":
            return operand.not_()
        if op == "-":
            return operand.neg()
        if op == "+":
            return operand.plus()
        raise EvalError(f"unknown unary operator {op!r}")

    def _eval_binary(self, expr: ast.Binary, ctx: int, signed: bool) -> Bits:
        op = expr.op
        if op in _LOGICAL_OPS:
            lhs = self.eval_self(expr.lhs)
            rhs = self.eval_self(expr.rhs)
            out = lhs.log_and(rhs) if op == "&&" else lhs.log_or(rhs)
            return self._coerce(out, ctx, False)
        if op in _COMPARE_OPS:
            lw, ls = natural_size(expr.lhs, self.scope)
            rw, rs = natural_size(expr.rhs, self.scope)
            w = max(lw, rw)
            s = ls and rs
            lhs = self._eval_ctx(expr.lhs, w, s)
            rhs = self._eval_ctx(expr.rhs, w, s)
            out = {
                "==": lhs.eq, "!=": lhs.neq,
                "===": lhs.case_eq, "!==": lhs.case_neq,
                "<": lhs.lt, "<=": lhs.le, ">": lhs.gt, ">=": lhs.ge,
            }[op](rhs)
            return self._coerce(out, ctx, False)
        if op in _SHIFT_OPS:
            lhs = self._eval_ctx(expr.lhs, ctx, signed)
            rhs = self.eval_self(expr.rhs)
            if op == "<<" or op == "<<<":
                return lhs.shl(rhs)
            if op == ">>":
                return lhs.shr(rhs)
            return lhs.ashr(rhs)
        if op == "**":
            lhs = self._eval_ctx(expr.lhs, ctx, signed)
            rhs = self.eval_self(expr.rhs)
            return lhs.pow(rhs.extend(ctx) if rhs.width < ctx
                           else rhs.resize(ctx))
        lhs = self._eval_ctx(expr.lhs, ctx, signed)
        rhs = self._eval_ctx(expr.rhs, ctx, signed)
        if op in _ARITH_OPS:
            return {
                "+": lhs.add, "-": lhs.sub, "*": lhs.mul,
                "/": lhs.div, "%": lhs.mod,
            }[op](rhs)
        if op in _BITWISE_OPS:
            return {
                "&": lhs.and_, "|": lhs.or_, "^": lhs.xor_,
                "^~": lhs.xnor_, "~^": lhs.xnor_,
            }[op](rhs)
        raise EvalError(f"unknown binary operator {op!r}")

    def _eval_ternary(self, expr: ast.Ternary, ctx: int,
                      signed: bool) -> Bits:
        cond = self.eval_self(expr.cond)
        if not cond.has_xz:
            branch = expr.then if bool(cond) else expr.els
            return self._eval_ctx(branch, ctx, signed)
        # Ambiguous condition: bitwise merge of both branches (§5.1.13).
        then = self._eval_ctx(expr.then, ctx, signed)
        els = self._eval_ctx(expr.els, ctx, signed)
        agree = ~(then.aval ^ els.aval) & ~(then.bval | els.bval)
        mask = (1 << ctx) - 1
        differ = ~agree & mask
        return Bits(ctx, (then.aval & agree) | differ,
                    (then.bval & agree) | differ)

    def _eval_call(self, expr: ast.Call, ctx: int, signed: bool) -> Bits:
        name = expr.name
        if name in ("$signed", "$unsigned"):
            # Typed and extended by the context, like any operand.
            return self._coerce(self.eval_self(expr.args[0]), ctx, signed)
        if name == "$clog2":
            v = self.eval_self(expr.args[0])
            if v.has_xz:
                return Bits.xes(32).resize(ctx) if ctx else Bits.xes(32)
            n = v.to_uint()
            result = (n - 1).bit_length() if n > 1 else 0
            return self._coerce(Bits.from_int(result, 32, True), ctx, signed)
        if name == "$bits":
            w, _ = natural_size(expr.args[0], self.scope)
            return self._coerce(Bits.from_int(w, 32), ctx, signed)
        if name.startswith("$"):
            out = self.scope.sys_func(name, expr.args, self)
            return self._coerce(out, ctx, signed)
        widths = self.scope.function_port_widths(name)
        if len(widths) != len(expr.args):
            raise EvalError(
                f"function {name!r} expects {len(widths)} arguments, "
                f"got {len(expr.args)}")
        args = [self._eval_ctx(a, w, s)
                for a, (w, s) in zip(expr.args, widths)]
        return self._coerce(self.scope.call_function(name, args), ctx,
                            signed)


def const_int(expr: ast.Expr, scope, what: str = "constant") -> int:
    """Evaluate a constant expression to a plain int."""
    value = ExprEvaluator(scope).eval_self(expr)
    if value.has_xz:
        raise EvalError(f"{what} has x/z bits")
    return value.to_int() if value.signed else value.to_uint()
