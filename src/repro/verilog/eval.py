"""Expression evaluation: width-annotated expressions built into closures.

This module is the single implementation of Verilog expression semantics.
It is shared by:

* the reference interpreter (:mod:`repro.interp.engine`), which binds
  names to its live state by subclassing :class:`ExprBuilder`,
* constant evaluation during elaboration (:func:`const_eval`).

:mod:`repro.verilog.widths` has already recorded every node's natural
size and evaluation context (IEEE 1364 §5.4/§5.5), so building is a
single walk: each node becomes a nested Python closure returning
:class:`Bits`, with its widths, signedness and coercions baked in.
Subtrees without names or calls fold to constants at build time.
Running a closure performs exactly the four-state operations the spec
prescribes, in the same order, so results carry the same width, planes
and signedness as a tree walk of the same expression.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..common.bits import Bits
from ..common.errors import EvalError
from . import ast
from .widths import annotate_expr

__all__ = ["ExprBuilder", "Frame", "coerce", "const_eval", "const_int"]

Thunk = Callable[[], Bits]

_xes = Bits.xes


def coerce(v: Bits, ctx: int, signed: bool) -> Bits:
    """``v`` reinterpreted with ``signed`` and extended or truncated to
    ``ctx`` bits (extension pads with the sign bit when signed, with an
    x/z MSB when that bit is unknown, else with zeros)."""
    w = v.width
    if w == ctx:
        return v if v.signed == signed else Bits(w, v.aval, v.bval, signed)
    a, b = v.aval, v.bval
    if w > ctx:
        return Bits(ctx, a, b, signed)
    top = w - 1
    if (b >> top) & 1:
        ext = ((1 << (ctx - w)) - 1) << w
        return Bits(ctx, a | ext if (a >> top) & 1 else a, b | ext, signed)
    if signed and (a >> top) & 1:
        return Bits(ctx, a | (((1 << (ctx - w)) - 1) << w), b, True)
    return Bits(ctx, a, b, signed)


def _const(value: Bits) -> Thunk:
    return lambda: value


class Frame:
    """A function's local variables while its body runs: their declared
    (width, signed), and a one-slot cell holding the active frame dict."""

    __slots__ = ("sizes", "cell")

    def __init__(self, sizes: Dict[str, Tuple[int, bool]]):
        self.sizes = sizes
        self.cell: List[Optional[Dict[str, Bits]]] = [None]


class ExprBuilder:
    """Builds annotated expressions into closures ``() -> Bits``.

    This base class is the constant environment: no variables, no
    functions, no system functions.  The interpreter subclasses it,
    pointing :attr:`vars`, :attr:`values` and :attr:`arrays` at a
    design's live state and overriding :meth:`call_function` and
    :meth:`sys_func`.  :attr:`frame` is set when building a function
    body, whose local names shadow design variables.
    """

    vars: Dict = {}
    functions: Dict = {}
    values: Dict[str, Bits] = {}
    arrays: Dict[str, List[Bits]] = {}
    frame: Optional[Frame] = None

    # -- hooks ------------------------------------------------------------
    def call_function(self, name: str) -> Callable[[List[Bits]], Bits]:
        raise EvalError(f"function call {name!r} in constant expression")

    def sys_func(self, name: str, args: List[ast.Expr]) -> Thunk:
        raise EvalError(f"system function {name!r} in constant expression")

    # -- public -----------------------------------------------------------
    def build(self, expr: ast.Expr) -> Thunk:
        """A closure evaluating ``expr`` at its annotated context."""
        fn, k = self._build(expr)
        return fn if k is None else _const(k)

    def build_bool(self, expr: ast.Expr) -> Callable[[], bool]:
        """A closure for condition truthiness (a known-1 bit)."""
        fn, k = self._build(expr)
        if k is not None:
            truth = bool(k)
            return lambda: truth

        def truth_of():
            v = fn()
            return bool(v.aval & ~v.bval)
        return truth_of

    def build_folded(self, expr: ast.Expr
                     ) -> Tuple[Thunk, Optional[Bits]]:
        """``(closure, value)``: value is the constant ``expr`` folds
        to, else None."""
        return self._build(expr)

    # -- core -------------------------------------------------------------
    def _build(self, e: ast.Expr) -> Tuple[Thunk, Optional[Bits]]:
        if e.ann is None:
            raise EvalError(
                f"{type(e).__name__} at {e.loc} was never width-annotated")
        method = _DISPATCH.get(type(e))
        if method is None:
            raise EvalError(f"cannot evaluate {type(e).__name__}")
        fn, pure = method(self, e)
        if pure is None:
            return fn, None
        if isinstance(pure, Bits):
            return fn, pure
        # A pure node over constant operands: fold it now.  An operation
        # that raises keeps raising when the closure runs.
        try:
            value = fn()
        except Exception:
            return fn, None
        return _const(value), value

    @staticmethod
    def _fold(*constants) -> Optional[bool]:
        """True (fold) when every operand folded to a constant."""
        return True if all(k is not None for k in constants) else None

    def _number(self, e: ast.Number):
        _, _, ctx, signed = e.ann
        value = coerce(e.value, ctx, signed)
        return _const(value), value

    def _string(self, e: ast.StringLit):
        ctx = e.ann[2]
        data = e.value.encode("latin-1", "replace") or b"\0"
        value = int.from_bytes(data, "big")
        out = Bits.from_int(value, max(ctx, 8 * len(data))).resize(ctx)
        return _const(out), out

    def _ident(self, e: ast.Ident):
        _, _, ctx, signed = e.ann
        name = e.name
        frame = self.frame
        if frame is not None and name in frame.sizes:
            cell = frame.cell

            def read():
                v = cell[0][name]
                if v.width == ctx and v.signed == signed:
                    return v
                return coerce(v, ctx, signed)
            return read, None
        self._check_var(name)
        values = self.values

        def read_var():
            try:
                v = values[name]
            except KeyError:
                raise EvalError(
                    f"undeclared identifier {name!r}") from None
            if v.width == ctx and v.signed == signed:
                return v
            return coerce(v, ctx, signed)
        return read_var, None

    def _check_var(self, name: str) -> None:
        if name not in self.vars:
            raise EvalError(f"{name!r} is not a constant")

    def _is_array(self, base: ast.Expr) -> bool:
        if not isinstance(base, ast.Ident):
            return False
        frame = self.frame
        if frame is not None and base.name in frame.sizes:
            return False
        var = self.vars.get(base.name)
        return var is not None and var.is_array

    def _range_of(self, name: str) -> Tuple[int, int]:
        """Declared (msb, lsb) of a scalar name (frame locals are
        [w-1:0])."""
        frame = self.frame
        if frame is not None and name in frame.sizes:
            return frame.sizes[name][0] - 1, 0
        var = self.vars[name]
        return var.msb, var.lsb

    def _index(self, e: ast.IndexExpr):
        _, _, ctx, signed = e.ann
        base = e.base
        index, ik = self._build(e.index)
        if self._is_array(base):
            name = base.name
            var = self.vars[name]
            storage = self.arrays[name]
            width = var.width
            word_index = var.word_index

            def word():
                i = index()
                if i.bval:
                    return coerce(_xes(width), ctx, signed)
                offset = word_index(i.aval)
                v = _xes(width) if offset is None else storage[offset]
                if v.width == ctx and v.signed == signed:
                    return v
                return coerce(v, ctx, signed)
            return word, None
        x1 = coerce(_xes(1), ctx, signed)
        if isinstance(base, ast.Ident):
            msb, lsb = self._range_of(base.name)
            descending = msb >= lsb
            width = abs(msb - lsb) + 1
            value, _ = self._build(base)

            def bit():
                i = index()
                if i.bval:
                    return x1
                offset = i.aval - lsb if descending else lsb - i.aval
                v = value()
                if not 0 <= offset < width:
                    return x1
                return coerce(v.select(offset), ctx, signed)
            return bit, None
        # Bit select of a computed value (e.g. {a, b}[i]).
        value, k = self._build(base)

        def computed_bit():
            i = index()
            v = value()
            if i.bval:
                return x1
            return coerce(v.select(i.aval), ctx, signed)
        return computed_bit, self._fold(ik, k)

    def _range(self, e: ast.RangeExpr):
        _, _, ctx, signed = e.ann
        base = e.base
        if isinstance(base, ast.Ident) and not self._is_array(base):
            msb_decl, lsb_decl = self._range_of(base.name)
        else:
            msb_decl, lsb_decl = base.ann[0] - 1, 0
        value, k = self._build(base)
        descending = msb_decl >= lsb_decl

        def offset_of(idx: int) -> int:
            return idx - lsb_decl if descending else lsb_decl - idx

        if e.mode == ":":
            hi = offset_of(const_int(e.left, "part-select msb"))
            lo = offset_of(const_int(e.right, "part-select lsb"))
            if hi < lo:
                hi, lo = lo, hi

            def fixed():
                return coerce(value().part(hi, lo), ctx, signed)
            return fixed, self._fold(k)
        width = const_int(e.right, "part-select width")
        start, sk = self._build(e.left)
        xw = _xes(width)
        up = (e.mode == "+:") == descending

        def indexed():
            v = value()
            s = start()
            if s.bval:
                return coerce(xw, ctx, signed)
            o = offset_of(s.aval)
            hi, lo = (o + width - 1, o) if up else (o, o - width + 1)
            if hi < lo:
                hi, lo = lo, hi
            return coerce(v.part(hi, lo), ctx, signed)
        return indexed, self._fold(k, sk)

    def _unary(self, e: ast.Unary):
        _, _, ctx, signed = e.ann
        op = e.op
        operand, k = self._build(e.operand)
        if op == "!":
            def log_not():
                return coerce(operand().log_not(), ctx, False)
            return log_not, self._fold(k)
        reduce = _REDUCE.get(op)
        if reduce is not None:
            def reduction():
                return coerce(reduce(operand()), ctx, False)
            return reduction, self._fold(k)
        method = _UNARY.get(op)
        if method is None:
            raise EvalError(f"unknown unary operator {op!r}")

        def unary():
            return method(operand())
        return unary, self._fold(k)

    def _binary(self, e: ast.Binary):
        _, _, ctx, signed = e.ann
        op = e.op
        lhs, lk = self._build(e.lhs)
        rhs, rk = self._build(e.rhs)
        fold = self._fold(lk, rk)
        method = _BINARY.get(op)
        if method is None:
            raise EvalError(f"unknown binary operator {op!r}")
        if op in _ONE_BIT:
            # Logical and relational operators: a 1-bit unsigned result
            # widened to the context.
            if ctx == 1:
                def one_bit():
                    return method(lhs(), rhs())
            else:
                def one_bit():
                    return coerce(method(lhs(), rhs()), ctx, False)
            return one_bit, fold
        if op == "**":
            rw = e.rhs.ann[2]
            if rw < ctx:
                def power():
                    left = lhs()
                    return left.pow(rhs().extend(ctx))
            else:
                def power():
                    left = lhs()
                    return left.pow(rhs().resize(ctx))
            return power, fold

        def binary():
            return method(lhs(), rhs())
        return binary, fold

    def _ternary(self, e: ast.Ternary):
        ctx = e.ann[2]
        cond, ck = self._build(e.cond)
        then, tk = self._build(e.then)
        els, ek = self._build(e.els)
        mask = (1 << ctx) - 1

        def ternary():
            c = cond()
            if not c.bval:
                return then() if c.aval else els()
            # Ambiguous condition: bitwise merge of both branches.
            t = then()
            f = els()
            agree = ~(t.aval ^ f.aval) & ~(t.bval | f.bval)
            differ = ~agree & mask
            return Bits(ctx, (t.aval & agree) | differ,
                        (t.bval & agree) | differ)
        return ternary, self._fold(ck, tk, ek)

    def _concat(self, e: ast.Concat):
        _, _, ctx, signed = e.ann
        parts = [self._build(p) for p in e.parts]
        fns = [fn for fn, _ in parts]
        concat = Bits.concat

        def cat():
            return coerce(concat([fn() for fn in fns]), ctx, False)
        return cat, self._fold(*(k for _, k in parts))

    def _repeat(self, e: ast.Repeat):
        ctx = e.ann[2]
        count = const_int(e.count, "replication count")
        inner, k = self._build(e.inner)

        def repeat():
            return coerce(inner().replicate(count), ctx, False)
        return repeat, self._fold(k)

    def _call(self, e: ast.Call):
        _, _, ctx, signed = e.ann
        name = e.name
        if name in ("$signed", "$unsigned"):
            # Typed and extended by its context like any operand (IEEE
            # 1364 §5.5.4): $signed(x) zero-extends in an unsigned one.
            arg, k = self._build(e.args[0])

            def cast():
                return coerce(arg(), ctx, signed)
            return cast, self._fold(k)
        if name == "$clog2":
            arg, k = self._build(e.args[0])

            def clog2():
                v = arg()
                if v.bval:
                    return _xes(32).resize(ctx)
                n = v.aval
                result = (n - 1).bit_length() if n > 1 else 0
                return coerce(Bits.from_int(result, 32, True), ctx, signed)
            return clog2, self._fold(k)
        if name == "$bits":
            out = coerce(Bits.from_int(e.args[0].ann[0], 32), ctx, signed)
            return _const(out), out
        if name.startswith("$"):
            sys_fn = self.sys_func(name, e.args)

            def system():
                return coerce(sys_fn(), ctx, signed)
            return system, None
        call = self.call_function(name)
        ports = self.functions[name].ports
        if len(ports) != len(e.args):
            def arity():
                raise EvalError(
                    f"function {name!r} expects {len(ports)} arguments, "
                    f"got {len(e.args)}")
            return arity, None
        args = [self.build(a) for a in e.args]

        def user_call():
            return coerce(call([fn() for fn in args]), ctx, signed)
        return user_call, None


_REDUCE = {
    "&": Bits.reduce_and, "~&": Bits.reduce_nand,
    "|": Bits.reduce_or, "~|": Bits.reduce_nor,
    "^": Bits.reduce_xor, "~^": Bits.reduce_xnor, "^~": Bits.reduce_xnor,
}
_UNARY = {"~": Bits.not_, "-": Bits.neg, "+": Bits.plus}
_BINARY = {
    "+": Bits.add, "-": Bits.sub, "*": Bits.mul, "/": Bits.div,
    "%": Bits.mod, "**": Bits.pow,
    "&": Bits.and_, "|": Bits.or_, "^": Bits.xor_,
    "^~": Bits.xnor_, "~^": Bits.xnor_,
    "<<": Bits.shl, "<<<": Bits.shl, ">>": Bits.shr, ">>>": Bits.ashr,
    "==": Bits.eq, "!=": Bits.neq, "===": Bits.case_eq,
    "!==": Bits.case_neq, "<": Bits.lt, "<=": Bits.le, ">": Bits.gt,
    ">=": Bits.ge, "&&": Bits.log_and, "||": Bits.log_or,
}
_ONE_BIT = frozenset(["==", "!=", "===", "!==", "<", "<=", ">", ">=",
                      "&&", "||"])
_DISPATCH = {
    ast.Number: ExprBuilder._number,
    ast.StringLit: ExprBuilder._string,
    ast.Ident: ExprBuilder._ident,
    ast.IndexExpr: ExprBuilder._index,
    ast.RangeExpr: ExprBuilder._range,
    ast.Unary: ExprBuilder._unary,
    ast.Binary: ExprBuilder._binary,
    ast.Ternary: ExprBuilder._ternary,
    ast.Concat: ExprBuilder._concat,
    ast.Repeat: ExprBuilder._repeat,
    ast.Call: ExprBuilder._call,
}

_CONSTANTS = ExprBuilder()


# ----------------------------------------------------------------------
# Constant evaluation
# ----------------------------------------------------------------------
def const_eval(expr: ast.Expr) -> Bits:
    """Evaluate a constant expression (parameters already substituted),
    self-determined.  Annotates ``expr``, which must be an
    elaboration-owned copy, never a shared parse-time tree."""
    if isinstance(expr, ast.Number):
        return expr.value
    if expr.ann is None:
        annotate_expr(expr)
    return _CONSTANTS.build(expr)()


def const_int(expr: ast.Expr, what: str = "constant") -> int:
    """Evaluate a constant expression to a plain int."""
    value = const_eval(expr)
    if value.bval:
        raise EvalError(f"{what} has x/z bits")
    return value.to_int() if value.signed else value.aval
