"""Width annotation: IEEE 1364 §5.4/§5.5 expression sizing, once.

This module is the single home of the sizing rules.  :func:`annotate_design`
runs once after elaboration and records on every expression node of the
design an interned ``(width, signed, ctx, ctx_signed)`` tuple in
``Expr.ann``:

* ``width``/``signed`` — the node's self-determined (natural) size and
  signedness, computed bottom-up;
* ``ctx``/``ctx_signed`` — the width and signedness the node is
  evaluated at, propagated top-down: the max of the naturals along the
  operand chain and, for assignments, the l-value width, extended with
  the *expression's* signedness (signed only when every operand is).

Every width consumer reads the annotation instead of re-deriving it: the
interpreter's closure builder (:mod:`repro.verilog.eval`), the compiled
Python model, synthesis and the resource estimator.

Names resolve against one design-table scope; a function body is
annotated with a frame overlay holding its ports, locals and return
variable.  Sizing failures (an undeclared name, an unknown function, a
non-constant part-select bound) raise :class:`TypeError_` at annotation,
so they surface when a program is elaborated, not when it first runs.

Only elaboration-owned trees are annotated: elaboration deep-copies every
module item before rewriting it, so the parse-time ASTs that parameterized
instances share never carry an annotation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..common.errors import EvalError, TypeError_
from . import ast

__all__ = ["WidthScope", "annotate_design", "annotate_expr",
           "function_frame", "CONST_SCOPE"]

Ann = Tuple[int, bool, int, bool]

_COMPARE_OPS = frozenset(["==", "!=", "===", "!==", "<", "<=", ">", ">="])
_LOGICAL_OPS = frozenset(["&&", "||"])
_SHIFT_OPS = frozenset(["<<", ">>", "<<<", ">>>"])
_REDUCTION_OPS = frozenset(["&", "~&", "|", "~|", "^", "~^", "^~"])

#: Annotation tuples are interned: a design holds a few dozen distinct
#: ones across thousands of nodes.
_interned: Dict[Ann, Ann] = {}


def _ann(width: int, signed: bool, ctx: int, ctx_signed: bool) -> Ann:
    key = (width, signed, ctx, ctx_signed)
    return _interned.setdefault(key, key)


class WidthScope:
    """Name -> (width, signed) over a design's tables, with an optional
    function-frame overlay (frame names shadow design variables and are
    never arrays)."""

    __slots__ = ("vars", "functions", "frame")

    def __init__(self, vars_: Dict, functions: Dict,
                 frame: Optional[Dict[str, Tuple[int, bool]]] = None):
        self.vars = vars_
        self.functions = functions
        self.frame = frame or {}

    def width_sign(self, name: str, loc=None) -> Tuple[int, bool]:
        ws = self.frame.get(name)
        if ws is not None:
            return ws
        var = self.vars.get(name)
        if var is None:
            raise TypeError_(f"undeclared identifier {name!r}", loc)
        return var.width, var.signed

    def is_array(self, name: str) -> bool:
        if name in self.frame:
            return False
        var = self.vars.get(name)
        return var is not None and var.is_array


#: The scope of constant expressions: no variables, no functions.
CONST_SCOPE = WidthScope({}, {})


def function_frame(fn) -> Dict[str, Tuple[int, bool]]:
    """The (width, signed) overlay of a function body: its ports, its
    locals and its return variable (unsigned inside the body; the
    declared signedness applies to the returned value)."""
    frame = {p: (w, s) for p, w, s in fn.ports}
    frame.update((n, (w, s)) for n, w, s in fn.locals_)
    frame[fn.name.split(".")[-1]] = (fn.ret_width, False)
    frame[fn.name] = (fn.ret_width, False)
    return frame


class _Annotator:
    def __init__(self, scope: WidthScope):
        self.scope = scope

    # -- natural size, bottom-up ----------------------------------------
    def natural(self, e: ast.Expr) -> Tuple[int, bool]:
        ann = e.ann
        if ann is None:
            w, s = self._natural(e)
            e.ann = ann = _ann(w, s, w, s)
        return ann[0], ann[1]

    def _natural(self, e: ast.Expr) -> Tuple[int, bool]:
        if isinstance(e, ast.Number):
            return e.value.width, e.value.signed
        if isinstance(e, ast.Ident):
            return self.scope.width_sign(e.name, e.loc)
        if isinstance(e, ast.Binary):
            op = e.op
            if op in _COMPARE_OPS or op in _LOGICAL_OPS:
                self.natural(e.lhs)
                self.natural(e.rhs)
                return 1, False
            lw, ls = self.natural(e.lhs)
            rw, rs = self.natural(e.rhs)
            if op in _SHIFT_OPS or op == "**":
                return lw, ls
            return max(lw, rw), ls and rs
        if isinstance(e, ast.Unary):
            w, s = self.natural(e.operand)
            if e.op == "!" or e.op in _REDUCTION_OPS:
                return 1, False
            return w, s
        if isinstance(e, ast.IndexExpr):
            base = e.base
            self.natural(base)
            self.natural(e.index)
            if isinstance(base, ast.Ident) and self.scope.is_array(base.name):
                var = self.scope.vars[base.name]
                return var.width, var.signed
            return 1, False
        if isinstance(e, ast.RangeExpr):
            self.natural(e.base)
            if e.mode == ":":
                msb = self.const_int(e.left, "part-select msb")
                lsb = self.const_int(e.right, "part-select lsb")
                return abs(msb - lsb) + 1, False
            self.natural(e.left)
            width = self.const_int(e.right, "part-select width")
            if width <= 0:
                raise TypeError_("part-select width must be positive",
                                 e.loc)
            return width, False
        if isinstance(e, ast.Ternary):
            self.natural(e.cond)
            tw, ts = self.natural(e.then)
            ew, es = self.natural(e.els)
            return max(tw, ew), ts and es
        if isinstance(e, ast.Concat):
            return sum(self.natural(p)[0] for p in e.parts), False
        if isinstance(e, ast.Repeat):
            count = self.const_int(e.count, "replication count")
            if count <= 0:
                raise TypeError_("replication count must be positive",
                                 e.loc)
            inner, _ = self.natural(e.inner)
            return count * inner, False
        if isinstance(e, ast.Call):
            return self._call(e)
        if isinstance(e, ast.StringLit):
            return max(8 * len(e.value), 8), False
        raise TypeError_(f"cannot size expression {type(e).__name__}",
                         e.loc)

    def _call(self, e: ast.Call) -> Tuple[int, bool]:
        sizes = [self.natural(a) for a in e.args]
        name = e.name
        if name == "$signed":
            return sizes[0][0], True
        if name == "$unsigned":
            return sizes[0][0], False
        if name in ("$time", "$stime"):
            return 64, False
        if name in ("$random", "$clog2"):
            return 32, True
        if name.startswith("$"):
            return 32, False
        fn = self.scope.functions.get(name)
        if fn is None:
            raise TypeError_(f"unknown function {name!r}", e.loc)
        return fn.ret_width, fn.ret_signed

    def const_int(self, e: ast.Expr, what: str) -> int:
        from .eval import const_int
        self.natural(e)
        try:
            return const_int(e, what)
        except EvalError as exc:
            raise TypeError_(f"{what} must be constant: {exc}",
                             e.loc) from None

    # -- evaluation context, top-down -----------------------------------
    def context(self, e: ast.Expr, ctx: int, signed: bool) -> None:
        """Record that ``e`` is evaluated at ``ctx`` bits with the given
        signedness, and push the operands' contexts down."""
        w, s = self.natural(e)
        e.ann = _ann(w, s, ctx, signed)
        if isinstance(e, ast.Binary):
            op = e.op
            if op in _COMPARE_OPS:
                lw, ls = self.natural(e.lhs)
                rw, rs = self.natural(e.rhs)
                cw, cs = max(lw, rw), ls and rs
                self.context(e.lhs, cw, cs)
                self.context(e.rhs, cw, cs)
            elif op in _LOGICAL_OPS:
                self.self_ctx(e.lhs)
                self.self_ctx(e.rhs)
            elif op in _SHIFT_OPS or op == "**":
                self.context(e.lhs, ctx, signed)
                self.self_ctx(e.rhs)
            else:
                self.context(e.lhs, ctx, signed)
                self.context(e.rhs, ctx, signed)
        elif isinstance(e, ast.Unary):
            if e.op == "!" or e.op in _REDUCTION_OPS:
                self.self_ctx(e.operand)
            else:
                self.context(e.operand, ctx, signed)
        elif isinstance(e, ast.Ternary):
            self.self_ctx(e.cond)
            self.context(e.then, ctx, signed)
            self.context(e.els, ctx, signed)
        elif isinstance(e, ast.Call):
            fn = None if e.name.startswith("$") \
                else self.scope.functions.get(e.name)
            if fn is not None and len(fn.ports) == len(e.args):
                for arg, (_, pw, ps) in zip(e.args, fn.ports):
                    self.context(arg, pw, ps)
            else:
                for arg in e.args:
                    self.self_ctx(arg)
        elif isinstance(e, ast.IndexExpr):
            self.self_ctx(e.base)
            self.self_ctx(e.index)
        elif isinstance(e, ast.RangeExpr):
            self.self_ctx(e.base)
            self.self_ctx(e.left)
            self.self_ctx(e.right)
        elif isinstance(e, ast.Concat):
            for p in e.parts:
                self.self_ctx(p)
        elif isinstance(e, ast.Repeat):
            self.self_ctx(e.count)
            self.self_ctx(e.inner)

    def self_ctx(self, e: ast.Expr) -> None:
        w, s = self.natural(e)
        self.context(e, w, s)

    def assign(self, lhs: ast.Expr, rhs: ast.Expr) -> None:
        self.self_ctx(lhs)
        w, s = self.natural(rhs)
        self.context(rhs, max(w, lhs.ann[0]), s)

    # -- statements -------------------------------------------------------
    def stmt(self, s: Optional[ast.Node]) -> None:
        if s is None:
            return
        if isinstance(s, (ast.BlockingAssign, ast.NonblockingAssign,
                          ast.ContinuousAssign)):
            self.assign(s.lhs, s.rhs)
        elif isinstance(s, ast.Block):
            for sub in s.stmts:
                self.stmt(sub)
        elif isinstance(s, ast.If):
            self.self_ctx(s.cond)
            self.stmt(s.then)
            self.stmt(s.els)
        elif isinstance(s, ast.Case):
            width = self.natural(s.expr)[0]
            for item in s.items:
                for label in item.exprs or ():
                    width = max(width, self.natural(label)[0])
            self.context(s.expr, width, s.expr.ann[1])
            for item in s.items:
                for label in item.exprs or ():
                    self.context(label, width, label.ann[1])
                self.stmt(item.body)
        elif isinstance(s, ast.For):
            self.stmt(s.init)
            self.self_ctx(s.cond)
            self.stmt(s.step)
            self.stmt(s.body)
        elif isinstance(s, (ast.While, ast.RepeatStmt)):
            self.self_ctx(s.cond if isinstance(s, ast.While) else s.count)
            self.stmt(s.body)
        elif isinstance(s, ast.Forever):
            self.stmt(s.body)
        elif isinstance(s, ast.DelayStmt):
            self.self_ctx(s.amount)
            self.stmt(s.stmt)
        elif isinstance(s, ast.EventStmt):
            self.event(s.ctrl)
            self.stmt(s.stmt)
        elif isinstance(s, ast.SysTask):
            for arg in s.args:
                self.self_ctx(arg)
        elif isinstance(s, (ast.AlwaysBlock, ast.InitialBlock)):
            self.event(getattr(s, "ctrl", None))
            self.stmt(s.body)

    def event(self, ctrl: Optional[ast.EventControl]) -> None:
        if ctrl is not None:
            for item in ctrl.items:
                self.self_ctx(item.expr)


def annotate_expr(expr: ast.Expr, scope: WidthScope = CONST_SCOPE,
                  ctx: int = 0) -> Ann:
    """Annotate one expression tree evaluated at (at least) ``ctx`` bits
    and return its root annotation."""
    a = _Annotator(scope)
    w, s = a.natural(expr)
    a.context(expr, max(w, ctx), s)
    return expr.ann


def annotate_design(design) -> None:
    """Annotate every expression of an elaborated design: continuous
    assigns, processes, and function bodies (under their frame)."""
    a = _Annotator(WidthScope(design.vars, design.functions))
    for item in design.assigns:
        a.stmt(item)
    for item in design.always:
        a.stmt(item)
    for item in design.initials:
        a.stmt(item)
    for fn in design.functions.values():
        _Annotator(WidthScope(design.vars, design.functions,
                              function_frame(fn))).stmt(fn.body)
