"""Procedural code and continuous assigns built into closures.

The interpreter builds each continuous assign and each process body once,
on its first execution, from the width-annotated AST: expressions through
:class:`~repro.verilog.eval.ExprBuilder`, statements here.  L-value
targets are resolved at build time, constant case labels are evaluated
once, and the statement budget is charged at exactly the points the
reference scheduler charges it, so event counts and budget exhaustion do
not depend on how a statement is executed.

A statement builds to ``(fn, suspends)``.  When ``suspends`` is False,
``fn()`` runs the statement to completion.  When True (the statement
contains a ``#delay`` or an ``@(...)`` wait), ``fn()`` returns a
generator that yields ``("delay", n)`` / ``("wait", ctrl)`` requests to
the engine, the mechanism behind unsynthesizable testbench code.

The closures live on the engine, never in AST slots: designs are pickled
to the compile flow lane, closures are not.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..common.bits import Bits
from ..common.errors import EvalError
from ..verilog import ast
from ..verilog.eval import ExprBuilder, Frame, coerce
from ..verilog.widths import function_frame
from .fmt import format_display

__all__ = ["EngineBuilder", "StmtBuilder"]

Built = Tuple[Callable, bool]


def _charge(engine) -> None:
    """One statement step against the engine's budget."""
    b = engine._stmt_budget - 1
    engine._stmt_budget = b
    if b <= 0:
        raise EvalError(
            "statement budget exhausted (runaway loop in procedural code?)")


def _raise(message: str) -> Callable:
    def fail(*_args):
        raise EvalError(message)
    return fail


def _noop() -> None:
    return None


def _gen(built: Built) -> Callable:
    """A built statement as a generator function."""
    fn, suspends = built
    if suspends:
        return fn

    def run():
        fn()
        return
        yield  # pragma: no cover - makes this a generator
    return run


class EngineBuilder(ExprBuilder):
    """Expression builder over one engine's live state."""

    def __init__(self, engine, frame: Optional[Frame] = None):
        design = engine.design
        self.engine = engine
        self.vars = design.vars
        self.functions = design.functions
        self.values = engine.values
        self.arrays = engine.arrays
        self.frame = frame

    def call_function(self, name: str):
        return partial(self.engine.call_function, name)

    def sys_func(self, name: str, args: List[ast.Expr]):
        engine = self.engine
        if name in ("$time", "$stime"):
            services = engine.services
            return lambda: Bits.from_int(services.now(), 64)
        if name == "$random":
            seed = self.build(args[0]) if args else None
            return lambda: engine.random(seed() if seed else None)
        return _raise(f"unknown system function {name!r}")


class StmtBuilder:
    """Builds statements of one scope (process code, or one function's
    body) into closures over an engine."""

    def __init__(self, engine, fn=None):
        self.engine = engine
        self.fn = fn
        self.frame = Frame(function_frame(fn)) if fn is not None else None
        self.x = EngineBuilder(engine, self.frame)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def stmt(self, s: Optional[ast.Stmt]) -> Built:
        if s is None:
            return _noop, False
        method = getattr(self, "_" + type(s).__name__, None)
        if method is None:
            return self._unsupported(s)
        return method(s)

    def _budgeted(self, body: Callable[[], None]) -> Callable[[], None]:
        engine = self.engine

        def run():
            _charge(engine)
            body()
        return run

    def _unsupported(self, s: ast.Node) -> Built:
        if self.fn is not None:
            message = f"{type(s).__name__} not allowed in function body"
        else:
            message = f"cannot execute {type(s).__name__}"
        return self._budgeted(_raise(message)), False

    def _Block(self, s: ast.Block) -> Built:
        engine = self.engine
        parts = [self.stmt(sub) for sub in s.stmts]
        if not any(suspends for _, suspends in parts):
            fns = [fn for fn, _ in parts]

            def block():
                _charge(engine)
                for fn in fns:
                    fn()
            return block, False
        gens = [_gen(part) for part in parts]

        def block_gen():
            _charge(engine)
            for gen in gens:
                yield from gen()
        return block_gen, True

    def _NullStmt(self, s: ast.NullStmt) -> Built:
        return self._budgeted(_noop), False

    def _BlockingAssign(self, s: ast.BlockingAssign) -> Built:
        engine = self.engine
        rhs = self.x.build(s.rhs)
        write = self._frame_writer(s.lhs) if self.fn is not None else None
        if write is None:
            write = self.writer(s.lhs)

        def blocking():
            _charge(engine)
            write(rhs())
        return blocking, False

    def _NonblockingAssign(self, s: ast.NonblockingAssign) -> Built:
        if self.fn is not None:
            return self._unsupported(s)
        engine = self.engine
        rhs = self.x.build(s.rhs)
        resolve = self.resolver(s.lhs)

        def nonblocking():
            _charge(engine)
            resolve(rhs(), engine._update_queue)
        return nonblocking, False

    def _If(self, s: ast.If) -> Built:
        engine = self.engine
        cond = self.x.build_bool(s.cond)
        then, els = self.stmt(s.then), self.stmt(s.els)
        if not (then[1] or els[1]):
            then_fn, els_fn = then[0], els[0]

            def if_():
                _charge(engine)
                if cond():
                    then_fn()
                else:
                    els_fn()
            return if_, False
        then_gen, els_gen = _gen(then), _gen(els)

        def if_gen():
            _charge(engine)
            yield from (then_gen if cond() else els_gen)()
        return if_gen, True

    def _Case(self, s: ast.Case) -> Built:
        engine = self.engine
        select, arms = self._case_select(s)
        if not any(suspends for _, suspends in arms):
            def case():
                _charge(engine)
                arm = select()
                if arm is not None:
                    arm[0]()
            return case, False

        def case_gen():
            _charge(engine)
            arm = select()
            if arm is not None:
                yield from _gen(arm)()
        return case_gen, True

    def _case_select(self, s: ast.Case):
        """(select, arms): ``select()`` evaluates the selector and the
        labels in order and returns the matching arm (the last default
        when none matches), or None."""
        selector = self.x.build(s.expr)
        arms: List[Optional[Built]] = []
        #: (constant value or thunk, is constant, index into arms)
        labels: List[Tuple[object, bool, int]] = []
        default = None
        for item in s.items:
            arm = self.stmt(item.body) if item.body is not None else None
            if item.exprs is None:
                default = arm
                continue
            for label in item.exprs:
                fn, k = self.x.build_folded(label)
                labels.append((fn if k is None else k, k is not None,
                               len(arms)))
            arms.append(arm)
        all_arms = [a for a in arms + [default] if a is not None]
        if s.kind == "case" and all(const for _, const, _ in labels):
            # Case equality on constant labels: one dictionary lookup.
            table: Dict[Tuple[int, int], Optional[Built]] = {}
            for value, _, i in labels:
                table.setdefault((value.aval, value.bval), arms[i])
            get = table.get
            missing = object()

            def lookup():
                sel = selector()
                arm = get((sel.aval, sel.bval), missing)
                return default if arm is missing else arm
            return lookup, all_arms
        wild_x = s.kind == "casex"
        plain = s.kind == "case"

        def scan():
            sel = selector()
            for value, const, i in labels:
                label = value if const else value()
                if plain:
                    hit = sel.aval == label.aval and sel.bval == label.bval
                else:
                    hit = sel.matches(label, wild_x)
                if hit:
                    return arms[i]
            return default
        return scan, all_arms

    def _For(self, s: ast.For) -> Built:
        engine = self.engine
        cond = self.x.build_bool(s.cond)
        body = self.stmt(s.body)
        if self.fn is not None:
            # Function bodies run init and step as statements.
            init, step = self.stmt(s.init)[0], self.stmt(s.step)[0]
        else:
            init, step = self._assign_now(s.init), self._assign_now(s.step)
        if not body[1]:
            body_fn = body[0]

            def for_():
                _charge(engine)
                init()
                while cond():
                    _charge(engine)
                    body_fn()
                    step()
            return for_, False
        body_gen = body[0]

        def for_gen():
            _charge(engine)
            init()
            while cond():
                _charge(engine)
                yield from body_gen()
                step()
        return for_gen, True

    def _assign_now(self, s: ast.BlockingAssign) -> Callable[[], None]:
        """A blocking assignment without a statement charge (a process
        ``for`` loop's init and step)."""
        rhs = self.x.build(s.rhs)
        write = self.writer(s.lhs)
        return lambda: write(rhs())

    def _While(self, s: ast.While) -> Built:
        engine = self.engine
        cond = self.x.build_bool(s.cond)
        body_fn, suspends = self.stmt(s.body)
        if not suspends:
            def while_():
                _charge(engine)
                while cond():
                    _charge(engine)
                    body_fn()
            return while_, False

        def while_gen():
            _charge(engine)
            while cond():
                _charge(engine)
                yield from body_fn()
        return while_gen, True

    def _RepeatStmt(self, s: ast.RepeatStmt) -> Built:
        engine = self.engine
        count = self.x.build(s.count)
        body_fn, suspends = self.stmt(s.body)
        # Function bodies do not charge the budget per iteration.
        per_iteration = self.fn is None

        def times() -> int:
            n = count()
            return 0 if n.bval else n.aval

        if not suspends:
            def repeat():
                _charge(engine)
                for _ in range(times()):
                    if per_iteration:
                        _charge(engine)
                    body_fn()
            return repeat, False

        def repeat_gen():
            _charge(engine)
            for _ in range(times()):
                _charge(engine)
                yield from body_fn()
        return repeat_gen, True

    def _Forever(self, s: ast.Forever) -> Built:
        if self.fn is not None:
            return self._unsupported(s)
        engine = self.engine
        body = _gen(self.stmt(s.body))

        def forever_gen():
            _charge(engine)
            while True:
                _charge(engine)
                yield from body()
        return forever_gen, True

    def _DelayStmt(self, s: ast.DelayStmt) -> Built:
        if self.fn is not None:
            return self._unsupported(s)
        engine = self.engine
        amount = self.x.build(s.amount)
        after = _gen(self.stmt(s.stmt))

        def delay_gen():
            _charge(engine)
            n = amount()
            yield ("delay", 1 if n.bval else max(n.aval, 0))
            yield from after()
        return delay_gen, True

    def _EventStmt(self, s: ast.EventStmt) -> Built:
        if self.fn is not None:
            return self._unsupported(s)
        engine = self.engine
        ctrl = s.ctrl
        after = _gen(self.stmt(s.stmt))

        def event_gen():
            _charge(engine)
            yield ("wait", ctrl)
            yield from after()
        return event_gen, True

    def _SysTask(self, s: ast.SysTask) -> Built:
        engine = self.engine
        name = s.name
        if name in ("$display", "$write"):
            render = self.renderer(s.args)
            newline = name == "$display"
            return self._budgeted(
                lambda: engine.services.display(render(), newline=newline)), \
                False
        if name == "$monitor":
            render = self.renderer(s.args)
            return self._budgeted(lambda: engine.add_monitor(render)), False
        if name in ("$finish", "$stop"):
            code = self.x.build(s.args[0]) if s.args else None

            def finish():
                v = code() if code is not None else None
                engine.finish(0 if v is None or v.bval else v.aval)
            return self._budgeted(finish), False
        if name in ("$readmemh", "$readmemb"):
            base = 16 if name == "$readmemh" else 2
            return self._budgeted(lambda: engine.readmem(s, base)), False
        return self._budgeted(_raise(f"unknown system task {name!r}")), False

    def renderer(self, args: List[ast.Expr]) -> Callable[[], str]:
        """A closure formatting $display/$write/$monitor arguments."""
        engine = self.engine
        parts = [(a.value, None) if isinstance(a, ast.StringLit)
                 else (None, self.x.build(a)) for a in args]
        design_name = engine.design.name

        def render() -> str:
            rendered = [text if fn is None else fn() for text, fn in parts]
            return format_display(rendered, design_name,
                                  engine.services.now())
        return render

    # ------------------------------------------------------------------
    # L-values
    # ------------------------------------------------------------------
    def writer(self, lhs: ast.Expr) -> Callable[[Bits], None]:
        """Apply an assignment to design variables immediately."""
        engine = self.engine
        if isinstance(lhs, ast.Ident):
            var = engine.design.vars.get(lhs.name)
            if var is not None and not var.is_array:
                name, width, signed = lhs.name, var.width, var.signed
                set_var = engine._set_var
                return lambda value: set_var(name, coerce(value, width,
                                                          signed))
        resolve = self.resolver(lhs)

        def write(value: Bits) -> None:
            ops: List = []
            resolve(value, ops)
            for setter, key, v in ops:
                setter(key, v)
        return write

    def resolver(self, lhs: ast.Expr) -> Callable[[Bits, List], None]:
        """``resolve(value, ops)`` appends the primitive writes of an
        assignment, ``(setter, key, value)``, evaluating index
        expressions now; applied later by ``setter(key, value)``."""
        engine = self.engine
        if isinstance(lhs, ast.Concat):
            total = lhs.ann[0]
            parts = [(p.ann[0], self.resolver(p)) for p in lhs.parts]

            def concat(value: Bits, ops: List) -> None:
                v = value.resize(total) if value.width >= total \
                    else value.extend(total)
                pos = total
                for w, resolve in parts:
                    resolve(v.part(pos - 1, pos - w), ops)
                    pos -= w
            return concat
        if isinstance(lhs, ast.Ident):
            name = lhs.name
            var = engine.design.vars.get(name)
            if var is None:
                return _raise(f"assignment to undeclared {name!r}")
            width, signed = var.width, var.signed
            set_var = engine._set_var

            def ident(value: Bits, ops: List) -> None:
                ops.append((set_var, name, coerce(value, width, signed)))
            return ident
        if isinstance(lhs, (ast.IndexExpr, ast.RangeExpr)):
            base = lhs.base
            if not isinstance(base, ast.Ident):
                return _raise("unsupported nested l-value")
            var = engine.design.vars.get(base.name)
            if var is None:
                return _raise(f"assignment to undeclared {base.name!r}")
            if isinstance(lhs, ast.IndexExpr):
                return self._index_resolver(lhs, var)
            bounds = self.bounds(lhs, var.msb, var.lsb, var.width)
            set_bits = partial(engine._set_bits, base.name)

            def part_select(value: Bits, ops: List) -> None:
                hilo = bounds()
                if hilo is None:
                    return
                width = hilo[0] - hilo[1] + 1
                v = value.resize(width) if value.width >= width \
                    else value.extend(width)
                ops.append((set_bits, hilo, v))
            return part_select
        return _raise(f"invalid l-value {type(lhs).__name__}")

    def _index_resolver(self, lhs: ast.IndexExpr, var):
        engine = self.engine
        index = self.x.build(lhs.index)
        width = var.width
        if var.is_array:
            set_word = partial(engine._set_word, var.name)

            def word(value: Bits, ops: List) -> None:
                i = index()
                if i.bval:
                    return  # a write to an x index is discarded
                v = value.extend(width) if value.width < width \
                    else value.resize(width)
                ops.append((set_word, i.aval, v))
            return word
        msb, lsb = var.msb, var.lsb
        descending = msb >= lsb
        set_bits = partial(engine._set_bits, var.name)

        def bit(value: Bits, ops: List) -> None:
            i = index()
            if i.bval:
                return
            n = i.to_int() if i.signed else i.aval
            offset = n - lsb if descending else lsb - n
            if 0 <= offset < width:
                ops.append((set_bits, (offset, offset), value.resize(1)))
        return bit

    def bounds(self, lhs: ast.RangeExpr, msb: int, lsb: int, width: int
               ) -> Callable[[], Optional[Tuple[int, int]]]:
        """Physical (hi, lo) of a part-select l-value over a variable
        declared [msb:lsb], clipped to its width; None when the select
        has x/z bounds or lies entirely outside."""
        descending = msb >= lsb
        left, left_k = self.x.build_folded(lhs.left)
        right, right_k = self.x.build_folded(lhs.right)
        mode = lhs.mode

        def offset_of(b: Bits) -> int:
            i = b.to_int() if b.signed else b.aval
            return i - lsb if descending else lsb - i

        def hilo() -> Optional[Tuple[int, int]]:
            lv, rv = left(), right()
            if lv.bval or rv.bval:
                return None
            if mode == ":":
                hi, lo = offset_of(lv), offset_of(rv)
            else:
                o, w = offset_of(lv), rv.aval
                if (mode == "+:") == descending:
                    hi, lo = o + w - 1, o
                else:
                    hi, lo = o, o - w + 1
            if hi < lo:
                hi, lo = lo, hi
            hi = min(hi, width - 1)
            lo = max(lo, 0)
            if hi < lo:
                return None
            return hi, lo
        if mode == ":" and left_k is not None and right_k is not None:
            fixed = hilo()
            return lambda: fixed
        return hilo

    def _frame_writer(self, lhs: ast.Expr) -> Optional[Callable]:
        """In a function body: a writer for a target that is a local of
        the frame (or None for a design-variable target).  The return
        variable is mirrored under the function's full name."""
        frame = self.frame
        fn = self.fn
        short = fn.name.split(".")[-1]
        full = fn.name
        cell = frame.cell
        if isinstance(lhs, ast.Ident) and lhs.name in frame.sizes:
            name = lhs.name
            width, signed = frame.sizes[name]
            mirror = name == short

            def local(value: Bits) -> None:
                v = coerce(value, width, signed)
                f = cell[0]
                f[name] = v
                if mirror:
                    f[full] = v
            return local
        if not (isinstance(lhs, (ast.IndexExpr, ast.RangeExpr))
                and isinstance(lhs.base, ast.Ident)
                and lhs.base.name in frame.sizes):
            return None
        name = lhs.base.name
        width = frame.sizes[name][0]
        mirror = name == short
        if isinstance(lhs, ast.IndexExpr):
            index = self.x.build(lhs.index)

            def local_bit(value: Bits) -> None:
                i = index()
                if i.bval:
                    return
                f = cell[0]
                if 0 <= i.aval < width:
                    f[name] = f[name].set_part(i.aval, i.aval,
                                               value.resize(1))
                if mirror:
                    f[full] = f[name]
            return local_bit
        bounds = self.bounds(lhs, width - 1, 0, width)

        def local_part(value: Bits) -> None:
            hilo = bounds()
            f = cell[0]
            if hilo is not None:
                f[name] = f[name].set_part(hilo[0], hilo[1], value)
            if mirror:
                f[full] = f[name]
        return local_part

    # ------------------------------------------------------------------
    # Units the engine runs
    # ------------------------------------------------------------------
    def continuous(self, assign: ast.ContinuousAssign) -> Callable[[], None]:
        rhs = self.x.build(assign.rhs)
        write = self.writer(assign.lhs)
        return lambda: write(rhs())

    def function(self) -> Callable[[Dict[str, Bits]], None]:
        """The body of :attr:`fn`: ``run(frame)`` executes it with
        ``frame`` as the active locals."""
        body, _ = self.stmt(self.fn.body)
        cell = self.frame.cell

        def run(frame: Dict[str, Bits]) -> None:
            saved = cell[0]
            cell[0] = frame
            try:
                body()
            finally:
                cell[0] = saved
        return run

