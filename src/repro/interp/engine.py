"""The software engine: an event-driven interpreter for one Design.

This is the paper's §5.1 — "software engines use a cycle-accurate
event-driven simulation strategy similar to iVerilog".  One
:class:`SoftwareEngine` executes one elaborated :class:`Design`
(a Cascade subprogram).  It exposes exactly the operations of the
Figure 7 target-specific ABI; :mod:`repro.core.abi` defines the abstract
interface it implements.

Implementation notes
--------------------
* Procedural code (always/initial bodies) runs on Python generators so a
  process can suspend on ``#delay`` and ``@(...)`` event controls and be
  resumed later — the mechanism behind unsynthesizable testbench code.
* Continuous assigns are re-evaluated lazily from a dependency map
  (paper: "Cascade computes data dependencies at compile-time and uses a
  lazy evaluation strategy ... to reduce the overhead of recomputing
  outputs").
* Each continuous assign, process body and function body is built once,
  on first execution, into nested closures over the width-annotated AST
  (:mod:`repro.interp.closures`); the closures live on the engine.
* Nonblocking assigns resolve their l-value indices eagerly and queue
  primitive write operations, applied atomically by :meth:`update`.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..common.bits import Bits
from ..common.errors import EvalError
from ..verilog import ast
from ..verilog.elaborate import Design, Function
from ..verilog.eval import coerce
from ..verilog.visitor import walk
from .closures import StmtBuilder

__all__ = ["SoftwareEngine", "EngineServices", "read_set_of"]

_LOOP_CAP = 1_000_000    # statement steps per activation
_EVAL_CAP = 1_000_000    # events per evaluate() drain


class EngineServices:
    """Callbacks an engine uses to talk to its runtime.

    The default implementation prints to stdout and keeps local time,
    which is what the standalone reference simulator wants; the Cascade
    runtime passes its own implementation that routes these through the
    interrupt queue.
    """

    def display(self, text: str, newline: bool = True) -> None:
        print(text, end="\n" if newline else "")

    def finish(self, code: int = 0) -> None:
        raise _FinishSignal(code)

    def now(self) -> int:
        return 0

    def fopen(self, path: str) -> Iterable[str]:
        with open(path, "r", encoding="utf-8") as f:
            return f.read().splitlines()


class _FinishSignal(Exception):
    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _edge_cat(value: Bits) -> int:
    """0, 1 or 2(x/z) category of a value's LSB, for edge detection."""
    a = value.aval & 1
    b = value.bval & 1
    if b:
        return 2
    return a


def _is_posedge(old: int, new: int) -> bool:
    # 0->1, 0->x, x->1
    return (old == 0 and new != 0) or (old == 2 and new == 1)


def _is_negedge(old: int, new: int) -> bool:
    return (old == 1 and new != 1) or (old == 2 and new == 0)


def read_set_of(node: ast.Node) -> Set[str]:
    """Names read by a statement/expression subtree.

    Assignment targets contribute their index expressions but not the
    written name itself (used to synthesise @(*) sensitivity lists).
    """
    reads: Set[str] = set()

    def visit_expr(e: ast.Expr) -> None:
        for n in walk(e):
            if isinstance(n, ast.Ident):
                reads.add(n.name)

    def visit_lvalue(e: ast.Expr) -> None:
        if isinstance(e, ast.Ident):
            return
        if isinstance(e, ast.IndexExpr):
            visit_lvalue(e.base)
            visit_expr(e.index)
        elif isinstance(e, ast.RangeExpr):
            visit_lvalue(e.base)
            visit_expr(e.left)
            visit_expr(e.right)
        elif isinstance(e, ast.Concat):
            for p in e.parts:
                visit_lvalue(p)

    def visit_stmt(s: ast.Node) -> None:
        if isinstance(s, (ast.BlockingAssign, ast.NonblockingAssign)):
            visit_lvalue(s.lhs)
            visit_expr(s.rhs)
        elif isinstance(s, ast.Block):
            for sub in s.stmts:
                visit_stmt(sub)
        elif isinstance(s, ast.If):
            visit_expr(s.cond)
            if s.then:
                visit_stmt(s.then)
            if s.els:
                visit_stmt(s.els)
        elif isinstance(s, ast.Case):
            visit_expr(s.expr)
            for item in s.items:
                for e in item.exprs or []:
                    visit_expr(e)
                if item.body:
                    visit_stmt(item.body)
        elif isinstance(s, ast.For):
            visit_stmt(s.init)
            visit_expr(s.cond)
            visit_stmt(s.step)
            visit_stmt(s.body)
        elif isinstance(s, ast.While):
            visit_expr(s.cond)
            visit_stmt(s.body)
        elif isinstance(s, ast.RepeatStmt):
            visit_expr(s.count)
            visit_stmt(s.body)
        elif isinstance(s, ast.Forever):
            visit_stmt(s.body)
        elif isinstance(s, (ast.DelayStmt, ast.EventStmt)):
            if s.stmt:
                visit_stmt(s.stmt)
        elif isinstance(s, ast.SysTask):
            for a in s.args:
                visit_expr(a)
        elif isinstance(s, ast.Expr):
            visit_expr(s)

    visit_stmt(node)
    return reads


class _Process:
    """One procedural thread (an always or initial block)."""

    __slots__ = ("pid", "gen", "done", "kind")

    def __init__(self, pid: int, gen, kind: str):
        self.pid = pid
        self.gen = gen
        self.done = False
        self.kind = kind  # "always" | "initial"


class _WaitEntry:
    """A process suspended on an event control."""

    __slots__ = ("process", "items", "names")

    def __init__(self, process: "_Process", items: List[Tuple],
                 names: Set[str]):
        self.process = process
        #: (edge, value closure, previous value, names read)
        self.items = items
        self.names = names


class SoftwareEngine:
    """Event-driven interpreter engine for one elaborated Design."""

    def __init__(self, design: Design,
                 services: Optional[EngineServices] = None,
                 random_seed: int = 1):
        self.design = design
        self.services = services or EngineServices()
        self.values: Dict[str, Bits] = {}
        self.arrays: Dict[str, List[Bits]] = {}
        self._rand_state = random_seed & 0xFFFFFFFF or 1

        # Closures, built on first use (see repro.interp.closures).
        self._stmts = StmtBuilder(self)
        self._assign_fns: List[Optional[Callable[[], None]]] = \
            [None] * len(design.assigns)
        self._functions: Dict[str, Callable[[Dict[str, Bits]], None]] = {}
        self._outputs = frozenset(
            v.name for v in design.vars.values() if v.direction == "output")

        # Event machinery.
        self._dirty_assigns: deque = deque()
        self._dirty_set: Set[int] = set()
        self._runnable: deque = deque()
        #: queued nonblocking writes, (setter, key, value)
        self._update_queue: List[Tuple] = []
        self._sleeping: List[Tuple[int, int, _Process]] = []  # heap
        self._sleep_seq = 0
        self._waits_by_name: Dict[str, List[_WaitEntry]] = {}
        # Per-event-control activation metadata, computed once per ctrl
        # (keyed by identity: ctrl nodes live as long as the design).
        # Re-walking the expression tree on every wait registration and
        # every _check_waits call dominated the scheduler hot path.
        self._wait_meta: Dict[int, Tuple] = {}
        self._monitors: List[Tuple[Callable[[], str], Optional[str]]] = []
        self._changed_outputs: Set[str] = set()
        self._finished: Optional[int] = None
        self._stmt_budget = _LOOP_CAP

        self._init_state()
        self._build_assign_deps()
        self._spawn_processes()

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def _init_state(self) -> None:
        for var in self.design.vars.values():
            if var.is_array:
                nwords = var.array[0]
                self.arrays[var.name] = [var.default_value()
                                         for _ in range(nwords)]
            else:
                self.values[var.name] = var.default_value()

    def _build_assign_deps(self) -> None:
        deps: Dict[str, Set[int]] = {}
        for idx, assign in enumerate(self.design.assigns):
            reads = read_set_of(assign.rhs) | read_set_of_lvalue_indices(
                assign.lhs)
            for name in reads:
                deps.setdefault(name, set()).add(idx)
            # Every assign is evaluated once at time zero.
            self._mark_assign(idx)
        # Tuples iterate in the same order as the sets they freeze.
        self._assign_deps: Dict[str, Tuple[int, ...]] = {
            name: tuple(idxs) for name, idxs in deps.items()}

    def _spawn_processes(self) -> None:
        self._processes: List[_Process] = []
        pid = 0
        for block in self.design.initials:
            proc = _Process(pid, self._run_initial(block), "initial")
            self._processes.append(proc)
            self._runnable.append(proc)
            pid += 1
        for block in self.design.always:
            proc = _Process(pid, self._run_always(block), "always")
            self._processes.append(proc)
            self._runnable.append(proc)
            pid += 1

    def _run_initial(self, block: ast.InitialBlock):
        body, suspends = self._stmts.stmt(block.body)
        if suspends:
            yield from body()
        else:
            body()

    def _run_always(self, block: ast.AlwaysBlock):
        ctrl = block.ctrl
        if ctrl is not None and ctrl.star:
            names = sorted(read_set_of(block.body))
            items = [ast.EventItem(None, ast.Ident(n.split(".")))
                     for n in names]
            ctrl = ast.EventControl(False, items, block.ctrl.loc)
        body, suspends = self._stmts.stmt(block.body)
        if suspends:
            while True:
                if ctrl is not None:
                    yield ("wait", ctrl)
                yield from body()
        elif ctrl is not None:
            while True:
                yield ("wait", ctrl)
                body()
        else:
            while True:  # runs until the statement budget runs out
                body()

    # ------------------------------------------------------------------
    # Value access and change notification
    # ------------------------------------------------------------------
    def peek(self, name: str) -> Bits:
        """Current value of a variable (ABI read)."""
        return self.values[name]

    def poke(self, name: str, value: Bits) -> None:
        """Deliver an input change (ABI write)."""
        var = self.design.vars[name]
        self._set_var(name, coerce(value, var.width, var.signed))

    def _set_var(self, name: str, value: Bits) -> None:
        old = self.values[name]
        if old.aval == value.aval and old.bval == value.bval:
            return
        self.values[name] = value
        self._notify(name, old, value)

    def _set_word(self, name: str, index: int, value: Bits) -> None:
        var = self.design.vars[name]
        offset = var.word_index(index)
        if offset is None:
            return
        old = self.arrays[name][offset]
        if old.aval == value.aval and old.bval == value.bval:
            return
        self.arrays[name][offset] = value
        self._notify(name, old, value)

    def _set_bits(self, name: str, hilo: Tuple[int, int],
                  value: Bits) -> None:
        old = self.values[name]
        self._set_var(name, old.set_part(hilo[0], hilo[1], value))

    def _notify(self, name: str, old: Bits, new: Bits) -> None:
        if name in self._outputs:
            self._changed_outputs.add(name)
        deps = self._assign_deps.get(name)
        if deps:
            dirty = self._dirty_set
            for idx in deps:
                if idx not in dirty:
                    dirty.add(idx)
                    self._dirty_assigns.append(idx)
        entries = self._waits_by_name.get(name)
        if entries:
            self._check_waits(name, list(entries))

    def _mark_assign(self, idx: int) -> None:
        if idx not in self._dirty_set:
            self._dirty_set.add(idx)
            self._dirty_assigns.append(idx)

    def _check_waits(self, changed: str, entries: List[_WaitEntry]) -> None:
        for entry in entries:
            satisfied = False
            for i, (edge, value_of, prev, names) in enumerate(entry.items):
                if changed not in names:
                    continue
                if prev is None:
                    # Memory sensitivity (eg @(*) over a reg array):
                    # element writes are change-filtered before
                    # notification, so any notification is a change.
                    if edge is None:
                        satisfied = True
                    continue
                new = value_of()
                entry.items[i] = (edge, value_of, new, names)
                if edge is None:
                    if new.aval != prev.aval or new.bval != prev.bval:
                        satisfied = True
                else:
                    old_c, new_c = _edge_cat(prev), _edge_cat(new)
                    if edge == "posedge" and _is_posedge(old_c, new_c):
                        satisfied = True
                    elif edge == "negedge" and _is_negedge(old_c, new_c):
                        satisfied = True
            if satisfied:
                self._unregister_wait(entry)
                self._runnable.append(entry.process)

    def _unregister_wait(self, entry: _WaitEntry) -> None:
        for name in entry.names:
            lst = self._waits_by_name.get(name)
            if lst and entry in lst:
                lst.remove(entry)

    def _register_wait(self, process: _Process,
                       ctrl: ast.EventControl) -> None:
        meta = self._wait_meta.get(id(ctrl))
        if meta is None:
            item_meta = []
            all_names: Set[str] = set()
            for item in ctrl.items:
                item_names = frozenset(read_set_of(item.expr))
                # A bare signal reference — the overwhelmingly common
                # case (@(posedge clk)) — reads the value dict directly.
                ident = item.expr.name \
                    if isinstance(item.expr, ast.Ident) else None
                # A bare memory reference has no scalar value to
                # snapshot; it is tracked purely by change
                # notification (prev sentinel None).
                is_mem = ident is not None and ident in self.arrays
                if is_mem:
                    value_of = None
                elif ident is not None and ident in self.values:
                    value_of = partial(self.values.__getitem__, ident)
                else:
                    value_of = self._stmts.x.build(item.expr)
                item_meta.append((item.edge, value_of, item_names,
                                  ident, is_mem))
                all_names |= item_names
            meta = (item_meta, tuple(all_names))
            self._wait_meta[id(ctrl)] = meta
        item_meta, names = meta
        values = self.values
        items = []
        for edge, value_of, item_names, ident, is_mem in item_meta:
            if is_mem:
                items.append((edge, value_of, None, item_names))
                continue
            current = values.get(ident) if ident is not None else None
            if current is None:
                current = value_of()
            items.append((edge, value_of, current, item_names))
        entry = _WaitEntry(process, items, names)
        waits = self._waits_by_name
        for name in names:
            waits.setdefault(name, []).append(entry)

    # ------------------------------------------------------------------
    # Functions and system tasks (called from the built closures)
    # ------------------------------------------------------------------
    def call_function(self, name: str, args: List[Bits]) -> Bits:
        fn: Function = self.design.functions[name]
        run = self._functions.get(name)
        if run is None:
            run = self._functions[name] = StmtBuilder(self, fn).function()
        frame: Dict[str, Bits] = {}
        for (pname, width, signed), value in zip(fn.ports, args):
            frame[pname] = coerce(value, width, signed)
        for lname, width, signed in fn.locals_:
            frame[lname] = Bits.xes(width) if not signed \
                else Bits.xes(width).as_signed()
        short = fn.name.split(".")[-1]
        frame[short] = frame[fn.name] = Bits.xes(fn.ret_width)
        run(frame)
        result = frame.get(short, Bits.xes(fn.ret_width))
        return result.as_signed() if fn.ret_signed else result

    def random(self, seed: Optional[Bits]) -> Bits:
        """``$random``: xorshift32, deterministic, decent spectral
        behaviour; a known seed argument reseeds it."""
        if seed is not None and not seed.bval:
            self._rand_state = seed.aval & 0xFFFFFFFF or 1
        s = self._rand_state
        s ^= (s << 13) & 0xFFFFFFFF
        s ^= s >> 17
        s ^= (s << 5) & 0xFFFFFFFF
        self._rand_state = s
        return Bits.from_int(s, 32, signed=True)

    def finish(self, code: int) -> None:
        self._finished = code
        self.services.finish(code)

    def add_monitor(self, render: Callable[[], str]) -> None:
        self._monitors.append((render, None))

    def readmem(self, stmt: ast.SysTask, base: int) -> None:
        if len(stmt.args) < 2 or not isinstance(stmt.args[0],
                                                ast.StringLit):
            raise EvalError("$readmem requires a path and a memory")
        target = stmt.args[1]
        if not isinstance(target, ast.Ident):
            raise EvalError("$readmem target must be a memory name")
        var = self.design.vars.get(target.name)
        if var is None or not var.is_array:
            raise EvalError(f"{target.name!r} is not a memory")
        lines = self.services.fopen(stmt.args[0].value)
        words = []
        for line in lines:
            line = line.split("//")[0].strip()
            for token in line.split():
                if token.startswith("@"):
                    continue
                words.append(Bits.from_int(int(token, base), var.width))
        storage = self.arrays[target.name]
        for i, word in enumerate(words[:len(storage)]):
            storage[i] = word
        self._notify(target.name, Bits.xes(var.width),
                     Bits.zeros(var.width))

    # ------------------------------------------------------------------
    # ABI surface (Figure 7)
    # ------------------------------------------------------------------
    def there_are_evals(self) -> bool:
        return bool(self._dirty_assigns or self._runnable)

    def evaluate(self) -> None:
        """Drain all active evaluation events."""
        steps = 0
        self._stmt_budget = _LOOP_CAP
        while self._dirty_assigns or self._runnable:
            steps += 1
            if steps > _EVAL_CAP:
                raise EvalError("evaluation did not converge "
                                "(combinational loop?)")
            if self._dirty_assigns:
                idx = self._dirty_assigns.popleft()
                self._dirty_set.discard(idx)
                run = self._assign_fns[idx]
                if run is None:
                    run = self._assign_fns[idx] = self._stmts.continuous(
                        self.design.assigns[idx])
                run()
                continue
            proc = self._runnable.popleft()
            self._resume(proc)

    def _resume(self, proc: _Process) -> None:
        if proc.done:
            return
        try:
            request = next(proc.gen)
        except StopIteration:
            proc.done = True
            return
        except _FinishSignal:
            proc.done = True
            return
        kind, payload = request
        if kind == "wait":
            self._register_wait(proc, payload)
        elif kind == "delay":
            if payload <= 0:
                self._runnable.append(proc)
            else:
                self._sleep_seq += 1
                heapq.heappush(self._sleeping,
                               (self.services.now() + payload,
                                self._sleep_seq, proc))
        else:  # pragma: no cover
            raise EvalError(f"unknown process request {kind!r}")

    def there_are_updates(self) -> bool:
        return bool(self._update_queue)

    def update(self) -> None:
        """Apply all queued nonblocking updates atomically."""
        queue, self._update_queue = self._update_queue, []
        for setter, key, value in queue:
            setter(key, value)

    def end_step(self) -> None:
        """Called between time steps: wake delayed processes whose time
        has come and refresh $monitor output."""
        now = self.services.now()
        while self._sleeping and self._sleeping[0][0] <= now:
            _, _, proc = heapq.heappop(self._sleeping)
            self._runnable.append(proc)
        for i, (render, last) in enumerate(self._monitors):
            text = render()
            if text != last:
                self._monitors[i] = (render, text)
                self.services.display(text)

    def end(self) -> None:
        """Shutdown hook."""

    def next_wake_time(self) -> Optional[int]:
        """Earliest pending delayed wake-up, for the standalone
        simulator's time advance."""
        if self._sleeping:
            return self._sleeping[0][0]
        return None

    @property
    def finished(self) -> Optional[int]:
        return self._finished

    # -- state migration -------------------------------------------------
    def get_state(self) -> Dict[str, object]:
        """Snapshot of all stateful elements (regs + memories)."""
        state: Dict[str, object] = {}
        for var in self.design.vars.values():
            if var.kind != "reg":
                continue
            if var.is_array:
                state[var.name] = list(self.arrays[var.name])
            else:
                state[var.name] = self.values[var.name]
        return state

    def set_state(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            var = self.design.vars.get(name)
            if var is None:
                continue
            if var.is_array:
                words = list(value)
                storage = self.arrays[name]
                for i in range(min(len(storage), len(words))):
                    storage[i] = words[i]
            else:
                self._set_var(name, value)

    # -- data plane --------------------------------------------------------
    def drain_output_changes(self) -> Set[str]:
        out = self._changed_outputs
        self._changed_outputs = set()
        return out


def read_set_of_lvalue_indices(lhs: ast.Expr) -> Set[str]:
    """Names read by the index sub-expressions of an l-value."""
    reads: Set[str] = set()
    if isinstance(lhs, ast.IndexExpr):
        reads |= read_set_of(lhs.index)
        reads |= read_set_of_lvalue_indices(lhs.base)
    elif isinstance(lhs, ast.RangeExpr):
        reads |= read_set_of(lhs.left)
        reads |= read_set_of(lhs.right)
        reads |= read_set_of_lvalue_indices(lhs.base)
    elif isinstance(lhs, ast.Concat):
        for p in lhs.parts:
            reads |= read_set_of_lvalue_indices(p)
    return reads
