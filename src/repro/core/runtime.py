"""The Cascade runtime (paper §3.4, Figures 5, 6 and 9).

One :class:`Runtime` owns:

* the user's program — a library of module declarations plus the
  implicit root module that REPL/batch input appends items to;
* the IR (:mod:`repro.ir.build`) and one engine per subprogram;
* the data/control plane, the ordered interrupt queue, and the
  Figure 6 scheduler;
* the JIT machinery: background compilations via the
  :class:`~repro.backend.compiler.CompileService`, software-to-hardware
  engine replacement with state transfer, ABI forwarding and open-loop
  scheduling.

Program changes are only applied between time steps, when the event
queue is empty and the system is in an observable state — the window in
which eval'ing new code cannot produce undefined behaviour (§3.4).
"""

from __future__ import annotations

import time as _time
from concurrent.futures import Future
from typing import Dict, List, Optional, Set, Tuple

from ..backend.compilequeue import shared_fast_queue
from ..backend.compiler import CompileService
from ..backend.hardware import FastSoftwareEngine, HardwareEngine
from ..backend.pycompile import compile_design
from ..common.bits import Bits
from ..common.errors import CascadeError, SynthesisError
from ..ir.build import IRProgram, Subprogram, build_ir
from ..obs import tracer
from ..perf.timemodel import NS_PER_SEC, PerfTrace, TimeModel
from ..stdlib.board import VirtualBoard
from ..stdlib.components import (IMPLICIT_INSTANCES, STDLIB_MODULE_NAMES,
                                 stdlib_modules)
from ..stdlib.engines import ClockEngine, StdlibEngine, make_stdlib_engine
from ..verilog import ast
from ..verilog.elaborate import ModuleLibrary, elaborate_leaf
from ..verilog.parser import parse_source, parse_statement_text
from .abi import HARDWARE, SOFTWARE, Engine
from .engines import SoftwareEngineAdapter
from .interrupts import Interrupt, InterruptQueue
from .plane import DataPlane

__all__ = ["Runtime", "View"]

_OLOOP_MIN = 256
_OLOOP_REAL_CAP = 200_000   # max ticks actually executed per batch

# How the scheduler charges one evaluate/update call of an engine,
# resolved once per engine-set change (see Runtime._charge_call).
_INTERPRETED, _FAST, _HARDWARE = range(3)

#: Why a fused-kernel batch handed control back to the general loop
#: (``runtime.fused.handback.<reason>``); ``ineligible`` counts engine
#: sets holding a sw-fast engine that the kernel cannot run.
FUSED_HANDBACKS = ("task", "interrupt", "sample", "compile", "board",
                   "bound", "ineligible")
_SETTLE_ROUNDS = 100_000


class View:
    """Collects program output (the REPL's view component)."""

    def __init__(self, echo: bool = False):
        self.echo = echo
        self.lines: List[str] = []
        self._partial = ""

    def display(self, text: str, newline: bool = True) -> None:
        if newline:
            self.lines.append(self._partial + text)
            self._partial = ""
            if self.echo:
                print(self.lines[-1])
        else:
            self._partial += text

    def flush(self) -> None:
        if self._partial:
            self.lines.append(self._partial)
            self._partial = ""

    def info(self, text: str) -> None:
        if self.echo:
            print(text)


class Runtime:
    """The Cascade runtime: scheduler, JIT controller and data plane."""

    def __init__(self,
                 board: Optional[VirtualBoard] = None,
                 time_model: Optional[TimeModel] = None,
                 compile_service: Optional[CompileService] = None,
                 inline_user_logic: bool = True,
                 enable_jit: bool = True,
                 enable_sw_fastpath: bool = True,
                 enable_forwarding: bool = True,
                 enable_open_loop: bool = True,
                 implicit_stdlib: bool = True,
                 echo: bool = False,
                 view: Optional[View] = None):
        self.board = board or VirtualBoard()
        self.time_model = time_model or TimeModel()
        self.compiler = compile_service or CompileService()
        self.inline_user_logic = inline_user_logic
        self.enable_jit = enable_jit
        self.enable_sw_fastpath = enable_sw_fastpath
        self.enable_forwarding = enable_forwarding
        self.enable_open_loop = enable_open_loop
        # The view is injectable so headless hosts (the network server)
        # can observe output as it is produced rather than polling
        # ``output_lines`` — any View subclass works.
        self.view = view if view is not None else View(echo)
        self.perf = PerfTrace()
        self.interrupts = InterruptQueue()

        self.library = ModuleLibrary(stdlib_modules())
        self.root_items: List[ast.Item] = []
        if implicit_stdlib:
            self._instantiate_implicit_stdlib()

        self.program: Optional[IRProgram] = None
        self.engines: Dict[str, Engine] = {}
        self.absorbed: Set[str] = set()
        self.plane: Optional[DataPlane] = None
        self.finished: Optional[int] = None
        self.iterations = 0           # scheduler iterations dispatched
        self.generation = 0           # bumped on every program change
        self._needs_rebuild = True
        #: The program the last eval validated, kept for the rebuild:
        #: (program key, IR program, elaborated designs by subprogram).
        self._prepared: Optional[Tuple] = None
        self._had_transients = False
        self._oloop_limit = _OLOOP_MIN
        self._oloop_exec_cap = _OLOOP_REAL_CAP
        self._open_loop_active = False
        #: Generation of each fabric job the compile service holds (by
        #: id); cleared with the service's jobs on every rebuild.
        self._job_generation: Dict[int, int] = {}
        #: Runtime counters live in the compile service's registry so
        #: one ``:stats`` snapshot covers the whole pipeline.
        self.metrics = self.compiler.metrics
        self._c_hw_migrations = self.metrics.counter(
            "runtime.hw_migrations")
        self._c_sw_migrations = self.metrics.counter(
            "runtime.sw_migrations")
        self._c_fastpath_failures = self.metrics.counter(
            "runtime.fastpath_failures")
        #: Why the last fast-path compile or swap failed, for :stats.
        self.last_fastpath_failure: Optional[str] = None
        #: Trace thread id for this runtime's events; the server's
        #: sessions relabel it so per-tenant lanes separate in the
        #: Chrome trace view.
        self.obs_tid = "main"
        self.unsynthesizable: Dict[str, str] = {}
        # The middle JIT tier: in-flight local pycompile jobs, keyed by
        # subprogram name.  Values are (generation, future); the
        # generation guard (the same discipline _job_generation applies
        # to fabric jobs) makes a stale model impossible to swap in.
        self._fast_jobs: Dict[str, Tuple[int, "Future"]] = {}
        self._fast_queue = shared_fast_queue()
        #: The scheduled engines, rebuilt on every engine-set change:
        #: the engines not absorbed, [(route index, engine, charge
        #: kind)] for those that are not passive, and the fused
        #: kernel's plan for the set (None when it is not eligible).
        self._engines_cache: Optional[Tuple[
            List[Engine], List[Tuple[int, Engine, int]],
            Optional[Tuple]]] = None
        self._c_fused_iterations = self.metrics.counter(
            "runtime.fused.iterations")
        self._c_fused_handbacks = {
            reason: self.metrics.counter(f"runtime.fused.handback.{reason}")
            for reason in FUSED_HANDBACKS}
        #: Why the last engine set holding a sw-fast engine could not
        #: take the fused kernel, for :stats.
        self.fused_ineligible: Optional[str] = None

    @property
    def sw_migrations(self) -> int:
        # Kept for perfbench/sim_tiers.py, which reads it.
        return self._c_sw_migrations.value

    def _trace_tier_swap(self, name: str, from_tier: str,
                         to_tier: str, **extra) -> None:
        tr = tracer()
        if tr.enabled:
            args = {"engine": name, "from": from_tier, "to": to_tier}
            args.update(extra)
            tr.emit("tier_swap", "runtime",
                    virtual_ns=self.time_model.now_ns,
                    tid=self.obs_tid, args=args)

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------
    def _instantiate_implicit_stdlib(self) -> None:
        widths = {"pad": self.board.pad.width, "led": self.board.leds.width}
        for inst_name, module_name, _ in IMPLICIT_INSTANCES:
            overrides: List[ast.Connection] = []
            if inst_name in widths:
                count = widths[inst_name]
                overrides = [ast.Connection(None, ast.Number(
                    Bits.from_int(count, 32, True), str(count), False))]
            self.root_items.append(ast.Instantiation(
                module_name, inst_name, overrides, []))

    # ------------------------------------------------------------------
    # User input (controller side of the REPL)
    # ------------------------------------------------------------------
    def eval_source(self, text: str, source_name: str = "<eval>") -> None:
        """Eval a chunk of Verilog: module declarations enter the outer
        scope, loose items are appended to the root module (§3.1)."""
        src = parse_source(text, source_name)
        for module in src.modules:
            self.library.declare(module)
        # Declarations alone do not change the running program.
        if src.root_items:
            self._admit(src.root_items)

    def eval_statement(self, text: str) -> None:
        """Eval a single statement: wrapped in an initial process at the
        end of the root module and executed once."""
        stmt = parse_statement_text(text)
        self._admit([ast.InitialBlock(stmt, stmt.loc)])

    def _admit(self, items: List[ast.Item]) -> None:
        """Append items to the root module once the program they make
        builds.  IR construction and elaboration (width annotation
        included) run now, so a semantic error such as an undeclared
        name is raised by the eval that introduced it and nothing is
        admitted; the build is kept for the next rebuild."""
        root_items = self.root_items + list(items)
        program, designs = self._build_program(root_items)
        self.root_items = root_items
        self._prepared = (self._program_key(), program, designs)
        self._invalidate()

    def _program_key(self) -> Tuple:
        # AST items compare by identity; the tuple keeps them alive.
        return tuple(self.root_items), len(self.library.modules)

    def _build_program(self, root_items: List[ast.Item]):
        root = ast.Module("main", [], list(root_items))
        program = build_ir(root, self.library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=self.inline_user_logic)
        designs = {sub.name: elaborate_leaf(sub.module_ast)
                   for sub in program.subprograms.values()
                   if not sub.external}
        return program, designs

    def _invalidate(self) -> None:
        self._needs_rebuild = True

    # ------------------------------------------------------------------
    # Rebuild: program -> IR -> engines (the eval window work)
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        self.generation += 1
        _t_rebuild = _time.perf_counter()
        prepared, self._prepared = self._prepared, None
        if prepared is not None and prepared[0] == self._program_key():
            _, program, designs = prepared
        else:
            program, designs = self._build_program(self.root_items)

        saved_state: Dict[str, Dict[str, object]] = {}
        old_nets: Dict[str, Bits] = {}
        if self.plane is not None:
            old_nets = dict(self.plane.values)
        old_engines = self.engines
        for name, engine in old_engines.items():
            saved_state[name] = engine.get_state()

        engines: Dict[str, Engine] = {}
        for sub in program.subprograms.values():
            if sub.external:
                old = old_engines.get(sub.name)
                if isinstance(old, StdlibEngine) and \
                        old.subprogram.source_module == sub.source_module:
                    old.subprogram = sub
                    engines[sub.name] = old
                else:
                    engines[sub.name] = make_stdlib_engine(sub, self.board)
            else:
                engine = SoftwareEngineAdapter(sub, designs[sub.name])
                state = saved_state.get(sub.name)
                if state:
                    engine.set_state(state)
                engines[sub.name] = engine

        self.program = program
        self.engines = engines
        self.absorbed = set()
        self._engines_cache = None
        self._open_loop_active = False
        self._oloop_limit = _OLOOP_MIN
        self._oloop_exec_cap = _OLOOP_REAL_CAP
        self.plane = DataPlane(program, self.time_model)
        for net, value in old_nets.items():
            if net in self.plane.values:
                self.plane.values[net] = value
        # Nets with no carried-over value take their driver's current
        # output (standard-library engines power up with defined values).
        for sub in program.subprograms.values():
            engine = engines[sub.name]
            for port, (net, direction) in sub.bindings.items():
                if direction == "out" and \
                        self.plane.values[net].has_xz:
                    self.plane.values[net] = engine.read(port)
        # Seed every engine input from current net values.
        for sub in program.subprograms.values():
            engine = engines[sub.name]
            for port, (net, direction) in sub.bindings.items():
                if direction == "in":
                    value = self.plane.values.get(net)
                    if value is not None and not value.has_xz:
                        engine.write(port, value)

        # Drop one-shot initial items: initial processes run once, in
        # the program we just built, and must not re-run on the next
        # rebuild.  Once they have executed we rebuild again so the JIT
        # sees a synthesizable (initial-free) root subprogram.
        before = len(self.root_items)
        self.root_items = [
            item for item in self.root_items
            if not isinstance(item, ast.InitialBlock)]
        self._had_transients = len(self.root_items) != before

        # Restart the JIT for every user subprogram (§4.4: engines move
        # back to software and the process starts anew on modification).
        # The service forgets every job here, delivered or not, so the
        # generation map starts over with it.
        self.compiler.cancel_all()
        self._job_generation.clear()
        # In-flight fast-path compiles target the *previous* generation
        # of the program: cancel what is still queued and drop the rest
        # — the generation guard in _poll_fastpath discards any result
        # that slips through, so a stale model is never swapped in.
        for _gen, future in self._fast_jobs.values():
            self._fast_queue.cancel(future)
        self._fast_jobs.clear()
        self.unsynthesizable = {}
        tr = tracer()
        if self.enable_jit:
            for sub in program.user_subprograms():
                try:
                    job = self.compiler.submit(
                        sub, self.time_model.now_seconds,
                        self.engines[sub.name].design)  # type: ignore
                    self._job_generation[id(job)] = self.generation
                    if tr.enabled:
                        tr.emit("admission", "runtime",
                                virtual_ns=self.time_model.now_ns,
                                tid=self.obs_tid,
                                args={"engine": sub.name,
                                      "tier": "interpreted",
                                      "cache_hit": job.cache_hit,
                                      "ready_at_s": job.ready_at_s})
                except SynthesisError as exc:
                    self.unsynthesizable[sub.name] = str(exc)
                    if tr.enabled:
                        tr.emit("admission", "runtime",
                                virtual_ns=self.time_model.now_ns,
                                tid=self.obs_tid,
                                args={"engine": sub.name,
                                      "tier": "interpreted",
                                      "unsynthesizable": str(exc)})
            if self.enable_sw_fastpath:
                self._submit_fastpath(program)
        if tr.enabled:
            tr.emit("eval", "runtime",
                    dur_us=(_time.perf_counter() - _t_rebuild) * 1e6,
                    virtual_ns=self.time_model.now_ns,
                    tid=self.obs_tid,
                    args={"generation": self.generation,
                          "subprograms": len(program.subprograms),
                          "transients": self._had_transients})
        self._needs_rebuild = False

    def _submit_fastpath(self, program: IRProgram) -> None:
        """Kick off the middle JIT tier: a local, milliseconds-budget
        pycompile of each synthesizable user subprogram, on a dedicated
        pool so it never queues behind synth/place/route."""
        for sub in program.user_subprograms():
            if sub.name in self.unsynthesizable:
                continue
            engine = self.engines[sub.name]
            if not isinstance(engine, SoftwareEngineAdapter):
                continue
            future = self._fast_queue.submit(
                compile_design, engine.design)
            self._fast_jobs[sub.name] = (self.generation, future)

    # ------------------------------------------------------------------
    # The Figure 6 scheduler
    # ------------------------------------------------------------------
    def _active_engines(self) -> Tuple[List[Engine],
                                       List[Tuple[int, Engine, int]],
                                       Optional[Tuple]]:
        # Scheduler hot path: the engine set only changes on rebuild,
        # migration, forwarding or absorption, all of which clear the
        # cache — everything else reuses these lists.
        cache = self._engines_cache
        if cache is None:
            active = [e for name, e in self.engines.items()
                      if name not in self.absorbed]
            # Passive engines never have events or tasks: the phase
            # loop neither polls them nor drains their tasks.
            polled = [(i, e, self._charge_kind(e))
                      for i, e in enumerate(active) if not e.passive]
            self.plane.bind(self.engines, self.absorbed)
            cache = (active, polled, self._fused_plan(active, polled))
            self._engines_cache = cache
        return cache

    def _fused_plan(self, active: List[Engine],
                    polled: List[Tuple[int, Engine, int]]
                    ) -> Optional[Tuple]:
        """The fused kernel's plan for an engine set, bound on the plane:
        (sw-fast engine, clock, clock net, the net's readers, the
        passive standard-library engines), or None unless the set is
        exactly one sw-fast engine with nothing forwarded into it, the
        clock, and passive engines, with the engine the clock's only
        reader.  An ineligible set holding a sw-fast engine is counted
        once and its reason kept for :stats."""
        fast = [e for _, e, kind in polled if kind == _FAST]
        if not fast:
            return None
        clocks = [(i, e) for i, e, _ in polled
                  if isinstance(e, ClockEngine)]
        if len(polled) == 2 and len(fast) == 1 and len(clocks) == 1 \
                and not fast[0].inner:
            (engine,), ((route, clock),) = fast, clocks
            net, readers = self.plane.readers_of(route, "val")
            if len(readers) == 1 and readers[0][0] is engine:
                self.fused_ineligible = None
                passive = [e for e in active
                           if e is not engine and e is not clock]
                return engine, clock, net, readers, passive
            why = "the sw-fast engine is not the clock's only reader"
        else:
            why = "the engine set is not one sw-fast engine, the clock " \
                "and passive engines"
        self._c_fused_handbacks["ineligible"].inc()
        self.fused_ineligible = why
        return None

    @staticmethod
    def _charge_kind(engine: Engine) -> int:
        if engine.location == HARDWARE:
            return _HARDWARE
        if isinstance(engine, FastSoftwareEngine):
            return _FAST
        return _INTERPRETED

    def _drain_tasks(self) -> None:
        for _, engine, _ in self._active_engines()[1]:
            for task in engine.drain_tasks():
                if task.kind == "display":
                    self.interrupts.push_display(task.text, task.newline)
                else:
                    self.interrupts.push_finish(task.code)

    def _phase_loop(self) -> None:
        """Drain evaluation/update events to an observable state.

        Engines only interact through the plane, so polling each engine
        just before running it matches polling them all first; charges
        stay one per call, in engine order."""
        polled = self._active_engines()[1]
        plane = self.plane
        dirty = plane.dirty
        for _ in range(_SETTLE_ROUNDS):
            ran = False
            for i, engine, kind in polled:
                if engine.there_are_evals():
                    self._charge_call(kind)
                    engine.evaluate()
                    dirty[i] = ran = True
            if not ran:
                for i, engine, kind in polled:
                    if engine.there_are_updates():
                        self._charge_call(kind)
                        engine.update()
                        dirty[i] = ran = True
                if not ran:
                    return
            plane.propagate()
            self._drain_tasks()
        raise CascadeError("scheduler did not reach an observable state")

    def _charge_call(self, kind: int) -> None:
        if kind == _HARDWARE:
            self.time_model.charge_mmio()
            self.time_model.charge_hw_ticks(1)
        else:
            # The fast path is charged at software rates (by default the
            # interpreter's own rate — DESIGN.md §4.4) but tallied under
            # its own tier so :stats can show where events ran.
            self.time_model.charge_sw_events(1, fast=kind == _FAST)

    def _service_interrupts(self) -> None:
        while self.interrupts:
            interrupt = self.interrupts.pop()
            if interrupt.kind == Interrupt.DISPLAY:
                text, newline = interrupt.payload
                self.view.display(text, newline)
            elif interrupt.kind == Interrupt.FINISH:
                if self.finished is None:
                    self.finished = interrupt.payload
            elif interrupt.kind == Interrupt.ACTION:
                interrupt.payload()

    def _window(self) -> None:
        """Between time steps: service interrupts, apply evals, poll the
        JIT, advance logical time."""
        self._service_interrupts()
        self.iterations += 1
        self.time_model.charge_runtime()
        logical_time = self.iterations // 2
        for engine in self._active_engines()[0]:
            engine.set_time(logical_time)
            engine.end_step()
        # end_step samples the board and host: any output may move.
        self.plane.mark_all()
        self.plane.propagate()
        self._window_jit()

    def _window_jit(self) -> None:
        """The window's last part: schedule the transients' rebuild and
        poll both JIT tiers."""
        if self._had_transients:
            # The one-shot initial processes have now executed; rebuild
            # without them so the subprogram becomes synthesizable.
            self._had_transients = False
            self._needs_rebuild = True
        if self.enable_jit:
            self._poll_jit()
        if self._fast_jobs:
            # After the phase loop every engine is quiescent, so this
            # window is the safe point for the software-tier hot swap.
            # Polled after _poll_jit so that when a bitstream and a
            # fast-path compile land in the same window the fabric
            # wins and the fast-path job is simply dropped.
            self._poll_fastpath()

    def _iteration(self, fast_forward: bool, batch: int,
                   bound: Optional[Tuple[float, float]],
                   batch_ends: str) -> None:
        """Dispatch one scheduler iteration, or up to ``batch`` of them
        on the fused kernel when it can take the next one (a full batch
        hands back for ``batch_ends``: ``sample`` or ``bound``)."""
        if self._needs_rebuild:
            self._rebuild()
        if self._open_loop_active and not self.interrupts:
            self._run_open_loop(fast_forward)
            return
        plan = self._active_engines()[2]
        if plan is not None and self._fused_ready(plan):
            self._run_fused(plan, batch, bound, batch_ends)
            return
        self._phase_loop()
        self._window()

    def _fused_ready(self, plan: Tuple) -> bool:
        """True when the next iteration's phase loop starts with the
        clock's update alone: the engine is quiescent, the clock's tick
        is queued, no passive engine holds an undelivered output, and
        the window has no interrupt, fast-path job or transient
        rebuild to see to."""
        engine, clock, _, _, passive = plan
        model = engine.model
        return clock._pending and not model._dirty and \
            not model._nba and not self.interrupts and \
            not self._fast_jobs and not self._had_transients and \
            not any(other._changed for other in passive)

    def _run_fused(self, plan: Tuple, batch: int,
                   bound: Optional[Tuple[float, float]],
                   batch_ends: str) -> None:
        """The fused scheduler kernel (DESIGN.md §4.4): up to ``batch``
        iterations of ``_phase_loop`` + ``_window`` for one quiescent
        sw-fast engine, the clock and passive engines.

        Each iteration makes the general loop's charges, through the
        same calls, in its order: the clock's update and its delivery
        to the engine, the one step inlined (``ClockEngine.toggle`` and
        ``plane.deliver``, without ``propagate``'s search for changed
        outputs); the engine's ``evaluate``/``update`` until it is
        quiescent, each followed by ``plane.propagate`` and a task
        drain; then the window.  The window skips the full propagate
        when no engine has an output change, and the JIT poll before
        the earliest undelivered compile is due, because both would
        do nothing.  The batch hands back after the window in which a
        task or interrupt was serviced, an ``end_step`` changed an
        output, or a compile came due, and at ``batch`` iterations or
        the ``bound`` (start seconds, virtual seconds)."""
        engine, clock, net, readers, passive = plan
        model = engine.model
        evaluate, update, toggle = engine.evaluate, engine.update, \
            clock.toggle
        plane = self.plane
        propagate, deliver, dirty = plane.propagate, plane.deliver, \
            plane.dirty
        route = readers[0][3]
        tm = self.time_model
        charge_mmio, charge_hw_ticks, charge_sw_events = \
            tm.charge_mmio, tm.charge_hw_ticks, tm.charge_sw_events
        interrupts = self.interrupts
        steps = [(other.set_time, other.end_step)
                 for other in self._active_engines()[0]]
        ready_s = min((job.ready_at_s for job in self.compiler.jobs
                       if not job.delivered), default=float("inf")) \
            if self.enable_jit else float("inf")
        done = 0
        reason = batch_ends
        tasked = False
        try:
            while True:
                # The clock's update, charged as _charge_call charges
                # it, then its delivery.
                charge_mmio()
                charge_hw_ticks(1)
                deliver(True, net, toggle(), readers)
                # The phase loop's remaining rounds (the clock's was
                # the first): only the engine can have events now.
                for _ in range(_SETTLE_ROUNDS - 1):
                    if model._dirty:
                        charge_sw_events(1, True)
                        evaluate()
                    elif model._nba:
                        charge_sw_events(1, True)
                        update()
                    else:
                        break
                    dirty[route] = True
                    propagate()
                    if engine._tasks:
                        self._drain_tasks()
                        tasked = True
                else:
                    reason = "bound"
                    raise CascadeError(
                        "scheduler did not reach an observable state")
                done += 1
                if interrupts:
                    self._window()
                    reason = "task" if tasked else "interrupt"
                    return
                self.iterations += 1
                tm.charge_runtime()
                logical_time = self.iterations // 2
                for set_time, end_step in steps:
                    set_time(logical_time)
                    end_step()
                for other in passive:
                    if other._changed:
                        # As the general window: a full propagate.
                        plane.mark_all()
                        propagate()
                        self._window_jit()
                        reason = "board"
                        return
                if tm.now_ns / NS_PER_SEC >= ready_s:
                    self._window_jit()
                    reason = "compile"
                    return
                if done >= batch:
                    return
                if bound is not None and \
                        tm.now_ns / NS_PER_SEC - bound[0] >= bound[1]:
                    reason = "bound"
                    return
        finally:
            self._c_fused_iterations.inc(done)
            self._c_fused_handbacks[reason].inc()

    # ------------------------------------------------------------------
    # JIT: engine replacement, forwarding, open loop
    # ------------------------------------------------------------------
    def _poll_fastpath(self) -> None:
        """Install the software fast path for any subprogram whose local
        pycompile has finished.  A failed compile degrades silently back
        to the interpreter — this tier is a pure optimisation and must
        never surface an error the interpreter would not have raised."""
        for name in list(self._fast_jobs):
            gen, future = self._fast_jobs[name]
            if gen != self.generation:
                del self._fast_jobs[name]
                continue
            if not future.done():
                continue
            engine = self.engines.get(name)
            if not isinstance(engine, SoftwareEngineAdapter):
                # Already migrated past this tier (e.g. straight to
                # hardware); the model is no longer wanted.
                del self._fast_jobs[name]
                continue
            if engine.there_are_evals() or engine.there_are_updates():
                # Not quiescent: the handover must not consume or
                # duplicate pending events.  Retry next window.
                continue
            del self._fast_jobs[name]
            try:
                compiled = future.result()
            except Exception as exc:
                self._fastpath_failed(name, "compile", exc)
                continue
            try:
                self._swap_to_fastpath(name, compiled)
            except Exception as exc:
                self._fastpath_failed(name, "swap", exc)

    def _fastpath_failed(self, name: str, stage: str,
                         exc: Exception) -> None:
        """Count a fast-path failure and keep its reason (the engine
        stays interpreted)."""
        self._c_fastpath_failures.inc()
        reason = f"{name} {stage}: {type(exc).__name__}: {exc}"
        self.last_fastpath_failure = reason
        tr = tracer()
        if tr.enabled:
            tr.emit("fastpath_failure", "runtime",
                    virtual_ns=self.time_model.now_ns, tid=self.obs_tid,
                    args={"engine": name, "stage": stage,
                          "error": type(exc).__name__,
                          "message": str(exc)})

    def _swap_to_fastpath(self, name: str, compiled) -> None:
        old = self.engines[name]
        sub = self.program.subprograms[name]
        fast = FastSoftwareEngine(sub, compiled)
        fast.set_state(old.get_state())
        for port, (net, direction) in sub.bindings.items():
            if direction == "in":
                value = self.plane.values.get(net)
                if value is not None and not value.has_xz:
                    fast.write(port, value)
        # The handover settle mirrors _swap_to_hardware, with one extra
        # precaution: combinational logic is settled *before* edge
        # samples are aligned, so a derived signal (e.g. an internal
        # clock wire assigned from an input port) reaches its live value
        # first and the sequential pass cannot re-fire edges the
        # interpreter has already consumed.  The settle's side effects
        # are discarded — virtual time and the $display stream must be
        # exactly what an interpreter-only run would have produced.
        fast.model._eval_comb()
        fast.sync_edge_samples()
        fast.model._dirty = True
        fast.evaluate()
        fast.drain_tasks()
        fast.drain_output_changes()
        self.engines[name] = fast
        self._engines_cache = None
        self._c_sw_migrations.inc()
        self._trace_tier_swap(name, "interpreted", "sw-fast")
        self.view.info(f"[cascade] {name} switched to compiled "
                       f"software fast path")

    def _poll_jit(self) -> None:
        landed = False
        for job in self.compiler.completed(self.time_model.now_seconds):
            if self._job_generation.get(id(job)) != self.generation:
                continue
            if job.compiled is None:
                # §6.4: a program that is correct in simulation can
                # still fail the later phases of JIT compilation; the
                # user must hear about it, not lose it silently.
                error = job.error or "compilation failed"
                self.unsynthesizable[job.subprogram.name] = error
                self.view.info(f"[cascade] compilation of "
                               f"{job.subprogram.name} failed: {error} "
                               f"(staying in software)")
                continue
            self._swap_to_hardware(job)
            landed = True
        if landed:
            # Only a migration can make open loop possible.
            self._maybe_enter_open_loop()

    def _swap_to_hardware(self, job) -> None:
        name = job.subprogram.name
        old = self.engines.get(name)
        if old is None or old.location == HARDWARE:
            return
        sub = self.program.subprograms[name]
        hw = HardwareEngine(sub, job.compiled)
        hw.set_state(old.get_state())
        for port, (net, direction) in sub.bindings.items():
            if direction == "in":
                value = self.plane.values.get(net)
                if value is not None and not value.has_xz:
                    hw.write(port, value)
        # Settle combinational outputs before anyone observes them, so
        # the handover is glitch-free.
        hw.evaluate()
        hw.drain_tasks()
        old_tier = "sw-fast" \
            if isinstance(old, FastSoftwareEngine) else "interpreted"
        self.engines[name] = hw
        self._engines_cache = None
        self._c_hw_migrations.inc()
        self._trace_tier_swap(name, old_tier, "hardware",
                              luts=job.resources["luts"],
                              compile_s=job.duration_s,
                              cache_hit=job.cache_hit)
        self.view.info(f"[cascade] {name} migrated to hardware "
                       f"({job.resources['luts']} LUTs, "
                       f"{job.duration_s:.0f}s compile)")
        if self.enable_forwarding:
            self._try_forwarding(hw, sub)

    def _try_forwarding(self, hw: HardwareEngine,
                        sub: Subprogram) -> None:
        """Absorb standard components whose nets connect only to this
        engine (§4.3)."""
        my_nets = {net for net, _ in sub.bindings.values()}
        for other in self.program.external_subprograms():
            if other.name in self.absorbed:
                continue
            nets = [net for net, _ in other.bindings.values()]
            ok = True
            for net_name in nets:
                net = self.program.nets[net_name]
                parties = set(net.readers) | (
                    {net.driver} if net.driver else set())
                if not parties <= {sub.name, other.name}:
                    ok = False
                    break
            if not ok:
                continue
            inner = self.engines[other.name]
            if isinstance(inner, ClockEngine):
                # The clock is handled by open-loop absorption below.
                continue
            hw.forward(inner)
            self.absorbed.add(other.name)
            self._engines_cache = None
            self.view.info(f"[cascade] {other.name} forwarded into "
                           f"{sub.name}")

    def _maybe_enter_open_loop(self) -> None:
        if not self.enable_open_loop or self._open_loop_active:
            return
        users = self.program.user_subprograms()
        if len(users) != 1:
            return
        sub = users[0]
        hw = self.engines.get(sub.name)
        if not isinstance(hw, HardwareEngine) or \
                hw.location != HARDWARE:
            # The software fast path shares the HardwareEngine model but
            # open loop is a fabric-only optimisation (§4.4).
            return
        # Everything except the clock must be absorbed or unconnected.
        clock_name = None
        for other in self.program.external_subprograms():
            engine = self.engines[other.name]
            if isinstance(engine, ClockEngine):
                clock_name = other.name
                continue
            if other.name in self.absorbed:
                continue
            # An external component with live connections blocks open
            # loop; one with no connected nets is harmless.
            connected = any(
                self.program.nets[net].readers or
                self.program.nets[net].driver != other.name
                for net, _ in other.bindings.values())
            if connected:
                return
        if clock_name is None:
            return
        clock_sub = self.program.subprograms[clock_name]
        clock_net = clock_sub.bindings["val"][0]
        clock_port = None
        for port, (net, direction) in sub.bindings.items():
            if net == clock_net and direction == "in":
                clock_port = port
                break
        if clock_port is None:
            return
        hw.absorb_clock(self.engines[clock_name], clock_port)
        self.absorbed.add(clock_name)
        self._engines_cache = None
        self._open_loop_active = True
        self.view.info(f"[cascade] entering open-loop scheduling "
                       f"(clock={clock_port})")

    def _run_open_loop(self, fast_forward: bool) -> None:
        users = self.program.user_subprograms()
        hw = self.engines[users[0].name]
        assert isinstance(hw, HardwareEngine) and \
            hw.location == HARDWARE
        # Let absorbed peripherals sample the host/board before the
        # batch, so button presses etc. are visible to this batch rather
        # than the next one.
        hw.end_step()
        limit = self._oloop_limit
        execute = min(limit, self._oloop_exec_cap)
        host_start = _time.perf_counter()
        done = hw.open_loop(hw.clock_attr or "", execute)
        host_elapsed = _time.perf_counter() - host_start
        # Adapt the *executed* batch size to host speed so control
        # returns to the runtime regularly (the §4.4 profiling, applied
        # to our simulated fabric).
        if host_elapsed > 1e-4 and done:
            rate = done / host_elapsed
            self._oloop_exec_cap = int(
                min(max(rate * 0.25, _OLOOP_MIN), _OLOOP_REAL_CAP))
        had_tasks = hw.has_tasks
        self._drain_tasks()
        if fast_forward and done == execute and not had_tasks \
                and limit > execute:
            # Steady task-free state: account the rest of the batch
            # analytically without executing it (rate is identical).
            done = limit
        self.time_model.charge_hw_ticks(done)
        self.time_model.charge_mmio(2)  # one request/response round trip
        self.time_model.charge_runtime()
        self.iterations += done
        # Adaptive iteration limit (§4.4): grow while the engine runs
        # full batches without runtime intervention; shrink on tasks.
        if had_tasks:
            self._oloop_limit = max(_OLOOP_MIN, done)
        else:
            target = int(0.5 * self.time_model.fabric_mhz * 1e6)
            self._oloop_limit = min(max(limit * 2, _OLOOP_MIN), target)
        # Service interrupts and let absorbed peripherals see the host.
        self._service_interrupts()
        hw.end_step()
        hw.set_time(self.iterations // 2)
        if self.enable_jit:
            # Nothing is left to migrate in open loop, but completions
            # (and especially failures) must still be drained/surfaced.
            self._poll_jit()

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def run(self, iterations: Optional[int] = None,
            virtual_seconds: Optional[float] = None,
            until_finish: bool = False,
            fast_forward: bool = False,
            sample_every: int = 64) -> None:
        """Dispatch scheduler iterations until a bound is hit.

        ``virtual_seconds`` bounds *additional* virtual time from now;
        ``iterations`` bounds additional scheduler iterations;
        ``until_finish`` stops at $finish.
        """
        if self._needs_rebuild:
            self._rebuild()
        start_s = self.time_model.now_seconds
        start_iter = self.iterations
        _t_host = _time.perf_counter()
        since_sample = 0
        bound = None if virtual_seconds is None \
            else (start_s, virtual_seconds)
        while self.finished is None:
            if iterations is not None and \
                    self.iterations - start_iter >= iterations:
                break
            if virtual_seconds is not None and \
                    self.time_model.now_seconds - start_s \
                    >= virtual_seconds:
                break
            # A fused batch stops at the next sample point or at the
            # iteration bound, whichever comes first.
            batch, batch_ends = max(1, sample_every - since_sample), \
                "sample"
            if iterations is not None and \
                    start_iter + iterations - self.iterations < batch:
                batch, batch_ends = \
                    start_iter + iterations - self.iterations, "bound"
            before = self.iterations
            self._iteration(fast_forward, batch, bound, batch_ends)
            since_sample += self.iterations - before
            if since_sample >= sample_every or self._open_loop_active:
                self.perf.sample(self.time_model.now_seconds,
                                 self.iterations // 2)
                since_sample = 0
            if until_finish and self.finished is not None:
                break
        self.perf.sample(self.time_model.now_seconds,
                         self.iterations // 2)
        tr = tracer()
        if tr.enabled:
            tr.emit("scheduler_slice", "runtime",
                    dur_us=(_time.perf_counter() - _t_host) * 1e6,
                    virtual_ns=self.time_model.now_ns,
                    tid=self.obs_tid,
                    args={"iterations": self.iterations - start_iter,
                          "virtual_advance_s":
                              self.time_model.now_seconds - start_s,
                          "finished": self.finished is not None})
        self.view.flush()

    def run_until_finish(self, max_virtual_seconds: float = 3600.0,
                         fast_forward: bool = False) -> Optional[int]:
        self.run(virtual_seconds=max_virtual_seconds, until_finish=True,
                 fast_forward=fast_forward)
        return self.finished

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def virtual_clock_ticks(self) -> int:
        return self.iterations // 2

    @property
    def output_lines(self) -> List[str]:
        self.view.flush()
        return self.view.lines

    def engine_locations(self) -> Dict[str, str]:
        return {name: engine.location
                for name, engine in self.engines.items()}

    def engine_tiers(self) -> Dict[str, str]:
        """Per-engine JIT tier: ``interpreted`` / ``sw-fast`` /
        ``hardware`` (stdlib components report ``stdlib``)."""
        tiers: Dict[str, str] = {}
        for name, engine in self.engines.items():
            if isinstance(engine, FastSoftwareEngine):
                tiers[name] = "sw-fast"
            elif isinstance(engine, HardwareEngine):
                tiers[name] = "hardware"
            elif isinstance(engine, SoftwareEngineAdapter):
                tiers[name] = "interpreted"
            else:
                tiers[name] = "stdlib"
        return tiers

    def tier_counts(self) -> Dict[str, int]:
        counts = {"interpreted": 0, "sw-fast": 0,
                  "hardware": 0, "stdlib": 0}
        for tier in self.engine_tiers().values():
            counts[tier] += 1
        return counts

    def user_engine_location(self) -> str:
        users = self.program.user_subprograms() if self.program else []
        if not users:
            return SOFTWARE
        return self.engines[users[0].name].location

    def subprogram_source(self, name: str) -> str:
        """The transformed stand-alone Verilog of a subprogram
        (Figure 4), for inspection."""
        from ..verilog.printer import module_to_str
        return module_to_str(self.program.subprograms[name].module_ast)
