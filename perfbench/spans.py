"""Per-layer spans, recorded from the benchmark's own files.

The traced run wraps the program's public entry points — parse,
elaborate, IR build, codegen, synth, the flow, resource estimation, the
data plane, engine ``evaluate``/``update``, the scheduler and the
server's turn loop — without editing ``src/``.  Each wrapper times its
call and charges its duration to the enclosing span on the same thread,
so every layer's *self* time (its duration minus the part covered by
child spans) is known when the span closes.  Totals are kept per layer;
a bounded sample of raw spans is written out at the end in the
program's own Chrome trace format (:class:`repro.obs.Tracer`).

Place, route and timing run in flow-lane worker *processes*, out of
reach of wrappers installed here; their host seconds come from the
``FlowReport.phase_seconds`` the program measures inside the worker,
and their counts from the ``Placement``/``RoutingResult`` fields, read
by the wrapper around ``run_flow``.  They are charged as children of
that call.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

_now = time.perf_counter


class Recorder:
    """Span totals per layer plus a bounded raw-span sample."""

    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.epoch = _now()
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: free-form counters (cells synthesized, moves tried, ...)
        self.counts: Dict[str, float] = {}
        self.raw: List[Tuple[str, str, float, float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, start: float, dur: float,
               self_s: float, tid: str) -> None:
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += self_s
            if len(self.raw) < self.keep:
                self.raw.append((name, tid, start, dur, self_s))

    def wrap(self, name: str, fn: Callable,
             after: Callable = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(result, args)`` runs
        inside the span (to charge children measured elsewhere)."""
        recorder = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = recorder._stack()
            frame = [0.0]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                dur = _now() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                recorder._close(name, start, dur, dur - frame[0],
                                threading.current_thread().name)

        return spanned

    def child(self, name: str, seconds: float, tid: str) -> None:
        """Charge work that ran in another process to the open span."""
        stack = self._stack()
        if stack:
            stack[-1][0] += seconds
        self._close(name, _now() - seconds, seconds, seconds, tid)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- reading --------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def snapshot(self) -> dict:
        with self._lock:
            return {"totals": {k: list(v) for k, v in self.totals.items()},
                    "counts": dict(self.counts)}

    def merge(self, snap: dict) -> None:
        """Fold in a snapshot taken in another process."""
        with self._lock:
            for name, (calls, total, own) in snap["totals"].items():
                entry = self.totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for name, value in snap["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + value
            for name, tid, start, dur, own in snap.get("raw", ()):
                if len(self.raw) < self.keep:
                    self.raw.append((name, tid, self.epoch + start, dur,
                                     own))

    def write_chrome(self, path: str) -> int:
        """The raw-span sample as a Chrome ``trace_event`` file."""
        from repro.obs import Tracer
        out = Tracer(max_events=len(self.raw) + 1)
        out.enable()
        for name, tid, start, dur, own in self.raw:
            out.emit(name, name.split(".")[0], dur_us=dur * 1e6,
                     ts_us=(start - self.epoch) * 1e6, tid=tid,
                     args={"self_us": round(own * 1e6, 3)})
        return out.to_chrome(path)


# ----------------------------------------------------------------------
# The wrappers
# ----------------------------------------------------------------------
def _patch_function(module_name: str, attr: str, make: Callable,
                    undo: list) -> None:
    """Replace a function at its definition and at every ``repro``
    module that imported it by name."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)
            undo.append((module, attr, original))


def _patch_method(cls: type, attr: str, make: Callable,
                  undo: list) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, make(original))
    undo.append((cls, attr, original))


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _tier_of(runtime) -> Tuple[str, object]:
    """The user engine's tier and the engine itself."""
    program = runtime.program
    users = program.user_subprograms() if program else []
    if not users:
        return "interpreted", None
    engine = runtime.engines.get(users[0].name)
    return runtime.engine_tiers().get(users[0].name, "interpreted"), \
        engine


def install(rec: Recorder, server: bool = False) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that undoes it."""
    # Every module that binds a wrapped function by name must be loaded
    # before _patch_function looks for those bindings.
    import repro.backend.compiler as compiler
    import repro.backend.estimate  # noqa: F401
    import repro.backend.flow  # noqa: F401
    import repro.backend.hardware as hardware
    import repro.backend.pycompile  # noqa: F401
    import repro.backend.synth  # noqa: F401
    import repro.core.engines as core_engines
    import repro.core.plane as plane
    import repro.core.runtime as runtime_mod
    import repro.ir.build  # noqa: F401
    import repro.stdlib.engines as stdlib_engines
    import repro.verilog.elaborate  # noqa: F401
    import repro.verilog.parser  # noqa: F401

    undo: list = []

    def span(name, after=None):
        return lambda fn: rec.wrap(name, fn, after)

    for module, attr, name in (
            ("repro.verilog.parser", "parse_source", "verilog.parse"),
            ("repro.verilog.parser", "parse_statement_text",
             "verilog.parse"),
            ("repro.verilog.elaborate", "elaborate_leaf",
             "verilog.elaborate"),
            ("repro.ir.build", "build_ir", "ir.build"),
            ("repro.backend.pycompile", "compile_design",
             "backend.pycompile"),
            ("repro.backend.estimate", "estimate_resources",
             "backend.estimate")):
        _patch_function(module, attr, span(name), undo)

    def synth_counts(netlist, _args):
        rec.count("backend.synth.cells",
                  netlist.count("LUT") + netlist.count("FF"))

    _patch_function("repro.backend.synth", "synthesize",
                    span("backend.synth", synth_counts), undo)

    def flow_phases(report, _args):
        phases = report.phase_seconds
        for phase in ("place", "route", "timing"):
            rec.child("backend." + phase, phases.get(phase + "_s", 0.0),
                      "flow-lane")
        rec.count("backend.place.moves_tried",
                  report.placement.moves_tried)
        rec.count("backend.place.moves_accepted",
                  report.placement.moves_accepted)
        rec.count("backend.route.iterations", report.routing.iterations)
        rec.count("backend.route.wirelength", report.routing.wirelength)
        rec.count("backend.route.overflow",
                  report.routing.overflow_segments)

    _patch_function("repro.backend.flow", "run_flow",
                    span("backend.flow", flow_phases), undo)

    _patch_method(plane.DataPlane, "propagate",
                  span("core.plane.propagate"), undo)
    for meth in ("evaluate", "update"):
        _patch_method(core_engines.SoftwareEngineAdapter, meth,
                      span("interp.eval"), undo)
        _patch_method(hardware.HardwareEngine, meth,
                      span("backend.hardware.eval"), undo)
        for cls in _subclasses(stdlib_engines.StdlibEngine):
            if meth in cls.__dict__:
                _patch_method(cls, meth, span("stdlib.engine"), undo)
    _patch_method(hardware.HardwareEngine, "open_loop",
                  span("backend.hardware.open_loop"), undo)
    _patch_method(compiler.CompileService, "submit",
                  span("backend.compiler.submit"), undo)
    _patch_method(compiler.CompileJob, "_resolve",
                  span("backend.compiler.wait"), undo)
    _patch_method(runtime_mod.Runtime, "_rebuild",
                  span("core.runtime.rebuild"), undo)

    def make_run(fn):
        spanned = rec.wrap("core.runtime.run", fn)

        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            # Per-tier iteration cost, from calls that dispatch
            # iterations only (no rebuild inside the call).
            clean = not self._needs_rebuild
            _, engine = _tier_of(self)
            it0 = self.iterations
            ol0 = getattr(engine, "open_loop_ticks", 0)
            start = _now()
            try:
                return spanned(self, *args, **kwargs)
            finally:
                dur = _now() - start
                tier, engine_after = _tier_of(self)
                if clean and engine_after is engine:
                    stepped = getattr(engine, "open_loop_ticks", 0) - ol0
                    if not stepped:
                        stepped = self.iterations - it0
                    if stepped:
                        rec.count(f"iter.{tier}.n", stepped)
                        rec.count(f"iter.{tier}.s", dur)
        return run

    _patch_method(runtime_mod.Runtime, "run", make_run, undo)

    if server:
        _install_server(rec, undo)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _install_server(rec: Recorder, undo: list) -> None:
    """Turn time and inbox wait inside the server process."""
    import repro.server.scheduler as scheduler
    import repro.server.session as session

    _patch_method(scheduler.SessionScheduler, "_turn",
                  lambda fn: rec.wrap("server.turn", fn), undo)
    stamps: Dict[int, list] = {}

    def make_enqueue(fn):
        @functools.wraps(fn)
        def enqueue(self, kind, request_id, payload):
            stamps.setdefault(id(self), []).append(_now())
            return fn(self, kind, request_id, payload)
        return enqueue

    def make_next(fn):
        @functools.wraps(fn)
        def next_work(self):
            item = fn(self)
            if item is not None:
                queued = stamps.get(id(self))
                if queued:
                    rec.count("server.wait_s", _now() - queued.pop(0))
            return item
        return next_work

    _patch_method(session.Session, "enqueue", make_enqueue, undo)
    _patch_method(session.Session, "next_work", make_next, undo)
