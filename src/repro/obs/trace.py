"""Structured trace events for the JIT pipeline (DESIGN.md §4.7).

A :class:`Tracer` records what the runtime normally only *does*: eval
windows, engine admissions, tier swaps (interp → sw-fast → fabric),
per-phase compile work (synth/place/route/timing host durations from
the flow-lane workers), cache hits/misses/single-flight joins and
scheduler slices.  Every event carries **two clocks**:

* ``ts_us`` — host microseconds since the trace epoch (when the tracer
  was created/cleared), measured with ``time.perf_counter``;
* ``virtual_ns`` — the emitting runtime's virtual clock, when one
  exists (compile-phase events are anchored at the job's virtual
  submission time; pure host-side events carry ``None``).

Events export two ways: JSONL (one event object per line — the format
the CI schema check validates) and the Chrome ``trace_event`` JSON
that ``about://tracing`` / Perfetto load directly, with string tids
mapped to numbered threads via ``thread_name`` metadata.

The tracing-off invariance guarantee: a disabled tracer's ``emit`` is
a single attribute check and emit *call sites* are additionally gated
on ``tracer.enabled`` before they build argument dicts, so tracing
state can never perturb virtual-time figures — only host wall-clock,
and that by well under a percent.  ``tests/test_obs.py`` pins both.

The process-wide tracer (:func:`tracer`) starts disabled unless the
``CASCADE_TRACE`` environment variable is set; when its value looks
like a path, the buffer is dumped there at interpreter exit
(``.json`` → Chrome format, anything else → JSONL).
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

__all__ = ["TraceEvent", "Tracer", "tracer", "validate_jsonl",
           "REQUIRED_EVENT_KINDS"]

#: The event kinds a fully exercised JIT session produces (the
#: acceptance set the traced smoke session is validated against).
REQUIRED_EVENT_KINDS = ("eval", "admission", "tier_swap",
                        "compile_phase", "cache_hit", "scheduler_slice")

#: Phase letters we emit: ``i`` = instant, ``X`` = complete (duration).
_PHASES = ("i", "X")


class TraceEvent:
    """One trace record (see the JSONL schema in DESIGN.md §4.7)."""

    __slots__ = ("name", "cat", "ph", "ts_us", "dur_us", "virtual_ns",
                 "tid", "args")

    def __init__(self, name: str, cat: str, ph: str, ts_us: float,
                 dur_us: Optional[float], virtual_ns: Optional[float],
                 tid: str, args: Dict[str, object]):
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts_us = ts_us
        self.dur_us = dur_us
        self.virtual_ns = virtual_ns
        self.tid = tid
        self.args = args

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name, "cat": self.cat, "ph": self.ph,
            "ts_us": round(self.ts_us, 3), "tid": self.tid,
            "virtual_ns": self.virtual_ns, "args": self.args,
        }
        if self.dur_us is not None:
            out["dur_us"] = round(self.dur_us, 3)
        return out

    def __repr__(self) -> str:
        return (f"TraceEvent({self.name}, cat={self.cat}, "
                f"ts={self.ts_us:.1f}us)")


class Tracer:
    """A bounded, thread-safe buffer of :class:`TraceEvent`.

    ``enabled`` is a plain attribute read; hot call sites check it
    before building event arguments, so a disabled tracer costs one
    attribute load per potential event.
    """

    def __init__(self, max_events: int = 200_000):
        self.enabled = False
        self.max_events = max_events
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        self.dropped = 0
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    # -- control -------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop buffered events and restart the host epoch."""
        with self._lock:
            self._events.clear()
            self.dropped = 0
            self._epoch = time.perf_counter()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- emission ------------------------------------------------------
    def now_us(self) -> float:
        """Host microseconds since the trace epoch."""
        return (time.perf_counter() - self._epoch) * 1e6

    def emit(self, name: str, cat: str, ph: str = "i",
             virtual_ns: Optional[float] = None,
             dur_us: Optional[float] = None,
             tid: str = "main",
             args: Optional[Dict[str, object]] = None,
             ts_us: Optional[float] = None) -> None:
        """Record one event (no-op while disabled).

        Duration events (``dur_us`` given) follow the Chrome
        convention: ``ts_us`` is the *start*; when not supplied it is
        derived as now minus the duration.
        """
        if not self.enabled:
            return
        if dur_us is not None:
            ph = "X"
        if ts_us is None:
            ts_us = self.now_us() - (dur_us or 0.0)
        event = TraceEvent(name, cat, ph, ts_us, dur_us, virtual_ns,
                           tid, args or {})
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(event)

    # -- reading / export ----------------------------------------------
    def events(self) -> List[TraceEvent]:
        with self._lock:
            return list(self._events)

    def event_dicts(self, limit: Optional[int] = None
                    ) -> List[Dict[str, object]]:
        events = self.events()
        if limit is not None and limit >= 0:
            events = events[-limit:]
        return [e.to_dict() for e in events]

    def kinds(self) -> Set[str]:
        return {e.name for e in self.events()}

    def to_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns the event count."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as f:
            for event in events:
                f.write(json.dumps(event.to_dict(),
                                   separators=(",", ":")) + "\n")
        return len(events)

    def chrome_events(self) -> List[Dict[str, object]]:
        """The buffer in Chrome ``trace_event`` form.

        String tids become numbered threads with ``thread_name``
        metadata records, ``virtual_ns`` rides in ``args`` — the file
        loads directly in ``about://tracing`` / Perfetto.
        """
        tids: Dict[str, int] = {}
        out: List[Dict[str, object]] = []
        for event in self.events():
            tid = tids.setdefault(event.tid, len(tids) + 1)
            args = dict(event.args)
            if event.virtual_ns is not None:
                args["virtual_s"] = event.virtual_ns / 1e9
            record: Dict[str, object] = {
                "name": event.name, "cat": event.cat, "ph": event.ph,
                "ts": round(event.ts_us, 3), "pid": 1, "tid": tid,
                "args": args,
            }
            if event.ph == "X":
                record["dur"] = round(event.dur_us or 0.0, 3)
            elif event.ph == "i":
                record["s"] = "t"
            out.append(record)
        meta = [{"name": "thread_name", "ph": "M", "pid": 1,
                 "tid": number, "args": {"name": name}}
                for name, number in sorted(tids.items(),
                                           key=lambda kv: kv[1])]
        return meta + out

    def to_chrome(self, path: str) -> int:
        events = self.chrome_events()
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, f)
        return len(events)

    def dump(self, path: str) -> int:
        """Export by extension: ``.json`` → Chrome, else JSONL."""
        if path.endswith(".json"):
            return self.to_chrome(path)
        return self.to_jsonl(path)


# ----------------------------------------------------------------------
# Schema validation (the CI smoke job and tests run this).
# ----------------------------------------------------------------------
def _validate_event(obj: object, where: str) -> str:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: event is not a JSON object")
    for key, types in (("name", str), ("cat", str), ("ph", str),
                       ("ts_us", (int, float)), ("tid", str),
                       ("args", dict)):
        if key not in obj:
            raise ValueError(f"{where}: missing {key!r}")
        if not isinstance(obj[key], types):  # type: ignore[arg-type]
            raise ValueError(f"{where}: {key!r} has type "
                             f"{type(obj[key]).__name__}")
    if obj["ph"] not in _PHASES:
        raise ValueError(f"{where}: unknown phase {obj['ph']!r}")
    if obj["ph"] == "X":
        if not isinstance(obj.get("dur_us"), (int, float)):
            raise ValueError(f"{where}: duration event without dur_us")
    virtual = obj.get("virtual_ns")
    if virtual is not None and not isinstance(virtual, (int, float)):
        raise ValueError(f"{where}: virtual_ns has type "
                         f"{type(virtual).__name__}")
    return obj["name"]


def validate_jsonl(path: str) -> Tuple[int, Set[str]]:
    """Validate a JSONL trace file against the event schema.

    Returns ``(event_count, kinds)``; raises ``ValueError`` on the
    first malformed line.
    """
    count = 0
    kinds: Set[str] = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not JSON: {exc}") from exc
            kinds.add(_validate_event(obj, f"{path}:{lineno}"))
            count += 1
    return count, kinds


# ----------------------------------------------------------------------
# The process-wide tracer + CASCADE_TRACE wiring.
# ----------------------------------------------------------------------
_GLOBAL = Tracer()


def tracer() -> Tracer:
    """The process-wide tracer every subsystem emits into."""
    return _GLOBAL


def _init_from_env() -> None:
    value = os.environ.get("CASCADE_TRACE")
    if not value:
        return
    _GLOBAL.enable()
    if value.lower() in ("1", "on", "true", "yes"):
        return
    # The value is a dump path: flush the buffer at interpreter exit.
    atexit.register(_dump_on_exit, value)


def _dump_on_exit(path: str) -> None:
    try:
        _GLOBAL.dump(path)
    except OSError:
        pass  # a failing trace dump must never break shutdown


_init_from_env()
