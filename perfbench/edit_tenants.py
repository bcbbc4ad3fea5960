"""Workload ``edit_tenants``: two tenants editing through the server.

One load-generator process drives a closed loop of two tenant
connections against a Cascade server running in its own process (so
the generator never holds the server's GIL).  Each tenant session
evaluates the same base program — one cross-tenant dedup — then replays
a seeded compile/test/debug script: small appended edits, each followed
by ``:run K``; ``:time`` checks; and ``$display`` debug statements,
whose one-shot initial block makes the runtime rebuild the previous
program version, a bitstream-cache hit.  When a tenant's script ends it
reconnects and replays it again while the time budget lasts.  Each
tenant's first session, which fills the server's shared caches, is
checked but not timed.

Every session's ``$display`` stream and ``:time`` virtual time must
equal an in-process solo replay of the same script.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import harness
from harness import (Ledger, Outcome, Stopwatch, another_unit, end_to_end,
                     median, percentile, proc_peak_rss_mb)
from layers import tally_snapshot

TENANTS = 2
#: Server session settings.  An eval returns once the edited program
#: has run one scheduler iteration.  The modeled toolchain never
#: delivers a bitstream inside a session (a compile takes minutes of
#: virtual time; a cache hit is charged 600 s of reprogramming), so each
#: tenant's virtual timeline is a pure function of its script, whatever
#: the host did first.
SERVER = {"run_between_inputs": 1,
          "service_kwargs": {"cache_hit_latency_s": 600.0}}
SCRIPT = {"full": {"edits": 40, "run": 100},
          "small": {"edits": 6, "run": 40}}
BASE = """reg [15:0] cnt = 0;
reg [7:0] lfsr = 8'h5a;
always @(posedge clk.val) begin
  cnt <= cnt + 1;
  lfsr <= {lfsr[6:0], lfsr[7] ^ lfsr[5] ^ lfsr[4] ^ lfsr[3]};
end
always @(posedge clk.val)
  if (cnt[5:0] == 0) $display("tick %0d lfsr %0d", cnt, lfsr);
assign led.val = lfsr;
"""
_TIME_RE = re.compile(r"virtual time ([0-9.]+)s, (\d+) clock ticks")


def script_for(seed: int, tenant: int, size: str) -> List[Tuple[str, str]]:
    """A tenant's compile/test/debug session as (kind, text) steps.

    The mix is fixed — 55% appended registers, 25% debug statements,
    20% ``:time`` checks — so every seed does the same amount of work;
    the seed draws the order, each register's update rule and initial
    value, and which register each debug statement prints."""
    rng = random.Random(seed * 1009 + tenant)
    k = SCRIPT[size]["run"]
    edits = SCRIPT[size]["edits"]
    regs_n, debug_n = round(0.55 * edits), round(0.25 * edits)
    rest = ["reg"] * (regs_n - 1) + ["debug"] * debug_n \
        + ["time"] * (edits - regs_n - debug_n)
    rng.shuffle(rest)
    kinds = ["reg"] + rest      # a debug statement needs a register
    steps: List[Tuple[str, str]] = [("eval", BASE), ("run", f":run {k}")]
    regs: List[str] = []
    for kind in kinds:
        if kind == "reg":
            name = f"r{len(regs)}"
            src = rng.choice(["lfsr", "cnt[7:0]"] + regs)
            op = rng.choice(["+", "^", "-"])
            steps.append(("eval", f"reg [7:0] {name} = "
                                  f"{rng.randrange(256)};\n"
                                  f"always @(posedge clk.val) "
                                  f"{name} <= {name} {op} {src};"))
            regs.append(name)
        elif kind == "debug":
            reg = rng.choice(regs)
            steps.append(("eval", f'$display("{reg}=%0d", {reg});'))
        else:
            steps.append(("cmd", ":time"))
        steps.append(("run", f":run {k}"))
    steps.append(("cmd", ":time"))
    return steps


class Transcript:
    """What a session showed its tenant: display lines, ``:time``
    figures, and the requests that reported an error."""

    def __init__(self):
        self.display: List[str] = []
        self.times: List[Tuple[str, str]] = []
        self.errors: List[str] = []
        self.requests = 0

    def note_time(self, text: str) -> None:
        match = _TIME_RE.search(text)
        self.times.append(match.groups() if match else ("?", text))


def solo_replay(script: List[Tuple[str, str]]) -> Transcript:
    """The reference: the script on an in-process Repl, alone."""
    from repro.backend.compiler import CompileService
    from repro.core.repl import Repl
    from repro.core.runtime import Runtime

    service = CompileService(isolate_virtual_time=True,
                             **SERVER["service_kwargs"])
    repl = Repl(Runtime(compile_service=service),
                run_between_inputs=SERVER["run_between_inputs"])
    out = Transcript()
    for kind, text in script:
        if kind == "eval":
            out.errors += repl.feed(text)
        else:
            reply = repl.command(text)
            if text == ":time":
                out.note_time(reply)
        out.requests += 1
        out.display += repl.drain_output()
    return out


class ServerProcess:
    """The server subprocess: started, timed to ready, stopped."""

    def __init__(self, spans: Optional[str] = None):
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "tenant_server.py"),
               "--config", json.dumps(SERVER)]
        if spans:
            cmd += ["--spans", spans]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("ready "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.start_s = time.perf_counter() - t0
        self.address = ("127.0.0.1", int(line.split()[1]))

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Tenant(threading.Thread):
    """One tenant: replays its script in back-to-back sessions."""

    def __init__(self, address, script, seconds: float,
                 metrics: Optional[Dict[str, float]]):
        super().__init__(daemon=True)
        self.address = address
        self.script = script
        self.seconds = seconds
        self.metrics = metrics
        self.eval_s: List[float] = []
        self.run_s: List[float] = []
        self.sessions: List[Transcript] = []
        self.replay_s: List[float] = []
        self.error: Optional[str] = None

    def run(self) -> None:
        try:
            watch = Stopwatch()
            # The first session fills the server's shared caches: it is
            # checked but not timed, so every timed session is alike.
            self._session(timed=False)
            while another_unit(watch, self.seconds, self.replay_s):
                self._session(timed=True)
        except Exception as exc:  # reported as a failed operation
            self.error = f"{type(exc).__name__}: {exc}"

    def _session(self, timed: bool) -> None:
        from repro.client import connect

        t0 = time.perf_counter()
        with connect(self.address) as session:
            self.sessions.append(self._replay(session, timed))
            if self.metrics is not None:
                tally_snapshot(self.metrics, session.metrics(timeout=60))
        if timed:
            self.replay_s.append(time.perf_counter() - t0)

    def _replay(self, session, timed: bool) -> Transcript:
        out = Transcript()
        for kind, text in self.script:
            t0 = time.perf_counter()
            if kind == "eval":
                out.errors += session.eval(text, timeout=120)
                if timed:
                    self.eval_s.append(time.perf_counter() - t0)
            else:
                reply = session.command(text, timeout=120)
                if kind == "run":
                    if timed:
                        self.run_s.append(time.perf_counter() - t0)
                    if not reply.startswith("ran "):
                        out.errors.append(reply)
                else:
                    out.note_time(reply)
            out.requests += 1
            out.display += session.drain_output()
        return out


def closed_loop(address, scripts, seconds: float,
                metrics: Optional[Dict[str, float]] = None):
    tenants = [Tenant(address, script, seconds, metrics)
               for script in scripts]
    t0 = time.perf_counter()
    for tenant in tenants:
        tenant.start()
    for tenant in tenants:
        tenant.join(timeout=170)
    return tenants, time.perf_counter() - t0


def check(tenants, references, ledger: Ledger, corrupt: bool) -> None:
    """Every request is an operation.  A session whose output differs
    from the solo replay fails its last request (where the difference
    shows); a request that reported an error fails itself."""
    for index, (tenant, ref) in enumerate(zip(tenants, references)):
        ledger.check(tenant.error is None and not tenant.is_alive(),
                     f"tenant {index}: {tenant.error or 'still running'}")
        for number, seen in enumerate(tenant.sessions):
            display = list(seen.display)
            if corrupt and display:
                display[-1] += "!"
            where = f"tenant {index} session {number}"
            for error in seen.errors + ref.errors:
                ledger.check(False, f"{where}: request error {error}")
            ledger.passed(max(seen.requests - len(seen.errors) - 1, 0))
            ledger.check(display == ref.display and seen.times == ref.times,
                         f"{where}: differs from the solo replay: "
                         f"{len(display)} vs {len(ref.display)} display "
                         f"lines, :time {seen.times[-1:]} vs "
                         f"{ref.times[-1:]}")


def setup(seed: int, size: str):
    """Server start (a fresh interpreter: imports included) plus script
    generation, the latter timed in this process."""
    server = ServerProcess()
    t0 = time.perf_counter()
    scripts = [script_for(seed, t, size) for t in range(TENANTS)]
    return server.start_s + time.perf_counter() - t0, server, scripts


def run(seed: int, seconds: float, trace: bool, size: str = "full",
        corrupt: bool = False) -> Outcome:
    setups = []
    server = None
    try:
        for _ in range(3):
            if server is not None:
                server.stop()
            setup_s, server, scripts = setup(seed, size)
            setups.append(setup_s)
        ledger = Ledger()
        references = [solo_replay(script) for script in scripts]
        untraced_replay = None
        tally: Dict[str, float] = {}
        spans_path = None
        if trace:
            # An untraced server first (warm-up and one timed session
            # per tenant) for the overhead; then the measured loop
            # against a traced server.
            tenants, _ = closed_loop(server.address, scripts, 0.0)
            check(tenants, references, ledger, corrupt)
            untraced_replay = median([s for t in tenants
                                      for s in t.replay_s])
            server.stop()
            spans_path = os.path.join(harness.OUT_DIR,
                                      f"edit_tenants-seed{seed}.spans.json")
            server = ServerProcess(spans=spans_path)
        tenants, wall = closed_loop(server.address, scripts, seconds,
                                    tally if trace else None)
        peak = server.peak_rss_mb()
        server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()
    check(tenants, references, ledger, corrupt)
    evals = [s for t in tenants for s in t.eval_s]
    runs = [s for t in tenants for s in t.run_s]
    requests = sum(s.requests for t in tenants for s in t.sessions)
    # Every ``:run`` steps the same K iterations: K / 2 clock ticks.
    outcome = Outcome(ledger, end_to_end(
        setups, peak, median(evals),
        SCRIPT[size]["run"] / 2 / median(runs),
        [s for t in tenants for s in t.replay_s]))
    outcome.extra = {"evals": len(evals), "runs": len(runs),
                     "sessions": [len(t.sessions) for t in tenants],
                     "eval_p50_s": median(evals),
                     "eval_p90_s": percentile(evals, 90),
                     "run_p50_s": median(runs),
                     "ops_per_s": requests / wall}
    if trace:
        from spans import Recorder
        recorder = Recorder()
        recorder.merge(harness.read_json(spans_path))
        traced_replay = median([s for t in tenants for s in t.replay_s])
        outcome.trace(recorder, tally, 100.0 * (traced_replay
                                                - untraced_replay)
                      / untraced_replay)
    return outcome
