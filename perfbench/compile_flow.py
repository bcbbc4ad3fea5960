"""Workload ``compile_flow``: gate-level designs through the real flow.

A pass gives every design of the set a fresh ``CompileService``
(``full_flow_max_luts`` high enough for the whole set, fresh caches,
the process-wide flow lane kept warm) and submits it the way a user
does — eval into a ``Runtime`` and run one iteration.  Three stages:

* cold — the first compile of the design;
* edit — new initial values, same netlist shape: the warm-start
  placement path.  Only designs whose cold compile closed get one; a
  failed flow stores no placement, so an edit would be a second cold
  compile;
* resubmit — the edited (or, for a failed design, the cold) source
  again: a bitstream-cache hit.

The set is three register banks (16, 28 and 40 registers; the seed
draws their initial values and edits), which close timing at 50 MHz,
and the ≥4k-cell ``study.corpus.flow_variant`` of corpus design 12,
which deterministically fails routing.  Each bank's gate netlist is
checked against the interpreter with ``Netlist.step`` for a few cycles.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import Dict, List, Optional, Tuple

from harness import (Ledger, Outcome, Stopwatch, another_unit,
                     end_to_end, geomean, import_probe_s, median,
                     peak_rss_mb)
from layers import tally_registry

BANK_SIZES = {"full": (16, 28, 40), "small": (6,)}
CORPUS_DESIGN = 12
FULL_FLOW_MAX_LUTS = 10_000
#: Annealing starts per cold placement.  The service's default follows
#: the core count; fixed here, every host places (and times) the same.
PLACE_STARTS = 2
CHECK_CYCLES = 8
#: After its compile resolves, each submission steps STEP_CHUNKS timed
#: chunks of STEP scheduler iterations on the interpreter.
STEP = {"full": 16, "small": 4}
STEP_CHUNKS = 8
IMPORTS = ("repro.core.runtime", "repro.backend.compiler",
           "repro.backend.flow", "repro.study.corpus")


def _bank(inits: List[int], clock: str) -> str:
    n = len(inits)
    lines = [f"reg [7:0] c{i} = {v};" for i, v in enumerate(inits)]
    lines += [f"always @(posedge {clock}) "
              f"c{i} <= c{i} ^ (c{(i + 1) % n} >> 1);" for i in range(n)]
    return "\n".join(lines)


def bank_items(inits: List[int]) -> str:
    """A register bank as REPL root items, on the global clock."""
    return _bank(inits, "clk.val") + "\nassign led.val = c0 ^ c1;"


def bank_module(inits: List[int]) -> str:
    """The same bank as a leaf module, for the netlist check."""
    return ("module Bank(input wire clk, output wire [7:0] out);\n"
            + _bank(inits, "clk") + "\nassign out = c0 ^ c1;\nendmodule\n")


def corpus_items() -> str:
    from repro.study.corpus import flow_variant, generate_corpus

    solution = generate_corpus()[CORPUS_DESIGN]
    name = f"NW_flow_{solution.student_id}"
    return (flow_variant(solution) + f"""
wire [7:0] nw_score;
wire [7:0] nw_dbg;
wire nw_done;
{name} nw(.clk(clk.val), .start(1'b1), .score(nw_score),
          .dbg(nw_dbg), .done(nw_done));
assign led.val = nw_score;
""")


class Design:
    """One member of the set: its source versions (cold, then edited)
    and, for a bank, each version's initial values."""

    def __init__(self, name: str, versions: List[str],
                 inits: Optional[List[List[int]]] = None):
        self.name = name
        self.versions = versions
        self.inits = inits


class Inputs:
    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        self.size = size
        self.designs: List[Design] = []
        for n in BANK_SIZES[size]:
            inits = [[rng.randrange(256) for _ in range(n)]
                     for _ in range(2)]
            self.designs.append(Design(
                f"bank{n}", [bank_items(v) for v in inits], inits))
        if size == "full":
            self.designs.append(Design(
                f"corpus{CORPUS_DESIGN}", [corpus_items()]))


class Compile:
    """One submission: time to running code, the job's result, then the
    design stepping on the interpreter (the tier it runs on until the
    modeled toolchain delivers, minutes of virtual time later)."""

    def __init__(self, service, design: str, source: str, step: int):
        from repro.core.runtime import Runtime

        self.design = design
        rt = Runtime(compile_service=service, enable_sw_fastpath=False)
        # The previous compile's garbage is collected before timing,
        # so no collection of it lands inside this submission's figures.
        gc.collect()
        t0 = time.perf_counter()
        rt.eval_source(source)
        submit = time.perf_counter()
        rt.run(iterations=1)
        self.time_to_run_s = time.perf_counter() - t0
        self.job = service.jobs[-1]
        self.error = self.job.error          # waits for the worker
        self.wall_s = time.perf_counter() - submit
        self.resources = self.job.resources
        gc.collect()
        self.rates = []
        for _ in range(STEP_CHUNKS):
            ticks = rt.virtual_clock_ticks
            t1 = time.perf_counter()
            rt.run(iterations=step)
            self.rates.append((rt.virtual_clock_ticks - ticks)
                              / (time.perf_counter() - t1))


def check_netlist(inits: List[int], ledger: Ledger, corrupt: bool,
                  where: str) -> None:
    """Gate netlist vs the interpreter, register by register."""
    from repro.backend.synth import synthesize
    from repro.interp.sim import Simulator
    from repro.verilog.elaborate import elaborate_leaf
    from repro.verilog.parser import parse_module

    source = bank_module(inits)
    netlist = synthesize(elaborate_leaf(parse_module(source)))
    sim = Simulator.from_source(source, top="Bank")
    sim.poke("clk", 0)   # a defined level first: x -> 1 is no edge here
    state = {f"c{i}.q[{b}]": (v >> b) & 1
             for i, v in enumerate(inits) for b in range(8)}
    agree = True
    for _ in range(CHECK_CYCLES):
        state, _ = netlist.step({}, state)
        sim.step_clock("clk")
        for i in range(len(inits)):
            gate = sum(state[f"c{i}.q[{b}]"] << b for b in range(8))
            if corrupt and i == 0:
                gate ^= 1
            agree = agree and gate == sim.peek_int(f"c{i}")
    ledger.check(agree, f"{where}: gate netlist and interpreter disagree")


class Pass:
    """Cold, edit and resubmit over the whole set, fresh caches."""

    def __init__(self, inputs: Inputs, ledger: Ledger, corrupt: bool,
                 tally: Optional[Dict[str, float]] = None,
                 only_banks: bool = False):
        from repro.backend.compiler import CompileService

        self.step = STEP[inputs.size]
        self.stage_s = {"cold": 0.0, "edit": 0.0, "resubmit": 0.0}
        self.fmax: List[float] = []
        self.submissions: List[Compile] = []
        #: design name -> compile seconds of all its stages
        self.design_s: Dict[str, float] = {}
        #: netlist checks, run once timing (and tracing) is over
        self.banks: List[Tuple[List[int], str]] = []
        for design in inputs.designs:
            if only_banks and design.inits is None:
                continue
            service = CompileService(full_flow_max_luts=FULL_FLOW_MAX_LUTS,
                                     place_starts=PLACE_STARTS)
            before = sum(self.stage_s.values())
            self._design(service, design, ledger, corrupt)
            self.design_s[design.name] = sum(self.stage_s.values()) - before
            if tally is not None:
                tally_registry(tally, service.metrics)
        self.wall_s = sum(self.stage_s.values())

    def _submit(self, service, design: Design, version: int,
                stage: str) -> Compile:
        compile_ = Compile(service, design.name, design.versions[version],
                           self.step)
        self.stage_s[stage] += compile_.wall_s
        self.submissions.append(compile_)
        return compile_

    def _design(self, service, design: Design, ledger: Ledger,
                corrupt: bool) -> None:
        where = design.name
        if design.inits is not None:
            cold = self._submit(service, design, 0, "cold")
            fmax = cold.resources.get("fmax_mhz", 0.0)
            ledger.check(cold.error is None and fmax >= 50.0,
                         f"{where} cold: error={cold.error!r}, "
                         f"Fmax {fmax:.1f} MHz (needs 50)")
            self.fmax.append(fmax)
            self.banks.append((design.inits[0], where))
            warm_before = service.warm_starts
            edit = self._submit(service, design, 1, "edit")
            fmax = edit.resources.get("fmax_mhz", 0.0)
            ledger.check(edit.error is None and fmax >= 50.0
                         and service.warm_starts == warm_before + 1,
                         f"{where} edit: error={edit.error!r}, Fmax "
                         f"{fmax:.1f} MHz, warm start "
                         f"{service.warm_starts - warm_before}")
            self.fmax.append(fmax)
            self.banks.append((design.inits[1], where))
            last, verdict = 1, None
        else:
            cold = self._submit(service, design, 0, "cold")
            verdict = "design failed routing closure"
            error = cold.error if not corrupt else None
            ledger.check(error == verdict,
                         f"{where} cold: error={error!r}, expected "
                         f"{verdict!r}")
            last = 0
        hit = self._submit(service, design, last, "resubmit")
        ledger.check(hit.job.cache_hit and hit.error == verdict,
                     f"{where} resubmit: cache_hit={hit.job.cache_hit}, "
                     f"error={hit.error!r}")


def _warm_pool() -> None:
    """Start the flow lane's worker processes before timing."""
    from repro.backend.compilequeue import shared_flow_queue

    lane = shared_flow_queue()
    futures = [lane.submit(math.sqrt, float(i))
               for i in range(2 * max(lane.max_workers, 1))]
    for future in futures:
        future.result()


def setup(seed: int, size: str) -> Tuple[float, Inputs]:
    """Fresh-interpreter imports, input generation, flow-lane start."""
    from repro.backend.compilequeue import shutdown_shared_pools

    probe = import_probe_s(IMPORTS)
    shutdown_shared_pools()
    t0 = time.perf_counter()
    inputs = Inputs(seed, size)
    _warm_pool()
    return probe + time.perf_counter() - t0, inputs


def run(seed: int, seconds: float, trace: bool, size: str = "full",
        corrupt: bool = False) -> Outcome:
    from repro.backend.compilequeue import shutdown_shared_pools

    setups = []
    for _ in range(3):
        setup_s, inputs = setup(seed, size)
        setups.append(setup_s)
    ledger = Ledger()
    tally: Dict[str, float] = {}
    passes: List[Pass] = []
    try:
        if trace:
            # The untraced reference for the tracing overhead: the
            # banks alone; then every pass runs traced.
            untraced = Pass(inputs, ledger, corrupt, only_banks=True)
            from spans import Recorder, install
            recorder = Recorder()
            restore = install(recorder)
        watch = Stopwatch()
        pass_s: List[float] = []
        try:
            while another_unit(watch, seconds, pass_s):
                start = watch.elapsed()
                passes.append(Pass(inputs, ledger, corrupt,
                                   tally if trace else None))
                pass_s.append(watch.elapsed() - start)
        finally:
            if trace:
                restore()
    finally:
        shutdown_shared_pools()
    for p in passes + ([untraced] if trace else []):
        for inits, where in p.banks:
            check_netlist(inits, ledger, corrupt, where)
    per_design: Dict[str, List[Compile]] = {}
    for p in passes:
        for c in p.submissions:
            per_design.setdefault(c.design, []).append(c)
    outcome = Outcome(ledger, end_to_end(
        setups, peak_rss_mb(),
        geomean([median([c.time_to_run_s for c in subs])
                 for subs in per_design.values()]),
        geomean([median([r for c in subs for r in c.rates])
                 for subs in per_design.values()]),
        [p.wall_s for p in passes]))
    outcome.extra = {"passes": len(passes),
                     "stage_s": [p.stage_s for p in passes],
                     "design_s": [p.design_s for p in passes],
                     "fmax_mhz": geomean(passes[0].fmax)}
    if trace:
        base = sum(untraced.design_s.values())
        traced = median([sum(p.design_s[name]
                             for name in untraced.design_s)
                         for p in passes])
        outcome.trace(recorder, tally, 100.0 * (traced - base) / base)
    return outcome
