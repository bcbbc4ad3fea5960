"""Workload ``sim_tiers``: the paper's apps stepped on each JIT tier.

Each round gives pow, regex and nw a fresh ``Runtime`` per tier, evals
the program, then steps one window at a fixed absolute scheduler
iteration:

* ``interpreted`` — fast path off, fabric never lands;
* ``sw-fast``     — fast path on, fabric never lands; the swap must have
  happened before the window starts;
* ``hardware``    — ``latency_scale=0``, open loop, fast-forwarded so
  the window's virtual ticks do not depend on host speed; the rate is
  taken from the fabric steps actually executed.

Rounds repeat until the time budget is spent.  Every window's virtual
ticks and nanoseconds are checked to be identical across rounds, the
interpreted window identical to the same span of the sw-fast window,
and — in a traced run, whose first round runs untraced — identical
between untraced and traced rounds.  App outputs are checked against
``reference_digest``, ``reference_golden_nonce``,
``reference_match_count`` and ``nw_score``.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Optional, Tuple

from harness import (Ledger, Outcome, Stopwatch, another_unit,
                     end_to_end, geomean, import_probe_s, median,
                     peak_rss_mb)
from layers import tally_registry

APPS = ("pow", "regex", "nw")
TIERS = ("interpreted", "sw-fast", "hardware")
#: Absolute scheduler iteration at which every window starts.
WINDOW_START = 200
#: Window lengths in scheduler iterations: (interpreted, sw-fast,
#: hardware).  The sw-fast window begins with the interpreted one.
SIZES = {
    "full": {"pow": (256, 2560, 1 << 17),
             "regex": (1280, 3072, 1 << 17),
             "nw": (1280, 3072, 1 << 17)},
    "small": {"pow": (48, 128, 1 << 12),
              "regex": (128, 320, 1 << 12),
              "nw": (400, 592, 1 << 12)},
}
#: Closed-loop windows are timed in this many chunks; a tier's rate is
#: the median chunk rate, which host noise bursts do not drag.
CHUNKS = 8
#: Open-loop batches shorter than this many steps are not timed.
MIN_BATCH = 1024
POW_TARGET_ZEROS = 32          # unreachable: the miner never finishes
REGEX_PATTERN = "GET (/[a-z0-9]*)+ HTTP"
NW_LEN = 12
IMPORTS = ("repro.core.runtime", "repro.backend.compiler",
           "repro.apps.pow", "repro.apps.regex", "repro.apps.nw")


class Inputs:
    """Everything the seed decides: pow's message block, regex's byte
    stream (request lines with planted matches), nw's sequences."""

    def __init__(self, seed: int):
        from repro.apps.nw import nw_program, random_dna
        from repro.apps.pow import pow_program
        from repro.apps.regex import regex_program

        rng = random.Random(seed)
        self.pow_words = [rng.getrandbits(32) for _ in range(12)]
        stream = bytearray()
        while len(stream) < 1 << 15:
            if rng.random() < 0.5:
                path = "".join(rng.choice("/abcxyz0189")
                               for _ in range(rng.randint(1, 9)))
                stream += f"GET /{path} HTTP ".encode()
            else:
                stream += bytes(rng.choice(b"abcdefghijklmnop /GETHTP09")
                                for _ in range(rng.randint(4, 24)))
        self.stream = bytes(stream)
        self.seq_a = random_dna(NW_LEN, rng.getrandbits(30))
        self.seq_b = random_dna(NW_LEN, rng.getrandbits(30))
        self.programs = {
            "pow": pow_program(target_zeros=POW_TARGET_ZEROS,
                               data_words=self.pow_words, quiet=True),
            "regex": regex_program(REGEX_PATTERN)[0],
            "nw": nw_program(self.seq_a, self.seq_b,
                             finish_on_done=False),
        }


def _state_int(state: dict, name: str) -> int:
    """A register of the inlined user subprogram, by source name."""
    for key, value in state.items():
        if key == name or key.startswith(name + "__"):
            return int(value)
    raise KeyError(name)


class Window:
    """Virtual deltas of one stepped window, and the host rate of each
    chunk of it (virtual ticks executed per host second)."""

    def __init__(self, ticks: int = 0, ns: float = 0.0,
                 rates: Optional[List[float]] = None):
        self.ticks = ticks
        self.ns = ns
        self.rates = rates or []

    def __add__(self, other: "Window") -> "Window":
        return Window(self.ticks + other.ticks, self.ns + other.ns,
                      self.rates + other.rates)


def _step(rt, iterations: int, chunk: int) -> Window:
    """Step a closed-loop window in chunks of ``chunk`` iterations."""
    ticks0, ns0 = rt.virtual_clock_ticks, rt.time_model.now_ns
    rates = []
    for _ in range(iterations // chunk):
        ticks = rt.virtual_clock_ticks
        t0 = time.perf_counter()
        rt.run(iterations=chunk)
        rates.append((rt.virtual_clock_ticks - ticks)
                     / (time.perf_counter() - t0))
    return Window(rt.virtual_clock_ticks - ticks0,
                  rt.time_model.now_ns - ns0, rates)


def _step_open_loop(rt, iterations: int) -> Window:
    """Step a fast-forwarded open-loop window one batch at a time.

    Batch sizes adapt to host speed, so a batch's rate is the fabric
    steps it actually executed over its host time.  Batches under
    ``MIN_BATCH`` steps (the start of the ramp) are too short to time.
    """
    user = rt.engines[rt.program.user_subprograms()[0].name]
    ticks0, ns0 = rt.virtual_clock_ticks, rt.time_model.now_ns
    start = rt.iterations
    rates = []
    while rt.iterations - start < iterations:
        steps = user.open_loop_ticks
        t0 = time.perf_counter()
        rt.run(iterations=1, fast_forward=True)
        host = time.perf_counter() - t0
        steps = user.open_loop_ticks - steps
        if steps >= MIN_BATCH:
            rates.append(steps / 2.0 / host)
    return Window(rt.virtual_clock_ticks - ticks0,
                  rt.time_model.now_ns - ns0, rates)


def _wait_host_work(rt, timeout: float = 60.0) -> None:
    """Wait until every compile and fast-path future has finished, so
    no codegen thread contends for the GIL inside a timed window."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        jobs_done = all(job.host_done for job in rt.compiler.jobs)
        fast_done = all(f.done() for _, f in rt._fast_jobs.values())
        if jobs_done and fast_done:
            return
        time.sleep(0.002)
    raise TimeoutError("background compile work did not finish")


class Arm:
    """One app on one tier: time to run, optional swap, one window."""

    def __init__(self, app: str, tier: str, inputs: Inputs,
                 sizes: Tuple[int, int, int], ledger: Ledger,
                 corrupt: bool):
        from repro.backend.compiler import CompileService
        from repro.core.runtime import Runtime

        self.app = app
        self.tier = tier
        if tier == "hardware":
            service = CompileService(latency_scale=0.0)
        else:
            service = CompileService(latency_scale=1e9)
        rt = Runtime(compile_service=service,
                     enable_sw_fastpath=(tier == "sw-fast"))
        t0 = time.perf_counter()
        rt.eval_source(inputs.programs[app])
        if app == "regex":
            rt.board.fifo("input_fifo").attach_source(inputs.stream,
                                                      555_000.0)
        admit = time.perf_counter()
        rt.run(iterations=1)
        self.time_to_run_s = time.perf_counter() - t0
        self.swap_s: Optional[float] = None
        if tier == "sw-fast":
            # Admission happens in the first iteration; the swap lands
            # at the first quiescent window after the fast-path compile
            # finishes, while the interpreter keeps running.
            while rt.sw_migrations == 0 and \
                    rt.iterations < WINDOW_START - 1:
                rt.run(iterations=1)
            if rt.sw_migrations == 0:
                _wait_host_work(rt)
                rt.run(iterations=1)
            self.swap_s = time.perf_counter() - admit
        _wait_host_work(rt)
        fast_forward = tier == "hardware"
        rt.run(iterations=WINDOW_START - rt.iterations,
               fast_forward=fast_forward)
        user = rt.program.user_subprograms()[0].name
        ledger.check(rt.engine_tiers()[user] == tier,
                     f"{app}: on {rt.engine_tiers()[user]} at the window "
                     f"start, expected {tier}")
        if tier == "hardware":
            ledger.check(rt._open_loop_active,
                         f"{app}: hardware window not in open loop")
        interp_n, fast_n, hw_n = sizes
        gc.collect()
        if tier == "hardware":
            self.windows = {"hardware": _step_open_loop(rt, hw_n)}
        elif tier == "interpreted":
            self.windows = {"interpreted": _step(rt, interp_n,
                                                 interp_n // CHUNKS)}
        else:
            head = _step(rt, interp_n, interp_n // CHUNKS)
            tail = _step(rt, fast_n - interp_n,
                         (fast_n - interp_n) // CHUNKS)
            self.windows = {"interpreted": head, "sw-fast": head + tail}
        self.runtime = rt
        self._check_output(inputs, ledger, corrupt)

    def _check_output(self, inputs: Inputs, ledger: Ledger,
                      corrupt: bool) -> None:
        from repro.apps.nw import nw_score
        from repro.apps.pow import reference_digest, reference_golden_nonce
        from repro.apps.regex import reference_match_count

        rt = self.runtime
        state = rt.engines["main"].get_state()
        where = f"{self.app}/{self.tier}"
        if self.app == "pow":
            nonce = _state_int(state, "miner_nonce")
            attempts = _state_int(state, "miner_attempts")
            found = _state_int(state, "miner_found")
            digest = _state_int(state, "miner_core_digest")
            if corrupt:
                digest ^= 1
            ledger.check(nonce >= 1 and attempts == nonce,
                         f"{where}: {attempts} attempts for nonce {nonce}")
            # The digest register holds the last finished hash: the
            # current nonce's while the core's done pulse is high (the
            # miner advances the nonce on that edge), else the previous.
            hashed = nonce if _state_int(state, "miner_core_done") \
                else nonce - 1
            want = reference_digest(hashed, inputs.pow_words)
            ledger.check(digest == int.from_bytes(want, "big"),
                         f"{where}: digest of nonce {hashed} differs "
                         f"from hashlib")
            try:
                reference_golden_nonce(POW_TARGET_ZEROS, inputs.pow_words,
                                       limit=nonce)
                golden = True
            except ValueError:      # no golden nonce among those tried
                golden = False
            ledger.check(bool(found) == golden,
                         f"{where}: found={found} but reference says "
                         f"{golden}")
        elif self.app == "regex":
            matches = _state_int(state, "m_matches")
            consumed = _state_int(state, "m_consumed")
            if corrupt:
                matches += 1
            want = reference_match_count(REGEX_PATTERN,
                                         inputs.stream[:consumed])
            ledger.check(consumed > 0 and matches == want,
                         f"{where}: {matches} matches in {consumed} "
                         f"bytes, reference {want}")
        else:
            want = f"score {nw_score(inputs.seq_a, inputs.seq_b)}"
            lines = list(rt.output_lines)
            if corrupt:
                lines = [line + "0" for line in lines]
            ledger.check(lines == [want],
                         f"{where}: output {lines}, expected [{want!r}]")


def setup(seed: int) -> Tuple[float, Inputs]:
    """Fresh-interpreter imports plus input generation."""
    probe = import_probe_s(IMPORTS)
    t0 = time.perf_counter()
    inputs = Inputs(seed)
    return probe + time.perf_counter() - t0, inputs


def run(seed: int, seconds: float, trace: bool, size: str = "full",
        corrupt: bool = False) -> Outcome:
    setups = []
    for _ in range(3):
        setup_s, inputs = setup(seed)
        setups.append(setup_s)
    ledger = Ledger()
    sizes = SIZES[size]
    recorder = restore = None
    tally: Dict[str, float] = {}
    rounds: List[Dict[str, Dict[str, Window]]] = []
    walls: List[float] = []
    ttr: Dict[str, List[float]] = {app: [] for app in APPS}
    swaps: List[float] = []
    reference: Dict[Tuple[str, str, str], Tuple[int, float]] = {}
    watch = Stopwatch()
    # A traced run keeps its first round untraced: the reference for
    # the virtual-time comparison and for the tracing overhead.
    while another_unit(watch, seconds, walls, minimum=2 if trace else 1):
        if trace and len(rounds) == 1:
            from spans import Recorder, install
            recorder = Recorder()
            restore = install(recorder)
        round_watch = Stopwatch()
        per_app: Dict[str, Dict[str, Window]] = {}
        for app in APPS:
            per_app[app] = {}
            for tier in TIERS:
                arm = Arm(app, tier, inputs, sizes[app], ledger, corrupt)
                if recorder is not None:
                    tally_registry(tally, arm.runtime.compiler.metrics)
                ttr[app].append(arm.time_to_run_s)
                if arm.swap_s is not None:
                    swaps.append(arm.swap_s)
                for name, window in arm.windows.items():
                    vt = (window.ticks, window.ns)
                    first = reference.setdefault((app, tier, name), vt)
                    ledger.check(vt == first,
                                 f"{app} {tier} window {name}: virtual "
                                 f"{vt} differs from round 1's {first}")
                per_app[app][tier] = arm.windows[tier]
                if tier == "sw-fast":
                    a = per_app[app]["interpreted"]
                    b = arm.windows["interpreted"]
                    ledger.check((a.ticks, a.ns) == (b.ticks, b.ns),
                                 f"{app}: interpreted window "
                                 f"{(a.ticks, a.ns)} differs from the "
                                 f"sw-fast window's {(b.ticks, b.ns)}")
        walls.append(round_watch.elapsed())
        rounds.append(per_app)
    if restore is not None:
        restore()

    first = 1 if trace else 0
    rate = {(app, tier): median([r for per_app in rounds[first:]
                                 for r in per_app[app][tier].rates])
            for app in APPS for tier in TIERS}
    ttr = {app: median(samples) for app, samples in ttr.items()}
    outcome = Outcome(ledger, end_to_end(
        setups, peak_rss_mb(), geomean(list(ttr.values())),
        geomean(list(rate.values())), walls[first:]))
    outcome.extra = {
        "rounds": len(rounds), "round_s": walls,
        "tier_hz": {tier: geomean([rate[app, tier] for app in APPS])
                    for tier in TIERS},
        "time_to_run_s": ttr, "swap_s": median(swaps)}
    if trace:
        outcome.trace(recorder, tally,
                      100.0 * (median(walls[1:]) - walls[0]) / walls[0])
    return outcome
