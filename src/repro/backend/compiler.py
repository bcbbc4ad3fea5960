"""The blackbox compile service (our Quartus stand-in).

Hardware engines "translate the Verilog source for a subprogram into
code which can be compiled by a blackbox toolchain such as Quartus or
Vivado" (§5.2), and that compilation is what the JIT hides: ten minutes
for the paper's proof-of-work benchmark (§6.1).

We model the toolchain with:

* a **latency model** calibrated to the paper's observations — a fixed
  front-end cost plus a power law in estimated LUTs (placement is the
  NP-hard part and scales super-linearly; §1);
* optional execution of the **real flow** (synth → techmap → place →
  route → timing, :mod:`repro.backend.flow`) for small designs, which
  provides exact area/Fmax numbers and can *fail timing closure* —
  reproducing the §6.4 observation that programs correct in simulation
  may still fail the later phases of JIT compilation.

The service is **asynchronous on the host**: ``submit()`` only runs the
cheap front-end (elaboration, the synthesizability check and the
resource estimate) on the caller's thread, then hands code generation
and the real flow to a background worker pool
(:mod:`repro.backend.compilequeue`).  It is also **memoized**: results
are stored in a content-addressed :class:`~repro.backend.cache
.BitstreamCache` keyed by the canonical printed source, so recompiling
an identical subprogram is a cache hit that skips synthesis entirely
and completes after a small constant *virtual* latency (reprogramming
the device, not recompiling for it — what real Cascade's compilation
cache buys).

Compile durations are charged in *virtual* time so whole JIT timelines
(Figures 11/12) replay deterministically in milliseconds of host time:
``ready_at_s`` is fixed at submission from the deterministic estimate,
and if the virtual clock reaches it before the background worker has
finished, delivery waits for the worker — host speed can never change
*when* (in virtual time) a result lands.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError
from typing import Dict, List, Optional, Set, Tuple

from ..common.errors import SynthesisError
from ..ir.build import Subprogram
from ..obs import MetricsRegistry, tracer
from ..verilog.elaborate import Design, elaborate_leaf
from ..verilog.printer import module_to_str
from .cache import BitstreamCache, CacheEntry, PlacementCache, \
    design_cache_key
from .compilequeue import CompileQueue, default_place_starts, \
    shared_flow_queue, shared_queue
from .estimate import estimate_resources, instrumentation_overhead
from .fabric import Device
from .pycompile import CompiledDesign, compile_design
from .synthcheck import check_design

__all__ = ["CompilerModel", "CompileJob", "CompileService"]


class CompilerModel:
    """Latency + area model for the blackbox toolchain.

    Calibration anchors (paper §6): a ~50-line user-study program
    compiles in ~1.5 minutes; the SHA-256 proof-of-work design takes
    ~10 minutes; Cascade's instrumented bitstream is ~2.9x larger.
    """

    def __init__(self, base_s: float = 40.0, per_lut: float = 0.9,
                 exponent: float = 0.8):
        self.base_s = base_s
        self.per_lut = per_lut
        self.exponent = exponent

    def duration_s(self, luts: int) -> float:
        return self.base_s + self.per_lut * (max(luts, 1) ** self.exponent)


class CompileJob:
    """One background compilation.

    The *virtual* schedule (``submitted_s``, ``duration_s``,
    ``ready_at_s``) is fixed at submission; the *host* work happens on a
    worker future.  ``compiled`` / ``resources`` / ``error`` wait for
    the worker when accessed before it finishes — the virtual clock,
    not host progress, decides when the job is delivered.
    """

    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"

    def __init__(self, subprogram: Subprogram, design: Design,
                 submitted_s: float, duration_s: float,
                 resources: Dict[str, int],
                 compiled: Optional[CompiledDesign] = None,
                 error: Optional[str] = None,
                 cache_hit: bool = False,
                 service: Optional["CompileService"] = None):
        self.subprogram = subprogram
        self.design = design
        self.submitted_s = submitted_s
        self.duration_s = duration_s
        self.cache_hit = cache_hit
        #: True when this job attached to another in-flight compile of
        #: the same key (single-flight dedup) instead of running its
        #: own worker.  Its future is the *leader's* result proxy.
        self.single_flight = False
        self.delivered = False
        self._resources = dict(resources)
        self._compiled = compiled
        self._error = error
        self._future = None
        self._resolved = cache_hit or compiled is not None \
            or error is not None
        self._cancel_requested = False
        self._service = service
        self._cache_key: Optional[str] = None
        self._inflight = None  # InflightCompile while leader/follower
        #: Set once this job's flow stage has run (or been skipped /
        #: cancelled).  Flow stages execute in submission order so
        #: warm-start placement lookups are deterministic — a job only
        #: ever sees placements produced by earlier submissions, never
        #: a racy subset of them.
        self._flow_done = threading.Event()
        self._flow_prev: Optional[threading.Event] = None

    # -- host-side results ---------------------------------------------
    def _resolve(self) -> None:
        """Adopt the worker's result, waiting for it if necessary."""
        if self._resolved:
            return
        future = self._future
        if future is None:
            self._resolved = True
            return
        t0 = time.perf_counter()
        try:
            outcome = future.result()
        except CancelledError:
            outcome = (None, None, "compilation cancelled")
        except Exception as exc:  # the worker itself crashed
            outcome = (None, None, str(exc) or type(exc).__name__)
        if self._service is not None:
            self._service._charge_host("wait_s",
                                       time.perf_counter() - t0)
        compiled, resources, error = outcome
        self._compiled = compiled
        if resources is not None:
            self._resources = dict(resources)
        self._error = error
        self._resolved = True

    @property
    def host_done(self) -> bool:
        """True once no host-side work remains (does not wait)."""
        return self._resolved or self._future is None \
            or self._future.done()

    @property
    def compiled(self) -> Optional[CompiledDesign]:
        self._resolve()
        return self._compiled

    @property
    def resources(self) -> Dict[str, int]:
        self._resolve()
        return self._resources

    @property
    def error(self) -> Optional[str]:
        self._resolve()
        return self._error

    # -- virtual-time schedule -----------------------------------------
    @property
    def ready_at_s(self) -> float:
        return self.submitted_s + self.duration_s

    def state(self, now_s: float) -> str:
        """The job's state at virtual time ``now_s``.

        Results — including failures, which the toolchain only
        discovers while compiling (§6.4) — become visible exactly at
        ``ready_at_s``; if the worker is still running then, this call
        waits for it (host time only, virtual time is unaffected).
        """
        if now_s < self.ready_at_s:
            return self.PENDING
        self._resolve()
        return self.FAILED if self._error is not None else self.DONE

    def __repr__(self) -> str:
        return (f"CompileJob({self.subprogram.name}, "
                f"ready_at={self.ready_at_s:.1f}s)")


class CompileService:
    """Submits subprogram compilations and reports completions against
    the runtime's virtual clock.

    ``latency_scale`` scales modeled durations (0 = compilation is
    instantaneous, useful in tests).
    """

    def __init__(self, model: Optional[CompilerModel] = None,
                 latency_scale: float = 1.0,
                 full_flow_max_luts: int = 0,
                 cache: Optional[BitstreamCache] = None,
                 placements: Optional[PlacementCache] = None,
                 queue: Optional[CompileQueue] = None,
                 device: Optional[Device] = None,
                 cache_hit_latency_s: float = 1.0,
                 warm_start_effort: float = 0.35,
                 flow_queue: Optional[CompileQueue] = None,
                 place_starts: Optional[int] = None,
                 isolate_virtual_time: bool = False,
                 registry: Optional[MetricsRegistry] = None):
        #: The metrics registry all of this service's counters live in
        #: (DESIGN.md §4.7).  Caches the service creates itself share
        #: it; caches passed in (the multi-tenant server's shared
        #: substrate) keep the registry they were built with.
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self.model = model or CompilerModel()
        self.latency_scale = latency_scale
        #: When positive, designs whose estimated LUT count is at or
        #: below this run the *real* synth/place/route/timing flow —
        #: exact area and genuine closure failures (§6.4) — instead of
        #: the calibrated estimator.
        self.full_flow_max_luts = full_flow_max_luts
        self.cache = cache if cache is not None \
            else BitstreamCache(registry=self.metrics)
        self.placements = placements if placements is not None \
            else PlacementCache(registry=self.metrics)
        self.queue = queue if queue is not None else shared_queue()
        #: The process-pool lane the CPU-bound place/route/timing
        #: kernels are shipped to (threads above only orchestrate, so
        #: in-flight compiles no longer contend with the simulation for
        #: the GIL).  ``flow_queue=None`` selects the shared lane; pass
        #: a ``CompileQueue(max_workers=0)`` for inline debugging.
        self.flow_queue = flow_queue if flow_queue is not None \
            else shared_flow_queue()
        #: Cold placements anneal this many seeds in parallel and keep
        #: the best by ``(cost, seed)``; warm starts stay single-start.
        self.place_starts = place_starts if place_starts is not None \
            else default_place_starts()
        self.device = device
        #: Virtual seconds a cache hit still costs: the device must be
        #: reprogrammed with the cached bitstream, but nothing is
        #: recompiled (mirrors real Cascade's compilation cache).
        self.cache_hit_latency_s = cache_hit_latency_s
        self.warm_start_effort = warm_start_effort
        #: Multi-tenant virtual-time isolation (DESIGN.md §4.6).  When
        #: this service shares its caches with other tenants' services,
        #: a key *this* service has never submitted may be resolved by
        #: another tenant's work — a cross-tenant cache hit or a
        #: single-flight join.  With isolation on, such a result still
        #: costs the full modeled compile duration in *virtual* time
        #: (only host work is deduped), so a session's virtual timeline
        #: is bit-identical to running alone with a cold cache: one
        #: tenant can neither observe nor perturb another through
        #: timing.  Session-local recompiles keep the collapsed
        #: reprogramming latency, exactly as a solo runtime would.
        self.isolate_virtual_time = isolate_virtual_time
        self.jobs: List[CompileJob] = []
        m = self.metrics
        self._c_attempted = m.counter("compile.attempted")
        self._c_failed = m.counter("compile.failed")
        self._c_cancelled = m.counter("compile.cancelled")
        self._c_cache_hits = m.counter("compile.cache_hits")
        self._c_cache_misses = m.counter("compile.cache_misses")
        self._c_warm_starts = m.counter("compile.warm_starts")
        self._c_flow_retries = m.counter("compile.flow_candidate_retries")
        self._c_cross_tenant = m.counter("compile.cross_tenant_hits")
        self._c_joins = m.counter("compile.single_flight_joins")
        # Per-phase host seconds (the ``host_seconds`` dict of stats()).
        for phase in ("submit_s", "codegen_s", "flow_s", "wait_s"):
            m.counter("compile.host." + phase)
        self._session_keys: Set[str] = set()
        self._last_flow_done: Optional[threading.Event] = None

    @property
    def warm_starts(self) -> int:
        # Kept for perfbench/compile_flow.py, which reads it.
        return self._c_warm_starts.value

    # ------------------------------------------------------------------
    def _charge_host(self, phase: str, seconds: float) -> None:
        self.metrics.counter("compile.host." + phase).inc(seconds)

    def _trace_phase(self, job: "CompileJob", phase: str,
                     seconds: float) -> None:
        """One ``compile_phase`` span, anchored at the job's virtual
        submission time, host duration from where the work really ran
        (flow phases: inside the lane worker)."""
        tr = tracer()
        if tr.enabled:
            tr.emit("compile_phase", "compile", dur_us=seconds * 1e6,
                    virtual_ns=job.submitted_s * 1e9,
                    tid="compile",
                    args={"phase": phase,
                          "subprogram": job.subprogram.name})

    def estimate(self, design: Design,
                 instrumented: bool = True) -> Dict[str, int]:
        base = estimate_resources(design, metrics=self.metrics)
        if instrumented:
            extra = instrumentation_overhead(design)
            return {k: base.get(k, 0) + extra.get(k, 0) for k in
                    set(base) | set(extra)}
        return base

    # ------------------------------------------------------------------
    def submit(self, subprogram: Subprogram, now_s: float,
               design: Optional[Design] = None,
               instrumented: bool = True) -> CompileJob:
        """Begin a background compilation of a subprogram.

        Raises :class:`SynthesisError` immediately when the subprogram
        is not synthesizable at all (those stay in software forever).
        Everything slow — code generation and the real flow — runs on
        the worker pool; this call costs only elaboration, the
        synthesizability check and the resource estimate.
        """
        t0 = time.perf_counter()
        self._c_attempted.inc()
        if design is None:
            design = elaborate_leaf(subprogram.module_ast)
        violations = check_design(design)
        if violations:
            raise SynthesisError(
                f"subprogram {subprogram.name!r} is unsynthesizable: "
                + "; ".join(sorted(set(violations))))
        resources = self.estimate(design, instrumented=instrumented)
        source = module_to_str(subprogram.module_ast)
        key = design_cache_key(
            source, instrumented,
            self.device.name if self.device else "auto",
            self.full_flow_max_luts)
        entry = self.cache.get(key, design)
        if entry is not None:
            # Cache hit: no host work.  A *session-local* hit (this
            # service compiled the key before) costs only the constant
            # device-reprogramming latency in virtual time.  A
            # *cross-tenant* hit (another service sharing this cache
            # compiled it) costs the same — unless virtual-time
            # isolation is on, in which case this session is charged
            # the full modeled duration it would have paid alone.
            local = key in self._session_keys
            self._c_cache_hits.inc()
            if not local:
                self._c_cross_tenant.inc()
            if entry.error is not None:
                self._c_failed.inc()
            tr = tracer()
            if tr.enabled:
                tr.emit("cache_hit", "cache",
                        virtual_ns=now_s * 1e9, tid="compile",
                        args={"subprogram": subprogram.name,
                              "key": key[:12],
                              "cross_tenant": not local,
                              "failed_entry": entry.error is not None})
            if self.isolate_virtual_time and not local:
                duration = self.model.duration_s(resources["luts"]) \
                    * self.latency_scale
            else:
                duration = self.cache_hit_latency_s * self.latency_scale
            job = CompileJob(subprogram, design, now_s, duration,
                             entry.resources, compiled=entry.compiled,
                             error=entry.error, cache_hit=True,
                             service=self)
            job._cache_key = key
        else:
            self._c_cache_misses.inc()
            tr = tracer()
            if tr.enabled:
                tr.emit("cache_miss", "cache",
                        virtual_ns=now_s * 1e9, tid="compile",
                        args={"subprogram": subprogram.name,
                              "key": key[:12]})
            duration = self.model.duration_s(resources["luts"]) \
                * self.latency_scale
            job = CompileJob(subprogram, design, now_s, duration,
                             resources, service=self)
            job._cache_key = key
            leader, inflight = self.cache.inflight_begin(key)
            job._inflight = inflight
            if not leader:
                # Single-flight join: an identical compile is already
                # in flight (the cross-tenant hot path — but also a
                # same-session resubmit racing an uncancellable
                # worker).  Attach to the leader's result instead of
                # running the flow twice; virtual duration stays the
                # full modeled cost, so under isolation the timeline
                # is exactly a solo cold compile's.
                self._c_joins.inc()
                if tr.enabled:
                    tr.emit("single_flight_join", "cache",
                            virtual_ns=now_s * 1e9, tid="compile",
                            args={"subprogram": subprogram.name,
                                  "key": key[:12]})
                job.single_flight = True
                job._flow_done.set()
                job._future = inflight.proxy
            else:
                flow_eligible = bool(
                    self.full_flow_max_luts
                    and resources["luts"] <= self.full_flow_max_luts)
                if flow_eligible:
                    # Chain flow stages in submission order (worker
                    # start order is FIFO, so the chain cannot
                    # deadlock); codegen still runs fully in parallel.
                    job._flow_prev = self._last_flow_done
                    self._last_flow_done = job._flow_done
                else:
                    job._flow_done.set()
                try:
                    job._future = self.queue.submit(
                        self._compile_job, job, key, resources,
                        instrumented, flow_eligible)
                except BaseException:
                    self.cache.inflight_finish(key, inflight)
                    raise
                inflight.bridge(job._future)
        self._session_keys.add(key)
        self.jobs.append(job)
        self._charge_host("submit_s", time.perf_counter() - t0)
        return job

    # -- the worker ----------------------------------------------------
    def _compile_job(self, job: CompileJob, key: str,
                     resources: Dict[str, int], instrumented: bool,
                     flow_eligible: bool
                     ) -> Tuple[Optional[CompiledDesign],
                                Dict[str, int], Optional[str]]:
        """All real host-time work for one job (runs on the pool)."""
        try:
            return self._compile_job_inner(job, key, resources,
                                           flow_eligible)
        finally:
            job._flow_done.set()
            # Leave the single-flight registry only after the cache is
            # populated (the inner call's last step), so a concurrent
            # submit either joins this worker or hits the cache — it
            # can never fall between the two and recompile.
            self.cache.inflight_finish(key, job._inflight)

    def _compile_job_inner(self, job: CompileJob, key: str,
                           resources: Dict[str, int],
                           flow_eligible: bool
                           ) -> Tuple[Optional[CompiledDesign],
                                      Dict[str, int], Optional[str]]:
        if job._cancel_requested:
            return None, resources, "compilation cancelled"
        t0 = time.perf_counter()
        try:
            compiled: Optional[CompiledDesign] = \
                compile_design(job.design)
            error: Optional[str] = None
        except Exception as exc:  # compilation itself failed
            compiled = None
            error = str(exc)
        codegen_s = time.perf_counter() - t0
        self._charge_host("codegen_s", codegen_s)
        self._trace_phase(job, "codegen", codegen_s)
        placement = None
        flow_summary = None
        if compiled is not None and flow_eligible:
            if job._flow_prev is not None:
                job._flow_prev.wait()
            t1 = time.perf_counter()
            try:
                from .flow import run_flow
                report = run_flow(job.design, device=self.device,
                                  placement_cache=self.placements,
                                  warm_effort=self.warm_start_effort,
                                  starts=self.place_starts,
                                  pool=self.flow_queue)
                if report.placement.warm_started:
                    self._c_warm_starts.inc()
                self._c_flow_retries.inc(len(report.candidate_retries))
                for phase, seconds in sorted(
                        report.phase_seconds.items()):
                    # synth_s -> "synth" etc.; durations measured in
                    # the flow-lane worker that ran the phase.
                    self._trace_phase(job, phase.rsplit("_", 1)[0],
                                      seconds)
                overhead = resources["luts"] - \
                    estimate_resources(job.design,
                                       metrics=self.metrics)["luts"]
                resources = dict(resources)
                resources["luts"] = report.luts + max(overhead, 0)
                resources["fmax_mhz"] = report.fmax_mhz
                placement = report.placement.locations
                flow_summary = report.summary()
                if not report.success:
                    compiled = None
                    error = ("design failed "
                             + ("routing" if not report.routing.routed
                                else "timing") + " closure")
            except SynthesisError:
                pass  # outside the gate-level subset: keep the estimate
            finally:
                self._charge_host("flow_s", time.perf_counter() - t1)
        if error is not None:
            self._c_failed.inc()
        if not job._cancel_requested:
            # Deterministic results are worth caching either way: a
            # failure recompiles to the same failure (§6.4).
            self.cache.put(key, CacheEntry(
                compiled, resources, error, placement, flow_summary))
        return compiled, resources, error

    # ------------------------------------------------------------------
    def cancel_all(self) -> None:
        """Abandon in-flight jobs (the program changed under them).

        Futures still queued on the pool are cancelled outright;
        running ones finish in the background (their result is
        discarded, but still populates the cache).  Single-flight
        discipline: a follower never cancels the *leader's* future (it
        belongs to someone else's compile), and a leader whose result
        other tenants have joined is left to finish — cancelling it
        would fail their compiles too."""
        for job in self.jobs:
            if job.delivered:
                continue
            self._c_cancelled.inc()
            if job.single_flight:
                # Follower: just stop waiting; release our seat so the
                # leader can become cancellable again.
                job._cancel_requested = True
                if job._inflight is not None:
                    self.cache.inflight_leave(job._inflight)
                continue
            if job._future is not None and job._inflight is not None:
                # Leader: only cancellable while nobody has joined
                # (the check atomically unregisters the key, so no one
                # can join a future that is about to be cancelled).
                if self.cache.inflight_cancellable(job._cache_key,
                                                   job._inflight):
                    job._cancel_requested = True
                    if self.queue.cancel(job._future):
                        # The worker will never run; release anyone
                        # chained behind this job's flow stage.
                        job._flow_done.set()
                continue
            job._cancel_requested = True
            if job._future is not None:
                if self.queue.cancel(job._future):
                    job._flow_done.set()
        # Delivered jobs are dropped too: the per-window poll scans only
        # the jobs of the running program.
        self.jobs = []

    def completed(self, now_s: float) -> List[CompileJob]:
        """Jobs — successful *and* failed — that have finished since
        the last poll.  Failed jobs are returned so callers can surface
        the error (§6.4); check ``job.error`` / ``job.compiled``."""
        out = []
        for job in self.jobs:
            if job.delivered:
                continue
            if job.state(now_s) != CompileJob.PENDING:
                job.delivered = True
                out.append(job)
        return out

    def pending(self, now_s: float) -> List[CompileJob]:
        return [j for j in self.jobs
                if not j.delivered and j.state(now_s) == CompileJob.PENDING]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters and per-phase host times for introspection."""
        host = {phase: self.metrics.value("compile.host." + phase)
                for phase in ("submit_s", "codegen_s", "flow_s",
                              "wait_s")}
        return {
            "attempted": self._c_attempted.value,
            "failed": self._c_failed.value,
            "cancelled": self._c_cancelled.value,
            "cache_hits": self._c_cache_hits.value,
            "cache_misses": self._c_cache_misses.value,
            "warm_starts": self._c_warm_starts.value,
            "cross_tenant_hits": self._c_cross_tenant.value,
            "single_flight_joins": self._c_joins.value,
            "estimate_fallbacks":
                int(self.metrics.value("estimate.fallbacks")),
            "flow_candidate_retries": int(self._c_flow_retries.value),
            "in_flight": sum(1 for j in self.jobs
                             if not j.delivered and not j.host_done),
            "host_seconds": host,
            "bitstream_cache": self.cache.stats(),
            "placement_cache": self.placements.stats(),
            "flow_lane": dict(self.flow_queue.stats(),
                              place_starts=self.place_starts),
        }
