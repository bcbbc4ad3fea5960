"""The process-parallel flow lane: payload forms, kernel equivalence,
multi-start determinism, and the success-gated placement store.

The contract under test (DESIGN.md §4.5): for a fixed ``(netlist,
device, seed)`` the flow result is bit-identical no matter which lane
runs it — inline, thread pool, or process pool, at any worker count or
multi-start width — and everything shipped across a process boundary
survives the round trip unchanged.
"""

import functools
import os
import pickle
import signal
import subprocess
import sys

import pytest

from repro.backend import flow
from repro.backend.cache import PlacementCache
from repro.backend.compilequeue import (CompileQueue,
                                        _default_flow_workers,
                                        default_place_starts)
from repro.backend.compiler import CompileService
from repro.backend.fabric import Device, device_for
from repro.backend.flow import run_flow
from repro.backend.netlist import Cell, Netlist
from repro.backend.place import Placement, _net_bboxes, place
from repro.backend.route import route
from repro.backend.synth import synthesize
from repro.common.bits import Bits
from repro.ir.build import Subprogram
from repro.study.corpus import flow_variant, generate_corpus
from repro.verilog.elaborate import elaborate_leaf
from repro.verilog.parser import parse_module

from .oracle_place import place_reference
from .oracle_route import route_reference

COUNTER = """
module counter(input wire clk, input wire rst, output wire [7:0] out);
  reg [7:0] q = 0;
  always @(posedge clk)
    if (rst) q <= 0;
    else q <= q + 1;
  assign out = q;
endmodule
"""

# Small enough to meet 50 MHz timing closure through the real flow.
ALU8 = """
module alu8(input wire clk, input wire [7:0] a, input wire [7:0] b,
            input wire op, output wire [7:0] out);
  reg [7:0] r = 0;
  always @(posedge clk)
    if (op) r <= a & b;
    else r <= a ^ b;
  assign out = r;
endmodule
"""

# Too slow for 50 MHz on its auto-sized device: routes, fails timing.
ALU16 = """
module alu(input wire clk, input wire [15:0] a, input wire [15:0] b,
           input wire [1:0] op, output wire [15:0] out);
  reg [15:0] r = 0;
  always @(posedge clk)
    case (op)
      2'd0: r <= a + b;
      2'd1: r <= a - b;
      2'd2: r <= a & b;
      default: r <= a ^ b;
    endcase
  assign out = r;
endmodule
"""


# The mux selecting on q[0] also takes q[0] as data: its LUT lists that
# net twice, so the net's member list names the mux twice.
SHIFT = """
module shift(input wire clk, input wire [3:0] d, output wire [3:0] out);
  reg [3:0] q = 0;
  always @(posedge clk)
    q <= q[0] ? {q[3:1], q[0]} : d;
  assign out = q;
endmodule
"""


def bank(n):
    """A ring of n 8-bit registers (closes 50 MHz timing)."""
    lines = [f"reg [7:0] c{i} = {i * 37 % 256};" for i in range(n)]
    lines += [f"always @(posedge clk) c{i} <= c{i} ^ (c{(i + 1) % n} >> 1);"
              for i in range(n)]
    return ("module Bank(input wire clk, output wire [7:0] out);\n"
            + "\n".join(lines) + "\nassign out = c0 ^ c1;\nendmodule\n")


def design_of(text):
    return elaborate_leaf(parse_module(text))


def netlist_and_device(text):
    netlist = synthesize(design_of(text))
    cells = netlist.count("LUT") + netlist.count("FF")
    return netlist, device_for(max(cells, 16))


def placement_key(placement):
    """Everything that identifies a placement result."""
    return (placement.seed, placement.cost, placement.warm_started,
            sorted(placement.locations.items()))


def anneal_key(placement):
    """A placement plus the annealing trajectory that produced it."""
    return (placement_key(placement), placement.moves_tried,
            placement.moves_accepted)


@pytest.fixture(scope="module")
def corpus12():
    """Corpus design 12's gate-level projection (~4.1k cells): two nets
    of more than 280 members, one of which lists a member twice."""
    netlist, device = netlist_and_device(
        flow_variant(generate_corpus()[12]))
    nets = _net_bboxes(netlist)
    assert sum(len(net) > 280 for net in nets) == 2
    assert any(len(set(net)) < len(net) for net in nets)
    return netlist, device


# ----------------------------------------------------------------------
# Payload / pickle round trips
# ----------------------------------------------------------------------
class TestPayloads:
    def test_netlist_payload_round_trip(self):
        netlist = synthesize(design_of(ALU8))
        back = Netlist.from_payload(netlist.to_payload())
        # Cell *order* matters: the placer's RNG draws depend on it.
        assert list(back.cells) == list(netlist.cells)
        for name, cell in netlist.cells.items():
            twin = back.cells[name]
            assert (twin.kind, list(twin.fanin), twin.truth, twin.value) \
                == (cell.kind, list(cell.fanin), cell.truth, cell.value)
        assert back.inputs == netlist.inputs
        assert back.outputs == netlist.outputs
        assert back.name == netlist.name

    def test_netlist_payload_survives_pickle(self):
        netlist = synthesize(design_of(COUNTER))
        payload = pickle.loads(pickle.dumps(netlist.to_payload()))
        back = Netlist.from_payload(payload)
        assert list(back.cells) == list(netlist.cells)

    def test_netlist_independent_of_hash_seed(self):
        """Synthesis merges branch frames in insertion order, so the
        largest corpus design synthesizes to the same netlist under any
        ``PYTHONHASHSEED``."""
        script = (
            "import hashlib\n"
            "from repro.backend.synth import synthesize\n"
            "from repro.study.corpus import flow_variant, "
            "generate_corpus\n"
            "from repro.verilog.elaborate import elaborate_leaf\n"
            "from repro.verilog.parser import parse_module\n"
            "text = max((flow_variant(s) for s in generate_corpus()),"
            " key=len)\n"
            "netlist = synthesize(elaborate_leaf(parse_module(text)))\n"
            "print(netlist.count('LUT'), hashlib.sha256("
            "repr(netlist.to_payload()).encode()).hexdigest())\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        outputs = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, timeout=120, check=True)
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, outputs

    def test_device_payload_round_trip(self):
        device = device_for(64)
        back = Device.from_payload(device.to_payload())
        assert (back.name, back.width, back.height, back.clock_mhz,
                back.channel_capacity, back.io_pads) == \
            (device.name, device.width, device.height, device.clock_mhz,
             device.channel_capacity, device.io_pads)
        assert Device.from_payload(
            pickle.loads(pickle.dumps(device.to_payload()))).name \
            == device.name

    def test_placement_pickle_round_trip(self):
        netlist = synthesize(design_of(ALU8))
        device = device_for(64)
        placement = place(netlist, device, seed=3)
        back = pickle.loads(pickle.dumps(placement))
        assert placement_key(back) == placement_key(placement)

    def test_flow_report_pickle_round_trip(self):
        report = run_flow(design_of(ALU8))
        back = pickle.loads(pickle.dumps(report))
        assert back.summary() == report.summary()
        assert placement_key(back.placement) == \
            placement_key(report.placement)
        assert back.routing.routed == report.routing.routed
        assert back.timing.fmax_mhz == report.timing.fmax_mhz

    def test_bits_pickle_round_trip(self):
        for b in (Bits.from_int(200, 8), Bits.xes(4), Bits.zs(3),
                  Bits(16, 0xbeef, 0x00ff, signed=True)):
            back = pickle.loads(pickle.dumps(b))
            assert (back.width, back.aval, back.bval, back.signed) == \
                (b.width, b.aval, b.bval, b.signed)


# ----------------------------------------------------------------------
# Array kernel vs the reference oracle (tests/oracle_place.py)
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("source", [COUNTER, ALU8])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_fast_matches_reference(self, source, seed):
        netlist, device = netlist_and_device(source)
        fast = place(netlist, device, seed=seed)
        ref = place_reference(netlist, device, seed=seed)
        assert anneal_key(fast) == anneal_key(ref)

    def test_fast_matches_reference_warm_start(self):
        netlist, device = netlist_and_device(ALU8)
        hint = place(netlist, device, seed=1).locations
        fast = place(netlist, device, seed=2, effort=0.35, initial=hint)
        ref = place_reference(netlist, device, seed=2, effort=0.35,
                              initial=hint)
        assert fast.warm_started and ref.warm_started
        assert anneal_key(fast) == anneal_key(ref)

    def test_duplicated_member_cold_and_warm(self):
        """The mux listed twice sits on a five-member net, so its moves
        often change the net's box: a net visited twice in one move
        would restore its post-move box on rejection."""
        netlist, device = netlist_and_device(SHIFT)
        assert any(len(set(net)) < len(net)
                   for net in _net_bboxes(netlist))
        for seed in (1, 2):
            fast = place(netlist, device, seed=seed)
            ref = place_reference(netlist, device, seed=seed)
            assert anneal_key(fast) == anneal_key(ref)
            fast = place(netlist, device, seed=seed + 1, effort=0.35,
                         initial=fast.locations)
            ref = place_reference(netlist, device, seed=seed + 1,
                                  effort=0.35, initial=ref.locations)
            assert fast.warm_started
            assert anneal_key(fast) == anneal_key(ref)

    def test_corpus_design_cold_and_warm(self, corpus12):
        """Thousands of swaps touching the two large nets; the oracle
        rescans every net a move touches, the kernel takes the O(1)
        update wherever the moved cell sat strictly inside."""
        netlist, device = corpus12
        fast = place(netlist, device, seed=1, effort=0.005)
        ref = place_reference(netlist, device, seed=1, effort=0.005)
        assert anneal_key(fast) == anneal_key(ref)
        hint = fast.locations
        fast = place(netlist, device, seed=2, effort=0.005, initial=hint)
        ref = place_reference(netlist, device, seed=2, effort=0.005,
                              initial=hint)
        assert fast.warm_started
        assert anneal_key(fast) == anneal_key(ref)


# ----------------------------------------------------------------------
# Integer router vs the reference oracle (tests/oracle_route.py)
# ----------------------------------------------------------------------
def routing_key(result):
    return (result.wirelength, result.max_congestion,
            result.overflow_segments, result.iterations)


def narrowed(device, capacity):
    return Device(device.name, device.width, device.height,
                  channel_capacity=capacity)


class TestRouterEquivalence:
    @pytest.mark.parametrize("source", [COUNTER, ALU8, bank(8)],
                             ids=["counter", "alu8", "bank8"])
    def test_matches_reference(self, source):
        netlist, device = netlist_and_device(source)
        placement = place(netlist, device, seed=1)
        assert routing_key(route(netlist, placement, device)) == \
            routing_key(route_reference(netlist, placement, device))

    def test_matches_reference_on_corpus_design(self, corpus12):
        """Overflows through all four rounds on its own device."""
        netlist, device = corpus12
        placement = place(netlist, device, seed=1, effort=0.005)
        ref = route_reference(netlist, placement, device)
        assert ref.iterations == 4
        assert routing_key(route(netlist, placement, device)) == \
            routing_key(ref)

    def test_matches_reference_through_every_round(self):
        """Overflow persists through all four negotiation rounds, so
        the history costs steer every re-route."""
        netlist, device = netlist_and_device(ALU8)
        placement = place(netlist, device, seed=1)
        starved = narrowed(device, 1)
        ref = route_reference(netlist, placement, starved)
        assert ref.iterations == 4 and ref.overflow_segments > 0
        assert routing_key(route(netlist, placement, starved)) == \
            routing_key(ref)

    def test_tied_paths_take_horizontal_first(self):
        """a -> b has two L paths of equal cost; the horizontal-first
        one leaves the d -> e channel free.  Taking the other would
        overflow it and force a second round."""
        netlist = Netlist("tie")
        netlist.add(Cell("a", "INPUT"))
        netlist.add(Cell("b", "LUT", ["a"], truth=2))
        netlist.add(Cell("d", "INPUT"))
        netlist.add(Cell("e", "LUT", ["d"], truth=2))
        placement = Placement({"a": (0, 0), "b": (1, 1), "d": (0, 1),
                               "e": (1, 1)}, 0.0, 0, 0)
        device = Device("tie", 3, 3, channel_capacity=1)
        fast = route(netlist, placement, device)
        assert routing_key(fast) == (3, 1, 0, 1)
        assert routing_key(fast) == \
            routing_key(route_reference(netlist, placement, device))


# ----------------------------------------------------------------------
# Determinism across lanes, worker counts, and multi-start widths
# ----------------------------------------------------------------------
class TestFlowDeterminism:
    @pytest.mark.parametrize("starts", [1, 2])
    def test_identical_across_all_execution_modes(self, starts):
        design = design_of(ALU8)
        baseline = run_flow(design, starts=starts, pool=None)
        lanes = [
            CompileQueue(max_workers=0),
            CompileQueue(max_workers=1, kind="thread"),
            CompileQueue(max_workers=2, kind="thread"),
            CompileQueue(max_workers=1, kind="process"),
            CompileQueue(max_workers=2, kind="process"),
        ]
        try:
            for lane in lanes:
                report = run_flow(design, starts=starts, pool=lane)
                assert placement_key(report.placement) == \
                    placement_key(baseline.placement), \
                    f"{lane.kind} x{lane.max_workers} diverged"
                assert report.summary() == baseline.summary()
                assert report.starts == starts
        finally:
            for lane in lanes:
                lane.shutdown(wait=False)

    def test_multi_start_winner_is_total_order(self):
        design = design_of(ALU8)
        netlist = synthesize(design)
        cells = netlist.count("LUT") + netlist.count("FF")
        device = device_for(max(cells, 16))
        report = run_flow(design, device=device, seed=1, starts=3)
        candidates = [place(netlist, device, seed=1 + k)
                      for k in range(3)]
        best = min(candidates, key=lambda p: (p.cost, p.seed))
        assert report.placement.seed == best.seed
        assert report.placement.cost == best.cost
        assert report.placement.locations == best.locations

    def test_warm_start_ignores_multi_start_width(self):
        """A warm-started compile quenches from the hint: one start,
        regardless of the configured fan-out."""
        design = design_of(ALU8)
        cache = PlacementCache()
        cold = run_flow(design, placement_cache=cache, starts=2)
        assert cold.starts == 2
        warm = run_flow(design, placement_cache=cache, starts=4)
        assert warm.placement.warm_started
        assert warm.starts == 1


# ----------------------------------------------------------------------
# Success-gated placement store (regression)
# ----------------------------------------------------------------------
class TestPlacementStoreGating:
    def test_failed_flow_does_not_store_placement(self):
        """A placement that missed timing must not seed later warm
        starts (it used to: run_flow stored unconditionally)."""
        cache = PlacementCache()
        design = design_of(ALU16)
        report = run_flow(design, placement_cache=cache)
        assert report.routing.routed
        assert not report.timing.meets_timing
        assert not report.success
        assert cache.stats()["entries"] == 0
        again = run_flow(design, placement_cache=cache)
        assert not again.placement.warm_started

    def test_routing_overflow_does_not_store_placement(self):
        cache = PlacementCache()
        design = design_of(ALU8)
        netlist = synthesize(design)
        cells = netlist.count("LUT") + netlist.count("FF")
        starved = device_for(max(cells, 16))
        starved = Device(name="starved", width=starved.width,
                         height=starved.height,
                         channel_capacity=1)
        report = run_flow(design, device=starved, placement_cache=cache)
        if report.routing.routed:
            pytest.skip("design routed even at channel capacity 1")
        assert cache.stats()["entries"] == 0

    def test_successful_flow_stores_placement(self):
        cache = PlacementCache()
        design = design_of(ALU8)
        report = run_flow(design, placement_cache=cache)
        assert report.success
        assert cache.stats()["entries"] == 1
        warm = run_flow(design, placement_cache=cache)
        assert warm.placement.warm_started


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
class TestEnvKnobs:
    def test_compile_workers_override(self, monkeypatch):
        monkeypatch.setenv("CASCADE_COMPILE_WORKERS", "3")
        assert _default_flow_workers() == 3
        queue = CompileQueue(kind="process")
        assert queue.max_workers == 3

    def test_compile_workers_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("CASCADE_COMPILE_WORKERS", raising=False)
        assert _default_flow_workers() == max(1, os.cpu_count() or 1)

    def test_compile_workers_bad_value_falls_back(self, monkeypatch):
        monkeypatch.setenv("CASCADE_COMPILE_WORKERS", "lots")
        assert _default_flow_workers() == max(1, os.cpu_count() or 1)

    def test_place_starts_override(self, monkeypatch):
        monkeypatch.setenv("CASCADE_PLACE_STARTS", "2")
        assert default_place_starts() == 2
        monkeypatch.setenv("CASCADE_PLACE_STARTS", "0")
        assert default_place_starts() == 1  # clamped

    def test_place_starts_default_capped(self, monkeypatch):
        monkeypatch.delenv("CASCADE_PLACE_STARTS", raising=False)
        assert 1 <= default_place_starts() <= 4


# ----------------------------------------------------------------------
# End to end through the compile service
# ----------------------------------------------------------------------
_CANDIDATE = flow._pr_candidate


def _killed_once(marker, *args):
    """A flow candidate whose first run SIGKILLs the worker process
    running it, mid-candidate; every later run (the inline retry
    included) is the real candidate."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return _CANDIDATE(*args)


class TestServiceFlowLane:
    def _service(self, flow_queue, place_starts=2):
        return CompileService(full_flow_max_luts=10_000,
                              queue=CompileQueue(max_workers=0),
                              flow_queue=flow_queue,
                              place_starts=place_starts)

    def test_process_lane_matches_inline(self):
        sub = Subprogram("t", parse_module(ALU8), False, "alu8", {})
        inline = self._service(CompileQueue(max_workers=0))
        process = self._service(
            CompileQueue(max_workers=2, kind="process"))
        try:
            job_a = inline.submit(sub, now_s=0.0)
            job_b = process.submit(sub, now_s=0.0)
            assert job_a.resources == job_b.resources
            assert job_a.error is None and job_b.error is None
            hints_a = list(inline.placements._entries.values())
            hints_b = list(process.placements._entries.values())
            assert hints_a == hints_b and len(hints_a) == 1
            stats = process.stats()["flow_lane"]
            assert stats["place_starts"] == 2
            assert stats["submitted"] >= 2  # one per start
        finally:
            process.flow_queue.shutdown(wait=False)

    def test_degraded_lane_still_correct(self):
        """A process lane that falls back to threads (sandboxes without
        fork/semaphores) must produce the same answer."""
        lane = CompileQueue(max_workers=1, kind="process")
        lane.kind = "thread"  # simulate the post-degrade state
        lane.degraded = True
        try:
            design = design_of(ALU8)
            report = run_flow(design, starts=2, pool=lane)
            baseline = run_flow(design, starts=2, pool=None)
            assert placement_key(report.placement) == \
                placement_key(baseline.placement)
            assert lane.stats()["degraded"]
        finally:
            lane.shutdown(wait=False)

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                        reason="needs SIGKILL")
    def test_killed_worker_restarts_process_lane(self, monkeypatch,
                                                 tmp_path):
        """A SIGKILLed worker costs one counted inline retry; the next
        submit replaces the broken pool with a fresh process pool
        instead of degrading the lane to threads."""
        sub = Subprogram("t", parse_module(ALU8), False, "alu8", {})
        inline = self._service(CompileQueue(max_workers=0), 1)
        want = inline.submit(sub, now_s=0.0)
        lane = CompileQueue(max_workers=1, kind="process")
        monkeypatch.setattr(flow, "_pr_candidate", functools.partial(
            _killed_once, str(tmp_path / "killed")))
        try:
            first = self._service(lane, 1)
            job = first.submit(sub, now_s=0.0)
            assert (tmp_path / "killed").exists()
            assert job.error is None
            assert job.resources == want.resources
            assert list(first.placements._entries.values()) == \
                list(inline.placements._entries.values())
            assert first.stats()["flow_candidate_retries"] == 1

            second = self._service(lane, 1)
            again = second.submit(sub, now_s=0.0)
            assert again.error is None
            assert again.resources == want.resources
            assert second.stats()["flow_candidate_retries"] == 0
            stats = second.stats()["flow_lane"]
            assert stats["kind"] == "process"
            assert not stats["degraded"]
            assert stats["restarts"] == 1
        finally:
            lane.shutdown(wait=False)
