"""Static timing analysis over a placed netlist.

Levelizes the LUT network (paths break at flip-flops and inputs),
charges one LUT delay per level plus wire delay proportional to the
placed Manhattan distance of each hop, and reports the critical path
and the resulting Fmax.  A design whose Fmax falls below the device
clock fails timing closure — the §6.4 failure mode students hit when
"submissions which ran correctly in simulation did not pass timing
closure during the later phases of JIT compilation".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.errors import TimingError
from .fabric import Device
from .netlist import Netlist
from .place import Placement

__all__ = ["TimingReport", "analyze_timing"]


class TimingReport:
    def __init__(self, critical_path_ns: float, fmax_mhz: float,
                 levels: int, device: Device):
        self.critical_path_ns = critical_path_ns
        self.fmax_mhz = fmax_mhz
        self.levels = levels
        self.device = device

    @property
    def meets_timing(self) -> bool:
        return self.fmax_mhz >= self.device.clock_mhz

    def check(self) -> None:
        if not self.meets_timing:
            raise TimingError(
                f"design Fmax {self.fmax_mhz:.1f} MHz is below the "
                f"{self.device.clock_mhz:.1f} MHz fabric clock")

    def __repr__(self) -> str:
        return (f"TimingReport(cp={self.critical_path_ns:.2f}ns, "
                f"fmax={self.fmax_mhz:.1f}MHz, levels={self.levels})")


def _wire_ns(a, b, device: Device) -> float:
    if a is None or b is None:
        return device.wire_delay_ns_per_hop
    hops = abs(a[0] - b[0]) + abs(a[1] - b[1])
    return hops * device.wire_delay_ns_per_hop


def analyze_timing(netlist: Netlist, placement: Optional[Placement],
                   device: Device) -> TimingReport:
    """Longest register-to-register (or IO-bounded) path."""
    locations = placement.locations if placement is not None else {}
    arrival: Dict[str, float] = {}
    levels: Dict[str, int] = {}

    # Topological evaluation of arrival times at LUT outputs.
    order: List[str] = []
    visiting: Dict[str, int] = {}

    def visit(name: str) -> None:
        state = visiting.get(name, 0)
        if state == 2:
            return
        if state == 1:
            raise TimingError(f"combinational loop through {name!r}")
        visiting[name] = 1
        cell = netlist.cells[name]
        if cell.kind == "LUT":
            for f in cell.fanin:
                visit(f)
        visiting[name] = 2
        order.append(name)

    for name, cell in netlist.cells.items():
        if cell.kind == "LUT":
            visit(name)
        else:
            visiting[name] = 2
            order.append(name)

    worst = 0.0
    worst_levels = 0
    for name in order:
        cell = netlist.cells[name]
        if cell.kind in ("INPUT", "CONST", "FF"):
            arrival[name] = 0.0
            levels[name] = 0
            continue
        if cell.kind != "LUT":
            continue
        t = 0.0
        lv = 0
        here = locations.get(name)
        for f in cell.fanin:
            wire = _wire_ns(locations.get(f), here, device)
            t = max(t, arrival.get(f, 0.0) + wire)
            lv = max(lv, levels.get(f, 0))
        arrival[name] = t + device.lut_delay_ns
        levels[name] = lv + 1

    # Paths terminate at FF D pins and outputs.
    for name, cell in netlist.cells.items():
        if cell.kind == "FF":
            d = cell.fanin[0]
            t = arrival.get(d, 0.0) + _wire_ns(
                locations.get(d), locations.get(name), device) \
                + device.setup_ns
            if t > worst:
                worst = t
                worst_levels = levels.get(d, 0)
    for port, src in netlist.outputs.items():
        t = arrival.get(src, 0.0) + device.setup_ns
        if t > worst:
            worst = t
            worst_levels = levels.get(src, 0)
    worst = max(worst, device.lut_delay_ns + device.setup_ns)
    fmax = 1_000.0 / worst
    return TimingReport(worst, fmax, worst_levels, device)
