"""The original global router, kept as a test oracle.

This is the router the flow used before it was rewritten over integer
segment arrays: segments are ``("h"|"v", x, y)`` tuples, usage and
history are dicts, and path costs are float sums of ``1.0 + 0.5 *
history + 4.0 * overflow``.  Every term is a multiple of 0.5, so the
sums are exact, and :func:`repro.backend.route.route` (which compares
the same costs doubled, as integers) must pick the same path for every
pin, ties included — the differential check in
``tests/test_flow_parallel.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.backend.fabric import Device
from repro.backend.netlist import Netlist
from repro.backend.place import Placement
from repro.backend.route import Coord, RoutingResult, _pins

__all__ = ["route_reference"]

Segment = Tuple[str, int, int]   # ("h"|"v", x, y)


def _segments(a: Coord, b: Coord, bend_first_x: bool) -> List[Segment]:
    """The channel segments of an L path from a to b."""
    (ax, ay), (bx, by) = a, b
    segs: List[Segment] = []
    if bend_first_x:
        x0, x1 = sorted((ax, bx))
        for x in range(x0, x1):
            segs.append(("h", x, ay))
        y0, y1 = sorted((ay, by))
        for y in range(y0, y1):
            segs.append(("v", bx, y))
    else:
        y0, y1 = sorted((ay, by))
        for y in range(y0, y1):
            segs.append(("v", ax, y))
        x0, x1 = sorted((ax, bx))
        for x in range(x0, x1):
            segs.append(("h", x, by))
    return segs


def route_reference(netlist: Netlist, placement: Placement,
                    device: Device, max_iterations: int = 4
                    ) -> RoutingResult:
    """Route like :func:`repro.backend.route.route`, over tuple segments
    and float costs."""
    candidates: List[Tuple[List[Segment], List[Segment]]] = [
        (_segments(src, dst, True), _segments(src, dst, False))
        for src, dst in _pins(netlist, placement)]

    usage: Dict[Segment, int] = {}
    history: Dict[Segment, int] = {}
    capacity = device.channel_capacity

    iterations = 0
    for iteration in range(max_iterations):
        iterations = iteration + 1
        usage.clear()
        usage_get = usage.get
        history_get = history.get
        for segs_x, segs_y in candidates:
            cost_x = 0.0
            for s in segs_x:
                over = usage_get(s, 0) + 1 - capacity
                cost_x += 1.0 + 0.5 * history_get(s, 0) \
                    + (4.0 * over if over > 0 else 0.0)
            cost_y = 0.0
            for s in segs_y:
                over = usage_get(s, 0) + 1 - capacity
                cost_y += 1.0 + 0.5 * history_get(s, 0) \
                    + (4.0 * over if over > 0 else 0.0)
            for seg in (segs_x if cost_x <= cost_y else segs_y):
                usage[seg] = usage_get(seg, 0) + 1
        overflow = [s for s, u in usage.items() if u > capacity]
        for seg in overflow:
            history[seg] = history_get(seg, 0) + 1
        if not overflow:
            break

    wirelength = sum(usage.values())
    max_congestion = max(usage.values(), default=0)
    overflow_segments = sum(
        1 for u in usage.values() if u > device.channel_capacity)
    return RoutingResult(wirelength, max_congestion, overflow_segments,
                         iterations)
