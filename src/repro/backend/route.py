"""Global routing over the fabric's channel grid.

Each placed net is split into two-pin connections (driver -> sink), and
each connection takes the cheaper of its two L-shaped paths through
horizontal and vertical channel segments of bounded capacity.  A
segment costs more as it fills past capacity and as it stays congested
across iterations (its history), and every connection is re-routed
against those costs for up to four rounds — a light negotiated-
congestion loop.  Overflow left after the last round is reported in the
result (``routed`` is false), which fails the compile: like timing
failure, one of the "later phases of JIT compilation" that
functionally-correct programs can still fail (§6.4).

The kernel works on integers.  A segment is an index into flat
``usage`` and ``history`` lists, each connection's two paths are index
lists built once, and path costs are compared doubled so they stay
integers.  The original tuple-and-dict router with float costs is kept
as a differential test oracle in ``tests/oracle_route.py``; the two
must agree on every result field.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .fabric import Device
from .netlist import Netlist
from .place import Placement

__all__ = ["RoutingResult", "route"]

Coord = Tuple[int, int]


class RoutingResult:
    def __init__(self, wirelength: int, max_congestion: int,
                 overflow_segments: int, iterations: int):
        self.wirelength = wirelength
        self.max_congestion = max_congestion
        self.overflow_segments = overflow_segments
        self.iterations = iterations

    @property
    def routed(self) -> bool:
        return self.overflow_segments == 0


def _paths(w: int, h: int, a: Coord, b: Coord
           ) -> Tuple[List[int], Optional[List[int]]]:
    """The two L paths from a to b as segment indices: horizontal-first,
    then vertical-first (None when the pin is straight and the two
    coincide).  Horizontal segment (x, y) is ``y*w + x``; vertical
    segment (x, y) is ``w*h + y*w + x``."""
    (ax, ay), (bx, by) = a, b
    x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
    y0, y1 = (ay, by) if ay <= by else (by, ay)
    v = w * h
    h_first = list(range(ay * w + x0, ay * w + x1))
    h_first += range(v + y0 * w + bx, v + y1 * w + bx, w)
    if ax == bx or ay == by:
        return h_first, None
    v_first = list(range(v + y0 * w + ax, v + y1 * w + ax, w))
    v_first += range(by * w + x0, by * w + x1)
    return h_first, v_first


def _pins(netlist: Netlist, placement: Placement
          ) -> List[Tuple[Coord, Coord]]:
    """Two-pin connections: driver -> each placed sink, in net order."""
    pins: List[Tuple[Coord, Coord]] = []
    table = netlist.nets()
    for name, net in table.items():
        if name not in placement.locations:
            continue
        cell = netlist.cells[name]
        if cell.kind == "CONST":
            continue  # constants are implemented in-LUT
        src = placement.locations[name]
        for sink in net.sinks:
            if sink.startswith("out:"):
                continue
            dst = placement.locations.get(sink)
            if dst is None or dst == src:
                continue
            pins.append((src, dst))
    return pins


def route(netlist: Netlist, placement: Placement, device: Device,
          max_iterations: int = 4) -> RoutingResult:
    """Route all nets; returns congestion statistics."""
    # Each pin has exactly two candidate L paths, and both depend only
    # on the placement — which never changes across negotiation
    # iterations.  Build them once; a straight pin has one path.
    w, h = device.width, device.height
    candidates = [_paths(w, h, src, dst)
                  for src, dst in _pins(netlist, placement)]
    capacity = device.channel_capacity
    n_segs = 2 * w * h
    history = [0] * n_segs
    # A segment's cost, doubled so it stays an integer:
    # 2 + history + 8 * max(0, usage + 1 - capacity).
    base = 8 * max(0, 1 - capacity)

    iterations = 0
    usage: List[int] = []
    for iteration in range(max_iterations):
        iterations = iteration + 1
        usage = [0] * n_segs
        seg_cost = [2 + base + hist for hist in history]
        cost_of = seg_cost.__getitem__
        for path_x, path_y in candidates:
            if path_y is not None and \
                    sum(map(cost_of, path_x)) > sum(map(cost_of, path_y)):
                path_x = path_y
            for s in path_x:
                u = usage[s] + 1
                usage[s] = u
                if u >= capacity:
                    seg_cost[s] += 8
        overflow = False
        for s, u in enumerate(usage):
            if u > capacity:
                history[s] += 1
                overflow = True
        if not overflow:
            break

    wirelength = sum(usage)
    max_congestion = max(usage, default=0)
    overflow_segments = sum(1 for u in usage if u > capacity)
    return RoutingResult(wirelength, max_congestion, overflow_segments,
                         iterations)
