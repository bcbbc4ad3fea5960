"""Placement by simulated annealing.

Lowering RTL onto fabric "amounts to constraint satisfaction, a known
NP-hard problem" (§1) — this is the stage that makes FPGA compilation
slow, and the reason the JIT has something to hide.  The placer assigns
every LUT/FF cell to a logic element on the device grid and every
INPUT/OUTPUT to a perimeter pad, minimising total half-perimeter
wirelength under an exponential cooling schedule.

The kernel is array-based: cells are integer indices, coordinates live
in flat lists, and every net caches its bounding box.  A move updates
the box of each net it touches in O(1) when the moved cell sat strictly
inside it (the box can only grow) and rescans the net only when the
cell sat on the boundary.  A swap is two single-cell moves: a net
holding one of the two cells saw exactly that cell move and takes the
same update; a net holding both keeps its box and is skipped.  Each
net's member list is deduplicated (a cell can drive two fanin pins of
one sink), so a move visits each of its nets exactly once.  Rejected
moves restore the saved boxes instead of recomputing them.

The original dict-of-lists annealer is kept as a differential test
oracle in ``tests/oracle_place.py``: it draws the same random-number
sequence and makes the same accept/reject decisions, so its placements
must match this kernel's exactly.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from ..common.errors import PlacementError
from .fabric import Device
from .netlist import Netlist

__all__ = ["Placement", "place"]

Coord = Tuple[int, int]


class Placement:
    """A cell -> grid-coordinate assignment plus quality metrics."""

    def __init__(self, locations: Dict[str, Coord], cost: float,
                 moves_tried: int, moves_accepted: int,
                 warm_started: bool = False, seed: Optional[int] = None):
        self.locations = locations
        self.cost = cost
        self.moves_tried = moves_tried
        self.moves_accepted = moves_accepted
        self.warm_started = warm_started
        #: The annealing seed that produced this placement (lets
        #: multi-start winners stay attributable and reproducible).
        self.seed = seed

    def location(self, cell: str) -> Coord:
        return self.locations[cell]


def _net_bboxes(netlist: Netlist) -> List[List[str]]:
    """Each net as the list of cells it touches (driver + sinks)."""
    nets = []
    table = netlist.nets()
    for name, net in table.items():
        cells = [name] + [s for s in net.sinks if not s.startswith("out:")]
        if len(cells) > 1:
            nets.append(cells)
    return nets


def _initial_locations(netlist: Netlist, device: Device, rng: random.Random,
                       initial: Optional[Dict[str, Coord]]
                       ) -> Tuple[Dict[str, Coord], List[str], List[Coord],
                                  bool]:
    """The setup shared with the reference oracle: fit checks, the
    (possibly warm-started) initial placement, perimeter IO pads and the
    free-site pool."""
    placeable = [name for name, cell in netlist.cells.items()
                 if cell.kind in ("LUT", "FF")]
    ios = [name for name, cell in netlist.cells.items()
           if cell.kind == "INPUT"]
    if len(placeable) > device.logic_elements:
        raise PlacementError(
            f"design needs {len(placeable)} logic elements but "
            f"{device.name} has {device.logic_elements}")
    if len(ios) > device.io_pads:
        raise PlacementError(
            f"design needs {len(ios)} pads but {device.name} has "
            f"{device.io_pads}")

    # Initial placement: cells row-major, IOs around the perimeter,
    # constants at the origin corner (they cost no routing in practice).
    locations: Dict[str, Coord] = {}
    sites = [(x, y) for y in range(device.height)
             for x in range(device.width)]
    rng.shuffle(sites)
    warm_started = False
    if initial:
        valid = set(sites)
        claimed = set()
        for cell in placeable:
            loc = initial.get(cell)
            if loc is not None:
                loc = (loc[0], loc[1])
                if loc in valid and loc not in claimed:
                    locations[cell] = loc
                    claimed.add(loc)
        # A seed that covers less than half the cells is noise, not a
        # warm start — fall back to the random initial placement.
        warm_started = len(locations) * 2 > len(placeable)
        if not warm_started:
            locations.clear()
    if warm_started:
        claimed = set(locations.values())
        open_sites = [s for s in sites if s not in claimed]
        rest = [c for c in placeable if c not in locations]
        for cell, site in zip(rest, open_sites):
            locations[cell] = site
        free_sites = open_sites[len(rest):]
    else:
        for cell, site in zip(placeable, sites):
            locations[cell] = site
        free_sites = sites[len(placeable):]
    perimeter = _perimeter(device)
    stride = max(1, len(perimeter) // max(len(ios), 1))
    for i, io in enumerate(ios):
        locations[io] = perimeter[(i * stride) % len(perimeter)]
    for name, cell in netlist.cells.items():
        if cell.kind == "CONST":
            locations[name] = (0, 0)
    return locations, placeable, free_sites, warm_started


def _schedule(cost: float, n: int, effort: float, warm_started: bool
              ) -> Tuple[int, float, float, int]:
    """(move budget, initial temperature, cooling rate, moves/temp)."""
    moves_total = int(effort * 40 * n * max(math.log(n + 1), 1.0))
    # Warm starts begin near a previous optimum: a high initial
    # temperature would only scramble it, so quench instead of melt.
    temp_scale = 0.15 if warm_started else 2.0
    temperature = max(cost / max(n, 1), 1.0) * temp_scale
    return moves_total, temperature, 0.95, max(10 * n, 100)


def place(netlist: Netlist, device: Device, seed: int = 1,
          effort: float = 1.0,
          initial: Optional[Dict[str, Coord]] = None) -> Placement:
    """Anneal a placement; raises :class:`PlacementError` when the
    design does not fit the device.

    ``initial`` warm-starts annealing: cells named in it keep their
    previous grid site (when valid and unclaimed) instead of a random
    one, so a recompile of a near-identical netlist begins near the old
    optimum.  Callers typically combine it with a reduced ``effort``.

    The result is a pure function of ``(netlist, device, seed, effort,
    initial)``: any host (thread, process, inline) produces a
    bit-identical placement.
    """
    rng = random.Random(seed)
    locations, placeable, free_sites, warm_started = \
        _initial_locations(netlist, device, rng, initial)

    # ---- flatten everything the hot loop touches into arrays --------
    names = list(locations)                 # index -> cell name
    index = {name: i for i, name in enumerate(names)}
    loc_x = [locations[name][0] for name in names]
    loc_y = [locations[name][1] for name in names]
    pl_idx = [index[name] for name in placeable]

    net_cells: List[List[int]] = []
    for net in _net_bboxes(netlist):
        # A sink taking this net on two fanin pins is listed twice; the
        # move loop must see each of a cell's nets exactly once.
        members = list(dict.fromkeys(index[c] for c in net if c in index))
        if len(members) > 1:
            net_cells.append(members)
    cell_nets: List[List[int]] = [[] for _ in names]
    for t, members in enumerate(net_cells):
        for c in members:
            cell_nets[c].append(t)

    n_nets = len(net_cells)
    bb_lox = [0] * n_nets
    bb_hix = [0] * n_nets
    bb_loy = [0] * n_nets
    bb_hiy = [0] * n_nets
    net_cost = [0] * n_nets
    for t, members in enumerate(net_cells):
        xs = [loc_x[c] for c in members]
        ys = [loc_y[c] for c in members]
        bb_lox[t], bb_hix[t] = min(xs), max(xs)
        bb_loy[t], bb_hiy[t] = min(ys), max(ys)
        net_cost[t] = (bb_hix[t] - bb_lox[t]) + (bb_hiy[t] - bb_loy[t])
    cost = float(sum(net_cost))

    n = max(len(placeable), 1)
    moves_total, temperature, cooling, moves_per_temp = \
        _schedule(cost, n, effort, warm_started)
    tried = accepted = 0

    # Swap scratch: epoch stamps mark the nets of the second cell, so
    # no set is built per move.
    mark = [0] * n_nets
    epoch = 0
    rng_random = rng.random
    rng_choice = rng.choice
    exp = math.exp

    while tried < moves_total and temperature > 0.005:
        for _ in range(min(moves_per_temp, moves_total - tried)):
            tried += 1
            a = rng_choice(pl_idx)
            ax, ay = loc_x[a], loc_y[a]
            if free_sites and rng_random() < 0.3:
                idx = rng.randrange(len(free_sites))
                nx, ny = free_sites[idx]
                free_sites[idx] = (ax, ay)
                loc_x[a], loc_y[a] = nx, ny
                b = -1
                walks = ((cell_nets[a], ax, ay, nx, ny),)
            else:
                b = rng_choice(pl_idx)
                if a == b:
                    continue
                nx, ny = loc_x[b], loc_y[b]
                loc_x[b], loc_y[b] = ax, ay
                loc_x[a], loc_y[a] = nx, ny
                # A swap is two single-cell moves.  A net joining both
                # cells keeps its box (two members traded places) and
                # is skipped; every other net saw exactly one cell move.
                epoch += 1
                for t in cell_nets[b]:
                    mark[t] = epoch
                a_only = []
                for t in cell_nets[a]:
                    if mark[t] == epoch:
                        mark[t] = 0
                    else:
                        a_only.append(t)
                b_only = [t for t in cell_nets[b] if mark[t] == epoch]
                walks = ((a_only, ax, ay, nx, ny), (b_only, nx, ny, ax, ay))

            # Delta over affected nets, bounding boxes updated in place.
            delta = 0
            touched: List[Tuple[int, int, int, int, int, int]] = []
            for nets, ox, oy, tx, ty in walks:
                for t in nets:
                    lox, hix = bb_lox[t], bb_hix[t]
                    loy, hiy = bb_loy[t], bb_hiy[t]
                    old_cost = net_cost[t]
                    touched.append((t, old_cost, lox, hix, loy, hiy))
                    if lox < ox < hix and loy < oy < hiy:
                        # The moved cell was strictly inside: the box
                        # can only grow, O(1).
                        if tx < lox:
                            lox = tx
                        elif tx > hix:
                            hix = tx
                        if ty < loy:
                            loy = ty
                        elif ty > hiy:
                            hiy = ty
                    else:
                        members = net_cells[t]
                        c0 = members[0]
                        lox = hix = loc_x[c0]
                        loy = hiy = loc_y[c0]
                        for c in members[1:]:
                            x = loc_x[c]
                            if x < lox:
                                lox = x
                            elif x > hix:
                                hix = x
                            y = loc_y[c]
                            if y < loy:
                                loy = y
                            elif y > hiy:
                                hiy = y
                    bb_lox[t], bb_hix[t] = lox, hix
                    bb_loy[t], bb_hiy[t] = loy, hiy
                    new_cost = (hix - lox) + (hiy - loy)
                    net_cost[t] = new_cost
                    delta += new_cost - old_cost

            if delta <= 0 or rng_random() < exp(-delta / temperature):
                cost += delta
                accepted += 1
            else:
                # Reject: restore coordinates and the saved boxes — no
                # recomputation.
                if b < 0:
                    free_sites[idx] = (nx, ny)
                else:
                    loc_x[b], loc_y[b] = nx, ny
                loc_x[a], loc_y[a] = ax, ay
                for t, old_cost, lox, hix, loy, hiy in touched:
                    net_cost[t] = old_cost
                    bb_lox[t], bb_hix[t] = lox, hix
                    bb_loy[t], bb_hiy[t] = loy, hiy
        temperature *= cooling

    out = {name: (loc_x[i], loc_y[i]) for i, name in enumerate(names)}
    return Placement(out, cost, tried, accepted, warm_started, seed=seed)


def _perimeter(device: Device) -> List[Coord]:
    out: List[Coord] = []
    w, h = device.width, device.height
    for x in range(w):
        out.append((x, 0))
        out.append((x, h - 1))
    for y in range(1, h - 1):
        out.append((0, y))
        out.append((w - 1, y))
    return out
