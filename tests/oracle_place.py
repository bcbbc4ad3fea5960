"""The original placement annealer, kept as a test oracle.

This is the dict-of-lists kernel the placer used before it was
rewritten as an incremental array kernel: it rebuilds the coordinate
list of every net a move touches and recomputes its half-perimeter
wirelength from scratch.  It shares the initial placement and cooling
schedule with :func:`repro.backend.place.place`, draws the same
random-number sequence and makes the same accept/reject decisions, so
the two must produce identical placements — the differential check in
``tests/test_flow_parallel.py``.  ``benchmarks/bench_flow.py`` also runs
it as the pre-rewrite baseline arm.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.backend.fabric import Device
from repro.backend.netlist import Netlist
from repro.backend.place import (Coord, Placement, _initial_locations,
                                 _net_bboxes, _schedule)

__all__ = ["place_reference"]


def _hpwl(cells: List[str], locations: Dict[str, Coord]) -> int:
    """Half-perimeter wirelength of one net."""
    xs = [locations[c][0] for c in cells]
    ys = [locations[c][1] for c in cells]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def place_reference(netlist: Netlist, device: Device, seed: int = 1,
                    effort: float = 1.0,
                    initial: Optional[Dict[str, Coord]] = None
                    ) -> Placement:
    """Anneal like :func:`repro.backend.place.place`, rebuilding each
    affected net's coordinate list on every move."""
    rng = random.Random(seed)
    locations, placeable, free_sites, warm_started = \
        _initial_locations(netlist, device, rng, initial)

    nets = _net_bboxes(netlist)
    nets = [[c for c in net if c in locations] for net in nets]
    nets = [net for net in nets if len(net) > 1]
    cell_nets: Dict[str, List[int]] = {}
    for i, net in enumerate(nets):
        for c in net:
            cell_nets.setdefault(c, []).append(i)
    net_costs = [_hpwl(net, locations) for net in nets]
    cost = float(sum(net_costs))

    n = max(len(placeable), 1)
    moves_total, temperature, cooling, moves_per_temp = \
        _schedule(cost, n, effort, warm_started)
    tried = accepted = 0

    def delta_for(cells_moved: List[str]) -> float:
        affected = set()
        for c in cells_moved:
            affected.update(cell_nets.get(c, ()))
        old = sum(net_costs[i] for i in affected)
        new = sum(_hpwl(nets[i], locations) for i in affected)
        for i in affected:
            net_costs[i] = _hpwl(nets[i], locations)
        return new - old

    def undo(saved: List[Tuple[str, Coord]]) -> None:
        for c, loc in saved:
            locations[c] = loc

    while tried < moves_total and temperature > 0.005:
        for _ in range(min(moves_per_temp, moves_total - tried)):
            tried += 1
            a = rng.choice(placeable)
            free_swap = None  # (index, previous free site)
            if free_sites and rng.random() < 0.3:
                idx = rng.randrange(len(free_sites))
                site = free_sites[idx]
                saved = [(a, locations[a])]
                free_swap = (idx, site)
                free_sites[idx] = locations[a]
                locations[a] = site
                swapped = None
            else:
                b = rng.choice(placeable)
                if a == b:
                    continue
                saved = [(a, locations[a]), (b, locations[b])]
                locations[a], locations[b] = locations[b], locations[a]
                swapped = b
            moved = [a] + ([swapped] if swapped else [])
            delta = delta_for(moved)
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                cost += delta
                accepted += 1
            else:
                undo(saved)
                if free_swap is not None:
                    free_sites[free_swap[0]] = free_swap[1]
                delta_for(moved)  # restore cached net costs
        temperature *= cooling

    return Placement(locations, cost, tried, accepted, warm_started,
                     seed=seed)
