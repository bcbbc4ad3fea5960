"""The data/control plane (§3.3–3.4).

Subprograms communicate exclusively through named nets; the plane owns
the net values and routes output changes from driver engines to reader
engines.  It also charges the performance model for every message that
crosses the software/hardware boundary — the communication cost that
inlining (§4.2), ABI forwarding (§4.3) and open-loop scheduling (§4.4)
each remove.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..common.bits import Bits
from ..ir.build import IRProgram
from ..perf.timemodel import TimeModel
from .abi import HARDWARE, Engine

__all__ = ["DataPlane"]

#: One reader of a net: (engine, input port, is hardware, route index).
_Reader = Tuple[Engine, str, bool, int]


class DataPlane:
    """Routes value changes between engines over the IR's nets.

    :meth:`bind` resolves the routes against the scheduled engines once
    per engine-set change: for each engine, in ``engines`` order, a map
    from output port to ``(net, readers)``.  Each route carries a dirty
    flag — set by the scheduler for engines it evaluated or updated,
    by :meth:`propagate` for engines it wrote to, and for every engine
    by :meth:`mark_all` — so a propagate drains only engines whose
    outputs may have changed since their last drain.
    """

    def __init__(self, program: IRProgram, time_model: TimeModel):
        self.program = program
        self.time_model = time_model
        self.values: Dict[str, Bits] = {
            name: Bits.xes(net.width) for name, net in program.nets.items()}
        # net -> [(subprogram name, port)]
        self.readers: Dict[str, List[Tuple[str, str]]] = {
            name: [] for name in program.nets}
        for sub in program.subprograms.values():
            for port, (net, direction) in sub.bindings.items():
                if direction == "in":
                    self.readers.setdefault(net, []).append(
                        (sub.name, port))
        self.messages_sent = 0
        #: Per bound engine, in scheduling order: (engine, is hardware,
        #: output port -> (net, readers)).
        self._routes: List[Tuple[Engine, bool,
                                 Dict[str, Tuple[str,
                                                 Tuple[_Reader, ...]]]]] = []
        #: Parallel to the routes: outputs may have changed.
        self.dirty: List[bool] = []

    def bind(self, engines: Dict[str, Engine], absorbed: Set[str]) -> None:
        """Resolve routes for every engine not absorbed by ABI
        forwarding — the plane neither polls nor delivers to those —
        and mark them all dirty.  Route ``i`` is the ``i``-th such
        engine in ``engines`` order."""
        index = {name: i for i, name in enumerate(
            n for n in engines if n not in absorbed)}
        routes = []
        for name, i in index.items():
            engine = engines[name]
            ports = {}
            for port, (net, direction) in \
                    self.program.subprograms[name].bindings.items():
                if direction != "out":
                    continue
                readers = tuple(
                    (engines[r], r_port, engines[r].location == HARDWARE,
                     index[r])
                    for r, r_port in self.readers.get(net, ())
                    if r in index)
                ports[port] = (net, readers)
            routes.append((engine, engine.location == HARDWARE, ports))
        self._routes = routes
        self.dirty[:] = [True] * len(routes)

    def mark_all(self) -> None:
        """Every bound engine's outputs may have changed."""
        dirty = self.dirty
        for i in range(len(dirty)):
            dirty[i] = True

    # ------------------------------------------------------------------
    def _charge(self, hardware: bool) -> None:
        self.messages_sent += 1
        if hardware:
            self.time_model.charge_mmio()
        else:
            self.time_model.charge_sw_events(0)  # heap-local, ~free

    def propagate(self) -> bool:
        """Drain output changes from every dirty engine, in scheduling
        order, and deliver them to readers.  A reader written here is
        drained later in the same call when it comes after the writer,
        else by the next call.  Returns True when any message was
        delivered."""
        delivered = False
        dirty = self.dirty
        values = self.values
        charge = self._charge
        for i, route in enumerate(self._routes):
            if not dirty[i]:
                continue
            dirty[i] = False
            engine, hardware, ports = route
            changed = engine.drain_output_changes()
            if not changed:
                continue
            for port in changed:
                target = ports.get(port)
                if target is None:
                    continue
                net, readers = target
                value = engine.read(port)
                old = values.get(net)
                if old is not None and old.aval == value.aval \
                        and old.bval == value.bval:
                    charge(hardware)
                    continue
                if self.deliver(hardware, net, value, readers):
                    delivered = True
        return delivered

    def deliver(self, hardware: bool, net: str, value: Bits,
                readers: Tuple[_Reader, ...]) -> bool:
        """Send a changed output to its net's readers: one message from
        the driver (``hardware`` when it is on the fabric), one to each
        reader, each charged.  Returns True when there was a reader."""
        charge = self._charge
        charge(hardware)
        self.values[net] = value
        dirty = self.dirty
        for reader, reader_port, reader_hw, j in readers:
            charge(reader_hw)
            reader.write(reader_port, value)
            dirty[j] = True
        return bool(readers)

    def readers_of(self, route: int, port: str
                   ) -> Tuple[str, Tuple[_Reader, ...]]:
        """The net bound route ``route``'s output ``port`` drives, and
        that net's bound readers."""
        return self._routes[route][2][port]
