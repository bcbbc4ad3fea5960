"""Cascade's distributed-system IR (paper §3.3, Figure 4).

The IR expresses the user's program as a set of stand-alone Verilog
subprograms — one per module instance (or one per *group* of inlined
instances, §4.2) — that communicate only over named nets routed by the
runtime's data/control plane.

The transformation is guided entirely by the syntax of Verilog:

* a static analysis identifies variables accessed by modules other than
  the one they are declared in (hierarchical reads such as ``r.y``,
  hierarchical writes to child input ports such as ``led.val``, and the
  expressions connected to instantiation ports);
* those variables are promoted to input/output ports with flattened
  names (``r.y`` becomes ``r_y``), giving the invariant that no
  subprogram names a variable outside its own syntactic scope;
* nested instantiations are replaced by continuous assignments, so the
  logical hierarchy becomes a flat set of peer subprograms.

Because Verilog has no pointers and no dynamic module allocation, the
analysis is tractable, sound and complete — exactly the property the
paper relies on (§3.3, §3.5).

Standard-library components (Clock, Led, FIFO, ...) are *external*:
they are never inlined, and their subprograms are realised by
pre-compiled engines (:mod:`repro.stdlib.engines`) rather than by
compiling their Verilog.

This is the repository's only hierarchy flattener.  The runtime builds
its program here, and :func:`flatten` serves the standalone simulator
(:mod:`repro.interp.sim`): with every instance inlined, a hierarchy is
one subprogram that :func:`~repro.verilog.elaborate.elaborate_leaf`
turns into a design.  Instance parameters are bound and ranges resolved
with the leaf elaborator's own rules.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..common.bits import Bits
from ..common.errors import ElaborationError, TypeError_
from ..verilog import ast
from ..verilog.elaborate import (Design, ModuleLibrary, bind_params,
                                 elaborate_leaf, resolve_range, subst_params)
from ..verilog.eval import const_eval
from ..verilog.visitor import lvalue_idents, map_exprs, walk

__all__ = ["Instance", "Net", "Subprogram", "IRProgram", "build_ir",
           "flatten", "instance_var_table", "VarSig"]


class VarSig:
    """Width/signedness signature of one variable inside an instance."""

    __slots__ = ("width", "signed", "direction", "is_array", "net_kind",
                 "msb", "lsb")

    def __init__(self, width: int, signed: bool,
                 direction: Optional[str] = None, is_array: bool = False,
                 net_kind: str = "wire", msb: int = 0, lsb: int = 0):
        self.width = width
        self.signed = signed
        self.direction = direction
        self.is_array = is_array
        self.net_kind = net_kind
        self.msb = msb   # the declared range, kept so bit selects such
        self.lsb = lsb   # as ``a[1]`` of ``[8:1] a`` survive flattening


def instance_var_table(module: ast.Module,
                       params: Dict[str, Bits]) -> Dict[str, VarSig]:
    """Variable signatures for one instance (ports and nets)."""
    table: Dict[str, VarSig] = {}
    for port in module.ports:
        width, msb, lsb = resolve_range(port.range_, params,
                                        f"port {port.name!r}")
        table[port.name] = VarSig(width, port.signed, port.direction,
                                  False, port.net_kind, msb, lsb)
    for item in module.items:
        if not isinstance(item, ast.NetDecl):
            continue
        width, msb, lsb = (32, 31, 0) if item.kind == "integer" else \
            resolve_range(item.range_, params, f"declaration at {item.loc}")
        kind = "reg" if item.kind in ("reg", "integer", "genvar") \
            else "wire"
        for decl in item.decls:
            sig = table.get(decl.name)
            if sig is None:
                table[decl.name] = VarSig(width, item.signed, None,
                                          bool(decl.dims), kind, msb, lsb)
                continue
            if kind == "reg":
                sig.net_kind = "reg"
            if sig.direction is not None and item.range_ is not None:
                # A non-ANSI redeclaration sets a port's width, as in
                # elaborate_leaf.
                sig.width, sig.msb, sig.lsb = width, msb, lsb
            sig.signed = sig.signed or item.signed
    return table


class Instance:
    """One node of the resolved instance tree."""

    def __init__(self, path: Tuple[str, ...], module: ast.Module,
                 params: Dict[str, Bits], external: bool,
                 parent: Optional["Instance"],
                 connections: Dict[str, Optional[ast.Expr]]):
        self.path = path
        self.module = module
        self.params = params
        self.external = external
        self.parent = parent
        self.connections = connections  # port -> expr in parent's scope
        self.children: Dict[str, "Instance"] = {}
        self.vars = instance_var_table(module, params)

    def resolve(self, parts: Sequence[str]
                ) -> Optional[Tuple["Instance", str]]:
        """Resolve a (possibly hierarchical) name from this instance:
        returns (owning instance, variable name) or None."""
        node: Instance = self
        for i, part in enumerate(parts):
            rest = parts[i:]
            if len(rest) == 1:
                if part in node.vars:
                    return node, part
                return None
            if part in node.children:
                node = node.children[part]
            else:
                return None
        return None


class Net:
    """A single-driver, multi-reader channel between subprograms."""

    __slots__ = ("name", "width", "signed", "driver", "readers")

    def __init__(self, name: str, width: int, signed: bool = False):
        self.name = name
        self.width = width
        self.signed = signed
        self.driver: Optional[str] = None     # subprogram name
        self.readers: List[str] = []

    def __repr__(self) -> str:
        return (f"Net({self.name}[{self.width}] "
                f"{self.driver}->{self.readers})")


class Subprogram:
    """One stand-alone Verilog subprogram plus its net bindings."""

    def __init__(self, name: str, module_ast: Optional[ast.Module],
                 external: bool, source_module: str,
                 params: Dict[str, Bits]):
        self.name = name
        self.module_ast = module_ast
        self.external = external
        self.source_module = source_module
        self.params = params
        # port name -> (net name, "in" | "out")
        self.bindings: Dict[str, Tuple[str, str]] = {}

    def __repr__(self) -> str:
        return f"Subprogram({self.name}, module={self.source_module})"


class IRProgram:
    """The complete IR: subprograms plus the nets that connect them."""

    def __init__(self):
        self.subprograms: Dict[str, Subprogram] = {}
        self.nets: Dict[str, Net] = {}

    def add(self, sub: Subprogram) -> None:
        self.subprograms[sub.name] = sub

    def net(self, name: str, width: int, signed: bool = False) -> Net:
        if name not in self.nets:
            self.nets[name] = Net(name, width, signed)
        return self.nets[name]

    def bind(self, sub: Subprogram, port: str, net: Net,
             direction: str) -> None:
        sub.bindings[port] = (net.name, direction)
        if direction == "out":
            if net.driver is not None and net.driver != sub.name:
                raise ElaborationError(
                    f"net {net.name!r} has two drivers: {net.driver} "
                    f"and {sub.name}")
            net.driver = sub.name
        else:
            if sub.name not in net.readers:
                net.readers.append(sub.name)

    def user_subprograms(self) -> List[Subprogram]:
        return [s for s in self.subprograms.values() if not s.external]

    def external_subprograms(self) -> List[Subprogram]:
        return [s for s in self.subprograms.values() if s.external]


# ----------------------------------------------------------------------
# Instance tree construction
# ----------------------------------------------------------------------
def _build_tree(root_module: ast.Module, library: ModuleLibrary,
                external: Set[str]) -> Instance:
    def build(path: Tuple[str, ...], module: ast.Module,
              overrides: Dict[str, Bits], parent: Optional[Instance],
              connections: Dict[str, Optional[ast.Expr]],
              depth: int) -> Instance:
        if depth > 64:
            raise ElaborationError("instantiation depth exceeds 64",
                                   module.loc)
        params = bind_params(module, overrides)
        inst = Instance(path, module, params,
                        module.name in external, parent, connections)
        if inst.external:
            return inst
        for item in module.items:
            if not isinstance(item, ast.Instantiation):
                continue
            child_mod = library.get(item.module_name, item.loc)
            child_overrides = _eval_overrides(item, child_mod, params)
            conns = _map_connections(item, child_mod)
            if item.inst_name in inst.children:
                raise ElaborationError(
                    f"duplicate instance name {item.inst_name!r}",
                    item.loc)
            inst.children[item.inst_name] = build(
                path + (item.inst_name,), child_mod, child_overrides,
                inst, conns, depth + 1)
        return inst

    return build((), root_module, {}, None, {}, 0)


def _eval_overrides(item: ast.Instantiation, child: ast.Module,
                    params: Dict[str, Bits]) -> Dict[str, Bits]:
    """The child's parameter overrides, evaluated in the parent's
    constant context (unknown names are rejected by bind_params)."""
    overrides: Dict[str, Bits] = {}
    if not item.param_overrides:
        return overrides
    names = [i.name for i in child.items
             if isinstance(i, ast.ParamDecl) and not i.local]
    positional = [c for c in item.param_overrides if c.name is None]
    if positional and len(positional) != len(item.param_overrides):
        raise ElaborationError(
            "cannot mix positional and named parameter overrides",
            item.loc)
    if len(positional) > len(names):
        raise ElaborationError(
            f"too many parameter overrides for {item.module_name!r}",
            item.loc)
    pairs = zip(names, positional) if positional else \
        ((c.name, c) for c in item.param_overrides)
    for name, conn in pairs:
        if conn.expr is None:
            continue
        expr = subst_params(copy.deepcopy(conn.expr), params)
        overrides[name] = const_eval(expr)
    return overrides


def _map_connections(item: ast.Instantiation, child: ast.Module
                     ) -> Dict[str, Optional[ast.Expr]]:
    """Child port name -> connected expression in the parent's scope."""
    port_names = [p.name for p in child.ports]
    conns: Dict[str, Optional[ast.Expr]] = {}
    positional = [c for c in item.connections if c.name is None]
    if positional and len(positional) != len(item.connections):
        raise ElaborationError(
            "cannot mix positional and named connections", item.loc)
    if positional:
        if len(positional) > len(port_names):
            raise ElaborationError(
                f"too many connections for {item.module_name!r}", item.loc)
        for name, conn in zip(port_names, positional):
            conns[name] = conn.expr
    else:
        for conn in item.connections:
            if conn.name not in port_names:
                raise ElaborationError(
                    f"module {item.module_name!r} has no port "
                    f"{conn.name!r}", conn.loc)
            conns[conn.name] = conn.expr
    return conns


# ----------------------------------------------------------------------
# Group building
# ----------------------------------------------------------------------
def _collect_instances(root: Instance) -> List[Instance]:
    out = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children.values():
            out.append(child)
            stack.append(child)
    return out


def _group_of(inst: Instance, inlined: bool) -> Instance:
    """The group leader for an instance: itself at module granularity or
    when external; the highest non-external ancestor when inlining."""
    if inst.external or not inlined:
        return inst
    node = inst
    while node.parent is not None and not node.parent.external:
        node = node.parent
    return node


def _sub_name(inst: Instance) -> str:
    return ".".join(inst.path) if inst.path else "main"


def _net_name(inst: Instance, var: str) -> str:
    return f"{_sub_name(inst)}.{var}"


def _num(value: int) -> ast.Number:
    bits = Bits.from_int(value, max(32, value.bit_length() + 1), True)
    return ast.Number(bits, str(value), False)


def _range(sig: VarSig) -> Optional[ast.Range]:
    """A signature's declared range as constants (none for ``[0:0]``)."""
    if sig.msb == sig.lsb == 0:
        return None
    return ast.Range(_num(sig.msb), _num(sig.lsb))


def _is_lvalue(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Ident):
        return True
    if isinstance(expr, (ast.IndexExpr, ast.RangeExpr)):
        return _is_lvalue(expr.base)
    if isinstance(expr, ast.Concat):
        return all(_is_lvalue(p) for p in expr.parts)
    return False


class _GroupBuilder:
    """Builds the transformed stand-alone module for one group."""

    def __init__(self, program: IRProgram, leader: Instance,
                 members: List[Instance]):
        self.program = program
        self.leader = leader
        self.member_set = {id(m) for m in members}
        self.used_names: Set[str] = set()
        self.local_names: Dict[Tuple[int, str], str] = {}
        self.ports: List[ast.Port] = []
        self.port_dirs: Dict[str, str] = {}
        self.items: List[ast.Item] = []
        # (member id, port) -> a non-leader port's local declarator
        self.port_decls: Dict[Tuple[int, str], ast.Declarator] = {}
        self.sub = Subprogram(_sub_name(leader), None, False,
                              leader.module.name, dict(leader.params))

    # -- naming ---------------------------------------------------------
    def local_name(self, inst: Instance, var: str) -> str:
        key = (id(inst), var)
        if key in self.local_names:
            return self.local_names[key]
        rel = inst.path[len(self.leader.path):]
        base = "_".join((*rel, var)) if rel else var
        name = base
        n = 0
        while name in self.used_names:
            n += 1
            name = f"{base}__{n}"
        self.used_names.add(name)
        self.local_names[key] = name
        return name

    def fresh_name(self, base: str) -> str:
        name = base
        n = 0
        while name in self.used_names:
            n += 1
            name = f"{base}__{n}"
        self.used_names.add(name)
        return name

    # -- port promotion ---------------------------------------------------
    def promote(self, owner: Instance, var: str, direction: str) -> str:
        """Create (or reuse) a promoted port bound to the foreign
        variable's net; returns the local port name."""
        sig = owner.vars[var]
        net = self.program.net(_net_name(owner, var), sig.width,
                               sig.signed)
        for port, (net_name, d) in self.sub.bindings.items():
            if net_name == net.name and d == direction:
                return port
        base = "_".join((*owner.path, var))
        name = self.fresh_name(base)
        io = "output" if direction == "out" else "input"
        self.ports.append(ast.Port(name, io, "wire", sig.signed,
                                   _range(sig)))
        self.port_dirs[name] = io
        self.program.bind(self.sub, name, net, direction)
        return name

    # -- member processing ---------------------------------------------
    def add_member(self, inst: Instance) -> None:
        items = copy.deepcopy(inst.module.items)
        is_leader = inst is self.leader

        # Register this member's names so mangling is deterministic.
        for name in inst.vars:
            self.local_name(inst, name)

        if is_leader:
            # The leader's declared ports remain real subprogram ports.
            for port in copy.deepcopy(inst.module.ports):
                subst_params(port, inst.params)
                sig = inst.vars[port.name]
                if port.range_ is not None:
                    port.range_ = _range(sig)
                self.ports.append(port)
                self.port_dirs[port.name] = port.direction
                net = self.program.net(_net_name(inst, port.name),
                                       sig.width, sig.signed)
                self.program.bind(
                    self.sub, port.name, net,
                    "in" if port.direction == "input" else "out")
        else:
            # Non-leader member: its ports become plain local variables.
            for port in inst.module.ports:
                name = self.local_name(inst, port.name)
                sig = inst.vars[port.name]
                kind = "reg" if sig.net_kind == "reg" else "wire"
                init = None
                if port.init is not None and kind == "reg":
                    init = subst_params(copy.deepcopy(port.init),
                                        inst.params)
                decl = ast.Declarator(name, (), init)
                self.port_decls[(id(inst), port.name)] = decl
                self.items.append(ast.NetDecl(
                    kind, sig.signed, _range(sig), [decl],
                    inst.module.loc))

        for item in items:
            if isinstance(item, ast.ParamDecl):
                continue  # parameters are baked into the source
            if isinstance(item, ast.Instantiation):
                self._lower_instantiation(inst, item)
                continue
            if isinstance(item, ast.FunctionDecl):
                self._process_function(inst, item)
                continue
            subst_params(item, inst.params)
            self._lower_hierarchical_writes(inst, item)
            self._rename(inst, item)
            if isinstance(item, ast.NetDecl):
                self._emit_net_decl(inst, item, is_leader)
            else:
                self.items.append(item)

    def _emit_net_decl(self, inst: Instance, item: ast.NetDecl,
                       is_leader: bool) -> None:
        keep: List[ast.Declarator] = []
        for decl in item.decls:
            if is_leader and decl.name in self.port_dirs:
                # Non-ANSI reg/width redeclaration of a port: keep it so
                # elaborate_leaf merges the attributes.
                keep.append(decl)
                continue
            port_decl = self.port_decls.get((id(inst), decl.name))
            if port_decl is not None:
                # The same redeclaration in a non-leader: the port's
                # local already has the merged signature; it takes only
                # the initializer.
                if decl.init is not None:
                    port_decl.init = decl.init
                continue
            decl.name = self.local_name(inst, decl.name)
            keep.append(decl)
        if keep:
            item.decls = keep
            self.items.append(item)

    def _process_function(self, inst: Instance,
                          item: ast.FunctionDecl) -> None:
        local = {item.name}
        local.update(p.name for p in item.ports)
        for decl_item in item.locals_:
            local.update(d.name for d in decl_item.decls)
        # Ports and locals shadow the module's parameters and variables.
        subst_params(item, inst.params, frozenset(local))
        self._rename(inst, item, frozenset(local))
        old = item.name
        new_name = self.local_name(inst, old)
        if new_name != old:
            # The function's return variable shares its name; keep the
            # convention intact under mangling (recursion included).
            def fix(e: ast.Expr) -> ast.Expr:
                if isinstance(e, ast.Ident) and e.parts == (old,):
                    return ast.Ident((new_name,), e.loc)
                if isinstance(e, ast.Call) and e.name == old:
                    e.name = new_name
                return e
            map_exprs(item, fix)
        item.name = new_name
        self.items.append(item)

    def _lower_instantiation(self, inst: Instance,
                             item: ast.Instantiation) -> None:
        child = inst.children[item.inst_name]
        child_in_group = id(child) in self.member_set
        for port in child.module.ports:
            conn = child.connections.get(port.name)
            if conn is None:
                continue
            expr = subst_params(copy.deepcopy(conn), inst.params)
            if port.direction == "output":
                if not _is_lvalue(expr):
                    raise ElaborationError(
                        f"output port {port.name!r} of "
                        f"{item.inst_name!r} must connect to an l-value",
                        item.loc)
                self._lower_hierarchical_writes_lhs(inst, expr)
            expr = self._rename(inst, expr)
            if child_in_group:
                target: ast.Expr = ast.Ident(
                    (self.local_name(child, port.name),), item.loc)
            else:
                direction = "out" if port.direction == "input" else "in"
                target = ast.Ident(
                    (self.promote(child, port.name, direction),),
                    item.loc)
            if port.direction == "input":
                self.items.append(
                    ast.ContinuousAssign(target, expr, item.loc))
            elif port.direction == "output":
                self.items.append(
                    ast.ContinuousAssign(expr, target, item.loc))
            else:
                raise ElaborationError("inout ports are not supported",
                                       item.loc)

    # -- hierarchical writes ---------------------------------------------
    def _lower_hierarchical_writes(self, inst: Instance,
                                   item: ast.Item) -> None:
        """Rewrite assignment targets that refer to foreign input ports
        (e.g. ``assign led.val = cnt``) into promoted output ports."""
        for node in walk(item):
            if isinstance(node, (ast.ContinuousAssign, ast.BlockingAssign,
                                 ast.NonblockingAssign)):
                self._lower_hierarchical_writes_lhs(inst, node.lhs)

    def _lower_hierarchical_writes_lhs(self, inst: Instance,
                                       lhs: ast.Expr) -> None:
        for ident in lvalue_idents(lhs):
            if len(ident.parts) == 1:
                continue
            resolved = inst.resolve(ident.parts)
            if resolved is None:
                raise TypeError_(
                    f"cannot resolve assignment target {ident.name!r}",
                    ident.loc)
            owner, var = resolved
            if id(owner) in self.member_set:
                continue  # internal: plain rename will handle it
            sig = owner.vars[var]
            if sig.direction != "input":
                raise TypeError_(
                    f"hierarchical write to {ident.name!r} is only "
                    "allowed when the target is an input port", ident.loc)
            port = self.promote(owner, var, "out")
            ident.parts = (port,)

    # -- renaming -----------------------------------------------------------
    def _rename(self, inst: Instance, node: ast.Node,
                exclude: frozenset = frozenset()) -> ast.Node:
        builder = self

        def fn(e: ast.Expr) -> ast.Expr:
            if isinstance(e, ast.Ident):
                if e.parts[0] in exclude:
                    return e
                return builder._rename_ident(inst, e)
            if isinstance(e, ast.Call) and not e.name.startswith("$"):
                if e.name not in exclude:
                    e.name = builder.local_name(inst, e.name)
                return e
            return e

        return map_exprs(node, fn)

    def _rename_ident(self, inst: Instance, e: ast.Ident) -> ast.Expr:
        resolved = inst.resolve(e.parts)
        if resolved is None:
            if len(e.parts) == 1 and e.parts[0] in self.port_dirs:
                # Already lowered to a promoted port (hierarchical
                # write targets are rewritten before renaming).
                return e
            raise TypeError_(
                f"cannot resolve {e.name!r} in {inst.module.name}", e.loc)
        owner, var = resolved
        if id(owner) in self.member_set:
            return ast.Ident((self.local_name(owner, var),), e.loc)
        name = self.promote(owner, var, "in")
        return ast.Ident((name,), e.loc)

    # -- finish -------------------------------------------------------------
    def finish(self) -> Subprogram:
        suffix = "_".join(self.leader.path) if self.leader.path else "root"
        module = ast.Module(f"{self.leader.module.name}__{suffix}",
                            self.ports, self.items,
                            self.leader.module.loc)
        self.sub.module_ast = module
        return self.sub


# ----------------------------------------------------------------------
# External subprograms and undriven-net promotion
# ----------------------------------------------------------------------
def _build_external(program: IRProgram, inst: Instance) -> None:
    """External (stdlib) instance: the subprogram keeps its module
    verbatim; every port binds to a net named after the instance path."""
    sub = Subprogram(_sub_name(inst), copy.deepcopy(inst.module), True,
                     inst.module.name, dict(inst.params))
    for port in inst.module.ports:
        sig = inst.vars[port.name]
        net = program.net(_net_name(inst, port.name), sig.width,
                          sig.signed)
        program.bind(sub, port.name, net,
                     "in" if port.direction == "input" else "out")
    program.add(sub)


def _promote_internal_outputs(program: IRProgram,
                              builders: Dict[str, _GroupBuilder]) -> None:
    """Any net with readers but no driver names an internal variable of
    some user group: expose it there as an extra output port."""
    for net in list(program.nets.values()):
        if net.driver is not None or not net.readers:
            continue
        owner_path, var = net.name.rsplit(".", 1)
        for builder in builders.values():
            leader = builder.leader
            inst = _find_instance(leader, owner_path)
            if inst is None or id(inst) not in builder.member_set:
                continue
            local = builder.local_names.get((id(inst), var))
            if local is None or local in builder.port_dirs:
                continue  # not this group's, or the leader's own input
            sig = inst.vars[var]
            module = builder.sub.module_ast
            module.ports.append(
                ast.Port(local, "output", "wire", sig.signed, _range(sig)))
            program.bind(builder.sub, local, net, "out")
            break


def _find_instance(leader: Instance, path_str: str) -> Optional[Instance]:
    target = () if path_str == "main" else tuple(path_str.split("."))
    if leader.path == target:
        return leader
    if len(target) <= len(leader.path) or \
            target[:len(leader.path)] != leader.path:
        return None
    node = leader
    for part in target[len(leader.path):]:
        child = node.children.get(part)
        if child is None:
            return None
        node = child
    return node


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_ir(root_module: ast.Module, library: ModuleLibrary,
             external: Optional[Set[str]] = None,
             inlined: bool = False) -> IRProgram:
    """Transform a program into the Cascade IR.

    Parameters
    ----------
    root_module:
        The (implicit) root module, including standard-library
        instantiations.
    library:
        All declared modules.
    external:
        Module names realised by pre-compiled engines (the standard
        library).  They become their own subprograms and are never
        inlined into user logic.
    inlined:
        When True, user logic is merged into a single subprogram
        (the §4.2 optimisation, Figure 9.2); when False every instance
        is its own subprogram (the baseline IR, Figure 9.1).
    """
    external = external or set()
    program = IRProgram()
    root = _build_tree(root_module, library, external)
    instances = _collect_instances(root)

    groups: Dict[int, List[Instance]] = {}
    leaders: Dict[int, Instance] = {}
    for inst in instances:
        leader = _group_of(inst, inlined)
        groups.setdefault(id(leader), []).append(inst)
        leaders[id(leader)] = leader

    builders: Dict[str, _GroupBuilder] = {}
    for leader_id, members in groups.items():
        leader = leaders[leader_id]
        if leader.external:
            _build_external(program, leader)
            continue
        builder = _GroupBuilder(program, leader, members)
        for member in sorted(members, key=lambda m: len(m.path)):
            builder.add_member(member)
        program.add(builder.finish())
        builders[builder.sub.name] = builder

    _promote_internal_outputs(program, builders)
    return program


def flatten(top: ast.Module, library: ModuleLibrary) -> Design:
    """Flatten ``top``'s whole hierarchy into one elaborated design (the
    standalone simulator's input); ``%m`` prints ``top``'s name."""
    [sub] = build_ir(top, library, inlined=True).user_subprograms()
    design = elaborate_leaf(sub.module_ast)
    design.name = top.name
    return design
