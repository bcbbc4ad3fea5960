"""Leaf elaboration: one parsed module -> a flat, parameter-free design.

Elaboration turns a single module without instantiations (a Cascade IR
subprogram, or a standalone leaf module) into the :class:`Design` that
engines execute:

* parameter binding and substitution (``#(...)`` overrides),
* range resolution (every width becomes a concrete integer),
* registration of functions, processes and continuous assigns against a
  flat variable table,
* width annotation of every expression (:mod:`repro.verilog.widths`),
  which is where sizing errors such as undeclared names surface.

It does no hierarchy flattening: the paper's Figure 4 transform lives in
:mod:`repro.ir.build` alone, whose ``flatten`` also serves the
standalone simulator.  The IR binds each instance's parameters and
resolves its ranges with this module's :func:`bind_params`,
:func:`resolve_range` and :func:`subst_params`.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.bits import Bits
from ..common.errors import ElaborationError
from . import ast
from .eval import const_eval
from .visitor import map_exprs
from .widths import annotate_design

__all__ = ["Var", "Function", "Design", "ModuleLibrary", "bind_params",
           "resolve_range", "subst_params", "elaborate_leaf"]

MAX_WIDTH = 1 << 20  # sanity bound on declared widths


class Var:
    """One flat variable (net, register or memory) in a design."""

    __slots__ = ("name", "kind", "width", "signed", "msb", "lsb",
                 "direction", "init", "array", "loc")

    def __init__(self, name: str, kind: str, width: int, signed: bool,
                 msb: int, lsb: int, direction: Optional[str] = None,
                 init: Optional[Bits] = None,
                 array: Optional[Tuple[int, int, int]] = None, loc=None):
        self.name = name
        self.kind = kind              # "wire" | "reg"
        self.width = width
        self.signed = signed
        self.msb = msb
        self.lsb = lsb
        self.direction = direction    # "input" | "output" | None
        self.init = init
        self.array = array            # (nwords, msb_index, lsb_index)
        self.loc = loc

    @property
    def is_array(self) -> bool:
        return self.array is not None

    def word_index(self, index: int) -> Optional[int]:
        """Storage offset for a declared array index, or None if out of
        range."""
        assert self.array is not None
        nwords, msb, lsb = self.array
        lo, hi = min(msb, lsb), max(msb, lsb)
        if not lo <= index <= hi:
            return None
        return index - lo

    def default_value(self) -> Bits:
        if self.init is not None:
            return self.init
        if self.kind == "reg":
            return Bits.xes(self.width)
        return Bits.xes(self.width)

    def __repr__(self) -> str:
        return (f"Var({self.name}, {self.kind}, [{self.msb}:{self.lsb}]"
                + (f", array={self.array}" if self.array else "") + ")")


class Function:
    """A resolved Verilog function."""

    __slots__ = ("name", "ret_width", "ret_signed", "ports", "locals_",
                 "body", "loc")

    def __init__(self, name: str, ret_width: int, ret_signed: bool,
                 ports: List[Tuple[str, int, bool]],
                 locals_: List[Tuple[str, int, bool]],
                 body: ast.Stmt, loc=None):
        self.name = name
        self.ret_width = ret_width
        self.ret_signed = ret_signed
        self.ports = ports        # [(name, width, signed)]
        self.locals_ = locals_    # [(name, width, signed)]
        self.body = body
        self.loc = loc


class Design:
    """A flat, elaborated design: the unit engines execute."""

    def __init__(self, name: str):
        self.name = name
        self.vars: Dict[str, Var] = {}
        self.functions: Dict[str, Function] = {}
        self.assigns: List[ast.ContinuousAssign] = []
        self.always: List[ast.AlwaysBlock] = []
        self.initials: List[ast.InitialBlock] = []
        self.params: Dict[str, Bits] = {}

    def add_var(self, var: Var) -> None:
        if var.name in self.vars:
            raise ElaborationError(f"duplicate declaration of {var.name!r}",
                                   var.loc)
        self.vars[var.name] = var

    def stats(self) -> Dict[str, int]:
        """Aggregate statistics (used by the class-study analysis)."""
        from .visitor import find_all
        blocking = nonblocking = displays = 0
        roots: List[ast.Node] = list(self.assigns) + list(self.always) \
            + list(self.initials)
        for root in roots:
            blocking += len(find_all(root, ast.BlockingAssign))
            nonblocking += len(find_all(root, ast.NonblockingAssign))
            displays += len([t for t in find_all(root, ast.SysTask)
                             if t.name in ("$display", "$write")])
        return {
            "vars": len(self.vars),
            "always_blocks": len(self.always),
            "blocking_assigns": blocking,
            "nonblocking_assigns": nonblocking,
            "display_statements": displays,
        }


class ModuleLibrary:
    """A name -> parsed-module table with duplicate detection."""

    def __init__(self, modules: Sequence[ast.Module] = ()):
        self.modules: Dict[str, ast.Module] = {}
        for m in modules:
            self.declare(m)

    def declare(self, module: ast.Module) -> None:
        if module.name in self.modules:
            raise ElaborationError(
                f"redeclaration of module {module.name!r}", module.loc)
        self.modules[module.name] = module

    def get(self, name: str, loc=None) -> ast.Module:
        try:
            return self.modules[name]
        except KeyError:
            raise ElaborationError(f"unknown module {name!r}", loc) \
                from None


# ----------------------------------------------------------------------
# Parameter and range rules (shared with the IR's instance tree)
# ----------------------------------------------------------------------
def subst_params(node: ast.Node, params: Dict[str, Bits],
                 local_names: frozenset = frozenset()) -> ast.Node:
    """Replace parameter references with their values, in place; returns
    the (possibly replaced) root for expression nodes.  Names in
    ``local_names`` (function ports and locals) shadow parameters."""

    def fn(e: ast.Expr) -> ast.Expr:
        if isinstance(e, ast.Ident) and len(e.parts) == 1:
            name = e.parts[0]
            if name in params and name not in local_names:
                value = params[name]
                return ast.Number(value, value.to_verilog(), True, loc=e.loc)
        return e

    return map_exprs(node, fn)


def resolve_range(range_: Optional[ast.Range], params: Dict[str, Bits],
                  what: str) -> Tuple[int, int, int]:
    """(width, msb, lsb) of a declared range under ``params``; no range
    is one bit."""
    if range_ is None:
        return 1, 0, 0
    range_ = subst_params(copy.deepcopy(range_), params)
    msb_v = const_eval(range_.msb)
    lsb_v = const_eval(range_.lsb)
    if msb_v.has_xz or lsb_v.has_xz:
        raise ElaborationError(f"{what} range has x/z bits", range_.loc)
    msb = msb_v.to_int() if msb_v.signed else msb_v.to_uint()
    lsb = lsb_v.to_int() if lsb_v.signed else lsb_v.to_uint()
    width = abs(msb - lsb) + 1
    if width > MAX_WIDTH:
        raise ElaborationError(f"{what} is too wide ({width} bits)",
                               range_.loc)
    return width, msb, lsb


def _fit(value: Bits, width: int, signed: bool) -> Bits:
    """A constant sized to the variable or parameter it initializes."""
    value = value.as_signed() if signed else value.as_unsigned()
    return value.extend(width) if value.width < width \
        else value.resize(width)


def bind_params(module: ast.Module,
                overrides: Dict[str, Bits]) -> Dict[str, Bits]:
    """Resolve a module's parameters in declaration order; ``overrides``
    may set only its non-local ones."""
    params: Dict[str, Bits] = {}
    declared = set()
    for item in module.items:
        if not isinstance(item, ast.ParamDecl):
            continue
        if not item.local:
            declared.add(item.name)
        if not item.local and item.name in overrides:
            value = overrides[item.name]
        else:
            value = const_eval(subst_params(copy.deepcopy(item.value),
                                            params))
        if item.range_ is not None:
            width, _, _ = resolve_range(item.range_, params,
                                        f"parameter {item.name!r}")
            value = _fit(value, width, item.signed)
        params[item.name] = value
    unknown = set(overrides) - declared
    if unknown:
        raise ElaborationError(
            f"module {module.name!r} has no parameter(s) "
            f"{sorted(unknown)}", module.loc)
    return params


# ----------------------------------------------------------------------
# The leaf elaborator
# ----------------------------------------------------------------------
class _Elaborator:
    def __init__(self, design: Design, params: Dict[str, Bits]):
        self.design = design
        self.params = params

    def elaborate(self, module: ast.Module) -> None:
        design, params = self.design, self.params
        items = copy.deepcopy(module.items)

        # Declare ports and nets.
        for port in module.ports:
            width, msb, lsb = resolve_range(port.range_, params,
                                            f"port {port.name!r}")
            init = None
            if port.init is not None and port.net_kind == "reg":
                init = _fit(const_eval(subst_params(
                    copy.deepcopy(port.init), params)), width, port.signed)
            design.add_var(Var(port.name, port.net_kind, width, port.signed,
                               msb, lsb, port.direction, init, None,
                               port.loc))

        for item in items:
            if isinstance(item, ast.NetDecl):
                self._declare_net(item)

        # Functions next (bodies may be referenced by any process).
        for item in items:
            if isinstance(item, ast.FunctionDecl):
                self._declare_function(item)

        # Behaviour: substitute parameters and register.
        for item in items:
            if isinstance(item, (ast.NetDecl, ast.ParamDecl,
                                 ast.FunctionDecl)):
                continue
            if isinstance(item, ast.Instantiation):
                raise ElaborationError(
                    f"unexpected instantiation {item.inst_name!r} in leaf "
                    "elaboration (the IR should have flattened it)",
                    item.loc)
            subst_params(item, params)
            if isinstance(item, ast.ContinuousAssign):
                design.assigns.append(item)
            elif isinstance(item, ast.AlwaysBlock):
                design.always.append(item)
            elif isinstance(item, ast.InitialBlock):
                design.initials.append(item)
            else:
                raise ElaborationError(
                    f"unsupported module item {type(item).__name__}",
                    item.loc)

        # Initializers on regs become initial state; on wires they are
        # continuous assigns (wire w = expr).
        for item in items:
            if isinstance(item, ast.NetDecl):
                self._apply_initializers(item)

    # ------------------------------------------------------------------
    def _declare_net(self, item: ast.NetDecl) -> None:
        design = self.design
        kind = {"integer": "reg", "genvar": "reg", "tri": "wire",
                "supply0": "wire", "supply1": "wire"}.get(item.kind,
                                                          item.kind)
        width, msb, lsb = resolve_range(item.range_, self.params,
                                        f"declaration at {item.loc}")
        for decl in item.decls:
            array = None
            if decl.dims:
                if len(decl.dims) > 1:
                    raise ElaborationError(
                        "multi-dimensional arrays are not supported",
                        decl.loc)
                _, a_msb, a_lsb = resolve_range(
                    decl.dims[0], self.params, f"array {decl.name!r}")
                nwords = abs(a_msb - a_lsb) + 1
                array = (nwords, a_msb, a_lsb)
            if decl.name in design.vars:
                existing = design.vars[decl.name]
                # A net decl may re-declare a port to set reg-ness/width.
                if existing.direction is not None and array is None:
                    existing.kind = kind if kind == "reg" else existing.kind
                    if item.range_ is not None:
                        existing.width, existing.msb, existing.lsb = \
                            width, msb, lsb
                    existing.signed = existing.signed or item.signed
                    continue
                raise ElaborationError(
                    f"duplicate declaration of {decl.name!r}", decl.loc)
            design.add_var(Var(decl.name, kind, width, item.signed, msb, lsb,
                               None, None, array, decl.loc))
            if item.kind == "supply0":
                design.vars[decl.name].init = Bits.zeros(width)
            elif item.kind == "supply1":
                design.vars[decl.name].init = Bits.ones(width)

    def _apply_initializers(self, item: ast.NetDecl) -> None:
        for decl in item.decls:
            if decl.init is None:
                continue
            var = self.design.vars[decl.name]
            expr = subst_params(copy.deepcopy(decl.init), self.params)
            if var.kind == "reg":
                var.init = _fit(const_eval(expr), var.width, var.signed)
            else:
                self.design.assigns.append(ast.ContinuousAssign(
                    ast.Ident((decl.name,), decl.loc), expr, decl.loc))

    def _declare_function(self, fn: ast.FunctionDecl) -> None:
        params = self.params
        ret_width, _, _ = resolve_range(fn.range_, params,
                                        f"function {fn.name!r}")
        ports = []
        local_names = {fn.name}
        for p in fn.ports:
            width, _, _ = resolve_range(p.range_, params,
                                        f"function input {p.name!r}")
            ports.append((p.name, width, p.signed))
            local_names.add(p.name)
        locals_ = []
        for decl_item in fn.locals_:
            width, _, _ = resolve_range(decl_item.range_, params,
                                        "function local")
            for d in decl_item.decls:
                locals_.append((d.name, width, decl_item.signed))
                local_names.add(d.name)
        body = subst_params(copy.deepcopy(fn.body), params,
                            frozenset(local_names))
        if fn.name in self.design.functions:
            raise ElaborationError(f"duplicate function {fn.name!r}",
                                   fn.loc)
        self.design.functions[fn.name] = Function(
            fn.name, ret_width, fn.signed, ports, locals_, body, fn.loc)


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def elaborate_leaf(module: ast.Module,
                   overrides: Optional[Dict[str, Bits]] = None) -> Design:
    """Elaborate a single module; instantiations inside it are an error
    (Cascade's IR flattens hierarchy before engines see a subprogram)."""
    design = Design(module.name)
    design.params = bind_params(module, overrides or {})
    _Elaborator(design, design.params).elaborate(module)
    annotate_design(design)
    return design
