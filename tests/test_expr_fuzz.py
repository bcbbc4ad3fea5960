"""Seeded differential fuzzing of expression semantics.

Random mixed-width, mixed-sign expressions (unsized literals, signed and
unsigned operands, shifts, ``**``, ternaries, concatenation and
replication, comparisons inside arithmetic, part- and bit-selects) are
each assigned to an output of a random width and sign, then checked:

* four-state inputs with x/z bits — the interpreter's closures against
  the tree-walk oracle (``tests/oracle_eval.py``), value, width and
  signedness of every right-hand side and every stored output;
* two-state inputs — the interpreter against the compiled Python model,
  wherever no intermediate value is x (a literal with x/z digits, or a
  division by zero), which a two-state model cannot represent.

A failing seed is shrunk to a minimal expression and reported; add it to
``REGRESSIONS`` under a name so it keeps running.
"""

import random

import pytest

from repro.backend.pycompile import attr_name, compile_design
from repro.common.bits import Bits
from repro.interp.closures import EngineBuilder
from repro.interp.engine import SoftwareEngine
from repro.interp.sim import CollectingServices
from repro.verilog.elaborate import elaborate_leaf
from repro.verilog.eval import coerce
from repro.verilog.parser import parse_module

from .oracle_eval import DesignScope, ExprEvaluator, natural_size

#: name -> (declaration, signed, width) of the module's inputs.
INPUTS = {
    "a": ("[7:0]", False, 8),
    "b": ("signed [3:0]", True, 4),
    "c": ("signed [15:0]", True, 16),
    "d": ("", False, 1),
    "e": ("[11:0]", False, 12),
    "f": ("signed [5:0]", True, 6),
    "p": ("[2:0]", False, 3),
}
#: Output declarations the assigns target.
OUTPUTS = ["", "[4:0]", "signed [7:0]", "[12:0]", "signed [31:0]",
           "[39:0]"]
SEEDS = range(24)
EXPRS_PER_SEED = 24
VECTORS = 6

#: Shrunk failures and hand-picked corner cases: name -> (output, expr).
REGRESSIONS = {
    "negated_x_arith_shift": ("signed [7:0]", "(-b) >>> 1"),
    "unsized_vs_signed_compare": ("[4:0]", "(b < 3) + f"),
    "signed_pow_in_wide_ctx": ("[39:0]", "c ** 2'd3"),
    "concat_of_signed_resized": ("signed [31:0]", "{b, f} + c"),
    "ternary_x_merge": ("[12:0]", "d ? e : {a, 4'b1x0z}"),
    "indexed_part_select": ("signed [7:0]", "$signed(e[p +: 4]) - a[p]"),
    # Shrunk from seeds that once failed against the compiled model.
    "signed_literal_in_unsigned_ctx": ("[12:0]", "5'sd25 & e"),
    "one_bit_signed_literal": ("[39:0]", "{1{7'sd97}} + 1'sd1"),
    "exponent_resized_to_ctx": ("", "d ** 2'd2"),
    "exponent_wider_than_ctx": ("", "c[p -: 2] ** p"),
    "negative_exponent": ("signed [7:0]", "b ** 2'sb11"),
    # Shrunk from seeds 336 and 663: a $signed(...) operand of an
    # unsigned expression is zero-extended and unsigned (IEEE 1364
    # §5.5.4), so >>> shifts in zeros.
    "signed_cast_shift_in_unsigned_compare": ("", "($signed(p) >>> p) < a"),
    "signed_cast_in_unsigned_or": ("[39:0]", "($signed(e) >>> 4) | e"),
}


# ----------------------------------------------------------------------
# Generator: expression trees as (template, children) pairs
# ----------------------------------------------------------------------
def _leaf(rng):
    roll = rng.random()
    if roll < 0.55:
        return (rng.choice(sorted(INPUTS)), ())
    if roll < 0.7:
        return (str(rng.randint(0, 40)), ())          # unsized literal
    width = rng.randint(1, 9)
    signed = "s" if rng.random() < 0.4 else ""
    if rng.random() < 0.3:
        digits = "".join(rng.choice("01xz") for _ in range(width))
        return (f"{width}'{signed}b{digits}", ())
    return (f"{width}'{signed}d{rng.randrange(1 << width)}", ())


def _sized_leaf(rng):
    """A leaf that may stand inside a concatenation (no unsized
    literals)."""
    node = _leaf(rng)
    return node if not node[0].isdigit() else ("a", ())


def gen(rng, depth):
    if depth <= 0 or rng.random() < 0.2:
        return _leaf(rng)
    kind = rng.random()
    sub = lambda: gen(rng, depth - 1)
    if kind < 0.3:
        op = rng.choice(["+", "-", "*", "/", "%", "&", "|", "^", "~^"])
        return ("({} %s {})" % op, (sub(), sub()))
    if kind < 0.4:
        op = rng.choice(["<<", ">>", "<<<", ">>>"])
        amount = ("p", ()) if rng.random() < 0.5 \
            else (str(rng.randint(0, 5)), ())
        return ("({} %s {})" % op, (sub(), amount))
    if kind < 0.45:
        exponent = ("p", ()) if rng.random() < 0.3 \
            else (f"2'd{rng.randint(0, 3)}", ())
        return ("({} ** {})", (sub(), exponent))
    if kind < 0.55:
        op = rng.choice(["==", "!=", "===", "!==", "<", "<=", ">", ">=",
                         "&&", "||"])
        return ("(({} %s {}) + {})" % op, (sub(), sub(), sub()))
    if kind < 0.65:
        op = rng.choice(["-", "~", "!", "&", "|", "^", "~&"])
        return ("(%s{})" % op, (sub(),))
    if kind < 0.75:
        return ("({} ? {} : {})", (sub(), sub(), sub()))
    if kind < 0.82:
        if rng.random() < 0.5:
            return ("{{{}, {}}}", (_sized_leaf(rng), _sized_leaf(rng)))
        count = rng.randint(1, 3)
        return ("{{%d{{{}}}}}" % count, (_sized_leaf(rng),))
    if kind < 0.92:
        return (rng.choice(["a[5:2]", "c[15:8]", "e[p +: 4]", "c[p -: 2]",
                            "a[p]", "c[b]", "e[3]"]), ())
    cast = rng.choice(["$signed", "$unsigned"])
    return ("%s({})" % cast, (sub(),))


def render(node):
    template, children = node
    return template.format(*(render(c) for c in children))


def shrink_candidates(node):
    """Smaller trees: each child in place of the node, then the node with
    one child shrunk."""
    template, children = node
    for child in children:
        yield child
    for i, child in enumerate(children):
        for smaller in shrink_candidates(child):
            yield (template, children[:i] + (smaller,) + children[i + 1:])


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def _module(assigns):
    ports = [f"input wire {decl} {name}".replace("  ", " ")
             for name, (decl, _, _) in sorted(INPUTS.items())]
    ports += [f"output wire {decl} y{i}".replace("  ", " ")
              for i, (decl, _) in enumerate(assigns)]
    body = "".join(f"  assign y{i} = {expr};\n"
                   for i, (_, expr) in enumerate(assigns))
    return "module fuzz(" + ", ".join(ports) + ");\n" + body + "endmodule\n"


def _vector(rng, four_state):
    out = {}
    for name, (_, signed, width) in INPUTS.items():
        aval = rng.getrandbits(width)
        bval = 0
        if four_state and rng.random() < 0.4:
            bval = rng.getrandbits(width) & rng.getrandbits(width)
        out[name] = Bits(width, aval, bval, signed)
    return out


class _XWatch(ExprEvaluator):
    """The oracle, noting whether any intermediate value had x/z bits."""

    saw_x = False

    def _eval_ctx(self, expr, ctx, signed):
        value = super()._eval_ctx(expr, ctx, signed)
        if value.bval:
            self.saw_x = True
        return value


def _same(x, y):
    return (x.width, x.aval, x.bval, x.signed) == \
        (y.width, y.aval, y.bval, y.signed)


def check(assigns, seed):
    """None when every assign agrees, else a description of the first
    disagreement."""
    design = elaborate_leaf(parse_module(_module(assigns)))
    engine = SoftwareEngine(design, CollectingServices())
    builder = EngineBuilder(engine)
    rhs = [builder.build(a.rhs) for a in design.assigns]
    rng = random.Random(seed)
    for vector in range(VECTORS):
        values = _vector(rng, four_state=vector % 2 == 0)
        for name, value in values.items():
            engine.poke(name, value)
        engine.evaluate()
        two_state = []
        for i, assign in enumerate(design.assigns):
            oracle = _XWatch(DesignScope(design, engine.values))
            want = oracle.eval(assign.rhs,
                               natural_size(assign.lhs, oracle.scope)[0])
            two_state.append(not oracle.saw_x)
            got = rhs[i]()
            if not _same(got, want):
                return f"y{i} = {assigns[i][1]}: rhs {got!r} != {want!r}"
            # Writes are change-filtered on the planes, so a stored
            # value may keep an earlier signedness: compare planes.
            var = design.vars[f"y{i}"]
            stored = coerce(want, var.width, var.signed)
            if stored != engine.peek(var.name):
                return f"y{i} = {assigns[i][1]}: stored " \
                       f"{engine.peek(var.name)!r} != {stored!r}"
        if vector % 2:
            model = compile_design(design).instantiate()
            for name, value in values.items():
                setattr(model, attr_name(name), value.aval)
            model._dirty = True
            model.evaluate()
            for i in range(len(assigns)):
                value = engine.peek(f"y{i}")
                compiled = getattr(model, attr_name(f"y{i}"))
                if two_state[i] and compiled != value.aval:
                    return f"y{i} = {assigns[i][1]}: compiled " \
                           f"{compiled} != {value.aval}"
    return None


def shrink(output, node, seed):
    """The smallest tree (greedy) that still fails alone."""
    while True:
        for smaller in shrink_candidates(node):
            if check([(output, render(smaller))], seed) is not None:
                node = smaller
                break
        else:
            return node


@pytest.mark.parametrize("seed", SEEDS)
def test_closures_match_oracle_and_compiled_model(seed):
    rng = random.Random(seed)
    trees = [(rng.choice(OUTPUTS), gen(rng, 4))
             for _ in range(EXPRS_PER_SEED)]
    assigns = [(out, render(tree)) for out, tree in trees]
    failure = check(assigns, seed)
    if failure is None:
        return
    for out, tree in trees:
        if check([(out, render(tree))], seed) is not None:
            small = render(shrink(out, tree, seed))
            pytest.fail(f"seed {seed}: output {out!r}, expression "
                        f"{small!r} (shrunk from: {failure})")
    pytest.fail(f"seed {seed}: {failure}")


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_regression(name):
    output, expr = REGRESSIONS[name]
    for seed in range(4):
        assert check([(output, expr)], seed) is None, name
