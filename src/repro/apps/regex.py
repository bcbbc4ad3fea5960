"""Streaming regular-expression matching (paper §6.2).

"A streaming regular expression matching benchmark generated by a tool
similar to the Snort packet sniffer or an SQL query accelerator" — the
generator here is that tool: it compiles a regular expression through
Thompson NFA construction and subset-construction DFA determinisation,
partitions the byte alphabet into equivalence classes, and emits a
Verilog matcher that consumes one byte per clock from the standard
library FIFO (the benchmark's IO peripheral).

Supported syntax: literals, ``.``, character classes ``[a-z]`` (with
negation), grouping, alternation ``|``, and the ``* + ?`` repetitions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

__all__ = ["RegexError", "compile_dfa", "Dfa", "matcher_verilog",
           "regex_program", "reference_match_count"]


class RegexError(ValueError):
    """Malformed pattern."""


# ----------------------------------------------------------------------
# Parsing into a tiny regex AST
# ----------------------------------------------------------------------
class _Node:
    pass


class _Lit(_Node):
    def __init__(self, chars: FrozenSet[int]):
        self.chars = chars


class _Cat(_Node):
    def __init__(self, parts: List[_Node]):
        self.parts = parts


class _Alt(_Node):
    def __init__(self, options: List[_Node]):
        self.options = options


class _Rep(_Node):
    def __init__(self, inner: _Node, kind: str):
        self.inner = inner
        self.kind = kind  # "*", "+", "?"


class _Parser:
    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.pattern[self.pos] if self.pos < len(self.pattern) \
            else None

    def next(self) -> str:
        ch = self.pattern[self.pos]
        self.pos += 1
        return ch

    def parse(self) -> _Node:
        node = self._alt()
        if self.pos != len(self.pattern):
            raise RegexError(f"unexpected {self.peek()!r} at {self.pos}")
        return node

    def _alt(self) -> _Node:
        options = [self._cat()]
        while self.peek() == "|":
            self.next()
            options.append(self._cat())
        return options[0] if len(options) == 1 else _Alt(options)

    def _cat(self) -> _Node:
        parts: List[_Node] = []
        while self.peek() not in (None, "|", ")"):
            parts.append(self._rep())
        if not parts:
            return _Cat([])
        return parts[0] if len(parts) == 1 else _Cat(parts)

    def _rep(self) -> _Node:
        node = self._atom()
        while self.peek() in ("*", "+", "?"):
            node = _Rep(node, self.next())
        return node

    def _atom(self) -> _Node:
        ch = self.peek()
        if ch is None:
            raise RegexError("unexpected end of pattern")
        if ch == "(":
            self.next()
            node = self._alt()
            if self.peek() != ")":
                raise RegexError("missing ')'")
            self.next()
            return node
        if ch == "[":
            return self._char_class()
        if ch == ".":
            self.next()
            return _Lit(frozenset(range(256)) - {10})
        if ch == "\\":
            self.next()
            esc = self.next()
            table = {"n": 10, "t": 9, "r": 13, "0": 0}
            if esc in table:
                return _Lit(frozenset([table[esc]]))
            if esc == "d":
                return _Lit(frozenset(range(ord("0"), ord("9") + 1)))
            if esc == "w":
                chars = set(range(ord("a"), ord("z") + 1))
                chars |= set(range(ord("A"), ord("Z") + 1))
                chars |= set(range(ord("0"), ord("9") + 1))
                chars.add(ord("_"))
                return _Lit(frozenset(chars))
            if esc == "s":
                return _Lit(frozenset([32, 9, 10, 13]))
            return _Lit(frozenset([ord(esc)]))
        if ch in ")*+?|":
            raise RegexError(f"unexpected {ch!r} at {self.pos}")
        self.next()
        return _Lit(frozenset([ord(ch)]))

    def _char_class(self) -> _Node:
        self.next()  # [
        negate = False
        if self.peek() == "^":
            negate = True
            self.next()
        chars: Set[int] = set()
        prev: Optional[int] = None
        while self.peek() not in (None, "]"):
            ch = self.next()
            if ch == "\\":
                ch = self.next()
            if self.peek() == "-" and self.pos + 1 < len(self.pattern) \
                    and self.pattern[self.pos + 1] != "]":
                self.next()
                hi = self.next()
                if hi == "\\":
                    hi = self.next()
                chars.update(range(ord(ch), ord(hi) + 1))
            else:
                chars.add(ord(ch))
        if self.peek() != "]":
            raise RegexError("missing ']'")
        self.next()
        if negate:
            chars = set(range(256)) - chars
        return _Lit(frozenset(chars))


# ----------------------------------------------------------------------
# Thompson NFA, subset-construction DFA
# ----------------------------------------------------------------------
class _Nfa:
    def __init__(self):
        self.transitions: List[Dict[int, Set[int]]] = []
        self.epsilon: List[Set[int]] = []

    def state(self) -> int:
        self.transitions.append({})
        self.epsilon.append(set())
        return len(self.transitions) - 1

    def edge(self, src: int, chars: FrozenSet[int], dst: int) -> None:
        for c in chars:
            self.transitions[src].setdefault(c, set()).add(dst)

    def eps(self, src: int, dst: int) -> None:
        self.epsilon[src].add(dst)


def _build_nfa(node: _Node, nfa: _Nfa) -> Tuple[int, int]:
    start = nfa.state()
    end = nfa.state()
    if isinstance(node, _Lit):
        nfa.edge(start, node.chars, end)
    elif isinstance(node, _Cat):
        current = start
        for part in node.parts:
            s, e = _build_nfa(part, nfa)
            nfa.eps(current, s)
            current = e
        nfa.eps(current, end)
    elif isinstance(node, _Alt):
        for option in node.options:
            s, e = _build_nfa(option, nfa)
            nfa.eps(start, s)
            nfa.eps(e, end)
    elif isinstance(node, _Rep):
        s, e = _build_nfa(node.inner, nfa)
        if node.kind in ("*", "?"):
            nfa.eps(start, end)
        nfa.eps(start, s)
        nfa.eps(e, end)
        if node.kind in ("*", "+"):
            nfa.eps(e, s)
    else:  # pragma: no cover
        raise RegexError(f"unknown node {type(node).__name__}")
    return start, end


class Dfa:
    """A deterministic automaton over byte equivalence classes."""

    def __init__(self, n_states: int, n_classes: int,
                 char_class: List[int],
                 transition: List[List[int]],
                 accepting: Set[int]):
        self.n_states = n_states
        self.n_classes = n_classes
        self.char_class = char_class      # 256 -> class id
        self.transition = transition      # [state][class] -> state
        self.accepting = accepting

    def run(self, data: bytes) -> int:
        """Count of (overlapping) match events, one per byte landing in
        an accepting state; matching restarts from the start state on
        accept (the streaming discipline the hardware uses)."""
        state = 0
        count = 0
        for byte in data:
            state = self.transition[state][self.char_class[byte]]
            if state in self.accepting:
                count += 1
                state = 0
        return count


def compile_dfa(pattern: str) -> Dfa:
    """Pattern -> DFA with alphabet equivalence classes."""
    tree = _Parser(pattern).parse()
    nfa = _Nfa()
    start, end = _build_nfa(tree, nfa)
    # Unanchored streaming search: the start state self-loops on every
    # byte, so a match can begin anywhere in the stream.
    nfa.edge(start, frozenset(range(256)), start)

    def closure(states: FrozenSet[int]) -> FrozenSet[int]:
        out = set(states)
        stack = list(states)
        while stack:
            s = stack.pop()
            for t in nfa.epsilon[s]:
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    # Alphabet partition: bytes with identical NFA behaviour share a
    # class, which keeps the emitted case table small.
    signature: Dict[int, Tuple] = {}
    for byte in range(256):
        sig = []
        for s in range(len(nfa.transitions)):
            targets = nfa.transitions[s].get(byte)
            sig.append(frozenset(targets) if targets else frozenset())
        signature[byte] = tuple(sig)
    classes: Dict[Tuple, int] = {}
    char_class = [0] * 256
    for byte in range(256):
        sig = signature[byte]
        if sig not in classes:
            classes[sig] = len(classes)
        char_class[byte] = classes[sig]
    n_classes = len(classes)
    class_repr = [0] * n_classes
    for byte in range(255, -1, -1):
        class_repr[char_class[byte]] = byte

    start_set = closure(frozenset([start]))
    dfa_states: Dict[FrozenSet[int], int] = {start_set: 0}
    order = [start_set]
    transition: List[List[int]] = []
    i = 0
    while i < len(order):
        current = order[i]
        row = []
        for cls in range(n_classes):
            byte = class_repr[cls]
            nxt = set()
            for s in current:
                nxt |= nfa.transitions[s].get(byte, set())
            nxt_set = closure(frozenset(nxt)) if nxt else frozenset()
            if nxt_set not in dfa_states:
                dfa_states[nxt_set] = len(order)
                order.append(nxt_set)
            row.append(dfa_states[nxt_set])
        transition.append(row)
        i += 1
    accepting = {idx for st, idx in dfa_states.items() if end in st}
    return Dfa(len(order), n_classes, char_class, transition, accepting)


# ----------------------------------------------------------------------
# Verilog emission
# ----------------------------------------------------------------------
def _class_expr(dfa: Dfa, cls: int) -> List[Tuple[int, int]]:
    """The byte ranges belonging to a class, as (lo, hi) pairs."""
    ranges = []
    lo = None
    for byte in range(257):
        inside = byte < 256 and dfa.char_class[byte] == cls
        if inside and lo is None:
            lo = byte
        elif not inside and lo is not None:
            ranges.append((lo, byte - 1))
            lo = None
    return ranges


def matcher_verilog(pattern: str, name: str = "RegexMatcher",
                    count_width: int = 32) -> Tuple[str, Dfa]:
    """Emit the streaming matcher for a pattern.

    Interface: one byte per cycle on ``din`` when ``valid``; raises
    ``match`` for one cycle per accept and counts matches.
    """
    dfa = compile_dfa(pattern)
    state_bits = max((dfa.n_states - 1).bit_length(), 1)
    class_bits = max((dfa.n_classes - 1).bit_length(), 1)

    class_cases = []
    for cls in range(dfa.n_classes):
        conds = []
        for lo, hi in _class_expr(dfa, cls):
            if lo == hi:
                conds.append(f"(din == 8'd{lo})")
            else:
                conds.append(f"(din >= 8'd{lo} && din <= 8'd{hi})")
        class_cases.append((cls, " || ".join(conds)))
    # Encode as a priority if/else chain computing cls.
    chain = []
    for cls, cond in class_cases[:-1]:
        chain.append(f"      {'else ' if chain else ''}if ({cond}) "
                     f"cls = {class_bits}'d{cls};")
    chain.append(f"      else cls = {class_bits}'d"
                 f"{class_cases[-1][0]};")
    class_logic = "\n".join(chain)

    trans_cases = []
    for s, row in enumerate(dfa.transition):
        inner = []
        for cls, nxt in enumerate(row):
            inner.append(f"          {class_bits}'d{cls}: "
                         f"nxt = {state_bits}'d{nxt};")
        inner.append(f"          default: nxt = {state_bits}'d0;")
        trans_cases.append(
            f"        {state_bits}'d{s}:\n          case (cls)\n"
            + "\n".join("  " + line for line in inner)
            + "\n          endcase")
    trans_cases.append(f"        default: nxt = {state_bits}'d0;")
    transition_logic = "\n".join(trans_cases)

    accept_test = " || ".join(
        f"(nxt == {state_bits}'d{s})" for s in sorted(dfa.accepting)) \
        or "1'b0"

    text = f"""
module {name}(
  input wire clk,
  input wire valid,
  input wire [7:0] din,
  output reg match = 0,
  output reg [{count_width - 1}:0] matches = 0,
  output reg [{count_width - 1}:0] consumed = 0
);
  reg [{state_bits - 1}:0] state = 0;
  reg [{class_bits - 1}:0] cls;
  reg [{state_bits - 1}:0] nxt;

  always @(*) begin
{class_logic}
  end

  always @(*) begin
    case (state)
{transition_logic}
    endcase
  end

  always @(posedge clk) begin
    match <= 0;
    if (valid) begin
      consumed <= consumed + 1;
      if ({accept_test}) begin
        match <= 1;
        matches <= matches + 1;
        state <= 0;
      end else begin
        state <= nxt;
      end
    end
  end
endmodule
"""
    return text, dfa


def regex_program(pattern: str, report_every: int = 0) -> Tuple[str, Dfa]:
    """Matcher + root items wiring it to the stdlib FIFO, one byte per
    cycle (the §6.2 configuration)."""
    matcher, dfa = matcher_verilog(pattern)
    report = ""
    if report_every:
        report = f"""
always @(posedge clk.val)
  if (m_match && (m_matches % {report_every}) == 0)
    $display("matches=%0d consumed=%0d", m_matches, m_consumed);
"""
    text = matcher + f"""
Fifo#(8, 16) input_fifo();
assign input_fifo.clk = clk.val;
wire [7:0] m_din;
wire m_match;
wire [31:0] m_matches;
wire [31:0] m_consumed;
assign input_fifo.rreq = !input_fifo.empty;
assign m_din = input_fifo.rdata;
reg m_valid = 0;
always @(posedge clk.val)
  m_valid <= !input_fifo.empty;
RegexMatcher m(
  .clk(clk.val),
  .valid(m_valid),
  .din(m_din),
  .match(m_match),
  .matches(m_matches),
  .consumed(m_consumed)
);
assign led.val = m_matches[7:0];
{report}"""
    return text, dfa


def reference_match_count(pattern: str, data: bytes) -> int:
    """Ground truth via the same DFA executed in Python."""
    return compile_dfa(pattern).run(data)
