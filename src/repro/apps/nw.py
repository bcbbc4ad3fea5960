"""Needleman-Wunsch sequence alignment (paper §6.4).

The UT Austin concurrency-class assignment: "students were tasked with
comparing scalability with increasing problem size for sequential and
parallel CPU implementations, as well as Cascade-based implementations
running in software and hardware".  This module provides all four:

* :func:`nw_score` — the sequential CPU reference (full DP);
* :func:`nw_score_antidiagonal` — the parallel-CPU formulation
  (anti-diagonal wavefront; the work per sweep is what a multicore
  implementation divides among threads);
* :func:`nw_verilog` / :func:`nw_program` — a one-cell-per-cycle
  hardware implementation with sequences baked in as parameters, which
  runs in Cascade's software engine immediately and migrates to
  hardware.

DNA sequences are 2-bit encoded (A=0, C=1, G=2, T=3).
"""

from __future__ import annotations

import random
from typing import Tuple

__all__ = ["encode_dna", "random_dna", "nw_score",
           "nw_score_antidiagonal", "nw_verilog", "nw_program"]

_BASES = "ACGT"


def random_dna(length: int, seed: int = 1) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice(_BASES) for _ in range(length))


def encode_dna(seq: str) -> int:
    """Pack a DNA string into an int, 2 bits per base, base 0 in the
    low bits (matching the Verilog ``SEQ[2*(i-1) +: 2]`` indexing)."""
    value = 0
    for i, ch in enumerate(seq.upper()):
        value |= _BASES.index(ch) << (2 * i)
    return value


def nw_score(a: str, b: str, match: int = 1, mismatch: int = -1,
             gap: int = -1) -> int:
    """Sequential CPU reference: full dynamic program."""
    prev = [k * gap for k in range(len(b) + 1)]
    for i in range(1, len(a) + 1):
        cur = [i * gap] + [0] * len(b)
        for j in range(1, len(b) + 1):
            diag = prev[j - 1] + (match if a[i - 1] == b[j - 1]
                                  else mismatch)
            up = prev[j] + gap
            left = cur[j - 1] + gap
            cur[j] = max(diag, up, left)
        prev = cur
    return prev[len(b)]


def nw_score_antidiagonal(a: str, b: str, match: int = 1,
                          mismatch: int = -1, gap: int = -1
                          ) -> Tuple[int, int]:
    """The parallel formulation: cells on an anti-diagonal are
    independent.  Returns (score, number_of_sweeps) — sweeps is the
    parallel step count a wavefront machine (or pipelined FPGA design)
    would take, versus len(a)*len(b) sequential cell updates."""
    rows, cols = len(a) + 1, len(b) + 1
    scores = {}
    for i in range(rows):
        scores[(i, 0)] = i * gap
    for j in range(cols):
        scores[(0, j)] = j * gap
    sweeps = 0
    for d in range(2, rows + cols - 1):
        sweeps += 1
        for i in range(max(1, d - cols + 1), min(rows, d)):
            j = d - i
            if j < 1 or j >= cols:
                continue
            diag = scores[(i - 1, j - 1)] + (
                match if a[i - 1] == b[j - 1] else mismatch)
            up = scores[(i - 1, j)] + gap
            left = scores[(i, j - 1)] + gap
            scores[(i, j)] = max(diag, up, left)
    return scores[(rows - 1, cols - 1)], sweeps


def nw_verilog(match: int = 1, mismatch: int = -1, gap: int = -1) -> str:
    """The hardware module: one DP cell per clock cycle, sequences as
    parameters (the style most student solutions converged on)."""
    return f"""
module NeedlemanWunsch #(
  parameter LEN_A = 8,
  parameter LEN_B = 8,
  parameter [2*LEN_A-1:0] SEQ_A = 0,
  parameter [2*LEN_B-1:0] SEQ_B = 0
)(
  input wire clk,
  input wire start,
  output reg busy = 0,
  output reg done = 0,
  output reg signed [15:0] score = 0
);
  localparam signed [15:0] MATCH = {match};
  localparam signed [15:0] MISMATCH = {mismatch};
  localparam signed [15:0] GAP = {gap};

  reg signed [15:0] prev [0:LEN_B];
  reg signed [15:0] cur [0:LEN_B];
  reg [15:0] i = 0;
  reg [15:0] j = 0;
  integer k;

  wire [1:0] ca = SEQ_A[2 * (i - 1) +: 2];
  wire [1:0] cb = SEQ_B[2 * (j - 1) +: 2];
  wire signed [15:0] diag = prev[j - 1]
      + ((ca == cb) ? MATCH : MISMATCH);
  wire signed [15:0] up = prev[j] + GAP;
  wire signed [15:0] left = cur[j - 1] + GAP;
  wire signed [15:0] best =
      (diag >= up && diag >= left) ? diag
      : ((up >= left) ? up : left);

  always @(posedge clk) begin
    done <= 0;
    if (start && !busy) begin
      busy <= 1;
      for (k = 0; k <= LEN_B; k = k + 1)
        prev[k] <= k * GAP;
      cur[0] <= GAP;
      i <= 1;
      j <= 1;
    end else if (busy) begin
      cur[j] <= best;
      if (j == LEN_B) begin
        if (i == LEN_A) begin
          score <= best;
          busy <= 0;
          done <= 1;
        end else begin
          for (k = 1; k <= LEN_B; k = k + 1)
            prev[k] <= (k == j) ? best : cur[k];
          prev[0] <= cur[0];
          cur[0] <= cur[0] + GAP;
          i <= i + 1;
          j <= 1;
        end
      end else begin
        j <= j + 1;
      end
    end
  end
endmodule
"""


def nw_program(seq_a: str, seq_b: str, match: int = 1,
               mismatch: int = -1, gap: int = -1,
               finish_on_done: bool = True) -> str:
    """Module plus root items: aligns the two sequences once, displays
    the score and (optionally) $finishes."""
    finish = "      $finish;\n" if finish_on_done else ""
    return nw_verilog(match, mismatch, gap) + f"""
reg nw_start = 1;
wire nw_busy;
wire nw_done;
wire signed [15:0] nw_score;
NeedlemanWunsch#(
  .LEN_A({len(seq_a)}),
  .LEN_B({len(seq_b)}),
  .SEQ_A({2 * len(seq_a)}'d{encode_dna(seq_a)}),
  .SEQ_B({2 * len(seq_b)}'d{encode_dna(seq_b)})
) nw(
  .clk(clk.val),
  .start(nw_start),
  .busy(nw_busy),
  .done(nw_done),
  .score(nw_score)
);
always @(posedge clk.val)
  begin
    if (nw_start && nw_busy)
      nw_start <= 0;
    if (nw_done)
      begin
        $display("score %0d", nw_score);
{finish}      end
  end
assign led.val = nw_score[7:0];
"""
