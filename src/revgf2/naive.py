"""Naive reversible long division and the Euclid iteration built from it.

The division circuit realizes |A>|B>|0> <-> |A>|B+qA>|q| with
(q, r) = divmod(B, A), as a fixed gate sequence:

  1. count A's leading zeros into a register S (gated increments),
  2. rotate A left by S so its leading coefficient sits at the top wire,
  3. m+1 quotient rounds with fixed wiring: round t copies B's bit m-t
     into the quotient register and conditionally subtracts the aligned
     divisor; rounds beyond the quotient length are disabled by a flag
     wire that flips once, when the round counter passes S,
  4. rotate the quotient register so the stored word becomes q itself,
  5. undo the divisor rotation and uncompute S.

The per-input driver `run_naive_inversion` steps the iteration circuit a
data-dependent number of times, which is exactly the synchronization
defect the optimized implementation repairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .blocks import controlled_rotation_gates, log2_ceil, prefix_zero_increments, rotation_gates
from .circuit import BasisState, Circuit, apply, cnot, gate_not, swap
from .errors import InvariantViolation, ZeroElement
from .field import FieldSpec
from .poly import degree


@dataclass(frozen=True)
class EuclideanPairs:
    """The working set (a, A), (b, B) of the extended Euclidean algorithm."""

    a: int
    A: int
    b: int
    B: int

    def check_invariants(self, m: int):
        """Degree ordering and the shared-register degree bound."""
        if degree(self.A) >= degree(self.B):
            raise InvariantViolation("deg(A) < deg(B) violated")
        if self.b != 0 and degree(self.a) <= degree(self.b):
            raise InvariantViolation("deg(a) > deg(b) violated")
        if self.a != 0 and self.B != 0 and degree(self.a) + degree(self.B) != m:
            raise InvariantViolation("deg(aB) = m violated")


def _pattern_controls(reg: str, width: int, value: int):
    """Controls asserting reg == value (0-controls on the clear bits)."""
    return [((reg, i), (value >> i) & 1) for i in range(width)]


def _division_gates(m: int, div: str, dvd: str, quo: str, s: str, anc: str, flg: str):
    """Gate sequence for |div>|dvd>|0> <-> |div>|dvd+q*div>|q>.

    div has m wires, dvd and quo have m+1 (the dividend may have degree m),
    s has ceil(log m) wires, anc and flg one each.  div must be nonzero.
    """
    L = log2_ceil(m)
    gates = []

    # 1. s <- number of leading zeros of div (= m-1-deg).
    s_count = [g for block in prefix_zero_increments(div, m, s, L, anc) for g in block]
    gates.extend(s_count)

    # 2. normalize: rotate div left by s (top coefficient to wire m-1).
    gates.extend(controlled_rotation_gates(div, m, s, L, "left"))

    # 3. quotient rounds.  Round t examines dvd bit m-t; the flag starts 1
    # and flips to 0 when t passes the quotient length (t = s+2).
    gates.append(gate_not((flg, 0)))
    for t in range(m + 1):
        if t >= 2:
            gates.append(cnot(_pattern_controls(s, L, t - 2), (flg, 0)))
        gates.append(cnot([((flg, 0), 1), ((dvd, m - t), 1)], (quo, m - t)))
        for j in range(m + 1):
            src = j + t - 1
            if 0 <= src <= m - 1:
                gates.append(cnot([((quo, m - t), 1), ((div, src), 1)], (dvd, j)))
    gates.append(cnot(_pattern_controls(s, L, m - 1), (flg, 0)))

    # 4. the stored quotient word is q << deg(div); rotate right by the
    # degree, i.e. left by 2+s over the m+1 quotient wires.
    gates.extend(rotation_gates(quo, m + 1, 2, "left"))
    gates.extend(controlled_rotation_gates(quo, m + 1, s, L, "left"))

    # 5. un-normalize div and uncompute s.
    gates.extend(controlled_rotation_gates(div, m, s, L, "right"))
    gates.extend(reversed(s_count))
    return gates


def naive_division_layout(m: int) -> dict[str, int]:
    L = log2_ceil(m)
    return {"a": m, "b": m + 1, "q": m + 1, "s": L, "anc": 1, "flg": 1}


def build_naive_long_division(m: int) -> Circuit:
    """The reversible long division |A>|B>|0> <-> |A>|B+qA>|q>.

    Registers: a (divisor, m wires), b (dividend, m+1 wires so the field
    modulus fits on the first Euclid iteration), q (m+1 wires), plus the
    shift counter s, the shared increment ancilla, and the round flag; all
    scratch returns to 0.
    """
    c = Circuit(naive_division_layout(m))
    c.extend(_division_gates(m, "a", "b", "q", "s", "anc", "flg"))
    return c


def euclid_iteration_layout(m: int) -> dict[str, int]:
    L = log2_ceil(m)
    return {
        "ra": m,  # remainder A (second coordinate of the leading pair)
        "rb": m + 1,  # remainder B
        "ka": m,  # coefficient a (first coordinate of the leading pair)
        "kb": m + 1,  # coefficient b
        "q": m + 1,
        "s": L,
        "anc": 1,
        "flg": 1,
    }


@functools.lru_cache(maxsize=None)
def build_euclid_iteration(m: int) -> Circuit:
    """One Euclid iteration (a,A)(b,B) <-> (b+qa, B+qA)(a,A), q uncomputed.

    Three individually reversible steps: the long division on (A, B),
    the reversed division on (a, b) which replays b <- b+qa and clears q
    (valid because floor((b+qa)/a) = floor(B/A)), then the pair swap.
    """
    c = Circuit(euclid_iteration_layout(m))
    c.extend(_division_gates(m, "ra", "rb", "q", "s", "anc", "flg"))
    c.extend(reversed(_division_gates(m, "ka", "kb", "q", "s", "anc", "flg")))
    for i in range(m):
        c.add(swap(("ra", i), ("rb", i)))
        c.add(swap(("ka", i), ("kb", i)))
    return c


def run_naive_inversion(c_elem: int, field: FieldSpec, trace: list | None = None) -> int:
    """Invert a nonzero field element by stepping the iteration circuit.

    The number of iterations depends on the input, so this driver is not
    synchronized; it is the reference the optimized machine is checked
    against.  If `trace` is given, the EuclideanPairs state after every
    iteration is appended.
    """
    if c_elem == 0:
        raise ZeroElement("cannot invert 0")
    m = field.m
    iteration = build_euclid_iteration(m)
    state = BasisState.from_values(
        iteration.layout, ra=c_elem, rb=field.modulus, ka=1, kb=0
    )
    if trace is not None:
        trace.append(EuclideanPairs(1, c_elem, 0, field.modulus))
    steps = 0
    while state.get_reg("ra") != 1:
        state = apply(iteration, state)
        steps += 1
        if steps > 2 * m:
            raise InvariantViolation("Euclid failed to terminate")
        pairs = EuclideanPairs(
            state.get_reg("ka"),
            state.get_reg("ra"),
            state.get_reg("kb"),
            state.get_reg("rb"),
        )
        if trace is not None:
            trace.append(pairs)
        for scratch in ("q", "s", "anc", "flg"):
            if state.get_reg(scratch) != 0:
                raise InvariantViolation(f"scratch {scratch} not restored")
    return state.get_reg("ka")
