"""Naive reversible long division and the Euclid iteration built from it.

The division circuit realizes |A>|B>|0> <-> |A>|B+qA>|q| with
(q, r) = divmod(B, A), as a fixed gate sequence:

  1-2. normalize: a binary search for A's leading zeros (Warren, Hacker's
     Delight, section 5-3).  For j = L-1 down to 0, bit j of a register S
     is set if the top 2^j wires of A are all zero, and A then rotates
     left by 2^j if that bit is set.  S ends as A's leading-zero count,
     and A's leading coefficient sits at the top wire,
  3. m+1 quotient rounds with fixed wiring: round t copies B's bit m-t
     into the quotient register and conditionally subtracts the aligned
     divisor; rounds beyond the quotient length are disabled by a flag
     wire that flips once, when the round counter passes S,
  4. rotate the quotient register so the stored word becomes q itself,
  5. the normalize gates reversed, which un-rotate A and clear S.

The per-input driver `run_naive_inversion` steps the iteration circuit a
data-dependent number of times, which is exactly the synchronization
defect the optimized implementation repairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .blocks import controlled_rotation_gates, controlled_rotation_stage, log2_ceil, rotation_gates
from .circuit import BasisState, Circuit, Gate, apply, cnot, gate_not, swap
from .errors import InvariantViolation, ZeroElement
from .field import FieldSpec, require_element
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


def normalize_gates(div: str, n: int, s: str) -> list[Gate]:
    """Binary-search normalization of a nonzero n-wire register `div` with
    the ceil(log n)-wire register `s` at 0: for j = L-1 down to 0, NOT s_j
    under 0-controls on the top 2^j wires of div, then rotate div left by
    2^j on s_j.  Each stage leaves fewer than 2^j leading zeros, so s ends
    as n-1-deg(div) and div's top wire at 1; a rotation over zero top wires
    is a shift.  The gates reversed undo both."""
    L = log2_ceil(n)
    gates = []
    for j in reversed(range(L)):
        gates.append(cnot([((div, n - 1 - u), 0) for u in range(1 << j)], (s, j)))
        gates.extend(controlled_rotation_stage(div, n, s, j, "left"))
    return gates


def _division_gates(m: int, div: str, dvd: str, quo: str, s: str, flg: str):
    """Gate sequence for |div>|dvd>|0> <-> |div>|dvd+q*div>|q>.

    div has m wires, dvd and quo have m+1 (the dividend may have degree m),
    s has ceil(log m) wires, flg one.  div must be nonzero.
    """
    L = log2_ceil(m)
    gates = []

    # 1-2. s <- number of leading zeros of div (= m-1-deg); rotate div left
    # by s (top coefficient to wire m-1).
    normalize = normalize_gates(div, m, s)
    gates.extend(normalize)

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
    gates.extend(reversed(normalize))
    return gates


def naive_division_layout(m: int) -> dict[str, int]:
    """The division's registers.  `anc` is idle: no gate touches it.  It is
    kept only because the benchmark's oracle check for the division reads
    it, and goes when that benchmark is re-baselined."""
    L = log2_ceil(m)
    return {"a": m, "b": m + 1, "q": m + 1, "s": L, "anc": 1, "flg": 1}


def build_naive_long_division(m: int) -> Circuit:
    """The reversible long division |A>|B>|0> <-> |A>|B+qA>|q>.

    Registers: a (divisor, m wires), b (dividend, m+1 wires so the field
    modulus fits on the first Euclid iteration), q (m+1 wires), plus the
    leading-zero count s and the round flag; all scratch returns to 0.
    """
    c = Circuit(naive_division_layout(m))
    c.extend(_division_gates(m, "a", "b", "q", "s", "flg"))
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
    c.extend(_division_gates(m, "ra", "rb", "q", "s", "flg"))
    c.extend(reversed(_division_gates(m, "ka", "kb", "q", "s", "flg")))
    for i in range(m):
        c.add(swap(("ra", i), ("rb", i)))
        c.add(swap(("ka", i), ("kb", i)))
    return c


def run_naive_inversion(c_elem: int, field: FieldSpec, trace: list | None = None) -> int:
    """Invert a nonzero field element by stepping the iteration circuit.

    The number of iterations depends on the input, so this driver is not
    synchronized; it is the reference the optimized machine is checked
    against.  It needs at most m - 1 iterations: each one replaces A by
    B mod A, which lowers deg(A) by at least 1, from deg(c) <= m - 1 down
    to 0, and A never becomes 0 since gcd(c, f) = 1 for the irreducible f.
    Some input needs all m - 1 under every irreducible modulus of degree
    2..10.  If `trace` is given, the EuclideanPairs state after every
    iteration is appended.
    """
    if c_elem == 0:
        raise ZeroElement("cannot invert 0")
    require_element(c_elem, field.m)
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
        if steps > m - 1:
            raise InvariantViolation(f"Euclid failed to terminate within m - 1 = {m - 1} iterations")
        if trace is not None:
            trace.append(
                EuclideanPairs(state.get_reg("ka"), state.get_reg("ra"), state.get_reg("kb"), state.get_reg("rb"))
            )
        for scratch in ("q", "s", "flg"):
            if state.get_reg(scratch) != 0:
                raise InvariantViolation(f"scratch {scratch} not restored")
    return state.get_reg("ka")
