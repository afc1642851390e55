"""Naive reversible long division and the Euclid iteration built from it.

The division circuit realizes |A>|B>|0> <-> |A>|B+qA>|q| with
(q, r) = divmod(B, A), as a fixed gate sequence:

  1-2. normalize with `blocks.normalize_gates`, a binary search for A's
     leading zeros (Warren, Hacker's Delight, section 5-3).  For j = L-1
     down to 0, bit j of a register S is set if the top 2^j wires of A
     are all zero, and A then shifts left by 2^j, over those zero wires,
     if that bit is set.  S ends as A's leading-zero count, and A's
     leading coefficient, 1, sits at the top wire,
  3. m+1 quotient rounds with fixed wiring: round t copies B's bit m-t
     into the quotient register and conditionally subtracts the aligned
     divisor; rounds beyond the quotient length are disabled by a flag
     wire that flips once, when the round counter passes S.  The flag is
     1 in rounds 0 and 1, so their copies are CNOTs on B's bit alone, and
     the top wire of A is 1, so each round subtracts it with a CNOT on
     the quotient bit alone: m + 3 Toffolis fewer.  The rounds write the
     quotient word already rotated left by 2: a relabelling of the wires
     they write, since the register starts at 0, so no gates,
  4. rotate the quotient register left by S, a controlled rotation on S's
     bits, two layers of controlled swaps per bit, so the stored word
     becomes q itself,
  5. the normalize gates reversed, which shift A back and clear S.

The inversion driver packs its inputs into lanes, one lane per input, and
runs the iteration's kernel pass after pass, in place, on one resident wire
list that every pass leaves in layout order, until every lane has A = 1; a
lane that is done keeps its wires while the others go on.  How many passes
an input needs depends on the input, which is exactly the synchronization
defect the optimized implementation repairs.
`run_naive_inversion` is the driver on one lane, `run_naive_inversions` on
many.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter, or_

from .blocks import controlled_rotation_gates, log2_ceil, normalize_gates
from .circuit import Circuit, cnot, gate_not, lane_values, pack_lanes, run_wires, swap
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


def _division_gates(m: int, div: str, dvd: str):
    """Gate sequence for |div>|dvd>|0> <-> |div>|dvd+q*div>|q>.

    div has m wires, dvd and the quotient q have m+1 (the dividend may have
    degree m), s has ceil(log m) wires, flg one.  div must be nonzero.
    """
    quo, s, flg = "q", "s", "flg"  # the scratch, named alike in both layouts
    L = log2_ceil(m)
    gates = []

    # 1-2. s <- number of leading zeros of div (= m-1-deg); shift div left
    # by s (top coefficient to wire m-1).
    normalize = normalize_gates(div, m, s)
    gates.extend(normalize)

    # 3. quotient rounds.  Round t examines dvd bit m-t; the flag starts 1
    # and flips to 0 when t passes the quotient length (t = s+2).  Round t's
    # quotient bit belongs on wire m-t, rotated left by 2 over the m+1
    # quotient wires; q starts at 0, so writing it on wire m-t+2 mod m+1
    # does that rotation by relabelling, with no gates.
    gates.append(gate_not((flg, 0)))
    for t in range(m + 1):
        qt = (quo, (m - t + 2) % (m + 1))
        flag = []  # the flag is 1 in rounds 0 and 1, whatever s holds: no control
        if t >= 2:
            gates.append(cnot(_pattern_controls(s, L, t - 2), (flg, 0)))
            flag = [((flg, 0), 1)]
        gates.append(cnot(flag + [((dvd, m - t), 1)], qt))
        for j in range(m + 1):
            src = j + t - 1
            if 0 <= src <= m - 1:
                # div's wire m-1 holds its leading coefficient, 1 once normalized: no control
                coefficient = [((div, src), 1)] if src < m - 1 else []
                gates.append(cnot([(qt, 1)] + coefficient, (dvd, j)))
    gates.append(cnot(_pattern_controls(s, L, m - 1), (flg, 0)))

    # 4. the stored quotient word is q << deg(div), rotated left by 2;
    # rotate it left by s more, i.e. right by the degree.
    gates.extend(controlled_rotation_gates(quo, m + 1, s, L, "left"))

    # 5. un-normalize div and uncompute s.
    gates.extend(reversed(normalize))
    return gates


def build_naive_long_division(m: int) -> Circuit:
    """The reversible long division |A>|B>|0> <-> |A>|B+qA>|q>.

    Registers: a (divisor, m wires), b (dividend, m+1 wires so the field
    modulus fits on the first Euclid iteration), q (m+1 wires), plus the
    leading-zero count s and the round flag; a and all scratch but q are
    restored.  `anc` is idle: no gate touches it, so the division declares
    it restored.  It is kept only because the benchmark's oracle check for
    the division reads it, and goes when that benchmark is re-baselined.
    """
    layout = {"a": m, "b": m + 1, "q": m + 1, "s": log2_ceil(m), "anc": 1, "flg": 1}
    return Circuit(layout, _division_gates(m, "a", "b"), ("a", "s", "anc", "flg"))


@functools.lru_cache(maxsize=None)
def build_euclid_iteration(m: int) -> Circuit:
    """One Euclid iteration (a,A)(b,B) <-> (b+qa, B+qA)(a,A), q uncomputed.

    Three individually reversible steps: the long division on (A, B),
    the reversed division on (a, b) which replays b <- b+qa and clears q
    (valid because floor((b+qa)/a) = floor(B/A)), then the pair swap.
    """
    gates = _division_gates(m, "ra", "rb")
    gates += reversed(_division_gates(m, "ka", "kb"))
    gates += [swap((a, i), (b, i)) for i in range(m) for a, b in (("ra", "rb"), ("ka", "kb"))]
    # remainders A, B and coefficients a, b; (a, A) is the leading pair
    layout = {"ra": m, "rb": m + 1, "ka": m, "kb": m + 1, "q": m + 1, "s": log2_ceil(m), "flg": 1}
    return Circuit(layout, gates, ("q", "s", "flg"))


# Lanes per kernel run of `run_naive_inversions`.  At m = 16 each of the
# iteration's 88 wire ints is then 8 KiB.  All of GF(2^20) took 3.9 s and
# 106-111 MB peak RSS in 2^16-lane runs, against 4.8 s and 249 MB in one run
# of 2^20 lanes (two runs each; Python 3.11, shared 2-core Xeon).
MAX_INVERSION_LANES = 1 << 16


def run_naive_inversion(c_elem: int, field: FieldSpec, trace: list | None = None) -> int:
    """Invert a nonzero field element: the lane driver on one lane.

    If `trace` is given, the EuclideanPairs state before the first and
    after every iteration is appended.
    """
    return _invert_lanes([c_elem], field, trace)[0]


def run_naive_inversions(inputs, field: FieldSpec) -> list[int]:
    """Invert nonzero field elements, one lane per input, in kernel runs of
    at most MAX_INVERSION_LANES lanes; the inverses in input order."""
    inputs = list(inputs)
    inverses: list[int] = []
    for start in range(0, len(inputs), MAX_INVERSION_LANES):
        inverses += _invert_lanes(inputs[start:start + MAX_INVERSION_LANES], field, None)
    return inverses


def _invert_lanes(inputs: list[int], field: FieldSpec, trace: list | None) -> list[int]:
    """Step the iteration circuit on every lane until each has A = 1.

    The number of iterations depends on the input, so this driver is not
    synchronized; it is the reference the optimized machine is checked
    against.  It needs at most m - 1 iterations: each one replaces A by
    B mod A, which lowers deg(A) by at least 1, from deg(c) <= m - 1 down
    to 0, and A never becomes 0 since gcd(c, f) = 1 for the irreducible f.
    Some input needs all m - 1 under every irreducible modulus of degree
    2..10.  The wires stay packed across passes.  After a pass, a lane that
    already had A = 1 before it gets its previous wires back, since the
    iteration would divide on by A = 1.  Every pass starts the registers
    the iteration restores at 0, so they must end it at 0 in every lane
    that was active.  `trace` gets lane 0's pairs.
    """
    m = field.m
    for c in inputs:
        if c == 0:
            raise ZeroElement("cannot invert 0")
        require_element(c, m)
    iteration = build_euclid_iteration(m)
    lanes = len(inputs)
    mask = (1 << lanes) - 1
    start = {"ra": inputs, "rb": [field.modulus] * lanes, "ka": [1] * lanes}
    regs, wires, at = {}, [], 0
    for name, width in iteration.layout.items():
        regs[name] = slice(at, at + width)
        wires += pack_lanes(start.get(name, []), width)
        at += width
    ra = regs["ra"]
    scratch_wires = itemgetter(*(i for name in iteration.restores for i in range(regs[name].start, regs[name].stop)))

    def unfinished(wires: list[int]) -> int:
        """The lanes whose A is not 1."""
        a = wires[ra]
        return mask & ~(a[0] & ~functools.reduce(or_, a[1:], 0))

    def pairs(wires: list[int]) -> EuclideanPairs:
        ka, A, kb, B = (next(lane_values(wires[regs[name]], lanes)) for name in ("ka", "ra", "kb", "rb"))
        return EuclideanPairs(ka, A, kb, B)

    if trace is not None:
        trace.append(pairs(wires))
    active = unfinished(wires)
    steps = 0
    while active:
        before = None if active == mask else list(wires)
        run_wires(iteration, wires, mask)
        steps += 1
        if steps > m - 1:
            raise InvariantViolation(f"Euclid failed to terminate within m - 1 = {m - 1} iterations")
        if trace is not None:
            trace.append(pairs(wires))
        dirty = functools.reduce(or_, scratch_wires(wires)) & active
        if dirty:
            lane = dirty.bit_length() - 1
            name = next(r for r in iteration.restores if functools.reduce(or_, wires[regs[r]]) >> lane & 1)
            raise InvariantViolation(f"scratch {name} not restored (input {inputs[lane]:b})")
        if before is not None:
            wires = [w & active | b & ~active for w, b in zip(wires, before)]
        active = unfinished(wires)
    return list(lane_values(wires[regs["ka"]], lanes))
