"""Naive reversible long division and the Euclid iteration built from it.

The division circuit realizes |A>|B>|0> <-> |A>|B+qA>|q| with
(q, r) = divmod(B, A), as a fixed gate sequence:

  1-2. normalize with `blocks.normalize_stage`, a binary search for A's
     leading zeros (Warren, Hacker's Delight, section 5-3).  For j = L-1
     down to 0, bit j of a register S is set if the top 2^j wires of A
     are all zero, and A then shifts left by 2^j, over those zero wires,
     if that bit is set.  S ends as A's leading-zero count, and A's
     leading coefficient, 1, sits at the top wire.  Given wires at 0,
     stage 0 copies S's bit 0 onto some of them and shares its m - 1
     controlled swaps out over the copies,
  3. quotient rounds with fixed wiring, m+1 in the division and m in
     each of the Euclid iteration's two: round t copies B's bit m-t
     into the quotient register and conditionally subtracts the aligned
     divisor; rounds beyond the quotient length are disabled by a flag
     wire that flips once, when the round counter passes S.  The flag is
     1 in rounds 0 and 1, so their copies are CNOTs on B's bit alone, and
     the top wire of A is 1, so each round subtracts it with a CNOT on
     the quotient bit alone: m + 3 Toffolis fewer.  Each round subtracts
     from B's bit m-t-1, the bit round t+1 copies, down, and clears bit
     m-t, the bit it copied, last: the rounds pipeline, each about one
     layer behind the last rather than after all of it.  A round's
     subtractions commute, since each writes its own wire of B and none
     writes a wire another reads, so the order changes the depth, not
     the map.  Round t finds q's bit of z^(S+1-t) and writes it on wire
     1-t mod n of an n-wire quotient ring, n = m+1 in the division: the
     word already rotated right by S, a relabelling of the wires the
     rounds write, since the register starts at 0, so no gates,
  4. rotate the quotient ring left by S, a controlled rotation on S's
     bits, two layers of controlled swaps per bit, so the stored word
     becomes q itself.  Bit j costs n - gcd(n, 2^j) swaps.  In the Euclid
     iteration q has at most m bits, and the ring has n = m wires at
     even m: 49 swaps at m = 16, against 64 for m+1 wires,
  5. the normalize gates reversed, without copies, which shift A back
     and clear S.

In the Euclid iteration the forward division's S is the register s, and
the reversed division's S starts on wires already clear: its top two bits
on rb[m] and rb[m-1], which hold B mod A's coefficients of z^m and
z^(m-1), 0 while A != 1 since deg(B mod A) <= deg(A) - 1 <= m - 2, and
the rest on the s wires the forward division clears first.  The two
divisions then overlap rather than run back to back.  A lane with A = 1
may find them set and end with garbage; the driver gives such a lane its
previous wires back.  The quotient ring is all 0 while the forward
division normalizes A, before its rounds write q, and while the reversed
division un-normalizes a, after its rounds clear q, so both of those
normalizations fan stage 0 out onto q's wires; in between q holds the
quotient, and the other two run without copies.  On a ring of n = 2^k
wires both quotient rotations' top stages rotate by n/2, the same
swaps left or right, so they run as one stage on the xor of the two
counts' top bits.

The inversion driver packs its inputs into lanes, one lane per input, and
runs the iteration's kernel pass after pass, in place, on one resident wire
list that every pass leaves in layout order, until every lane has A = 1; a
lane that is done keeps its wires while the others go on.  How many passes
an input needs depends on the input, which is exactly the synchronization
defect the optimized implementation repairs.
`run_naive_inversion` is the driver on one lane, `run_naive_inversions` on
many; both return only the inverses.  A caller that wants the pairs at each
iteration boundary steps `build_euclid_iteration` itself, with `run_lanes`.
"""

from __future__ import annotations

import functools
from operator import itemgetter, or_
from typing import NamedTuple

from .blocks import controlled_rotation_stage, log2_ceil, normalize_stage
from .circuit import Circuit, Gate, cnot, gate_not, lane_values, pack_lanes, register_wires, run_wires, swap
from .errors import InvariantViolation, ZeroElement
from .field import FieldSpec, require_element


def _pattern_controls(wires, value: int):
    """Controls asserting the count on `wires`, bit i on wires[i], equals
    value (0-controls on the clear bits)."""
    return [(w, (value >> i) & 1) for i, w in enumerate(wires)]


def _flat(stages) -> list[Gate]:
    return [g for stage in stages for g in stage]


def _undo(stages) -> list[Gate]:
    """The stages' gates, last first, each stage's backwards."""
    return [g for stage in reversed(stages) for g in reversed(stage)]


class _Division(NamedTuple):
    """A division's gates by section; `gates()` is the whole division."""

    normalize: list[Gate]  # steps 1-2, stage 0's count bit fanned out over the idle wires
    stages: list[list[Gate]]  # the normalization's stages L-1..0 with no copies; step 5 undoes them
    rounds: list[Gate]  # step 3
    rotation: list[list[Gate]]  # step 4, stage 0 first

    def gates(self) -> list[Gate]:
        return self.normalize + self.rounds + _flat(self.rotation) + _undo(self.stages)


def _division(m: int, div: str, dvd: str, first: int = 0, last: int | None = None, n: int | None = None, s=None, idle=()) -> _Division:
    """The gates of |div>|dvd>|0> <-> |div>|dvd+q*div>|q>, by section.

    div has m wires, the quotient q n (m+1 unless given), the leading-zero
    count ceil(log m), bit j on the wire s[j] (register s unless given), and
    flg one; div must be nonzero.  Rounds `first` (0 or 1) to `last` (m
    unless given) run; round t finds q's bit of z^(m-t-deg(div)) and
    writes it on wire (1-t) mod n, so n >= last-first+1, and q ends on
    its own wires if deg(q) < n.  From round 0, dvd has m+1 wires (the
    dividend may have degree m); from round 1 it has m, and round 0's
    bit, of z^(m-deg(div)), must be 0.  Ending at round m-1 drops round
    m's bit, of z^(-deg(div)), which only div = 1 has; the flag then
    ends at 0 only for deg(div) >= 1.
    The normalization fans its stage 0 out over `idle` (wires at 0 that no
    other gate of steps 1-2 touches, see `blocks.normalize_stage`); step 5,
    where q holds the quotient, undoes it without copies.
    """
    last = m if last is None else last
    n = m + 1 if n is None else n
    s = register_wires("s", log2_ceil(m)) if s is None else s
    quo, flg = "q", ("flg", 0)  # the scratch, named alike in both layouts

    # 1-2. s <- number of leading zeros of div (= m-1-deg); shift div left
    # by s (top coefficient to wire m-1).
    stages = [normalize_stage(div, m, s[j], j) for j in reversed(range(len(s)))]
    normalize = _flat(stages[:-1]) + (normalize_stage(div, m, s[0], 0, idle) if idle else stages[-1])

    # 3. quotient rounds.  Round t examines dvd bit m-t; the flag starts 1
    # and flips to 0 when t passes the quotient length (t = s+2).  Round t's
    # quotient bit, of z^(s+1-t), belongs on wire s+1-t once q is rotated
    # left by s; q starts at 0, so writing it on wire 1-t mod n does the
    # rest of that rotation by relabelling, with no gates.  The subtractions
    # go from dvd bit m-t-1, round t+1's, down, and the one that clears
    # bit m-t, the copied bit, goes last.
    rounds = [gate_not(flg)]
    for t in range(first, last + 1):
        qt = (quo, (1 - t) % n)
        flag = []  # the flag is 1 in rounds 0 and 1, whatever s holds: no control
        if t >= 2:
            rounds.append(cnot(_pattern_controls(s, t - 2), flg))
            flag = [(flg, 1)]
        rounds.append(cnot(flag + [((dvd, m - t), 1)], qt))
        # div wire j+t-1 is subtracted from dvd wire j; div's wire m-1 holds
        # its leading coefficient, 1 once normalized: no control
        rounds += [cnot([(qt, 1), ((div, j + t - 1), 1)], (dvd, j)) for j in reversed(range(max(0, 1 - t), m - t))]
        rounds.append(cnot([(qt, 1)], (dvd, m - t)))
    rounds.append(cnot(_pattern_controls(s, last - 1), flg))

    # 4. the stored quotient word is q rotated right by s; rotate it back.
    # 5. (`gates()`) un-normalize div and uncompute s.
    rotation = [controlled_rotation_stage(quo, n, s[j], j, "left") for j in range(len(s))]
    return _Division(normalize, stages, rounds, rotation)


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
    return Circuit(layout, _division(m, "a", "b").gates(), ("a", "s", "anc", "flg"))


def euclid_iteration_layout(m: int) -> dict[str, int]:
    """The Euclid iteration's registers: remainders A, B and coefficients
    a, b, (a, A) the leading pair, then the quotient ring (m + (m & 1)
    wires, see `build_euclid_iteration`) and the scratch."""
    return {"ra": m, "rb": m + 1, "ka": m, "kb": m, "q": m + (m & 1), "s": log2_ceil(m), "flg": 1}


@functools.lru_cache(maxsize=None)
def build_euclid_iteration(m: int) -> Circuit:
    """One Euclid iteration (a,A)(b,B) <-> (b+qa, B+qA)(a,A), q uncomputed.

    Three individually reversible steps: the long division on (A, B),
    the reversed division on (a, b) which replays b <- b+qa and clears q
    (valid because floor((b+qa)/a) = floor(B/A)), then the pair swap.
    While A != 1, deg(a) + deg(B) = m, so every value b takes, b plus a
    partial quotient times a, has degree at most m - deg(A) <= m - 1:
    b has m wires, and the reversed division skips round 0, whose
    quotient bit, of z^deg(B), is 0.  The driver runs no lane with A = 1,
    so the forward division skips round m, whose bit only A = 1 sets.
    Then q = B div A has degree deg(B) - deg(A) <= m - 1: each division
    runs m rounds, on distinct wires of a ring of n = m wires at even m.
    At odd m the ring keeps m + 1 wires, since a ring of odd length n
    makes each rotation stage one cycle, which pipelines worse: n = 163
    makes the m = 163 iteration 3 455 deep, against 2 528 with n = 164.
    The reversed division counts a's leading zeros on wires already clear
    (see the module docstring): bit j on free[L-1-j] of
    free = (rb[m], rb[m-1], s_0, s_1, ...).  Its normalization computes
    bits L-1 down to 0, so the first two go on rb's top wires and the rest
    on s in the order the forward un-normalization clears it.  With both
    counts on s the two divisions run back to back, and the m = 16
    iteration is 270 deep, with no top stage to merge.
    q is 0 while the forward division normalizes A and while the reversed
    one un-normalizes a, so those two fan their stage 0 out onto q, from
    q[2] up: the forward rounds write those wires last and the reversed
    rounds clear them among the first (228 and 2 528 deep at m = 16 and
    163, against 229 and 2 531 from q[0] up).  On a ring of 2^k wires
    the two top rotation stages merge: after the forward stages 0..L-2
    runs the reversed normalization's stage L-1, which puts s'_(L-1) on
    rb[m] from a alone, then rb[m] ^= s_(L-1), the rotation by n/2 on rb[m],
    and rb[m] ^= s_(L-1) again; then the forward un-normalization's
    stages 0..L-2, the rest of the reversed normalization, the reversed
    stages L-2..0 and last the forward un-normalization's stage L-1,
    which shares no wire with the two sections it follows: no layer
    moves, and the kernel's 128-line chunks load and store 333 and 281
    wires per pass, against 341 and 298 with it before them.
    Together the m = 16 iteration is 228 deep, Toffoli-depth 185, against
    253 and 203 without them, with 18 gates fewer and the same wires.
    """
    layout = euclid_iteration_layout(m)
    n, L = layout["q"], layout["s"]
    idle = [("q", (2 + i) % n) for i in range(n)]  # from q[2] up: written last, cleared early
    merged = not n & (n - 1)
    fwd = _division(m, "ra", "rb", last=m - 1, n=n, idle=idle)
    free = [("rb", m), ("rb", m - 1), *register_wires("s", L)]
    rev = _division(m, "ka", "kb", first=1, n=n, s=free[L - 1::-1], idle=idle)
    # the forward division, then the reversed one backwards
    gates = fwd.normalize + fwd.rounds
    if merged:
        # both top stages rotate by n/2 on q: one stage on s_(L-1) xor s'_(L-1), once s' has it
        top, rtop = ("s", L - 1), free[0]
        flip = cnot([(top, 1)], rtop)
        gates += _flat(fwd.rotation[:-1]) + rev.stages[0]
        gates += [flip] + controlled_rotation_stage("q", n, rtop, L - 1, "left") + [flip]
        # the forward un-normalization's stage L-1 goes last (see the docstring)
        gates += _undo(fwd.stages[1:]) + _flat(rev.stages[1:]) + _undo(rev.rotation[:-1]) + _undo(fwd.stages[:1])
    else:
        gates += _flat(fwd.rotation) + _undo(fwd.stages) + _flat(rev.stages) + _undo(rev.rotation)
    gates += rev.rounds[::-1] + rev.normalize[::-1]
    gates += [swap((a, i), (b, i)) for i in range(m) for a, b in (("ra", "rb"), ("ka", "kb"))]
    return Circuit(layout, gates, ("q", "s", "flg"))


# Lanes per kernel run of `run_naive_inversions`.  At m = 16 each of the
# iteration's 86 wire ints is then 8 KiB.  All of GF(2^20) took 1.5-1.6 s and
# 100 MB peak RSS in 2^16-lane runs, against 1.9 s and 146 MB in one run of
# 2^20 lanes (two runs each; Python 3.11, shared 2-core Xeon).
MAX_INVERSION_LANES = 1 << 16


def run_naive_inversion(c_elem: int, field: FieldSpec) -> int:
    """Invert a nonzero field element: the lane driver on one lane."""
    return _invert_lanes([c_elem], field)[0]


def run_naive_inversions(inputs, field: FieldSpec) -> list[int]:
    """Invert nonzero field elements, one lane per input, in kernel runs of
    at most MAX_INVERSION_LANES lanes; the inverses in input order."""
    inputs = list(inputs)
    inverses: list[int] = []
    for start in range(0, len(inputs), MAX_INVERSION_LANES):
        inverses += _invert_lanes(inputs[start:start + MAX_INVERSION_LANES], field)
    return inverses


def _invert_lanes(inputs: list[int], field: FieldSpec) -> list[int]:
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
    that was active.
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

    active = unfinished(wires)
    steps = 0
    while active:
        before = None if active == mask else list(wires)
        run_wires(iteration, wires, mask)
        steps += 1
        if steps > m - 1:
            raise InvariantViolation(f"Euclid failed to terminate within m - 1 = {m - 1} iterations")
        dirty = functools.reduce(or_, scratch_wires(wires)) & active
        if dirty:
            lane = dirty.bit_length() - 1
            name = next(r for r in iteration.restores if functools.reduce(or_, wires[regs[r]]) >> lane & 1)
            raise InvariantViolation(f"scratch {name} not restored (input {inputs[lane]:b})")
        if before is not None:
            wires = [w & active | b & ~active for w, b in zip(wires, before)]
        active = unfinished(wires)
    return list(lane_values(wires[regs["ka"]], lanes))
