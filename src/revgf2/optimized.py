"""The optimized, synchronized extended Euclidean inversion.

Space comes from two ideas: the degree identity deg(a) + deg(B) = m lets
each remainder share an m-wire register with its coefficient partner
(packed from opposite ends, leading coefficients implicit since the
degree bank knows where they are), and quotients are capped at
3*ceil(log m) bits since larger ones are rare.

Control comes from synchronization: a fixed round-robin of four scheduled
operation slots (o1a read-quotient-bit, o1b conditional-subtract, o1c
shift, o2 shift-off-leading-zeros), an advance-counter step between slots,
a flag wire marking sequence boundaries, and a halting counter that
early finishers tick so the global schedule can run to a fixed length:
2m - 2 rounds, the proven worst case (see default_cycles).

The model acts bit-exactly on `SyncState`, which holds machine_layout's
registers (A, B, a, b and q as plain, unbounded polynomials) and the
clock; the degree bank is updated as registers, never read off the
polynomials.  Of the four slots' possible round starts only two are
reachable (run_round proves it), so run_round runs a round as one of
two kinds: a division round (o1a, then o1b and o1c, or o2 once the last
quotient read has cleared q) or a shift round (o2 alone).  The
layout, not the model, is what the qubit-budget audit measures, and
the model does not yet fit it: (a, A) always fits one m-bit word, but
o1b adds a*z^shift from the largest shift down, so mid-division the
(b, B) pair exceeds m bits (at m = 8, 192 of 255 inputs reach
deg(b) + deg(B) > m, up to 2m - 2).  The 2m data term of machine_layout
is therefore the paper's claim, not yet the model's.  The steps have no
gate list yet, so the machine has no gate count or depth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .blocks import log2_ceil
from .errors import BadParameter, CycleBudgetExceeded, InvariantViolation, ZeroElement
from .field import FieldSpec, require_element
from .poly import degree, poly_divmod

# Scheduled operation indices, in counter-cycle order.
O1A, O1B, O1C, O2 = 0, 1, 2, 3
OP_NAMES = {O1A: "o1a", O1B: "o1b", O1C: "o1c", O2: "o2"}


# --- layout and budget -----------------------------------------------------


@functools.cache  # o1a reads it on every quotient bit
def quotient_capacity(m: int) -> int:
    """The bounded quotient register width, 3*ceil(log m) bits."""
    return 3 * log2_ceil(m)


def default_cycles(m: int) -> int:
    """Global round budget: 2m - 2 rounds, the exact worst case.

    Let Phi = degA + degB.  Every round lowers Phi by exactly 1.  In a
    division round o1c steps degB down once; in the round with the last
    quotient read, and in every round after it with f = 0, o2 steps it
    down once.  The swap at an iteration boundary only exchanges the two
    degrees.  Phi starts at deg(c) + m <= 2m - 1.  The machine stops when
    A = 1, and then degB >= 1, since B holds the previous A.  So an input
    runs for at most 2m - 2 rounds.  An input of degree m - 1 whose last
    remainder before 1 has degree 1 runs for exactly that many; acceptance
    criterion 6 finds one under every irreducible modulus of degree 2..8.

    A single division (trace_table's first-iteration mode) steps degB from
    deg(dividend) down to the remainder's degree, so it runs for at most
    deg(dividend) rounds, within the budget when m >= 2 and
    deg(dividend) <= m.
    """
    return 2 * m - 2


def halting_counter_width(m: int, cycles: int | None = None) -> int:
    if cycles is None:
        cycles = default_cycles(m)
    return cycles.bit_length()  # ceil(log2(cycles + 1))


def machine_layout(m: int, H: int | None = None) -> dict[str, int]:
    """The optimized inverter's register map; its width is the audited
    qubit budget."""
    if H is None:
        H = halting_counter_width(m)
    L = log2_ceil(m)
    return {
        "rAa": m,  # A and a, shared in opposing directions
        "rBb": m,  # B and b, shared in opposing directions
        "q": quotient_capacity(m),
        "degA": L,
        "degB": L,
        "dega": L,
        "degb": L,
        "deg_anc": 4,  # one increment/decrement ancilla per degree register
        "f": 1,
        "c": 2,
        "h": H,
    }


def qubit_budget(m: int, H: int = 0) -> int:
    """The closed-form width 2m + 7*ceil(log m) + 7 + H."""
    return 2 * m + 7 * log2_ceil(m) + 7 + H


# --- the synchronized machine ----------------------------------------------


@dataclass(slots=True)
class SyncState:
    """One input's view of the synchronized machine; run_synchronized
    returns the final one.

    The fields are machine_layout's registers but deg_anc, plus m, the
    clock `rounds` (idle rounds included), the iteration count and the
    fidelity flag.  A/B are the remainder pair (B doubles as the evolving
    partial remainder during a division), a/b the coefficient pair.  degB
    is the working alignment: it starts at the true degree of B and is
    stepped down by the shifts to the new remainder's.  q is nonzero
    exactly while a division runs, since its first bit is B's leading 1."""

    m: int
    A: int
    B: int
    a: int = 1
    b: int = 0
    degA: int = 0
    degB: int = 0
    dega: int = 0
    degb: int = 0
    q: int = 0
    quotient_overflow: bool = False
    f: int = 1
    c: int = O1A
    h: int = 0
    iterations: int = 0
    rounds: int = 0

    @staticmethod
    def initial(c_elem: int, modulus: int, m: int) -> "SyncState":
        if c_elem == 0:
            raise ZeroElement("cannot invert 0")
        return SyncState(m=m, A=c_elem, B=modulus, degA=degree(c_elem), degB=degree(modulus))

    @property
    def done(self) -> bool:
        """The termination state A = 1."""
        return self.A == 1

    @property
    def inverse(self) -> int:
        """The coefficient a, which holds the inverse once A = 1."""
        return self.a

    def final_signature(self) -> tuple:
        """The machine's registers; distinct inputs must end distinct."""
        return (self.a, self.A, self.b, self.B, self.dega, self.degA, self.degb, self.degB,
                self.q, self.f, self.c, self.h)


def advance_counter(state: SyncState) -> None:
    """ac: c <- (c + f) mod 4; a bijection on the (f, c) wires."""
    state.c = (state.c + state.f) % 4


def _division_round(state: SyncState, on_fire) -> None:
    """The round from (c, f) = (O1A, 1).

    o1a: the bit at the working alignment becomes the next quotient bit.
    On the last read of a division (the alignment has reached deg(A)) the
    final conditional subtract, the quotient uncompute and the coefficient
    co-update fold in here, and degb becomes dega + deg(q), which is
    deg(b + q a) since deg(b) < deg(a).  While q is nonzero, o1b subtracts
    the aligned divisor from B if the new bit is 1, folding the same update
    into the coefficient pair, o1c shifts B one slot toward the high-order
    end, and o2 passes through; once q is clear, o1b and o1c pass through
    and o2 acts as in a shift round."""
    degB = state.degB  # >= degA >= 0 while a division runs
    bit = (state.B >> degB) & 1
    q = (state.q << 1) | bit
    if q.bit_length() > quotient_capacity(state.m):
        state.quotient_overflow = True
    if state.degA == degB:
        if bit:
            state.B ^= state.A
            state.b ^= state.a
        state.degb = state.dega + q.bit_length() - 1
        q ^= poly_divmod(state.b, state.a)[0]  # clears q, since deg(b + q a) < deg(a)
        if q:
            raise InvariantViolation("quotient uncompute left q nonzero")
    state.q = q
    state.c = O1B
    if on_fire is not None:
        on_fire(O1A)
    if not q:
        state.c = O2
        _shift(state, on_fire)
        return
    if q & 1:
        shift = degB - state.degA
        state.B ^= state.A << shift
        state.b ^= state.a << shift
    state.c = O1C
    if on_fire is not None:
        on_fire(O1B)
    state.degB = degB - 1
    state.c = O2
    if on_fire is not None:
        on_fire(O1C)
    state.c = O1A


def _shift(state: SyncState, on_fire) -> None:
    """o2: shift one leading zero off the remainder.  The first shift after
    a division, where the alignment still equals deg(A), sets f = 0; the
    shift that brings a 1 into the high-order slot reaches the iteration
    boundary, sets f back to 1 and swaps the Euclidean pairs,
    (a,A)(b,B) -> (b+qa, B+qA)(a,A), degB having been stepped down to the
    remainder's true degree and degb set to deg(b + qa).  A coefficient at
    a negative alignment reads 0: after an exact division (a reducible
    modulus) B is 0 and the shifts run on past degree 0."""
    if state.degA == state.degB:
        state.f ^= 1
    degB = state.degB = state.degB - 1
    if degB >= 0 and (state.B >> degB) & 1:
        state.f ^= 1
        state.a, state.A, state.dega, state.degA, state.b, state.B, state.degb, state.degB = (
            state.b, state.B, state.degb, degB, state.a, state.A, state.dega, state.degA)
        state.iterations += 1
    state.c = O1A if state.f else O2
    if on_fire is not None:
        on_fire(O2)


def run_round(state: SyncState, on_fire=None) -> None:
    """One global round: the four operation slots, each followed by the
    advance-counter step; a finished input ticks the halting counter.

    Only two kinds of round occur, so each runs as itself.  The machine
    starts at (c, f) = (O1A, 1).  o1a, o1b and o1c never change f, so in a
    *division round* from (O1A, 1) the three advances after them bring c
    to O2: o1a runs, then o1b and o1c while q != 0 (o2 passes through), or
    o2 once the last quotient read has cleared q.  o2, acting or passing
    through, leaves f = 1, and its advance wraps c to O1A, or f = 0, and
    c stays at O2.  A *shift round* from (O2, 0) has q = 0, because only
    an acting o2 sets f = 0 and only o1a writes q; o1a..o1c are not
    selected, their advances add f = 0, and o2 runs alone and leaves the
    same two ways.  Once the input is done (A = 1) no slot acts and the
    four advances add 4f = 0 (mod 4).  Any other start of an unfinished
    input raises InvariantViolation.

    `on_fire(op_id)`, if given, is called after every slot that acted,
    with c already advanced."""
    if state.A != 1:
        if state.c == O1A and state.f == 1:
            _division_round(state, on_fire)
        elif state.c == O2 and state.f == 0 and not state.q:
            _shift(state, on_fire)
        else:
            raise InvariantViolation(
                f"a round starts at c = {OP_NAMES.get(state.c, state.c)}, f = {state.f}, q = {state.q:b}; "
                "only (o1a, 1) and (o2, 0, q = 0) are reachable")
    if state.A == 1:
        state.h += 1
    state.rounds += 1


def _run_rounds(state: SyncState, cycles: int, stop_after_first_iteration: bool = False, on_fire=None) -> None:
    """The machine's one loop: call run_round until the input is done or
    its first iteration has finished (if asked); raises CycleBudgetExceeded
    if the state's clock reaches `cycles` first.

    run_round is looked up as a module global on every call, so a caller
    that rebinds `optimized.run_round` sees every round."""
    while not (state.A == 1 or (stop_after_first_iteration and state.iterations >= 1)):
        if state.rounds >= cycles:
            raise CycleBudgetExceeded(f"unfinished after {cycles} rounds, at A = {state.A:b}, B = {state.B:b}")
        run_round(state, on_fire)


def _invert_in_budget(c_elem: int, field: FieldSpec, cycles: int) -> SyncState:
    """Run one input until it is done; return its state."""
    require_element(c_elem, field.m)
    state = SyncState.initial(c_elem, field.modulus, field.m)
    _run_rounds(state, cycles)
    return state


def run_synchronized(inputs, field: FieldSpec, cycles: int | None = None) -> dict[int, SyncState]:
    """Drive every input through the identical global schedule; return
    each input's final state.

    Each input is simulated independently under the shared clock; the
    sequence of scheduled slots is a function of the clock only, so all
    inputs advance in lockstep.  Once an input is done no slot fires and
    a round's four advance-counter steps add 4f = 0 (mod 4) to c, so each
    remaining round only ticks h and the clock: those rounds are credited
    to h and rounds, not simulated.  Raises CycleBudgetExceeded if any
    input has not reached the termination state within `cycles` rounds."""
    if cycles is None:
        cycles = default_cycles(field.m)
    results: dict[int, SyncState] = {}
    for c_elem in inputs:
        state = _invert_in_budget(c_elem, field, cycles)
        state.h += cycles - state.rounds
        state.rounds = cycles
        results[c_elem] = state
    return results


def optimized_invert(c_elem: int, field: FieldSpec) -> int:
    """Inverse of a single element via the synchronized machine.

    A lone basis state may stop as soon as it reaches the termination
    state; the fixed-length schedule only matters when inputs share a
    clock, which run_synchronized models.
    """
    return _invert_in_budget(c_elem, field, default_cycles(field.m)).a


# --- trace rendering (Fig-8 style tableau) ---------------------------------


def _working_row(state: SyncState) -> dict:
    return {
        "A": format(state.A, "b"),
        "B": format(state.B, "b"),
        "a": format(state.a, "b"),
        "b": format(state.b, "b"),
        "degA": state.degA,
        "degB": state.degB,
        "q": format(state.q, "b"),
        "f": state.f,
        "c": OP_NAMES[state.c],
        "h": state.h,
        "done": state.done,
    }


def trace_table(c_elem: int, modulus: int, m: int, stop_after_first_iteration: bool = False) -> list[dict]:
    """Row-per-fired-operation table of the synchronized run.

    With stop_after_first_iteration the table covers a single long
    division (used to replay a division of B by A without any field
    structure: initialize with modulus = B); the division must be inexact,
    since a zero remainder never reaches an iteration boundary, and
    deg(B) <= m keeps it within default_cycles(m)."""
    if not stop_after_first_iteration:
        require_element(c_elem, m)
    elif c_elem == 0:
        raise BadParameter("divisor must be nonzero")
    elif modulus == 0:
        raise BadParameter("dividend must be nonzero")
    elif m < 2 or degree(modulus) > m:
        raise BadParameter(f"a division trace needs m >= 2 and deg(dividend) <= m, not {degree(modulus)} at m = {m}")
    elif degree(c_elem) > degree(modulus):
        raise BadParameter("divisor degree exceeds the dividend's; nothing to divide")
    elif poly_divmod(modulus, c_elem)[1] == 0:
        raise BadParameter("the division is exact; a zero remainder never reaches an iteration boundary")
    state = SyncState.initial(c_elem, modulus, m)
    rows = [dict(_working_row(state), op="init")]

    def record(op_id: int) -> None:
        rows.append(dict(_working_row(state), op=OP_NAMES[op_id]))

    _run_rounds(state, default_cycles(m), stop_after_first_iteration, record)
    return rows
