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
early finishers tick so the global schedule can run to a fixed length.

The scheduled steps are modeled as named reversible primitives that act
bit-exactly on `SyncState`, which keeps A, B, a and b as plain
polynomials; `pack` maps a pair onto its shared register.  The layout,
not the model, is what the qubit-budget audit measures.  The steps have
no gate list yet, so the machine has no gate count or depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .blocks import log2_ceil
from .errors import CycleBudgetExceeded, InvariantViolation, PackOverflow, ZeroElement
from .field import FieldSpec
from .poly import degree, poly_divmod

# Scheduled operation indices, in counter-cycle order.
O1A, O1B, O1C, O2 = 0, 1, 2, 3
OP_NAMES = {O1A: "o1a", O1B: "o1b", O1C: "o1c", O2: "o2"}


# --- register sharing ------------------------------------------------------


def _coeff(p: int, e: int) -> int:
    return (p >> e) & 1 if e >= 0 else 0


def pack(a: int, A: int, m: int) -> int:
    """Pack a coefficient/remainder pair into one m-bit register.

    A sits at the high-order end (most significant coefficient first), a at
    the low end in the opposite direction; both leading 1-coefficients are
    implicit because the degree bank locates them.  The zero polynomial
    contributes no bits.  Requires deg(a) + deg(A) <= m.
    """
    bits_a = degree(a) if a else 0
    bits_A = degree(A) if A else 0
    if bits_a + bits_A > m:
        raise PackOverflow(f"deg(a)+deg(A) = {bits_a + bits_A} exceeds m = {m}")
    packed = 0
    for i in range(bits_A):  # A's sub-leading coefficients, from the top down
        packed |= _coeff(A, bits_A - 1 - i) << (m - 1 - i)
    for i in range(bits_a):  # a's sub-leading coefficients, from the bottom up
        packed |= _coeff(a, bits_a - 1 - i) << i
    return packed


def unpack(packed: int, dega: int | None, degA: int | None, m: int) -> tuple[int, int]:
    """Inverse of pack given the degree-bank values (None encodes the zero
    polynomial)."""
    if dega is None:
        a = 0
    else:
        a = 1 << dega
        for i in range(dega):
            a |= ((packed >> i) & 1) << (dega - 1 - i)
    if degA is None:
        A = 0
    else:
        A = 1 << degA
        for i in range(degA):
            A |= ((packed >> (m - 1 - i)) & 1) << (degA - 1 - i)
    return a, A


# --- layout and budget -----------------------------------------------------


def quotient_capacity(m: int) -> int:
    """The bounded quotient register width, 3*ceil(log m) bits."""
    return 3 * log2_ceil(m)


def default_cycles(m: int) -> int:
    """Global round budget: at most 2m Euclid iterations of at most 2m+2
    shift/XOR sub-steps each.  Loose by design; validated exhaustively at
    desk scale."""
    return 2 * m * (2 * m + 2)


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
        "q": 3 * L,
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


def budget_breakdown(m: int, H: int = 0) -> dict[str, int]:
    L = log2_ceil(m)
    return {
        "data (A,B,a,b)": 2 * m,
        "quotient q": 3 * L,
        "degrees": 4 * L + 4,
        "flag f, counter c": 3,
        "halting counter H": H,
    }


# --- the synchronized machine ----------------------------------------------


@dataclass
class SyncState:
    """One input's view of the synchronized machine.

    A/B are the remainder pair (B doubles as the evolving partial
    remainder during a division), a/b the coefficient pair.  degB is the
    working alignment: it starts at the true degree of B and is stepped
    down by the shifts, returning to the true degree of the new remainder
    at each iteration boundary.
    """

    m: int
    A: int
    B: int
    a: int = 1
    b: int = 0
    degA: int = 0
    degB: int = 0
    dega: int = 0
    degb: int | None = None  # None while b is still the zero polynomial
    q: int = 0
    q_len: int = 0
    q_overflow: bool = False
    f: int = 1
    c: int = O1A
    h: int = 0
    done: bool = False
    iterations: int = 0

    @staticmethod
    def initial(c_elem: int, modulus: int, m: int) -> "SyncState":
        if c_elem == 0:
            raise ZeroElement("cannot invert 0")
        st = SyncState(m=m, A=c_elem, B=modulus, degA=degree(c_elem), degB=degree(modulus))
        if st.A == 1:
            st.done = True
        return st


def advance_counter(state: SyncState) -> None:
    """ac: c <- (c + f) mod 4; a bijection on the (f, c) wires."""
    state.c = (state.c + state.f) % 4


def aligned_with_divisor(state: SyncState) -> bool:
    """The working alignment has reached deg(A): o1a's last quotient read,
    and o2's first shift after a division."""
    return state.degA == state.degB


def o2_last_predicate(state: SyncState) -> bool:
    """The bit now in the high-order slot is 1: the remainder is aligned."""
    return _coeff(state.B, state.degB) == 1


# The four scheduled slots of the adaptive long division.  run_round calls
# a slot only when the counter selects it; the slot returns whether it
# acted (False when flag-suppressed).


def step_o1a(state: SyncState) -> bool:
    """The bit at the working alignment becomes the next quotient bit; on
    the last read of a division the final conditional subtract, the
    quotient uncompute, and the coefficient co-update fold in here (o1b and
    o1c are flag-suppressed afterwards)."""
    bit = _coeff(state.B, state.degB)
    state.q = (state.q << 1) | bit
    state.q_len += 1
    if state.q_len > quotient_capacity(state.m):
        state.q_overflow = True
    if aligned_with_divisor(state):
        if bit:
            state.B ^= state.A
            state.b ^= state.a
        _uncompute_quotient(state)
    return True


def step_o1b(state: SyncState) -> bool:
    """Conditioned on the new quotient bit, subtract the aligned divisor
    from B, and fold the same update into the coefficient pair."""
    if state.q_len == 0:
        return False  # flag-suppressed tail of a finished division
    if state.q & 1:
        shift = state.degB - state.degA
        state.B ^= state.A << shift
        state.b ^= state.a << shift
    return True


def step_o1c(state: SyncState) -> bool:
    """Shift B one slot toward the high-order end."""
    if state.q_len == 0:
        return False
    state.degB -= 1
    return True


def step_o2(state: SyncState) -> bool:
    """Shift one leading zero off the remainder; on the shift that brings a
    1 into the high-order slot, the iteration boundary is reached and the
    Euclidean pairs swap."""
    if state.q_len != 0:
        return False  # mid-division pass-through
    if aligned_with_divisor(state):
        state.f ^= 1
    state.degB -= 1
    if o2_last_predicate(state):
        state.f ^= 1
        _swap_pairs(state)
    return True


SLOTS = (step_o1a, step_o1b, step_o1c, step_o2)  # indexed by O1A..O2


def _uncompute_quotient(state: SyncState) -> None:
    """Clear q via q = floor((b + q a)/a); valid because deg(b) < deg(a)."""
    if not state.q_overflow:
        check, _ = poly_divmod(state.b, state.a)
        if check != state.q:
            raise InvariantViolation("quotient uncompute mismatch")
    state.q = 0
    state.q_len = 0


def _swap_pairs(state: SyncState) -> None:
    """(a,A)(b,B) -> (b+qa, B+qA)(a,A): the registers trade roles and the
    degree bank is refreshed for the next iteration."""
    new_a, new_A = state.b, state.B
    new_b, new_B = state.a, state.A
    state.a, state.A, state.b, state.B = new_a, new_A, new_b, new_B
    state.dega, state.degA, state.degb, state.degB = (
        degree(state.a),
        state.degB,  # already stepped down to the remainder's true degree
        state.dega,
        state.degA,
    )
    state.iterations += 1
    if state.A == 1:
        state.done = True


def run_round(state: SyncState, on_fire=None) -> None:
    """One global round: the four operation slots, each followed by the
    advance-counter step; early finishers tick the halting counter.

    `on_fire(op_id)`, if given, is called after the advance-counter step
    of every slot that acted."""
    for op_id, step in enumerate(SLOTS):
        fired = not state.done and state.c == op_id and step(state)
        advance_counter(state)
        if fired and on_fire is not None:
            on_fire(op_id)
    if state.done:
        state.h += 1


def _run_rounds(
    state: SyncState, cycles: int, stop_after_first_iteration: bool = False, on_fire=None
) -> int:
    """The machine's one driver: call run_round until the input is done,
    its first iteration has finished (if asked), or `cycles` rounds have
    run.  Returns the number of rounds run.

    run_round is looked up as a module global on every call, so a caller
    that rebinds `optimized.run_round` sees every round."""
    rounds = 0
    while rounds < cycles and not state.done:
        if stop_after_first_iteration and state.iterations >= 1:
            break
        run_round(state, on_fire)
        rounds += 1
    return rounds


def _invert_in_budget(c_elem: int, field: FieldSpec, cycles: int) -> tuple[SyncState, int]:
    """Run one input until it is done; return its state and the rounds run.
    Raises CycleBudgetExceeded if `cycles` rounds are not enough."""
    state = SyncState.initial(c_elem, field.modulus, field.m)
    rounds_run = _run_rounds(state, cycles)
    if not state.done:
        raise CycleBudgetExceeded(f"input {bin(c_elem)} unfinished after {cycles} rounds")
    return state, rounds_run


@dataclass
class SyncTrace:
    """Per-input outcome of a synchronized run."""

    input: int
    inverse: int
    h: int
    iterations: int
    quotient_overflow: bool
    rounds: int
    final_state: SyncState | None = dc_field(default=None, repr=False, compare=False)

    def final_signature(self) -> tuple:
        state = self.final_state
        return (
            state.a,
            state.A,
            state.b,
            state.B,
            state.dega,
            state.degA,
            state.degb,
            state.degB,
            state.q,
            state.f,
            state.c,
            state.h,
        )


def run_synchronized(
    inputs, field: FieldSpec, cycles: int | None = None
) -> dict[int, SyncTrace]:
    """Drive every input through the identical global schedule.

    Each input is simulated independently under the shared clock; the
    sequence of scheduled slots is a function of the clock only, so all
    inputs advance in lockstep.  Once an input is done no slot fires and
    a round's four advance-counter steps add 4f = 0 (mod 4) to c, so each
    remaining round only ticks the halting counter: those rounds are
    credited to h, not simulated.  Raises CycleBudgetExceeded if any input
    has not reached the termination state within `cycles` rounds.
    """
    if cycles is None:
        cycles = default_cycles(field.m)
    results: dict[int, SyncTrace] = {}
    for c_elem in inputs:
        state, rounds_run = _invert_in_budget(c_elem, field, cycles)
        state.h += cycles - rounds_run
        results[c_elem] = SyncTrace(
            input=c_elem,
            inverse=state.a,
            h=state.h,
            iterations=state.iterations,
            quotient_overflow=state.q_overflow,
            rounds=cycles,
            final_state=state,  # kept for injectivity checks
        )
    return results


def optimized_invert(c_elem: int, field: FieldSpec, cycles: int | None = None) -> int:
    """Inverse of a single element via the synchronized machine.

    A lone basis state may stop as soon as it reaches the termination
    state; the fixed-length schedule only matters when inputs share a
    clock, which run_synchronized models.
    """
    if cycles is None:
        cycles = default_cycles(field.m)
    state, _ = _invert_in_budget(c_elem, field, cycles)
    return state.a


# --- trace rendering (Fig-8 style tableau) ---------------------------------


def _working_row(state: SyncState) -> dict:
    return {
        "A": format(state.A, "b"),
        "B": format(state.B, "b"),
        "a": format(state.a, "b"),
        "b": format(state.b, "b"),
        "degA": state.degA,
        "degB": state.degB,
        "q": format(state.q, "b") if state.q_len else "0",
        "f": state.f,
        "c": OP_NAMES[state.c],
        "h": state.h,
        "done": state.done,
    }


def trace_table(
    c_elem: int,
    modulus: int,
    m: int,
    cycles: int | None = None,
    stop_after_first_iteration: bool = False,
) -> list[dict]:
    """Row-per-fired-operation table of the synchronized run.

    With stop_after_first_iteration the table covers a single long
    division (used to replay a division of B by A without any field
    structure: initialize with modulus = B)."""
    if cycles is None:
        cycles = default_cycles(m)
    state = SyncState.initial(c_elem, modulus, m)
    rows = [dict(_working_row(state), op="init")]

    def record(op_id: int) -> None:
        rows.append(dict(_working_row(state), op=OP_NAMES[op_id]))

    _run_rounds(state, cycles, stop_after_first_iteration, record)
    return rows
