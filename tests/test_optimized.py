import dataclasses
import hashlib
import json

import pytest

from revgf2.errors import BadParameter, CycleBudgetExceeded, InvariantViolation, RevGF2Error, ZeroElement
from revgf2.field import FieldSpec, default_field, field_invert, is_irreducible
from revgf2.naive import run_naive_inversion
from revgf2.optimized import (
    O1A,
    O1B,
    O2,
    SyncState,
    advance_counter,
    default_cycles,
    halting_counter_width,
    machine_layout,
    optimized_invert,
    run_round,
    quotient_capacity,
    qubit_budget,
    run_synchronized,
    trace_table,
)
from revgf2.poly import degree

F16 = FieldSpec(4, 0b10011)
F256 = FieldSpec(8, 0b100011011)
IRREDUCIBLE_2_TO_8 = [f for m in range(2, 9) for f in range(1 << m, 2 << m) if is_irreducible(f)]


def test_advance_counter_bijection():
    seen = set()
    for f in (0, 1):
        for c in range(4):
            st = SyncState(m=4, A=1, B=0b10011, f=f, c=c)
            advance_counter(st)
            seen.add((f, st.c))
    assert len(seen) == 8


def test_budget_formula_and_layout_agree():
    for m in (2, 4, 8, 16, 163):
        for H in (0, halting_counter_width(m)):
            layout = machine_layout(m, H)
            assert sum(layout.values()) == qubit_budget(m, H)
    assert qubit_budget(16, 0) == 67
    assert qubit_budget(4, 0) == 29


def test_single_input_early_stop():
    for c in F256.nonzero_elements():
        assert optimized_invert(c, F256) == field_invert(c, F256)


def test_invert_zero_rejected():
    with pytest.raises(ZeroElement):
        optimized_invert(0, F16)


@pytest.mark.parametrize("invert", [run_naive_inversion, optimized_invert])
@pytest.mark.parametrize("c", [16, F16.modulus])
def test_element_outside_field_rejected(invert, c):
    with pytest.raises(BadParameter, match="is not an element of GF"):
        invert(c, F16)


def test_cycle_budget_enforced():
    with pytest.raises(CycleBudgetExceeded):
        run_synchronized([0b101], F16, cycles=2)


def test_halting_counter_counts_idle_rounds():
    traces = run_synchronized([1], F16)  # C = 1 is done immediately
    assert traces[1].inverse == 1
    assert traces[1].h == default_cycles(4)


def test_quotient_capacity_and_bound():
    assert quotient_capacity(16) == 12


def test_idle_rounds_credited_exactly():
    # reference: simulate every one of the budget's rounds, idle ones too
    for m in range(2, 9):
        fs = default_field(m)
        cycles = default_cycles(m)
        traces = run_synchronized(fs.nonzero_elements(), fs)
        for c in fs.nonzero_elements():
            state = SyncState.initial(c, fs.modulus, m)
            for _ in range(cycles):
                run_round(state)
            assert state.rounds == cycles
            assert traces[c] == state  # every register, h and the clock


def test_trace_division_worked_example():
    # dividing B = z^4+z^2+1 by A = z^2+1 inside the synchronized machine
    rows = trace_table(0b101, 0b10101, m=4, stop_after_first_iteration=True)
    quotient_bits = [r["q"] for r in rows if r["op"] == "o1a"]
    assert quotient_bits == ["1", "10", "0"]  # bits 1,0,0 then uncomputed
    last = rows[-1]
    assert last["A"] == "1"  # remainder 1 became the new A
    assert last["a"] == "100"  # quotient z^2 became the new coefficient
    assert last["q"] == "0" and last["f"] == 1


def test_trace_table_fails_loudly():
    with pytest.raises(BadParameter, match="the division is exact"):
        trace_table(0b11, 0b11, 4, stop_after_first_iteration=True)
    with pytest.raises(BadParameter, match="dividend must be nonzero"):
        trace_table(0b101, 0, 4, stop_after_first_iteration=True)
    with pytest.raises(CycleBudgetExceeded):  # reducible modulus: z+1 is never inverted
        trace_table(0b11, 0b1111, 3)


def test_trace_q_clear_at_boundaries():
    rows = trace_table(0b1011, F16.modulus, m=4)
    for row in rows:
        if row["op"] == "o2" and row["f"] == 1:  # iteration boundary
            assert row["q"] == "0"


def test_state_holds_the_machine_registers():
    registers = set(machine_layout(8)) - {"rAa", "rBb", "deg_anc"} | {"A", "a", "B", "b"}
    fields = {field.name for field in dataclasses.fields(SyncState)}
    assert fields == registers | {"m", "rounds", "iterations", "quotient_overflow"}
    assert SyncState.initial(1, F16.modulus, 4).done and not SyncState.initial(0b10, F16.modulus, 4).done


def fired_slots(c, modulus, m):
    """(op, iterations, q, A, B, a, b, degA, degB, dega, degb) after every
    fired slot of one input's run."""
    state = SyncState.initial(c, modulus, m)
    shots = []

    def record(op_id):
        shots.append((op_id, state.iterations, state.q, state.A, state.B, state.a, state.b,
                      state.degA, state.degB, state.dega, state.degb))

    for _ in range(default_cycles(m)):
        run_round(state, record)
    assert state.done
    return shots


def test_degree_bank_and_quotient_follow_the_registers():
    """After every swap the degree bank holds the true degrees, and q is
    nonzero exactly between a division's first quotient read and its last,
    the (deg B - deg A + 1)-th."""
    assert len(IRREDUCIBLE_2_TO_8) == 69
    for f in IRREDUCIBLE_2_TO_8:
        m = degree(f)
        for c in range(1, 1 << m):
            iterations, reads, needed = 0, 0, m - degree(c) + 1
            for op_id, its, q, A, B, a, b, degA, degB, dega, degb in fired_slots(c, f, m):
                reads += op_id == O1A
                if its != iterations:
                    assert op_id == O2 and its == iterations + 1
                    assert (degA, degB, dega, degb) == tuple(map(degree, (A, B, a, b)))
                    iterations, reads, needed = its, 0, degree(B) - degree(A) + 1
                assert (q != 0) == (0 < reads < needed), (f, c, op_id)


def test_final_states_match_pinned_digest():
    """Every nonzero input's final SyncState, every register, the clock and
    the flags, under all 69 irreducible moduli of degree 2..8.  The digest
    was taken from the four-slot round loop that run_round replaced, so it
    catches a drift that comparing run_round with run_synchronized cannot."""
    h = hashlib.sha256()
    for f in IRREDUCIBLE_2_TO_8:
        fs = FieldSpec(degree(f), f)
        for c, state in run_synchronized(fs.nonzero_elements(), fs).items():
            h.update(repr((f, c, dataclasses.astuple(state))).encode())
    assert h.hexdigest() == "4e2cfc5f9c4192e6d0936302b24c3aed32bd7857695f575310125e269bbef726"


def test_trace_tables_match_pinned_digest():
    """trace_table's rows, or the error it raises, for every c < 2^(m+1)
    under every modulus of degree 2..5, reducible ones included, in both
    modes; pinned from the four-slot round loop like the test above."""
    h = hashlib.sha256()
    for m in range(2, 6):
        for f in range(1 << m, 2 << m):
            for c in range(2 << m):
                for first in (False, True):
                    try:
                        out = json.dumps(trace_table(c, f, m, first), sort_keys=True)
                    except RevGF2Error as e:
                        out = f"{type(e).__name__}: {e}"
                    h.update(f"{f} {c} {first} {out}\n".encode())
    assert h.hexdigest() == "75d0ef680cafb06b289268cff379f07990b3a60710a8b4e213d7329665abcdc1"


@pytest.mark.parametrize("c, f, q", [(O1B, 1, 0), (O2, 1, 0), (O1A, 0, 0), (O2, 0, 0b1)])
def test_unreachable_round_start_fails_loudly(c, f, q):
    """Only (o1a, f = 1) and (o2, f = 0) with q = 0 can start a round of an
    unfinished input (run_round's docstring proves it), so any other start
    raises, while a done input at any start only ticks h and the clock."""
    state = SyncState(m=4, A=0b11, B=0b10011, degA=1, degB=4, q=q, f=f, c=c)
    with pytest.raises(InvariantViolation, match="a round starts at"):
        run_round(state)
    done = SyncState(m=4, A=1, B=0b10011, degB=4, f=f, c=c)  # a done input only ticks h
    run_round(done)
    assert (done.c, done.h, done.rounds) == (c, 1, 1)
