import pytest

from revgf2.errors import CycleBudgetExceeded, PackOverflow, ZeroElement
from revgf2.field import FieldSpec, field_invert
from revgf2.optimized import (
    SyncState,
    advance_counter,
    budget_breakdown,
    check_quotient_bound,
    default_cycles,
    halting_counter_width,
    machine_layout,
    optimized_invert,
    pack,
    quotient_capacity,
    qubit_budget,
    run_synchronized,
    trace_table,
    unpack,
)
from revgf2.poly import degree

F16 = FieldSpec(4, 0b10011)
F256 = FieldSpec(8, 0b100011011)


def test_pack_unpack_round_trip():
    m = 5
    for A in range(1, 1 << (m + 1)):
        for a in range(1 << (m + 1)):
            da = degree(a) if a else 0
            if da + degree(A) > m:
                continue
            packed = pack(a, A, m)
            assert packed < (1 << m)
            assert unpack(packed, degree(a) if a else None, degree(A), m) == (a, A)


def test_pack_rejects_overflow():
    with pytest.raises(PackOverflow):
        pack(0b111, 0b11111, 5)  # degree sum 6 > 5


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
            assert sum(budget_breakdown(m, H).values()) == qubit_budget(m, H)
    assert qubit_budget(16, 0) == 67
    assert qubit_budget(4, 0) == 29


def test_inversion_exhaustive_small():
    for fs in (F16, FieldSpec(5, 0b100101)):
        traces = run_synchronized(fs.nonzero_elements(), fs)
        for c, tr in traces.items():
            assert tr.inverse == field_invert(c, fs)
            assert not tr.quotient_overflow


def test_single_input_early_stop():
    for c in F256.nonzero_elements():
        assert optimized_invert(c, F256) == field_invert(c, F256)


def test_invert_zero_rejected():
    with pytest.raises(ZeroElement):
        optimized_invert(0, F16)


def test_cycle_budget_enforced():
    with pytest.raises(CycleBudgetExceeded):
        run_synchronized([0b101], F16, cycles=2)


def test_final_states_injective_and_lockstep():
    traces = run_synchronized(F16.nonzero_elements(), F16)
    sigs = {tr.final_signature() for tr in traces.values()}
    assert len(sigs) == len(traces)
    assert len({tr.rounds for tr in traces.values()}) == 1


def test_halting_counter_counts_idle_rounds():
    traces = run_synchronized([1], F16)  # C = 1 is done immediately
    assert traces[1].inverse == 1
    assert traces[1].h == default_cycles(4)


def test_quotient_capacity_and_bound():
    assert quotient_capacity(16) == 12
    assert check_quotient_bound(F16) == 0.0
    assert check_quotient_bound(F256) == 0.0


def test_trace_division_worked_example():
    # dividing B = z^4+z^2+1 by A = z^2+1 inside the synchronized machine
    rows = trace_table(0b101, 0b10101, m=4, stop_after_first_iteration=True)
    quotient_bits = [r["q"] for r in rows if r["op"] == "o1a"]
    assert quotient_bits == ["1", "10", "0"]  # bits 1,0,0 then uncomputed
    last = rows[-1]
    assert last["A"] == "1"  # remainder 1 became the new A
    assert last["a"] == "100"  # quotient z^2 became the new coefficient
    assert last["q"] == "0" and last["f"] == 1


def test_trace_q_clear_at_boundaries():
    rows = trace_table(0b1011, F16.modulus, m=4)
    for row in rows:
        if row["op"] == "o2" and row["f"] == 1:  # iteration boundary
            assert row["q"] == "0"
