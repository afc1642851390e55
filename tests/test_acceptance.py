"""Acceptance gate: one test per criterion, each printing a pass/fail line
through the terminal reporter (see conftest.py) so the lines survive
pytest's output capture."""

import random

from revgf2.blocks import (
    build_conditional_xor,
    build_controlled_shift,
    build_cyclic_shift,
    build_decrement,
    build_degree,
    build_increment,
    build_mul_accumulate,
    build_swap,
    log2_ceil,
)
from revgf2.circuit import BasisState, apply, compose, inverse, report, sweep
from revgf2.curve import CurveKind, CurvePoint, CurveSpec, ec_add, enumerate_points
from revgf2.ecgroup import FixedPointParams, generic_points, simulate_group_add
from revgf2.errors import InvariantViolation
from revgf2.field import FieldSpec, field_invert
from revgf2.naive import (
    EuclideanPairs,
    build_euclid_iteration,
    build_naive_long_division,
    run_naive_inversion,
)
from revgf2.optimized import (
    budget_breakdown,
    machine_layout,
    qubit_budget,
    run_synchronized,
)
from revgf2.poly import degree, poly_divmod

IRRED = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
}
F2_16 = FieldSpec(16, (1 << 16) | (1 << 5) | (1 << 3) | (1 << 1) | 1)


def test_criterion_1_inversion_oracle_equivalence(announce):
    mismatches = 0
    checked = 0
    for m, f in IRRED.items():
        fs = FieldSpec(m, f)
        opt_traces = run_synchronized(fs.nonzero_elements(), fs)
        for c in fs.nonzero_elements():
            want = field_invert(c, fs)
            if run_naive_inversion(c, fs) != want:
                mismatches += 1
            if opt_traces[c].inverse != want:
                mismatches += 1
            checked += 1
    announce(
        1,
        mismatches == 0,
        f"naive and optimized inversion match the oracle on all {checked} "
        f"nonzero inputs, m = 2..8 exhaustive ({mismatches} mismatches)",
    )


def test_criterion_2_division_oracle_equivalence(announce):
    scratch = ("s", "anc", "flg")
    mismatches = 0
    checked = 0
    for m in range(2, 9):  # every pair in one sweep; lane j holds a = j mod 2^m, b = j >> m
        run = sweep(build_naive_long_division(m), ("a", "b"))
        lanes = zip(range(run.lanes), run.values("q"), run.values("b"), zip(*map(run.values, scratch)))
        for j, q, r, dirt in lanes:
            a, b = j % (1 << m), j >> m
            if a:
                mismatches += (q, r) != poly_divmod(b, a) or any(dirt)
                checked += 1
    exhaustive = checked
    rng = random.Random(1009)
    circ = build_naive_long_division(16)
    for _ in range(1000):
        a, b = rng.randrange(1, 1 << 16), rng.randrange(1 << 17)
        out = apply(circ, BasisState.from_values(circ.layout, a=a, b=b))
        mismatches += (out.get_reg("q"), out.get_reg("b")) != poly_divmod(b, a)
        mismatches += any(out.get_reg(s) for s in scratch)
        checked += 1
    # the worked example: B = z^4+z^2+1, A = z^2+1 -> q = z^2, r = 1
    circ = build_naive_long_division(4)
    out = apply(circ, BasisState.from_values(circ.layout, a=0b101, b=0b10101))
    example_ok = out.get_reg("q") == 0b100 and out.get_reg("b") == 0b1
    example_ok = example_ok and not any(out.get_reg(s) for s in scratch)
    announce(
        2,
        mismatches == 0 and example_ok and exhaustive == 173_736,  # sum of (2^m - 1) 2^(m+1)
        f"naive division equals divmod with clean scratch on {checked} inputs "
        f"(all {exhaustive} pairs a != 0 for m = 2..8, 1000 random for m = 16) "
        f"and the z^4+z^2+1 / z^2+1 example",
    )


def test_criterion_3_structural_gate_counts(announce):
    ok = report(build_swap()).gate_counts == {"CNOT": 3}
    shift_ok = all(
        report(build_cyclic_shift(n)).gate_counts == {"SWAP": n - 1} for n in (2, 5, 9)
    )
    inc_ok = all(build_increment(w).layout["anc"] == 1 for w in (1, 3, 5))
    deg_ok = all(
        build_degree(m).width - m == log2_ceil(m) + 1 for m in (2, 4, 8, 16)
    )
    announce(
        3,
        ok and shift_ok and inc_ok and deg_ok,
        "swap = 3 CNOT, shift(n) = n-1 SWAP, increment has exactly 1 ancilla, "
        "degree block adds ceil(log m)+1 qubits",
    )


def test_criterion_4_qubit_budget(announce):
    ok = True
    for m in (4, 8, 16):
        L = log2_ceil(m)
        for H in (0, 7, 11):
            layout_width = sum(machine_layout(m, H).values())
            formula = 2 * m + 7 * L + 7 + H
            terms = budget_breakdown(m, H)
            itemized = (
                terms["data (A,B,a,b)"] == 2 * m
                and terms["quotient q"] == 3 * L
                and terms["degrees"] == 4 * L + 4
                and terms["flag f, counter c"] == 3
                and terms["halting counter H"] == H
            )
            ok = ok and layout_width == formula == qubit_budget(m, H) and itemized
    announce(
        4,
        ok and qubit_budget(16, 0) == 67 and qubit_budget(4, 0) == 29,
        "layout width equals 2m+7ceil(log m)+7+H for m in {4,8,16} with the "
        "itemization 2m | 3L | 4L+4 | 3 | H (67 at m=16, 29 at m=4, H=0)",
    )


def test_criterion_5_degree_invariants_at_boundaries(announce):
    violations = 0
    boundaries = 0
    for m, f in IRRED.items():
        fs = FieldSpec(m, f)
        for c in fs.nonzero_elements():
            trace: list[EuclideanPairs] = []
            run_naive_inversion(c, fs, trace=trace)
            for pairs in trace:
                boundaries += 1
                try:
                    pairs.check_invariants(m)
                except InvariantViolation:
                    violations += 1
                    continue
                # the register-sharing corollary: both pairs fit m wires
                if pairs.a and degree(pairs.a) + degree(pairs.A) > m:
                    violations += 1
                if pairs.b and degree(pairs.b) + degree(pairs.B) > m:
                    violations += 1
    announce(
        5,
        violations == 0,
        f"deg(a)+deg(B) = m and the register-sharing inequalities hold at all "
        f"{boundaries} iteration boundaries, m = 2..8 exhaustive",
    )


def test_criterion_6_synchronization(announce):
    ok = True
    for m in (4, 8):
        fs = FieldSpec(m, IRRED[m])
        traces = run_synchronized(fs.nonzero_elements(), fs)  # default budget
        rounds = {tr.rounds for tr in traces.values()}
        ok = ok and len(rounds) == 1  # input-independent schedule
        sigs = {tr.final_signature() for tr in traces.values()}
        ok = ok and len(sigs) == len(traces)  # injective final-state map
    announce(
        6,
        ok,
        "m = 4 and m = 8: fixed global schedule, injective final-state map, "
        "every input terminates within the default cycle budget",
    )


def test_criterion_7_quotient_bound(announce):
    traces = run_synchronized(F2_16.nonzero_elements(), F2_16)
    flagged = sum(tr.quotient_overflow for tr in traces.values())
    fraction = flagged / len(traces)
    announce(
        7,
        fraction <= 12 / 16,
        f"m = 16 exhaustive: the machine flags {flagged} of {len(traces)} inputs "
        f"for a quotient over 3*ceil(log m) = 12 bits, fraction {fraction:.6f} <= 0.75",
    )


def test_criterion_8_group_operation_end_to_end(announce):
    f16 = FieldSpec(4, 0b10011)
    curves = (
        CurveSpec(f16, CurveKind.NON_SUPERSINGULAR, a=0b10, b=0b1),
        CurveSpec(f16, CurveKind.SUPERSINGULAR, a=0b1, b=0b10, c=0b1),
    )
    mismatches = 0
    checked = 0
    for curve in curves:
        fixed = [p for p in enumerate_points(curve) if not p.is_infinity][0]
        params = FixedPointParams(curve, fixed.x, fixed.y)
        for backend in ("naive", "opt"):
            for s in generic_points(params):
                got = simulate_group_add(s, params, backend)
                if got != ec_add(s, CurvePoint(params.alpha, params.beta), curve):
                    mismatches += 1
                checked += 1
    announce(
        8,
        mismatches == 0 and checked > 0,
        f"group add matches the oracle on {checked} generic points over both "
        f"GF(2^4) curve kinds and both Euclid backends ({mismatches} mismatches)",
    )


def test_criterion_9_reversibility_suite(announce):
    f16 = FieldSpec(4, 0b10011)
    circuits = [
        build_swap(),
        build_cyclic_shift(5),
        build_controlled_shift(5, 3),
        build_increment(3),
        build_decrement(3),
        build_degree(4),
        build_conditional_xor(4),
        build_mul_accumulate(f16),
        build_naive_long_division(3),
        build_naive_long_division(4),
        build_euclid_iteration(3),
    ]
    failures = 0
    for circ in circuits:
        run = sweep(compose(circ, inverse(circ)), tuple(circ.layout))
        failures += run.after != run.before  # every lane's wires back to its input
    announce(
        9,
        failures == 0,
        f"{len(circuits)} synthesized circuits composed with their inverses act "
        f"as the identity on every basis state (widths up to "
        f"{max(c.width for c in circuits)}, one sweep each)",
    )
