"""Acceptance gate: one test per criterion, each printing a pass/fail line
through the terminal reporter (see conftest.py) so the lines survive
pytest's output capture."""

import random

from revgf2.blocks import build_cyclic_shift, build_degree, build_increment, build_swap, log2_ceil
from revgf2.circuit import report, run_lanes
from revgf2.curve import CurveKind, CurveSpec, enumerate_points
from revgf2.ecgroup import FixedPointParams
from revgf2.errors import CycleBudgetExceeded
from revgf2.field import FieldSpec, is_irreducible
from revgf2.naive import build_euclid_iteration
from revgf2.optimized import machine_layout, qubit_budget, run_synchronized
from revgf2.poly import degree, poly_divmod
from revgf2.verify import check_blocks, check_division, check_group_add, check_inversion

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
    mismatches = flagged = checked = 0
    for m, f in IRRED.items():
        fs = FieldSpec(m, f)
        for backend in ("naive", "opt"):
            result = check_inversion(fs, backend, fs.nonzero_elements())
            mismatches += len(result.mismatches)
            flagged += result.flagged
        checked += len(fs.nonzero_elements())
    naive_16 = check_inversion(F2_16, "naive", F2_16.nonzero_elements())
    mismatches += len(naive_16.mismatches)
    announce(
        1,
        mismatches == 0 and flagged == 0 and naive_16.checked == 65_535,
        f"naive and optimized inversion match the oracle on all {checked} "
        f"nonzero inputs, m = 2..8 exhaustive, and naive on all {naive_16.checked} "
        f"of F2_16 ({mismatches} mismatches, {flagged} fidelity-loss inputs)",
    )


def test_criterion_2_division_oracle_equivalence(announce):
    exhaustive = [check_division(m) for m in range(2, 9)]  # every pair a != 0
    rng = random.Random(1009)
    sampled = check_division(16, [(rng.randrange(1, 1 << 16), rng.randrange(1 << 17)) for _ in range(1000)])
    # the worked example: B = z^4+z^2+1, A = z^2+1 -> q = z^2, r = 1
    example = check_division(4, [(0b101, 0b10101)])
    example_ok = not example.mismatches and poly_divmod(0b10101, 0b101) == (0b100, 0b1)
    n_exhaustive = sum(r.checked for r in exhaustive)
    announce(
        2,
        not any(r.mismatches for r in exhaustive + [sampled]) and example_ok
        and n_exhaustive == 173_736,  # sum of (2^m - 1) 2^(m+1)
        f"naive division equals divmod with a read back unchanged and clean scratch on "
        f"{n_exhaustive + sampled.checked} inputs "
        f"(all {n_exhaustive} pairs a != 0 for m = 2..8, 1000 random for m = 16) "
        f"and the z^4+z^2+1 / z^2+1 example",
    )


def test_criterion_3_structural_gate_counts(announce):
    ok = report(build_swap()).gate_counts == {"CNOT": 3}
    shift_ok = all(
        report(build_cyclic_shift(n)).gate_counts == {"SWAP": n - 1} for n in (2, 5, 9)
    )
    inc_ok = all(build_increment(w).layout["anc"] == 1 for w in (1, 3, 5))
    deg_ok = all(
        build_degree(m).width - m == log2_ceil(m) for m in (2, 4, 8, 16)
    )
    announce(
        3,
        ok and shift_ok and inc_ok and deg_ok,
        "swap = 3 CNOT, shift(n) = n-1 SWAP, increment has exactly 1 ancilla, "
        "degree block adds ceil(log m) qubits",
    )


# The paper's itemization of the inverter's width, as groups of layout registers.
BUDGET_GROUPS = (
    ("rAa", "rBb"),  # data A, B, a, b: 2m
    ("q",),  # bounded quotient: 3L
    ("degA", "degB", "dega", "degb", "deg_anc"),  # degree bank: 4L + 4
    ("f", "c"),  # flag and counter: 3
    ("h",),  # halting counter: H
)


def test_criterion_4_qubit_budget(announce):
    ok = True
    for m in (4, 8, 16):
        L = log2_ceil(m)
        for H in (0, 5, 11):
            layout = machine_layout(m, H)
            groups = tuple(sum(layout[r] for r in group) for group in BUDGET_GROUPS)
            covered = sorted(r for group in BUDGET_GROUPS for r in group) == sorted(layout)
            ok = ok and covered and groups == (2 * m, 3 * L, 4 * L + 4, 3, H)
            ok = ok and sum(layout.values()) == 2 * m + 7 * L + 7 + H == qubit_budget(m, H)
    announce(
        4,
        ok and qubit_budget(16, 0) == 67 and qubit_budget(4, 0) == 29,
        "layout width equals 2m+7ceil(log m)+7+H for m in {4,8,16}, its registers "
        "grouped as 2m | 3L | 4L+4 | 3 | H (67 at m=16, 29 at m=4, H=0)",
    )


def test_criterion_5_degree_invariants_at_boundaries(announce):
    # every nonzero input is one lane of the Euclid iteration; each pass runs
    # the lanes whose A is not yet 1, and every boundary is checked, the first too
    pairs = ("ka", "ra", "kb", "rb")  # (a, A), (b, B)
    violations = boundaries = unfinished = 0
    for m, f in IRRED.items():
        iteration = build_euclid_iteration(m)
        lanes = [(1, c, 0, f) for c in FieldSpec(m, f).nonzero_elements()]
        for _ in range(m):  # an inversion takes at most m - 1 passes
            for a, A, b, B in lanes:
                boundaries += 1
                violations += bool(
                    degree(A) >= degree(B)
                    or b and degree(a) <= degree(b)
                    or a and B and degree(a) + degree(B) != m
                    # the register-sharing corollary: both pairs fit m wires
                    or a and degree(a) + degree(A) > m
                    or b and degree(b) + degree(B) > m
                )
            lanes = [lane for lane in lanes if lane[1] != 1]
            if not lanes:
                break
            run = run_lanes(iteration, dict(zip(pairs, map(list, zip(*lanes)))))
            lanes = list(zip(*map(run.values, pairs)))
        unfinished += len(lanes)
    announce(
        5,
        violations == 0 and unfinished == 0,
        f"deg(a)+deg(B) = m and the register-sharing inequalities hold at all "
        f"{boundaries} iteration boundaries, m = 2..8 exhaustive ({violations} violations)",
    )


def test_criterion_6_synchronization(announce):
    moduli = [f for m in range(2, 9) for f in range(1 << m, 2 << m) if is_irreducible(f)]
    failures = []
    for f in moduli:
        fs = FieldSpec(f.bit_length() - 1, f)
        try:
            traces = run_synchronized(fs.nonzero_elements(), fs)  # default budget
        except CycleBudgetExceeded:
            failures.append(f)
            continue
        tight = min(tr.h for tr in traces.values()) == 1  # some input needs every round
        injective = len({tr.final_signature() for tr in traces.values()}) == len(traces)
        if not (tight and injective):
            failures.append(f)
    announce(
        6,
        len(moduli) == 69 and not failures,
        f"all {len(moduli)} irreducible moduli of degree 2..8, every nonzero input: the "
        f"default budget of 2m - 2 rounds suffices and some input needs all of it "
        f"(smallest h = 1), injective final-state map ({len(failures)} moduli fail)",
    )


def test_criterion_7_quotient_bound(announce):
    result = check_inversion(F2_16, "opt", F2_16.nonzero_elements())
    fraction = result.flagged / result.checked
    announce(
        7,
        fraction <= 12 / 16 and result.checked == 65_535 and not result.mismatches,
        f"m = 16 exhaustive: the machine flags {result.flagged} of {result.checked} inputs "
        f"for a quotient over 3*ceil(log m) = 12 bits, fraction {fraction:.6f} <= 0.75; "
        f"{len(result.mismatches)} of the rest mismatch",
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
            result = check_group_add(params, backend)
            mismatches += len(result.mismatches)
            checked += result.checked
    announce(
        8,
        mismatches == 0 and checked > 0,
        f"group add matches the oracle on {checked} generic points over both "
        f"GF(2^4) curve kinds and both Euclid backends ({mismatches} mismatches)",
    )


def test_criterion_9_reversibility_suite(announce):
    results = [check_blocks(m) for m in range(2, 7)]
    mismatches = sum(len(r.mismatches) for r in results)
    skipped = sum(len(r.skipped) for r in results)
    announce(
        9,
        mismatches == skipped == 0,
        f"every block in blocks.BLOCKS matches its oracle on every swept input for "
        f"m = 2..6: {sum(r.checked for r in results)} (block, input) pairs, "
        f"{mismatches} mismatches, {skipped} skipped",
    )
