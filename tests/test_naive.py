import math
import subprocess
import sys
from itertools import compress, takewhile
from pathlib import Path

import pytest

from revgf2 import naive
from revgf2.blocks import log2_ceil, normalize_gates
from revgf2.circuit import Circuit, cnot, gate_not, register_wires, report, run_lanes, run_one, sweep
from revgf2.errors import BadParameter, InvariantViolation, ZeroElement
from revgf2.field import FieldSpec, default_field, field_invert, field_mul, is_irreducible
from revgf2.naive import build_euclid_iteration, run_naive_inversion, run_naive_inversions
from revgf2.poly import degree, poly_divmod


def test_iteration_swaps_pairs():
    m = 3
    circ = build_euclid_iteration(m)
    assert list(circ.layout) == ["ra", "rb", "ka", "kb", "q", "s", "flg"]
    ra, rb, ka, kb, q_reg, s, flg = run_one(circ, 0b101, 0b1011, 1, 0, 0, 0, 0)
    q, r = poly_divmod(0b1011, 0b101)
    assert ra == r
    assert rb == 0b101
    assert ka == q  # b + q*a with b=0, a=1
    assert kb == 1
    assert q_reg == s == flg == 0  # uncomputed


def test_zero_rejected():
    with pytest.raises(ZeroElement):
        run_naive_inversion(0, FieldSpec(4, 0b10011))


def test_inversion_stops_after_m_minus_1_iterations(monkeypatch):
    # an iteration that does nothing never reaches A = 1; the inversion must
    # give up after the proven m - 1 iterations, having run m kernel passes
    m = 4
    calls = []
    run_wires = naive.run_wires
    idle = lambda m: Circuit(build_euclid_iteration(m).layout, (), build_euclid_iteration(m).restores)
    monkeypatch.setattr(naive, "build_euclid_iteration", idle)
    monkeypatch.setattr(naive, "run_wires", lambda circ, wires, mask: calls.append(1) or run_wires(circ, wires, mask))
    with pytest.raises(InvariantViolation, match="m - 1 = 3"):
        run_naive_inversion(0b101, FieldSpec(m, 0b10011))
    assert len(calls) == m


def test_invariant_check_survives_python_O():
    # -O strips the assert in the script, so reaching the check proves asserts
    # are off; the machine's round check must still raise its typed error on a
    # round that starts at o1b, a state no run reaches.
    code = (
        "import sys\n"
        "from revgf2.errors import InvariantViolation\n"
        "from revgf2.optimized import O1B, SyncState, run_round\n"
        "assert False, 'unreachable under -O'\n"
        "try:\n"
        "    run_round(SyncState(m=4, A=0b11, B=0b10011, degA=1, degB=4, c=O1B))\n"
        "except InvariantViolation:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("n", range(2, 14))
def test_normalize_counts_leading_zeros(n):
    # one sweep over every x: normalize, copy x and s out, normalize reversed
    L = log2_ceil(n)
    normalize = normalize_gates("x", n, register_wires("s", L))
    copies = [cnot([(("x", i), 1)], ("y", i)) for i in range(n)]
    copies += [cnot([(("s", j), 1)], ("t", j)) for j in range(L)]
    circ = Circuit({"x": n, "s": L, "y": n, "t": L}, normalize + copies + normalize[::-1])
    run = sweep(circ, ("x",))
    for x, y, s, x_back, s_back in zip(range(run.lanes), *map(run.values, ("y", "t", "x", "s"))):
        if x:
            assert s == n - 1 - degree(x)
            assert y >> (n - 1) == 1
            assert y == x << s
        assert (x_back, s_back) == (x, 0)


def test_normalize_refuses_a_count_of_the_wrong_width():
    # the count's wires come from the caller: 8 wires need a 3-wire count
    for width in (2, 4):
        with pytest.raises(BadParameter, match=f"takes a 3-wire count, not {width}"):
            normalize_gates("x", 8, register_wires("s", width))


@pytest.mark.parametrize("m", range(2, 17))
def test_division_rotates_its_quotient_by_2_without_swaps(m):
    # only the controlled rotation by s moves q; its swaps are CNOT/Toffoli triples
    assert "SWAP" not in report(naive.build_naive_long_division(m)).gate_counts


@pytest.mark.parametrize("n", [10, 163])
def test_normalize_shifts_stage_j_in_n_minus_2_to_the_j_controlled_swaps(n):
    # a rotation by 2^j needs n - gcd(n, 2^j) swaps: 247 more per pass at n = 163
    L = log2_ceil(n)
    gates = normalize_gates("x", n, register_wires("s", L))
    swaps = [g for g in gates if any(w[0] == "s" for w, _ in g.controls)]  # each swap's Toffoli
    assert len(swaps) == sum(n - (1 << j) for j in range(L))
    assert len(gates) == L + 3 * len(swaps)


@pytest.mark.parametrize("n", [3, 4, 8, 10, 163])
def test_normalize_stage_0_is_two_reflections(n):
    # stage 0 rotates by one: its controlled swaps fall into two runs of
    # disjoint pairs, the reflection of all n wires, then of wires 1..n-1,
    # each emitted from the middle out
    gates = normalize_gates("x", n, register_wires("s", log2_ceil(n)))
    stage_0 = [g for g in gates if g.controls[:1] == ((("s", 0), 1),)]
    runs = [[]]
    for g in stage_0:
        pair = {g.controls[1][0][1], g.targets[0][1]}
        if any(pair & other for other in runs[-1]):
            runs.append([])
        runs[-1].append(pair)
    assert len(stage_0) == n - 1
    assert runs == [
        [{i, n - 1 - i} for i in reversed(range(n // 2))],
        [{i, n - i} for i in reversed(range(1, (n + 1) // 2))],
    ]


@pytest.mark.parametrize("m", [4, 8, 16])
def test_division_rounds_subtract_top_down(m):
    # round t first writes b[m-t-1], the bit round t+1 copies into its
    # quotient bit, and last clears b[m-t], the bit it copied itself, so
    # each round starts about one layer behind the last
    rounds = {}
    for g in naive.build_naive_long_division(m).gates:
        if g.targets[0][0] == "b":
            rounds.setdefault(g.controls[0][0], []).append(g.targets[0][1])
    assert len(rounds) == m + 1
    written = list(rounds.values())
    assert [(w[0], w[-1]) for w in written[:m]] == [(m - t - 1, m - t) for t in range(m)]
    assert written[m] == [0]


# m -> (division, iteration), each as (depth, Toffoli-depth)
DEPTHS = {
    4: ((38, 25), (53, 32)),
    8: ((72, 59), (112, 89)),
    16: ((150, 129), (228, 185)),
    17: ((160, 129), (284, 227)),
    32: ((312, 279), (477, 394)),
}


@pytest.mark.parametrize("m", sorted(DEPTHS))
def test_division_and_iteration_depths(m):
    reports = map(report, (naive.build_naive_long_division(m), build_euclid_iteration(m)))
    assert tuple((rep.depth, rep.toffoli_depth) for rep in reports) == DEPTHS[m]


@pytest.mark.parametrize("m", range(2, 41))
def test_iteration_quotient_is_an_even_ring(m):
    # while A != 1, q = B div A has at most m bits: each division copies m
    # quotient bits onto distinct wires of a ring of m wires at even m, m + 1
    # at odd m, and rotates it by its leading-zero count in n - gcd(n, 2^j)
    # swaps per stage j; the forward division counts on s, the reversed one
    # on rb's two top wires and then s.  On a ring of 2^k wires both top
    # stages rotate by n/2 and run as one, on rb[m]: n/2 swaps fewer
    iteration = build_euclid_iteration(m)
    n = iteration.layout["q"]
    assert n == m + (m & 1)
    onto_q = [g for g in iteration.gates if g.targets[0][0] == "q"]
    counts = {("rb", m), ("rb", m - 1), *register_wires("s", log2_ceil(m))}
    # each controlled swap's Toffoli; rounds 0 and 1 copy rb[m] and rb[m - 1] with CNOTs
    swaps = [g for g in onto_q if len(g.controls) == 2 and any(w in counts for w, _ in g.controls)]
    rotation = set(swaps)
    for dvd in ("rb", "kb"):
        copied = [g.targets[0][1] for g in onto_q if g not in rotation and any(w[0] == dvd for w, _ in g.controls)]
        assert len(copied) == len(set(copied)) == m
    merged = 0 if n & (n - 1) else n // 2
    assert len(swaps) == 2 * sum(n - math.gcd(n, 1 << j) for j in range(log2_ceil(m))) - merged


def test_iteration_coefficient_b_fits_m_wires():
    # while A != 1, deg(a) + deg(B) = m, so b + q*a has degree at most m - 1:
    # kb has m wires, the reversed division skips round 0 and the forward
    # one round m, whose quotient bit only A = 1 sets
    fields = [FieldSpec(m, f) for m in range(2, 11) for f in range(1 << m, 2 << m) if is_irreducible(f)]
    assert len(fields) == 224
    for field in fields:
        iteration = build_euclid_iteration(field.m)
        assert iteration.layout["kb"] == field.m
        inputs = field.nonzero_elements()
        assert all(field_mul(c, x, field) == 1 for c, x in zip(inputs, run_naive_inversions(inputs, field)))
        # the driver runs only the lanes whose A is not 1
        n = len(inputs)
        values = {"ra": inputs, "rb": [field.modulus] * n, "ka": [1] * n, "kb": [0] * n}
        while any(active := [A != 1 for A in values["ra"]]):
            lanes = {name: list(compress(lane_values, active)) for name, lane_values in values.items()}
            run = run_lanes(iteration, lanes)
            assert not any(q | s | flg for q, s, flg in zip(*map(run.values, ("q", "s", "flg"))))
            values = {name: list(run.values(name)) for name in lanes}


def test_forward_division_leaves_the_top_two_wires_of_rb_at_0():
    # while A != 1, the forward division leaves B mod A in rb, of degree at
    # most deg(A) - 1 <= m - 2, so rb[m - 1] and rb[m] are 0 in every lane:
    # the reversed division keeps its count's top two bits there
    fields = [FieldSpec(m, f) for m in range(2, 11) for f in range(1 << m, 2 << m) if is_irreducible(f)]
    assert len(fields) == 224
    for m in range(2, 11):
        iteration = build_euclid_iteration(m)
        # the forward division is every gate before the first on ka or kb
        gates = list(takewhile(lambda g: all(w[0] not in ("ka", "kb") for w in g.wires()), iteration.gates))
        forward = Circuit(iteration.layout, gates)
        rest = Circuit(iteration.layout, iteration.gates[len(gates):])
        for field in (field for field in fields if field.m == m):
            inputs = field.nonzero_elements()
            n = len(inputs)
            values = {"ra": inputs, "rb": [field.modulus] * n, "ka": [1] * n, "kb": [0] * n}
            while any(active := [A != 1 for A in values["ra"]]):
                run = run_lanes(forward, {name: list(compress(lane_values, active)) for name, lane_values in values.items()})
                assert run.after["rb"][m - 1] == run.after["rb"][m] == 0
                run = run_lanes(rest, {name: list(run.values(name)) for name in iteration.layout})
                values = {name: list(run.values(name)) for name in values}


@pytest.mark.parametrize("m", range(2, 17))
def test_division_spends_no_toffoli_on_a_control_known_to_be_1(m):
    # after normalization a's top wire is 1 in every round, and the flag is 1 in rounds 0 and 1
    gates = naive.build_naive_long_division(m).gates
    subtractions = [g for g in gates if g.targets[0][0] == "b"]
    copies = [g for g in gates if g.targets[0][0] == "q" and any(w[0] == "b" for w, _ in g.controls)]
    assert all((("a", m - 1), 1) not in g.controls for g in subtractions)
    assert sum(len(g.controls) == 1 for g in subtractions) == m + 1
    assert [len(g.controls) for g in copies[:3]] == [1, 1, 2]
    assert len(copies) == m + 1 and all((("flg", 0), 1) in g.controls for g in copies[2:])


def test_m8_division_trades_m_plus_3_toffolis_for_cnots():
    arity = report(naive.build_naive_long_division(8)).control_arity
    assert (arity[1], arity[2]) == (118 + 11, 113 - 11)


def test_m163_iteration_cost():
    # 2k - 3 Toffolis per k-controlled NOT with k >= 2, as perfbench counts them
    rep = report(build_euclid_iteration(163))
    assert rep.to_json() == {
        "width": 826, "depth": 2528, "toffoli_depth": 2313, "gates_total": 48283, "gates_not": 2,
        "gates_cnot": 47955, "gates_swap": 326, "cnot_arity_1": 13945,
        "cnot_arity_2": 33661, "cnot_arity_4": 4, "cnot_arity_8": 329,
        "cnot_arity_16": 4, "cnot_arity_32": 4, "cnot_arity_64": 4, "cnot_arity_128": 4,
    }
    assert sum((2 * k - 3) * n for k, n in rep.control_arity.items() if k >= 2) == 39830


@pytest.mark.parametrize("m", [8, 16, 32])
def test_largest_control_is_the_top_normalize_pattern(m):
    # the widest gate is stage L-1's 2^(L-1) zero-controls; a counter that
    # tests each prefix of zeros on its own needs m + L - 1
    assert max(report(build_euclid_iteration(m)).control_arity) == 1 << (log2_ceil(m) - 1)


@pytest.mark.parametrize("m", range(2, 11))
def test_naive_inversion_matches_field_invert(m):
    field = default_field(m)
    inputs = field.nonzero_elements()
    assert run_naive_inversions(inputs, field) == [field_invert(c, field) for c in inputs]


def test_every_input_of_gf_2_16_in_one_call():
    # c * x = 1 pins x to c's inverse; field_mul is about 7x cheaper than field_invert here
    field = default_field(16)
    inputs = field.nonzero_elements()
    assert len(inputs) == 65_535 <= naive.MAX_INVERSION_LANES
    inverses = run_naive_inversions(inputs, field)
    assert len(inverses) == len(inputs)
    assert all(field_mul(c, x, field) == 1 for c, x in zip(inputs, inverses))


def test_many_lanes_agree_with_one_lane_calls():
    # lanes that finish after 0, 1, ... m - 1 passes, duplicates included
    field = default_field(8)
    inputs = [1, 2, 1] + list(field.nonzero_elements())[::-1]
    assert run_naive_inversions(inputs, field) == [run_naive_inversion(c, field) for c in inputs]


def test_batches_split_at_the_lane_bound(monkeypatch):
    field = default_field(6)
    inputs = field.nonzero_elements()
    monkeypatch.setattr(naive, "MAX_INVERSION_LANES", 5)
    assert run_naive_inversions(inputs, field) == [field_invert(c, field) for c in inputs]
    assert run_naive_inversions([], field) == []


def test_zero_lane_rejected():
    with pytest.raises(ZeroElement):
        run_naive_inversions([0b11, 0], FieldSpec(4, 0b10011))


@pytest.mark.parametrize("inputs", [[0b1011], [0b1, 0b1011, 0b110]])
def test_dirty_scratch_is_named(monkeypatch, inputs):
    # an iteration that leaves q[0] set fails the scratch check of its first
    # pass, on every active lane; the lane holding 1 is never active
    field = FieldSpec(4, 0b10011)
    clean = build_euclid_iteration(4)
    faulty = Circuit(clean.layout, [*clean.gates, gate_not(("q", 0))], clean.restores)
    monkeypatch.setattr(naive, "build_euclid_iteration", lambda m: faulty)
    with pytest.raises(InvariantViolation, match="scratch q not restored"):
        run_naive_inversions(inputs, field)
