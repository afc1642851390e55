import random
from math import gcd

import pytest

from revgf2 import blocks, naive
from revgf2.blocks import (
    build_controlled_shift,
    build_cyclic_shift,
    build_decrement,
    build_degree,
    build_increment,
    build_mul_accumulate,
    build_swap,
    controlled_rotation_gates,
    log2_ceil,
    normalize_gates,
    rotation_gates,
)
from revgf2.circuit import Circuit, cnot, register_wires, report, run_lanes, sweep
from revgf2.errors import BadParameter, InvariantViolation
from revgf2.field import FieldSpec, default_field, field_mul, is_irreducible
from revgf2.poly import degree
from revgf2.verify import CheckResult, _compare, check_blocks


def test_rotation_direction_is_checked():
    with pytest.raises(BadParameter, match="direction must be left or right, not 'up'"):
        rotation_gates("r", 3, 1, "up")


def test_log2_ceil():
    assert [log2_ceil(m) for m in (2, 3, 4, 5, 8, 9, 16)] == [1, 2, 2, 3, 3, 4, 4]
    with pytest.raises(BadParameter):
        log2_ceil(0)


@pytest.mark.parametrize("m", range(2, 6))
def test_every_block_matches_its_oracle(m):
    result = check_blocks(m)
    assert result.mismatches == [] and result.skipped == []
    L = log2_ceil(m)
    # swept bits per block: swap 2, shifts m + 1, cshift m + L, inc/dec L + 1, cxor 2m + 1, mulacc 3m;
    # deg sweeps a's m bits and skips a = 0
    swept = [2, m + 1, m + 1, m + L, L + 1, L + 1, 2 * m + 1, 3 * m]
    assert result.checked == sum(1 << bits for bits in swept) + (1 << m) - 1


def test_swap_three_cnots():
    assert report(build_swap()).gate_counts == {"CNOT": 3}


def rotate(v, n, d, direction):
    """Classical cyclic rotation of an n-bit value by d positions."""
    d = d % n if direction == "left" else -d % n
    return ((v << d) | (v >> (n - d))) & ((1 << n) - 1)


def test_cyclic_shift_swap_count_and_action():
    for n in (2, 3, 5, 8):
        for direction in ("left", "right"):
            assert report(build_cyclic_shift(n, direction)).gate_counts == {"SWAP": n - 1}
    for n in (2, 8):  # test_every_block_matches_its_oracle covers n = m + 1 = 3..6
        for direction in ("left", "right"):
            c = build_cyclic_shift(n, direction)
            assert list(sweep(c, ("r",)).values("r")) == [rotate(v, n, 1, direction) for v in range(1 << n)]


def test_rotation_is_two_layers_of_disjoint_swaps():
    for n in range(2, 13):
        for d in range(n):
            for direction in ("left", "right"):
                c = Circuit({"r": n}, rotation_gates("r", n, d, direction))
                rep = report(c)
                assert rep.total_gates == rep.gate_counts.get("SWAP", 0) == n - gcd(n, d)
                assert rep.depth <= 2
                assert list(sweep(c, ("r",)).values("r")) == [rotate(v, n, d, direction) for v in range(1 << n)]


def test_controlled_shift():
    for n in range(2, 13):
        for k in range(1, 5):
            want_gates = 3 * sum(n - gcd(n, (1 << j) % n) for j in range(k))
            right = Circuit({"data": n, "shift": k}, controlled_rotation_gates("data", n, register_wires("shift", k), "right"))
            for direction, c in (("left", build_controlled_shift(n, k)), ("right", right)):
                assert report(c).total_gates == want_gates
                run_all = sweep(c, ("data", "shift"))
                want = [rotate(v, n, s, direction) for s in range(1 << k) for v in range(1 << n)]
                assert list(run_all.values("data")) == want
                assert list(run_all.values("shift")) == [s for s in range(1 << k) for _ in range(1 << n)]


def test_increment_single_ancilla():
    for w in (1, 2, 3, 4):
        assert build_increment(w).layout["anc"] == 1  # exactly one ancilla
    run = sweep(build_increment(4), ("k",))  # test_every_block_matches_its_oracle covers w = log2_ceil(m) = 1..3
    assert [k | anc << 4 for k, anc in zip(run.values("k"), run.values("anc"))] == list(range(1, 17))


def test_decrement_inverts_increment():
    for w in (1, 2, 3):
        dec = build_decrement(w)
        down = sweep(dec, ("k",))  # lane k = 0 wraps; the test starts at k = 1
        assert list(zip(down.values("k"), down.values("anc")))[1:] == [(k - 1, 0) for k in range(1, 1 << w)]
        up = sweep(build_increment(w), ("k",))
        back = run_lanes(dec, {name: list(up.values(name)) for name in ("k", "anc")})
        assert list(zip(back.values("k"), back.values("anc"))) == [(k, 0) for k in range(1 << w)]


def unfanned_normalization(n, s):
    """normalize_gates("x", n, s), with no copies, spelled out: per stage j
    from the top, the zero test, then each controlled swap as CNOT, Toffoli on
    s_j, CNOT; the shift chain at j >= 1, the middle-out reflections at 0."""
    x = lambda i: ("x", i)
    gates = []
    for j in reversed(range(len(s))):
        gates.append(cnot([(x(n - 1 - u), 0) for u in range(1 << j)], s[j]))
        if j:
            pairs = [(i - (1 << j), i) for i in range(n - 1, (1 << j) - 1, -1)]
        else:
            pairs = [(i, n - 1 - i) for i in reversed(range(n // 2))] + [(i, n - i) for i in reversed(range(1, (n + 1) // 2))]
        for a, b in pairs:
            gates += [cnot([(x(b), 1)], x(a)), cnot([(s[j], 1), (x(a), 1)], x(b)), cnot([(x(b), 1)], x(a))]
    return gates


@pytest.mark.parametrize("n", range(2, 17))
def test_fanned_normalization_matches_the_plain_one_and_clears_its_copies(n):
    # steps 1-2 of the division as the Euclid iteration builds them: stage 0 fanned out onto idle wires
    L = log2_ceil(n)
    s, idle = register_wires("s", L), register_wires("idle", n)
    plain = normalize_gates("x", n, s)
    assert plain == unfanned_normalization(n, s)
    assert naive._division(n, "x", "b").normalize == plain  # no idle wire: the same gates, in the same order
    fanned = naive._division(n, "x", "b", idle=idle).normalize
    copies = (n - 2) // 8  # ceil((n - 1)/8) - 1
    assert len(fanned) == len(plain) + 2 * copies
    assert (fanned == plain) == (copies == 0)
    layout = {"x": n, "s": L, "idle": n}
    want, got = sweep(Circuit(layout, plain), ("x",)), sweep(Circuit(layout, fanned), ("x",))
    for name in ("x", "s"):
        assert list(got.values(name))[1:] == list(want.values(name))[1:]  # every nonzero x
    assert got.changed(("idle",)) == 0


def test_a_copy_left_set_is_reported(monkeypatch):
    # the m = 10 iteration fans stage 0 out onto one copy, on q[2]; drop the CNOT that clears it
    def leaving_a_copy(div, n, control, j, idle=()):
        gates = blocks.normalize_stage(div, n, control, j, idle)
        if not idle:
            return gates
        assert gates[-1] == cnot([(control, 1)], idle[0])
        return gates[:-1]

    monkeypatch.setattr(naive, "normalize_stage", leaving_a_copy)
    monkeypatch.setattr(naive, "build_euclid_iteration", naive.build_euclid_iteration.__wrapped__)  # uncached
    field = default_field(10)
    with pytest.raises(InvariantViolation, match="scratch q not restored"):
        for c in field.nonzero_elements():
            naive.run_naive_inversion(c, field)


def test_degree_block_width_and_oracle():
    for m in range(2, 17):
        c = build_degree(m)
        assert c.width == m + log2_ceil(m)  # no ancilla beyond |A> and the degree
        run_all = sweep(c, ("a",))
        for a, deg, out in zip(range(run_all.lanes), run_all.values("deg"), run_all.values("a")):
            if a:
                assert (deg, out) == (degree(a), a), (m, a)


def toffoli_equiv(circ):
    """2k - 3 Toffolis per NOT with k >= 2 controls: the ladder over k - 2
    clean ancillas (Nielsen and Chuang, section 4.3).  Barenco et al. 1995's
    form with borrowed ancillas costs 4(k - 2) instead."""
    return sum((2 * k - 3) * n for k, n in report(circ).control_arity.items() if k >= 2)


def test_degree_block_costs():
    for m in range(2, 17):
        # the widest gate is the top-half zero test, or a controlled swap's Toffoli
        assert max(report(build_degree(m)).control_arity) == max(2, 1 << (log2_ceil(m) - 1))
    assert toffoli_equiv(build_degree(16)) <= 117
    assert toffoli_equiv(build_degree(163)) <= 3141


def test_degree_block_needs_m_at_least_2():
    with pytest.raises(BadParameter, match="m >= 2"):
        build_degree(1)


SECT163 = FieldSpec(163, 1 << 163 | 1 << 7 | 1 << 6 | 1 << 3 | 1)  # z^163 + z^7 + z^6 + z^3 + 1


@pytest.mark.parametrize("field", [*map(default_field, range(2, 17)), SECT163], ids=lambda f: f"m{f.m}")
def test_multiplier_costs_its_toffolis_and_the_modulus_tails(field):
    # m^2 Toffolis, and wt(f) - 2 CNOTs per z-multiplication and per undo; the rotations emit no SWAP
    m, tail = field.m, bin(field.modulus).count("1") - 2
    rep = report(build_mul_accumulate(field))
    assert rep.gate_counts == {"CNOT": m * m + 2 * (m - 1) * tail}
    assert rep.control_arity == {2: m * m, 1: 2 * (m - 1) * tail}


def check_multiplier_on_seeded_lanes(field, lanes):
    rng = random.Random(field.m)
    x, y, t = ([rng.getrandbits(field.m) for _ in range(lanes)] for _ in range(3))
    run = run_lanes(build_mul_accumulate(field), {"x": x, "y": y, "t": t})
    assert list(run.values("x")) == x and list(run.values("y")) == y
    assert list(run.values("t")) == [c ^ field_mul(a, b, field) for a, b, c in zip(x, y, t)]


def test_multiplier_at_m_163_matches_field_mul():
    check_multiplier_on_seeded_lanes(SECT163, 64)


def test_multiplier_matches_field_mul_with_a_tail_far_from_the_top():
    check_multiplier_on_seeded_lanes(FieldSpec(233, 1 << 233 | 1 << 74 | 1), 16)  # z^233 + z^74 + 1


MODULI = [FieldSpec(m, f) for m in range(2, 6) for f in range(1 << m, 2 << m) if is_irreducible(f)]


@pytest.mark.parametrize("field", MODULI + [default_field(6), default_field(7)], ids=lambda f: f"m{f.m}-{f.modulus:b}")
def test_pipelined_multiplier_matches_field_mul_on_every_input(field):
    c = build_mul_accumulate(field)
    swept = ("x", "y", "t")
    result = _compare(CheckResult(0, []), c, sweep(c, swept), swept, lambda x, y, t: (t ^ field_mul(x, y, field),))
    assert result.checked == 1 << 3 * field.m and result.mismatches == []


@pytest.mark.parametrize("field", [default_field(8), default_field(16), SECT163], ids=lambda f: f"m{f.m}")
def test_pipelined_multiplier_depth(field):
    # bank by bank, each z-multiplication between its banks: 78 / 57, 271 / 226 and 25 927 / 25 765
    rep = report(build_mul_accumulate(field))
    assert (rep.depth, rep.toffoli_depth) == {8: (29, 22), 16: (52, 39), 163: (334, 325)}[field.m]


def test_multiplier_is_built_once_per_field():
    assert build_mul_accumulate(default_field(8)) is build_mul_accumulate(FieldSpec(8, default_field(8).modulus))
