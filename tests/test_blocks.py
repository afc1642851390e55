from math import gcd

import pytest

from revgf2.blocks import (
    build_conditional_xor,
    build_controlled_shift,
    build_cyclic_shift,
    build_decrement,
    build_degree,
    build_increment,
    build_mul_accumulate,
    build_swap,
    controlled_rotation_gates,
    log2_ceil,
    rotation_gates,
)
from revgf2.circuit import BasisState, Circuit, apply, report, swap, sweep
from revgf2.errors import BadParameter
from revgf2.field import FieldSpec, field_mul
from revgf2.poly import degree
from revgf2.verify import check_blocks


def run(circ, **values):
    return apply(circ, BasisState.from_values(circ.layout, **values))


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


def test_unit_rotation_is_the_adjacent_chain():
    for n in range(2, 13):
        chain = {
            "left": [(i, i + 1) for i in range(n - 2, -1, -1)],
            "right": [(i, i + 1) for i in range(n - 1)],
        }
        for direction, pairs in chain.items():
            want = [swap(("r", i), ("r", j)) for i, j in pairs]
            assert rotation_gates("r", n, 1, direction) == want


def test_controlled_shift():
    for n in range(2, 13):
        for k in range(1, 5):
            want_gates = 3 * sum(n - gcd(n, (1 << j) % n) for j in range(k))
            right = Circuit({"data": n, "shift": k}, controlled_rotation_gates("data", n, "shift", k, "right"))
            for direction, c in (("left", build_controlled_shift(n, k)), ("right", right)):
                assert report(c).total_gates == want_gates
                run_all = sweep(c, ("data", "shift"))
                want = [rotate(v, n, s, direction) for s in range(1 << k) for v in range(1 << n)]
                assert list(run_all.values("data")) == want
                assert list(run_all.values("shift")) == [s for s in range(1 << k) for _ in range(1 << n)]


def test_increment_single_ancilla():
    for w in (1, 2, 3, 4):
        assert build_increment(w).layout["anc"] == 1  # exactly one ancilla
    c = build_increment(4)  # test_every_block_matches_its_oracle covers w = log2_ceil(m) = 1..3
    for k in range(1 << 4):
        out = run(c, k=k)
        assert out.get_reg("k") | (out.get_reg("anc") << 4) == k + 1


def test_decrement_inverts_increment():
    for w in (1, 2, 3):
        inc, dec = build_increment(w), build_decrement(w)
        for k in range(1, 1 << w):
            out = run(dec, k=k)
            assert out.get_reg("k") == k - 1 and out.get_reg("anc") == 0
        for k in range(1 << w):
            back = apply(dec, run(inc, k=k))
            assert back.get_reg("k") == k and back.get_reg("anc") == 0


def test_degree_block_width_and_oracle():
    for m in range(2, 17):
        c = build_degree(m)
        assert c.width == m + log2_ceil(m)  # no ancilla beyond |A> and the degree
        run_all = sweep(c, ("a",))
        for a, deg, out in zip(range(run_all.lanes), run_all.values("deg"), run_all.values("a")):
            if a:
                assert (deg, out) == (degree(a), a), (m, a)


def toffoli_equiv(circ):
    """2k - 3 Toffolis per NOT with k >= 2 controls (Barenco et al. 1995)."""
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


def test_conditional_xor():
    c = build_conditional_xor(4)
    for ctl in (0, 1):
        for a in range(16):
            for b in range(16):
                out = run(c, ctl=ctl, a=a, b=b)
                assert out.get_reg("b") == (b ^ a if ctl else b)


def test_mul_accumulate_oracle():
    fs = FieldSpec(4, 0b10011)
    c = build_mul_accumulate(fs)
    for x in fs.elements():
        for y in fs.elements():
            out = run(c, x=x, y=y, t=0b1001)
            assert out.get_reg("t") == 0b1001 ^ field_mul(x, y, fs)
            assert out.get_reg("x") == x and out.get_reg("y") == y
