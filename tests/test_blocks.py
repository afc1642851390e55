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
    log2_ceil,
    rotation_gates,
)
from revgf2.circuit import BasisState, apply, check_permutation, report, swap, sweep
from revgf2.errors import BadParameter
from revgf2.field import FieldSpec, field_mul
from revgf2.poly import degree


def run(circ, **values):
    return apply(circ, BasisState.from_values(circ.layout, **values))


def test_log2_ceil():
    assert [log2_ceil(m) for m in (2, 3, 4, 5, 8, 9, 16)] == [1, 2, 2, 3, 3, 4, 4]
    with pytest.raises(BadParameter):
        log2_ceil(0)


def test_swap_three_cnots():
    c = build_swap()
    assert report(c).gate_counts == {"CNOT": 3}
    for q in range(4):
        out = run(c, q=q)
        assert out.get_reg("q") == ((q >> 1) | ((q & 1) << 1))


def rotate(v, n, d, direction):
    """Classical cyclic rotation of an n-bit value by d positions."""
    d = d % n if direction == "left" else -d % n
    return ((v << d) | (v >> (n - d))) & ((1 << n) - 1)


def test_cyclic_shift_swap_count_and_action():
    for n in (2, 3, 5, 8):
        left = build_cyclic_shift(n, "left")
        assert report(left).gate_counts == {"SWAP": n - 1}
        for v in range(1 << n):
            assert run(left, r=v).get_reg("r") == rotate(v, n, 1, "left")
        right = build_cyclic_shift(n, "right")
        for v in range(1 << n):
            assert run(right, r=v).get_reg("r") == rotate(v, n, 1, "right")


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
            for direction in ("left", "right"):
                c = build_controlled_shift(n, k, direction)
                assert report(c).total_gates == want_gates
                run_all = sweep(c, ("data", "shift"))
                want = [rotate(v, n, s, direction) for s in range(1 << k) for v in range(1 << n)]
                assert list(run_all.values("data")) == want
                assert list(run_all.values("shift")) == [s for s in range(1 << k) for _ in range(1 << n)]


def test_increment_single_ancilla():
    for w in (1, 2, 3, 4):
        c = build_increment(w)
        assert c.layout["anc"] == 1  # exactly one ancilla
        for k in range(1 << w):
            out = run(c, k=k)
            full = out.get_reg("k") | (out.get_reg("anc") << w)
            assert full == k + 1
        assert check_permutation(c)


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
    for m in (2, 3, 4, 5, 8):
        c = build_degree(m)
        assert c.width == m + log2_ceil(m) + 1  # ceil(log m)+1 beyond |A>
        for a in range(1, 1 << m):
            out = run(c, a=a)
            assert out.get_reg("deg") == degree(a)
            assert out.get_reg("anc") == 0
            assert out.get_reg("a") == a


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
