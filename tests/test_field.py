import time

import pytest

from revgf2.errors import DivisionByZero, NotIrreducible, ZeroElement
from revgf2.field import (
    FieldSpec,
    default_field,
    default_modulus,
    field_div,
    field_invert,
    field_mul,
    field_sqr,
    is_irreducible,
    load_field,
)
from revgf2.poly import poly_divmod

F16 = FieldSpec(4, 0b10011)


def test_irreducibility_degree_4():
    # exactly three irreducibles of degree 4 over GF(2)
    irreducibles = [f for f in range(1 << 4, 1 << 5) if is_irreducible(f)]
    assert irreducibles == [0b10011, 0b11001, 0b11111]


def test_reducible_modulus_rejected():
    with pytest.raises(NotIrreducible):
        FieldSpec(4, 0b10101)  # (z^2+z+1)^2


def test_mul_commutative_associative():
    for x in F16.elements():
        for y in F16.elements():
            assert field_mul(x, y, F16) == field_mul(y, x, F16)
    x, y, z = 0b101, 0b110, 0b1001
    assert field_mul(field_mul(x, y, F16), z, F16) == field_mul(x, field_mul(y, z, F16), F16)


def test_sqr_matches_mul():
    for x in F16.elements():
        assert field_sqr(x, F16) == field_mul(x, x, F16)


def test_invert_exhaustive():
    for c in F16.nonzero_elements():
        assert field_mul(c, field_invert(c, F16), F16) == 1


def test_invert_zero_raises():
    with pytest.raises(ZeroElement):
        field_invert(0, F16)
    with pytest.raises(DivisionByZero):
        field_div(1, 0, F16)


def test_default_modulus_is_smallest_irreducible():
    assert default_modulus(4) == 0b10011
    assert default_modulus(8) == 0b100011011
    for m in range(2, 17):
        assert is_irreducible(default_modulus(m))
    assert default_field(5).modulus == 0b100101


def test_load_field(tmp_path):
    path = tmp_path / "f.field"
    path.write_text("# GF(2^4)\nm = 4\nmodulus = 10011\n")
    assert load_field(path) == F16


def trial_division_irreducible(f: int) -> bool:
    """Reference: no divisor of degree 1..deg(f)//2 leaves remainder 0."""
    d = f.bit_length() - 1
    if d < 1:
        return False
    return all(poly_divmod(f, g)[1] for g in range(2, 1 << (d // 2 + 1)))


def test_ben_or_matches_trial_division():
    counts = []
    for d in range(1, 13):
        irreducibles = [f for f in range(1 << d, 2 << d) if is_irreducible(f)]
        assert irreducibles == [f for f in range(1 << d, 2 << d) if trial_division_irreducible(f)]
        counts.append(len(irreducibles))
    assert counts == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]
    assert not any(is_irreducible(f) for f in (0, 1))


def test_standard_size_field_builds_fast():
    start = time.perf_counter()
    spec = FieldSpec(163, (1 << 163) | 0b11001001)  # z^163 + z^7 + z^6 + z^3 + 1
    assert time.perf_counter() - start < 0.1
    assert spec.m == 163
    with pytest.raises(NotIrreducible):
        FieldSpec(163, (1 << 163) | 1)  # z^163 + 1 has the root 1
