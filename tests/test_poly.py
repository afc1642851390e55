import random

import pytest

from revgf2.errors import BothZero, DivisionByZero, ZeroPolynomial
from revgf2.poly import (
    degree,
    extended_euclid,
    format_poly,
    parse_poly,
    poly_divmod,
    poly_mul,
)


def test_degree():
    assert degree(1) == 0
    assert degree(0b10101) == 4
    with pytest.raises(ZeroPolynomial):
        degree(0)


def test_mul_small_cases():
    # (z+1)(z+1) = z^2+1 in characteristic 2
    assert poly_mul(0b11, 0b11) == 0b101
    assert poly_mul(0b101, 0b10) == 0b1010
    assert poly_mul(5, 0) == 0


def test_divmod_identity_exhaustive():
    pairs = [(a, b) for a in range(1, 64) for b in range(64)]
    rng = random.Random(600)
    for _ in range(300):  # wide operands, as at the FIPS 186 sizes (m <= 571)
        a = rng.randrange(1, 1 << rng.randrange(1, 601))
        pairs += [(a, rng.randrange(1 << rng.randrange(1, 601))), (a, 0), (a, rng.randrange(a))]
    for a, b in pairs:
        q, r = poly_divmod(b, a)
        assert poly_mul(q, a) ^ r == b
        if r:
            assert degree(r) < degree(a)
        if b.bit_length() < a.bit_length():
            assert (q, r) == (0, b)


def test_divmod_worked_example():
    # dividing z^4+z^2+1 by z^2+1 leaves quotient z^2 and remainder 1
    q, r = poly_divmod(0b10101, 0b101)
    assert q == 0b100
    assert r == 0b1


def test_divmod_zero_divisor():
    with pytest.raises(DivisionByZero):
        poly_divmod(5, 0)


def test_extended_euclid_bezout():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randrange(1, 1 << 10)
        b = rng.randrange(1, 1 << 10)
        g, k = extended_euclid(a, b)
        assert poly_divmod(a, g)[1] == 0
        assert poly_divmod(b, g)[1] == 0
        assert poly_divmod(poly_mul(k, a) ^ g, b)[1] == 0  # k*a = g mod b


def test_extended_euclid_of_two_zeros_is_undefined():
    with pytest.raises(BothZero, match=r"gcd\(0, 0\) is undefined"):
        extended_euclid(0, 0)


def test_parse_format_round_trip():
    for p in (1, 0b10101, 0b1100):
        assert parse_poly(format_poly(p, 8)) == p
    assert parse_poly("10101") == 0b10101
    assert format_poly(0b101, 5) == "00101"
    with pytest.raises(ValueError, match="more than 2 coefficients"):
        format_poly(0b101, 2)
    for text in ("", "012"):
        with pytest.raises(ValueError, match="not an MSB-first bit string"):
            parse_poly(text)
