"""Binary polynomial arithmetic over GF(2)[z].

Polynomials are plain Python ints: bit i is the coefficient of z^i, so
the int 0b10101 is z^4 + z^2 + 1.  This keeps values canonical for free
(no leading-zero storage) and makes addition a bare XOR.  The zero
polynomial is the int 0 and is the only value without a degree.

The text rendering is MSB-first ("10101" = z^4 + z^2 + 1).
"""

from __future__ import annotations

from .errors import BothZero, DivisionByZero, ZeroPolynomial


def degree(a: int) -> int:
    """Degree of a nonzero polynomial (index of its highest set bit)."""
    if a == 0:
        raise ZeroPolynomial("degree of the zero polynomial is undefined")
    return a.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product in GF(2)[z]."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def poly_divmod(b: int, a: int) -> tuple[int, int]:
    """Long division of b by a: returns (q, r) with b = q*a + r over GF(2).

    r is either 0 or has degree strictly below degree(a).
    """
    if a == 0:
        raise DivisionByZero("polynomial division by zero")
    q = 0
    la = a.bit_length()
    while (shift := b.bit_length() - la) >= 0:
        q ^= 1 << shift
        b ^= a << shift
    return q, b


def extended_euclid(a: int, b: int) -> tuple[int, int]:
    """Extended Euclidean algorithm: returns (g, k) with g = k*a + kp*b for
    some kp, which is not tracked.

    The loop exits when the remainder reaches 0; the returned coefficient
    is the one paired with the final nonzero remainder.
    """
    if a == 0 and b == 0:
        raise BothZero("gcd(0, 0) is undefined")
    # (r0, k0) and (r1, k1) track the last two remainder rows.
    r0, k0 = a, 1
    r1, k1 = b, 0
    while r1 != 0:
        q, r = poly_divmod(r0, r1)
        r0, k0, r1, k1 = r1, k1, r, k0 ^ poly_mul(q, k1)
    return r0, k0


def parse_poly(text: str) -> int:
    """Parse the MSB-first binary rendering of a polynomial."""
    text = text.strip()
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"not an MSB-first bit string: {text!r}")
    return int(text, 2)


def format_poly(p: int, width: int) -> str:
    """Render a polynomial MSB-first, padded to `width` coefficients."""
    if p.bit_length() > width:
        raise ValueError(f"polynomial needs more than {width} coefficients")
    return format(p, f"0{width}b")
