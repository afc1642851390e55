"""GF(2^m) field arithmetic: the classical oracle the circuits are checked against.

A field element is a binary polynomial (int) of degree < m.  A FieldSpec
carries the degree m and the irreducible modulus f; irreducibility is
verified at construction by Ben-Or's test, m/2 squarings and gcds mod f,
so the standard sizes (m = 163 ... 571) build in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameter, DivisionByZero, InvariantViolation, NotIrreducible, ZeroElement
from .poly import degree, extended_euclid, parse_poly, poly_divmod, poly_mul


def is_irreducible(f: int) -> bool:
    """Ben-Or's test: f of degree m is irreducible iff gcd(f, z^(2^i) + z) = 1
    for every i <= m/2, since z^(2^i) + z is the product of all irreducibles
    of degree dividing i (Ben-Or, Probabilistic algorithms in finite fields,
    1981).  u runs through z^(2^i) mod f by repeated squaring."""
    if f == 0 or degree(f) < 1:
        return False
    u = 0b10  # z
    for _ in range(degree(f) // 2):
        u = poly_divmod(poly_mul(u, u), f)[1]
        a, b = f, u ^ 0b10
        while b:  # remainder-only Euclid: no cofactors needed
            a, b = b, poly_divmod(a, b)[1]
        if a != 1:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(2^m) presented as GF(2)[z] mod an irreducible f of degree m."""

    m: int
    modulus: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("field degree must be positive")
        if self.modulus == 0 or degree(self.modulus) != self.m:
            raise ValueError("modulus must have degree exactly m")
        if not is_irreducible(self.modulus):
            raise NotIrreducible(f"modulus {bin(self.modulus)} is reducible")

    def contains(self, x: int) -> bool:
        return 0 <= x < (1 << self.m)

    def elements(self):
        """All 2^m field elements."""
        return range(1 << self.m)

    def nonzero_elements(self):
        return range(1, 1 << self.m)


def require_element(c: int, m: int) -> None:
    """Reject an inverter input that is not an element of GF(2^m)."""
    if not 0 <= c < 1 << m:
        raise BadParameter(f"{bin(c)} is not an element of GF(2^{m})")


def reduce_mod(p: int, field: FieldSpec) -> int:
    """Reduce an arbitrary binary polynomial mod the field modulus."""
    return poly_divmod(p, field.modulus)[1]


def field_mul(x: int, y: int, field: FieldSpec) -> int:
    """Product in GF(2^m): carry-less multiply then reduce mod f."""
    return reduce_mod(poly_mul(x, y), field)


def field_sqr(x: int, field: FieldSpec) -> int:
    """Square in GF(2^m) (the GF(2)-linear bit-spreading map, then reduce)."""
    spread = 0
    i = 0
    while x:
        if x & 1:
            spread |= 1 << (2 * i)
        x >>= 1
        i += 1
    return reduce_mod(spread, field)


def field_invert(c: int, field: FieldSpec) -> int:
    """Inverse of a nonzero element via the extended Euclidean algorithm."""
    if c == 0:
        raise ZeroElement("0 has no inverse")
    g, k, _ = extended_euclid(c, field.modulus)
    if g != 1:
        raise InvariantViolation("modulus is irreducible, so gcd(c, f) = 1")
    return reduce_mod(k, field)


def field_div(x: int, y: int, field: FieldSpec) -> int:
    """Quotient x/y in GF(2^m); y must be nonzero."""
    if y == 0:
        raise DivisionByZero("field division by zero")
    return field_mul(x, field_invert(y, field), field)


def default_modulus(m: int) -> int:
    """The numerically smallest irreducible of degree m; a deterministic
    choice for commands that take only m."""
    if m < 1:
        raise BadParameter(f"field degree must be positive, not {m}")
    for f in range(1 << m, 1 << (m + 1)):
        if is_irreducible(f):
            return f
    raise NotIrreducible(f"no irreducible of degree {m}")  # unreachable


def default_field(m: int) -> FieldSpec:
    return FieldSpec(m, default_modulus(m))


def parse_keyvalue_file(path, required=()) -> dict[str, str]:
    """Read a `key = value` config file, ignoring blank lines and # comments.
    A key in `required` that the file lacks is a BadParameter."""
    entries: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    for key in required:
        if key not in entries:
            raise BadParameter(f"config file {path} lacks the key {key!r}")
    return entries


def load_field(path) -> FieldSpec:
    """Load a FieldSpec from a key-value file with keys m and modulus."""
    entries = parse_keyvalue_file(path, ("m", "modulus"))
    return FieldSpec(m=int(entries["m"]), modulus=parse_poly(entries["modulus"]))
