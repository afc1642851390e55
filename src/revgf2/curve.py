"""Elliptic curves over GF(2^m): specs, points, and the classical group-add oracle.

Only the generic addition formulas are implemented (plus the identity and
inverse-point cases); point doubling is deliberately absent, matching the
generic-case restriction the reversible circuits rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import PointNotOnCurve
from .field import FieldSpec, field_div, field_mul, field_sqr, parse_keyvalue_file
from .poly import parse_poly


class CurveKind(enum.Enum):
    NON_SUPERSINGULAR = "non-supersingular"
    SUPERSINGULAR = "supersingular"


@dataclass(frozen=True)
class CurveSpec:
    """A curve y^2 + xy = x^3 + ax^2 + b (non-supersingular, b != 0)
    or y^2 + cy = x^3 + ax + b (supersingular, c != 0) over GF(2^m)."""

    field: FieldSpec
    kind: CurveKind
    a: int
    b: int
    c: int = 0

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not self.field.contains(getattr(self, name)):
                raise ValueError(f"curve constant {name} outside the field")
        if self.kind is CurveKind.NON_SUPERSINGULAR and self.b == 0:
            raise ValueError("non-supersingular curves require b != 0")
        if self.kind is CurveKind.SUPERSINGULAR and self.c == 0:
            raise ValueError("supersingular curves require c != 0")


@dataclass(frozen=True)
class CurvePoint:
    """An affine point, or the point at infinity (is_infinity=True)."""

    x: int = 0
    y: int = 0
    is_infinity: bool = False

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(is_infinity=True)


INFINITY = CurvePoint.infinity()


def on_curve(p: CurvePoint, curve: CurveSpec) -> bool:
    """Does p satisfy the defining equation of its curve?"""
    if p.is_infinity:
        return True
    f = curve.field
    x, y = p.x, p.y
    if not (f.contains(x) and f.contains(y)):
        return False
    lhs = field_sqr(y, f)
    rhs = field_mul(field_sqr(x, f), x, f) ^ curve.b
    if curve.kind is CurveKind.NON_SUPERSINGULAR:
        lhs ^= field_mul(x, y, f)
        rhs ^= field_mul(curve.a, field_sqr(x, f), f)
    else:
        lhs ^= field_mul(curve.c, y, f)
        rhs ^= field_mul(curve.a, x, f)
    return lhs == rhs


def negate(p: CurvePoint, curve: CurveSpec) -> CurvePoint:
    """The group inverse of a point."""
    if p.is_infinity:
        return p
    if curve.kind is CurveKind.NON_SUPERSINGULAR:
        return CurvePoint(p.x, p.x ^ p.y)
    return CurvePoint(p.x, p.y ^ curve.c)


def ec_add(p: CurvePoint, r: CurvePoint, curve: CurveSpec) -> CurvePoint:
    """Group sum of two distinct points (the generic-add oracle).

    Handles the identity and inverse-point cases; rejects doubling
    (P = R as affine points) since the generic formulas exclude it.
    """
    for pt in (p, r):
        if not on_curve(pt, curve):
            raise PointNotOnCurve(f"{pt} not on the curve")
    if p.is_infinity:
        return r
    if r.is_infinity:
        return p
    if r == negate(p, curve):
        return INFINITY
    if p == r:
        raise PointNotOnCurve("generic addition requires distinct points (no doubling)")
    f = curve.field
    lam = field_div(p.y ^ r.y, p.x ^ r.x, f)
    if curve.kind is CurveKind.NON_SUPERSINGULAR:
        x3 = field_sqr(lam, f) ^ lam ^ p.x ^ r.x ^ curve.a
        y3 = field_mul(lam, p.x ^ x3, f) ^ x3 ^ p.y
    else:
        x3 = field_sqr(lam, f) ^ p.x ^ r.x
        y3 = field_mul(lam, p.x ^ x3, f) ^ p.y ^ curve.c
    return CurvePoint(x3, y3)


def enumerate_points(curve: CurveSpec) -> list[CurvePoint]:
    """All points on the curve: the point at infinity, then by x, then by y.

    For each x the equation reads y^2 + u*y = w, with u = x and
    w = x^3 + ax^2 + b (non-supersingular) or u = c and w = x^3 + ax + b
    (supersingular).  For u != 0, y = u*z turns it into z^2 + z = w/u^2,
    whose roots z and z + 1 come from a table of z^2 + z; for u = 0, y is
    the square root of w, from a table of squares.  That is 2^m table
    entries and one division per x, not a scan of all 4^m pairs.
    """
    f = curve.field
    square_roots = {field_sqr(z, f): z for z in f.elements()}  # squaring is a bijection
    quad_roots: dict[int, int] = {}  # z^2 + z -> its smaller root z (the other is z + 1)
    for sq, z in square_roots.items():
        quad_roots.setdefault(sq ^ z, z)
    points = [INFINITY]
    for x in f.elements():
        x2 = field_sqr(x, f)
        if curve.kind is CurveKind.NON_SUPERSINGULAR:
            u, w = x, field_mul(x2, x ^ curve.a, f) ^ curve.b
        else:
            u, w = curve.c, field_mul(x2 ^ curve.a, x, f) ^ curve.b
        if u == 0:
            ys = [square_roots[w]]
        else:
            z = quad_roots.get(field_div(w, field_sqr(u, f), f))
            ys = [] if z is None else sorted((field_mul(u, z, f), field_mul(u, z ^ 1, f)))
        points.extend(CurvePoint(x, y) for y in ys)
    return points


def load_curve(path) -> CurveSpec:
    """Load a CurveSpec from a key-value file (keys m, modulus, kind, a, b, c)."""
    entries = parse_keyvalue_file(path, ("m", "modulus", "kind", "a", "b"))
    field = FieldSpec(m=int(entries["m"]), modulus=parse_poly(entries["modulus"]))
    kind = CurveKind(entries["kind"])
    return CurveSpec(
        field=field,
        kind=kind,
        a=parse_poly(entries["a"]),
        b=parse_poly(entries["b"]),
        c=parse_poly(entries.get("c", "0")),
    )


__all__ = [
    "CurveKind",
    "CurveSpec",
    "CurvePoint",
    "INFINITY",
    "on_curve",
    "negate",
    "ec_add",
    "enumerate_points",
    "load_curve",
]
