import itertools
import random

import pytest

from revgf2.curve import (
    INFINITY,
    CurveKind,
    CurvePoint,
    CurveSpec,
    ec_add,
    enumerate_points,
    load_curve,
    negate,
    on_curve,
)
from revgf2.errors import PointNotOnCurve
from revgf2.field import FieldSpec, default_field, is_irreducible

F16 = FieldSpec(4, 0b10011)
NS = CurveSpec(F16, CurveKind.NON_SUPERSINGULAR, a=0b10, b=0b1)
SS = CurveSpec(F16, CurveKind.SUPERSINGULAR, a=0b1, b=0b10, c=0b1)


def test_curve_constant_validation():
    with pytest.raises(ValueError):
        CurveSpec(F16, CurveKind.NON_SUPERSINGULAR, a=0, b=0)
    with pytest.raises(ValueError):
        CurveSpec(F16, CurveKind.SUPERSINGULAR, a=0, b=1, c=0)


def test_negate_is_involution_and_on_curve():
    for curve in (NS, SS):
        for p in enumerate_points(curve):
            n = negate(p, curve)
            assert on_curve(n, curve)
            assert negate(n, curve) == p


def test_identity_and_inverse_cases():
    for curve in (NS, SS):
        pts = enumerate_points(curve)
        p = pts[1]
        assert ec_add(INFINITY, p, curve) == p
        assert ec_add(p, INFINITY, curve) == p
        assert ec_add(p, negate(p, curve), curve) == INFINITY


def test_sum_lands_on_curve():
    for curve in (NS, SS):
        pts = [p for p in enumerate_points(curve) if not p.is_infinity]
        for p in pts:
            for r in pts:
                if p == r or r == negate(p, curve):
                    continue
                assert on_curve(ec_add(p, r, curve), curve)


def test_group_is_associative_on_samples():
    for curve in (NS, SS):
        pts = [p for p in enumerate_points(curve) if not p.is_infinity][:5]
        for p in pts:
            for r in pts:
                for s in pts:
                    try:
                        lhs = ec_add(ec_add(p, r, curve), s, curve)
                        rhs = ec_add(p, ec_add(r, s, curve), curve)
                    except PointNotOnCurve:
                        continue  # a doubling cropped up somewhere
                    assert lhs == rhs


def test_doubling_rejected():
    # a self-inverse point would hit the P + (-P) = O branch instead
    p = next(
        q
        for q in enumerate_points(NS)
        if not q.is_infinity and q != negate(q, NS)
    )
    with pytest.raises(PointNotOnCurve):
        ec_add(p, p, NS)


def test_off_curve_rejected():
    bad = CurvePoint(0, 1)
    if not on_curve(bad, NS):
        with pytest.raises(PointNotOnCurve):
            ec_add(bad, INFINITY, NS)


def test_load_curve(tmp_path):
    path = tmp_path / "c.curve"
    path.write_text(
        "m = 4\nmodulus = 10011\nkind = non-supersingular\na = 10\nb = 1\n"
    )
    assert load_curve(path) == NS


def scan_points(curve):
    """Reference: every (x, y) pair tested against the curve equation."""
    elements = curve.field.elements()
    return [INFINITY] + [CurvePoint(x, y) for x in elements for y in elements if on_curve(CurvePoint(x, y), curve)]


def curves_to_scan():
    for m in (1, 2, 3):  # every curve of both kinds under every modulus
        for modulus in filter(is_irreducible, range(1 << m, 2 << m)):
            f = FieldSpec(m, modulus)
            for a, b in itertools.product(f.elements(), repeat=2):
                if b:
                    yield CurveSpec(f, CurveKind.NON_SUPERSINGULAR, a, b)
                yield from (CurveSpec(f, CurveKind.SUPERSINGULAR, a, b, c) for c in f.nonzero_elements())
    for a, b in itertools.product(F16.elements(), F16.nonzero_elements()):
        yield CurveSpec(F16, CurveKind.NON_SUPERSINGULAR, a, b)
    rng = random.Random(5)
    for m in (5, 6, 7):
        f = default_field(m)
        a, b, c = (rng.randrange(1, 1 << m) for _ in range(3))
        yield CurveSpec(f, CurveKind.NON_SUPERSINGULAR, a, b)
        yield CurveSpec(f, CurveKind.SUPERSINGULAR, a, b, c)


def test_enumerate_points_matches_scan():
    for curve in curves_to_scan():
        assert enumerate_points(curve) == scan_points(curve), curve
