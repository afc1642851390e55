import pytest

from revgf2.curve import CurveKind, CurvePoint, CurveSpec, ec_add, enumerate_points
from revgf2.ecgroup import (
    CONSTANT_ADD,
    FixedPointParams,
    build_division_with_uncompute,
    execute_plan,
    generic_points,
    group_op_width,
    plan_group_add,
    simulate_group_add,
    squaring_step,
)
from revgf2.errors import DivisionByZero, NonGenericInput, PointNotOnCurve
from revgf2.field import FieldSpec, field_div, field_sqr

F16 = FieldSpec(4, 0b10011)
NS = CurveSpec(F16, CurveKind.NON_SUPERSINGULAR, a=0b10, b=0b1)
SS = CurveSpec(F16, CurveKind.SUPERSINGULAR, a=0b1, b=0b10, c=0b1)


def params_for(curve):
    fixed = [p for p in enumerate_points(curve) if not p.is_infinity][0]
    return FixedPointParams(curve, fixed.x, fixed.y)


def test_fixed_point_must_lie_on_curve():
    with pytest.raises(PointNotOnCurve):
        FixedPointParams(NS, 0, 0)


def test_plan_arrow_counts():
    assert plan_group_add(params_for(NS)).arrows == 6
    assert plan_group_add(params_for(SS)).arrows == 5


def test_zero_constants_degenerate_to_identity():
    # alpha = beta = 0 makes the first arrow a pair of empty XOR masks
    curve = CurveSpec(F16, CurveKind.SUPERSINGULAR, a=0, b=0, c=1)
    if CurvePoint(0, 0) in enumerate_points(curve):
        plan = plan_group_add(FixedPointParams(curve, 0, 0))
        first = plan.steps[0]
        assert first.kind == CONSTANT_ADD
        assert first.x_const == 0 and first.y_const == 0


@pytest.mark.parametrize("backend", ["naive", "opt"])
def test_division_with_uncompute_oracle(backend):
    div = build_division_with_uncompute(F16, backend)
    for x in F16.nonzero_elements():
        for y in F16.elements():
            q = div.divide(x, y)
            assert q == field_div(y, x, F16)
            assert div.multiply(x, q) == y
    assert div.divide(1, 0b1011) == 0b1011  # x = 1
    assert div.divide(0b10, 0) == 0  # y = 0
    with pytest.raises(DivisionByZero):
        div.divide(0, 1)


def test_squaring_step():
    assert squaring_step(0b10, F16) == 0b100
    assert squaring_step(0, F16, linear=True, const=0b11) == 0b11
    assert squaring_step(1, F16, linear=True) == 0  # 1 + 1 = 0
    for lam in F16.elements():
        assert squaring_step(lam, F16) == field_sqr(lam, F16)


def test_plan_inverse_restores_input():
    for curve in (NS, SS):
        params = params_for(curve)
        plan = plan_group_add(params)
        for s in generic_points(params):
            x, y = execute_plan(plan, s.x, s.y)
            back = execute_plan(plan, x, y, inverse=True)
            assert back == (s.x, s.y)


def test_non_generic_inputs_rejected():
    params = params_for(NS)
    with pytest.raises(NonGenericInput):
        simulate_group_add(CurvePoint(is_infinity=True), params)
    with pytest.raises(NonGenericInput):
        simulate_group_add(CurvePoint(params.alpha, params.beta), params)
    off = CurvePoint(0, 1)
    from revgf2.curve import on_curve

    if not on_curve(off, NS):
        with pytest.raises(PointNotOnCurve):
            simulate_group_add(off, params)


@pytest.mark.parametrize("backend", ["naive", "opt"])
def test_output_side_non_generic_rejected(backend):
    # a sum with x = alpha leaves the multiply step a zero operand
    rejected = 0
    for curve in (NS, SS):
        params = params_for(curve)
        fixed = CurvePoint(params.alpha, params.beta)
        for s in enumerate_points(curve):
            if s.is_infinity or s.x == params.alpha:
                continue
            if ec_add(s, fixed, curve).x == params.alpha:
                with pytest.raises(NonGenericInput):
                    simulate_group_add(s, params, backend)
                rejected += 1
    assert rejected > 0  # (1, 11) on the supersingular curve


def test_width_bounded_by_division():
    from revgf2.naive import euclid_iteration_layout
    from revgf2.optimized import halting_counter_width, qubit_budget

    # the whole group operation costs one inverter plus the product scratch
    widths = group_op_width(F16, "naive")
    assert widths["total"] == sum(euclid_iteration_layout(4).values()) + 4
    widths = group_op_width(F16, "opt")
    assert widths["total"] == qubit_budget(4, halting_counter_width(4)) + 4
    for backend in ("naive", "opt"):
        w = group_op_width(F16, backend)
        assert w["total"] == (
            w["point_registers"] + w["product_scratch"] + w["inverter_scratch"]
        )
