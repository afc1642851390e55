import itertools

import pytest

from revgf2 import ecgroup
from revgf2.curve import CurveKind, CurvePoint, CurveSpec, ec_add, enumerate_points
from revgf2.ecgroup import (
    DIVIDE,
    MULTIPLY,
    X,
    Y,
    T,
    FixedPointParams,
    build_division_with_uncompute,
    execute_plan,
    fold_x_into_y,
    generic_points,
    group_op_width,
    invert_x,
    mul_acc,
    plan_group_add,
    run_arrow,
    simulate_group_add,
    square_into_x,
    swap_yt,
    xor_constants,
)
from revgf2.errors import DivisionByZero, InvariantViolation, NonGenericInput, PointNotOnCurve
from revgf2.field import FieldSpec, field_div, field_mul, field_sqr

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
        assert plan.chain[0] == ((xor_constants, 0, 0),)


STEPS = [
    (xor_constants, 0b1011, 0b110),
    (invert_x,),
    (mul_acc, T, X, Y),
    (mul_acc, Y, X, T),
    (swap_yt,),
    (square_into_x, True, 0b101),
    (square_into_x, False, 0b11),
    (fold_x_into_y, 0b1001),
]


# only the inversion step depends on the backend
STEP_CASES = [(step, "naive") for step in STEPS] + [((invert_x,), "opt")]


@pytest.mark.parametrize(
    "step, backend", STEP_CASES, ids=["-".join(map(str, [s[0].__name__, *s[1:], b])) for s, b in STEP_CASES]
)
def test_every_step_is_an_involution(step, backend):
    ctx = build_division_with_uncompute(F16, backend)
    op, *args = step
    for regs in itertools.product(F16.elements(), repeat=3):
        if op is invert_x and regs[X] == 0:
            continue
        assert op(op(regs, ctx, *args), ctx, *args) == regs


def test_multiply_arrow_is_divide_reversed():
    assert MULTIPLY == DIVIDE[::-1]
    for curve in (NS, SS):
        plan = plan_group_add(params_for(curve))
        assert plan.inverse().inverse() == plan


@pytest.mark.parametrize("backend", ["naive", "opt"])
def test_divide_and_multiply_arrows_match_oracle(backend):
    ctx = build_division_with_uncompute(F16, backend)
    for x in F16.nonzero_elements():
        for y in F16.elements():
            assert run_arrow(DIVIDE, (x, y, 0), ctx) == (x, field_div(y, x, F16), 0)
            assert run_arrow(MULTIPLY, (x, y, 0), ctx) == (x, field_mul(x, y, F16), 0)
    for arrow in (DIVIDE, MULTIPLY):
        with pytest.raises(DivisionByZero):
            run_arrow(arrow, (0, 1, 0), ctx)


@pytest.mark.parametrize("backend", ["naive", "opt"])
def test_faulty_inverter_is_caught(backend, monkeypatch):
    # an "inverter" that returns its input is its own inverse, so x comes
    # back restored; the scratch check must catch it unless x + alpha = 1
    # or the slope is 0, where the identity happens to be right
    monkeypatch.setattr(ecgroup, "run_naive_inversion", lambda c, field: c)
    monkeypatch.setattr(ecgroup, "optimized_invert", lambda c, field: c)
    caught = 0
    for curve in (NS, SS):
        params = params_for(curve)
        for s in generic_points(params):
            if s.x ^ params.alpha > 1 and s.y != params.beta:
                with pytest.raises(InvariantViolation, match="scratch"):
                    simulate_group_add(s, params, backend)
                caught += 1
    assert caught > 0


def test_unrestored_x_is_caught(monkeypatch):
    # squaring twice gives x^4 != x outside GF(4); with y = 0 both products
    # are 0, so only the restore check on x can see the fault
    monkeypatch.setattr(ecgroup, "run_naive_inversion", field_sqr)
    with pytest.raises(InvariantViolation, match="restore x"):
        run_arrow(DIVIDE, (0b10, 0, 0), build_division_with_uncompute(F16, "naive"))


def test_multiplier_operand_fault_is_caught(monkeypatch):
    real_apply = ecgroup.apply

    def apply_flipping_x(circuit, state):
        out = real_apply(circuit, state)
        out.set_reg("x", out.get_reg("x") ^ 1)
        return out

    monkeypatch.setattr(ecgroup, "apply", apply_flipping_x)
    with pytest.raises(InvariantViolation, match="operands"):
        run_arrow(DIVIDE, (0b11, 0b101, 0), build_division_with_uncompute(F16, "opt"))


def test_plan_inverse_restores_input():
    for curve in (NS, SS):
        params = params_for(curve)
        plan = plan_group_add(params)
        for s in generic_points(params):
            x, y = execute_plan(plan, s.x, s.y)
            back = execute_plan(plan.inverse(), x, y)
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


def test_width_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend must be naive or opt, not 'bogus'"):
        group_op_width(F16, "bogus")
