"""Piecewise-reversible elliptic-curve point addition |x,y> -> |x',y'>.

The added point (alpha, beta) is classically known, so its coordinates
enter as classically controlled NOTs (plain XOR constants).  The chain for
a non-supersingular curve:

  x, y -> x+a, y+b -> x+a, L -> x'+a, L -> x'+a, L(x'+a) -> x', .. -> x', y'

with L = (y+beta)/(x+alpha) the chord slope; the supersingular chain is
one arrow shorter.  The two middle arrows are a division and a
multiplication in which one operand is uncomputed; each division is four
reversible steps (invert, multiply, invert back, multiply to clear),
driven by either Euclid backend.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .blocks import build_mul_accumulate
from .circuit import BasisState, apply
from .curve import CurveKind, CurvePoint, CurveSpec, ec_add, on_curve
from .errors import DivisionByZero, InvariantViolation, NonGenericInput, PointNotOnCurve
from .field import FieldSpec, field_sqr
from .naive import euclid_iteration_layout, run_naive_inversion
from .optimized import halting_counter_width, optimized_invert, qubit_budget


@dataclass(frozen=True)
class FixedPointParams:
    """The classically known point (alpha, beta) to be added, plus its curve."""

    curve: CurveSpec
    alpha: int
    beta: int

    def __post_init__(self):
        if not on_curve(CurvePoint(self.alpha, self.beta), self.curve):
            raise PointNotOnCurve("fixed point (alpha, beta) is not on the curve")


# --- the division/multiplication with operand uncomputation -----------------


class DivisionWithUncompute:
    """Net map |x>|y> <-> |x>|y/x| as four reversible steps E, m, E, m.

    E is a Euclid inversion pass (naive stepped circuits or the optimized
    synchronized machine), m a run of the multiply-accumulate circuit:

      x, y -> 1/x, y -> 1/x, y, y/x -> x, y, y/x -> x, 0, y/x

    The second multiplication replays y = (y/x)*x backwards to clear y.
    Applied in reverse the same object is the multiplication with the
    inverse operand uncomputed, |x>|t> <-> |x>|t*x>.
    """

    def __init__(self, field: FieldSpec, backend: str = "naive"):
        if backend not in ("naive", "opt"):
            raise ValueError(f"backend must be naive or opt, not {backend!r}")
        self.field = field
        self.backend = backend
        self._mul = build_mul_accumulate(field)

    def _invert(self, x: int) -> int:
        if self.backend == "naive":
            return run_naive_inversion(x, self.field)
        return optimized_invert(x, self.field)

    def _mul_acc(self, x: int, y: int, t: int) -> int:
        """t ^= x*y mod f, through the simulated multiplier circuit."""
        state = BasisState.from_values(self._mul.layout, x=x, y=y, t=t)
        out = apply(self._mul, state)
        if out.get_reg("x") != x or out.get_reg("y") != y:
            raise InvariantViolation("multiplier operands not restored")
        return out.get_reg("t")

    def divide(self, x: int, y: int) -> int:
        """Return y/x; the dividend register ends cleared (checked)."""
        if x == 0:
            raise DivisionByZero("division step with zero denominator")
        inv = self._invert(x)  # E
        quot = self._mul_acc(inv, y, 0)  # m
        x_back = self._invert(inv)  # E
        if x_back != x:
            raise InvariantViolation("inversion pass failed to restore the operand")
        if self._mul_acc(x, quot, y) != 0:  # m (uncompute y)
            raise InvariantViolation("dividend scratch not cleared")
        return quot

    def multiply(self, x: int, t: int) -> int:
        """The reverse pass: return t*x with the t register cleared."""
        if x == 0:
            raise DivisionByZero("multiplication step with zero operand")
        prod = self._mul_acc(x, t, 0)
        inv = self._invert(x)
        t_cleared = self._mul_acc(inv, prod, t)
        if self._invert(inv) != x:
            raise InvariantViolation("inversion pass failed to restore the operand")
        if t_cleared != 0:
            raise InvariantViolation("multiplier scratch not cleared")
        return prod


@functools.lru_cache(maxsize=None)
def build_division_with_uncompute(field: FieldSpec, backend: str = "naive") -> DivisionWithUncompute:
    return DivisionWithUncompute(field, backend)


def squaring_step(lam: int, field: FieldSpec, linear: bool = False, const: int = 0) -> int:
    """The slope's contribution to the new x coordinate: lam^2 (+ lam) + const.

    Squaring is GF(2)-linear (bit spreading then reduction), so the whole
    contribution is a fixed linear map XORed into the target register.
    """
    out = field_sqr(lam, field) ^ const
    if linear:
        out ^= lam
    return out


# --- the step plan -----------------------------------------------------------


CONSTANT_ADD = "constant-add"
DIVIDE_UNCOMPUTE = "divide-uncompute"
SQUARE_AND_ADD = "square-and-add"
MULTIPLY_UNCOMPUTE = "multiply-uncompute"
XOR_FOLD = "xor-fold"


@dataclass(frozen=True)
class PlanStep:
    """One arrow of the chain.  Constant adds carry the XOR masks;
    square-and-add carries its constant and whether the linear lam term
    participates; xor-fold adds the x register (plus a constant) into y."""

    kind: str
    x_const: int = 0
    y_const: int = 0
    with_linear_term: bool = False


@dataclass(frozen=True)
class GroupStepPlan:
    """The ordered reversible steps realizing (x, y) -> (x', y')."""

    params: FixedPointParams
    steps: tuple[PlanStep, ...]

    @property
    def arrows(self) -> int:
        return len(self.steps)


def plan_group_add(params: FixedPointParams) -> GroupStepPlan:
    """Emit the curve kind's chain.

    Non-supersingular (six arrows; x2 = alpha, y2 = beta, L the slope):
      1. x ^= alpha, y ^= beta
      2. y <- L = y/x                          (division, operand uncomputed)
      3. x ^= L^2 + L + (alpha + a)            (now x = x' + alpha)
      4. y <- L*x = y' + x' + beta             (multiplication, L uncomputed)
      5. x ^= alpha                            (now x = x')
      6. y ^= x + beta                         (now y = y')
    Supersingular (five arrows):
      1. x ^= alpha, y ^= beta
      2. y <- L
      3. x ^= L^2 + alpha                      (x = x' + alpha)
      4. y <- L*x = y' + beta + c
      5. x ^= alpha, y ^= beta + c
    """
    curve = params.curve
    alpha, beta = params.alpha, params.beta
    if curve.kind is CurveKind.NON_SUPERSINGULAR:
        steps = (
            PlanStep(CONSTANT_ADD, x_const=alpha, y_const=beta),
            PlanStep(DIVIDE_UNCOMPUTE),
            PlanStep(SQUARE_AND_ADD, x_const=alpha ^ curve.a, with_linear_term=True),
            PlanStep(MULTIPLY_UNCOMPUTE),
            PlanStep(CONSTANT_ADD, x_const=alpha),
            PlanStep(XOR_FOLD, y_const=beta),
        )
    else:
        steps = (
            PlanStep(CONSTANT_ADD, x_const=alpha, y_const=beta),
            PlanStep(DIVIDE_UNCOMPUTE),
            PlanStep(SQUARE_AND_ADD, x_const=alpha),
            PlanStep(MULTIPLY_UNCOMPUTE),
            PlanStep(CONSTANT_ADD, x_const=alpha, y_const=beta ^ curve.c),
        )
    return GroupStepPlan(params=params, steps=steps)


def _apply_step(step: PlanStep, x: int, y: int, div: DivisionWithUncompute, field: FieldSpec):
    if step.kind == CONSTANT_ADD:
        return x ^ step.x_const, y ^ step.y_const
    if step.kind == DIVIDE_UNCOMPUTE:
        return x, div.divide(x, y)
    if step.kind == SQUARE_AND_ADD:
        return x ^ squaring_step(y, field, step.with_linear_term, step.x_const), y
    if step.kind == MULTIPLY_UNCOMPUTE:
        return x, div.multiply(x, y)
    if step.kind == XOR_FOLD:
        return x, y ^ x ^ step.y_const
    raise ValueError(f"unknown plan step {step.kind!r}")


_INVERSE_KIND = {DIVIDE_UNCOMPUTE: MULTIPLY_UNCOMPUTE, MULTIPLY_UNCOMPUTE: DIVIDE_UNCOMPUTE}


def execute_plan(plan: GroupStepPlan, x: int, y: int, backend: str = "naive",
                 inverse: bool = False) -> tuple[int, int]:
    """Run the plan (or its inverse) on raw register values.

    Constant adds, square-and-add, and xor-fold are XOR masks, hence
    self-inverse; the division and multiplication arrows are each other's
    reverses, so the inverse plan is the reversed step list with those two
    kinds exchanged.
    """
    field = plan.params.curve.field
    div = build_division_with_uncompute(field, backend)
    steps = plan.steps
    if inverse:
        steps = tuple(
            PlanStep(_INVERSE_KIND.get(s.kind, s.kind), s.x_const, s.y_const, s.with_linear_term)
            for s in reversed(steps)
        )
    for step in steps:
        x, y = _apply_step(step, x, y, div, field)
    return x, y


def simulate_group_add(s: CurvePoint, params: FixedPointParams,
                       backend: str = "naive") -> CurvePoint:
    """Execute the plan on one basis-state point; returns S + (alpha, beta).

    Only the generic case is implemented, so the identity, the fixed point
    itself, and its negative are rejected up front (all three share
    x = alpha, which would put a zero denominator under the slope).  A sum
    that shares x = alpha is met inside the plan: its multiply step gets
    the zero operand x' + alpha, so the slope cannot be uncomputed.
    """
    if s.is_infinity:
        raise NonGenericInput("the identity is outside the generic case")
    if not on_curve(s, params.curve):
        raise PointNotOnCurve(f"{s} not on the curve")
    if s.x == params.alpha:
        raise NonGenericInput(
            "input shares the fixed point's x coordinate (doubling, "
            "cancellation, or a repeated point)"
        )
    plan = plan_group_add(params)
    try:
        x3, y3 = execute_plan(plan, s.x, s.y, backend)
    except DivisionByZero as exc:
        raise NonGenericInput(
            "the sum shares the fixed point's x coordinate, so the slope "
            "cannot be uncomputed (output side of the generic-case check)"
        ) from exc
    return CurvePoint(x3, y3)


def generic_points(params: FixedPointParams) -> list[CurvePoint]:
    """All curve points the plan accepts: affine, x != alpha, and the sum
    itself affine with x != alpha (both ends of the chain need a nonzero
    slope denominator)."""
    from .curve import enumerate_points

    fixed = CurvePoint(params.alpha, params.beta)
    out = []
    for p in enumerate_points(params.curve):
        if p.is_infinity or p.x == params.alpha:
            continue
        if ec_add(p, fixed, params.curve).x == params.alpha:
            continue
        out.append(p)
    return out


def group_op_width(field: FieldSpec, backend: str = "naive") -> dict[str, int]:
    """Width audit: the assembled group operation needs the point registers,
    the slope/product scratch, and whichever Euclid inverter is driven,
    i.e. it is bounded by one division-with-uncomputation."""
    m = field.m
    if backend == "naive":
        inverter = sum(euclid_iteration_layout(m).values())
    else:
        inverter = qubit_budget(m, halting_counter_width(m))
    return {
        "point_registers": 2 * m,
        "product_scratch": m,
        "inverter_scratch": inverter - 2 * m,
        "total": m + inverter,
    }
