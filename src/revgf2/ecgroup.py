"""Piecewise-reversible elliptic-curve point addition |x,y> -> |x',y'>.

The added point (alpha, beta) is classically known, so its coordinates
enter as classically controlled NOTs (plain XOR constants).  The chain for
a non-supersingular curve:

  x, y -> x+a, y+b -> x+a, L -> x'+a, L -> x'+a, L(x'+a) -> x', .. -> x', y'

with L = (y+beta)/(x+alpha) the chord slope; the supersingular chain is
one arrow shorter.  Each arrow is a tuple of primitive steps over three
registers x, y and t (the product scratch), each step its own inverse:

  xor_constants   x ^= c1, y ^= c2
  invert_x        x <- 1/x, one Euclid pass E of the chosen backend
  mul_acc         target ^= a*b, one run of the multiply-accumulate circuit
  swap_yt         y <-> t
  square_into_x   x ^= y^2 (+ y) + c, a GF(2)-linear map
  fold_x_into_y   y ^= x + c

An arrow is undone by running its steps in reverse order, and the chain
`plan_group_add` returns by running its arrows so, last first.  The division
arrow DIVIDE takes |x>|y> to |x>|y/x>; the multiplication is DIVIDE reversed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .blocks import build_mul_accumulate
from .circuit import Circuit, run_one
from .curve import CurveKind, CurvePoint, CurveSpec, ec_add, enumerate_points, on_curve
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


# --- the registers, the self-inverse steps, and the arrows -------------------


X, Y, T = range(3)  # register indices into (x, y, t)


@dataclass(frozen=True)
class StepContext:
    """What the steps run on: the field, the Euclid backend behind E, and
    the multiply-accumulate circuit."""

    field: FieldSpec
    backend: str
    multiplier: Circuit


@functools.lru_cache(maxsize=None)
def build_division_with_uncompute(field: FieldSpec, backend: str = "naive") -> StepContext:
    """The steps' context for one field and backend, built once."""
    if backend not in ("naive", "opt"):
        raise ValueError(f"backend must be naive or opt, not {backend!r}")
    return StepContext(field, backend, build_mul_accumulate(field))


def xor_constants(regs, ctx: StepContext, c1: int, c2: int):
    return regs[X] ^ c1, regs[Y] ^ c2, regs[T]


def invert_x(regs, ctx: StepContext):
    """E: x <- 1/x.  The inverters are looked up as module globals on every
    call, so a caller that rebinds them (a tracer, a fault test) is obeyed."""
    x, y, t = regs
    if x == 0:
        raise DivisionByZero("inversion pass on a zero register")
    if ctx.backend == "naive":
        return run_naive_inversion(x, ctx.field), y, t
    return optimized_invert(x, ctx.field), y, t


def mul_acc(regs, ctx: StepContext, target: int, a: int, b: int):
    """regs[target] ^= regs[a]*regs[b] through the simulated multiplier, run
    on its registers (x, y, t) as one lane; the operands must come back
    unchanged (checked)."""
    x, y, t = run_one(ctx.multiplier, regs[a], regs[b], regs[target])
    if x != regs[a] or y != regs[b]:
        raise InvariantViolation("multiplier operands not restored")
    regs = list(regs)
    regs[target] = t
    return tuple(regs)


def swap_yt(regs, ctx: StepContext):
    return regs[X], regs[T], regs[Y]


def square_into_x(regs, ctx: StepContext, linear: bool, c: int):
    """x ^= y^2 (+ y) + c.  Squaring is GF(2)-linear (the cross terms of
    (u + v)^2 cancel), so the whole contribution is a fixed linear map of y."""
    x, y, t = regs
    x ^= field_sqr(y, ctx.field) ^ c
    if linear:
        x ^= y
    return x, y, t


def fold_x_into_y(regs, ctx: StepContext, c: int):
    return regs[X], regs[Y] ^ regs[X] ^ c, regs[T]


# x, y, 0 -> 1/x, y, 0 -> 1/x, y, y/x -> x, y, y/x -> x, 0, y/x -> x, y/x, 0
DIVIDE = ((invert_x,), (mul_acc, T, X, Y), (invert_x,), (mul_acc, Y, X, T), (swap_yt,))
MULTIPLY = DIVIDE[::-1]  # x, t, 0 -> x, t*x, 0


def run_arrow(arrow, regs, ctx: StepContext):
    """Run one arrow's steps.  Every arrow must leave t at 0, and one that
    inverts x must hand x back restored (both checked)."""
    x_in = regs[X]
    for op, *args in arrow:
        regs = op(regs, ctx, *args)
    if regs[T]:
        raise InvariantViolation("product scratch t not cleared")
    if regs[X] != x_in and any(op is invert_x for op, *_ in arrow):
        raise InvariantViolation("inversion passes failed to restore x")
    return regs


def plan_group_add(params: FixedPointParams) -> tuple[tuple[tuple, ...], ...]:
    """The curve kind's chain of arrows (x2 = alpha, y2 = beta, L the
    slope); each comment gives the registers after its arrow."""
    curve = params.curve
    alpha, beta = params.alpha, params.beta
    if curve.kind is CurveKind.NON_SUPERSINGULAR:
        return (
            ((xor_constants, alpha, beta),),  # x + alpha, y + beta
            DIVIDE,  # y = L
            ((square_into_x, True, alpha ^ curve.a),),  # x = x' + alpha
            MULTIPLY,  # y = L*(x' + alpha) = y' + x' + beta
            ((xor_constants, alpha, 0),),  # x = x'
            ((fold_x_into_y, beta),),  # y = y'
        )
    return (
        ((xor_constants, alpha, beta),),
        DIVIDE,  # y = L
        ((square_into_x, False, alpha),),  # x = x' + alpha
        MULTIPLY,  # y = L*(x' + alpha) = y' + beta + c
        ((xor_constants, alpha, beta ^ curve.c),),  # x', y'
    )


def execute_plan(chain, field: FieldSpec, x: int, y: int, backend: str = "naive") -> tuple[int, int]:
    """Run a chain of arrows over `field` on raw register values, t starting
    at 0; its arrows each reversed, in reverse order, run it backwards."""
    ctx = build_division_with_uncompute(field, backend)
    regs = (x, y, 0)
    for arrow in chain:
        regs = run_arrow(arrow, regs, ctx)
    return regs[X], regs[Y]


def simulate_group_add(s: CurvePoint, params: FixedPointParams, backend: str = "naive") -> CurvePoint:
    """Run the chain on one basis-state point; returns S + (alpha, beta).

    Only the generic case is implemented, so the identity, the fixed point
    itself, and its negative are rejected up front (all three share
    x = alpha, which would put a zero denominator under the slope).  A sum
    that shares x = alpha is met inside the plan: its multiply arrow gets
    the zero operand x' + alpha, so the slope cannot be uncomputed.
    """
    if s.is_infinity:
        raise NonGenericInput("the identity is outside the generic case")
    if not on_curve(s, params.curve):
        raise PointNotOnCurve(f"{s} not on the curve")
    if s.x == params.alpha:
        raise NonGenericInput("input shares the fixed point's x coordinate (doubling, "
                              "cancellation, or a repeated point)")
    try:
        x3, y3 = execute_plan(plan_group_add(params), params.curve.field, s.x, s.y, backend)
    except DivisionByZero as exc:
        raise NonGenericInput("the sum shares the fixed point's x coordinate, so the slope cannot "
                              "be uncomputed (output side of the generic-case check)") from exc
    return CurvePoint(x3, y3)


def generic_points(params: FixedPointParams) -> list[CurvePoint]:
    """All curve points the plan accepts: affine, x != alpha, and the sum
    itself affine with x != alpha (both ends of the chain need a nonzero
    slope denominator)."""
    fixed = CurvePoint(params.alpha, params.beta)
    return [
        p for p in enumerate_points(params.curve)
        if not p.is_infinity and p.x != params.alpha and ec_add(p, fixed, params.curve).x != params.alpha
    ]


def group_op_width(field: FieldSpec, backend: str = "naive") -> dict[str, int]:
    """Width audit: the assembled group operation needs the point registers,
    the slope/product scratch, and whichever Euclid inverter is driven,
    i.e. it is bounded by one division arrow: the naive inverter's built
    iteration's width, read off its layout without building it, or the opt
    one's qubit budget."""
    m = field.m
    if backend == "naive":
        inverter = sum(euclid_iteration_layout(m).values())
    elif backend == "opt":
        inverter = qubit_budget(m, halting_counter_width(m))
    else:
        raise ValueError(f"backend must be naive or opt, not {backend!r}")
    return {"point_registers": 2 * m, "product_scratch": m,
            "inverter_scratch": inverter - 2 * m, "total": m + inverter}
