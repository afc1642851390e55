"""Oracle checks, one implementation each: `revgf2 verify` and the
acceptance suite both call them.  A mismatch names its failing input in
MSB-first bit strings."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import blocks
from .circuit import MAX_LANE_BITS, check_permutation, run_lanes, sweep
from .curve import CurvePoint, ec_add
from .ecgroup import FixedPointParams, generic_points, simulate_group_add
from .field import FieldSpec, field_mul
from .naive import build_naive_long_division, run_naive_inversions
from .optimized import run_synchronized
from .poly import degree, format_poly, poly_divmod


@dataclass
class CheckResult:
    """One check's outcome: how many inputs it checked and which failed."""

    checked: int
    mismatches: list[str]
    flagged: int = 0  # opt inversion: fidelity-loss inputs, left out of the comparison
    skipped: list[str] = dc_field(default_factory=list)  # blocks over the lane bound


def check_blocks(m: int) -> CheckResult:
    """Every block in `blocks.BLOCKS`, sized from m, is a permutation, and
    the degree block gives deg(a) and restores a on every nonzero a.  A
    block wider than MAX_LANE_BITS is listed in `skipped`, not counted as
    checked."""
    mismatches, skipped = [], []
    L = blocks.log2_ceil(m)
    sizes = {"swap": (), "shiftl": (m + 1,), "shiftr": (m + 1,), "cshift": (m, L), "inc": (L,),
             "dec": (L,), "deg": (m,), "cxor": (m,), "mulacc": (m,)}
    for name, (build, _) in blocks.BLOCKS.items():
        built = build(*sizes[name])
        if built.width > MAX_LANE_BITS:
            skipped.append(name)
        elif not check_permutation(built):
            mismatches.append(f"{name}: not a permutation")
    run = sweep(blocks.build_degree(m), ("a",))
    for a, deg, out in zip(range(run.lanes), run.values("deg"), run.values("a")):
        if a and (deg != degree(a) or out != a):
            mismatches.append(f"deg: a={format_poly(a, m)}")
    return CheckResult(len(blocks.BLOCKS) - len(skipped) + (1 << m) - 1, mismatches, skipped=skipped)


def check_division(m: int, pairs: list[tuple[int, int]] | None = None) -> CheckResult:
    """The naive long division against poly_divmod, with its scratch back at
    0: on every pair a != 0 in one sweep, or on the given (a, b) pairs in
    one run, one lane each."""
    division = build_naive_long_division(m)
    scratch = ("s", "anc", "flg")
    if pairs is None:  # lane j holds a = j mod 2^m, b = j >> m
        run = sweep(division, ("a", "b"))
        lanes = zip(range(run.lanes), run.values("q"), run.values("b"), zip(*map(run.values, scratch)))
        results = ((j % (1 << m), j >> m, q, r, dirt) for j, q, r, dirt in lanes if j % (1 << m))
    else:
        run = run_lanes(division, {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]})
        outs = zip(run.values("q"), run.values("b"), zip(*map(run.values, scratch)))
        results = ((a, b, q, r, dirt) for (a, b), (q, r, dirt) in zip(pairs, outs))
    checked, mismatches = 0, []
    for a, b, q, r, dirt in results:
        checked += 1
        if (q, r) != poly_divmod(b, a) or any(dirt):
            mismatches.append(f"a={format_poly(a, m)} b={format_poly(b, m + 1)}")
    return CheckResult(checked, mismatches)


def check_inversion(field: FieldSpec, backend: str, inputs) -> CheckResult:
    """The naive or the synchronized ("opt") inverter: an output x for c
    passes when it is a field element with c * x = 1, which in a field only
    the inverse satisfies.  The naive backend runs the inputs as lanes of
    one run_naive_inversions call.  The opt backend runs all inputs under
    one run_synchronized schedule and counts fidelity-loss inputs (quotient
    over the bounded register) in `flagged` instead of comparing them."""
    inputs = list(inputs)
    if backend == "naive":
        results = [(c, inverse, False) for c, inverse in zip(inputs, run_naive_inversions(inputs, field))]
    elif backend == "opt":
        final = run_synchronized(inputs, field)
        results = [(c, final[c].inverse, final[c].quotient_overflow) for c in inputs]
    else:
        raise ValueError(f"backend must be naive or opt, not {backend!r}")
    mismatches = [
        format_poly(c, field.m)
        for c, got, lost in results
        if not lost and not (0 <= got < 1 << field.m and field_mul(c, got, field) == 1)
    ]
    return CheckResult(len(inputs), mismatches, flagged=sum(lost for _, _, lost in results))


def check_group_add(params: FixedPointParams, backend: str) -> CheckResult:
    """The group-add plan on the given Euclid backend against ec_add, on every
    generic point."""
    curve, m = params.curve, params.curve.field.m
    fixed = CurvePoint(params.alpha, params.beta)
    points = generic_points(params)
    mismatches = [
        f"({format_poly(s.x, m)},{format_poly(s.y, m)})"
        for s in points
        if simulate_group_add(s, params, backend) != ec_add(s, fixed, curve)
    ]
    return CheckResult(len(points), mismatches)
