"""Oracle checks, one implementation each: `revgf2 verify` and the
acceptance suite both call them.  A mismatch names its failing input in
MSB-first bit strings."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

from . import blocks
from .circuit import MAX_LANE_BITS, Circuit, Sweep, lane_values, run_lanes, sweep
from .curve import CurvePoint, ec_add
from .ecgroup import FixedPointParams, generic_points, simulate_group_add
from .errors import BadParameter
from .field import FieldSpec, default_field, field_mul
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


def _compare(result: CheckResult, circuit: Circuit, run: Sweep, registers, expect, prefix: str = "") -> CheckResult:
    """Add each lane of `run`, a run of `circuit`, to `result`: it fails if a
    register the circuit restores changed, or if the others, in layout order,
    differ from `expect` of its `registers`, which is None outside the domain
    (not checked).  A failure names `prefix` and the lane's `registers`."""
    outputs = [r for r in circuit.layout if r not in circuit.restores]
    inputs = zip(*(lane_values(run.before[r], run.lanes) for r in registers))
    got = zip(lane_values([run.changed(circuit.restores)], run.lanes), zip(*map(run.values, outputs)))
    for values, (changed, out) in zip(inputs, got):
        want = expect(*values)
        if want is None:
            continue
        result.checked += 1
        if changed or out != want:
            named = (f"{r}={format_poly(v, circuit.layout[r])}" for r, v in zip(registers, values))
            result.mismatches.append(prefix + " ".join(named))
    return result


def check_blocks(m: int) -> CheckResult:
    """Every block in `blocks.BLOCKS`, sized from m, against its oracle.  Its
    `table` row holds the sizes, the registers one sweep runs through, and an
    oracle for the registers the block does not restore (None outside the
    domain: the degree block's a = 0).  `checked` counts (block, input) pairs.
    A block whose swept registers exceed MAX_LANE_BITS is `skipped`."""
    L, n, field = blocks.log2_ceil(m), m + 1, default_field(m)
    rot = lambda v, w, d: (v << d % w | v >> w - d % w) & ((1 << w) - 1)  # left by d, right for d < 0
    count = lambda k, anc, d: divmod(((k | anc << L) + d) % (2 << L), 1 << L)[::-1]  # k | anc << L, plus d, wrapped
    table = {
        "swap": ((), ("q",), lambda q: (q >> 1 | (q & 1) << 1,)),
        "shiftl": ((n,), ("r",), lambda r: (rot(r, n, 1),)),
        "shiftr": ((n,), ("r",), lambda r: (rot(r, n, -1),)),
        "cshift": ((m, L), ("data", "shift"), lambda data, shift: (rot(data, m, shift),)),
        "inc": ((L,), ("k", "anc"), lambda k, anc: count(k, anc, 1)),
        "dec": ((L,), ("k", "anc"), lambda k, anc: count(k, anc, -1)),
        "deg": ((m,), ("a",), lambda a: (degree(a),) if a else None),
        "cxor": ((m,), ("ctl", "a", "b"), lambda ctl, a, b: (b ^ a * ctl,)),
        "mulacc": ((m,), ("x", "y", "t"), lambda x, y, t: (t ^ field_mul(x, y, field),)),
    }
    result = CheckResult(0, [])
    for name, (build, _) in blocks.BLOCKS.items():
        sizes, swept, expect = table[name]
        built = build(*sizes)
        if sum(built.layout[r] for r in swept) > MAX_LANE_BITS:
            result.skipped.append(name)
        else:
            _compare(result, built, sweep(built, swept), swept, expect, f"{name}: ")
    return result


def check_division(m: int, pairs: Sequence[tuple[int, int]] | None = None) -> CheckResult:
    """The naive long division against poly_divmod's (q, r), reversed to the
    layout order of b and q, with a and the scratch restored: on every pair
    a != 0 in one sweep, or on given pairs, each a != 0 and each value
    within its register, one lane each, in runs of at most 2^MAX_LANE_BITS
    lanes.  A run's a and b columns are read from `pairs` only when it
    starts, so `pairs` may be a view that makes each pair on access."""
    for pair in pairs or ():
        if pair[0] == 0:
            raise BadParameter(f"the pair (a, b) = {pair} divides by a = 0")
    division = build_naive_long_division(m)
    for pair in pairs or ():
        for name, value in zip(("a", "b"), pair):
            width = division.layout[name]
            if not 0 <= value < 1 << width:
                raise BadParameter(f"the pair (a, b) = {pair} does not fit: {name} has {width} bits")
    result = CheckResult(0, [])
    expect = lambda a, b: poly_divmod(b, a)[::-1] if a else None
    if pairs is None:
        return _compare(result, division, sweep(division, ("a", "b")), ("a", "b"), expect)
    lanes = 1 << MAX_LANE_BITS
    for start in range(0, len(pairs), lanes):
        part = range(start, min(start + lanes, len(pairs)))
        run = run_lanes(division, {"a": [pairs[i][0] for i in part], "b": [pairs[i][1] for i in part]})
        _compare(result, division, run, ("a", "b"), expect)
    return result


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
