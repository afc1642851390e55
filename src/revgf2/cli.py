"""Command-line interface: synthesis, verification, estimation, tracing.

Commands print flat JSON reports (no timestamps, stable keys) so runs are
byte-reproducible.  Exit codes: 0 all checks pass, 1 verification found a
mismatch, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import blocks, naive, optimized
from .circuit import BasisState, apply, check_permutation, emit_netlist, report
from .curve import CurvePoint, ec_add, enumerate_points, load_curve
from .ecgroup import FixedPointParams, generic_points, simulate_group_add
from .errors import (
    BadParameter,
    RevGF2Error,
    ScopeTooLarge,
    UnknownBlock,
)
from .field import FieldSpec, default_field, field_invert, load_field
from .poly import degree, format_poly, parse_poly, poly_divmod

DEFAULT_SEED = 12345
EXHAUSTIVE_STATE_LIMIT = 1 << 20
PERMUTATION_CHECK_WIDTH = 16  # verify blocks skips the permutation check above this


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def _field_from_args(args) -> FieldSpec:
    if getattr(args, "field", None):
        return load_field(args.field)
    if getattr(args, "m", None):
        return default_field(args.m)
    raise BadParameter("provide --field <file> or --m <degree>")


# --- synth -------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.block not in blocks.BLOCK_BUILDERS:
        raise UnknownBlock(f"no builder named {args.block!r}")
    params = {}
    for key in ("m", "n", "k", "w"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if args.block == "mulacc":
        if "m" not in params:
            raise BadParameter("mulacc needs --m")
        params["field"] = default_field(params["m"])
    try:
        built = blocks.BLOCK_BUILDERS[args.block](params)
    except KeyError as missing:
        raise BadParameter(f"block {args.block!r} needs parameter {missing}") from None
    text = emit_netlist(built)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _emit(dict(report(built).to_json(), block=args.block))
    return 0


# --- estimate ----------------------------------------------------------------


def cmd_estimate(args) -> int:
    m = args.m
    if m < 2:
        raise BadParameter("estimate needs m >= 2")
    cycles = args.cycles if args.cycles else optimized.default_cycles(m)
    H = optimized.halting_counter_width(m, cycles)
    layout = optimized.machine_layout(m, H)
    payload = {
        "m": m,
        "cycles": cycles,
        "halting_counter_width": H,
        "formula_h0": optimized.qubit_budget(m, 0),
        "formula": optimized.qubit_budget(m, H),
        "layout_width": sum(layout.values()),
    }
    for term, width in optimized.budget_breakdown(m, H).items():
        payload[f"term {term}"] = width
    _emit(payload)
    return 0 if payload["formula"] == payload["layout_width"] else 1


# --- trace -------------------------------------------------------------------


def cmd_trace(args) -> int:
    if args.dividend:
        divisor = parse_poly(args.element)
        dividend = parse_poly(args.dividend)
        if divisor == 0:
            raise BadParameter("divisor must be nonzero")
        if degree(divisor) > degree(dividend):
            raise BadParameter("divisor degree exceeds the dividend's; nothing to divide")
        if poly_divmod(dividend, divisor)[1] == 0:
            raise BadParameter(
                "the division is exact; a zero remainder never reaches an iteration boundary"
            )
        m = args.m or max(degree(dividend), 2)
        rows = optimized.trace_table(divisor, dividend, m, stop_after_first_iteration=True)
    else:
        field = _field_from_args(args)
        element = parse_poly(args.element)
        rows = optimized.trace_table(element, field.modulus, field.m)
    columns = ["op", "A", "B", "a", "b", "degA", "degB", "q", "f", "c", "h"]
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(str(row[c]) for c in columns))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --- verify ------------------------------------------------------------------


def _scope(args, space: int):
    """Input sample for a verify sweep: everything, or a seeded sample."""
    if args.sample:
        rng = random.Random(args.seed)
        return [rng.randrange(1, space) for _ in range(args.sample)]
    if space > EXHAUSTIVE_STATE_LIMIT:
        raise ScopeTooLarge(
            f"{space} states exceed the exhaustive limit; use --sample <n>"
        )
    return range(1, space)


def _verify_payload(target: str, checked: int, mismatches: list, extra: dict | None = None):
    payload = {
        "target": target,
        "checked": checked,
        "mismatches": len(mismatches),
        "pass": not mismatches,
    }
    if mismatches:
        payload["counterexamples"] = mismatches[:10]
    if extra:
        payload.update(extra)
    _emit(payload)
    return 0 if not mismatches else 1


def verify_blocks(args) -> int:
    """Exhaustive permutation/oracle checks over every builder at small sizes."""
    m = args.m or 4
    mismatches = []
    skipped = []
    field = default_field(m)
    for name, params in [
        ("swap", {}),
        ("shiftl", {"n": m + 1}),
        ("shiftr", {"n": m + 1}),
        ("cshift", {"n": m, "k": blocks.log2_ceil(m)}),
        ("inc", {"w": blocks.log2_ceil(m)}),
        ("dec", {"w": blocks.log2_ceil(m)}),
        ("deg", {"m": m}),
        ("cxor", {"m": m}),
        ("mulacc", {"field": field}),
    ]:
        built = blocks.BLOCK_BUILDERS[name](params)
        if built.width > PERMUTATION_CHECK_WIDTH:
            skipped.append(name)
        elif not check_permutation(built):
            mismatches.append(f"{name}: not a permutation")
    # spot oracle checks
    deg_c = blocks.build_degree(m)
    for a in range(1, 1 << m):
        out = apply(deg_c, BasisState.from_values(deg_c.layout, a=a))
        if out.get_reg("deg") != degree(a) or out.get_reg("anc") != 0:
            mismatches.append(f"deg: a={format_poly(a, m)}")
    checked = 9 - len(skipped) + (1 << m) - 1
    return _verify_payload("blocks", checked, mismatches, {"m": m, "skipped": skipped})


def verify_naive_div(args) -> int:
    m = args.m or 4
    division = naive.build_naive_long_division(m)
    rng = random.Random(args.seed)
    if args.sample:
        pairs = [
            (rng.randrange(1, 1 << m), rng.randrange(0, 1 << (m + 1)))
            for _ in range(args.sample)
        ]
    else:
        space = ((1 << m) - 1) * (1 << (m + 1))
        if space > EXHAUSTIVE_STATE_LIMIT:
            raise ScopeTooLarge(f"{space} divisor/dividend pairs; use --sample")
        pairs = [(a, b) for a in range(1, 1 << m) for b in range(1 << (m + 1))]
    mismatches = []
    for a, b in pairs:
        out = apply(division, BasisState.from_values(division.layout, a=a, b=b))
        q, r = poly_divmod(b, a)
        if (out.get_reg("q"), out.get_reg("b")) != (q, r) or any(
            out.get_reg(s) for s in ("s", "anc", "flg")
        ):
            mismatches.append(f"a={format_poly(a, m)} b={format_poly(b, m + 1)}")
    return _verify_payload("naive-div", len(pairs), mismatches, {"m": m})


def verify_naive_invert(args) -> int:
    field = _field_from_args(args)
    inputs = _scope(args, 1 << field.m)
    mismatches = []
    for c in inputs:
        if naive.run_naive_inversion(c, field) != field_invert(c, field):
            mismatches.append(format_poly(c, field.m))
    return _verify_payload("naive-invert", len(list(inputs)), mismatches, {"m": field.m})


def verify_opt_invert(args) -> int:
    field = _field_from_args(args)
    inputs = list(_scope(args, 1 << field.m))
    traces = optimized.run_synchronized(inputs, field, args.cycles or None)
    mismatches = []
    flagged = 0
    for c in inputs:
        tr = traces[c]
        if tr.quotient_overflow:
            flagged += 1  # fidelity-loss inputs are excluded from the verified set
            continue
        if tr.inverse != field_invert(c, field):
            mismatches.append(format_poly(c, field.m))
    extra = {"m": field.m, "quotient_bound_fraction": flagged / len(inputs)}
    return _verify_payload("opt-invert", len(inputs), mismatches, extra)


def verify_ec_add(args) -> int:
    curve = load_curve(args.curve)
    if args.fixed:
        ax, ay = args.fixed.split(",")
        fixed = CurvePoint(parse_poly(ax), parse_poly(ay))
    else:
        affine = [p for p in enumerate_points(curve) if not p.is_infinity]
        if not affine:
            raise BadParameter("curve has no affine points")
        fixed = affine[0]
    params = FixedPointParams(curve, fixed.x, fixed.y)
    mismatches = []
    points = generic_points(params)
    for s in points:
        got = simulate_group_add(s, params, args.backend)
        want = ec_add(s, fixed, curve)
        if got != want:
            mismatches.append(f"({format_poly(s.x, curve.field.m)},{format_poly(s.y, curve.field.m)})")
    extra = {"backend": args.backend, "m": curve.field.m, "kind": curve.kind.value}
    return _verify_payload("ec-add", len(points), mismatches, extra)


VERIFY_TARGETS = {
    "blocks": verify_blocks,
    "naive-div": verify_naive_div,
    "naive-invert": verify_naive_invert,
    "opt-invert": verify_opt_invert,
    "ec-add": verify_ec_add,
}


def cmd_verify(args) -> int:
    return VERIFY_TARGETS[args.target](args)


# --- ec-add ------------------------------------------------------------------


def cmd_ec_add(args) -> int:
    if args.all_generic:
        return verify_ec_add(args)
    curve = load_curve(args.curve)
    ax, ay = args.fixed.split(",")
    px, py = args.point.split(",")
    params = FixedPointParams(curve, parse_poly(ax), parse_poly(ay))
    s = CurvePoint(parse_poly(px), parse_poly(py))
    result = simulate_group_add(s, params, args.backend)
    want = ec_add(s, CurvePoint(params.alpha, params.beta), curve)
    m = curve.field.m
    _emit(
        {
            "x": format_poly(result.x, m),
            "y": format_poly(result.y, m),
            "matches_oracle": result == want,
            "backend": args.backend,
        }
    )
    return 0 if result == want else 1


# --- argument plumbing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revgf2",
        description="Reversible GF(2^m) Euclid/EC circuit synthesis and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build a block and emit its netlist")
    p.add_argument("block", choices=sorted(blocks.BLOCK_BUILDERS))
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="oracle-equivalence sweeps")
    p.add_argument("target", choices=sorted(VERIFY_TARGETS))
    p.add_argument("--m", type=int)
    p.add_argument("--field")
    p.add_argument("--curve")
    p.add_argument("--fixed")
    p.add_argument("--backend", choices=("naive", "opt"), default="naive")
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--cycles", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="qubit budget for the optimized inverter")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cycles", type=int)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("trace", help="step table of the synchronized machine")
    p.add_argument("--element", required=True, help="MSB-first bits of the input")
    p.add_argument("--m", type=int)
    p.add_argument("--field")
    p.add_argument("--dividend", help="trace one long division of this dividend")
    p.add_argument("--out")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("ec-add", help="apply the group-operation plan to a point")
    p.add_argument("--curve", required=True)
    p.add_argument("--fixed", help="alpha,beta as MSB-first bit strings")
    p.add_argument("--point", help="x,y as MSB-first bit strings")
    p.add_argument("--backend", choices=("naive", "opt"), default="naive")
    p.add_argument("--all-generic", action="store_true")
    p.set_defaults(func=cmd_ec_add)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RevGF2Error, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
