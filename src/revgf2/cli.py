"""Command-line interface: synthesis, verification, estimation, tracing.

Commands print flat JSON reports (no timestamps, stable keys) so runs are
byte-reproducible.  Exit codes: 0 all checks pass, 1 verification found a
mismatch, 2 usage or configuration error.  Each `verify` target and each
`synth` block has its own sub-command that declares only the options it
reads, so any other option is a usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import blocks, optimized, verify
from .circuit import emit_netlist, report
from .curve import CurvePoint, ec_add, enumerate_points, load_curve
from .ecgroup import FixedPointParams, simulate_group_add
from .errors import BadParameter, RevGF2Error, ScopeTooLarge
from .field import FieldSpec, default_field, load_field
from .poly import format_poly, parse_poly

DEFAULT_SEED = 12345
EXHAUSTIVE_STATE_LIMIT = 1 << 20


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def _write(text: str, out: str | None):
    """`text` into the file `out`, or to stdout without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _point(text: str, option: str) -> CurvePoint:
    """A point from `option`'s value "x,y", both MSB-first bit strings."""
    parts = text.split(",")
    if len(parts) != 2:
        raise BadParameter(f"{option} takes a point as x,y, not {text!r}")
    return CurvePoint(parse_poly(parts[0]), parse_poly(parts[1]))


def _add_field_options(parser):
    """--m and --field, at most one of them."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--m", type=int)
    group.add_argument("--field")


def _field_from_args(args) -> FieldSpec:
    if args.field is not None:
        return load_field(args.field)
    if args.m is not None:
        return default_field(args.m)
    raise BadParameter("provide --field <file> or --m <degree>")


# --- synth -------------------------------------------------------------------


def cmd_synth(args) -> int:
    build, params = blocks.BLOCKS[args.block]
    built = build(*(getattr(args, name) for name in params))
    _write(emit_netlist(built), args.out)
    _emit(dict(report(built).to_json(), block=args.block))
    return 0


# --- estimate ----------------------------------------------------------------


def cmd_estimate(args) -> int:
    m = args.m
    if m < 2:
        raise BadParameter("estimate needs m >= 2")
    layout = optimized.machine_layout(m)
    H = layout["h"]
    payload = {
        "m": m,
        "cycles": optimized.default_cycles(m),
        "halting_counter_width": H,
        "formula_h0": optimized.qubit_budget(m, 0),
        "formula": optimized.qubit_budget(m, H),
        "layout_width": sum(layout.values()),
    }
    for register, width in layout.items():
        payload[f"term {register}"] = width
    _emit(payload)
    return 0 if payload["formula"] == payload["layout_width"] else 1


# --- trace -------------------------------------------------------------------


def cmd_trace(args) -> int:
    element = parse_poly(args.element)
    if args.dividend:
        if args.field is not None:
            raise BadParameter("trace --dividend takes --m, not --field")
        dividend = parse_poly(args.dividend)
        # trace_table rejects a zero dividend and any m below 2, --m 0 included
        m = args.m if args.m is not None else max(dividend.bit_length() - 1, 2)
        rows = optimized.trace_table(element, dividend, m, stop_after_first_iteration=True)
    else:
        field = _field_from_args(args)
        rows = optimized.trace_table(element, field.modulus, field.m)
    columns = ["op", "A", "B", "a", "b", "degA", "degB", "q", "f", "c", "h"]
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(str(row[c]) for c in columns))
    _write("\n".join(lines) + "\n", args.out)
    return 0


# --- verify ------------------------------------------------------------------


def _add_sample_options(parser):
    parser.add_argument("--sample", type=int)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _distinct_sample(args, draw, population: int) -> list:
    """`--sample` distinct seeded draws, at most the whole population."""
    if args.sample < 1:
        raise BadParameter(f"--sample must be positive, not {args.sample}")
    rng, picked = random.Random(args.seed), {}  # a dict keeps the draw order
    while len(picked) < min(args.sample, population):
        picked[draw(rng)] = None
    return list(picked)


def _scope(args, space: int):
    """Input sample for a verify sweep: everything, or a seeded sample."""
    if args.sample is not None:
        return _distinct_sample(args, lambda rng: rng.randrange(1, space), space - 1)
    if space > EXHAUSTIVE_STATE_LIMIT:
        raise ScopeTooLarge(f"{space} states exceed the exhaustive limit; use --sample <n>")
    return range(1, space)


def _verify_payload(target: str, result: verify.CheckResult, extra: dict) -> int:
    if not result.checked:
        raise BadParameter(f"verify {target} found no inputs to check")
    payload = {
        "target": target,
        "checked": result.checked,
        "mismatches": len(result.mismatches),
        "pass": not result.mismatches,
    }
    if result.mismatches:
        payload["counterexamples"] = result.mismatches[:10]
    payload.update(extra)
    _emit(payload)
    return 0 if not result.mismatches else 1


def _m_at_least(args, target: str, least: int) -> int:
    """--m; a value below `least` is a usage error."""
    if args.m < least:
        raise BadParameter(f"verify {target} needs --m >= {least}, not {args.m}")
    return args.m


def verify_blocks(args) -> int:
    m = _m_at_least(args, "blocks", 2)
    result = verify.check_blocks(m)
    return _verify_payload("blocks", result, {"m": m, "skipped": result.skipped})


def verify_naive_div(args) -> int:
    m = _m_at_least(args, "naive-div", 1)
    pairs = None  # every pair a != 0
    if args.sample is not None:
        pairs = _distinct_sample(
            args, lambda rng: (rng.randrange(1, 1 << m), rng.randrange(0, 1 << (m + 1))), ((1 << m) - 1) << (m + 1)
        )
    return _verify_payload("naive-div", verify.check_division(m, pairs), {"m": m})


def verify_inversion(args) -> int:
    field = _field_from_args(args)
    result = verify.check_inversion(field, args.backend, _scope(args, 1 << field.m))
    extra = {"m": field.m}
    if args.backend == "opt":  # an empty scope is refused in _verify_payload
        extra["quotient_bound_fraction"] = result.flagged / max(result.checked, 1)
    return _verify_payload(f"{args.backend}-invert", result, extra)


def verify_ec_add(args) -> int:
    curve = load_curve(args.curve)
    if args.fixed:
        fixed = _point(args.fixed, "--fixed")
    else:
        affine = [p for p in enumerate_points(curve) if not p.is_infinity]
        if not affine:
            raise BadParameter("curve has no affine points")
        fixed = affine[0]
    result = verify.check_group_add(FixedPointParams(curve, fixed.x, fixed.y), args.backend)
    extra = {"backend": args.backend, "m": curve.field.m, "kind": curve.kind.value}
    return _verify_payload("ec-add", result, extra)


# --- ec-add ------------------------------------------------------------------


def cmd_ec_add(args) -> int:
    curve = load_curve(args.curve)
    fixed, s = _point(args.fixed, "--fixed"), _point(args.point, "--point")
    result = simulate_group_add(s, FixedPointParams(curve, fixed.x, fixed.y), args.backend)
    want = ec_add(s, fixed, curve)
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
    block_parsers = p.add_subparsers(dest="block", required=True, metavar="block")
    for name, (_, params) in blocks.BLOCKS.items():
        b = block_parsers.add_parser(name, help=" ".join(f"--{param}" for param in params))
        for param in params:
            b.add_argument(f"--{param}", type=int, required=True)
        b.add_argument("--out")
        b.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="oracle-equivalence sweeps")
    targets = p.add_subparsers(dest="target", required=True, metavar="target")
    t = targets.add_parser("blocks", help="every block is a permutation; the degree block is exact")
    t.add_argument("--m", type=int, default=4)
    t.set_defaults(func=verify_blocks)
    t = targets.add_parser("naive-div", help="the long division against poly_divmod")
    t.add_argument("--m", type=int, default=4)
    _add_sample_options(t)
    t.set_defaults(func=verify_naive_div)
    for backend in ("naive", "opt"):
        t = targets.add_parser(f"{backend}-invert", help=f"the {backend} inverter: c * x = 1")
        _add_field_options(t)
        _add_sample_options(t)
        t.set_defaults(func=verify_inversion, backend=backend)
    t = targets.add_parser("ec-add", help="the group-add plan against ec_add on every generic point")
    t.add_argument("--curve", required=True)
    t.add_argument("--fixed", help="alpha,beta as MSB-first bit strings; default the first affine point")
    t.add_argument("--backend", choices=("naive", "opt"), default="naive")
    t.set_defaults(func=verify_ec_add)

    p = sub.add_parser("estimate", help="qubit budget for the optimized inverter")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("trace", help="step table of the synchronized machine")
    p.add_argument("--element", required=True, help="MSB-first bits of the input")
    _add_field_options(p)
    p.add_argument("--dividend", help="trace one long division of this dividend")
    p.add_argument("--out")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("ec-add", help="apply the group-operation plan to a point")
    p.add_argument("--curve", required=True)
    p.add_argument("--fixed", required=True, help="alpha,beta as MSB-first bit strings")
    p.add_argument("--point", required=True, help="x,y as MSB-first bit strings")
    p.add_argument("--backend", choices=("naive", "opt"), default="naive")
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
