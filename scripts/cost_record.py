"""Write BENCH_costs.json: the `report()` of the naive long division, the
Euclid iteration, the degree block and the controlled shift at every
m = 2..40, and of the division and the iteration at m = 163.

    PYTHONPATH=src python3 scripts/cost_record.py [--out BENCH_costs.json]

These builders take m alone, not a modulus, so one record serves every
field of each degree (`default_field(m)` at m = 2..40, z^163 + z^7 + z^6 +
z^3 + 1 at 163).  The record holds gate counts, depths and widths only, no
host or timing field, so it is the same on every machine; a tier-1 test
regenerates it and compares, and `git diff BENCH_costs.json` shows every
cost a change moves.  One line per circuit, keyed "<builder> m=<m>".
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from revgf2.blocks import build_controlled_shift, build_degree, log2_ceil
from revgf2.circuit import report
from revgf2.naive import build_euclid_iteration, build_naive_long_division

SIZES = range(2, 41)
LARGE = 163

BUILDERS = {
    "naive_long_division": build_naive_long_division,
    "euclid_iteration": build_euclid_iteration,
    "degree": build_degree,
    "controlled_shift": lambda m: build_controlled_shift(m, log2_ceil(m)),
}


def cost_record() -> dict[str, dict]:
    """Every circuit's `report().to_json()`, keyed "<builder> m=<m>"."""
    record = {f"{name} m={m}": report(build(m)).to_json() for name, build in BUILDERS.items() for m in SIZES}
    for name in ("naive_long_division", "euclid_iteration"):
        record[f"{name} m={LARGE}"] = report(BUILDERS[name](LARGE)).to_json()
    return record


def record_text(record: dict[str, dict]) -> str:
    """The record as JSON, one circuit per line, so a diff names each circuit that moved."""
    return "{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in record.items()) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_costs.json"))
    args = parser.parse_args(argv)
    args.out.write_text(record_text(cost_record()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
