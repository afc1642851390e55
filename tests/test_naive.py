import subprocess
import sys
from pathlib import Path

import pytest

from revgf2.circuit import BasisState, apply
from revgf2.errors import ZeroElement
from revgf2.field import FieldSpec, field_invert
from revgf2.naive import (
    EuclideanPairs,
    build_euclid_iteration,
    run_naive_inversion,
)
from revgf2.poly import poly_divmod

IRRED = {2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}


def test_iteration_swaps_pairs():
    m = 3
    circ = build_euclid_iteration(m)
    state = BasisState.from_values(circ.layout, ra=0b101, rb=0b1011, ka=1, kb=0)
    out = apply(circ, state)
    q, r = poly_divmod(0b1011, 0b101)
    assert out.get_reg("ra") == r
    assert out.get_reg("rb") == 0b101
    assert out.get_reg("ka") == q  # b + q*a with b=0, a=1
    assert out.get_reg("kb") == 1
    assert out.get_reg("q") == 0  # uncomputed


def test_inversion_oracle():
    for m, f in IRRED.items():
        fs = FieldSpec(m, f)
        for c in fs.nonzero_elements():
            assert run_naive_inversion(c, fs) == field_invert(c, fs)


def test_inversion_trace_invariants():
    fs = FieldSpec(4, 0b10011)
    for c in fs.nonzero_elements():
        trace: list[EuclideanPairs] = []
        run_naive_inversion(c, fs, trace=trace)
        for pairs in trace:
            pairs.check_invariants(fs.m)


def test_zero_rejected():
    with pytest.raises(ZeroElement):
        run_naive_inversion(0, FieldSpec(4, 0b10011))


def test_invariant_check_survives_python_O():
    # -O strips the assert in the script, so reaching the check proves asserts
    # are off; the invariant check must still raise its typed error.
    code = (
        "import sys\n"
        "from revgf2.errors import InvariantViolation\n"
        "from revgf2.naive import EuclideanPairs\n"
        "assert False, 'unreachable under -O'\n"
        "try:\n"
        "    EuclideanPairs(1, 0b111, 0, 0b11).check_invariants(2)\n"
        "except InvariantViolation:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
