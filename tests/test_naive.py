import subprocess
import sys
from pathlib import Path

import pytest

from revgf2 import naive
from revgf2.circuit import BasisState, Circuit, apply
from revgf2.errors import InvariantViolation, ZeroElement
from revgf2.field import FieldSpec
from revgf2.naive import build_euclid_iteration, euclid_iteration_layout, run_naive_inversion
from revgf2.poly import poly_divmod


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


def test_zero_rejected():
    with pytest.raises(ZeroElement):
        run_naive_inversion(0, FieldSpec(4, 0b10011))


def test_inversion_stops_after_m_minus_1_iterations(monkeypatch):
    # an iteration that does nothing never reaches A = 1; the inversion must
    # give up after the proven m - 1 iterations, having applied m of them
    m = 4
    calls = []
    monkeypatch.setattr(naive, "build_euclid_iteration", lambda m: Circuit(euclid_iteration_layout(m)))
    monkeypatch.setattr(naive, "apply", lambda circ, state: calls.append(1) or apply(circ, state))
    with pytest.raises(InvariantViolation, match="m - 1 = 3"):
        run_naive_inversion(0b101, FieldSpec(m, 0b10011))
    assert len(calls) == m


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
