import pytest

from revgf2 import verify
from revgf2.field import FieldSpec, field_invert
from revgf2.poly import format_poly

F16 = FieldSpec(4, 0b10011)


@pytest.mark.parametrize(
    "fault",
    [lambda x: x ^ 1, lambda x: x ^ F16.modulus],  # a wrong inverse; the inverse, unreduced
    ids=["wrong", "unreduced"],
)
def test_faulty_inverse_is_reported(fault, monkeypatch):
    monkeypatch.setattr(
        verify, "run_naive_inversions", lambda inputs, field: [fault(field_invert(c, field)) for c in inputs]
    )
    inputs = F16.nonzero_elements()
    result = verify.check_inversion(F16, "naive", inputs)
    assert result.checked == 15 and result.flagged == 0
    assert result.mismatches == [format_poly(c, 4) for c in inputs]

