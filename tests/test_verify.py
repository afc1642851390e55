import pytest

from revgf2 import blocks, circuit, verify
from revgf2.circuit import Circuit, cnot, gate_not, register_wires
from revgf2.cli import main
from revgf2.curve import CurvePoint, enumerate_points, load_curve
from revgf2.ecgroup import FixedPointParams, generic_points
from revgf2.errors import BadParameter
from revgf2.field import FieldSpec, field_invert
from revgf2.poly import format_poly, poly_divmod

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


def test_inversion_check_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend must be naive or opt, not 'bogus'"):
        verify.check_inversion(F16, "bogus", [1])


def test_wrong_group_add_is_reported(curve_files, monkeypatch, capsys):
    # the plan hands every point back unchanged, which is never S + (alpha, beta)
    monkeypatch.setattr(verify, "simulate_group_add", lambda s, params, backend: CurvePoint(s.x, s.y))
    curve = load_curve(curve_files["ns"])
    fixed = [p for p in enumerate_points(curve) if not p.is_infinity][0]  # the CLI's default
    params = FixedPointParams(curve, fixed.x, fixed.y)
    points = generic_points(params)
    result = verify.check_group_add(params, "opt")
    assert result.checked == len(points) > 0
    assert result.mismatches == [f"({format_poly(s.x, 4)},{format_poly(s.y, 4)})" for s in points]
    assert main(["verify", "ec-add", "--curve", curve_files["ns"], "--backend", "opt"]) == 1
    assert f'"mismatches": {len(points)}' in capsys.readouterr().out


def test_division_that_corrupts_the_divisor_is_reported(monkeypatch, capsys):
    build = verify.build_naive_long_division

    def corrupting(m):
        """The division, then a CNOT from the remainder's bit 0 onto a[m - 1]."""
        division = build(m)
        return Circuit(division.layout, [*division.gates, cnot([(("b", 0), 1)], ("a", m - 1))], division.restores)

    monkeypatch.setattr(verify, "build_naive_long_division", corrupting)
    result = verify.check_division(4)
    # q, the remainder and the scratch are right; a is wrong wherever b mod a has bit 0 set
    odd = [(a, b) for b in range(32) for a in range(1, 16) if poly_divmod(b, a)[1] & 1]
    assert result.checked == 480 and len(odd) == 224
    assert result.mismatches == [f"a={format_poly(a, 4)} b={format_poly(b, 5)}" for a, b in odd]
    assert verify.check_division(4, [(0b101, 0b10101)]).mismatches == ["a=0101 b=10101"]
    assert main(["verify", "naive-div", "--m", "4"]) == 1
    assert '"mismatches": 224' in capsys.readouterr().out


def test_degree_block_that_leaves_a_rotated_is_reported(monkeypatch):
    build_degree = blocks.build_degree

    def without_rotate_back(m):
        """The degree block without its step that rotates a back."""
        full = build_degree(m)
        deg = register_wires("deg", blocks.log2_ceil(m))
        start = len(blocks.normalize_gates("a", m, deg))
        end = start + len(blocks.controlled_rotation_gates("a", m, deg, "right"))
        return Circuit(full.layout, full.gates[:start] + full.gates[end:], full.restores)

    monkeypatch.setitem(blocks.BLOCKS, "deg", (without_rotate_back, ("m",)))
    m = 4
    # deg is still right; a stays rotated left by its leading-zero count
    assert verify.check_blocks(m).mismatches == [f"deg: a={format_poly(a, m)}" for a in range(1, 1 << (m - 1))]


@pytest.mark.parametrize("flipped", [("ctl", 0), ("a", 3)], ids=["ctl", "a"])
def test_conditional_xor_that_changes_an_operand_is_reported(flipped, monkeypatch):
    build = blocks.build_conditional_xor

    def changing(m):
        """The conditional xor, then a CNOT from b's new bit 0 onto an operand wire."""
        cxor = build(m)
        return Circuit(cxor.layout, [*cxor.gates, cnot([(("b", 0), 1)], flipped)], cxor.restores)

    monkeypatch.setitem(blocks.BLOCKS, "cxor", (changing, ("m",)))
    # b is right in every lane; only the declaration that cxor restores ctl and a sees the change
    changed = [(ctl, a, b) for b in range(16) for a in range(16) for ctl in range(2) if (b ^ a * ctl) & 1]
    assert verify.check_blocks(4).mismatches == [
        f"cxor: ctl={ctl} a={format_poly(a, 4)} b={format_poly(b, 4)}" for ctl, a, b in changed
    ]


def test_division_pair_with_a_zero_divisor_is_rejected_before_any_run(monkeypatch):
    monkeypatch.setattr(verify, "build_naive_long_division", lambda m: pytest.fail("the division was built"))
    with pytest.raises(BadParameter, match=r"\(a, b\) = \(0, 5\) divides by a = 0"):
        verify.check_division(4, [(0b11, 1), (0, 5)])


@pytest.mark.parametrize("pair, message", [
    ((1, 64), r"\(a, b\) = \(1, 64\) does not fit: b has 5 bits"),
    ((16, 3), r"\(a, b\) = \(16, 3\) does not fit: a has 4 bits"),
])
def test_division_pair_wider_than_its_register_is_rejected(pair, message):
    with pytest.raises(BadParameter, match=message):
        verify.check_division(4, [pair])


def test_division_pairs_past_the_lane_bound_run_in_windows(monkeypatch, capsys):
    def off_where_b_is_odd(b, a):
        """poly_divmod with the quotient's bit 0 flipped wherever b is odd."""
        q, r = poly_divmod(b, a)
        return q ^ b & 1, r

    monkeypatch.setattr(verify, "poly_divmod", off_where_b_is_odd)
    pairs = [(a, 3 * a) for a in range(1, 10)]
    whole = verify.check_division(4, pairs)  # one window
    assert whole.checked == 9
    assert whole.mismatches == [f"a={format_poly(a, 4)} b={format_poly(b, 5)}" for a, b in pairs if b & 1]
    runs = []
    run_lanes = verify.run_lanes
    monkeypatch.setattr(verify, "run_lanes", lambda c, values: runs.append(len(values["a"])) or run_lanes(c, values))
    for module in (verify, circuit):
        monkeypatch.setattr(module, "MAX_LANE_BITS", 2)
    assert verify.check_division(4, pairs) == whole
    assert runs == [4, 4, 1]
    monkeypatch.setattr(verify, "poly_divmod", poly_divmod)
    assert main(["verify", "naive-div", "--m", "4", "--sample", "9"]) == 0
    assert '"checked": 9' in capsys.readouterr().out and runs[3:] == [4, 4, 1]


# blocks that compute the wrong thing but still permute their basis states,
# with the number of check_blocks(4) inputs each gets wrong
WRONG_BLOCKS = {
    "shiftl": (lambda n: Circuit({"r": n}), 30),  # no gates: only r = 0 and r = 2^5 - 1 rotate to themselves
    "inc": (lambda w: Circuit({"k": w, "anc": 1}, [gate_not(("k", 0))]), 4),  # wrong wherever k0 = 1 carries
    # no gates, operands restored as the multiplier declares: wrong wherever x * y != 0
    "mulacc": (lambda m: Circuit({"x": m, "y": m, "t": m}, (), ("x", "y")), 15 * 15 * 16),
}


@pytest.mark.parametrize("name", sorted(WRONG_BLOCKS))
def test_block_that_computes_the_wrong_thing_is_reported(name, monkeypatch, capsys):
    build, wrong = WRONG_BLOCKS[name]
    monkeypatch.setitem(blocks.BLOCKS, name, (build, blocks.BLOCKS[name][1]))
    mismatches = verify.check_blocks(4).mismatches
    assert len(mismatches) == wrong and all(line.startswith(f"{name}: ") for line in mismatches)
    assert main(["verify", "blocks", "--m", "4"]) == 1
    assert f'"mismatches": {wrong}' in capsys.readouterr().out
