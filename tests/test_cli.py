import argparse
import json
import random

import pytest

from revgf2 import verify
from revgf2.cli import build_parser, main


def last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out


def test_synth_swap(capsys):
    assert main(["synth", "swap"]) == 0
    payload, lines = last_json(capsys)
    assert payload["gates_cnot"] == 3 and payload["gates_total"] == 3
    assert sum(1 for l in lines if l.startswith("CNOT")) == 3


def test_synth_shift_netlist_file(tmp_path, capsys):
    out = tmp_path / "shift.net"
    assert main(["synth", "shiftl", "--n", "5", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("SWAP") == 4
    payload, _ = last_json(capsys)
    assert payload["gates_swap"] == 4


def test_synth_degree_width(capsys):
    assert main(["synth", "deg", "--m", "4"]) == 0
    payload, _ = last_json(capsys)
    assert payload["width"] == 6  # 4 + ceil(log 4)


def test_synth_unknown_block_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "frobnicate"])
    assert exc.value.code == 2


def test_estimate(capsys):
    assert main(["estimate", "--m", "16"]) == 0
    payload, _ = last_json(capsys)
    assert payload["cycles"] == 30  # 2m - 2
    assert payload["halting_counter_width"] == 5
    assert payload["formula"] == payload["layout_width"] == 72
    assert payload["formula_h0"] == 67
    # the naive Euclid iteration's report(), which the budget check ignores
    naive_cost = [payload[f"naive_iteration_{key}"] for key in ("width", "gates_total", "depth", "toffoli_depth")]
    assert naive_cost == [86, 1264, 228, 185]
    assert main(["estimate", "--m", "4"]) == 0
    payload, _ = last_json(capsys)
    assert payload["formula_h0"] == 29
    assert main(["estimate", "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert "estimate needs m >= 2" in captured.err and captured.out == ""


def test_verify_naive_div_exhaustive(capsys):
    assert main(["verify", "naive-div", "--m", "4"]) == 0
    payload, _ = last_json(capsys)
    assert payload["pass"] and payload["mismatches"] == 0
    assert payload["checked"] == 480  # 15 divisors x 32 dividends, no --sample


def test_verify_scope_too_large(capsys):
    for m in (11, 12):  # a sweeps m bits, b m + 1
        assert main(["verify", "naive-div", "--m", str(m)]) == 2
        captured = capsys.readouterr()
        assert f"{2 * m + 1} swept bits exceed the 22-bit lane bound; use --sample <n>" in captured.err
        assert captured.out == ""
    assert main(["verify", "naive-invert", "--m", "21"]) == 2
    captured = capsys.readouterr()
    assert f"{1 << 21} states exceed the exhaustive limit; use --sample <n>" in captured.err and captured.out == ""


def test_verify_opt_invert_sample(capsys):
    assert main(["verify", "opt-invert", "--m", "8", "--sample", "50"]) == 0
    payload, _ = last_json(capsys)
    assert payload["pass"] and payload["checked"] == 50
    assert payload["quotient_bound_fraction"] == 0.0  # the machine flags no m = 8 input


@pytest.mark.parametrize(
    "target, m, population",
    [("naive-invert", 4, 15), ("opt-invert", 4, 15), ("naive-div", 2, 3 * 8)],  # nonzero elements; (a != 0, b) pairs
)
def test_verify_sample_draws_distinct_inputs(target, m, population, capsys):
    assert main(["verify", target, "--m", str(m), "--sample", "50"]) == 0
    payload, _ = last_json(capsys)
    assert payload["pass"] and payload["checked"] == population


def test_verify_naive_div_sample_holds_pairs_packed(monkeypatch, capsys):
    # the distinct seeded draws (a, b), a before b, held as ints a << (m + 1) | b
    seen = []
    check_division = verify.check_division
    monkeypatch.setattr(verify, "check_division", lambda m, pairs: seen.append(pairs) or check_division(m, pairs))
    assert main(["verify", "naive-div", "--m", "6", "--sample", "50", "--seed", "9"]) == 0
    rng, want = random.Random(9), {}
    while len(want) < 50:
        want[rng.randrange(1, 1 << 6), rng.randrange(0, 1 << 7)] = None
    assert list(seen[0]) == list(want)
    assert seen[0].packed == [a << 7 | b for a, b in want]
    assert last_json(capsys)[0]["checked"] == 50


@pytest.mark.parametrize("target", ["naive-invert", "naive-div"])
@pytest.mark.parametrize("sample", ["0", "-3"])
def test_verify_sample_must_be_positive(target, sample, capsys):
    assert main(["verify", target, "--m", "4", "--sample", sample]) == 2
    captured = capsys.readouterr()
    assert "--sample must be positive" in captured.err and captured.out == ""


def test_verify_blocks_lists_skipped_blocks(capsys):
    assert main(["verify", "blocks", "--m", "8"]) == 0
    payload, _ = last_json(capsys)
    assert payload["pass"] and payload["skipped"] == ["mulacc"]  # 24 wires, over the lane bound
    # swap, shifts, cshift, inc, dec, deg (a != 0), cxor: one check per swept input
    assert payload["checked"] == 4 + 2 * 512 + 2048 + 2 * 16 + 255 + (1 << 17)
    assert main(["verify", "blocks", "--m", "5"]) == 0
    payload, _ = last_json(capsys)
    assert payload["skipped"] == [] and payload["checked"] == 35267


@pytest.mark.parametrize("target, m, least", [("blocks", "1", 2), ("blocks", "0", 2), ("naive-div", "0", 1)])
def test_verify_m_below_minimum_is_usage_error(target, m, least, capsys):
    assert main(["verify", target, "--m", m]) == 2
    captured = capsys.readouterr()
    assert f"verify {target} needs --m >= {least}, not {m}" in captured.err and captured.out == ""


def test_verify_ec_add_all_generic(curve_files, capsys):
    assert main(["verify", "ec-add", "--curve", curve_files["ns"]]) == 0
    payload, _ = last_json(capsys)
    assert payload["pass"] and payload["checked"] > 0


def test_ec_add_single_point(curve_files, capsys):
    from revgf2.curve import enumerate_points, load_curve
    from revgf2.ecgroup import FixedPointParams, generic_points
    from revgf2.poly import format_poly

    curve = load_curve(curve_files["ns"])
    fixed = [p for p in enumerate_points(curve) if not p.is_infinity][0]
    point = generic_points(FixedPointParams(curve, fixed.x, fixed.y))[0]
    argv = [
        "ec-add",
        "--curve",
        curve_files["ns"],
        "--fixed",
        f"{format_poly(fixed.x, 4)},{format_poly(fixed.y, 4)}",
        "--point",
        f"{format_poly(point.x, 4)},{format_poly(point.y, 4)}",
    ]
    assert main(argv) == 0
    payload, _ = last_json(capsys)
    assert payload["matches_oracle"]


def test_ec_add_needs_point(curve_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ec-add", "--curve", curve_files["ns"], "--fixed", "0001,0001"])
    assert exc.value.code == 2
    assert "--point" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["ec-add", "--curve", "ns", "--fixed", "0010,1111,1", "--point", "0001,0001"], "--fixed"),
        (["ec-add", "--curve", "ns", "--fixed", "0010,1111", "--point", "0001"], "--point"),
        (["verify", "ec-add", "--curve", "ns", "--fixed", "0010"], "--fixed"),
    ],
    ids=["three-parts", "one-part", "verify-one-part"],
)
def test_malformed_point_is_usage_error(argv, option, curve_files, capsys):
    code, captured = exit_code([curve_files.get(word, word) for word in argv], capsys)
    assert code == 2 and captured.out == ""
    assert f"{option} takes a point as x,y" in captured.err and "Traceback" not in captured.err


def test_trace_division(capsys):
    assert main(["trace", "--element", "101", "--dividend", "10101", "--m", "4"]) == 0
    out = capsys.readouterr().out
    rows = [line.split("\t") for line in out.strip().splitlines()]
    header = rows[0]
    final = dict(zip(header, rows[-1]))
    assert final["A"] == "1" and final["a"] == "100" and final["q"] == "0"


@pytest.mark.parametrize(
    "divisor, dividend, message",
    [
        ("10101", "101", "divisor degree exceeds the dividend's"),
        ("11", "11", "the division is exact"),  # a zero remainder never ends the division
    ],
)
def test_trace_division_rejects_unusable_pair(divisor, dividend, message, capsys):
    assert main(["trace", "--element", divisor, "--dividend", dividend, "--m", "4"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "divisor, dividend, message",
    [("0", "0", "divisor must be nonzero"), ("101", "0", "dividend must be nonzero")],
)
def test_trace_division_rejects_zero(divisor, dividend, message, capsys):
    assert main(["trace", "--element", divisor, "--dividend", dividend]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("divisor, dividend, m", [("101", "10101", "2"), ("11", "10", "1"), ("11", "111", "0")])
def test_trace_division_rejects_dividend_beyond_m(divisor, dividend, m, capsys):
    # the division must fit the machine's 2m - 2 round budget; --m 0 is not "absent"
    assert main(["trace", "--element", divisor, "--dividend", dividend, "--m", m]) == 2
    captured = capsys.readouterr()
    assert "needs m >= 2 and deg(dividend) <= m" in captured.err and captured.out == ""
    assert captured.err.rstrip().endswith(f"at m = {m}")


def test_trace_inversion_deterministic(capsys):
    assert main(["trace", "--element", "1011", "--m", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["trace", "--element", "1011", "--m", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second


# each gives a value its builder refuses, or no field at all
BAD_PARAMETER_CASES = [
    (["synth", "shiftl", "--n", "1"], "cyclic shift needs n >= 2"),
    (["synth", "cshift", "--n", "1", "--k", "1"], "controlled shift needs n >= 2 and k >= 1"),
    (["synth", "inc", "--w", "0"], "increment needs w >= 1"),
    (["synth", "dec", "--w", "0"], "decrement needs w >= 1"),
    (["synth", "cxor", "--m", "0"], "conditional xor needs m >= 1"),
    (["verify", "naive-invert"], "provide --field <file> or --m <degree>"),
]


@pytest.mark.parametrize("argv, message", BAD_PARAMETER_CASES, ids=[" ".join(a) for a, _ in BAD_PARAMETER_CASES])
def test_bad_parameter_is_usage_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["verify", "naive-invert"], ["verify", "opt-invert"], ["trace", "--element", "1011"]],
    ids=" ".join,
)
def test_field_file_matches_m(argv, tmp_path, capsys):
    # the file holds default_modulus(4), so it names the field --m 4 does
    field = tmp_path / "f4.field"
    field.write_text("m = 4\nmodulus = 10011\n")
    assert main([*argv, "--field", str(field)]) == 0
    from_file = capsys.readouterr()
    assert main([*argv, "--m", "4"]) == 0
    assert from_file.out == capsys.readouterr().out and from_file.err == ""


def test_bad_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.field"
    bad.write_text("m = 4\nmodulus = 10101\n")  # reducible
    assert main(["verify", "naive-invert", "--field", str(bad)]) == 2


def test_trace_element_outside_field_is_usage_error(capsys):
    assert main(["trace", "--element", "10011", "--m", "4"]) == 2
    captured = capsys.readouterr()
    assert "is not an element of GF(2^4)" in captured.err and captured.out == ""


def test_verify_nothing_to_check_is_usage_error(curve_files, capsys):
    assert main(["verify", "ec-add", "--curve", curve_files["ns-m2"]]) == 2
    captured = capsys.readouterr()
    assert "found no inputs to check" in captured.err and captured.out == ""


def test_verify_ec_add_on_a_curve_without_affine_points_is_usage_error(curve_files, capsys):
    assert main(["verify", "ec-add", "--curve", curve_files["ss-m1"]]) == 2
    captured = capsys.readouterr()
    assert "curve has no affine points" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, m",
    [
        (["verify", "naive-invert", "--m", "0"], 0),
        (["verify", "naive-invert", "--m", "-1"], -1),
        (["trace", "--element", "1", "--m", "-2"], -2),
        (["synth", "mulacc", "--m", "0"], 0),
    ],
)
def test_nonpositive_field_degree_is_usage_error(argv, m, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"field degree must be positive, not {m}" in captured.err and captured.out == ""


def exit_code(argv, capsys):
    """main's return code, or the code argparse exits with; and the output."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


# each names an option its command does not read, or omits one it needs;
# f4 is a GF(2^4) field file
UNREAD_OPTION_CASES = [
    (["verify", "naive-invert", "--m", "3", "--backend", "opt"], "unrecognized arguments: --backend opt"),
    (["verify", "blocks", "--sample", "2"], "unrecognized arguments: --sample 2"),
    (["verify", "ec-add", "--curve", "ns", "--sample", "3"], "unrecognized arguments: --sample 3"),
    (["verify", "naive-div", "--field", "f4"], "unrecognized arguments: --field"),
    (["verify", "naive-invert", "--m", "8", "--field", "f4"], "argument --field: not allowed with argument --m"),
    (["synth", "swap", "--m", "3"], "unrecognized arguments: --m 3"),
    (["trace", "--element", "101", "--dividend", "10101", "--field", "f4"], "--dividend takes --m, not --field"),
    (["verify", "ec-add"], "the following arguments are required: --curve"),
    (["synth", "cshift", "--n", "4"], "the following arguments are required: --k"),
]


@pytest.mark.parametrize("argv, message", UNREAD_OPTION_CASES, ids=[" ".join(a) for a, _ in UNREAD_OPTION_CASES])
def test_unread_or_missing_option_is_usage_error(argv, message, curve_files, tmp_path, capsys):
    field = tmp_path / "f4.field"
    field.write_text("m = 4\nmodulus = 10011\n")
    files = dict(curve_files, f4=str(field))
    code, captured = exit_code([files.get(word, word) for word in argv], capsys)
    assert code == 2 and message in captured.err and captured.out == ""
    assert "Traceback" not in captured.err


def command_paths(parser, path=()):
    """Every command, verify target and synth block, as an argv prefix."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from command_paths(sub, path + (name,))


def test_every_command_has_help(capsys):
    paths = list(command_paths(build_parser()))
    assert ("verify", "opt-invert") in paths and ("synth", "mulacc") in paths
    assert len(paths) == 1 + 5 + 5 + 9  # revgf2, its commands, verify targets, synth blocks
    for path in paths:
        code, captured = exit_code([*path, "--help"], capsys)
        assert code == 0 and captured.out.startswith("usage: revgf2")


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (["verify", "naive-invert", "--field"], "m = 4\n", "modulus"),
        (["verify", "ec-add", "--curve"], "m = 4\nmodulus = 10011\na = 10\nb = 1\n", "kind"),
    ],
    ids=["field", "curve"],
)
def test_config_missing_key_is_usage_error(argv, text, key, tmp_path, capsys):
    path = tmp_path / "incomplete.cfg"
    path.write_text(text)
    code, captured = exit_code([*argv, str(path)], capsys)
    assert code == 2 and captured.out == ""
    assert f"config file {path} lacks the key {key!r}" in captured.err
