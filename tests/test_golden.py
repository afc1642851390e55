"""Golden netlists: resource reports and SHA-256 digests of the emitted
netlists (gate order included), of two CLI traces and of the CLI's verify
reports, and the CLI's estimate report as a literal line.

A change that alters any of these circuits must update the pinned values
here on purpose, so gate-order changes stay visible in review.
"""

import hashlib

import pytest

from revgf2.blocks import build_controlled_shift, build_degree, build_mul_accumulate
from revgf2.circuit import emit_netlist, report
from revgf2.cli import main
from revgf2.field import default_field
from revgf2.naive import build_euclid_iteration, build_naive_long_division


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "naive-division-m8": (
        lambda: build_naive_long_division(8),
        {
            "width": 31, "depth": 199, "gates_total": 300, "gates_not": 1,
            "gates_cnot": 291, "gates_swap": 8, "cnot_arity_1": 118,
            "cnot_arity_2": 115, "cnot_arity_3": 14, "cnot_arity_4": 8,
            "cnot_arity_5": 8, "cnot_arity_6": 8, "cnot_arity_7": 8,
            "cnot_arity_8": 6, "cnot_arity_9": 4, "cnot_arity_10": 2,
        },
        "f007e867d27a55d79810c7c483c1435720d8d23279407fc912629ff906f282c7",
    ),
    "euclid-iteration-m16": (
        lambda: build_euclid_iteration(16),
        {
            "width": 89, "depth": 1069, "gates_total": 1708, "gates_not": 2,
            "gates_cnot": 1642, "gates_swap": 64, "cnot_arity_1": 652,
            "cnot_arity_2": 670, "cnot_arity_3": 12, "cnot_arity_4": 48,
            "cnot_arity_5": 20, "cnot_arity_6": 20, "cnot_arity_7": 20,
            "cnot_arity_8": 20, "cnot_arity_9": 20, "cnot_arity_10": 20,
            "cnot_arity_11": 20, "cnot_arity_12": 20, "cnot_arity_13": 20,
            "cnot_arity_14": 20, "cnot_arity_15": 20, "cnot_arity_16": 16,
            "cnot_arity_17": 12, "cnot_arity_18": 8, "cnot_arity_19": 4,
        },
        "f486e13685779ba6b60f16608ef1e9334eaf8c65f0642b4c3c0eef2e73fadebd",
    ),
    "degree-m8": (
        lambda: build_degree(8),
        {
            "width": 12, "depth": 29, "gates_total": 31, "gates_not": 3,
            "gates_cnot": 28, "gates_swap": 0, "cnot_arity_1": 1,
            "cnot_arity_2": 2, "cnot_arity_3": 3, "cnot_arity_4": 4,
            "cnot_arity_5": 4, "cnot_arity_6": 4, "cnot_arity_7": 4,
            "cnot_arity_8": 3, "cnot_arity_9": 2, "cnot_arity_10": 1,
        },
        "5e83e3acd83e4e8e71a740100638045e4f0a7184d50aa6f1253d134564f06194",
    ),
    "controlled-shift-n5-k3": (
        lambda: build_controlled_shift(5, 3),
        {
            "width": 8, "depth": 36, "gates_total": 36, "gates_not": 0,
            "gates_cnot": 36, "gates_swap": 0, "cnot_arity_1": 24,
            "cnot_arity_2": 12,
        },
        "c60150e30ed486729db7c79434254ce16b0865e454216cd82ebd81c359564f24",
    ),
    "mul-accumulate-m8": (
        lambda: build_mul_accumulate(default_field(8)),
        {
            "width": 24, "depth": 189, "gates_total": 204, "gates_not": 0,
            "gates_cnot": 106, "gates_swap": 98, "cnot_arity_1": 42,
            "cnot_arity_2": 64,
        },
        "e086e9ee03e617e378900a8e73cda62fe39b13c6eea99d7caa3c33c5c238b635",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_netlist(name):
    build, want_report, want_digest = GOLDEN[name]
    circuit = build()
    assert report(circuit).to_json() == want_report
    assert sha256(emit_netlist(circuit)) == want_digest


def test_golden_trace(capsys):
    assert main(["trace", "--element", "1011", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert sha256(out) == "adacc7b5eac213551c70a7b2843ec4ba4ae5b357734fd7fa1d39e8cefc416372"


def test_golden_division_trace(capsys):
    # the first-iteration stop of the --dividend mode
    assert main(["trace", "--element", "101", "--dividend", "10101", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert sha256(out) == "1bab79e85d9cb6b3c8f38cd2bf8fd2edeb9895a17c660320a673904a40be0940"


# argv -> stdout, pinned as its SHA-256, or literally where a reviewer
# should see the numbers move; ns and ss name curves in conftest.CURVES
CLI_REPORTS = {
    "verify naive-div --m 4": "1f9a215d929c5a988ca10717461ccbe6bc26549f7afc5db5f2fe5f28f594245f",
    "verify naive-div --m 6 --sample 50": "525bc64d4142ff89f52ea31f9090575e27357fb3a9c51511c830508f31d770d1",
    "verify blocks --m 4": "4b7b8c632751916b7f1f2657e9b8318a59733a8ebb197bb9583a7dc70c0adcdc",
    "verify naive-invert --m 5": "be869d3dd0dcddff42b873b5596fe74cb2dd941bd7651386d11fd1fa130d3b98",
    "verify opt-invert --m 8": "07fb916df8f290c68deed7e4ed450277296a71556a7dc82f0f9d5b52a3bdf1cc",
    "verify ec-add --curve ns": "ee52c3f7f1acf724a2758a401151247bff087ec5ddc0283cf051ca149d4a7306",
    "verify ec-add --curve ss --backend opt": "3e6fc42e5e8db13f0e97a7843fad4a32eaff19e6c02a3cdf8a2f7d9186f58630",
    "estimate --m 16": (
        '{"cycles": 30, "formula": 72, "formula_h0": 67, "halting_counter_width": 5, '
        '"layout_width": 72, "m": 16, "term c": 2, "term degA": 4, "term degB": 4, '
        '"term deg_anc": 4, "term dega": 4, "term degb": 4, "term f": 1, "term h": 5, '
        '"term q": 12, "term rAa": 16, "term rBb": 16}\n'
    ),
}


@pytest.mark.parametrize("command", sorted(CLI_REPORTS))
def test_golden_cli_report(command, curve_files, capsys):
    assert main([curve_files.get(word, word) for word in command.split()]) == 0
    out = capsys.readouterr().out
    assert CLI_REPORTS[command] in (out, sha256(out))
