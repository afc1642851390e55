"""Golden netlists: resource reports and SHA-256 digests of the emitted
netlists (gate order included), of two CLI traces and of the CLI's verify
reports, and the CLI's estimate report as a literal line.

A change that alters any of these circuits must update the pinned values
here on purpose, so gate-order changes stay visible in review.
"""

import hashlib

import pytest

from revgf2.blocks import (
    build_controlled_shift,
    build_decrement,
    build_degree,
    build_increment,
    build_mul_accumulate,
)
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
            "width": 31, "depth": 113, "gates_total": 242, "gates_not": 1,
            "gates_cnot": 241, "gates_swap": 0, "cnot_arity_1": 129,
            "cnot_arity_2": 102, "cnot_arity_3": 8, "cnot_arity_4": 2,
        },
        "a5db78e8d447c517673b56aad5e4be96812c240a707c6037dd14d324935604ec",
    ),
    "euclid-iteration-m16": (
        lambda: build_euclid_iteration(16),
        {
            "width": 88, "depth": 583, "gates_total": 1392, "gates_not": 2,
            "gates_cnot": 1358, "gates_swap": 32, "cnot_arity_1": 690,
            "cnot_arity_2": 628, "cnot_arity_4": 36, "cnot_arity_8": 4,
        },
        "5ea3cd74f4e0556a66db0c366b97a8d845e70411d30134baecc2e4e669f5d575",
    ),
    "degree-m8": (
        lambda: build_degree(8),
        {
            "width": 11, "depth": 55, "gates_total": 108, "gates_not": 3,
            "gates_cnot": 105, "gates_swap": 0, "cnot_arity_1": 69,
            "cnot_arity_2": 35, "cnot_arity_4": 1,
        },
        "d9e069bd8e09fe823073e90a06e2f45ec9cbb40a90695528338012c5fa44d1ff",
    ),
    "increment-w3": (
        lambda: build_increment(3),
        {
            "width": 4, "depth": 4, "gates_total": 4, "gates_not": 1,
            "gates_cnot": 3, "gates_swap": 0, "cnot_arity_1": 1,
            "cnot_arity_2": 1, "cnot_arity_3": 1,
        },
        "04b640d653206ffcba8b858c50abf595d2b210d41f39c2e7132698a2b2d16b87",
    ),
    "decrement-w3": (
        lambda: build_decrement(3),
        {
            "width": 4, "depth": 4, "gates_total": 4, "gates_not": 1,
            "gates_cnot": 3, "gates_swap": 0, "cnot_arity_1": 1,
            "cnot_arity_2": 1, "cnot_arity_3": 1,
        },
        "eb9245d7c1663e00e9d816b6577a24758675d87f7924d0093542579681bcf206",
    ),
    "controlled-shift-n5-k3": (
        lambda: build_controlled_shift(5, 3),
        {
            "width": 8, "depth": 24, "gates_total": 36, "gates_not": 0,
            "gates_cnot": 36, "gates_swap": 0, "cnot_arity_1": 24,
            "cnot_arity_2": 12,
        },
        "a6ade3b118b03444918a3479fe1d25abe5dd36d43bdb72b23f205ebfcc73e101",
    ),
    "mul-accumulate-m8": (
        lambda: build_mul_accumulate(default_field(8)),
        {
            "width": 24, "depth": 78, "gates_total": 106, "gates_not": 0,
            "gates_cnot": 106, "gates_swap": 0, "cnot_arity_1": 42,
            "cnot_arity_2": 64,
        },
        "6c7ed2a464fd3e0b0cc204975788e5f73fa9d3bb7a36da556104ad7070209048",
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
    "verify blocks --m 4": "da754a8ceea545e4f048252e4b11c3a1a7aaffa9b5e560f0ac3a1741e061dcad",
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
