"""Golden netlists: resource reports and SHA-256 digests of the emitted
netlists (gate order included), of the simulator's generated kernel source,
of two CLI traces and of the CLI's verify reports, and the CLI's estimate
report as a literal line.

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
from revgf2 import circuit as circuit_module
from revgf2.circuit import Circuit, emit_netlist, report
from revgf2.cli import main
from revgf2.field import default_field
from revgf2.naive import build_euclid_iteration, build_naive_long_division


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "naive-division-m8": (
        lambda: build_naive_long_division(8),
        {
            "width": 31, "depth": 72, "toffoli_depth": 59, "gates_total": 242, "gates_not": 1,
            "gates_cnot": 241, "gates_swap": 0, "cnot_arity_1": 129,
            "cnot_arity_2": 102, "cnot_arity_3": 8, "cnot_arity_4": 2,
        },
        "0e088d6c0da30e8d87b6abd848f19200d4340be2c7e38b90163cbac56b758d4e",
    ),
    "euclid-iteration-m16": (
        lambda: build_euclid_iteration(16),
        {
            "width": 86, "depth": 228, "toffoli_depth": 185, "gates_total": 1264, "gates_not": 2,
            "gates_cnot": 1230, "gates_swap": 32, "cnot_arity_1": 617,
            "cnot_arity_2": 574, "cnot_arity_4": 35, "cnot_arity_8": 4,
        },
        "2a122d283e22401f4ed49baffa351a7fbf89ce7f8cd14557aa88e4d215b4ebe0",
    ),
    "degree-m8": (
        lambda: build_degree(8),
        {
            "width": 11, "depth": 45, "toffoli_depth": 32, "gates_total": 108, "gates_not": 3,
            "gates_cnot": 105, "gates_swap": 0, "cnot_arity_1": 69,
            "cnot_arity_2": 35, "cnot_arity_4": 1,
        },
        "14ba2f7dca4786a4dd2b9e60955c542b820a357117ec3ac19e8d4c6e0cfbfb5e",
    ),
    "increment-w3": (
        lambda: build_increment(3),
        {
            "width": 4, "depth": 4, "toffoli_depth": 2, "gates_total": 4, "gates_not": 1,
            "gates_cnot": 3, "gates_swap": 0, "cnot_arity_1": 1,
            "cnot_arity_2": 1, "cnot_arity_3": 1,
        },
        "04b640d653206ffcba8b858c50abf595d2b210d41f39c2e7132698a2b2d16b87",
    ),
    "decrement-w3": (
        lambda: build_decrement(3),
        {
            "width": 4, "depth": 4, "toffoli_depth": 2, "gates_total": 4, "gates_not": 1,
            "gates_cnot": 3, "gates_swap": 0, "cnot_arity_1": 1,
            "cnot_arity_2": 1, "cnot_arity_3": 1,
        },
        "eb9245d7c1663e00e9d816b6577a24758675d87f7924d0093542579681bcf206",
    ),
    "controlled-shift-n5-k3": (
        lambda: build_controlled_shift(5, 3),
        {
            "width": 8, "depth": 24, "toffoli_depth": 12, "gates_total": 36, "gates_not": 0,
            "gates_cnot": 36, "gates_swap": 0, "cnot_arity_1": 24,
            "cnot_arity_2": 12,
        },
        "a6ade3b118b03444918a3479fe1d25abe5dd36d43bdb72b23f205ebfcc73e101",
    ),
    "mul-accumulate-m8": (
        lambda: build_mul_accumulate(default_field(8)),
        {
            "width": 24, "depth": 29, "toffoli_depth": 22, "gates_total": 106, "gates_not": 0,
            "gates_cnot": 106, "gates_swap": 0, "cnot_arity_1": 42,
            "cnot_arity_2": 64,
        },
        "07c4ffdc06b2fdfc10b56c7db22b9500e5156e3d1fd5d6a4e6deb02f7bfe6cf6",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_netlist(name):
    build, want_report, want_digest = GOLDEN[name]
    circuit = build()
    assert report(circuit).to_json() == want_report
    assert sha256(emit_netlist(circuit)) == want_digest


# name -> (build, chunk count, SHA-256 of the chunk bodies' lines, chunks apart by one newline)
KERNELS = {
    "naive-division-m8": (
        lambda: build_naive_long_division(8), 2,
        "6b42e71c50bf6f3c66e75bd24d46b0259088806d586f37fd5106b97965a62bd2",
    ),
    "euclid-iteration-m16": (
        lambda: build_euclid_iteration(16), 11,
        "22f25629fe315b683c4ce5de0de974e5b72d64bd3cc480b85a418455b574af87",
    ),
    "mul-accumulate-m8": (
        lambda: build_mul_accumulate(default_field(8)), 1,
        "321f3e07d40815b8c095fec78ad4a01b2aa0a6f8b323b423f96e8d4f71a3435f",
    ),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_golden_kernel_source(name, monkeypatch):
    build, want_chunks, want_digest = KERNELS[name]
    built = build()
    bodies = []
    compile_chunk = circuit_module._compile

    def recording(*body):
        bodies.append(body)
        return compile_chunk(*body)

    monkeypatch.setattr(circuit_module, "_compile", recording)
    # a fresh circuit, so its kernel is generated here even if `built`'s already was
    Circuit(built.layout, built.gates, built.restores)._kernel
    assert len(bodies) == want_chunks
    assert sha256("\n".join("\n".join(body) for body in bodies)) == want_digest


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
        '"layout_width": 72, "m": 16, "multiplier_depth": 52, "multiplier_gates_total": 346, '
        '"multiplier_toffoli_depth": 39, "multiplier_width": 48, '
        '"naive_iteration_depth": 228, "naive_iteration_gates_total": 1264, '
        '"naive_iteration_toffoli_depth": 185, "naive_iteration_width": 86, '
        '"term c": 2, "term degA": 4, "term degB": 4, '
        '"term deg_anc": 4, "term dega": 4, "term degb": 4, "term f": 1, "term h": 5, '
        '"term q": 12, "term rAa": 16, "term rBb": 16}\n'
    ),
}


@pytest.mark.parametrize("command", sorted(CLI_REPORTS))
def test_golden_cli_report(command, curve_files, capsys):
    assert main([curve_files.get(word, word) for word in command.split()]) == 0
    out = capsys.readouterr().out
    assert CLI_REPORTS[command] in (out, sha256(out))
