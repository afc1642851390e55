"""Golden netlists: resource reports and SHA-256 digests of the emitted
netlists (gate order included) and of one CLI trace.

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
            "width": 31, "depth": 408, "gates_total": 596, "gates_not": 1,
            "gates_cnot": 579, "gates_swap": 16, "cnot_arity_1": 310,
            "cnot_arity_2": 211, "cnot_arity_3": 14, "cnot_arity_4": 8,
            "cnot_arity_5": 8, "cnot_arity_6": 8, "cnot_arity_7": 8,
            "cnot_arity_8": 6, "cnot_arity_9": 4, "cnot_arity_10": 2,
        },
        "b91588e0eeb61da4065bac5ad3418e720d0bc2c686c0e9c1d773420abe5b2cc0",
    ),
    "euclid-iteration-m16": (
        lambda: build_euclid_iteration(16),
        {
            "width": 89, "depth": 3507, "gates_total": 4908, "gates_not": 2,
            "gates_cnot": 4810, "gates_swap": 96, "cnot_arity_1": 2764,
            "cnot_arity_2": 1726, "cnot_arity_3": 12, "cnot_arity_4": 48,
            "cnot_arity_5": 20, "cnot_arity_6": 20, "cnot_arity_7": 20,
            "cnot_arity_8": 20, "cnot_arity_9": 20, "cnot_arity_10": 20,
            "cnot_arity_11": 20, "cnot_arity_12": 20, "cnot_arity_13": 20,
            "cnot_arity_14": 20, "cnot_arity_15": 20, "cnot_arity_16": 16,
            "cnot_arity_17": 12, "cnot_arity_18": 8, "cnot_arity_19": 4,
        },
        "36fb5f5a463edb38c00a5f49d23e90b796074975e26354b6e5ddce5698f523f9",
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
            "width": 8, "depth": 64, "gates_total": 84, "gates_not": 0,
            "gates_cnot": 84, "gates_swap": 0, "cnot_arity_1": 56,
            "cnot_arity_2": 28,
        },
        "1c89955f5dc1d26bb09c510b7de2b791585d39b59c0216dbd913419c7b942cf2",
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
