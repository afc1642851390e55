"""Tests of the benchmark itself: the Toffoli-equivalent formula, the
oracle check, repeatable counts and the refusal to run without sources.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from revgf2 import blocks, circuit, naive  # noqa: E402
from revgf2.circuit import Circuit, cnot, gate_not, swap  # noqa: E402
from workloads import WORKLOADS, toffoli_equiv  # noqa: E402

COUNTS = [
    "circuit.apply.calls",
    "circuit.gate_evals",
    "naive.iterations_per_invert",
    "optimized.rounds_run",
    "optimized.useful_round_fraction",
    "optimized.halting_width",
    "optimized.fidelity_loss_count",
    "optimized.optimized_invert.calls",
    "ecgroup.invert_calls_per_add",
    "ecgroup.mul_acc_calls_per_add",
    "blocks.mulacc.gates",
    "bench.fail_fraction",
    "bench.fidelity_loss_fraction",
]
COSTS = ["cost.gates", "cost.depth", "cost.width", "cost.toffoli_equiv"]


def run_bench(*args, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script or BENCH_DIR / "run.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done) -> dict:
    return json.loads(done.stdout.splitlines()[-1])


def values(result) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_toffoli_equiv_hand_counts():
    assert toffoli_equiv(circuit.report(blocks.build_swap())) == 0  # CNOTs only
    assert toffoli_equiv(circuit.report(blocks.build_conditional_xor(3))) == 3
    # increment on 3 wires: arity 3 (3) + arity 2 (1) + CNOT + NOT
    assert toffoli_equiv(circuit.report(blocks.build_increment(3))) == 4
    q = [("q", i) for i in range(6)]
    mixed = Circuit({"q": 6})
    mixed.add(gate_not(q[0]))
    mixed.add(swap(q[0], q[1]))
    mixed.add(cnot([(w, 1) for w in q[:3]], q[5]))  # 3 controls: 3
    mixed.add(cnot([(w, 0) for w in q[:4]], q[5]))  # 4 negative controls: 5
    mixed.add(cnot([(w, 1) for w in q[:5]], q[5]))  # 5 controls: 7
    assert toffoli_equiv(circuit.report(mixed)) == 15


def test_toffoli_equiv_of_the_baseline_circuits():
    assert toffoli_equiv(circuit.report(naive.build_naive_long_division(8))) == 681
    assert toffoli_equiv(circuit.report(naive.build_euclid_iteration(16))) == 6982


CORRUPTING_RUNNER = """
import runpy, sys
sys.path[:0] = [{src!r}, {bench!r}]
import revgf2.circuit as circuit
original = circuit.apply

def corrupted(c, state):
    out = original(c, state)
    if "q" in out.bits:
        out.bits["q"] ^= 1  # the long division's quotient register
    return out

circuit.apply = corrupted
sys.argv = [{run!r}] + sys.argv[1:]
runpy.run_path({run!r}, run_name="__main__")
"""


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_output_fails_the_run(tmp_path, trace):
    runner = tmp_path / "corrupting_runner.py"
    runner.write_text(
        CORRUPTING_RUNNER.format(src=str(ROOT / "src"), bench=str(BENCH_DIR), run=str(BENCH_DIR / "run.py"))
    )
    done = run_bench(
        "--workload", "div-batch-m8", "--seed", 3, "--seconds", 1, "--trace", trace, script=runner
    )
    assert done.returncode == 1, done.stderr
    result = result_of(done)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    if trace:
        assert values(result)["bench.fail_fraction"] == 1.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_identical_counts(workload):
    traced = [run_bench("--workload", workload, "--seed", 7, "--seconds", 1, "--trace", 1) for _ in range(2)]
    untraced = [run_bench("--workload", workload, "--seed", 7, "--seconds", 1, "--trace", 0) for _ in range(2)]
    for done in traced + untraced:
        assert done.returncode == 0, done.stderr
        assert result_of(done)["correct"] is True
    first, second = (values(result_of(d)) for d in traced)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert result_of(traced[0])["attempted"] == result_of(traced[1])["attempted"]
    first, second = (values(result_of(d)) for d in untraced)
    assert {k: first[k] for k in COSTS} == {k: second[k] for k in COSTS}


def test_cost_matches_the_baseline():
    expected = {
        "div-batch-m8": {"cost.gates": 596, "cost.depth": 408, "cost.width": 31, "cost.toffoli_equiv": 681},
        "invert-naive-m16": {"cost.gates": 4908, "cost.depth": 3507, "cost.width": 89},
        "sync-batch-m16": {"cost.width": 78},
    }
    for name, cost in expected.items():
        wl = WORKLOADS[name]
        measured = wl.cost(wl.setup())
        assert {k: measured[k] for k in cost} == cost


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(
        "--workload", "div-batch-m8", "--seed", 1, "--seconds", 1, "--trace", 0,
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
