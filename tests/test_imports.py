"""Every imported name is used.  No linter is installed, so this parses each
module of the package and of the tests with ast."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_import_is_used():
    unused = []
    for path in sorted([*ROOT.glob("src/revgf2/*.py"), *ROOT.glob("tests/*.py")]):
        imported, used = {}, set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                imported.update({(a.asname or a.name).partition(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused


def test_benchmark_reads_only_names_that_exist():
    """perfbench/workloads.py cannot change with the library, so every
    revgf2 attribute it reads (module.a.b chains, and the (module, "name")
    pairs its tracer rebinds) must still resolve."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    modules = {
        (a.asname or a.name): importlib.import_module(f"revgf2.{a.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "revgf2"
        for a in node.names
    }
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts, inner = [], node
            while isinstance(inner, ast.Attribute):
                parts.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id in modules:
                chains.add((inner.id, *reversed(parts)))
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            mod, attr = node.elts[:2]
            if isinstance(mod, ast.Name) and mod.id in modules and isinstance(attr, ast.Constant):
                chains.add((mod.id, attr.value))
    assert {("ecgroup", "build_division_with_uncompute"), ("circuit", "BasisState", "from_values")} <= chains
    absent, missing = object(), []
    for root, *attrs in sorted(chains):
        obj = modules[root]
        for attr in attrs:
            obj = getattr(obj, attr, absent)
        if obj is absent:
            missing.append(".".join((root, *attrs)))
    assert not missing


def _load_benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_run_one_checked_input():
    """Each workload's set-up, one seeded call, its oracle check and its
    cost run against the library as it is, and the traced run can count
    the rounds of what run_synchronized returns and, on ec-add-m8, every
    round run_round runs."""
    workloads, tracing = _load_benchmark_module("workloads"), _load_benchmark_module("tracing")
    for wl in workloads.WORKLOADS.values():
        fx = wl.setup()
        x = next(wl.inputs(fx, 1))
        out = wl.op(fx, x)
        assert wl.check(fx, x, out) == (0, 0), wl.name
        assert set(wl.cost(fx)) == {"cost.gates", "cost.depth", "cost.width", "cost.toffoli_equiv"}
        if wl.name == "sync-batch-m16":
            tracer = tracing.Tracer()
            tracer._count_traced_rounds(out)
            assert tracer.rounds == fx["cycles"] and tracer.rounds_ending_done == out[x].h >= 1
        if wl.name == "ec-add-m8":  # the per-round counter reads SyncState.done
            tracer = tracing.Tracer()
            tracer.install(wl.extra_targets, [])
            try:
                wl.op(fx, x)
            finally:
                tracer.uninstall()
            assert tracer.rounds > 0 and tracer.rounds_ending_done == 4  # one per E pass


def test_no_module_imports_another_modules_private_name():
    private = []
    for path in sorted(ROOT.glob("src/revgf2/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("revgf2")):
                private += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert not private


ADAPTER_TEST = "test_the_benchmark_adapter_runs_the_one_lane_kernel"


def test_only_the_benchmark_and_its_test_use_the_one_lane_adapter():
    """`circuit.apply` and `BasisState` are kept for perfbench/ alone: outside
    circuit.py, only perfbench/, this file and the one test that checks the
    adapter against run_one name them, so deleting it touches no other test."""
    named, skipped = [], 0
    for path in sorted([*ROOT.glob("src/revgf2/*.py"), *ROOT.glob("tests/*.py")]):
        if path.name in ("circuit.py", "test_imports.py"):
            continue
        tree = ast.parse(path.read_text())
        if path.name == "test_circuit.py":
            kept = [node for node in tree.body if getattr(node, "name", None) != ADAPTER_TEST]
            skipped, tree.body = len(tree.body) - len(kept), kept
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in ("apply", "BasisState"):
                named.append(f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', '?')} {name}")
    assert not named
    assert skipped == 1, f"tests/test_circuit.py has no {ADAPTER_TEST}"
