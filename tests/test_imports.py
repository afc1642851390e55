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
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
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
