"""Every imported name is used.  No linter is installed, so this parses each
module of the package and of the tests with ast."""

import ast
import importlib
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
