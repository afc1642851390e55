"""Every imported name is used.  No linter is installed, so this parses each
module of the package and of the tests with ast."""

import ast
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
