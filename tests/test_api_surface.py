"""Every public name of priordp is reached by the package itself, the demos
or the benchmark, not only by tests, and the demos reach only public names.

The check reads the source with ast: a name counts as used where it appears
as a name, an attribute or an import in src/priordp (but __init__.py),
demos/ or perfbench/ (but its test files). A def or class statement does
not use its own name.
"""

import ast
from pathlib import Path

import priordp

ROOT = Path(__file__).resolve().parent.parent


def used_names() -> set[str]:
    files = [p for d in ("src/priordp", "demos", "perfbench") for p in (ROOT / d).glob("*.py")
             if p.name != "__init__.py" and not p.name.startswith("test_")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_public_names_are_used_outside_tests():
    assert sorted(set(priordp.__all__) - used_names()) == []


def private_imports(path: Path) -> list[str]:
    """The priordp modules and names an import in this file reaches whose
    dotted path has a part that starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "priordp":
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names if alias.name.split(".")[0] == "priordp"]
        else:
            continue
        found += [p for p in paths if any(part.startswith("_") for part in p.split("."))]
    return found


def test_demos_import_only_public_names():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    assert {p.name: private_imports(p) for p in demos} == {p.name: [] for p in demos}
