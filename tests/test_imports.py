"""No module in the package or the test suite imports a name it never uses.

A static scan: every name an import statement binds must appear somewhere
else in the same file, as a name, as the base of an attribute, or inside a
string annotation. The package's __init__.py re-exports its imports and
__future__ imports are directives, so neither counts.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _used_names(tree: ast.AST) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used |= _used_names(ast.parse(const.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the source never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        out += [(node.lineno, name) for name in names if name not in used]
    return out


def test_scan_flags_an_unused_import():
    source = ("import os\nimport sys as system\nfrom json import dumps, loads\n"
              "def f(x: 'Path') -> None:\n    return loads(x)\n"
              "from pathlib import Path\n")
    assert unused_imports(source) == [(1, "os"), (2, "system"), (3, "dumps")]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "synnetgen").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    files = [f for f in files if f.name != "__init__.py"]
    assert files
    problems = [f"{f.relative_to(ROOT)}:{line}: {name}" for f in files
                for line, name in unused_imports(f.read_text(encoding="utf-8"))]
    assert problems == []
