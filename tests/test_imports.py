"""Static scans of the package and the test suite.

Unused imports: every name an import statement binds must appear
somewhere else in the same file, as a name, as the base of an attribute,
or inside a string annotation. The package's __init__.py re-exports its
imports and __future__ imports are directives, so neither counts.

Unreferenced definitions: every module-level function, class and
constant the package defines, private or not, and every public method,
must be used, as a name or an attribute, somewhere in the package outside
__init__.py. Assigning a name is not a use of it. A definition only tests
use is not part of what the program does, so it goes, except for the
allow-listed names.

Runtime imports: a fresh interpreter that imports the package loads no
scipy module.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


# qualified name -> why it stays although nothing in the package uses it
ALLOWED_UNREFERENCED = {
    "nmi": "README documents it, and the paper's fidelity suite reports NMI",
    "ari": "README documents it, and the paper's fidelity suite reports ARI",
    "EdgeSet": "perfbench/spans.py hooks EdgeSet.to_array, and test_bench_hooks "
               "requires every hook to resolve; goes with ROADMAP item 13",
    "EdgeSet.to_array": "perfbench/spans.py hooks it; goes with ROADMAP item 13",
}


def _used_names(tree: ast.AST) -> set:
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
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


def _constants(node):
    """Names a module-level assignment binds, dunders aside."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def _definitions(body, prefix=""):
    """(line, qualified name) of the defs, classes and constants in a
    module body, and of the public methods of every class in it."""
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and not prefix:
            yield from ((node.lineno, name) for name in _constants(node))
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not (prefix and node.name.startswith("_")):
            yield node.lineno, prefix + node.name
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def unreferenced_definitions(sources: dict) -> list:
    """(file, line, qualified name) of every definition in sources (file
    name -> source text) whose name no file uses as a name or an
    attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        used |= _used_names(tree)
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [(name, line, qual) for name, tree in trees.items()
            for line, qual in _definitions(tree.body)
            if qual.rsplit(".", 1)[-1] not in used]


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


def test_scan_flags_an_unreferenced_definition():
    lib = ("def used():\n    pass\ndef unused():\n    pass\ndef _private():\n    pass\n"
           "class Box:\n    def open(self):\n        pass\n"
           "    def shut(self):\n        pass\n"
           "    def _step(self):\n        pass\n"
           "class _Hidden:\n    def peek(self):\n        pass\n"
           "LIMIT = 3\n_CAP: int = 4\n__all__ = []\nSPARE = 5\nSPARE = LIMIT + _CAP\n")
    # importing a name, as __init__.py does, is not a use of it
    caller = "from lib import used, unused\nused()\nBox().open()\n"
    assert unreferenced_definitions({"lib.py": lib, "caller.py": caller}) == [
        ("lib.py", 3, "unused"), ("lib.py", 5, "_private"), ("lib.py", 10, "Box.shut"),
        ("lib.py", 14, "_Hidden"), ("lib.py", 15, "_Hidden.peek"),
        ("lib.py", 20, "SPARE"), ("lib.py", 21, "SPARE")]


def test_package_defines_nothing_it_never_uses():
    files = [f for f in sorted((ROOT / "src" / "synnetgen").glob("*.py"))
             if f.name != "__init__.py"]
    assert files
    found = unreferenced_definitions({f.name: f.read_text(encoding="utf-8") for f in files})
    assert [f"{f}:{line}: {qual}" for f, line, qual in found
            if qual not in ALLOWED_UNREFERENCED] == []
    # an allow-list entry whose definition is gone or now used is stale
    assert sorted(qual for _, _, qual in found) == sorted(ALLOWED_UNREFERENCED)


def test_package_imports_without_scipy():
    # numpy is the one runtime dependency: importing the package and its
    # command line loads no scipy module
    code = ("import sys, synnetgen, synnetgen.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
