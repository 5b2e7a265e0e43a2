"""Every name the package imports is used where it is imported.

``__init__.py`` imports to re-export, and ``from __future__`` imports switch
on language features, so both are exempt.
"""

import ast
from pathlib import Path

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parent.parent / "src" / "exkh").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in ``source`` that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # an annotation written as a string names its types inside the string
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for n in (m for a in annotations if a is not None for m in ast.walk(a)):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            inner = ast.parse(n.value, mode="eval")
            used |= {m.id for m in ast.walk(inner) if isinstance(m, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_package_has_no_unused_imports():
    assert SOURCES
    unused = {
        path.name: names
        for path in SOURCES
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_the_check_sees_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Iterable, Iterator\n"
        "def f(xs: 'Iterable[int]') -> None:\n"
        "    sys.exit(0)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: Iterator"]
