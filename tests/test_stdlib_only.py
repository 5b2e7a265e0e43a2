"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "exkh").glob("*.py"))


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.extend(
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            )
    assert outside == []
