"""The package traces circles in one place, Diagram._resolve_bits.

A second tracer would need the port pairing ``_arc_partner``; only the
diagram module may read it.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "exkh").glob("*.py"))


def test_arc_partner_is_read_only_in_the_diagram_module():
    readers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        readers.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_arc_partner"
        )
    assert any(r.startswith("diagram.py:") for r in readers)
    assert [r for r in readers if not r.startswith("diagram.py:")] == []
