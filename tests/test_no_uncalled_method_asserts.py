"""No test asserts an uncalled method as a truth value.

``assert g.is_bipartite`` reads a bound method, which is always true, so
the assertion checks nothing.  This scans every ``assert`` under
``tests/`` for an attribute named like a method of a class defined in the
package, in a bare truth position: the whole test, the operand of
``not``, or an operand of ``and`` / ``or``.  Properties are values, so
they are exempt, and so is a name that some class also declares as a
field (``ExtremeRow.shift`` against ``LaurentPoly.shift``), since the
attribute's owner cannot be told from the syntax.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "exkh").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
PROPERTIES = {"property", "cached_property"}


def method_names(sources: list[str]) -> set[str]:
    """Plain methods of the classes in ``sources``, less the field names."""
    methods, fields = set(), set()
    for source in sources:
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    fields.add(node.target.id)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decorators = {
                        getattr(dec, "id", getattr(dec, "attr", None))
                        for dec in node.decorator_list
                    }
                    if not decorators & PROPERTIES:
                        methods.add(node.name)
    return methods - fields


def _truth_operands(test: ast.expr):
    """The expressions whose truth value ``assert test`` reads as they are."""
    stack = [test]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            stack.append(node.operand)
        elif isinstance(node, ast.BoolOp):
            stack.extend(node.values)
        else:
            yield node


def uncalled_method_asserts(source: str, methods: set[str]) -> list[str]:
    """``line N: name`` for each assert in ``source`` reading a method's truth."""
    hits = sorted(
        (node.lineno, operand.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        for operand in _truth_operands(node.test)
        if isinstance(operand, ast.Attribute) and operand.attr in methods
    )
    return [f"line {line}: {name}" for line, name in hits]


def test_no_assert_reads_an_uncalled_method():
    methods = method_names([p.read_text(encoding="utf-8") for p in PACKAGE])
    assert "two_coloring" in methods and "is_trivial" not in methods
    found = {
        path.name: hits
        for path in TESTS
        if (hits := uncalled_method_asserts(path.read_text(encoding="utf-8"), methods))
    }
    assert found == {}


def test_the_check_sees_an_uncalled_method():
    package = (
        "from dataclasses import dataclass\n"
        "from functools import cached_property\n"
        "class G:\n"
        "    def ok(self): return False\n"
        "    def shift(self, k): return k\n"
        "    @property\n"
        "    def empty(self): return True\n"
        "    @cached_property\n"
        "    def size(self): return 0\n"
        "@dataclass\n"
        "class Row:\n"
        "    shift: int\n"
    )
    tests = (
        "assert g.ok\n"
        "assert not g.ok and g.empty\n"
        "assert g.ok() or (x and g.ok)\n"
        "assert g.shift and g.size\n"
        "assert g.ok == 1\n"
    )
    methods = method_names([package])
    assert methods == {"ok"}
    assert uncalled_method_asserts(tests, methods) == [
        "line 1: ok", "line 2: ok", "line 3: ok"
    ]
