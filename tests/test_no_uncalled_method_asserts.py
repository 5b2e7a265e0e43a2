"""No test asserts an uncalled method as a truth value, or a bool as None.

``assert g.is_bipartite`` reads a bound method, which is always true, so
the assertion checks nothing.  This scans every ``assert`` under
``tests/`` for an attribute named like a method of a class defined in the
package, in a bare truth position: the whole test, the operand of
``not``, or an operand of ``and`` / ``or``.  Properties are values, so
they are exempt, and so is a name that some class also declares as a
field (``ExtremeRow.shift`` against ``LaurentPoly.shift``), since the
attribute's owner cannot be told from the syntax.

A call to a function annotated ``-> bool`` never returns None, so
``assert isomorphic(g, h) is not None`` always passes as well.  The second
check rejects ``assert f(...) is None`` and ``assert f(...) is not None``
in the same truth positions when some function or method named ``f`` in
the package or in ``tests/conftest.py`` is annotated ``-> bool``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "exkh").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
CONFTEST = ROOT / "tests" / "conftest.py"
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


def bool_functions(sources: list[str]) -> set[str]:
    """Names of the functions and methods in ``sources`` annotated ``-> bool``."""
    return {
        node.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and isinstance(node.returns, (ast.Name, ast.Constant))
        and getattr(node.returns, "id", getattr(node.returns, "value", None)) == "bool"
    }


def _called_name(node: ast.expr) -> str | None:
    """``f`` for a call ``f(...)`` or ``x.f(...)``, else None."""
    if not isinstance(node, ast.Call):
        return None
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def bool_compared_with_none(source: str, functions: set[str]) -> list[str]:
    """``line N: name`` for each assert in ``source`` testing a bool call
    with ``is None`` or ``is not None``."""
    hits = sorted(
        (node.lineno, _called_name(operand.left))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        for operand in _truth_operands(node.test)
        if isinstance(operand, ast.Compare)
        and len(operand.ops) == 1
        and isinstance(operand.ops[0], (ast.Is, ast.IsNot))
        and isinstance(operand.comparators[0], ast.Constant)
        and operand.comparators[0].value is None
        and _called_name(operand.left) in functions
    )
    return [f"line {line}: {name}" for line, name in hits]


def test_no_assert_compares_a_bool_call_with_none():
    functions = bool_functions(
        [p.read_text(encoding="utf-8") for p in [*PACKAGE, CONFTEST]]
    )
    assert {"isomorphic", "is_planar"} <= functions
    found = {
        path.name: hits
        for path in TESTS
        if (hits := bool_compared_with_none(path.read_text(encoding="utf-8"), functions))
    }
    assert found == {}


def test_the_check_sees_a_bool_compared_with_none():
    package = (
        "from __future__ import annotations\n"
        "def same(g, h) -> bool: return g == h\n"
        "def find(g, h) -> dict | None: return None\n"
        "class G:\n"
        "    def ok(self) -> 'bool': return False\n"
        "    @property\n"
        "    def empty(self) -> bool: return True\n"
    )
    tests = (
        "assert same(g, h) is not None\n"
        "assert g.ok() is None\n"
        "assert x and not same(g, h) is None\n"
        "assert find(g, h) is not None\n"
        "assert same(g, h) == True\n"
        "assert same is not None and g.empty is not None\n"
        "assert same(g, h)\n"
    )
    functions = bool_functions([package])
    assert functions == {"same", "ok", "empty"}
    assert bool_compared_with_none(tests, functions) == [
        "line 1: same", "line 2: ok", "line 3: same"
    ]
