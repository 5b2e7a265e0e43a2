"""One tracer for circles, one tally for counts.

Diagram._resolve_bits is the only producer of canonical circles, and it
keeps no cache.  The Lando graph, j_bounds and the root of the brute rows'
growth read the all-A smoothing's circles from Diagram._all_a_circles,
which traces them once per diagram.  There is one loop
that follows ports around a circle, Diagram._circle_ends: the tracer
walks every circle with it, and the growth walks with it only the one new
circle of a split, making every other smoothing from its parent's
chord-end map (the position of the circle holding each chord end) by
surgery at the flipped crossing.  The complex's moves read from two such
maps which circles merge or split, tracing nothing.  The loops that need
only how many smoothings have each circle count read the frontier tally
Diagram._count_histogram, so no state loop in the package traces a
smoothing only to take the length of its circles.  Both live in the
diagram module; a second tracer, or a second scan, elsewhere would need
the port pairing ``_arc_partner``, so only the diagram module may read it.
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


def _is_len_of_trace(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Attribute)
        and node.args[0].func.attr == "_resolve_bits"
    )


def test_state_loops_count_circles_from_the_array():
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    offenders = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            offenders.update(
                f"{path.name}:{node.lineno}"
                for loop in ast.walk(func)
                if isinstance(loop, loops)
                for node in ast.walk(loop)
                if _is_len_of_trace(node)
            )
    assert offenders == set()


def _callers(attr: str) -> list[str]:
    """module:function for every call of a method named ``attr`` in src."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found.extend(
                    f"{path.stem}:{func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == attr
                )
    return sorted(found)


def test_one_port_walking_loop_and_one_traced_root():
    # the tracer and the growth's splits share the walk, and the growth
    # reads its root from the diagram's one all-A trace
    assert _callers("_circle_ends") == ["diagram:_resolve_bits", "khovanov:_flip"]
    assert [c for c in _callers("_resolve_bits") if c.startswith("khovanov:")] == []
