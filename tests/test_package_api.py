"""The package namespace is the documented API, and it holds what the
benchmark reads.

The benchmark under ``perfbench/`` imports the package as ``kh``: its
workloads call ``kh.<name>``, its smoke test reads
``independence_complex`` in every namespace that binds it, and its tracer
wraps the functions named in ``tracing.LAYERS`` in their defining modules.
The smoke test is not part of tier-1, so these checks keep a trim of the
namespace or of a module from dropping a name the benchmark uses.  The
README's Library section lists the exported names, and nothing else.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path
from types import ModuleType

import exkh

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _chain(node) -> list[str] | None:
    """The names of ``kh.a.b`` as ['a', 'b'], or None if not rooted at kh."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "kh":
        return names[::-1]
    return None


def names_read_through_kh() -> set[tuple[str, ...]]:
    out = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            names = _chain(node) if isinstance(node, ast.Attribute) else None
            if names:
                out.add(tuple(names))
    return out


def _resolves(names) -> bool:
    obj = exkh
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_name_the_benchmark_reads_is_exported():
    read = names_read_through_kh()
    # the scan sees the workloads' calls and the smoke test's module reads
    assert {("parse_pd",), ("khovanov_cohomology",), ("extreme", "extreme_via_dual")} <= read
    missing = sorted(n for n in read | {("independence_complex",)} if not _resolves(n))
    assert missing == []


def test_every_traced_layer_function_exists_in_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = [
        f"{module}.{name}"
        for module, names, _ in tracing.LAYERS.values()
        for name in names
        if not hasattr(importlib.import_module(f"exkh.{module}"), name)
    ]
    assert missing == []


def test_the_readme_lists_exactly_the_exported_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1].split("The modules, bottom to top:", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    exported = {
        name
        for name, value in vars(exkh).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert listed == exported
