"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces each public function named in ``LAYERS``
with a wrapper in every ``exkh`` module namespace that binds it (the
package itself included), and puts the originals back on exit.  A wrapper
records one span -- layer name, parent span, item, start, end -- and, for
the layers that have them, adds counts read off the arguments and the
returned object.  Counting runs outside the wrapped call, under its own
``trace.count`` span, and never touches the lazy caches of the objects it
inspects, so the program does the same work traced as untraced.

Spans stay in memory; ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter


def _matrix_counts(matrices) -> tuple[int, int]:
    """(entries, nonzeros) over the dense row-tuple matrices of a complex."""
    entries = nnz = 0
    for m in matrices.values():
        for row in m:
            entries += len(row)
            nnz += len(row) - row.count(0)
    return entries, nnz


def _face_count(x) -> int:
    """Faces of a simplicial complex, the empty face included, computed
    from its maximal faces without filling the complex's own face cache."""
    seen: set = set()
    stack = list(x.maximal)
    while stack:
        f = stack.pop()
        if f not in seen:
            seen.add(f)
            stack.extend(f - {v} for v in f)
    return len(seen)


def _component_count(g) -> int:
    """Connected components of a graph, from its vertex and edge sets."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in g.edges:
        a, b = (find(v) for v in e)
        if a != b:
            parent[a] = b
    return sum(1 for v in g.vertices if find(v) == v)


def _count_smoothings(counts, args, result):
    counts["khovanov.smoothings"] += 1 << args[0].crossing_count


def _count_khovanov_complex(counts, args, cc):
    counts["khovanov.j_rows"] += 1
    counts["khovanov.states"] += sum(len(b) for b in cc.bases.values())
    counts["khovanov.matrix_nnz"] += _matrix_counts(cc.matrices)[1]


def _count_reduce(counts, args, result):
    m = args[0]
    counts["simplicial.reduce_calls"] += 1
    side = max(len(m), len(m[0]) if len(m) else 0)
    counts["simplicial.reduce_max_side"] = max(counts["simplicial.reduce_max_side"], side)


def _count_build(counts, args, x):
    counts["simplicial.faces"] += _face_count(x)


def _count_assemble(counts, args, cc):
    entries, nnz = _matrix_counts(cc.matrices)
    counts["simplicial.matrix_entries"] += entries
    counts["simplicial.matrix_nnz"] += nnz


def _count_lando(counts, args, g):
    counts["lando.vertices"] += len(g.vertices)
    counts["lando.components"] += _component_count(g)


# layer -> (defining module, public functions, counter or None)
LAYERS = {
    "diagram.parse": ("diagram", ("parse_pd",), None),
    "lando.build": ("lando", ("build_lando",), _count_lando),
    "lando.independence_number": ("lando", ("independence_number",), None),
    "khovanov.bracket": ("khovanov", ("kauffman_bracket",), _count_smoothings),
    "khovanov.scan": ("khovanov", ("scanned_j_range",), _count_smoothings),
    "khovanov.complex": ("khovanov", ("khovanov_complex",), _count_khovanov_complex),
    "simplicial.reduce": (
        "simplicial",
        ("smith_normal_form", "integer_rank", "rank_mod_p"),
        _count_reduce,
    ),
    "simplicial.build": (
        "simplicial",
        ("independence_complex", "jonsson_complex", "alexander_dual"),
        _count_build,
    ),
    "simplicial.assemble": ("simplicial", ("coboundary_complex",), _count_assemble),
    "simplicial.fold": ("simplicial", ("join_homology",), None),
    "extreme.lando": ("extreme", ("extreme_via_lando",), None),
    "extreme.brute": ("extreme", ("extreme_via_brute",), None),
    "extreme.dual": ("extreme", ("extreme_via_dual",), None),
}

# Layers reported with inclusive time (whole route); the rest report self time.
INCLUSIVE = ("extreme.lando", "extreme.brute", "extreme.dual")

COUNTS = (
    "khovanov.smoothings",
    "khovanov.states",
    "khovanov.matrix_nnz",
    "khovanov.j_rows",
    "simplicial.reduce_calls",
    "simplicial.reduce_max_side",
    "simplicial.faces",
    "simplicial.matrix_entries",
    "simplicial.matrix_nnz",
    "lando.vertices",
    "lando.components",
)

ITEM = "bench.item"
COUNT = "trace.count"


class Tracer:
    """Spans and counts of the traced passes of one run."""

    def __init__(self):
        # Each span: [name, parent index or -1, pass, item, start, end].
        self.spans: list[list] = []
        self.counts: list[dict[str, int]] = []
        self._pass_start: list[int] = []
        self._stack: list[int] = []
        self._pass = -1
        self._item = -1

    def begin_pass(self) -> None:
        self._pass += 1
        self._pass_start.append(len(self.spans))
        self.counts.append(dict.fromkeys(COUNTS, 0))

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._pass, self._item, perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][5] = perf_counter()
        self._stack.pop()

    def item(self, index: int, fn, *args):
        """Run one benchmark item under a root span."""
        self._item = index
        span = self._open(ITEM)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, layer: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                count_span = self._open(COUNT)
                counter(self.counts[-1], args, result)
                self._close(count_span)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every layer function in every namespace that binds it, and
        put the originals back on exit."""
        prefix = package.__name__
        wrappers = {}
        for layer, (module, names, counter) in LAYERS.items():
            source = sys.modules[f"{prefix}.{module}"]
            for name in names:
                original = getattr(source, name)
                wrappers[id(original)] = (original, self._wrap(layer, original, counter))
        replaced = []
        try:
            for key, module in list(sys.modules.items()):
                if key != prefix and not key.startswith(prefix + "."):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        replaced.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    # ---- results --------------------------------------------------------

    def pass_layers(self, pass_index: int) -> tuple[dict[str, float], float]:
        """Per-layer times of one traced pass in seconds, and their total.

        Self time is a span's duration minus its children's; the extreme
        routes are reported inclusive, with their own self time summed in
        ``extreme.self_s``.  ``bench.residual_s`` is the self time of the
        item spans: the benchmark's checks, the wrappers' own cost, and
        program code called outside any wrapped function.  The total is
        the sum of every self time, which the pass's wall time minus the
        loop between items should match.
        """
        first = self._pass_start[pass_index]
        spans = [s for s in self.spans[first:] if s[2] == pass_index]
        child_time = [0.0] * len(spans)
        for name, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent - first] += end - start
        self_s = dict.fromkeys([ITEM, COUNT, *LAYERS], 0.0)
        inclusive = dict.fromkeys(INCLUSIVE, 0.0)
        for k, (name, _, _, _, start, end) in enumerate(spans):
            self_s[name] += end - start - child_time[k]
            if name in inclusive:
                inclusive[name] += end - start
        out = {f"{name}_s": self_s[name] for name in LAYERS if name not in INCLUSIVE}
        out.update({f"{name}_s": v for name, v in inclusive.items()})
        out["extreme.self_s"] = sum(self_s[name] for name in INCLUSIVE)
        out["bench.residual_s"] = self_s[ITEM]
        out["trace.count_s"] = self_s[COUNT]
        return out, sum(self_s.values())

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "pass", "item", "start", "end"],
                    "spans": self.spans,
                    "counts_per_pass": self.counts,
                },
                fh,
            )
