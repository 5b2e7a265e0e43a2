"""Lando graphs of link diagram states and small-graph utilities.

Resolving every crossing of a diagram in its all-A state leaves circles
decorated with one chord per crossing.  A chord is *admissible* when both of
its endpoints lie on the same circle.  The Lando graph has one vertex per
admissible chord, and an edge between two chords exactly when their endpoint
pairs alternate around their common circle.  Since chords of a planar
diagram can always be drawn without intersections inside or outside their
circle, two interleaved chords must sit on opposite sides, which makes every
Lando graph bipartite.

The alternating sum over all independent vertex sets (the empty set
included),

    I(G) = sum over independent sigma of (-1)^|sigma|,

refines the count of extreme Kauffman bracket coefficients.  It satisfies
I(G) = I(G - v) - I(G - N[v]) for any vertex v, multiplies over connected
components, and vanishes whenever G has an isolated vertex.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable

from .diagram import Diagram, ResolvedState
from .errors import CapExceeded

Vertex = Hashable


@dataclass(frozen=True)
class Graph:
    """A finite simple graph with an ordered vertex tuple."""

    vertices: tuple[Vertex, ...]
    edges: frozenset[frozenset]

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for e in self.edges:
            if len(e) != 2 or not e <= vs:
                raise ValueError(f"bad edge {set(e)!r}")

    @staticmethod
    def build(vertices: Iterable[Vertex], edges: Iterable[Iterable[Vertex]]) -> "Graph":
        return Graph(
            tuple(vertices), frozenset(frozenset(e) for e in edges)
        )

    @cached_property
    def adjacency(self) -> dict[Vertex, frozenset]:
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        keep_set = set(keep)
        return Graph(
            tuple(v for v in self.vertices if v in keep_set),
            frozenset(e for e in self.edges if e <= keep_set),
        )

    def complement(self) -> "Graph":
        edges = frozenset(
            frozenset((u, v))
            for u, v in itertools.combinations(self.vertices, 2)
            if frozenset((u, v)) not in self.edges
        )
        return Graph(self.vertices, edges)

    def connected_components(self) -> tuple[tuple[Vertex, ...], ...]:
        adj = self.adjacency
        seen: set = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            stack, comp = [v], []
            seen.add(v)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp, key=self.vertices.index)))
        return tuple(comps)

    def two_coloring(self) -> dict[Vertex, int] | None:
        """A proper 2-coloring by 0/1, or None when none exists.

        Vertices of each connected component are colored so that color 0 is
        the side containing the component's first vertex.
        """
        adj = self.adjacency
        color: dict[Vertex, int] = {}
        for v in self.vertices:
            if v in color:
                continue
            color[v] = 0
            stack = [v]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in color:
                        color[w] = 1 - color[u]
                        stack.append(w)
                    elif color[w] == color[u]:
                        return None
        return color

    def is_bipartite(self) -> bool:
        return self.two_coloring() is not None

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertices": list(self.vertices),
                "edges": sorted(
                    sorted(e, key=self.vertices.index) for e in self.edges
                ),
            }
        )

    @staticmethod
    def from_json(text: str) -> "Graph":
        data = json.loads(text)
        return Graph.build(
            (tuple(v) if isinstance(v, list) else v for v in data["vertices"]),
            data["edges"],
        )

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for e in sorted(sorted(e, key=self.vertices.index) for e in self.edges):
            u, v = e
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines)


def build_lando(source: Diagram | ResolvedState) -> Graph:
    """Lando graph of a diagram's all-A state (or of a given resolution).

    Vertices are the crossing indices of the admissible chords, in crossing
    order.
    """
    if isinstance(source, Diagram):
        resolved = source.resolve(source.all_a_state())
    else:
        resolved = source
    position: dict = {}
    for k, circle in enumerate(resolved.circles):
        for pos, endpoint in enumerate(circle):
            position[endpoint] = (k, pos)
    vertices = []
    chord_span: dict[int, tuple[int, int, int]] = {}
    for chord in resolved.chords:
        (c1, p1), (c2, p2) = (position[e] for e in chord.endpoints)
        if c1 == c2:
            vertices.append(chord.crossing)
            chord_span[chord.crossing] = (c1, min(p1, p2), max(p1, p2))
    edges = []
    for u, v in itertools.combinations(vertices, 2):
        cu, lo_u, hi_u = chord_span[u]
        cv, lo_v, hi_v = chord_span[v]
        if cu != cv:
            continue
        if (lo_u < lo_v < hi_u) != (lo_u < hi_v < hi_u):
            edges.append((u, v))
    return Graph.build(vertices, edges)


def independence_number(g: Graph, cap: int = 1 << 22) -> int:
    """Alternating count of independent sets, by branch and reduce.

    Recursion: pick a vertex v of maximal degree in a connected component
    and use I(G) = I(G - v) - I(G - N[v]); components multiply and any
    isolated vertex kills the product.  ``cap`` bounds the number of
    recursion nodes.
    """
    adj = {v: set(ns) for v, ns in g.adjacency.items()}
    budget = [cap]

    def count(vertices: frozenset) -> int:
        if budget[0] <= 0:
            raise CapExceeded("independence recursion", cap)
        budget[0] -= 1
        if not vertices:
            return 1
        # Split off the connected component of some vertex.
        start = next(iter(vertices))
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in vertices and w not in comp:
                    comp.add(w)
                    stack.append(w)
        rest = vertices - comp
        v = max(comp, key=lambda u: len(adj[u] & comp))
        if not (adj[v] & comp):
            return 0  # isolated vertex: (1 - 1) factor
        closed = (adj[v] & comp) | {v}
        value = count(frozenset(comp - {v})) - count(frozenset(comp - closed))
        if value == 0 or not rest:
            return value
        return value * count(rest)

    return count(frozenset(g.vertices))


def fold_graph(g: Graph) -> Graph | None:
    """g with dominated vertices deleted, or None when X(g) is a cone.

    Engstrom's fold lemma: when N(u) is a subset of N(v) for some u != v,
    the independence complexes of g and g - v are homotopy equivalent.  An
    isolated vertex is the apex of a cone, so X(g) is then acyclic and None
    is returned.  Deletions repeat, in vertex order, until no vertex is
    dominated; I(g) is unchanged, and 0 when None is returned.  Deletions
    can disconnect the graph, so callers split the result again.
    """
    nbrs = {v: set(ns) for v, ns in g.adjacency.items()}
    alive = list(g.vertices)
    if any(not nbrs[v] for v in alive):
        return None
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if any(u != v and nbrs[u] <= nbrs[v] for u in alive):
                alive.remove(v)
                for w in nbrs.pop(v):
                    nbrs[w].discard(v)
                    if not nbrs[w]:
                        return None
                changed = True
    return g.subgraph(alive)


def is_complete_bipartite(g: Graph) -> tuple[int, int] | None:
    """Return (r, s) when g is a complete bipartite graph K_{r,s}, r,s >= 1.

    Equivalently: the complement of g has exactly two connected components,
    each of them a clique in the complement (i.e. independent in g).
    """
    if not g.vertices:
        return None
    coloring = g.two_coloring()
    if coloring is None:
        return None
    # All vertices must be in one connected component for the coloring to be
    # forced, and every cross pair must be an edge.
    side0 = [v for v in g.vertices if coloring[v] == 0]
    side1 = [v for v in g.vertices if coloring[v] == 1]
    if not side0 or not side1:
        return None
    for u in side0:
        for v in side1:
            if frozenset((u, v)) not in g.edges:
                return None
    return (len(side0), len(side1))


def find_isomorphism(g: Graph, h: Graph) -> dict[Vertex, Vertex] | None:
    """A graph isomorphism g -> h found by backtracking, or None.

    Meant for the small graphs that arise here (a few dozen vertices).
    """
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return None

    def signature(graph: Graph) -> dict[Vertex, tuple]:
        deg = {v: graph.degree(v) for v in graph.vertices}
        return {
            v: (deg[v], tuple(sorted(deg[w] for w in graph.adjacency[v])))
            for v in graph.vertices
        }

    sig_g, sig_h = signature(g), signature(h)
    if sorted(sig_g.values()) != sorted(sig_h.values()):
        return None
    order = sorted(g.vertices, key=lambda v: sig_g[v], reverse=True)
    adj_g, adj_h = g.adjacency, h.adjacency

    mapping: dict = {}
    used: set = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for w in h.vertices:
            if w in used or sig_h[w] != sig_g[v]:
                continue
            ok = True
            for u in adj_g[v]:
                if u in mapping and mapping[u] not in adj_h[w]:
                    ok = False
                    break
            if ok:
                for u in g.vertices:
                    if u in mapping and u not in adj_g[v] and mapping[u] in adj_h[w]:
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(k + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return dict(mapping) if extend(0) else None


def isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


def cycle_graph(n: int) -> Graph:
    if n <= 2:
        return path_graph(n)
    return Graph.build(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.build(range(n), [(i, i + 1) for i in range(n - 1)])


def complete_bipartite_graph(r: int, s: int) -> Graph:
    verts = [("u", i) for i in range(r)] + [("w", j) for j in range(s)]
    edges = [(("u", i), ("w", j)) for i in range(r) for j in range(s)]
    return Graph.build(verts, edges)


def two_hexagons_shared_vertex() -> Graph:
    """Two 6-cycles glued at a single common vertex (11 vertices, 12 edges)."""
    z = "z"
    a = [f"a{i}" for i in range(2, 7)]
    b = [f"b{i}" for i in range(2, 7)]
    verts = [z, *a, *b]
    ring_a = [z, *a]
    ring_b = [z, *b]
    edges = [(ring_a[i], ring_a[(i + 1) % 6]) for i in range(6)]
    edges += [(ring_b[i], ring_b[(i + 1) % 6]) for i in range(6)]
    return Graph.build(verts, edges)
