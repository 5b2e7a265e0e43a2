"""Lando graphs of link diagram states and the graph queries of the routes.

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

Graphs compare by equality: the same vertex tuple and the same edge set.
Lando graph vertices are crossing indices in crossing order, so two
diagrams numbered alike have equal Lando graphs exactly when the same
chords are admissible and interleave alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable

from .diagram import Diagram
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

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        keep_set = set(keep)
        return Graph(
            tuple(v for v in self.vertices if v in keep_set),
            frozenset(e for e in self.edges if e <= keep_set),
        )

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

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for e in sorted(sorted(e, key=self.vertices.index) for e in self.edges):
            u, v = e
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines)


def build_lando(d: Diagram) -> Graph:
    """Lando graph of a diagram's all-A state.

    The circles are the diagram's ``_all_a_circles``, traced once per
    diagram.  Crossing ci is a vertex when its chord endpoints ``(ci, 0)``
    and ``(ci, 1)`` lie on one circle; vertices come in crossing order.
    Free loops carry no chord.  The diagram keeps its graph, as the lando
    and dual routes and the bracket check each ask for it.
    """
    if "_lando" in d.__dict__:
        return d.__dict__["_lando"]
    ends: dict[int, list[tuple[int, int]]] = {}
    for k, circle in enumerate(d._all_a_circles):
        for pos, (ci, _) in enumerate(circle):
            if ci >= 0:  # (-k, 0) marks a free loop
                ends.setdefault(ci, []).append((k, pos))
    # chord_span[ci] = (circle, lower position, higher position)
    chord_span = {
        ci: (k1, p1, p2)
        for ci, ((k1, p1), (k2, p2)) in sorted(ends.items())
        if k1 == k2
    }
    vertices = list(chord_span)
    edges = []
    for u, v in itertools.combinations(vertices, 2):
        cu, lo_u, hi_u = chord_span[u]
        cv, lo_v, hi_v = chord_span[v]
        if cu != cv:
            continue
        if (lo_u < lo_v < hi_u) != (lo_u < hi_v < hi_u):
            edges.append((u, v))
    g = d.__dict__["_lando"] = Graph.build(vertices, edges)
    return g


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
    dominated (``_fold_masks``); I(g) is unchanged, and 0 when None is
    returned.  Deletions can disconnect the graph, so callers split the
    result again.
    """
    if not all(g.adjacency.values()):
        return None
    nbrs = _neighbour_masks(g)
    alive = _fold_masks(nbrs, (1 << len(nbrs)) - 1)
    if alive is None:
        return None
    if alive == (1 << len(nbrs)) - 1:
        return g
    return g.subgraph(v for k, v in enumerate(g.vertices) if alive >> k & 1)


def _neighbour_masks(g: Graph) -> list[int]:
    """Each vertex's neighbours as a mask over vertex positions."""
    bit = dict(zip(g.vertices, map((1).__lshift__, range(len(g.vertices)))))
    return [sum(map(bit.__getitem__, ns)) for ns in g.adjacency.values()]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _components(nbrs: list[int], alive: int) -> list[int]:
    """The connected components of the graph induced on ``alive``, as
    vertex masks, in the order of their lowest vertex."""
    comps = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= nbrs[v]
            frontier = reach & alive & ~comp
            comp |= frontier
        comps.append(comp)
        alive &= ~comp
    return comps


def _fold_masks(nbrs: list[int], alive: int) -> int | None:
    """The fold of the graph induced on ``alive``, as a vertex mask.

    Vertex k's neighbours are the mask ``nbrs[k]``, read inside ``alive``.
    Each pass visits the vertices in order and deletes v when some other
    live u has N(u) inside N(v); passes repeat until one deletes nothing.
    None means some vertex is isolated, at the start or after a deletion.
    """
    # cur[k]: the live neighbours of a live k, and -1 (no subset of any
    # neighbourhood) once k is dead, so that k is never taken as dominating
    cur = [m & alive if alive >> k & 1 else -1 for k, m in enumerate(nbrs)]
    if 0 in cur:
        return None
    changed = True
    while changed:
        changed = False
        for v, inside in enumerate(cur):
            if inside < 0:
                continue
            cur[v] = -1
            if 0 in map((~inside).__and__, cur):
                alive ^= 1 << v
                for w in _bits(inside):
                    cur[w] ^= 1 << v
                    if not cur[w]:
                        return None
                changed = True
            else:
                cur[v] = inside
    return alive


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

