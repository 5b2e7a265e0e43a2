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

A graph holds its adjacency in one form, ``Graph.nbrs``: each vertex's
neighbours as a bitmask over vertex positions, made once per graph.  The
lando and dual routes, ``independence_number``, the 2-colouring and the
independence complexes all read that form, and take their connected
components from one finder, ``_components``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

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
    def nbrs(self) -> tuple[int, ...]:
        """Each vertex's neighbours as a bitmask over vertex positions (bit
        k is ``vertices[k]``), made once per graph; every graph query of
        the package reads this form."""
        pos = {v: k for k, v in enumerate(self.vertices)}
        out = [0] * len(self.vertices)
        for u, v in self.edges:
            out[pos[u]] |= 1 << pos[v]
            out[pos[v]] |= 1 << pos[u]
        return tuple(out)

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        keep_set = set(keep)
        return Graph(
            tuple(v for v in self.vertices if v in keep_set),
            frozenset(e for e in self.edges if e <= keep_set),
        )

    def two_coloring(self) -> dict[Vertex, int] | None:
        """A proper 2-coloring by 0/1, or None when none exists.

        Vertices of each connected component are colored so that color 0 is
        the side containing the component's first vertex.
        """
        sides = _sides(self.nbrs)
        if sides is None:
            return None
        ones = sum(side1 for _, side1 in sides)
        return {v: ones >> k & 1 for k, v in enumerate(self.vertices)}

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

    Recursion on the neighbour masks: pick a vertex v of maximal degree in
    each connected component (``_components``) and use
    I(G) = I(G - v) - I(G - N[v]); components multiply and any isolated
    vertex kills the product.  Nothing is folded.  ``cap`` bounds the
    number of recursion nodes.
    """
    nbrs = g.nbrs
    budget = [cap]

    def count(alive: int) -> int:
        if budget[0] <= 0:
            raise CapExceeded("independence recursion", cap)
        budget[0] -= 1
        value = 1
        for comp in _components(nbrs, alive):
            if not comp & comp - 1:
                return 0  # isolated vertex: (1 - 1) factor
            v = max(_bits(comp), key=lambda u: (nbrs[u] & comp).bit_count())
            value *= count(comp ^ 1 << v) - count(comp & ~nbrs[v] & ~(1 << v))
            if not value:
                return 0
        return value

    return count((1 << len(nbrs)) - 1)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _components(nbrs: Sequence[int], alive: int) -> list[int]:
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


def _fold_masks(nbrs: Sequence[int], alive: int) -> int | None:
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


def _sides(nbrs: Sequence[int]) -> list[tuple[int, int]] | None:
    """Each connected component's two colour classes, as vertex masks, the
    class of its lowest vertex first; None when some component has an odd
    cycle.

    The classes are the even and the odd layers of a breadth-first sweep
    from the lowest vertex; an edge inside a layer closes an odd cycle.
    """
    sides = []
    for comp in _components(nbrs, (1 << len(nbrs)) - 1):
        side = [0, 0]
        frontier, parity = comp & -comp, 0
        while frontier:
            side[parity] |= frontier
            reach = 0
            for v in _bits(frontier):
                reach |= nbrs[v]
            if reach & side[parity]:
                return None
            frontier, parity = reach & ~side[1 - parity], 1 - parity
        sides.append((side[0], side[1]))
    return sides


def _squeeze(masks: Iterable[int], keep: int) -> tuple[int, ...]:
    """Each mask's bits inside ``keep``, renumbered in order along the set
    bits of ``keep``: neighbour masks over the subgraph induced on it."""
    local = {v: 1 << k for k, v in enumerate(_bits(keep))}
    return tuple(sum(map(local.__getitem__, _bits(m & keep))) for m in masks)


def is_complete_bipartite(g: Graph) -> tuple[int, int] | None:
    """Return (r, s) when g is a complete bipartite graph K_{r,s}, r,s >= 1.

    Equivalently: the complement of g has exactly two connected components,
    each of them a clique in the complement (i.e. independent in g).
    """
    sides = _sides(g.nbrs)
    # g must be one connected component, for the coloring to be forced, with
    # both sides nonempty, and every cross pair must be an edge
    if sides is None or len(sides) != 1 or not all(sides[0]):
        return None
    (side0, side1), nbrs = sides[0], g.nbrs
    if any(nbrs[k] != side1 for k in _bits(side0)) or any(nbrs[k] != side0 for k in _bits(side1)):
        return None
    return (side0.bit_count(), side1.bit_count())
