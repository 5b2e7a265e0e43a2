"""Extreme Khovanov cohomology through the Lando graph.

The lowest quantum grading j_min of a diagram is realised exactly by the
enhanced states S_min: all circles signed minus, B-labels forming an
independent set of admissible A-chords.  That bijection turns the j_min row
of the Khovanov complex into the reduced simplicial cochain complex of the
independence complex X_D of the Lando graph, shifted by n - 1:

    H^{i, j_min}(D)  ~=  H~^{i-1+n}(X_D),       n = negative crossings.

Three routes to the same row live here.  'lando' computes the right-hand
side directly.  It first reduces the graph: a vertex v is deleted while
some u != v has N(u) inside N(v) (Engstrom's fold lemma keeps X_D up to
homotopy), and the row is zero as soon as a vertex is isolated (X_D is then
a cone).  What is left is split over its connected components, since
independence complexes of disjoint unions are joins, and equal components
are reduced once.  A component is then split at a vertex v (Adamaszek):
X is X(G - v) with a cone over X(G - N[v]) attached, and when the two
smaller graphs' homologies, reduced the same way, fix X's, no complex is
built.  Only the components that split at none of the vertices tried, and
single edges, have their complexes built.  'brute' restricts the enhanced-state
complex to j = j_min and reduces it, sharing no code with the geometric
route.  That row is X_D's reduced cochain complex entry for entry: the
basis element (B-bits, all minus) in degree i is the face of its
B-crossings in degree i + n - 1 (the tests compare every entry).  So lando
against brute checks the bijection, the graph reductions, the splitting
and the component join, never the reduction kernel, which all three routes
share.  'dual'
goes through the Alexander dual Y_D of a Jonsson complex of the
bipartite Lando graph,

    H^{i, j_min}(D)  ~=  H~_{|V|-i-1-n}(Y_D),

which is the route that stays small when X_D has millions of faces but the
chosen side V of the bipartition is thin.  Y_D is read straight off the
graph: its faces are the subsets of V containing no neighbourhood N(w) of
a vertex w on the other side, so no Jonsson face is ever listed.  It too is
split by connected component, each with its own thinner colour class as
V_k: Y of a disjoint union is the join of the Y_k, and |V| is the sum of
the |V_k|.  Both geometric routes fold their components' homologies in one
helper; a chordless diagram has no components, and both answer it with
the empty join.  Neither 'brute' nor 'dual' deletes dominated vertices or
splits at a vertex, so both stay independent checks of the reductions.

The j_max row comes through the mirror D' of the diagram.  By Khovanov's
duality Kh^{i,j}(D) has the free rank of Kh^{-i,-j}(D') and the torsion of
Kh^{1-i,-j}(D'), and j_max(D) = -j_min(D').  So the top row by any route is
that route's j_min row of D' with its degrees negated and its torsion moved
up one degree (``extreme_row`` with ``side='max'``).

Everything below the routes runs over Z.  A row is the cohomology of a
complex of free modules, so each route reads its row over Q or F_p off the
row over Z once, at the end, by the universal coefficient theorem (``over_ring``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .diagram import Diagram
from .errors import CapExceeded, EmptyPartW
from .khovanov import DEFAULT_CROSSING_CAP, _check_planar, j_bounds, khovanov_complex
from .lando import (
    Graph,
    _bits,
    _components,
    _fold_masks,
    _neighbour_masks,
    build_lando,
    fold_graph,
)
from .simplicial import (
    DEFAULT_FACE_CAP,
    AbelianGroup,
    cohomology,
    homology,
    independence_complex,
    join_homology,
    jonsson_dual,
    over_ring,
    shift_torsion,
)


@dataclass
class ExtremeRow:
    """One extreme row of a cohomology table, with its provenance.

    ``groups`` holds only the nonzero entries.  ``n`` is the negative
    crossing count of the diagram and ``shift`` the translation between
    complex degrees and diagram gradings.  On a j_min row ``shift`` is
    n - 1 and i = deg - shift.  On a j_max row (``side='max'``), ``n`` is
    still the diagram's but ``shift`` and ``provenance`` are its mirror
    row's, and i = shift - deg: the left trefoil (n = 3) reports shift = -1.
    """

    j: int
    groups: dict[int, AbelianGroup]
    provenance: str  # 'lando' | 'brute' | 'dual'
    n: int
    shift: int

    def summary(self, ring: str = "Z") -> str:
        if not self.groups:
            return f"j={self.j}: (row is zero)"
        cells = ", ".join(
            f"i={i}: {g.to_text(ring)}" for i, g in sorted(self.groups.items())
        )
        return f"j={self.j}: {cells}"


def _joined_homology(
    homologies: Iterable[dict[int, AbelianGroup]],
) -> dict[int, AbelianGroup]:
    """Reduced homology over Z of the join of some complexes, from each
    one's reduced homology, computed in turn.

    The homologies convolve (``join_homology``), starting from the empty
    complex, the unit of the join.  Once the running join is acyclic every
    later join is too, so the homologies not computed yet are left so.
    """
    folded = {-1: AbelianGroup(1)}
    for h in homologies:
        folded = join_homology(folded, h)
        if not folded:
            break
    return folded


def _split_sum(
    a: dict[int, AbelianGroup], b: dict[int, AbelianGroup]
) -> dict[int, AbelianGroup] | None:
    """H~(Ind G) from a = H~(Ind(G - v)) and b = H~(Ind(G - N[v])), both
    nonzero groups only, or None when they may not determine it.

    Ind G is Ind(G - v) with the cone v * Ind(G - N[v]) attached along
    Ind(G - N[v]), so the long exact sequence runs
    ... -> b_k -> a_k -> H~_k(Ind G) -> b_{k-1} -> a_{k-1} -> ...
    When no degree has both a_k and b_k, every map b_k -> a_k is zero and
    0 -> a_k -> H~_k -> b_{k-1} -> 0 is exact; it splits when b_{k-1} is
    free or a_k is zero.
    """
    out = dict(a)
    for k, grp in b.items():
        if k in a:
            return None
        if k + 1 in a:
            if grp.torsion:
                return None
            grp = a[k + 1].direct_sum(grp)
        out[k + 1] = grp
    return out


def lando_cohomology(g: Graph, cap: int = DEFAULT_FACE_CAP) -> dict[int, AbelianGroup]:
    """Reduced cohomology over Z of the independence complex X of a graph.

    The graph is folded first (``fold_graph``): dominated vertices are
    deleted, and a graph with an isolated vertex gives the zero row, X
    being a cone, before anything else is set up.  The rest is one
    recursion on vertex masks.  Each step folds again (``fold_graph``'s
    loop), splits what is left into connected components, smallest first,
    and convolves their homologies, X of a disjoint union being the join of
    their X's.  A graph with no vertices counts as one empty component,
    whose X is {∅}, the unit of the join.  Each component is looked up by its adjacency relabelled in vertex
    order, so equal components are reduced once per call.  A component of
    three or more vertices is split at a vertex v of highest degree, else
    at one of lowest (Adamaszek): X is X(G - v) with a cone over X(G - N[v])
    attached, both are reduced by the same recursion, and when their
    homologies fix X's (``_split_sum``) nothing is built.  Only a component
    that splits at neither, a single edge or the empty component has its X
    built and reduced, under the face cap ``cap``, so every graph that is
    not a cone has at least one complex built; ``cap`` also bounds how many
    distinct components the recursion reduces.  The dual and brute routes neither
    fold nor split.
    """
    core = fold_graph(g)
    if core is None:
        return {}
    nbrs = _neighbour_masks(core)
    memo: dict[tuple[int, ...], dict[int, AbelianGroup]] = {}
    budget = [cap]

    def reduced(alive: int) -> dict[int, AbelianGroup]:
        alive = _fold_masks(nbrs, alive)
        return {} if alive is None else joined(alive)

    def joined(alive: int) -> dict[int, AbelianGroup]:
        comps = sorted(_components(nbrs, alive), key=int.bit_count) or [0]
        return _joined_homology(map(component, comps))

    def component(comp: int) -> dict[int, AbelianGroup]:
        live = _bits(comp)
        local = {v: 1 << k for k, v in enumerate(live)}
        key = tuple(sum(local[u] for u in _bits(nbrs[v] & comp)) for v in live)
        if key in memo:
            return memo[key]
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceeded("vertex splitting", cap)
        candidates = ()
        if len(live) > 2:
            degree = {v: (nbrs[v] & comp).bit_count() for v in live}
            candidates = dict.fromkeys((max(live, key=degree.get), min(live, key=degree.get)))
        for v in candidates:
            b = reduced(comp & ~nbrs[v] & ~(1 << v))
            h = _split_sum(reduced(comp & ~(1 << v)), b)
            if h is not None:
                break
        else:
            x = independence_complex(core.subgraph(core.vertices[v] for v in live), cap)
            h = {k: grp for k, grp in homology(x).items() if not grp.is_trivial}
        memo[key] = h
        return h

    return shift_torsion(joined((1 << len(nbrs)) - 1), 1)


def _j_min_row(
    d: Diagram, groups_over_z: dict[int, AbelianGroup], ring: str, provenance: str
) -> ExtremeRow:
    """The j_min row of ``d`` over ``ring``, from its groups over Z by i;
    the j_max row replaces its j and shift."""
    n = d.negative_count
    groups = {i: g for i, g in over_ring(groups_over_z, ring).items() if not g.is_trivial}
    j_min, _ = j_bounds(d)
    return ExtremeRow(j=j_min, groups=groups, provenance=provenance, n=n, shift=n - 1)


def extreme_via_lando(
    d: Diagram, ring: str = "Z", cap: int = DEFAULT_FACE_CAP
) -> ExtremeRow:
    """The j_min row computed geometrically from the Lando graph."""
    n = d.negative_count
    h = lando_cohomology(build_lando(d), cap)
    return _j_min_row(d, {deg + 1 - n: grp for deg, grp in h.items()}, ring, "lando")


def extreme_via_brute(
    d: Diagram, ring: str = "Z", max_crossings: int = DEFAULT_CROSSING_CAP
) -> ExtremeRow:
    """The j_min row from the enhanced-state complex, no geometry involved."""
    cc = khovanov_complex(d, j_bounds(d)[0], max_crossings)
    return _j_min_row(d, cohomology(cc), ring, "brute")


def _dual_parts(g: Graph) -> list[tuple[Graph, list]]:
    """Each connected component of the Lando graph with its side V_k.

    V_k is the component's smaller colour class, which sends isolated
    vertices to W and keeps the ground set of Y_k thin.  The Lando graph of
    a planar diagram is bipartite (chords drawn inside the circles never
    interleave each other, nor do the outside ones).  Components come
    smallest first, so an isolated vertex, whose Y_k is void, ends the dual
    route before anything is enumerated.  A graph with no vertices has no
    parts, and Y_D is then the empty join.
    """
    coloring = g.two_coloring()
    if coloring is None:
        raise EmptyPartW("the Lando graph is not bipartite")
    parts = []
    for comp in g.connected_components():
        side0 = [v for v in comp if coloring[v] == 0]
        side1 = [v for v in comp if coloring[v] == 1]
        parts.append((g.subgraph(comp), side0 if len(side0) <= len(side1) else side1))
    return sorted(parts, key=lambda part: len(part[0].vertices))


def extreme_via_dual(
    d: Diagram, ring: str = "Z", cap: int = DEFAULT_FACE_CAP
) -> ExtremeRow:
    """The j_min row through Y_D:  H^{i,j_min} ~= H~_{|V|-i-1-n}(Y_D).

    Y_D is the join of the components' Y_k, each built from the
    neighbourhoods under its own ``cap``; |V| is the sum of the |V_k|.
    """
    n = d.negative_count
    parts = _dual_parts(build_lando(d))
    size_v = sum(len(side) for _, side in parts)
    h = _joined_homology(homology(jonsson_dual(comp, side, cap)) for comp, side in parts)
    groups = {size_v - 1 - n - deg: grp for deg, grp in h.items()}
    return _j_min_row(d, groups, ring, "dual")


def _mirror(d: Diagram) -> Diagram:
    """The mirror of ``d``, made once per diagram.  The diagram keeps it,
    as it keeps its Lando graph, so the routes at j_max share one mirror,
    whose circles are traced and whose Lando graph is built once."""
    if "_mirror" not in d.__dict__:
        d.__dict__["_mirror"] = d.mirror()
    return d.__dict__["_mirror"]


def extreme_row(
    d: Diagram,
    ring: str = "Z",
    method: str = "lando",
    cap: int = DEFAULT_FACE_CAP,
    max_crossings: int = DEFAULT_CROSSING_CAP,
    side: str = "min",
) -> ExtremeRow:
    """The j_min or j_max row (``side`` 'min' or 'max') by the route
    ``method``: 'lando', 'brute' or 'dual'.

    The j_max row is the same route's row of the mirror over Z, with its
    degrees negated and its torsion moved up one degree (Khovanov's
    duality), and only then read over ``ring``.  That needs a planar
    diagram: a virtual one raises NonPlanarDiagram.
    """
    if side == "max":
        _check_planar(d, "Khovanov duality, which gives the j_max row,")
        row = extreme_row(_mirror(d), "Z", method, cap, max_crossings)
        groups = shift_torsion({-i: g for i, g in row.groups.items()}, 1)
        top = _j_min_row(d, groups, ring, row.provenance)
        return replace(top, j=j_bounds(d)[1], shift=row.shift)
    if side != "min":
        raise ValueError(f"unknown side {side!r} (use min or max)")
    if method == "lando":
        return extreme_via_lando(d, ring, cap)
    if method == "brute":
        return extreme_via_brute(d, ring, max_crossings)
    if method == "dual":
        return extreme_via_dual(d, ring, cap)
    raise ValueError(f"unknown method {method!r} (use lando, brute or dual)")
