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
independence complexes of disjoint unions are joins, and only those
components' complexes are built.  'brute' restricts the enhanced-state
complex to j = j_min and reduces it, sharing no code with the geometric
route; agreement of the two is the strongest self-test in the package.
'dual' goes through the Alexander dual Y_D of a Jonsson complex of the
bipartite Lando graph,

    H^{i, j_min}(D)  ~=  H~_{|V|-i-1-n}(Y_D),

which is the route that stays small when X_D has millions of faces but the
chosen side V of the bipartition is thin.  Y_D is read straight off the
graph: its faces are the subsets of V containing no neighbourhood N(w) of
a vertex w on the other side, so no Jonsson face is ever listed.  It too is
split by connected component, each with its own thinner colour class as
V_k: Y of a disjoint union is the join of the Y_k, and |V| is the sum of
the |V_k|.  Both geometric routes fold their components' homologies in one
helper and so differ only in the complex they build; a chordless diagram
has no components, and both answer it with the empty join.  Neither
'brute' nor 'dual' deletes dominated vertices, so both stay independent
checks of the reductions.

The j_max row comes through the mirror D' of the diagram.  By Khovanov's
duality Kh^{i,j}(D) has the free rank of Kh^{-i,-j}(D') and the torsion of
Kh^{1-i,-j}(D'), and j_max(D) = -j_min(D').  So the top row is the lando
row of D' with its degrees negated and its torsion moved up one degree,
over every ring and without enumerating a state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .diagram import A, B, Diagram, State
from .errors import EmptyPartW
from .khovanov import DEFAULT_CROSSING_CAP, EnhancedState, _j_rows, j_bounds
from .lando import Graph, build_lando, fold_graph, is_complete_bipartite
from .simplicial import (
    DEFAULT_FACE_CAP,
    AbelianGroup,
    SimplicialComplex,
    cohomology,
    homology,
    independence_complex,
    join_homology,
    jonsson_dual,
    parse_ring,
    shift_torsion,
)


@dataclass
class ExtremeRow:
    """One extreme row of a cohomology table, with its provenance.

    ``groups`` holds only the nonzero entries; ``shift`` records the degree
    translation n - 1 between diagram gradings and complex gradings.
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

    def ranks_from_lowest(self) -> tuple[AbelianGroup, ...]:
        """The group sequence starting at the lowest nonzero i.

        Reorienting components shifts the whole row in i; comparing these
        sequences factors that shift out.
        """
        if not self.groups:
            return ()
        lo = min(self.groups)
        hi = max(self.groups)
        return tuple(
            self.groups.get(i, AbelianGroup(0)) for i in range(lo, hi + 1)
        )


def s_min_states(d: Diagram, cap: int = DEFAULT_FACE_CAP) -> set[EnhancedState]:
    """The enhanced states realising j = j_min.

    They are exactly the all-minus enhancements of states whose B-labelled
    crossings form an independent set of the Lando graph; in particular
    there are as many of them as X_D has faces, the empty face included.
    """
    g = build_lando(d)
    x = independence_complex(g, cap)
    out: set[EnhancedState] = set()
    c = d.crossing_count
    for face in x.faces(cap):
        chords = set(face)
        labels = tuple(B if k in chords else A for k in range(c))
        state = State(labels)
        m = len(d._resolve_bits(sum(1 << k for k in chords)))
        out.add(EnhancedState(state, (-1,) * m))
    return out


def _joined_homology(
    complexes: Iterable[SimplicialComplex], ring: str, cap: int
) -> dict[int, AbelianGroup]:
    """Reduced homology of the join of the complexes, built one at a time.

    The homologies convolve (``join_homology``), starting from the empty
    complex, the unit of the join.  Once the running join is acyclic every
    later join is too, so the complexes not built yet are left unbuilt.
    """
    folded = {-1: AbelianGroup(1)}
    for x in complexes:
        hk = homology(x, ring, cap)
        folded = join_homology(folded, {k: g for k, g in hk.items() if not g.is_trivial})
        if not folded:
            break
    return folded


def lando_cohomology(
    g: Graph, ring: str = "Z", cap: int = DEFAULT_FACE_CAP
) -> dict[int, AbelianGroup]:
    """Reduced cohomology of the independence complex of a graph.

    The graph is reduced first (``fold_graph``): dominated vertices are
    deleted, and a graph with an isolated vertex gives the zero row without
    building anything.  The reduced graph is handled component by
    component, smallest first: X of a disjoint union is the join of the
    X's, so the homologies convolve; that keeps a graph with thirty
    vertices in three components tractable even though its independence
    complex would have millions of faces.  A graph with no vertices counts
    as one empty component, whose X is {∅}, the unit of the join; so every
    graph that is not a cone has at least one complex built.  ``cap``
    bounds each component's complex.  The dual and brute routes delete no
    vertices.
    """
    parse_ring(ring)
    core = fold_graph(g)
    if core is None:
        return {}
    comps = sorted(core.connected_components(), key=len) or [()]
    h = _joined_homology(
        (independence_complex(core.subgraph(c), cap) for c in comps), ring, cap
    )
    return shift_torsion(h, 1)


def extreme_via_lando(
    d: Diagram, ring: str = "Z", cap: int = DEFAULT_FACE_CAP
) -> ExtremeRow:
    """The j_min row computed geometrically from the Lando graph."""
    n = d.negative_count
    j_min, _ = j_bounds(d)
    groups = {
        deg + 1 - n: grp
        for deg, grp in lando_cohomology(build_lando(d), ring, cap).items()
        if not grp.is_trivial
    }
    return ExtremeRow(
        j=j_min, groups=groups, provenance="lando", n=n, shift=n - 1
    )


def extreme_via_brute(
    d: Diagram, ring: str = "Z", max_crossings: int = DEFAULT_CROSSING_CAP
) -> ExtremeRow:
    """The j_min row from the enhanced-state complex, no geometry involved.

    The row's integer-keyed complex is reduced as built; no EnhancedState
    is made.
    """
    n = d.negative_count
    j_min, _ = j_bounds(d)
    groups = {
        i: grp
        for i, grp in cohomology(_j_rows(d, j_min, max_crossings)[j_min], ring).items()
        if not grp.is_trivial
    }
    return ExtremeRow(j=j_min, groups=groups, provenance="brute", n=n, shift=n - 1)


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


def y_complex(d: Diagram, cap: int = DEFAULT_FACE_CAP) -> SimplicialComplex:
    """The Alexander dual Y_D of a Jonsson complex of the Lando graph, whole.

    Built straight from the neighbourhoods (``jonsson_dual``): the faces are
    the subsets of V, the union of the components' sides V_k, that contain
    no N(w) for w in W.  The dual route itself never builds this whole
    complex, only its components' Y_k.

    Raises EmptyPartW when W is empty, as it is when the graph has no
    vertices; the dual route answers that graph with the empty join.
    """
    g = build_lando(d)
    return jonsson_dual(g, [v for _, side in _dual_parts(g) for v in side], cap)


def extreme_via_dual(
    d: Diagram, ring: str = "Z", cap: int = DEFAULT_FACE_CAP
) -> ExtremeRow:
    """The j_min row through Y_D:  H^{i,j_min} ~= H~_{|V|-i-1-n}(Y_D).

    Y_D is the join of the components' Y_k, each built from the
    neighbourhoods under its own ``cap``; |V| is the sum of the |V_k|.
    """
    parse_ring(ring)
    n = d.negative_count
    j_min, _ = j_bounds(d)
    parts = _dual_parts(build_lando(d))
    size_v = sum(len(side) for _, side in parts)
    h = _joined_homology(
        (jonsson_dual(comp, side, cap) for comp, side in parts), ring, cap
    )
    groups = {size_v - 1 - n - deg: grp for deg, grp in h.items()}
    return ExtremeRow(
        j=j_min, groups=groups, provenance="dual", n=n, shift=n - 1
    )


def extreme_jmax(
    d: Diagram, ring: str = "Z", cap: int = DEFAULT_FACE_CAP
) -> ExtremeRow:
    """The j_max row of a diagram, from the lando row of its mirror.

    The mirror's degrees are negated and its torsion moves up one degree
    (Khovanov's duality, which holds for planar diagrams).  Over a field
    there is no torsion to move, so one path serves every ring; ``cap``
    bounds the mirror's complexes.
    """
    _, j_max = j_bounds(d)
    row = extreme_via_lando(d.mirror(), ring, cap)
    groups = shift_torsion({-i: grp for i, grp in row.groups.items()}, 1)
    return ExtremeRow(
        j=j_max,
        groups={i: grp for i, grp in groups.items() if not grp.is_trivial},
        provenance="lando",
        n=d.negative_count,
        shift=row.shift,
    )


def extreme_row(
    d: Diagram,
    ring: str = "Z",
    method: str = "lando",
    cap: int = DEFAULT_FACE_CAP,
    max_crossings: int = DEFAULT_CROSSING_CAP,
) -> ExtremeRow:
    """The j_min row by the route ``method``: 'lando', 'brute' or 'dual'."""
    if method == "lando":
        return extreme_via_lando(d, ring, cap)
    if method == "brute":
        return extreme_via_brute(d, ring, max_crossings)
    if method == "dual":
        return extreme_via_dual(d, ring, cap)
    raise ValueError(f"unknown method {method!r} (use lando, brute or dual)")


def krs_criterion(d: Diagram, ring: str = "Z") -> AbelianGroup:
    """The group at (1 - n, j_min), read off the Lando graph's shape.

    It is one copy of the coefficient ring when the Lando graph is a
    complete bipartite graph K_{r,s} (r, s >= 1) and trivial otherwise;
    this is the degree where H~^0(X_D) sits, and the independence complex
    of a graph is disconnected exactly in the complete bipartite case,
    when it is a disjoint union of two simplices.
    """
    parse_ring(ring)
    g = build_lando(d)
    if is_complete_bipartite(g) is not None:
        return AbelianGroup(1)
    return AbelianGroup(0)
