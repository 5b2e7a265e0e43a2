"""Exact graph reductions on the geometric route.

``lando_cohomology`` deletes dominated vertices, stops at an isolated
vertex before it builds any complex, and splits each component at a
vertex.  These tests check it against the unreduced independence complex
over Z, Q, F2 and F3, against Kozlov's closed forms for paths and cycles
far past the reach of the whole complex, check that every graph the route
still builds is irreducible and that no cycle is built whole, that equal
components are reduced once, and that torsion in the cone part keeps a
split from being taken.
"""

import random
import time

import pytest

from conftest import (
    adjacency,
    connected_components,
    cycle_graph,
    fold_graph,
    path_graph,
    random_graph,
    torus_graph,
)
from exkh import extreme
from exkh.errors import CapExceeded
from exkh.extreme import extreme_via_lando, lando_cohomology
from exkh.families import catalog_diagram, thick_family
from exkh.lando import Graph, build_lando, independence_number
from exkh.simplicial import (
    AbelianGroup,
    cohomology_of,
    homology,
    independence_complex,
    over_ring,
    shift_torsion,
)

Z = AbelianGroup
RINGS = ("Z", "Q", "F2", "F3")


def nonzero(groups):
    return {k: g for k, g in groups.items() if not g.is_trivial}


def with_vertex(g: Graph, nbrs) -> Graph:
    """g plus one new vertex joined to ``nbrs``."""
    v = len(g.vertices)
    edges = [*map(tuple, g.edges), *((v, u) for u in nbrs)]
    return Graph.build((*g.vertices, v), edges)


def planted_graphs(rng: random.Random) -> list[Graph]:
    """Random graphs given a dominated vertex or an isolated one."""
    out = []
    while len(out) < 40:
        g = random_graph(rng, max_vertices=8)
        adj = adjacency(g)
        hosts = [u for u in g.vertices if adj[u]]
        if not hosts:
            continue
        u = rng.choice(hosts)
        extra = [w for w in g.vertices if w != u and rng.random() < 0.3]
        out.append(with_vertex(g, set(adj[u]) | set(extra)))  # N(u) inside N(new)
        out.append(with_vertex(g, ()))
    return out


def oracle_graphs() -> list[Graph]:
    rng = random.Random(20261018)
    graphs = [random_graph(rng) for _ in range(200)]
    return graphs + planted_graphs(rng) + [Graph.build([], [])]


def is_irreducible(g: Graph) -> bool:
    adj = adjacency(g)
    return all(adj[v] for v in g.vertices) and not any(
        u != v and adj[u] <= adj[v] for u in g.vertices for v in g.vertices
    )


# --------------------------------------------------------------------------
# the reduction against the unreduced complex
# --------------------------------------------------------------------------


def test_reduced_route_equals_unreduced_complex():
    graphs = oracle_graphs()
    assert any(fold_graph(g) is None for g in graphs)
    assert any(
        fold_graph(g) is not None and len(fold_graph(g).vertices) < len(g.vertices)
        for g in graphs
    )
    for g in graphs:
        for ring in RINGS:
            want = nonzero(over_ring(cohomology_of(independence_complex(g)), ring))
            assert nonzero(over_ring(lando_cohomology(g), ring)) == want, (g, ring)


def test_empty_graph_keeps_the_empty_face():
    g = Graph.build([], [])
    assert fold_graph(g) == g
    for ring in RINGS:
        assert nonzero(over_ring(lando_cohomology(g), ring)) == {-1: Z(1)}


def test_reduction_keeps_independence_number():
    for g in oracle_graphs():
        core = fold_graph(g)
        if core is None:
            assert independence_number(g) == 0
        else:
            assert independence_number(core) == independence_number(g)
            assert is_irreducible(core)


def test_isolated_vertex_is_a_cone():
    assert fold_graph(Graph.build([0, 1, 2], [(0, 1)])) is None
    assert fold_graph(path_graph(1)) is None


def test_dominated_vertex_is_deleted():
    # N(0) = {1} lies inside N(2) = {1, 3}: 2 goes, and 0-1, 3-4 stay
    core = fold_graph(path_graph(5))
    assert core == Graph.build([0, 1, 3, 4], [(0, 1), (3, 4)])
    assert len(connected_components(core)) == 2


# --------------------------------------------------------------------------
# closed forms past the reach of the whole complex (Kozlov 1999)
# --------------------------------------------------------------------------


def test_paths_match_kozlov():
    # P_n folds to a cone or to disjoint edges, so a small cap suffices and
    # a fall-back to the whole complex fails fast
    for n in range(61):
        k = (n + 2) // 3  # n is 3k - 2, 3k - 1 or 3k
        want = {} if n % 3 == 1 else {k - 1: Z(1)}
        assert nonzero(lando_cohomology(path_graph(n), cap=64)) == want, n


def test_cycles_match_kozlov():
    for n in range(3, 61):
        k, r = divmod(n, 3)
        want = {0: {k - 1: Z(2)}, 1: {k - 1: Z(1)}, 2: {k: Z(1)}}[r]
        assert nonzero(lando_cohomology(cycle_graph(n))) == want, n


def test_c60_takes_under_a_second():
    # its X has about 3.5 * 10^12 faces; the splitting reduces two distinct
    # components, C_60 itself and an edge
    start = time.perf_counter()
    h = lando_cohomology(cycle_graph(60))
    assert time.perf_counter() - start < 1
    assert nonzero(h) == {19: Z(2)}


def test_every_built_graph_is_irreducible(monkeypatch, corpus12):
    built: list[Graph] = []

    def recording(g, cap=extreme.DEFAULT_FACE_CAP):
        assert is_irreducible(g), g
        built.append(g)
        return independence_complex(g, cap)

    monkeypatch.setattr(extreme, "independence_complex", recording)
    for g in oracle_graphs():
        lando_cohomology(g)
    for g in map(path_graph, (5, 8, 30, 60)):
        lando_cohomology(g)
    for d in [catalog_diagram("hexagon_link"), *corpus12]:
        extreme_via_lando(d, "Z")
    # C_4 x C_5 splits at no vertex, so it is still built whole
    lando_cohomology(torus_graph(4, 5))
    assert torus_graph(4, 5) in built
    # no cycle is: each one splits down to edges
    for n in range(6, 61):
        built.clear()
        lando_cohomology(cycle_graph(n))
        assert built and max(len(g.vertices) for g in built) == 2, n


# --------------------------------------------------------------------------
# vertex splitting against the whole complex
# --------------------------------------------------------------------------


def sparse_graphs(rng: random.Random, count: int) -> list[Graph]:
    """Graphs on 8-16 vertices, each vertex joined to two or three others
    drawn at random (repeats and loops dropped)."""
    out = []
    for _ in range(count):
        n = rng.randint(8, 16)
        edges = {
            tuple(sorted((u, v)))
            for u in range(n)
            for v in rng.choices(range(n), k=rng.choice((2, 3)))
            if u != v
        }
        out.append(Graph.build(range(n), sorted(edges)))
    return out


def test_split_route_equals_whole_complex(monkeypatch):
    rng = random.Random(3)
    graphs = [random_graph(rng, max_vertices=12) for _ in range(100)]
    graphs += sparse_graphs(rng, 99) + [torus_graph(4, 5)]
    splits, built = [], []
    split_sum = extreme._split_sum

    def recording_split(a, b):
        h = split_sum(a, b)
        splits.append(h is not None)
        return h

    def recording_build(g, cap=extreme.DEFAULT_FACE_CAP):
        built.append(len(g.vertices))
        return independence_complex(g, cap)

    monkeypatch.setattr(extreme, "_split_sum", recording_split)
    monkeypatch.setattr(extreme, "independence_complex", recording_build)
    for g in graphs:
        want = homology(independence_complex(g))
        got = lando_cohomology(g)
        assert nonzero(shift_torsion(got, -1)) == nonzero(want), g
        for ring in RINGS[1:]:
            want_r = nonzero(over_ring(shift_torsion(want, 1), ring))
            assert nonzero(over_ring(got, ring)) == want_r, (g, ring)
    # splits, failed splits and whole builds of pieces past an edge all ran
    assert sum(splits) > 100 and not all(splits)
    assert max(built) > 2


def test_equal_components_are_reduced_once(monkeypatch):
    splits = []
    split_sum = extreme._split_sum

    def recording(a, b):
        splits.append((a, b))
        return split_sum(a, b)

    monkeypatch.setattr(extreme, "_split_sum", recording)
    g1, g3 = (build_lando(thick_family(n)) for n in (1, 3))
    lando_cohomology(g1)
    one = len(splits)
    splits.clear()
    h = lando_cohomology(g3)
    # three copies of one component, the last two read back from the memo
    assert len(connected_components(fold_graph(g3))) == 3
    assert one and len(splits) == one
    lo = min(h)
    assert nonzero(h) == {lo + k: Z(r) for k, r in enumerate((1, 3, 3, 1))}


def test_torsion_in_the_cone_part_is_not_split_off(monkeypatch):
    # With a stand-in for the X of an edge (two points) that gives it
    # Z/2 in degree 0, C_6 split at vertex 0 has b = H~(X(P_3)) = Z/2 in
    # degree 0 and a = H~(X(P_5)), the join of two such, Z/2 in degrees 1
    # and 2.  No degree holds both, but 0 -> a_1 -> H~_1 -> b_0 -> 0 need
    # not split, so C_6 must be built whole.
    built = []

    def stand_in(x):
        built.append(len(x.ground))
        return {0: Z(0, (2,))} if len(x.ground) == 2 else homology(x)

    monkeypatch.setattr(extreme, "homology", stand_in)
    assert nonzero(lando_cohomology(cycle_graph(6))) == {1: Z(2)}
    assert built == [2, 6]


# --------------------------------------------------------------------------
# the face cap bounds only what is built
# --------------------------------------------------------------------------


def test_cone_needs_no_faces():
    g = path_graph(22)  # 22 = 1 mod 3: folds to a cone
    with pytest.raises(CapExceeded):
        independence_complex(g, cap=1)
    assert lando_cohomology(g, cap=1) == {}


def test_cone_diagrams_give_the_zero_row_under_cap_one(corpus12):
    cones = [
        d for d in corpus12
        if len(build_lando(d).vertices) >= 4 and fold_graph(build_lando(d)) is None
    ]
    assert cones
    for d in cones:
        assert extreme_via_lando(d, "Z", cap=1).groups == {}
