"""Exact graph reductions on the geometric route.

``lando_cohomology`` deletes dominated vertices and stops at an isolated
vertex before it builds any complex.  These tests check it against the
unreduced independence complex, against Kozlov's closed forms for paths
and cycles far past the reach of the whole complex, and check that every
graph the route still builds is irreducible.
"""

import random

import pytest

from conftest import cycle_graph, path_graph, random_graph
from exkh import extreme
from exkh.errors import CapExceeded
from exkh.extreme import extreme_via_lando, lando_cohomology
from exkh.families import catalog_diagram
from exkh.lando import Graph, build_lando, fold_graph, independence_number
from exkh.simplicial import AbelianGroup, cohomology_of, independence_complex, over_ring

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
        adj = g.adjacency
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
    adj = g.adjacency
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
    assert len(core.connected_components()) == 2


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
    for n in range(3, 19):
        k, r = divmod(n, 3)
        want = {0: {k - 1: Z(2)}, 1: {k - 1: Z(1)}, 2: {k: Z(1)}}[r]
        assert nonzero(lando_cohomology(cycle_graph(n))) == want, n


def test_every_built_graph_is_irreducible(monkeypatch, corpus12):
    built: list[Graph] = []

    def recording(g, cap=extreme.DEFAULT_FACE_CAP):
        assert is_irreducible(g), g
        built.append(g)
        return independence_complex(g, cap)

    monkeypatch.setattr(extreme, "independence_complex", recording)
    for g in oracle_graphs():
        lando_cohomology(g)
    for g in (cycle_graph(6), *map(path_graph, (5, 8, 30, 60))):
        lando_cohomology(g)
    for d in [catalog_diagram("hexagon_link"), *corpus12]:
        extreme_via_lando(d, "Z")
    assert cycle_graph(6) in built


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
