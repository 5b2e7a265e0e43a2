import random

import pytest

from conftest import (
    adjacency,
    complete_bipartite_graph,
    connected_components,
    cycle_graph,
    degree,
    find_isomorphism,
    independent_sets_by_enumeration,
    isomorphic,
    lando_by_alternating_ends,
    path_graph,
    random_graph,
    two_hexagons_shared_vertex,
)
from exkh.diagram import Diagram, ResolvedState, parse_pd
from exkh.errors import CapExceeded
from exkh.extreme import extreme_via_dual, extreme_via_lando
from exkh.families import catalog_diagram
from exkh.lando import Graph, build_lando, independence_number, is_complete_bipartite

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
HOPF = "X(4,2,1,3) X(2,4,3,1)"


def test_graph_build_and_adjacency():
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
    assert degree(g, 2) == 2
    assert adjacency(g)[1] == frozenset({2})
    with pytest.raises(ValueError):
        Graph.build([1, 1], [])
    with pytest.raises(ValueError):
        Graph.build([1, 2], [(1, 3)])


def test_constructors():
    c6 = cycle_graph(6)
    assert len(c6.vertices) == 6 and len(c6.edges) == 6
    p4 = path_graph(4)
    assert len(p4.edges) == 3
    k23 = complete_bipartite_graph(2, 3)
    assert len(k23.edges) == 6
    th = two_hexagons_shared_vertex()
    assert len(th.vertices) == 11 and len(th.edges) == 12
    assert th.two_coloring() is not None


def test_two_coloring_on_cycles():
    assert cycle_graph(6).two_coloring() is not None
    assert cycle_graph(5).two_coloring() is None
    colors = path_graph(5).two_coloring()
    for e in path_graph(5).edges:
        u, v = tuple(e)
        assert colors[u] != colors[v]
    # a bipartite component followed by an odd cycle
    assert Graph.build(range(6), [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]).two_coloring() is None
    # P_3, C_4 and an isolated vertex, interleaved in the vertex order
    g = Graph.build(
        (4, 1, 7, 0, 3, 2, 6, 5), [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)]
    )
    colors = g.two_coloring()
    assert set(colors) == set(g.vertices)
    for u, v in g.edges:
        assert colors[u] != colors[v]
    # color 0 on each component's first vertex
    assert colors[4] == colors[1] == colors[7] == 0


def test_lando_graph_of_hopf_is_empty():
    # both chords join the two all-A circles, so neither is admissible
    g = build_lando(parse_pd(HOPF))
    assert len(g.vertices) == 0
    assert len(g.edges) == 0


def test_lando_graph_single_edge():
    # one all-A circle with two interleaved chords
    g = build_lando(parse_pd("X(2,3,4,1) X(4,3,2,1)"))
    assert len(g.vertices) == 2
    assert len(g.edges) == 1
    assert is_complete_bipartite(g) == (1, 1)
    # signed sums over each side vanish, the shared empty set survives
    assert independence_number(g) == -1


def test_lando_graph_of_trefoil_is_edgeless():
    # all-A state of the standard trefoil has three circles; every chord
    # joins two different circles, so nothing is admissible
    g = build_lando(parse_pd(TREFOIL))
    assert len(g.vertices) == 0
    assert independence_number(g) == 1


def test_lando_admissibility_depends_on_kink_handedness():
    # this kink's all-A state is one circle, so its chord is admissible
    g = build_lando(parse_pd("X(1,2,2,1)"))
    assert len(g.vertices) == 1
    assert len(g.edges) == 0
    assert independence_number(g) == 0  # isolated vertex kills I(G)
    # the other kink resolves to two circles, chord not admissible
    g2 = build_lando(parse_pd("X(1,1,2,2)"))
    assert len(g2.vertices) == 0
    assert independence_number(g2) == 1


def test_lando_reads_only_the_all_a_circles(monkeypatch):
    made, traced = [], []
    real_init, real_trace = ResolvedState.__init__, Diagram._resolve_bits

    def recording_init(self, *args, **kwargs):
        made.append(args)
        real_init(self, *args, **kwargs)

    def recording_trace(self, bits):
        traced.append(bits)
        return real_trace(self, bits)

    def no_resolve(self, state):
        raise AssertionError("build_lando called Diagram.resolve")

    monkeypatch.setattr(ResolvedState, "__init__", recording_init)
    monkeypatch.setattr(Diagram, "_resolve_bits", recording_trace)
    monkeypatch.setattr(Diagram, "resolve", no_resolve)
    d = parse_pd(catalog_diagram("eleven_crossing").to_pd())
    g = build_lando(d)
    assert len(g.vertices) == 11 and len(g.edges) == 12
    assert made == []
    assert traced == [0]


def test_a_diagram_builds_its_lando_graph_once(monkeypatch):
    built = []
    real = Graph.build

    def recording(vertices, edges):
        built.append(vertices)
        return real(vertices, edges)

    # build_lando is the only caller of Graph.build on these three paths
    monkeypatch.setattr(Graph, "build", staticmethod(recording))
    d = parse_pd(catalog_diagram("eleven_crossing").to_pd())
    independence_number(build_lando(d))
    extreme_via_lando(d)
    extreme_via_dual(d)
    assert len(built) == 1


def test_lando_of_a_diagram_equals_lando_of_its_all_a_resolution(corpus12):
    for d in corpus12:
        assert build_lando(d) == lando_by_alternating_ends(d), d.to_pd()


def test_lando_graphs_are_bipartite_on_corpus(corpus12):
    for d in corpus12[:60]:
        assert build_lando(d).two_coloring() is not None


def test_independence_number_matches_enumeration():
    rng = random.Random(7)
    graphs = [random_graph(rng) for _ in range(150)]
    for _ in range(50):
        # two random graphs side by side, and now and then an isolated vertex
        g, h = random_graph(rng, 5), random_graph(rng, 5)
        n = len(g.vertices)
        lone = [n + len(h.vertices)] if rng.random() < 0.3 else []
        graphs.append(Graph.build(
            [*g.vertices, *(n + v for v in h.vertices), *lone],
            [*map(tuple, g.edges), *((n + u, n + v) for u, v in h.edges)],
        ))
    assert len(graphs) == 200
    assert sum(len(connected_components(g)) > 1 for g in graphs) >= 50
    assert sum(any(not ns for ns in adjacency(g).values()) for g in graphs) >= 50
    for g in graphs:
        expected = sum(
            (-1) ** len(s) for s in independent_sets_by_enumeration(g)
        )
        assert independence_number(g) == expected, g


def test_independence_number_identities():
    rng = random.Random(8)
    for _ in range(25):
        g = random_graph(rng)
        if not g.vertices:
            assert independence_number(g) == 1
            continue
        v = g.vertices[0]
        minus_v = g.subgraph(set(g.vertices) - {v})
        minus_nv = g.subgraph(set(g.vertices) - {v} - adjacency(g)[v])
        assert independence_number(g) == independence_number(
            minus_v
        ) - independence_number(minus_nv)


def test_independence_number_multiplies_over_components():
    g = Graph.build(
        [1, 2, 3, 4, 5, 6, 7], [(1, 2), (2, 3), (4, 5), (5, 6), (6, 4)]
    )
    # path P3 x triangle x isolated vertex
    assert independence_number(g) == 0
    h = Graph.build([1, 2, 3, 4, 5], [(1, 2), (3, 4), (4, 5)])
    assert independence_number(h) == independence_number(
        path_graph(2)
    ) * independence_number(path_graph(3))


def test_independence_number_cap():
    two_triangles = Graph.build(
        range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    with pytest.raises(CapExceeded):
        independence_number(two_triangles, cap=2)


def test_is_complete_bipartite():
    assert is_complete_bipartite(complete_bipartite_graph(2, 3)) == (2, 3)
    assert is_complete_bipartite(complete_bipartite_graph(1, 1)) == (1, 1)
    assert is_complete_bipartite(cycle_graph(6)) is None
    assert is_complete_bipartite(Graph.build([1, 2], [])) is None
    assert is_complete_bipartite(Graph.build([], [])) is None
    assert is_complete_bipartite(cycle_graph(4)) == (2, 2)
    k23 = complete_bipartite_graph(2, 3)
    assert is_complete_bipartite(Graph.build((*k23.vertices, "x"), k23.edges)) is None


def test_isomorphism_positive_and_negative():
    g = cycle_graph(6)
    relabeled = Graph.build(
        list("abcdef"),
        [("a", "c"), ("c", "e"), ("e", "b"), ("b", "d"), ("d", "f"), ("f", "a")],
    )
    iso = find_isomorphism(g, relabeled)
    assert iso is not None
    for e in g.edges:
        u, v = tuple(e)
        assert frozenset({iso[u], iso[v]}) in relabeled.edges
    assert not isomorphic(g, path_graph(6))
    assert not isomorphic(g, cycle_graph(5))
    assert not isomorphic(
        complete_bipartite_graph(2, 2), path_graph(4)
    )


def test_subgraph():
    g = cycle_graph(5)
    sub = g.subgraph([0, 1, 2])
    assert len(sub.edges) == 2


def test_graph_dot_output():
    dot = cycle_graph(3).to_dot("tri")
    assert dot.startswith("graph tri {")
    assert dot.count("--") == 3
