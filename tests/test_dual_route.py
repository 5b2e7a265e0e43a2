"""The dual route builds Y_D from neighbourhoods, one component at a time.

``jonsson_dual`` enumerates the Alexander dual of a Jonsson complex
straight from the graph: the subsets of V that contain no N(w).  These
tests check it against ``alexander_dual(jonsson_complex(...))``, check the
per-component route against the homology of the whole ``y_complex``, and
check that the route builds neither the Jonsson complex nor the whole Y_D.
"""

import random
from math import comb

import pytest

from exkh import extreme, simplicial
from exkh.diagram import Diagram
from exkh.errors import CapExceeded, EmptyPartW, NotBipartition
from exkh.extreme import extreme_row, extreme_via_dual, extreme_via_lando, y_complex
from exkh.families import thick_family
from exkh.lando import Graph, build_lando
from exkh.simplicial import (
    AbelianGroup,
    alexander_dual,
    homology,
    jonsson_complex,
    jonsson_dual,
)

Z = AbelianGroup
RINGS = ("Z", "Q", "F2", "F3")


def bipartite(rng: random.Random, r: int, s: int, p: float) -> tuple[Graph, list]:
    """A random bipartite graph on r + s vertices and its side V."""
    part_v = [f"v{k}" for k in range(r)]
    part_w = [f"w{k}" for k in range(s)]
    vertices = part_v + part_w
    rng.shuffle(vertices)  # the sides interleave in the vertex order
    edges = [(v, w) for v in part_v for w in part_w if rng.random() < p]
    return Graph.build(vertices, edges), part_v


def oracle_graphs() -> list[tuple[Graph, list]]:
    rng = random.Random(20261019)
    out = [
        bipartite(rng, rng.randrange(0, 7), rng.randrange(1, 7), rng.uniform(0.2, 0.8))
        for _ in range(200)
    ]
    for _ in range(20):
        r, s = rng.randrange(1, 6), rng.randrange(1, 6)
        g, part_v = bipartite(rng, r, s, 0.6)
        adj = g.adjacency
        # an isolated vertex on either side: N(w) empty voids Y
        out.append((Graph.build((*g.vertices, "vx"), g.edges), part_v + ["vx"]))
        out.append((Graph.build((*g.vertices, "wx"), g.edges), part_v))
        # no N(w) empty: every isolated w joined to all of V
        out.append((Graph.build(g.vertices, [*g.edges, *(
            (v, w) for v in part_v for w in g.vertices if w not in part_v and not adj[w]
        )]), part_v))
    out.append((Graph.build(["w0"], []), []))  # empty V
    return out


def nonzero(groups):
    return {k: g for k, g in groups.items() if not g.is_trivial}


def whole_y_row(d: Diagram, ring: str) -> dict:
    """The j_min row read off the homology of the whole Y_D."""
    y = y_complex(d)
    n = d.negative_count
    return {
        len(y.ground) - 1 - n - deg: grp
        for deg, grp in nonzero(homology(y, ring)).items()
    }


# --------------------------------------------------------------------------
# the direct Y_D against the Alexander dual of the Jonsson complex
# --------------------------------------------------------------------------


def test_direct_dual_matches_dual_of_jonsson():
    graphs = oracle_graphs()
    assert len(graphs) >= 200
    kinds = {"void": 0, "empty V": 0, "V vertex isolated": 0}
    for g, part_v in graphs:
        want = alexander_dual(jonsson_complex(g, part_v))
        got = jonsson_dual(g, part_v)
        assert got.ground == want.ground, (g, part_v)
        assert got.maximal == want.maximal, (g, part_v)
        adj = g.adjacency
        kinds["void"] += got.is_void
        kinds["empty V"] += not part_v
        kinds["V vertex isolated"] += any(not adj[v] for v in part_v)
    assert all(kinds.values()), kinds


def test_direct_dual_shares_the_bipartition_check():
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
    for build in (jonsson_complex, jonsson_dual):
        with pytest.raises(NotBipartition):
            build(g, [1, 2])  # 1-2 is an edge inside the part
        with pytest.raises(NotBipartition):
            build(g, [1, 99])
        with pytest.raises(EmptyPartW):
            build(Graph.build([], []), [])


def test_direct_dual_respects_cap():
    g = Graph.build(["v0", "v1", "v2", "w0"], [("v0", "w0"), ("v1", "w0"), ("v2", "w0")])
    assert len(jonsson_dual(g, ["v0", "v1", "v2"], cap=7).faces()) == 7
    with pytest.raises(CapExceeded, match="Y_D face enumeration"):
        jonsson_dual(g, ["v0", "v1", "v2"], cap=6)


# --------------------------------------------------------------------------
# the per-component route against the whole Y_D
# --------------------------------------------------------------------------


def test_components_fold_to_the_whole_y(corpus12):
    diagrams = [*corpus12, *map(thick_family, (1, 2, 3))]
    split = 0
    for d in diagrams:
        if not build_lando(d).vertices:
            for ring in RINGS:
                assert extreme_via_dual(d, ring).groups == extreme_via_lando(d, ring).groups
            continue
        split += len(build_lando(d).connected_components()) > 1
        for ring in RINGS:
            assert extreme_via_dual(d, ring).groups == whole_y_row(d, ring), (
                d.to_pd(), ring,
            )
    assert split >= 50


def test_dual_route_builds_no_jonsson_complex_and_no_fold(monkeypatch, corpus12):
    calls = []

    def recording(name):
        def stand_in(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called on the dual route")
        return stand_in

    for name in ("jonsson_complex", "alexander_dual"):
        monkeypatch.setattr(simplicial, name, recording(name))
        monkeypatch.setattr(extreme, name, recording(name), raising=False)
    monkeypatch.setattr(extreme, "fold_graph", recording("fold_graph"))
    built = []

    def recording_dual(g, part_v, cap=simplicial.DEFAULT_FACE_CAP):
        built.append(len(g.vertices))
        return jonsson_dual(g, part_v, cap)

    monkeypatch.setattr(extreme, "jonsson_dual", recording_dual)
    for d in [*corpus12[:60], thick_family(3)]:
        if build_lando(d).vertices:  # else there is no Y_D
            extreme_via_dual(d, "Z")
    assert not calls
    assert built and max(built) <= 12


def test_thick_family_six_builds_components_only():
    d = thick_family(6)
    with pytest.raises(CapExceeded):
        y_complex(d, cap=10)
    row = extreme_via_dual(d, "Z", cap=10)
    lo = min(row.groups)
    assert row.groups == {lo + k: Z(comb(6, k)) for k in range(7)}
    assert row.groups == extreme_row(d, "Z", "lando").groups


# --------------------------------------------------------------------------
# the zero row of a void Y_D
# --------------------------------------------------------------------------


def test_isolated_vertex_gives_the_zero_row_and_still_checks_the_ring(corpus12):
    cones = [
        d for d in corpus12
        if len(build_lando(d).vertices) >= 3
        and any(not ns for ns in build_lando(d).adjacency.values())
    ]
    assert cones
    for d in cones:
        assert extreme_via_dual(d, "Z", cap=1).groups == {}
        with pytest.raises(ValueError):
            extreme_via_dual(d, "F4")
        with pytest.raises(ValueError):
            extreme_row(d, "F4", "dual")
    with pytest.raises(ValueError):
        extreme_row(Diagram.unknot(1), "F4", "dual")
