import random
import tracemalloc

import pytest
from conftest import (
    from_maximal,
    join,
    ranks_from_lowest,
    reorient_for_negative_count,
    validate_catalog_entry,
)

from exkh.diagram import Diagram, parse_pd, pd_hash
from exkh.errors import CapExceeded, ClaspFailed, SameComponent
from exkh.extreme import extreme_via_brute, extreme_via_lando
from exkh.families import (
    binomial_row,
    catalog_diagram,
    from_chord_diagram,
    join_power_table,
    knotify,
    load_catalog,
    random_diagrams,
    split_union,
    thick_family,
)
from exkh.lando import Graph, build_lando
from exkh.simplicial import AbelianGroup, homology, independence_complex

Z = AbelianGroup


# --------------------------------------------------------------------------
# chord diagram realisation
# --------------------------------------------------------------------------


def test_single_chord_becomes_a_kink():
    d = from_chord_diagram([(0, 1)], [True])
    assert d.crossing_count == 1
    assert len(d._resolve_bits(0)) == 1  # the one circle of the picture
    g = build_lando(d)
    assert len(g.vertices) == 1 and not g.edges


def test_interleaved_pair_realises_a_single_lando_edge():
    d = from_chord_diagram([(0, 2), (1, 3)], [True, False])
    assert d.crossing_count == 2
    assert len(d._resolve_bits(0)) == 1
    g = build_lando(d)
    assert len(g.vertices) == 2 and len(g.edges) == 1


def test_nested_pair_has_no_lando_edge():
    d = from_chord_diagram([(0, 3), (1, 2)], [True, True])
    g = build_lando(d)
    assert len(g.vertices) == 2 and not g.edges


def test_chord_diagram_validation():
    with pytest.raises(ValueError):
        from_chord_diagram([], [])
    with pytest.raises(ValueError):
        from_chord_diagram([(0, 1)], [True, False])
    with pytest.raises(ValueError):
        from_chord_diagram([(0, 1), (1, 2)], [True, True])
    with pytest.raises(ValueError):
        from_chord_diagram([(0, 5), (1, 2)], [True, True])
    # interleaved chords on the same side cannot be drawn in the plane
    with pytest.raises(ValueError):
        from_chord_diagram([(0, 2), (1, 3)], [True, True])


def test_realisation_has_all_a_state_matching_the_chords(corpus12):
    rng = random.Random(7)
    for _ in range(15):
        c = rng.randrange(1, 6)
        positions = list(range(2 * c))
        rng.shuffle(positions)
        pairs = [
            tuple(sorted((positions[2 * k], positions[2 * k + 1])))
            for k in range(c)
        ]

        def crosses(a, b):
            return (a[0] < b[0] < a[1] < b[1]) or (b[0] < a[0] < b[1] < a[1])

        # greedy two-colouring of the interleavement graph, if bipartite
        inside = [None] * c
        ok = True
        for k in range(c):
            if inside[k] is None:
                stack, inside[k] = [k], True
                while stack:
                    u = stack.pop()
                    for v in range(c):
                        if crosses(pairs[u], pairs[v]):
                            if inside[v] is None:
                                inside[v] = not inside[u]
                                stack.append(v)
                            elif inside[v] == inside[u]:
                                ok = False
        if not ok:
            continue
        d = from_chord_diagram(pairs, inside)
        assert d.crossing_count == c
        assert len(d._resolve_bits(0)) == 1
        g = build_lando(d)
        assert set(g.vertices) == set(range(c))
        want_edges = {
            frozenset((u, v))
            for u in range(c)
            for v in range(u + 1, c)
            if crosses(pairs[u], pairs[v])
        }
        assert g.edges == want_edges


# --------------------------------------------------------------------------
# orientation adjustment
# --------------------------------------------------------------------------


def test_reorient_hits_target_and_is_deterministic():
    hopf = parse_pd("X(4,2,1,3) X(2,4,3,1)")
    assert hopf.negative_count == 0
    flipped = reorient_for_negative_count(hopf, 2)
    assert flipped.negative_count == 2
    assert flipped.to_pd() == reorient_for_negative_count(hopf, 2).to_pd()
    # a knot's signs cannot change: only whole-component reversals are tried
    trefoil = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    with pytest.raises(ValueError):
        reorient_for_negative_count(trefoil, 1)
    assert reorient_for_negative_count(trefoil, 3).to_pd() == trefoil.to_pd()


# --------------------------------------------------------------------------
# split unions and knotification
# --------------------------------------------------------------------------


def test_split_union_counts():
    t = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    u = split_union(t, t)
    assert u.crossing_count == 6
    assert u.component_count == 2
    assert u.writhe == 2 * t.writhe
    e = parse_pd("X(2,3,4,1) X(4,3,2,1)")
    ue = split_union(e, e)
    g1, g2 = build_lando(e), build_lando(ue)
    assert len(g2.vertices) == 2 * len(g1.vertices)
    assert len(g2.edges) == 2 * len(g1.edges)


def test_knotify_rejects_same_component():
    t = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    with pytest.raises(SameComponent):
        knotify(t, 1, 2)
    u = split_union(t, t)
    comp = u.components[0]
    a, b = sorted(comp)[:2]
    with pytest.raises(SameComponent):
        knotify(u, a, b)


def test_knotify_postconditions_on_corpus(corpus_multi):
    for d in corpus_multi[:12]:
        comps = d.components
        a, b = min(comps[0]), min(comps[1])
        k = knotify(d, a, b)
        assert k.component_count == d.component_count - 1
        assert k.crossing_count == d.crossing_count + 2
        assert build_lando(k) == build_lando(d)
        # clasp adds one circle to the all-A state
        assert len(k._resolve_bits(0)) == len(d._resolve_bits(0)) + 1


def test_knotify_preserves_extreme_ranks(corpus_multi):
    for d in corpus_multi[:6]:
        comps = d.components
        k = knotify(d, min(comps[0]), min(comps[1]))
        before = ranks_from_lowest(extreme_via_lando(d).groups)
        after = ranks_from_lowest(extreme_via_lando(k).groups)
        assert before == after, d.to_pd()


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


def test_catalog_contents():
    cat = load_catalog()
    assert set(cat) == {"hexagon_link", "eleven_crossing"}
    hexagon = cat["hexagon_link"]
    assert hexagon.reconstructed
    assert hexagon.expected["components"] == 3
    assert hexagon.expected["lando"]["class"] == "hexagon"
    eleven = cat["eleven_crossing"]
    assert eleven.expected["crossings"] == 11
    assert eleven.expected["lando"]["class"] == "two_hexagons_shared_vertex"
    assert eleven.expected["extreme"]["j"] == 1


def test_catalog_entries_validate_clean():
    for entry in load_catalog().values():
        assert validate_catalog_entry(entry) == []


def test_catalog_diagram_unknown_name():
    with pytest.raises(KeyError):
        catalog_diagram("no_such_link")


# --------------------------------------------------------------------------
# thick families
# --------------------------------------------------------------------------


def test_thick_family_one():
    d = thick_family(1)
    assert d.component_count == 1
    assert d.crossing_count == 15
    row = extreme_via_lando(d)
    assert ranks_from_lowest(row.groups) == (Z(1), Z(1))


def test_thick_family_two():
    d = thick_family(2)
    assert d.component_count == 1
    assert d.crossing_count == 32
    row = extreme_via_lando(d)
    assert ranks_from_lowest(row.groups) == (Z(1), Z(2), Z(1))


def test_thick_family_pd_codes_are_pinned():
    # these are the benchmark's thick inputs; a change in knotify's clasp
    # choice changes them, and must do so on purpose
    pinned = {1: (15, "67151eb5e21c"), 2: (32, "085e1da81ce9"), 3: (49, "fffa70992198")}
    for n, (crossings, digest) in pinned.items():
        d = thick_family(n)
        assert (d.crossing_count, pd_hash(d)) == (crossings, digest), n


def test_thick_family_rejects_zero():
    with pytest.raises(ValueError):
        thick_family(0)


def test_join_power_matches_binomials():
    for n in range(1, 6):
        assert join_power_table(n) == binomial_row(n)
    assert binomial_row(2) == {1: Z(1), 2: Z(2), 3: Z(1)}


def test_join_power_matches_the_join_built_from_face_products():
    square_plus_point = from_maximal(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 1), (5,)])
    j = square_plus_point
    for n in (1, 2, 3):
        if n > 1:
            j = join(j, square_plus_point)
        assert sum(j.f_vector()) == 10**n
        want = {d: g for d, g in homology(j).items() if not g.is_trivial}
        assert join_power_table(n) == want, n


def test_join_power_cap_trips_before_the_memory_grows():
    # a join built from its maximal faces kept one bit per maximal face
    # for every face it built: 179 MiB traced before this cap tripped; the
    # table itself now refuses 10^6 faces unbuilt, so the enumerator's own
    # bound is measured on the graph the table builds
    edges = ((1, 3), (2, 4), (1, 5), (2, 5), (3, 5), (4, 5))
    copies = Graph.build(
        [(c, v) for c in range(6) for v in range(1, 6)],
        [((c, u), (c, v)) for c in range(6) for u, v in edges],
    )
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="independent set enumeration"):
            independence_complex(copies, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_join_power_table_refuses_its_faces_before_enumerating(monkeypatch):
    from exkh import families

    assert join_power_table(3, 1000) == binomial_row(3)  # 10^3 faces fit
    monkeypatch.setattr(families, "independence_complex", None)  # never reached
    for n, cap in ((3, 999), (7, 4_194_304)):
        with pytest.raises(CapExceeded, match="independent set enumeration"):
            join_power_table(n, cap)


# --------------------------------------------------------------------------
# random corpus generator
# --------------------------------------------------------------------------


def test_random_diagrams_reproducible():
    a = random_diagrams(10, seed=5)
    b = random_diagrams(10, seed=5)
    assert [d.to_pd() for d in a] == [d.to_pd() for d in b]
    c = random_diagrams(10, seed=6)
    assert [d.to_pd() for d in a] != [d.to_pd() for d in c]


def test_random_diagrams_respect_caps_and_filters():
    for d in random_diagrams(25, max_crossings=7, seed=1):
        assert 1 <= d.crossing_count <= 7
    for d in random_diagrams(15, max_crossings=9, seed=2, multi_component=True):
        assert len(d.components) >= 2


def test_random_diagrams_have_consistent_orientations():
    for d in random_diagrams(20, seed=3):
        again = parse_pd(d.to_pd())
        assert again.crossing_count == d.crossing_count
        # signs survive the round trip when every component leaves a trace
        unders = {t[0] for t in d.crossings} | {t[2] for t in d.crossings}
        if all(any(a in unders for a in comp) for comp in d.components):
            assert again.writhe == d.writhe
