import pytest
from conftest import (
    brute_row_mismatch,
    cycle_graph,
    enumerate_enhanced,
    krs_criterion,
    rank_mod_p_by_gauss,
    ranks_from_lowest,
    s_min_states,
    torus_graph,
    y_complex,
)

from exkh.diagram import Diagram, parse_pd
from exkh.errors import CapExceeded, EmptyPartW
from exkh.extreme import (
    ExtremeRow,
    extreme_row,
    extreme_via_brute,
    extreme_via_dual,
    extreme_via_lando,
    lando_cohomology,
)
from exkh.khovanov import j_bounds, khovanov_cohomology, khovanov_complex
from exkh.lando import build_lando
from exkh.families import catalog_diagram, load_catalog, thick_family
from exkh.simplicial import AbelianGroup, over_ring

Z = AbelianGroup

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
HOPF = "X(4,2,1,3) X(2,4,3,1)"
SINGLE_EDGE = "X(2,3,4,1) X(4,3,2,1)"

NAMED_ROWS = {
    TREFOIL: (-9, {-3: Z(1)}),
    FIG8: (-5, {-2: Z(1)}),
    HOPF: (0, {0: Z(1)}),
    SINGLE_EDGE: (None, None),  # filled by the brute force below
}


# --------------------------------------------------------------------------
# the states of minimal quantum grading
# --------------------------------------------------------------------------


def test_s_min_states_are_the_enhanced_states_at_j_min(corpus12):
    small = [d for d in corpus12 if d.crossing_count <= 8][:20]
    for d in small:
        j_min, _ = j_bounds(d)
        expected = set()
        for (_, j), states in enumerate_enhanced(d).items():
            if j == j_min:
                expected.update(states)
        got = s_min_states(d)
        assert got == expected
        assert all(all(e == -1 for e in s.signs) for s in got)


def test_s_min_states_count_named():
    # trefoil: no admissible chords, only the all-A all-minus state
    assert len(s_min_states(parse_pd(TREFOIL))) == 1
    # one admissible pair of interleaved chords: faces {}, {0}, {1}
    assert len(s_min_states(parse_pd(SINGLE_EDGE))) == 3


# --------------------------------------------------------------------------
# the three routes agree
# --------------------------------------------------------------------------


@pytest.mark.parametrize("pd", [TREFOIL, FIG8, HOPF, SINGLE_EDGE])
def test_routes_agree_on_named_diagrams(pd):
    d = parse_pd(pd)
    rows = {
        m: extreme_row(d, "Z", method=m) for m in ("lando", "brute", "dual")
    }
    assert rows["lando"].groups == rows["brute"].groups == rows["dual"].groups
    assert rows["lando"].j == rows["brute"].j == rows["dual"].j


def test_named_rows_match_full_tables():
    for pd in (TREFOIL, FIG8, HOPF):
        d = parse_pd(pd)
        row = extreme_via_lando(d)
        j_min, _ = j_bounds(d)
        table = khovanov_cohomology(d, "Z")
        assert row.j == j_min
        assert row.groups == {i: g for (i, j), g in table.entries.items() if j == j_min}


def test_catalog_rows_via_all_routes():
    hexagon = catalog_diagram("hexagon_link")
    for method in ("lando", "brute", "dual"):
        row = extreme_row(hexagon, "Z", method=method)
        assert row.j == -13
        assert row.groups == {-4: Z(2)}
    eleven = catalog_diagram("eleven_crossing")
    for method in ("lando", "dual"):
        row = extreme_row(eleven, "Z", method=method)
        assert row.j == 1
        assert row.groups == {0: Z(1), 1: Z(1)}


def test_routes_agree_on_corpus_slice(corpus12):
    small = [d for d in corpus12 if d.crossing_count <= 8][:12]
    for d in small:
        rows = [extreme_row(d, "Z", method=m) for m in ("lando", "brute", "dual")]
        assert rows[0].groups == rows[1].groups == rows[2].groups, d.to_pd()


def test_routes_agree_over_f2(corpus12):
    small = [d for d in corpus12 if d.crossing_count <= 7][:8]
    for d in small:
        a = extreme_via_lando(d, "F2")
        b = extreme_via_brute(d, "F2")
        assert a.groups == b.groups, d.to_pd()


# --------------------------------------------------------------------------
# the dual route's bipartition
# --------------------------------------------------------------------------


def test_y_complex_requires_some_chords():
    with pytest.raises(EmptyPartW):
        y_complex(Diagram.unknot(1))
    with pytest.raises(EmptyPartW):
        y_complex(parse_pd(HOPF))  # all chords join distinct circles


def test_dual_method_falls_back_when_no_chords():
    # no chords: the dual route answers with the empty join, no fallback
    d = parse_pd(HOPF)
    row = extreme_row(d, "Z", method="dual")
    assert row.provenance == "dual"
    assert row.groups == {0: Z(1)}


def test_dual_route_keeps_its_provenance_otherwise():
    row = extreme_via_dual(parse_pd(SINGLE_EDGE))
    assert row.provenance == "dual"


# --------------------------------------------------------------------------
# the top row
# --------------------------------------------------------------------------


def test_jmax_named_rows():
    for pd, want in ((TREFOIL, (-1, {0: Z(1)})), (FIG8, (5, {2: Z(1)})), (HOPF, (6, {2: Z(1)}))):
        for method in ("lando", "brute", "dual"):
            row = extreme_row(parse_pd(pd), "Z", method, side="max")
            assert (row.j, row.groups, row.provenance) == (*want, method), (pd, method)


def test_jmax_field_route_matches_brute(corpus12):
    small = [d for d in corpus12 if d.crossing_count <= 7][:8]
    for d in small:
        table = khovanov_cohomology(d, "Q")
        _, j_max = j_bounds(d)
        want = {i: g for (i, j), g in table.entries.items() if j == j_max}
        for method in ("lando", "brute", "dual"):
            assert extreme_row(d, "Q", method, side="max").groups == want, (d.to_pd(), method)


def test_unknown_side_rejected():
    with pytest.raises(ValueError, match="unknown side"):
        extreme_row(Diagram.unknot(1), "Z", side="top")


# --------------------------------------------------------------------------
# the paper's bijection as an equality of complexes
# --------------------------------------------------------------------------


def test_the_brute_row_is_the_cochain_complex_of_x_d(corpus12, corpus_multi):
    diagrams = [e.diagram() for e in load_catalog().values()]
    diagrams += [*corpus12, *corpus_multi, thick_family(1)]
    # the mirrors of the planar ones give the j_max rows of the brute route
    diagrams += [d.mirror() for d in diagrams if d.is_planar]
    for d in diagrams:
        mismatch = brute_row_mismatch(d)
        assert not mismatch, mismatch


def test_the_certificate_names_the_first_entry_that_differs(monkeypatch):
    from exkh import simplicial

    honest = simplicial._coboundary_rows

    def flipped(source, target, drop):
        rows = honest(source, target, drop)
        return [{k: -v for k, v in r.items()} for r in rows] if len(target) == 2 else rows

    hexagon = catalog_diagram("hexagon_link")
    assert brute_row_mismatch(hexagon) == ""
    monkeypatch.setattr(simplicial, "_coboundary_rows", flipped)
    mismatch = brute_row_mismatch(hexagon)
    # the map into the two 3-faces, {0,2,4} and {1,3,5}, changed sign
    assert mismatch == (
        f"{hexagon.to_pd()}: degree i=-4, entry (row (0, 2, 4), column (0, 2)): brute 1, X_D -1"
    )


# --------------------------------------------------------------------------
# row formatting and comparison helpers
# --------------------------------------------------------------------------


def test_row_summary_format():
    hexagon = catalog_diagram("hexagon_link")
    assert extreme_via_lando(hexagon).summary() == "j=-13: i=-4: Z^2"
    empty = ExtremeRow(j=5, groups={}, provenance="lando", n=0, shift=-1)
    assert empty.summary() == "j=5: (row is zero)"
    two = ExtremeRow(
        j=1,
        groups={0: Z(1), 1: Z(1)},
        provenance="lando",
        n=3,
        shift=2,
    )
    assert two.summary() == "j=1: i=0: Z, i=1: Z"


def test_ranks_from_lowest():
    row = ExtremeRow(
        j=0, groups={2: Z(1), 4: Z(3)}, provenance="lando", n=0, shift=-1
    )
    assert ranks_from_lowest(row.groups) == (Z(1), Z(0), Z(3))
    empty = ExtremeRow(j=0, groups={}, provenance="lando", n=0, shift=-1)
    assert ranks_from_lowest(empty.groups) == ()


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        extreme_row(Diagram.unknot(1), "Z", method="magic")


def test_face_cap_enforced():
    # C_4 x C_5 is vertex-transitive and splits at no vertex, so its whole
    # X, of 3,561 faces, is built under the face cap
    g = torus_graph(4, 5)
    with pytest.raises(CapExceeded) as exc:
        lando_cohomology(g, cap=3560)
    assert exc.value.what == "independent set enumeration"
    assert lando_cohomology(g, cap=3561) == {3: Z(2), 4: Z(1)}
    # C_4 x C_4 splits all the way down, and the cap bounds the count of
    # components the splitting reduces: seven
    with pytest.raises(CapExceeded) as exc:
        lando_cohomology(torus_graph(4, 4), cap=6)
    assert exc.value.what == "vertex splitting"
    assert lando_cohomology(torus_graph(4, 4), cap=7) == {3: Z(7)}
    # the hexagon link's C_6 splits into edges, whose X has three faces
    assert extreme_via_lando(catalog_diagram("hexagon_link"), "Z", cap=3).groups == {-4: Z(2)}


# --------------------------------------------------------------------------
# component-by-component folding in the geometric route
# --------------------------------------------------------------------------


def test_lando_cohomology_folds_components():
    one = cycle_graph(6)
    # two disjoint hexagons, relabelled to avoid clashes
    both = one.__class__.build(
        range(12),
        [
            (off + k, off + (k + 1) % 6)
            for off in (0, 6)
            for k in range(6)
        ],
    )
    h1 = lando_cohomology(one)
    h2 = lando_cohomology(both)
    # independent sets of a hexagon form a wedge of two circles
    assert {k: g for k, g in h1.items() if not g.is_trivial} == {1: Z(2)}
    # join of the two answers: degrees add plus one, ranks multiply
    assert {k: g for k, g in h2.items() if not g.is_trivial} == {3: Z(4)}


def test_every_route_reads_its_ring_off_its_integral_row():
    def nonzero(groups):
        return {i: g for i, g in groups.items() if not g.is_trivial}

    def groups_mod_p(cc, p):
        ranks = {i: rank_mod_p_by_gauss(m, p) for i, m in cc.matrices.items()}
        return nonzero({i: Z(cc.dim(i) - ranks.get(i, 0) - ranks.get(i - 1, 0)) for i in cc.bases})

    for name, entry in sorted(load_catalog().items()):
        d = entry.diagram()
        j_min, j_max = j_bounds(d)
        rows = {j_min: khovanov_complex(d, j_min), j_max: khovanov_complex(d, j_max)}
        routes = {
            "lando": lambda ring: extreme_via_lando(d, ring),
            "brute": lambda ring: extreme_via_brute(d, ring),
            "dual": lambda ring: extreme_via_dual(d, ring),
            **{
                f"jmax-{m}": lambda ring, m=m: extreme_row(d, ring, m, side="max")
                for m in ("lando", "brute", "dual")
            },
        }
        for method, route in routes.items():
            over_z = route("Z")
            for ring in ("Q", "F2", "F3"):
                row = route(ring)
                want = nonzero(over_ring(over_z.groups, ring))
                assert (row.j, row.groups) == (over_z.j, want), (name, method, ring)
                if ring != "Q":
                    assert groups_mod_p(rows[row.j], int(ring[1:])) == want, (name, method, ring)


# --------------------------------------------------------------------------
# the complete-bipartite shortcut
# --------------------------------------------------------------------------


def test_krs_named():
    assert krs_criterion(parse_pd(SINGLE_EDGE)) == Z(1)
    assert krs_criterion(parse_pd(TREFOIL)) == Z(0)
    assert krs_criterion(parse_pd(HOPF)) == Z(0)


def test_krs_matches_computed_group(corpus12):
    for d in corpus12[:40]:
        row = extreme_via_lando(d)
        at_origin = row.groups.get(1 - d.negative_count, Z(0))
        assert krs_criterion(d) == at_origin, d.to_pd()
