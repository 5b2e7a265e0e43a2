import pytest

from exkh.diagram import Diagram, parse_pd
from exkh.errors import CapExceeded, EmptyPartW
from exkh.extreme import (
    ExtremeRow,
    extreme_jmax,
    extreme_row,
    extreme_via_brute,
    extreme_via_dual,
    extreme_via_lando,
    krs_criterion,
    lando_cohomology,
    s_min_states,
    y_complex,
)
from exkh.khovanov import enumerate_enhanced, j_bounds, khovanov_cohomology
from exkh.lando import build_lando, cycle_graph
from exkh.families import catalog_diagram
from exkh.simplicial import AbelianGroup

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
    d = parse_pd(TREFOIL)
    row = extreme_jmax(d, "Z")
    assert (row.j, row.groups) == (-1, {0: Z(1)})
    row = extreme_jmax(parse_pd(FIG8), "Z")
    assert (row.j, row.groups) == (5, {2: Z(1)})
    row = extreme_jmax(parse_pd(HOPF), "Z")
    assert (row.j, row.groups) == (6, {2: Z(1)})


def test_jmax_field_route_matches_brute(corpus12):
    small = [d for d in corpus12 if d.crossing_count <= 7][:8]
    for d in small:
        geometric = extreme_jmax(d, "Q")
        table = khovanov_cohomology(d, "Q")
        _, j_max = j_bounds(d)
        assert geometric.groups == {
            i: g for (i, j), g in table.entries.items() if j == j_max
        }, d.to_pd()


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
    assert row.ranks_from_lowest() == (Z(1), Z(0), Z(3))
    empty = ExtremeRow(j=0, groups={}, provenance="lando", n=0, shift=-1)
    assert empty.ranks_from_lowest() == ()


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        extreme_row(Diagram.unknot(1), "Z", method="magic")


def test_face_cap_enforced():
    with pytest.raises(CapExceeded):
        extreme_via_lando(catalog_diagram("hexagon_link"), "Z", cap=3)


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
    h1 = lando_cohomology(one, "Z")
    h2 = lando_cohomology(both, "Z")
    # independent sets of a hexagon form a wedge of two circles
    assert {k: g for k, g in h1.items() if not g.is_trivial} == {1: Z(2)}
    # join of the two answers: degrees add plus one, ranks multiply
    assert {k: g for k, g in h2.items() if not g.is_trivial} == {3: Z(4)}


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
