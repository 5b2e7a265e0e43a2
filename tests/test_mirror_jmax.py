"""The j_max row is the lando row of the mirror, on every ring.

Khovanov's duality: Kh^{i,j}(D) has the free rank of Kh^{-i,-j}(D') and the
torsion of Kh^{1-i,-j}(D'), D' the mirror.  These tests check the duality on
whole integral tables, pin ``extreme_jmax`` against the brute j_max row,
pin its torsion shift with a stand-in row, and check that the top row
enumerates no states and so reaches past the crossing cap.
"""

import pytest

from exkh import extreme, khovanov
from exkh.diagram import parse_pd
from exkh.errors import CapExceeded
from exkh.extreme import ExtremeRow, extreme_jmax, extreme_via_dual
from exkh.families import catalog_diagram, load_catalog, split_union
from exkh.khovanov import DEFAULT_CROSSING_CAP, j_bounds, khovanov_cohomology
from exkh.simplicial import AbelianGroup, cohomology, tensor_group, tor_group

Z = AbelianGroup
RINGS = ("Z", "Q", "F2", "F3")
TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


def brute_jmax(d, ring):
    """The j_max row of the enhanced-state complex, nonzero groups only."""
    _, j_max = j_bounds(d)
    h = cohomology(khovanov._j_rows(d, j_max)[j_max], ring)
    return {i: g for i, g in h.items() if not g.is_trivial}


def test_the_mirror_torsion_moves_up_one_degree(monkeypatch):
    d = parse_pd(TREFOIL)
    mirrored = ExtremeRow(
        j=-99, groups={-3: Z(1), -2: Z(0, (2,)), 4: Z(0, (3,))},
        provenance="lando", n=0, shift=-1,
    )
    seen = []

    def stand_in(diagram, ring="Z", cap=None):
        seen.append(diagram)
        return mirrored

    monkeypatch.setattr(extreme, "extreme_via_lando", stand_in)
    row = extreme_jmax(d, "Z")
    assert [m.signs for m in seen] == [d.mirror().signs]
    assert row.j == j_bounds(d)[1]
    # -2 -> 2, then up to 3; -3 -> 3 keeps its Z; 4 -> -4, then up to -3
    assert row.groups == {3: Z(1, (2,)), -3: Z(0, (3,))}


def test_whole_tables_are_dual_over_z(corpus12):
    diagrams = [e.diagram() for e in load_catalog().values()]
    diagrams += [d for d in corpus12 if d.crossing_count <= 8]
    torsion_seen = 0
    for d in diagrams:
        kh = khovanov_cohomology(d, "Z").entries
        kh_bar = khovanov_cohomology(d.mirror(), "Z").entries
        zero = Z(0)
        keys = set(kh) | {(-i, -j) for i, j in kh_bar} | {(1 - i, -j) for i, j in kh_bar}
        for i, j in keys:
            g = kh.get((i, j), zero)
            assert g.rank == kh_bar.get((-i, -j), zero).rank, (d.to_pd(), i, j)
            assert g.torsion == kh_bar.get((1 - i, -j), zero).torsion, (d.to_pd(), i, j)
            torsion_seen += bool(g.torsion)
    assert torsion_seen


def test_jmax_matches_the_brute_row(corpus12):
    small = [d for d in corpus12 if d.crossing_count <= 10]
    assert len(small) >= 100
    for d in small:
        _, j_max = j_bounds(d)
        row = khovanov._j_rows(d, j_max)[j_max]
        for ring in RINGS:
            want = {i: g for i, g in cohomology(row, ring).items() if not g.is_trivial}
            got = extreme_jmax(d, ring)
            assert (got.j, got.groups) == (j_max, want), (d.to_pd(), ring)


def test_jmax_matches_the_brute_row_at_fifteen_crossings():
    # a planar diagram with a nonzero top row, past corpus12's ten crossings
    d = split_union(catalog_diagram("eleven_crossing"), parse_pd(FIG8))
    assert d.crossing_count == 15
    want = brute_jmax(d, "Z")
    assert want
    assert extreme_jmax(d, "Z").groups == want


def test_jmax_enumerates_no_states(corpus12, monkeypatch):
    calls = []
    real = extreme._j_rows

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(extreme, "_j_rows", recording)
    extreme.extreme_via_brute(corpus12[0], "Z")
    assert calls  # the stand-in sees the brute route
    calls.clear()
    for d in corpus12[:40]:
        extreme_jmax(d, "Z")
    assert calls == []


def kunneth(h1, h2):
    """Cohomology of a tensor product of free cochain complexes over Z."""
    out = {}
    for p, a in h1.items():
        for q, b in h2.items():
            for n, g in ((p + q, tensor_group(a, b)), (p + q - 1, tor_group(a, b))):
                if not g.is_trivial:
                    out[n] = out.get(n, Z(0)).direct_sum(g)
    return out


@pytest.mark.parametrize(
    "names", [("eleven_crossing", "hexagon_link"), ("eleven_crossing", "eleven_crossing")]
)
def test_jmax_reaches_past_the_crossing_cap(names):
    # Kh of a split union is the tensor product of the factors' complexes,
    # with i and j adding, so its top row is the Kunneth product of theirs
    first, second = (catalog_diagram(name) for name in names)
    d = split_union(first, second)
    assert d.crossing_count > DEFAULT_CROSSING_CAP
    with pytest.raises(CapExceeded):
        extreme.extreme_via_brute(d, "Z")
    row = extreme_jmax(d, "Z")
    assert row.j == j_bounds(d)[1] == j_bounds(first)[1] + j_bounds(second)[1]
    assert row.groups
    assert row.groups == kunneth(brute_jmax(first, "Z"), brute_jmax(second, "Z"))
    dual = extreme_via_dual(d.mirror(), "Z")
    assert dual.provenance == "dual"
    want = extreme.shift_torsion({-i: g for i, g in dual.groups.items()}, 1)
    assert row.groups == {i: g for i, g in want.items() if not g.is_trivial}
