import itertools
import json

import pytest
from conftest import (
    EnhancedState,
    adjacent,
    bracket_by_state_sum,
    check_complex,
    enhanced,
    enumerate_enhanced,
    rank_mod_p_by_gauss,
    state_i,
    state_j,
)

from exkh.diagram import A, B, Diagram, State, parse_pd
from exkh.errors import CapExceeded, NotAComplex
from exkh.khovanov import (
    LaurentPoly,
    _j_rows,
    graded_jones,
    j_bounds,
    jones,
    kauffman_bracket,
    khovanov_cohomology,
    khovanov_complex,
    scanned_j_range,
)
from exkh.simplicial import AbelianGroup, cohomology

Z = AbelianGroup

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
HOPF = "X(4,2,1,3) X(2,4,3,1)"

TREFOIL_TABLE = {
    (-3, -9): Z(1),
    (-2, -7): Z(0, (2,)),
    (-2, -5): Z(1),
    (0, -3): Z(1),
    (0, -1): Z(1),
}

FIG8_TABLE = {
    (-2, -5): Z(1),
    (-1, -3): Z(0, (2,)),
    (-1, -1): Z(1),
    (0, -1): Z(1),
    (0, 1): Z(1),
    (1, 1): Z(1),
    (2, 3): Z(0, (2,)),
    (2, 5): Z(1),
}


# --------------------------------------------------------------------------
# Laurent polynomials
# --------------------------------------------------------------------------


def test_poly_arithmetic():
    p = LaurentPoly({2: 1, -2: -1})
    q = LaurentPoly({0: 3})
    assert (p + q).coeffs == {2: 1, -2: -1, 0: 3}
    assert (p - p).is_zero
    assert (p * p).coeffs == {4: 1, 0: -2, -4: 1}
    assert (p ** 3).coeffs == (p * p * p).coeffs
    assert p.shift(2).coeffs == {4: 1, 0: -1}
    assert p.coefficient(2) == 1 and p.coefficient(5) == 0


def test_poly_guards():
    with pytest.raises(ValueError):
        LaurentPoly({1: 1}) + LaurentPoly({1: 1}, var="q")
    with pytest.raises(ValueError):
        LaurentPoly({1: 1}) ** -1


def test_poly_str():
    assert str(LaurentPoly({3: 1, -5: -1, 0: 2})) == "-A^-5 + 2 + A^3"
    assert str(LaurentPoly()) == "0"


# --------------------------------------------------------------------------
# enhanced states and gradings
# --------------------------------------------------------------------------


def test_unknot_enhanced_states():
    d = Diagram.unknot(1)
    table = enumerate_enhanced(d)
    assert set(table) == {(0, -1), (0, 1)}
    assert all(len(v) == 1 for v in table.values())


def test_trefoil_grading_ranges():
    d = parse_pd(TREFOIL)
    table = enumerate_enhanced(d)
    i_values = {i for i, _ in table}
    j_values = {j for _, j in table}
    assert min(i_values) == -3 and max(i_values) == 0
    assert min(j_values) == -9 and max(j_values) == -1
    assert all(j % 2 == 1 for j in j_values)
    # total count: sum over states of 2^circles
    total = sum(len(v) for v in table.values())
    assert total == sum(
        2 ** len(d._resolve_bits(bits)) for bits in range(8)
    )


def test_state_gradings_validate_diagram():
    d = parse_pd(TREFOIL)
    s = EnhancedState(State((A, A, A)), (1, 1, 1))
    assert state_i(d, s.state) == -3
    assert state_j(d, s) == -3 + -3 + 3
    with pytest.raises(ValueError):
        state_i(d, State((A, A)))
    # the adjacency check also validates the number of circle signs
    bad = EnhancedState(State((A, A, A)), (1, 1))
    good = EnhancedState(State((B, A, A)), (1, 1))
    with pytest.raises(ValueError):
        adjacent(d, bad, good)


def test_split_transitions_follow_the_rules():
    # this kink's A-state is one circle, its B-state two
    d = parse_pd("X(1,2,2,1)")
    a, b = State((A,)), State((B,))
    legal = {
        (1,): {(1, -1), (-1, 1)},
        (-1,): {(-1, -1)},
    }
    for before in ((1,), (-1,)):
        for after in itertools.product((1, -1), repeat=2):
            got = adjacent(d, EnhancedState(a, before), EnhancedState(b, after))
            if after in legal[before]:
                assert got == 1, (before, after)
            else:
                assert got == 0, (before, after)


def test_merge_transitions_follow_the_rules():
    # the opposite kink merges two A-circles into one B-circle
    d = parse_pd("X(1,1,2,2)")
    a, b = State((A,)), State((B,))
    legal = {
        (1, 1): {(1,)},
        (1, -1): {(-1,)},
        (-1, 1): {(-1,)},
        (-1, -1): set(),
    }
    for before in itertools.product((1, -1), repeat=2):
        for after in ((1,), (-1,)):
            got = adjacent(d, EnhancedState(a, before), EnhancedState(b, after))
            if after in legal[before]:
                assert got == 1, (before, after)
            else:
                assert got == 0, (before, after)


def test_adjacent_requires_single_smoothing_step():
    d = parse_pd(HOPF)
    aa = EnhancedState(State((A, A)), (1, 1))
    bb_states = enumerate_enhanced(d)
    # A->B at both crossings is two steps, never adjacent
    for (i, j), states in bb_states.items():
        for t in states:
            if t.state.labels == (B, B):
                assert adjacent(d, aa, t) == 0


def test_incidence_signs_square_to_zero_on_corpus(corpus12):
    small = [d for d in corpus12 if d.crossing_count <= 7][:15]
    for d in small:
        j_min, j_max = j_bounds(d)
        mid = j_min + 2 * ((j_max - j_min) // 4)
        cc = khovanov_complex(d, mid)
        check_complex(cc)


def test_complex_entries_equal_the_reference_differential(corpus12):
    diagrams = [parse_pd(TREFOIL), parse_pd(HOPF)]
    diagrams += [d for d in corpus12 if d.crossing_count <= 5]
    for d in diagrams:
        j_min, j_max = j_bounds(d)
        for j in range(j_min, j_max + 1, 2):
            cc = khovanov_complex(d, j)
            states = {i: [enhanced(d, *s) for s in b] for i, b in cc.bases.items()}
            for i, m in cc.matrices.items():
                target = states.get(i + 1, ())
                assert len(m) == len(target)
                for row, t in zip(m, target):
                    assert len(row) == len(states[i])
                    assert list(row) == [adjacent(d, s, t) for s in states[i]]


# --------------------------------------------------------------------------
# cohomology tables
# --------------------------------------------------------------------------


def test_trefoil_table_over_z():
    table = khovanov_cohomology(parse_pd(TREFOIL), "Z")
    assert dict(table.entries) == TREFOIL_TABLE


def test_trefoil_table_over_q():
    table = khovanov_cohomology(parse_pd(TREFOIL), "Q")
    assert dict(table.entries) == {
        (-3, -9): Z(1), (-2, -5): Z(1), (0, -3): Z(1), (0, -1): Z(1),
    }


def test_trefoil_table_over_f2():
    table = khovanov_cohomology(parse_pd(TREFOIL), "F2")
    assert dict(table.entries) == {
        (-3, -9): Z(1), (-3, -7): Z(1), (-2, -7): Z(1), (-2, -5): Z(1),
        (0, -3): Z(1), (0, -1): Z(1),
    }


def test_field_tables_follow_universal_coefficients(corpus12):
    # For a complex of free modules H^i(C; F_p) = H^i(C) (x) F_p plus
    # Tor(H^{i+1}(C), F_p): each torsion order divisible by p in degree i or
    # i+1 adds one to the rank.  The F_p tables are read off the integral
    # ones by this formula, so each cell is held to ranks mod p taken by
    # dense Gaussian elimination on the row's own maps, which share no code
    # with the integral reduction.
    torsion_cells = 0
    for d in [d for d in corpus12 if d.crossing_count <= 7]:
        over_z = khovanov_cohomology(d, "Z")
        torsion_cells += sum(bool(g.torsion) for g in over_z.entries.values())
        rows = _j_rows(d)
        for p in (2, 3):
            over_p = khovanov_cohomology(d, f"F{p}")

            def divisible(i, j):
                return sum(t % p == 0 for t in over_z.group(i, j).torsion)

            cells = set()
            for j, cc in rows.items():
                ranks = {i: rank_mod_p_by_gauss(m, p) for i, m in cc.matrices.items()}
                for i in cc.bases:
                    cells.add((i, j))
                    by_gauss = cc.dim(i) - ranks.get(i, 0) - ranks.get(i - 1, 0)
                    g = over_p.group(i, j)
                    assert not g.torsion
                    want = over_z.group(i, j).rank + divisible(i, j) + divisible(i + 1, j)
                    assert g.rank == want == by_gauss, (d.to_pd(), p, i, j)
            assert set(over_p.entries) <= cells
    assert torsion_cells > 0


def test_figure_eight_table():
    table = khovanov_cohomology(parse_pd(FIG8), "Z")
    assert dict(table.entries) == FIG8_TABLE


def test_hopf_table():
    table = khovanov_cohomology(parse_pd(HOPF), "Z")
    assert dict(table.entries) == {
        (0, 0): Z(1), (0, 2): Z(1), (2, 4): Z(1), (2, 6): Z(1),
    }


def test_kinks_have_unknot_tables():
    for pd in ("X(1,1,2,2)", "X(1,2,2,1)"):
        table = khovanov_cohomology(parse_pd(pd), "Z")
        assert dict(table.entries) == {(0, -1): Z(1), (0, 1): Z(1)}


def test_two_component_unlink_table():
    table = khovanov_cohomology(Diagram.unknot(2), "Z")
    assert dict(table.entries) == {
        (0, -2): Z(1), (0, 0): Z(2), (0, 2): Z(1),
    }


def test_table_accessors_and_text():
    table = khovanov_cohomology(parse_pd(TREFOIL), "Z")
    assert table.group(-2, -7) == Z(0, (2,))
    assert table.group(5, 5) == Z(0)
    assert table.row(-5) == {-2: Z(1)}
    text = table.to_text()
    assert "Z/2" in text and "·" in text
    payload = json.loads(table.to_json())
    assert payload["ring"] == "Z"
    back = {
        (int(e["i"]), int(e["j"])): e["group"] for e in payload["entries"]
    }
    assert back[(-3, -9)] == "Z"


def test_crossing_order_invariance():
    base = parse_pd(FIG8)
    reordered = Diagram(
        tuple(base.crossings[k] for k in (2, 0, 3, 1)),
        tuple(base.signs[k] for k in (2, 0, 3, 1)),
    )
    t1 = khovanov_cohomology(base, "Z")
    t2 = khovanov_cohomology(reordered, "Z")
    assert dict(t1.entries) == dict(t2.entries)


def test_mirror_flips_ranks_over_q():
    d = parse_pd(TREFOIL)
    t = khovanov_cohomology(d, "Q")
    tm = khovanov_cohomology(d.mirror(), "Q")
    assert {(-i, -j): g for (i, j), g in t.entries.items()} == dict(tm.entries)


def test_crossing_cap():
    with pytest.raises(CapExceeded):
        khovanov_cohomology(parse_pd(TREFOIL), "Z", max_crossings=2)
    with pytest.raises(CapExceeded):
        kauffman_bracket(parse_pd(TREFOIL), max_crossings=1)


# --------------------------------------------------------------------------
# j bounds
# --------------------------------------------------------------------------


def test_j_bounds_formulas_on_named_diagrams():
    assert j_bounds(parse_pd(TREFOIL)) == (-9, -1)
    assert j_bounds(parse_pd(FIG8)) == (-5, 5)
    assert j_bounds(parse_pd(HOPF)) == (0, 6)
    assert j_bounds(Diagram.unknot(2)) == (-2, 2)


def test_scanned_range_matches_formulas_on_sample(corpus12):
    for d in corpus12[:30]:
        assert scanned_j_range(d) == j_bounds(d)


# --------------------------------------------------------------------------
# bracket and Jones
# --------------------------------------------------------------------------


def test_bracket_frozen_values():
    assert kauffman_bracket(Diagram.unknot(1)) == LaurentPoly.one()
    assert kauffman_bracket(Diagram.unknot(2)) == LaurentPoly({2: -1, -2: -1})
    assert kauffman_bracket(parse_pd(TREFOIL)) == LaurentPoly(
        {-5: -1, 3: -1, 7: 1}
    )
    assert kauffman_bracket(parse_pd("X(1,2,2,1)")) == LaurentPoly({-3: -1})


def test_bracket_equals_the_union_find_state_sum(corpus12):
    diagrams = [parse_pd(TREFOIL), parse_pd(FIG8), parse_pd(HOPF)]
    diagrams += [Diagram.unknot(2), parse_pd("X(1,2,2,1) U")]
    diagrams += [d for d in corpus12 if 6 <= d.crossing_count <= 9][:6]
    for d in diagrams:
        assert kauffman_bracket(d).coeffs == bracket_by_state_sum(d)


def test_jones_frozen_values():
    assert jones(parse_pd(TREFOIL)) == LaurentPoly({4: 1, 12: 1, 16: -1})
    assert jones(Diagram.unknot(1)) == LaurentPoly.one()
    # reduced Jones of any unknot diagram is 1
    assert jones(parse_pd("X(1,1,2,2)")) == LaurentPoly.one()
    assert jones(parse_pd("X(1,2,2,1)")) == LaurentPoly.one()


def test_jones_of_mirror_inverts_variable():
    d = parse_pd(FIG8)
    v = jones(d)
    vm = jones(d.mirror())
    assert vm.coeffs == {-e: c for e, c in v.coeffs.items()}


def test_graded_jones_equals_euler_characteristic_on_named():
    for pd in (TREFOIL, FIG8, HOPF, "X(1,2,2,1)"):
        d = parse_pd(pd)
        table = khovanov_cohomology(d, "Z")
        assert table.graded_euler_characteristic() == graded_jones(d)
    d = Diagram.unknot(2)
    assert khovanov_cohomology(d, "Z").graded_euler_characteristic() == graded_jones(d)


def test_graded_jones_of_empty_diagram():
    empty = Diagram((), ())
    assert graded_jones(empty) == LaurentPoly({0: 1}, var="q")


def test_rows_share_parity(corpus12):
    for d in corpus12[:40]:
        j_min, j_max = j_bounds(d)
        assert (j_max - j_min) % 2 == 0
    for d in [d for d in corpus12 if d.crossing_count <= 5][:10]:
        j_min, _ = j_bounds(d)
        table = khovanov_cohomology(d, "Q")
        assert {j % 2 for _, j in table.entries} <= {j_min % 2}
