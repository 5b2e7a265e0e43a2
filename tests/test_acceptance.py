"""The ten acceptance checks, one test (and one printed verdict line) each.

Run with ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion, or add ``-s`` to see the printed verdicts too.
"""

import random
from collections import defaultdict
from math import comb

from conftest import (
    bipartite_from_complex,
    check_complex,
    enhanced,
    from_maximal,
    isomorphic,
    ranks_from_lowest,
    suspension,
    two_hexagons_shared_vertex,
)
from exkh.diagram import Diagram, parse_pd
from exkh.extreme import (
    extreme_row,
    extreme_via_brute,
    extreme_via_lando,
)
from exkh.families import (
    binomial_row,
    join_power_table,
    knotify,
    load_catalog,
    thick_family,
)
from exkh.khovanov import (
    graded_jones,
    j_bounds,
    kauffman_bracket,
    khovanov_cohomology,
    khovanov_complex,
    scanned_j_range,
)
from exkh.lando import Graph, build_lando, independence_number
from exkh.simplicial import (
    AbelianGroup,
    SimplicialComplex,
    alexander_dual,
    coboundary_complex,
    cohomology_of,
    homology,
    independence_complex,
    integer_rank,
    jonsson_complex,
    over_ring,
)

Z = AbelianGroup


def square_plus_point() -> SimplicialComplex:
    """A 4-cycle and an isolated vertex on the ground set 1..5."""
    return from_maximal(
        range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 1), (5,)]
    )


def _verdict(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS — {text}", flush=True)


# --------------------------------------------------------------------------
# 1. the hexagon complex, to the last matrix entry
# --------------------------------------------------------------------------


def test_criterion_01_hexagon_complex_exact():
    g = Graph.build(range(1, 7), [(k, k % 6 + 1) for k in range(1, 7)])
    x = independence_complex(g, 10_000)
    assert x.f_vector() == (1, 6, 9, 2)
    cc = coboundary_complex(x)
    check_complex(cc)
    assert cc.bases[1] == (
        (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6),
        (3, 5), (3, 6), (4, 6),
    )
    assert cc.matrices[-1] == ((1,), (1,), (1,), (1,), (1,), (1,))
    assert cc.matrices[0] == (
        (1, 0, -1, 0, 0, 0),
        (1, 0, 0, -1, 0, 0),
        (1, 0, 0, 0, -1, 0),
        (0, 1, 0, -1, 0, 0),
        (0, 1, 0, 0, -1, 0),
        (0, 1, 0, 0, 0, -1),
        (0, 0, 1, 0, -1, 0),
        (0, 0, 1, 0, 0, -1),
        (0, 0, 0, 1, 0, -1),
    )
    assert cc.matrices[1] == (
        (1, 0, -1, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0, -1, 0, 0, 1),
    )
    assert [integer_rank(cc.matrices[d]) for d in (-1, 0, 1)] == [1, 5, 2]
    rational = over_ring(cohomology_of(x), "Q")
    assert rational[1] == Z(2)
    assert all(grp.is_trivial for d, grp in rational.items() if d != 1)
    integral = cohomology_of(x)
    assert integral[1] == Z(2)
    _verdict(1, "hexagon complex matrices, ranks and H^1 = Z^2 all exact")


# --------------------------------------------------------------------------
# 2. the two-hexagon complex, dimension counts and both nonzero groups
# --------------------------------------------------------------------------


def test_criterion_02_two_hexagon_complex():
    x = independence_complex(two_hexagons_shared_vertex(), 100_000)
    assert x.f_vector() == (1, 11, 43, 73, 52, 13, 1)
    cc = coboundary_complex(x)
    check_complex(cc)
    ranks = [integer_rank(cc.matrices[d]) for d in range(-1, 5)]
    assert ranks == [1, 10, 33, 39, 12, 1]
    h = cohomology_of(x)
    assert h[2] == Z(1) and h[3] == Z(1)
    assert all(grp.is_trivial for d, grp in h.items() if d not in (2, 3))
    _verdict(2, "two-hexagon complex ranks (1,10,33,39,12,1), H^2 = H^3 = Z")


# --------------------------------------------------------------------------
# 3. the geometric route equals brute force on 200 diagrams plus catalog
# --------------------------------------------------------------------------


def test_criterion_03_lando_equals_brute_force(corpus12):
    diagrams = [(d.to_pd(), d) for d in corpus12]
    diagrams += [
        (name, entry.diagram()) for name, entry in load_catalog().items()
    ]
    assert len(diagrams) >= 202
    for label, d in diagrams:
        geometric = extreme_via_lando(d, "Z")
        brute = extreme_via_brute(d, "Z")
        assert geometric.j == brute.j, label
        assert geometric.groups == brute.groups, label
    _verdict(
        3,
        f"extreme rows agree geometric vs brute on {len(diagrams)} diagrams",
    )


# --------------------------------------------------------------------------
# 4. the closed j-range formulas match a full state scan
# --------------------------------------------------------------------------


def test_criterion_04_j_bound_formulas(corpus12):
    for d in corpus12:
        assert scanned_j_range(d) == j_bounds(d), d.to_pd()
    _verdict(4, f"j-range formulas match state scans on {len(corpus12)} diagrams")


# --------------------------------------------------------------------------
# 5. Alexander duality, frozen example and random corpus
# --------------------------------------------------------------------------


def test_criterion_05_alexander_duality(complex_corpus):
    x = square_plus_point()
    dual = alexander_dual(x)
    assert len(x.faces()) == 10
    assert dual.faces() == (
        (), (1,), (2,), (3,), (4,), (5,),
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
        (3, 4), (3, 5), (4, 5),
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5),
    )
    assert len(x.faces()) + len(dual.faces()) == 2 ** 5
    for i in (0, 1):
        assert homology(x).get(i, Z(0)) == cohomology_of(dual).get(
            2 - i, Z(0)
        )
    for x in complex_corpus:
        n = len(x.ground)
        dual = alexander_dual(x)
        h = homology(x)
        ch = cohomology_of(dual)
        for d in set(h) | {n - 3 - k for k in ch}:
            assert h.get(d, Z(0)) == ch.get(n - 3 - d, Z(0)), (x.maximal, d)
    _verdict(
        5,
        "10-face complex dualises to the 22-face list; duality holds on "
        f"{len(complex_corpus)} random complexes",
    )


# --------------------------------------------------------------------------
# 6. the degree shift between a graph complex and its Jonsson complex
# --------------------------------------------------------------------------


def test_criterion_06_jonsson_shift(bipartite_corpus, complex_corpus):
    for g in bipartite_corpus:
        part_v = sorted(v for v in g.vertices if str(v).startswith("v"))
        hx = cohomology_of(independence_complex(g))
        hy = cohomology_of(jonsson_complex(g, part_v))
        for d in set(hx) | {k + 1 for k in hy}:
            assert hx.get(d, Z(0)) == hy.get(d - 1, Z(0)), (g.vertices, d)
    for x in complex_corpus:
        if x.is_void or not x.ground:
            continue
        g = bipartite_from_complex(x)
        hg = cohomology_of(independence_complex(g))
        hx = cohomology_of(x)
        for d in set(hg) | {k + 1 for k in hx}:
            assert hg.get(d, Z(0)) == hx.get(d - 1, Z(0)), (x.maximal, d)
    for x in complex_corpus[:30]:
        hs = homology(suspension(x))
        hx = homology(x)
        for d in set(hs) | {k + 1 for k in hx}:
            assert hs.get(d, Z(0)) == hx.get(d - 1, Z(0)), (x.maximal, d)
    rebuilt = bipartite_from_complex(alexander_dual(square_plus_point()))
    assert isomorphic(rebuilt, two_hexagons_shared_vertex())
    _verdict(
        6,
        f"Jonsson degree shift on {len(bipartite_corpus)} bipartite graphs "
        f"and {len(complex_corpus)} complexes; dual rebuilds two hexagons",
    )


# --------------------------------------------------------------------------
# 7. extreme bracket coefficients and graded Euler characteristics
# --------------------------------------------------------------------------


def _chain_euler_coeffs(d: Diagram) -> dict[int, int]:
    """Graded Euler characteristic straight from the chain groups."""
    out: dict[int, int] = defaultdict(int)
    c, w, n = d.crossing_count, d.writhe, d.negative_count
    for bits in range(1 << c):
        i = bits.bit_count() - n
        m = len(d._resolve_bits(bits))
        sign = -1 if i % 2 else 1
        for k in range(m + 1):
            out[w + i + m - 2 * k] += sign * comb(m, k)
    return {e: v for e, v in out.items() if v}


def test_criterion_07_bracket_and_euler(corpus12):
    upto10 = [d for d in corpus12 if d.crossing_count <= 10]
    for d in upto10:
        circles = len(d._resolve_bits(0))
        top = d.crossing_count + 2 * circles - 2
        coeff = kauffman_bracket(d).coefficient(top)
        want = (-1) ** (circles - 1) * independence_number(build_lando(d))
        assert coeff == want, d.to_pd()
        assert _chain_euler_coeffs(d) == graded_jones(d).coeffs, d.to_pd()
    upto8 = [d for d in upto10 if d.crossing_count <= 8]
    for d in upto8:
        table = khovanov_cohomology(d, "Z")
        assert table.graded_euler_characteristic() == graded_jones(d), d.to_pd()
    _verdict(
        7,
        f"extreme bracket coefficient = signed I(G) and chain-level Euler = "
        f"Jones on {len(upto10)} diagrams; full tables confirm on {len(upto8)}",
    )


# --------------------------------------------------------------------------
# 8. the binomial families
# --------------------------------------------------------------------------


def test_criterion_08_binomial_families():
    for n in (1, 2, 3, 4):
        assert join_power_table(n, 200_000) == binomial_row(n), n
    for n in (1, 2, 3):
        d = thick_family(n)
        assert d.component_count == 1
        row = extreme_via_lando(d)
        lo = min(row.groups)
        assert row.groups == {lo + k: Z(comb(n, k)) for k in range(n + 1)}
        if n <= 2:
            assert extreme_row(d, "Z", method="dual").groups == row.groups
    _verdict(
        8,
        "n-fold joins give binomial rows for n <= 4; one-component thick "
        "family realises them for n <= 3",
    )


# --------------------------------------------------------------------------
# 9. knotification preserves the Lando graph and the extreme row
# --------------------------------------------------------------------------


def test_criterion_09_knotify(corpus_multi):
    sample = corpus_multi[:50]
    assert len(sample) >= 50
    for d in sample:
        comps = d.components
        k = knotify(d, min(comps[0]), min(comps[1]))
        assert k.component_count == d.component_count - 1
        assert k.crossing_count == d.crossing_count + 2
        assert build_lando(k) == build_lando(d)
        before = ranks_from_lowest(extreme_via_lando(d).groups)
        after = ranks_from_lowest(extreme_via_lando(k).groups)
        assert before == after, d.to_pd()
    _verdict(
        9,
        f"clasp on {len(sample)} two-component diagrams keeps the Lando "
        "graph and the extreme ranks",
    )


# --------------------------------------------------------------------------
# 10. structural invariants
# --------------------------------------------------------------------------


def test_criterion_10_invariants(corpus12):
    # coboundaries square to zero
    for g in (
        Graph.build(range(1, 7), [(k, k % 6 + 1) for k in range(1, 7)]),
        two_hexagons_shared_vertex(),
    ):
        check_complex(coboundary_complex(independence_complex(g)))

    # differentials square to zero at every quantum degree of small diagrams
    for d in [d for d in corpus12 if d.crossing_count <= 6][:10]:
        j_min, j_max = j_bounds(d)
        for j in range(j_min, j_max + 1, 2):
            check_complex(khovanov_complex(d, j))

    # every table lives on a single j parity
    for d in [d for d in corpus12 if d.crossing_count <= 6][:10]:
        table = khovanov_cohomology(d, "Z")
        j_min, _ = j_bounds(d)
        assert {j % 2 for _, j in table.entries} <= {j_min % 2}

    # listing the crossings in another order changes nothing
    rng = random.Random(11)
    for d in corpus12[:10]:
        order = list(range(d.crossing_count))
        rng.shuffle(order)
        shuffled = Diagram(
            tuple(d.crossings[k] for k in order),
            tuple(d.signs[k] for k in order),
            d.free_loops,
        )
        assert extreme_via_lando(shuffled).groups == extreme_via_lando(d).groups

    # the only legal label transitions are the six multiplication rules:
    # every entry of the program's differential on a split and on a merge,
    # over all its rows, with the circle signs decoded from the minus masks
    split = {(1,): {(1, -1), (-1, 1)}, (-1,): {(-1, -1)}}
    merge = {(1, 1): {(1,)}, (1, -1): {(-1,)}, (-1, 1): {(-1,)}, (-1, -1): set()}
    for pd, legal in (("X(1,2,2,1)", split), ("X(1,1,2,2)", merge)):
        d = parse_pd(pd)
        got = {}
        j_min, j_max = j_bounds(d)
        for j in range(j_min, j_max + 1, 2):
            cc = khovanov_complex(d, j)
            for i, rows in cc.rows.items():
                for t, row in zip(cc.bases.get(i + 1, ()), rows):
                    for col, value in row.items():
                        s = cc.bases[i][col]
                        got[enhanced(d, *s).signs, enhanced(d, *t).signs] = value
        assert got == {
            (before, after): 1 for before, allowed in legal.items() for after in allowed
        }, pd
    _verdict(
        10,
        "differentials square to zero, single j parity, crossing order "
        "irrelevant, transition rules enforced",
    )
