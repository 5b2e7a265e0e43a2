import random

import pytest

from conftest import (
    adjacency,
    bipartite_from_complex,
    bipartite_part,
    check_complex,
    cycle_graph,
    faces_by_product,
    from_maximal,
    independent_sets_by_enumeration,
    invariant_factors_by_minors,
    isomorphic,
    join,
    maximal_by_enumeration,
    random_bipartite,
    random_complex,
    random_graph,
    rank_mod_p_by_gauss,
    subsets_by_enumeration,
    suspension,
    two_hexagons_shared_vertex,
)
from exkh import simplicial
from exkh.errors import CapExceeded, EmptyPartW, NotAComplex, NotBipartition
from exkh.lando import Graph
from exkh.simplicial import (
    AbelianGroup,
    ChainComplex,
    DEFAULT_FACE_CAP,
    SimplicialComplex,
    _closed_family,
    _eliminate,
    _snf_dense,
    alexander_dual,
    coboundary_complex,
    cohomology,
    cohomology_of,
    homology,
    independence_complex,
    integer_rank,
    join_homology,
    jonsson_complex,
    jonsson_dual,
    over_ring,
    parse_ring,
    rank_mod_p,
    smith_normal_form,
    tensor_group,
    tor_group,
)

Z = AbelianGroup

# the six-vertex real projective plane, whose H_1 is Z/2
RP2_FACES = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]


def hexagon_graph() -> Graph:
    return Graph.build(range(1, 7), [(i, i % 6 + 1) for i in range(1, 7)])


# --------------------------------------------------------------------------
# groups
# --------------------------------------------------------------------------


def test_group_normalisation():
    g = Z.from_orders(0, (4, 2, 3))
    assert g == Z(0, (2, 12))
    assert Z.from_orders(1, (0, 6, 4)) == Z(2, (2, 12))
    assert Z.from_orders(0, (1, 1)) == Z(0)
    assert str(Z(2, (2,))) == "Z^2 ⊕ Z/2"
    assert str(Z(0)) == "0"
    assert Z(0).is_trivial and not Z(0, (2,)).is_trivial


def test_from_orders_against_minor_gcds():
    # The chain of a direct sum of cyclic groups is the Smith form of the
    # diagonal matrix of their orders.
    rng = random.Random(43)
    for _ in range(150):
        orders = [
            rng.choice((0, 1, 2, 2, 3, 3, 4, 6, 8, 9, 12, 25))
            for _ in range(rng.randrange(6))
        ]
        if orders:
            orders[rng.randrange(len(orders))] *= -1
        rank = rng.randrange(3)
        diagonal = [
            [n if a == b else 0 for b in range(len(orders))]
            for a, n in enumerate(orders)
        ]
        factors = invariant_factors_by_minors(diagonal)
        want = Z(rank + len(orders) - len(factors), tuple(f for f in factors if f > 1))
        assert Z.from_orders(rank, orders) == want, (rank, orders)


def test_group_torsion_chain_validated():
    with pytest.raises(ValueError):
        Z(0, (4, 2))


def test_direct_sum():
    assert Z(1, (2,)).direct_sum(Z(0, (4,))) == Z(1, (2, 4))
    assert Z(0, (2,)).direct_sum(Z(0, (3,))) == Z(0, (6,))


def test_direct_sum_never_factors():
    p, q = 1000000007, 998244353  # trial division would take ~10^9 steps
    assert Z(0, (p * q,)).direct_sum(Z(0, (2,))) == Z(0, (2 * p * q,))


def test_tensor_and_tor():
    z2, z4 = Z(0, (2,)), Z(0, (4,))
    assert tensor_group(z2, z4) == Z(0, (2,))
    assert tor_group(z2, z4) == Z(0, (2,))
    assert tensor_group(Z(2), Z(3)) == Z(6)
    assert tor_group(Z(5), Z(7)) == Z(0)
    assert tensor_group(Z(1), z2) == Z(0, (2,))


# --------------------------------------------------------------------------
# integer linear algebra
# --------------------------------------------------------------------------


def test_smith_normal_form_frozen_cases():
    assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)
    assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)
    assert smith_normal_form([]) == ((), 0)


def test_smith_normal_form_never_factors():
    big = 1000000007 * 998244353  # trial division would take ~10^9 steps
    assert smith_normal_form([[big, 0], [0, 1]]) == ((1, big), 2)
    assert smith_normal_form([[2 * big, 0], [0, 2]]) == ((2, 2 * big), 2)


def test_smith_normal_form_against_minor_gcds():
    rng = random.Random(41)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [
            [rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)
        ]
        factors, rank = smith_normal_form(m)
        assert factors == invariant_factors_by_minors(m)
        assert rank == len(factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        for p in (2, 3, 5):
            want = rank_mod_p_by_gauss(m, p)
            assert rank_mod_p(m, p) == want == sum(f % p != 0 for f in factors)


def test_sparse_elimination_matches_dense_smith_form():
    # Sparse entries in -2..2 leave rows without a unit and create fill-in,
    # so the heap's pivot order and the residual core both get exercised.
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 31)
        cols = rng.randrange(1, 31)
        density = rng.choice((0.08, 0.15, 0.3))
        m = [
            [
                rng.choice((-2, -1, 1, 2)) if rng.random() < density else 0
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        core = _snf_dense([list(r) for r in m])
        torsion = AbelianGroup.from_orders(0, core).torsion
        want = (1,) * (len(core) - len(torsion)) + torsion
        assert smith_normal_form(m) == (want, len(core))


def _sparse_rows(m):
    """The kernel's {col: value} rows of a dense matrix."""
    return [{j: v for j, v in enumerate(r) if v} for r in m]


def test_elimination_kernel_against_minor_gcds():
    # Entries outside +-1 leave rows with no unit until a pivot changes
    # them, and lone unit pivots clear their columns; whatever the pivot
    # order, the pivots and the residual core must give the invariant
    # factors of the whole matrix, and no unit may be left behind.
    rng = random.Random(22)
    for _ in range(200):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 7)
        density = rng.choice((0.2, 0.35, 0.5))
        m = [
            [
                rng.choice((1, -1, 2, -2, 3, 4, 6)) if rng.random() < density else 0
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        _check_elimination(m)
    for _ in range(100):
        _check_elimination(_cascade(rng))
        _check_elimination(_filled_singletons(rng))
    # {0: 2} is set aside; the pivot at column 0 fills it to [0, -2, -2, 0],
    # which the length heap pops again before [0, 1, 3, 1] pivots at column 3
    _check_elimination([[2, 0, 0, 0], [1, 1, 1, 0], [0, 1, 3, 1]])


def _check_elimination(m):
    want = invariant_factors_by_minors(m)
    pivots, residual = _eliminate(_sparse_rows(m))
    assert not any(v in (1, -1) for r in residual for v in r), m
    assert len(set(pivots)) == len(pivots)
    assert (1,) * len(pivots) + tuple(_snf_dense(residual)) == want, m


def _shuffled(rng, rows, ncols):
    """Dense rows of sparse ones, with rows and columns permuted."""
    perm = rng.sample(range(ncols), ncols)
    rng.shuffle(rows)
    return [[r.get(perm[c], 0) for c in range(ncols)] for r in rows]


def _cascade(rng):
    # row k is a unit at column k plus an entry at column k-1, so each lone
    # unit's clear leaves the next row of the chain a lone unit
    n = rng.randrange(2, 6)
    rows = [{0: rng.choice((1, -1))}]
    for k in range(1, n):
        rows.append({k - 1: rng.choice((1, 2, -3)), k: rng.choice((1, -1))})
    if rng.random() < 0.5:
        rows.append({c: rng.choice((1, 2, -2)) for c in range(n + 1) if rng.random() < 0.5})
    return _shuffled(rng, rows, n + 1)


def _filled_singletons(rng):
    # a lone non-unit is set aside; a pivot at its column fills it, so it
    # must come back through the length heap
    n = rng.randrange(3, 6)
    rows = [{0: rng.choice((2, -2, 3))}]
    pivot = {0: rng.choice((1, -1))}
    pivot.update((c, rng.choice((1, 2, -1))) for c in range(1, n) if rng.random() < 0.6)
    rows.append(pivot)
    for _ in range(rng.randrange(1, 4)):
        rows.append({c: rng.choice((1, 2, -2, 3)) for c in range(1, n) if rng.random() < 0.5})
    return _shuffled(rng, rows, n)


@pytest.mark.parametrize("n, entries", [(12, 691), (15, 3495)])
def test_lone_units_go_lowest_row_first(monkeypatch, n, entries):
    # the lone order picks the basis elements each map cancels, so it sets
    # how many entries the kernel is handed for the next map, whether the
    # rows are copied from coboundary_complex or built from the face masks;
    # a last-in-first-out order hands over 701 and 3,557
    handed = []

    def counting(rows):
        handed.append(sum(map(len, rows)))
        return _eliminate(rows)

    monkeypatch.setattr(simplicial, "_eliminate", counting)
    x = independence_complex(cycle_graph(n))
    for reduce in (lambda: cohomology(coboundary_complex(x)), lambda: cohomology_of(x)):
        handed.clear()
        groups = reduce()
        assert {d: g for d, g in groups.items() if not g.is_trivial} == {
            (n - 3) // 3: Z(2)
        }
        assert sum(handed) == entries


def _seeded_y_d() -> SimplicialComplex:
    """The first seeded Y_D = jonsson_dual(g, V) with four maps or more."""
    rng = random.Random(28)
    while True:
        g = random_bipartite(rng)
        y = jonsson_dual(g, [v for v in g.vertices if v.startswith("v")])
        if len(y.levels) >= 5:
            return y


def test_cohomology_of_hands_the_kernel_the_rows_cohomology_does(monkeypatch):
    # built from the face masks after the map below is reduced, the rows
    # are those cohomology copies out of coboundary_complex with the
    # cancelled columns dropped: map by map, row by row, in insertion order
    handed: list[list] = []

    def recording(rows):
        handed[-1].append([list(r.items()) for r in rows])
        return _eliminate(rows)

    def refused(*args):
        raise AssertionError("cohomology_of names faces or builds a ChainComplex")

    monkeypatch.setattr(simplicial, "_eliminate", recording)
    for x in (independence_complex(cycle_graph(12)), _seeded_y_d()):
        handed.append([])
        want = cohomology(coboundary_complex(x))
        handed.append([])
        with monkeypatch.context() as m:
            m.setattr(simplicial, "coboundary_complex", refused)
            m.setattr(simplicial, "_named", refused)
            assert cohomology_of(x) == want
        assert len(handed[-1]) == len(x.levels) - 1 >= 4
        assert handed[-1] == handed[-2]


def _oracle_cases():
    rng = random.Random(2028)
    for k in range(200):
        yield f"Ind(G_{k})", independence_complex(random_graph(rng))
    for k in range(40):
        g = random_bipartite(rng)
        yield f"Y_{k}", jonsson_dual(g, [v for v in g.vertices if v.startswith("v")])
    yield "RP2", from_maximal(range(1, 7), RP2_FACES)
    yield "void", SimplicialComplex.void((1, 2))
    yield "empty", from_maximal((1, 2), [()])
    for n in range(16):
        yield f"Ind(C_{n})", independence_complex(cycle_graph(n))


def test_cohomology_of_matches_cohomology_of_the_coboundary_complex():
    seen = {"torsion": 0, "Y_D": 0, "void": 0, "empty": 0}
    for label, x in _oracle_cases():
        cc = coboundary_complex(x)
        got = cohomology_of(x)
        assert got == cohomology(cc), label
        seen["torsion"] += any(g.torsion for g in got.values())
        seen["Y_D"] += label.startswith("Y_") and len(x.levels) > 2
        seen["void"] += x.is_void
        seen["empty"] += x.levels == ((0,),)
    assert all(seen.values()), seen


def test_elimination_brings_back_a_row_a_pivot_gives_a_unit():
    # [2, 3] is popped before [1, 1, 1] and set aside, having no unit; the
    # pivot at column 0 turns it into [0, 1, -2], whose unit must still be
    # pivoted on, though the row neither drops to one entry nor grows.
    m = [[2, 3, 0], [1, 1, 1], [0, 0, 2]]
    pivots, residual = _eliminate(_sparse_rows(m))
    assert sorted(pivots) == [0, 1]
    assert residual == [[2]]
    assert (1,) * len(pivots) + tuple(_snf_dense(residual)) == (1, 1, 2)
    assert invariant_factors_by_minors(m) == (1, 1, 2)


def test_integer_rank_and_mod_p():
    m = [[2, 4], [6, 8]]
    assert integer_rank(m) == 2
    assert rank_mod_p(m, 2) == 0  # both invariant factors are even
    assert rank_mod_p(m, 3) == 2
    assert rank_mod_p([[2, 0], [0, 3]], 3) == 1
    assert rank_mod_p([], 5) == 0


def test_parse_ring():
    assert parse_ring("Z") == ("Z", None)
    assert parse_ring("Q") == ("Q", None)
    assert parse_ring("F2") == ("F", 2)
    assert parse_ring("F97") == ("F", 97)
    # only ASCII digits with no leading zero name p: int() would read
    # every one of these as 2 or 11
    lenient = ("F 2", "F+2", "F02", "F\uff12", "F1_1", "F2 ", " F2", "F2\n")
    for bad in ("F4", "F1", "F0", "F", "F-3", "f2", "R", "GF(2)", "", *lenient):
        with pytest.raises(ValueError, match="unknown coefficient ring"):
            parse_ring(bad)


def test_parse_ring_decides_large_primes_at_once():
    # trial division would take about 10^10 steps on the first
    assert parse_ring("F100000000000000000039") == ("F", 100000000000000000039)
    assert parse_ring("F18446744073709551557") == ("F", 2**64 - 59)
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5, 7;
    # the next two are the least strong pseudoprime to the first 13 prime
    # bases, past which the test is not exact, and the prime 2^89 - 1
    for bad in ("F3215031751", "F3317044064679887385961981", f"F{2**89 - 1}"):
        with pytest.raises(ValueError, match="unknown coefficient ring"):
            parse_ring(bad)


# --------------------------------------------------------------------------
# complexes and their (co)homology
# --------------------------------------------------------------------------


def test_from_faces_rebuilds_every_corpus_complex(complex_corpus):
    for x in complex_corpus:
        assert from_maximal(x.ground, x.maximal) == x


def test_independence_complex_matches_subset_enumeration():
    # the enumerator's faces come out in the cochain order, with nothing
    # sorted: by size, then lexicographically, as combinations yield them
    rng = random.Random(9)
    for _ in range(200):
        g = random_graph(rng)
        want = independent_sets_by_enumeration(g)
        x = independence_complex(g)
        assert x.faces() == tuple(want), g
        assert x.maximal == maximal_by_enumeration(g.vertices, want), g
        assert x == from_maximal(g.vertices, want)


def test_jonsson_builders_match_subset_enumeration():
    rng = random.Random(10)
    checked = {"Jonsson": 0, "void Y": 0}
    while checked["Jonsson"] < 200:
        g, part_v = bipartite_part(random_graph(rng))
        hoods = [adjacency(g)[w] for w in g.vertices if w not in part_v]
        if not hoods:
            continue  # no side W
        checked["Jonsson"] += 1
        for build, keep in (
            (jonsson_complex, lambda s: any(not h & s for h in hoods)),
            (jonsson_dual, lambda s: not any(h <= s for h in hoods)),
        ):
            want = subsets_by_enumeration(part_v, keep)
            x = build(g, part_v)
            assert x.faces() == tuple(want), (build.__name__, g)
            assert x.maximal == maximal_by_enumeration(part_v, want), (build.__name__, g)
        y = jonsson_dual(g, part_v)
        dual = alexander_dual(jonsson_complex(g, part_v))
        assert (y.ground, y.maximal) == (dual.ground, dual.maximal)
        assert y.faces() == dual.faces()
        checked["void Y"] += y.is_void
    assert all(checked.values()), checked


def test_void_vs_empty():
    v = SimplicialComplex.void((1, 2))
    e = from_maximal((1, 2), [()])
    assert v.is_void
    assert not e.is_void
    assert v.f_vector() == (0,)
    assert e.f_vector() == (1,)
    assert v.dimension is None
    assert e.dimension == -1
    assert homology(v) == {}
    assert homology(e) == {-1: Z(1)}


def test_faces_and_cap():
    f = from_maximal(range(5), [range(5)])
    assert len(f.faces()) == 32
    with pytest.raises(CapExceeded):
        from_maximal(range(5), [range(5)], cap=10)


def test_hexagon_coboundaries_match_frozen_matrices():
    x = independence_complex(hexagon_graph())
    cc = coboundary_complex(x)
    check_complex(cc)
    assert cc.bases[0] == ((1,), (2,), (3,), (4,), (5,), (6,))
    assert cc.bases[1] == (
        (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6),
        (3, 5), (3, 6), (4, 6),
    )
    assert cc.bases[2] == ((1, 3, 5), (2, 4, 6))
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
    ranks = [integer_rank(cc.matrices[d]) for d in (-1, 0, 1)]
    assert ranks == [1, 5, 2]
    h = over_ring(cohomology_of(x), "Q")
    assert h[1] == Z(2)
    assert all(g.is_trivial for d, g in h.items() if d != 1)


def test_projective_plane_torsion():
    rp2 = from_maximal(range(1, 7), RP2_FACES)
    h = homology(rp2)
    assert h[1] == Z(0, (2,))
    assert h[2] == Z(0)
    ch = cohomology_of(rp2)
    assert ch[2] == Z(0, (2,))
    assert ch[1] == Z(0)
    f2 = over_ring(ch, "F2")
    assert f2[1] == Z(1) and f2[2] == Z(1)
    q = over_ring(ch, "Q")
    assert all(g.is_trivial for g in q.values())


def test_a_ring_is_read_off_a_sparse_row_in_full():
    # Z/2 in degree 1 adds F2 to degree 0, which the row leaves out
    assert over_ring({1: Z(0, (2,))}, "F2") == {0: Z(1), 1: Z(1)}
    assert over_ring({1: Z(0, (2,))}, "F3") == {1: Z(0)}
    assert over_ring({1: Z(0, (2,))}, "Q") == {1: Z(0)}
    def nonzero(groups):
        return {d: g for d, g in groups.items() if not g.is_trivial}

    full = cohomology_of(from_maximal(range(1, 7), RP2_FACES))
    assert nonzero(full) == {2: Z(0, (2,))}
    for ring in ("Q", "F2", "F3"):
        assert nonzero(over_ring(nonzero(full), ring)) == nonzero(over_ring(full, ring)), ring
    assert nonzero(over_ring(full, "F2")) == {1: Z(1), 2: Z(1)}


def test_homology_of_spheres():
    for n in range(1, 5):
        # boundary of the (n+1)-simplex is an n-sphere
        full = from_maximal(range(n + 2), [range(n + 2)])
        sphere = from_maximal(
            range(n + 2),
            [f for f in full.faces() if len(f) == n + 1],
        )
        h = homology(sphere)
        assert h[n] == Z(1)
        assert all(g.is_trivial for d, g in h.items() if d != n)


def test_chain_complex_check_catches_bad_square():
    bases = {0: ((1,), (2,)), 1: ((1, 2),), 2: ((1, 2, 3),)}
    cc = ChainComplex(bases=bases, rows={0: ({0: 1, 1: 1},), 1: ({0: 1},)})
    with pytest.raises(NotAComplex):
        check_complex(cc)
    # one row too many for the degree-1 basis
    cc = ChainComplex(bases=bases, rows={0: ({0: 1}, {1: 1}), 1: ({},)})
    with pytest.raises(NotAComplex):
        check_complex(cc)
    # column 2 lies outside the two-element degree-0 basis
    cc = ChainComplex(bases=bases, rows={0: ({0: 1, 2: -1},), 1: ({},)})
    with pytest.raises(NotAComplex):
        check_complex(cc)


def test_cohomology_rings_disagree_only_by_torsion():
    x = independence_complex(two_hexagons_shared_vertex())
    over_z = cohomology_of(x)
    over_q = over_ring(over_z, "Q")
    for d, g in over_z.items():
        assert over_q.get(d, Z(0)).rank == g.rank


# --------------------------------------------------------------------------
# Alexander duality
# --------------------------------------------------------------------------


def square_plus_point() -> SimplicialComplex:
    return from_maximal(
        range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 1), (5,)]
    )


def test_alexander_dual_of_square_plus_point():
    x = square_plus_point()
    dual = alexander_dual(x)
    want = [
        (), (1,), (2,), (3,), (4,), (5,),
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
        (3, 4), (3, 5), (4, 5),
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5),
    ]
    assert dual.faces() == tuple(want)
    assert len(x.faces()) + len(dual.faces()) == 32
    h = homology(dual)
    assert h[1] == Z(1) and h[2] == Z(1)


def test_alexander_dual_is_involution(complex_corpus):
    for x in complex_corpus:
        assert alexander_dual(alexander_dual(x)).maximal == x.maximal


def test_alexander_dual_extremes():
    full = from_maximal((1, 2, 3), [(1, 2, 3)])
    assert alexander_dual(full).is_void
    assert alexander_dual(SimplicialComplex.void((1, 2, 3))).maximal == full.maximal


def test_alexander_duality_theorem(complex_corpus):
    for x in complex_corpus:
        n = len(x.ground)
        dual = alexander_dual(x)
        h = homology(x)
        ch = cohomology_of(dual)
        degrees = set(h) | {n - 3 - d for d in ch}
        for d in degrees:
            assert h.get(d, Z(0)) == ch.get(n - 3 - d, Z(0)), (
                x.maximal, d, h, ch,
            )


# --------------------------------------------------------------------------
# joins
# --------------------------------------------------------------------------


def test_join_faces_match_definition():
    rng = random.Random(17)
    for _ in range(15):
        x = random_complex(rng, max_ground=4)
        y = random_complex(rng, max_ground=4)
        j = join(x, y)
        assert {frozenset(f) for f in j.faces()} == faces_by_product(x, y)


def test_join_with_void_is_void():
    x = square_plus_point()
    assert join(x, SimplicialComplex.void()).is_void
    assert join(SimplicialComplex.void(), x).is_void


def test_join_with_empty_is_identity_up_to_tags():
    x = square_plus_point()
    j = join(x, from_maximal((), [()]))
    assert len(j.faces()) == len(x.faces())


def test_suspension_shifts_homology(complex_corpus):
    for x in complex_corpus[:25]:
        s = suspension(x)
        h = homology(x)
        hs = homology(s)
        degrees = {d + 1 for d in h} | set(hs)
        for d in degrees:
            assert hs.get(d, Z(0)) == h.get(d - 1, Z(0))


def test_join_homology_matches_direct_computation():
    rng = random.Random(23)
    for _ in range(12):
        x = random_complex(rng, max_ground=4)
        y = random_complex(rng, max_ground=4)
        direct = homology(join(x, y))
        kunneth = join_homology(homology(x), homology(y))
        degrees = set(direct) | set(kunneth)
        for d in degrees:
            assert direct.get(d, Z(0)) == kunneth.get(d, Z(0)), (
                x.maximal, y.maximal, d,
            )


def test_join_homology_torsion_example():
    z2 = {0: Z(0, (2,))}
    out = join_homology(z2, z2)
    assert out[1] == Z(0, (2,))
    assert out[2] == Z(0, (2,))


# --------------------------------------------------------------------------
# Jonsson constructions
# --------------------------------------------------------------------------


def test_jonsson_complex_of_hexagon():
    g = hexagon_graph()
    y = jonsson_complex(g, [1, 3, 5])
    # three isolated vertices: each single chord has an unseen witness,
    # but any two of the chosen part dominate all of the other part
    assert y.f_vector() == (1, 3)
    assert homology(y)[0] == Z(2)


def test_jonsson_complex_errors():
    g = hexagon_graph()
    with pytest.raises(NotBipartition):
        jonsson_complex(g, [1, 2])  # 1-2 is an edge inside the part
    with pytest.raises(NotBipartition):
        jonsson_complex(g, [1, 99])
    with pytest.raises(EmptyPartW):
        jonsson_complex(Graph.build([], []), [])


def test_jonsson_shift_for_hexagon():
    g = hexagon_graph()
    x = independence_complex(g)
    y = jonsson_complex(g, [1, 3, 5])
    hx = cohomology_of(x)
    hy = cohomology_of(y)
    degrees = set(hx) | {d + 1 for d in hy}
    for d in degrees:
        assert hx.get(d, Z(0)) == hy.get(d - 1, Z(0))


def test_jonsson_shift_on_bipartite_corpus(bipartite_corpus):
    for g in bipartite_corpus[:20]:
        part_v = [v for v in g.vertices if str(v).startswith("v")]
        x = independence_complex(g)
        y = jonsson_complex(g, part_v)
        hx = cohomology_of(x)
        hy = cohomology_of(y)
        degrees = set(hx) | {d + 1 for d in hy}
        for d in degrees:
            assert hx.get(d, Z(0)) == hy.get(d - 1, Z(0)), (
                g.vertices, g.edges, d,
            )


def test_bipartite_from_complex_rebuilds_two_hexagons():
    dual = alexander_dual(square_plus_point())
    g = bipartite_from_complex(dual)
    assert isomorphic(g, two_hexagons_shared_vertex())


def test_bipartite_from_complex_shift(complex_corpus):
    for x in complex_corpus[:15]:
        if x.is_void or not x.ground:
            continue
        g = bipartite_from_complex(x)
        hx = cohomology_of(x)
        hg = cohomology_of(independence_complex(g))
        degrees = set(hg) | {d + 1 for d in hx}
        for d in degrees:
            assert hg.get(d, Z(0)) == hx.get(d - 1, Z(0)), (
                x.maximal, d,
            )


def test_jonsson_complex_of_two_hexagons_either_side():
    # the shift pins X_{G,V} homology one degree under X_G, whichever part
    # of the bipartition plays V
    g = two_hexagons_shared_vertex()
    colors = g.two_coloring()
    for c in (0, 1):
        side = [v for v in g.vertices if colors[v] == c]
        y = jonsson_complex(g, side)
        h = homology(y)
        assert h.get(1, Z(0)) == Z(1) and h.get(2, Z(0)) == Z(1)
        assert all(g2.is_trivial for d, g2 in h.items() if d not in (1, 2))


def test_independence_complex_respects_cap():
    g = Graph.build(range(20), [])
    with pytest.raises(CapExceeded):
        independence_complex(g, cap=100)


def test_every_builder_stops_at_its_cap():
    rng = random.Random(11)
    capped = set()
    for _ in range(30):
        g, part_v = bipartite_part(random_graph(rng))
        if len(part_v) == len(g.vertices):
            continue  # no side W
        x = independence_complex(g)
        f_vectors = {  # each within a cap
            "independent set enumeration": lambda cap: independence_complex(g, cap).f_vector(),
            "Jonsson face enumeration": lambda cap: jonsson_complex(g, part_v, cap).f_vector(),
            "Y_D face enumeration": lambda cap: jonsson_dual(g, part_v, cap).f_vector(),
            "dual face enumeration": lambda cap: alexander_dual(x, cap).f_vector(),
        }
        for stage, build in f_vectors.items():
            count = sum(build(DEFAULT_FACE_CAP))
            if not count:
                continue  # a void complex builds nothing
            with pytest.raises(CapExceeded, match=stage):
                build(count - 1)
            build(count)
            capped.add(stage)
    assert len(capped) == 4, capped


def test_capped_enumeration_stops_right_after_the_face_past_the_cap():
    adj = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]  # the 5-cycle
    answers = []

    def admits(f, k):
        answers.append(not adj[k] & f)
        return answers[-1]

    total = len(_closed_family(range(5), admits, DEFAULT_FACE_CAP, "cycle").faces())
    assert total == 11
    for cap in range(1, total):
        answers.clear()
        with pytest.raises(CapExceeded, match="cycle"):
            _closed_family(range(5), admits, cap, "cycle")
        # the empty face and ``cap`` admitted ones, and not one question more
        assert answers.count(True) == cap and answers[-1]


def test_enumerator_rejects_a_family_not_closed_under_subsets():
    # {1} is never admitted, but {0, 1} is
    with pytest.raises(NotAComplex):
        _closed_family(range(3), lambda f, k: f != 0 or k != 1, DEFAULT_FACE_CAP, "t")


def test_jonsson_complex_respects_cap():
    g = Graph.build(range(20), [])  # V = 0..9 with W = 10..19: the full simplex
    assert len(jonsson_complex(g, range(10), cap=1024).faces()) == 1024
    with pytest.raises(CapExceeded, match="Jonsson"):
        jonsson_complex(g, range(10), cap=1023)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: from_maximal((1, 1, 2), [(1, 2)]), "duplicate"),
        (lambda: from_maximal((1, 2), [(1, 3)]), "not inside"),
        (lambda: from_maximal((1, 1, 2), [(1, 1, 2)]), "duplicate"),
    ],
    ids=[
        "from_maximal-repeat", "from_maximal-outside",
        "full_simplex-repeat",
    ],
)
def test_builders_reject_a_repeated_vertex_and_a_face_outside_the_ground(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_the_package_builds_no_complex_from_a_list_of_faces():
    # from_maximal and join are the tests' own builders, in conftest
    assert not hasattr(SimplicialComplex, "from_maximal")
    assert not hasattr(simplicial, "join")


def test_every_complex_comes_out_of_one_enumeration(monkeypatch):
    x = independence_complex(hexagon_graph())
    stages = []
    honest = simplicial._closed_family

    def recording(ground, admits, cap, stage):
        stages.append(stage)
        return honest(ground, admits, cap, stage)

    monkeypatch.setattr(simplicial, "_closed_family", recording)
    built = {}
    for name, build in {
        "independence_complex": lambda: independence_complex(hexagon_graph()),
        "from_maximal": lambda: from_maximal(x.ground, x.maximal),
        "join": lambda: join(x, x),
    }.items():
        stages.clear()
        built[name] = build()
        assert len(stages) == 1, (name, stages)
    stages.clear()
    for y in built.values():
        y.faces()
        y.f_vector()
        coboundary_complex(y)
        homology(y)
    assert stages == []
    # complexes with the same faces are equal and hash alike, however built
    same = {built["independence_complex"], built["from_maximal"], x}
    assert len(same) == 1
    assert built["join"] != x
