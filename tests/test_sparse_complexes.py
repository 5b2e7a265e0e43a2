"""Sparse rows end to end, one pass per diagram, and cancellation across degrees.

``cohomology`` reduces a complex by its unit pivots over Z, lowest degree
first, dropping from d_i the columns that were unit pivot rows of d_{i-1},
and reads every other ring's groups off the integral ones.  These tests
hold it over Z, Q, F2, F3 and F5 to the per-map formula computed
independently from the dense view (dense Gaussian elimination mod p, map
by map, for F_p), pin residuals that keep Z/2, Z/3 and Z/4 torsion, hold
the one-pass Khovanov builder to the reference differential ``adjacent``
up to 5 crossings and to the generic drop-and-open edge rule
(``rows_by_generic_rule``) at 6-9, count its circle traces, check that
one row traces only the smoothings that can hold its states, that a
corrupted chord-end map is refused and that a build leaves no module
state behind, and run the cycle C_24, whose dense coboundaries did not
fit in memory, in a child process under a peak-RSS bound.
"""

import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (
    adjacent,
    check_complex,
    circle_count_by_union_find,
    enhanced,
    enumerate_enhanced,
    from_maximal,
    random_graph,
    rank_mod_p_by_gauss,
    rows_by_generic_rule,
    state_j,
    two_hexagons_shared_vertex,
)
from exkh import khovanov
from exkh.diagram import Diagram, parse_pd
from exkh.errors import NotAComplex
from exkh.families import load_catalog, split_union
from exkh.khovanov import _j_rows, j_bounds, khovanov_cohomology, khovanov_complex
from exkh.simplicial import (
    AbelianGroup,
    ChainComplex,
    SimplicialComplex,
    _eliminate,
    coboundary_complex,
    cohomology,
    independence_complex,
    over_ring,
    parse_ring,
    smith_normal_form,
)

RINGS = ("Z", "Q", "F2", "F3", "F5")
SRC = Path(__file__).resolve().parents[1] / "src"


def per_map_cohomology(cc: ChainComplex) -> dict[str, dict[int, AbelianGroup]]:
    """Groups over each ring from the dense view, each map reduced on its
    own and nothing cancelled across degrees."""
    ranks: dict[str, dict[int, int]] = {ring: {} for ring in RINGS}
    torsion: dict[int, tuple[int, ...]] = {}
    for d, m in cc.matrices.items():
        factors, ranks["Z"][d] = smith_normal_form(m)
        ranks["Q"][d] = ranks["Z"][d]
        torsion[d] = tuple(t for t in factors if t > 1)
        for ring in RINGS[2:]:
            ranks[ring][d] = rank_mod_p_by_gauss(m, parse_ring(ring)[1])
    return {
        ring: {
            d: AbelianGroup(
                cc.dim(d) - r.get(d, 0) - r.get(d - 1, 0),
                torsion.get(d - 1, ()) if ring == "Z" else (),
            )
            for d in cc.degrees
        }
        for ring, r in ranks.items()
    }


def catalog_diagrams() -> list[Diagram]:
    return [entry.diagram() for _, entry in sorted(load_catalog().items())]


def assert_matches_per_map(cc: ChainComplex, label) -> dict[int, AbelianGroup]:
    """Check every ring; return the integral groups."""
    check_complex(cc)
    want = per_map_cohomology(cc)
    for ring in RINGS:
        assert over_ring(cohomology(cc), ring) == want[ring], (label, ring)
    return want["Z"]


# --------------------------------------------------------------------------
# cancellation across degrees against the per-map formula
# --------------------------------------------------------------------------


def test_khovanov_rows_match_the_per_map_formula(corpus12):
    diagrams = catalog_diagrams() + list(corpus12)
    torsion_rows = 0
    for k, d in enumerate(dd for dd in diagrams if dd.crossing_count <= 7):
        for j, cc in _j_rows(d).items():
            groups = assert_matches_per_map(cc, (k, j))
            torsion_rows += any(g.torsion for g in groups.values())
    assert torsion_rows  # Z/2 torsion is among the cases


def test_rp2_and_two_hexagons_match_the_per_map_formula():
    rp2 = from_maximal(
        range(1, 7),
        [
            (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
            (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
        ],
    )
    assert cohomology(coboundary_complex(rp2))[2] == AbelianGroup(0, (2,))
    assert_matches_per_map(coboundary_complex(rp2), "RP2")
    hexagons = independence_complex(two_hexagons_shared_vertex())
    assert_matches_per_map(coboundary_complex(hexagons), "two hexagons")


def test_random_independence_complexes_match_the_per_map_formula():
    rng = random.Random(17)
    for k in range(120):
        g = random_graph(rng)
        assert_matches_per_map(coboundary_complex(independence_complex(g)), k)


def test_non_unit_pivot_rows_are_not_cancelled():
    # Z --2--> Z --0--> Z: the pivot 2 is not a unit, so nothing is cancelled
    cc = ChainComplex(
        bases={0: ("a",), 1: ("b",), 2: ("c",)},
        rows={0: ({0: 2},), 1: ({},), 2: ()},
    )
    assert_matches_per_map(cc, "Z -2-> Z -> Z")
    assert cohomology(cc) == {
        0: AbelianGroup(0), 1: AbelianGroup(0, (2,)), 2: AbelianGroup(1)
    }
    # Z --(2,4)--> Z^2 --(2,-1)--> Z: dropping either column of d_1 would
    # turn the zero H^2 into Z/2 or Z/4
    cc = ChainComplex(
        bases={0: ("a",), 1: ("b", "c"), 2: ("e",)},
        rows={0: ({0: 2}, {0: 4}), 1: ({0: 2, 1: -1},), 2: ()},
    )
    assert_matches_per_map(cc, "Z -> Z^2 -> Z")
    assert cohomology(cc) == {
        0: AbelianGroup(0), 1: AbelianGroup(0, (2,)), 2: AbelianGroup(0)
    }


def _one_map(matrix) -> ChainComplex:
    """Z^cols --matrix--> Z^rows --0--> Z, the matrix given by its rows."""
    rows, cols = len(matrix), len(matrix[0])
    return ChainComplex(
        bases={0: tuple(range(cols)), 1: tuple(range(rows)), 2: ("top",)},
        rows={
            0: tuple({k: v for k, v in enumerate(r) if v} for r in matrix),
            1: ({},),
        },
    )


def test_non_unit_residuals_give_each_prime_its_own_rank():
    # each map keeps a residual without a unit; H^1 over F_p has one unit
    # of rank per invariant factor that p divides, so F2, F3 and F5 differ
    cases = {
        "Z -3-> Z": ([[3]], 0, ((3,),), (3,)),
        "Z -6-> Z": ([[6]], 0, ((6,),), (6,)),
        "Z -4-> Z": ([[4]], 0, ((4,),), (4,)),
        "a unit, then 2 and 3": (
            [[1, 1, 0], [1, 3, 0], [0, 0, 3]], 1, ((2, 0), (0, 3)), (6,)
        ),
    }
    for label, (matrix, units, residual, torsion) in cases.items():
        cc = _one_map(matrix)
        pivots, left = _eliminate([dict(r) for r in cc.rows[0]])
        assert (len(pivots), tuple(map(tuple, left))) == (units, residual), label
        assert_matches_per_map(cc, label)
        assert cohomology(cc)[1] == AbelianGroup(0, torsion), label
        for p in (2, 3, 5):
            lost = sum(t % p == 0 for t in torsion)
            assert over_ring(cohomology(cc), f"F{p}")[1] == AbelianGroup(lost), (label, p)


def test_cancellation_does_not_cross_a_gap_in_degrees():
    # the pivot row of d_0 indexes degree 1, not the source of d_3
    cc = ChainComplex(
        bases={0: ("a",), 1: ("b",), 3: ("c",), 4: ("e",)},
        rows={0: ({0: 1},), 3: ({0: 1},)},
    )
    assert_matches_per_map(cc, "gap")
    assert all(g.is_trivial for g in cohomology(cc).values())


def test_unit_pivots_cancel_the_next_maps_columns():
    # Z --(1,2)--> Z^2 --(-2,1)--> Z is exact
    cc = ChainComplex(
        bases={0: ("a",), 1: ("b", "c"), 2: ("e",)},
        rows={0: ({0: 1}, {0: 2}), 1: ({0: -2, 1: 1},), 2: ()},
    )
    assert_matches_per_map(cc, "exact")
    assert all(g.is_trivial for g in cohomology(cc).values())


# --------------------------------------------------------------------------
# the one-pass Khovanov builder
# --------------------------------------------------------------------------


def test_single_pass_rows_equal_the_reference_differential(corpus12, monkeypatch):
    built = []
    real = khovanov._j_rows

    def recording(d, only_j=None, max_crossings=khovanov.DEFAULT_CROSSING_CAP):
        rows = real(d, only_j, max_crossings)
        built.extend(rows.values())
        return rows

    monkeypatch.setattr(khovanov, "_j_rows", recording)
    diagrams = catalog_diagrams() + list(corpus12)
    for d in (dd for dd in diagrams if dd.crossing_count <= 5):
        built.clear()
        monkeypatch.setattr(khovanov, "_table_slot", None)  # so the rows are built
        khovanov_cohomology(d, "Z")
        by_degree = enumerate_enhanced(d)
        assert sum(cc.dim(i) for cc in built for i in cc.bases) == sum(
            len(v) for v in by_degree.values()
        )
        for cc in built:
            check_complex(cc)
            states = {i: [enhanced(d, *s) for s in b] for i, b in cc.bases.items()}
            j = state_j(d, next(iter(states.values()))[0])
            for i, basis in cc.bases.items():
                # smoothings in bit order, minus sets in lexicographic order
                keys = [
                    (bits, [k for k in range(mask.bit_length()) if mask >> k & 1])
                    for bits, mask in basis
                ]
                assert keys == sorted(keys)
                assert set(states[i]) == set(by_degree[(i, j)])
            for i, rows in cc.rows.items():
                target = states.get(i + 1, [])
                assert len(rows) == len(target)
                for row, t in zip(rows, target):
                    column = [adjacent(d, s, t) for s in states[i]]
                    assert row == {c: v for c, v in enumerate(column) if v}


def test_khovanov_complex_is_one_row_of_the_one_pass(corpus12):
    for d in catalog_diagrams() + [dd for dd in corpus12 if dd.crossing_count <= 6][:20]:
        for j, cc in _j_rows(d).items():
            row = khovanov_complex(d, j)
            assert (row.bases, row.rows) == (cc.bases, cc.rows), (d.to_pd(), j)


def test_one_row_traces_only_its_subset_closed_family(corpus12, monkeypatch):
    traced = []
    tracer = Diagram._resolve_bits

    def recording(self, bits):
        traced.append(bits)
        return tracer(self, bits)

    monkeypatch.setattr(Diagram, "_resolve_bits", recording)
    small = [d for d in corpus12 if d.crossing_count <= 8][::3]
    trefoil = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) U U")
    hopf = parse_pd("X(4,2,1,3) X(2,4,3,1)")
    diagrams = small + [trefoil, split_union(trefoil, hopf), small[-1].mirror()]
    for d in diagrams:
        full = _j_rows(d)
        w, n = d.writhe, d.negative_count
        # i - m per smoothing, m from the union-find oracle
        low = [
            bits.bit_count() - n - circle_count_by_union_find(d, bits)
            for bits in range(1 << d.crossing_count)
        ]
        j_min, j_max = j_bounds(d)
        for j in range(j_min - 2, j_max + 3):
            traced.clear()
            row = khovanov_complex(d, j)
            want = (full[j].bases, full[j].rows) if j in full else ({}, {})
            assert (row.bases, row.rows) == want, (d.to_pd(), j)
            family = {bits for bits, v in enumerate(low) if v <= j - w}
            # empty exactly below j_min, where the row must trace nothing
            assert bool(family) == (j >= j_min), (d.to_pd(), j)
            assert set(traced) <= family, (d.to_pd(), j)
            assert set(_j_rows(d, j)) <= {j}, (d.to_pd(), j)


def test_one_move_trace_per_smoothing_and_a_crossing(corpus12, monkeypatch):
    calls = []
    real = khovanov._move

    def recording(source_where, target_where, x):
        # the growth keeps one chord-end map per smoothing, alive for the
        # whole pass, so the two maps' identities and x name the cube edge
        calls.append((id(source_where), id(target_where), x))
        return real(source_where, target_where, x)

    monkeypatch.setattr(khovanov, "_move", recording)
    for d in (dd for dd in corpus12 if 1 <= dd.crossing_count <= 7):
        calls.clear()
        # an equal diagram's rows, left by an earlier table, would be reused
        monkeypatch.setattr(khovanov, "_table_slot", None)
        khovanov_cohomology(d, "F2")
        c = d.crossing_count
        assert len(calls) == c * 2 ** (c - 1)
        assert len(set(calls)) == len(calls)


def test_closed_form_edges_equal_the_generic_rule(corpus12):
    # the reference differential ``adjacent`` stops at 5 crossings; the
    # generic drop-and-open bit loop is fast enough to hold every entry of
    # the full window to at 6-9 crossings
    diagrams = [
        d for d in catalog_diagrams() + list(corpus12) if 6 <= d.crossing_count <= 9
    ]
    assert len(diagrams) >= 60
    for d in diagrams:
        rows = _j_rows(d)
        want = rows_by_generic_rule(d, rows)
        for j, cc in rows.items():
            got = {i: list(r) for i, r in cc.rows.items()}
            assert got == want[j], (d.to_pd(), j)


def test_a_corrupted_chord_end_map_raises_not_a_complex(corpus12, monkeypatch):
    # the closed forms need the merged circle, and a split's kept part, at
    # the lower source position; crafted maps that break this are refused
    for source, target in (([0, 1], [1, 1]), ([0, 0], [1, 2])):
        with pytest.raises(NotAComplex, match="crossing 0 moved"):
            khovanov._move(source, target, 0)
    assert khovanov._move([0, 1], [0, 0], 0) == (False, 0, 1)
    assert khovanov._move([0, 0], [0, 2], 0) == (True, 0, 2)
    with pytest.raises(NotAComplex, match="crossing 0 changed 2 circles into 2"):
        khovanov._move([0, 1], [0, 1], 0)
    # in a grown family, swap positions 0 and 1 of a smoothing that an edge
    # from position 0 enters: the build must stop at that edge
    d = next(dd for dd in corpus12 if dd.crossing_count >= 5)
    limit = j_bounds(d)[1] - d.writhe + d.negative_count
    family = khovanov._grown_family(d, limit)
    bits, x = next(
        (bits, x)
        for bits in sorted(family)
        for x in range(d.crossing_count)
        if bits >> x & 1
        and family[bits][0] >= 2
        and min(family[bits ^ 1 << x][1][2 * x : 2 * x + 2]) == 0
        and sorted(family[bits][1][2 * x : 2 * x + 2]) != [0, 1]
    )
    m, where = family[bits]
    family[bits] = m, [{0: 1, 1: 0}.get(p, p) for p in where]
    monkeypatch.setattr(khovanov, "_grown_family", lambda dd, lim: family)
    with pytest.raises(NotAComplex, match="relabelling crossing"):
        _j_rows(d)


NO_STATE_CHILD = """
import copy, sys, types
from exkh import khovanov
from exkh.diagram import parse_pd

def snapshot():
    held = {}
    for name, value in vars(khovanov).items():
        if name == "_table_slot":
            continue
        if isinstance(value, (dict, list, set)):
            contents = copy.copy(value)
        elif isinstance(value, types.FunctionType):
            contents = (
                [copy.copy(v) for v in value.__defaults__ or ()],
                copy.copy(value.__kwdefaults__),
                dict(value.__dict__),
            )
        else:
            contents = None
        held[name] = (value, contents)
    return held

before = snapshot()
states = 0
for pd in sys.argv[1:]:
    d = parse_pd(pd)
    for rows in (khovanov._j_rows(d), {0: khovanov.khovanov_complex(d, khovanov.j_bounds(d)[0])}):
        states += sum(cc.dim(i) for cc in rows.values() for i in cc.bases)
after = snapshot()
changed = sorted(set(before) ^ set(after)) + [
    name for name, (value, contents) in before.items()
    if name in after and (after[name][0] is not value or after[name][1] != contents)
]
print(states > 0, changed)
"""


def test_j_rows_keeps_no_state_between_calls(corpus12):
    # the masks of (m, k) and every other memo of a build live in the call;
    # only the table path's one slot may outlast it.  A fresh interpreter,
    # so that no earlier test has warmed a would-be cache
    first, second = [d for d in corpus12 if d.crossing_count == 7][:2]
    assert first != second
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", NO_STATE_CHILD, first.to_pd(), second.to_pd()],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True []"


# --------------------------------------------------------------------------
# the memory wall on connected Lando graphs
# --------------------------------------------------------------------------


def test_c24_cohomology_fits_in_300_mb():
    # Ind(C_24) has 103,682 faces, and its dense coboundaries did not fit in
    # 8 GB.  Kozlov: C_{3k} has two spheres S^{k-1}, so Z^2 in degree 7.
    # The lando route splits C_24 and builds no such complex, so the whole
    # complex is built and reduced here directly.
    code = (
        "from exkh.lando import Graph\n"
        "from exkh.simplicial import homology, independence_complex\n"
        "x = independence_complex(Graph.build(range(24), [(i, (i + 1) % 24) for i in range(24)]))\n"
        "h = homology(x)\n"
        "print(sum(map(len, x.levels)))\n"
        "print(sorted((k, g.rank, g.torsion) for k, g in h.items() if not g.is_trivial))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["103682", "[(7, 2, ())]"]
    # the largest child so far, C_24 included; Linux reports KiB
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"homology of Ind(C_24): {elapsed:.1f} s, child peak RSS {peak_mb:.0f} MB")
    assert peak_mb < 300
