"""Circle counts: the tracer per smoothing, the frontier tally in sum.

Diagram._resolve_bits traces the circles of one smoothing, and
Diagram._count_histogram tallies the smoothings per (B-count, circle
count) pair by a frontier scan that traces none.  These tests pin both
against the union-find oracle where flips keep the count, where many free
loops ride along, and on kinks, split unions and multi-component links
(the catalog and ``corpus12`` counts are checked in ``test_diagram``).
They check that the tally is built only behind the crossing cap, that the
loops which only count circles trace none, and which smoothings the
brute rows grow.
"""

import gc
import tracemalloc
from collections import Counter

import pytest
from conftest import circle_count_by_union_find, enumerate_enhanced

from exkh import khovanov
from exkh.diagram import Diagram, parse_pd
from exkh.errors import CapExceeded
from exkh.extreme import extreme_via_brute, extreme_via_dual, extreme_via_lando
from exkh.families import load_catalog, split_union, thick_family
from exkh.khovanov import (
    DEFAULT_CROSSING_CAP,
    _grown_family,
    _j_rows,
    j_bounds,
    kauffman_bracket,
    khovanov_cohomology,
    khovanov_complex,
    scanned_j_range,
)
from exkh.lando import build_lando

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
HOPF = "X(4,2,1,3) X(2,4,3,1)"
KINKS = ("X(1,1,2,2)", "X(2,1,1,2)")  # the two one-crossing unknots


def _fresh(d: Diagram) -> Diagram:
    """The same diagram with none of its caches filled."""
    return Diagram(d.crossings, d.signs, d.free_loops)


def _assert_counts_match(d: Diagram) -> None:
    # the tally is read from a fresh diagram, so no trace can have fed it
    histogram = _fresh(d)._count_histogram
    tally = Counter()
    for bits in range(1 << d.crossing_count):
        found = circle_count_by_union_find(d, bits)
        assert len(d._resolve_bits(bits)) == found, (d.to_pd(), bits)
        tally[bits.bit_count(), found - d.free_loops] += 1
    assert histogram == dict(tally), d.to_pd()


def test_counts_match_on_a_diagram_with_count_preserving_flips():
    d = thick_family(1)
    assert d.crossing_count == 15
    # Flips that keep the count occur only in virtual diagrams; this one
    # has them, so the counts are checked where a flip neither splits nor
    # merges.
    assert any(
        len(d._resolve_bits(bits)) == len(d._resolve_bits(bits ^ 1 << x))
        for bits in range(0, 1 << 15, 97)
        for x in range(15)
    )
    _assert_counts_match(d)


def test_free_loops_stay_out_of_the_array():
    d = parse_pd(TREFOIL + " U" * 300)
    assert d.free_loops == 300
    assert max(m for _, m in d._count_histogram) <= 2 * d.crossing_count
    _assert_counts_match(d)


def test_crossingless_diagram_has_one_empty_smoothing():
    d = Diagram.unknot(3)
    assert d._count_histogram == {(0, 0): 1}
    _assert_counts_match(d)
    assert scanned_j_range(d) == (-3, 3)


def test_frontier_tally_matches_union_find(corpus_multi):
    # thick_family(1), the trefoil with 300 loops and unknot(3) are above
    kinks = [parse_pd(k) for k in KINKS]
    diagrams = [
        *kinks,
        parse_pd(HOPF),
        split_union(kinks[0], parse_pd(TREFOIL)),
        split_union(split_union(parse_pd(HOPF), kinks[1]), Diagram.unknot(2)),
        split_union(*kinks),
        *corpus_multi,
    ]
    for d in diagrams:
        _assert_counts_match(d)


def test_histogram_matches_union_find_on_a_split_union_and_large_closures(corpus12):
    # corpus12 up to 10 crossings is checked in test_diagram
    largest = [next(d for d in corpus12 if d.crossing_count == c) for c in (11, 12)]
    split = split_union(parse_pd(TREFOIL + " U U"), corpus12[0].mirror())
    for d in [*largest, split]:
        _assert_counts_match(d)


def test_j_bounds_reaches_past_the_cap_without_the_array():
    d = thick_family(3)
    assert d.crossing_count == 49 > DEFAULT_CROSSING_CAP
    j_bounds(d)
    assert "_count_histogram" not in d.__dict__


@pytest.mark.parametrize(
    "count_loop",
    [
        scanned_j_range,
        kauffman_bracket,
        enumerate_enhanced,
        khovanov_cohomology,
        lambda d: khovanov_complex(d, 0),
    ],
)
def test_count_loops_check_the_cap_before_building_the_array(count_loop):
    d = _fresh(thick_family(2))
    with pytest.raises(CapExceeded):
        count_loop(d)
    assert "_count_histogram" not in d.__dict__
    assert "_extreme_circle_counts" not in d.__dict__
    assert "_all_a_circles" not in d.__dict__


def _recording(monkeypatch):
    """Patch the tracer so that every call records its bits."""
    traced: list[int] = []
    tracer = Diagram._resolve_bits

    def recording(self, bits):
        traced.append(bits)
        return tracer(self, bits)

    monkeypatch.setattr(Diagram, "_resolve_bits", recording)
    return traced


def test_every_route_reads_one_all_a_trace(monkeypatch):
    # j_bounds, the Lando graph and the brute row's growth all start from
    # the all-A smoothing; a diagram traces it once for all of them
    traced = _recording(monkeypatch)
    for d in (load_catalog()["hexagon_link"].diagram(), parse_pd(TREFOIL + " U")):
        d = _fresh(d)
        traced.clear()
        j_bounds(d)
        build_lando(d)
        rows = [extreme_via_lando(d), extreme_via_dual(d), extreme_via_brute(d)]
        assert rows[0].groups == rows[1].groups == rows[2].groups
        assert traced.count(0) == 1, d.to_pd()


def test_count_only_loops_trace_no_circles(monkeypatch, corpus12):
    d = _fresh(next(d for d in corpus12 if d.crossing_count == 12))
    traced = _recording(monkeypatch)
    scanned_j_range(d)
    kauffman_bracket(d)
    assert traced == []


def test_brute_row_traces_only_its_own_smoothings(monkeypatch, corpus12):
    d = _fresh(next(d for d in corpus12 if d.crossing_count == 12))
    c = d.crossing_count
    w, n = d.writhe, d.negative_count
    j_min = c - 3 * n - circle_count_by_union_find(d, 0)
    # A smoothing holds a j_min state exactly when its all-minus
    # enhancement sits there, since j >= w + i - m on every enhancement.
    row = {
        bits
        for bits in range(1 << c)
        if w + bits.bit_count() - n - circle_count_by_union_find(d, bits) == j_min
    }
    traced = _recording(monkeypatch)
    extreme_via_brute(d)
    # j_bounds also reads the all-B smoothing, for j_max.
    assert set(traced) - {(1 << c) - 1} <= row
    assert len(row) < (1 << c) // 4
    # j_min comes from j_bounds, so the brute route builds no tally
    assert "_count_histogram" not in d.__dict__


def _recording_flips(monkeypatch, made: list[int]) -> None:
    """Patch the growth's surgery so that every smoothing it makes from
    its parent records its bits."""
    flip = khovanov._flip

    def recording(d, child, x, m, where):
        made.append(child)
        return flip(d, child, x, m, where)

    monkeypatch.setattr(khovanov, "_flip", recording)


def test_cohomology_traces_each_smoothing_once_outside_j_bounds(monkeypatch, corpus12):
    # j_bounds traces the all-A smoothing, which the diagram keeps; the
    # growth takes its root from there and makes every other smoothing
    # once, by surgery on the parent it flips from.
    made = _recording(monkeypatch)
    _recording_flips(monkeypatch, made)
    small = [d for d in corpus12 if d.crossing_count <= 8][::5]
    for d in [*small, parse_pd(TREFOIL + " U U"), split_union(*map(parse_pd, KINKS))]:
        d = _fresh(d)
        j_bounds(d)
        assert made.count(0) == 1, d.to_pd()
        made.clear()
        # an equal diagram's rows, left by an earlier table, would be reused
        monkeypatch.setattr(khovanov, "_table_slot", None)
        khovanov_cohomology(d, "F2")
        # the full table's window holds every smoothing; none is traced again
        assert sorted(made) == list(range(1, 1 << d.crossing_count)), d.to_pd()


def _traced_map(d: Diagram, bits: int) -> tuple[int, list[int]]:
    """(m, where) of one smoothing, read off a full trace of its circles."""
    circles = d._resolve_bits(bits)
    where = [0] * (2 * d.crossing_count)
    for k in range(d.free_loops, len(circles)):
        for ci, half in circles[k]:
            where[2 * ci + half] = k
    return len(circles), where


def test_growth_by_surgery_matches_a_full_trace(corpus12):
    # Every (m, where) the growth makes by merges, splits and
    # count-preserving flips must be what tracing the smoothing gives.
    kinks = [parse_pd(k) for k in KINKS]
    diagrams = [
        *(entry.diagram() for entry in load_catalog().values()),
        *(d for d in corpus12 if d.crossing_count <= 8),
        parse_pd(TREFOIL + " U U"),
        split_union(*kinks),
        parse_pd(TREFOIL).mirror(),
        thick_family(1),  # virtual: some flips keep the count
    ]
    for d in diagrams:
        c, w, n = d.crossing_count, d.writhe, d.negative_count
        j_min = j_bounds(d)[0]
        for j in range(j_min - 2, j_min + 7):
            limit = j - w + n
            family = _grown_family(_fresh(d), limit)
            for bits, made in family.items():
                assert made == _traced_map(d, bits), (d.to_pd(), j, bits)
            if c <= 8:
                # below j_min no smoothing is in the window, and the growth
                # keeps just its root
                member = {
                    bits
                    for bits in range(1 << c)
                    if bits.bit_count() - len(d._resolve_bits(bits)) <= limit
                } or {0}
                assert set(family) == member, (d.to_pd(), j)


def test_bracket_and_scan_leave_the_diagram_small():
    d = thick_family(1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bracket = kauffman_bracket(d, max_crossings=16)
        span = scanned_j_range(d, max_crossings=16)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not bracket.is_zero and span[0] < span[1]
    assert held < 1 << 20


def test_growth_on_a_virtual_diagram_takes_the_smoothings_of_its_row(monkeypatch):
    d = thick_family(1)
    assert not d.is_planar
    c, w, n = d.crossing_count, d.writhe, d.negative_count
    m = [circle_count_by_union_find(d, bits) for bits in range(1 << c)]
    j_min = j_bounds(d)[0]
    for j in range(j_min, j_min + 7):
        # A smoothing holds a state at j when j lies in w + i -+ m with
        # the parity of w + i + m.
        holding = {
            bits
            for bits in range(1 << c)
            if abs(j - w - bits.bit_count() + n) <= m[bits]
            and (j - w - bits.bit_count() + n - m[bits]) % 2 == 0
        }
        limit = j - w + n
        member = {bits for bits in range(1 << c) if bits.bit_count() - m[bits] <= limit}
        fresh = _fresh(d)
        made = _recording(monkeypatch)
        _recording_flips(monkeypatch, made)
        family = _grown_family(fresh, limit)
        monkeypatch.undo()
        assert {bits: v[0] for bits, v in family.items()} == {
            bits: m[bits] for bits in member
        }, j
        assert {bits for bits in family if bits in holding} == holding, j
        # A smoothing made outside the family is a count-preserving flip
        # of its parent (the flip of the highest B-bit), never a merge.
        assert made.count(0) == 1 and len(set(made)) == len(made), j
        for bits in set(made) - member:
            parent = bits ^ 1 << (bits.bit_length() - 1)
            assert parent in member and m[bits] == m[parent], (j, bits)
        if j < j_min + 4:  # higher rows of this virtual diagram do not square to zero
            rows = _j_rows(fresh, j)
            smoothings = {
                bits for basis in rows[j].bases.values() for bits, _ in basis
            } if rows else set()
            assert smoothings == holding, j
