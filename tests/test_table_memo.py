"""The one-slot memo of ``khovanov_cohomology``, and the row copy of ``cohomology``.

The full table keeps the last diagram's groups over Z, row by row, not its
rows, so the same diagram's table over another ring follows from them
alone.  These tests hold the second ring to zero builds and zero
eliminations, its tables over Z, Q, F2 and F3 to those built afresh on an
equal diagram, the slot to one diagram at a time, the crossing cap to
every call, and the one-row builder to its own build.  ``cohomology``
must leave the rows it reduces as they were: a caller may reduce one
complex over several rings.
"""

import weakref

import pytest

from exkh import khovanov, simplicial
from exkh.diagram import Diagram, parse_pd
from exkh.errors import CapExceeded
from exkh.extreme import extreme_via_brute
from exkh.khovanov import _j_rows, j_bounds, khovanov_cohomology, khovanov_complex
from exkh.simplicial import AbelianGroup, cohomology

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
RINGS = ("Z", "Q", "F2", "F3")


def _small(corpus12):
    return [d for d in corpus12 if 1 <= d.crossing_count <= 7][::4] + [
        parse_pd(TREFOIL + " U U")
    ]


def _copy(d: Diagram) -> Diagram:
    """An equal diagram with none of its caches filled.  (Re-parsing the PD
    text would relabel arcs, and may flip the sign of a component that
    never passes under, so it need not give an equal diagram.)"""
    copy = Diagram(d.crossings, d.signs, d.free_loops)
    assert copy == d and copy is not d
    return copy


def _counting(monkeypatch) -> dict[str, int]:
    """Count every circle trace, cube-edge move and square-zero check."""
    calls = {"_move": 0, "_resolve_bits": 0, "check_square_zero": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(khovanov, "_move", counted("_move", khovanov._move))
    monkeypatch.setattr(
        khovanov, "check_square_zero", counted("check_square_zero", khovanov.check_square_zero)
    )
    monkeypatch.setattr(
        Diagram, "_resolve_bits", counted("_resolve_bits", Diagram._resolve_bits)
    )
    return calls


def _snapshot(rows):
    return {d: tuple(dict(r) for r in rs) for d, rs in rows.items()}


def test_second_ring_on_an_equal_diagram_builds_nothing(corpus12, monkeypatch):
    calls = _counting(monkeypatch)
    for d in _small(corpus12):
        monkeypatch.setattr(khovanov, "_table_slot", None)
        for name in calls:
            calls[name] = 0
        khovanov_cohomology(d, "Z")
        assert calls["_move"] > 0 and calls["check_square_zero"] > 0, d.to_pd()
        copy = _copy(d)
        j_bounds(copy)  # its two extreme circle counts, kept on the copy
        for name in calls:
            calls[name] = 0
        khovanov_cohomology(copy, "F2")
        khovanov_cohomology(d, "F3")
        assert calls == {"_move": 0, "_resolve_bits": 0, "check_square_zero": 0}, d.to_pd()


def test_second_ring_eliminates_nothing(corpus12, monkeypatch):
    eliminated = []
    real = simplicial._eliminate

    def counting(rows):
        eliminated.append(len(rows))
        return real(rows)

    monkeypatch.setattr(simplicial, "_eliminate", counting)
    torsion_rows = 0
    for d in _small(corpus12):
        monkeypatch.setattr(khovanov, "_table_slot", None)
        eliminated.clear()
        khovanov_cohomology(d, "Z")
        assert eliminated, d.to_pd()
        held = khovanov._table_slot[1].values()
        assert all(type(g) is AbelianGroup for row in held for g in row.values())
        torsion_rows += any(g.torsion for row in held for g in row.values())
        for ring in ("F2", "F3", "Q", "Z"):
            eliminated.clear()
            khovanov_cohomology(_copy(d), ring)
            assert eliminated == [], (d.to_pd(), ring)
    assert torsion_rows  # some F_p table gains rank from Z torsion


def test_memo_tables_equal_freshly_built_ones(corpus12, monkeypatch):
    builds = []
    real = khovanov._j_rows

    def recording(d, only_j=None, max_crossings=khovanov.DEFAULT_CROSSING_CAP):
        builds.append(only_j)
        return real(d, only_j, max_crossings)

    monkeypatch.setattr(khovanov, "_j_rows", recording)
    for d in _small(corpus12):
        monkeypatch.setattr(khovanov, "_table_slot", None)
        builds.clear()
        held = {ring: khovanov_cohomology(d, ring) for ring in RINGS}
        assert builds == [None], d.to_pd()
        for ring in RINGS:
            monkeypatch.setattr(khovanov, "_table_slot", None)
            fresh = khovanov_cohomology(_copy(d), ring)
            assert held[ring] == fresh, (d.to_pd(), ring)
            assert held[ring].to_json() == fresh.to_json()
        assert len(builds) == 1 + len(RINGS)


def test_another_diagram_empties_the_slot_before_its_build(corpus12, monkeypatch):
    first, second = [d for d in corpus12 if 3 <= d.crossing_count <= 6][:2]
    assert first != second
    monkeypatch.setattr(khovanov, "_table_slot", None)
    khovanov_cohomology(first, "Z")
    # a group held over Z, which takes a weak reference; no name may keep
    # its row alive
    held = weakref.ref(
        next(g for row in khovanov._table_slot[1].values() for g in row.values())
    )
    alive_at_build = []
    real = khovanov._j_rows

    def recording(d, only_j=None, max_crossings=khovanov.DEFAULT_CROSSING_CAP):
        alive_at_build.append(held() is not None)
        return real(d, only_j, max_crossings)

    monkeypatch.setattr(khovanov, "_j_rows", recording)
    khovanov_cohomology(second, "Z")
    assert alive_at_build == [False]
    assert held() is None
    assert khovanov._table_slot[0] is second


def test_a_filled_slot_still_checks_the_crossing_cap(monkeypatch):
    d = parse_pd(TREFOIL)
    monkeypatch.setattr(khovanov, "_table_slot", None)
    khovanov_cohomology(d, "Z")
    assert khovanov._table_slot[0] is d
    for ring in ("Z", "F2"):
        with pytest.raises(CapExceeded, match="crossing count") as err:
            khovanov_cohomology(d, ring, max_crossings=d.crossing_count - 1)
        assert err.value.what == "crossing count"
        assert err.value.cap == d.crossing_count - 1


class _Poisoned(dict):
    """Held groups that fail any read: a one-row build must not look at the
    slot."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the table slot was read")

    __getitem__ = __contains__ = __iter__ = __len__ = _refuse
    get = items = keys = values = _refuse


def test_one_row_builds_never_read_the_slot(corpus12, monkeypatch):
    calls = _counting(monkeypatch)
    for d in _small(corpus12):
        monkeypatch.setattr(khovanov, "_table_slot", None)
        khovanov_cohomology(d, "Z")
        rows = _j_rows(d)
        poisoned = (d, _Poisoned())
        monkeypatch.setattr(khovanov, "_table_slot", poisoned)
        j_min, _ = j_bounds(d)
        calls["check_square_zero"] = 0
        for j in (j_min, j_min + 2):
            assert khovanov_complex(d, j) == rows[j], (d.to_pd(), j)
        extreme_via_brute(d, "F2")
        assert khovanov._table_slot is poisoned
        # both rows and the brute row were built and checked, not looked up
        assert calls["check_square_zero"] == 3, d.to_pd()


def test_cohomology_leaves_the_rows_it_reduces(corpus12):
    for d in [parse_pd(TREFOIL)] + [d for d in corpus12 if d.crossing_count <= 6][:12]:
        for cc in _j_rows(d).values():
            before = _snapshot(cc.rows)
            cohomology(cc)
            assert _snapshot(cc.rows) == before, d.to_pd()
