import functools
import json
from collections import Counter

import pytest
from conftest import circle_count_by_union_find

from exkh.diagram import A, B, Diagram, State, parse_pd, pd_hash
from exkh.errors import (
    ArcLabelNotPairedTwice,
    EmptyDiagram,
    InconsistentOrientation,
    MalformedTuple,
)
from exkh.families import load_catalog, split_union, thick_family

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
HOPF = "X(4,2,1,3) X(2,4,3,1)"


def test_trefoil_parses_all_negative():
    d = parse_pd(TREFOIL)
    assert d.crossing_count == 3
    assert d.signs == (-1, -1, -1)
    assert d.writhe == -3
    assert d.component_count == 1
    assert d.free_loops == 0


def test_parse_normalises_labels():
    # same diagram, labels shifted by 10
    shifted = "X(11,14,12,15) X(13,16,14,11) X(15,12,16,13)"
    assert parse_pd(shifted).to_pd() == TREFOIL


def test_parse_is_whitespace_insensitive():
    crammed = "X(1,4,2,5)X(3,6,4,1)\n  X(5, 2, 6, 3)"
    assert parse_pd(crammed).to_pd() == TREFOIL


def test_free_loops():
    d = parse_pd("U U")
    assert d.crossing_count == 0
    assert d.free_loops == 2
    assert d.component_count == 2
    d2 = parse_pd(TREFOIL + " U")
    assert d2.component_count == 2
    assert d2.free_loops == 1


def test_parse_pd_traces_the_arcs_once(monkeypatch):
    # the probe that finds the signs hands its traced arcs and strands on
    calls = []
    real = Diagram._arc_ports.func

    def recording(self):
        calls.append(self.crossings)
        return real(self)

    prop = functools.cached_property(recording)
    prop.__set_name__(Diagram, "_arc_ports")
    monkeypatch.setattr(Diagram, "_arc_ports", prop)
    d = parse_pd(TREFOIL + " U")
    traced = [d._resolve_bits(bits) for bits in range(8)]
    assert d.is_planar and len(d.components) == 1
    assert len(calls) == 1
    fresh = Diagram(d.crossings, d.signs, d.free_loops)
    assert [fresh._resolve_bits(bits) for bits in range(8)] == traced
    assert fresh.components == d.components


def test_unknot_constructor():
    u = Diagram.unknot(3)
    assert u.to_pd() == "U U U"
    assert u.component_count == 3


@pytest.mark.parametrize(
    "text,exc",
    [
        ("", EmptyDiagram),
        ("   \n ", EmptyDiagram),
        ("X(1,2,3)", MalformedTuple),
        ("Y(1,2,3,4)", MalformedTuple),
        ("X(1,2,3,4) frog", MalformedTuple),
        ("X(1,2,3,4) X(1,2,3,5)", ArcLabelNotPairedTwice),
        ("X(1,1,2,3)", ArcLabelNotPairedTwice),
        ("X(8,3,9,4)", ArcLabelNotPairedTwice),
        ("X(1,2,3,4) X(1,3,2,4)", InconsistentOrientation),
    ],
)
def test_parse_rejects(text, exc):
    with pytest.raises(exc):
        parse_pd(text)


def test_mirror_flips_signs_and_writhe():
    d = parse_pd(TREFOIL)
    m = d.mirror()
    assert m.signs == (1, 1, 1)
    assert m.writhe == 3
    assert m.mirror().to_pd() == d.to_pd()


def test_mirror_swaps_smoothings():
    d = parse_pd(FIG8)
    m = d.mirror()
    assert len(d._resolve_bits(0)) == len(m._resolve_bits((1 << 4) - 1))
    assert len(d._resolve_bits((1 << 4) - 1)) == len(m._resolve_bits(0))


def test_reverse_component_keeps_crossings_flips_signs_of_mixed_pairs():
    d = parse_pd(HOPF)
    assert d.writhe == 2
    r = d.reverse_component(0)
    # reversing one strand of a two-component link flips every linking sign
    assert r.writhe == -2
    rr = r.reverse_component(0)
    assert rr.to_pd() == d.to_pd()
    assert rr.signs == d.signs


def test_reverse_component_of_knot_preserves_signs():
    d = parse_pd(TREFOIL)
    r = d.reverse_component(0)
    assert r.signs == d.signs
    assert r.crossing_count == 3
    with pytest.raises(ValueError):
        d.reverse_component(1)


def test_resolution_circle_counts_for_trefoil():
    d = parse_pd(TREFOIL)
    assert len(d._resolve_bits(0)) == 3  # all A
    assert len(d._resolve_bits(0b111)) == 2  # all B
    rs = d.resolve(d.all_a_state())
    assert rs.circle_count == 3


def test_resolution_circles_are_canonical():
    d = parse_pd(TREFOIL)
    rs = d.resolve(State((A, B, A)))
    for circle in rs.circles:
        assert circle[0] == min(circle)
    assert list(rs.circles) == sorted(rs.circles, key=lambda c: c[0])


def test_resolve_validates_state_length():
    d = parse_pd(TREFOIL)
    with pytest.raises(ValueError):
        d.resolve(State((A, B)))


def test_components_partition_arcs():
    d = parse_pd(FIG8 + " U")
    comps = d.components
    arcs = sorted(a for comp in comps for a in comp)
    assert arcs == list(range(1, 9))
    assert d._component_of_arc[5] == 0


def test_resolved_state_json():
    d = parse_pd(TREFOIL)
    rs = d.resolve(d.all_a_state())
    payload = json.loads(rs.to_json())
    assert len(payload["circles"]) == 3
    assert len(payload["chords"]) == 3


def test_pd_hash_stability_and_sensitivity():
    d = parse_pd(TREFOIL)
    assert pd_hash(d) == pd_hash(parse_pd(TREFOIL))
    assert pd_hash(d) != pd_hash(d.mirror())
    assert len(pd_hash(d)) == 12


def test_round_trip_on_corpus(corpus12):
    """Parsing its own output is the identity once labels are normalised.

    Signs survive whenever recoverable: a component that never passes under
    a crossing leaves no orientation trace in the PD text, so the parser's
    default choice may flip the signs of its crossings.
    """
    for d in corpus12[:80]:
        back = parse_pd(d.to_pd())
        assert back.crossing_count == d.crossing_count
        assert back.free_loops == d.free_loops
        unders = {t[0] for t in d.crossings} | {t[2] for t in d.crossings}
        if all(any(a in unders for a in comp) for comp in d.components):
            assert back.signs == d.signs
        again = parse_pd(back.to_pd())
        assert again.crossings == back.crossings
        assert again.signs == back.signs


def test_tracer_counts_circles_like_union_find(corpus12):
    diagrams = [e.diagram() for e in load_catalog().values()]
    diagrams += [d for d in corpus12 if d.crossing_count <= 10]
    for d in diagrams:
        tally = Counter()
        for bits in range(1 << d.crossing_count):
            m = circle_count_by_union_find(d, bits)
            assert len(d._resolve_bits(bits)) == m, (d.to_pd(), bits)
            tally[bits.bit_count(), m - d.free_loops] += 1
        assert d._count_histogram == dict(tally), d.to_pd()


def test_resolved_state_json_lists_one_chord_per_crossing():
    d = parse_pd(FIG8)
    rs = d.resolve(State((A, B, B, A)))
    assert json.loads(rs.to_json())["chords"] == [
        {"crossing": ci, "label": label, "endpoints": [[ci, 0], [ci, 1]]}
        for ci, label in enumerate("ABBA")
    ]


def test_planar_diagrams_pass_the_face_count(corpus12):
    catalog = [e.diagram() for e in load_catalog().values()]
    for d in catalog + list(corpus12):
        assert d.is_planar, d.to_pd()
    assert split_union(*catalog).is_planar
    assert split_union(catalog[0], Diagram.unknot(2)).is_planar
    assert parse_pd(TREFOIL).mirror().is_planar
    assert Diagram.unknot(3).is_planar


def test_virtual_diagrams_fail_the_face_count():
    # a one-component two-crossing diagram whose rotations close up only on
    # a torus: 2 faces, where a planar one needs 4
    d = parse_pd("X(1,2,3,4) X(3,1,4,2)")
    assert len(d.components) == 1
    assert not d.is_planar
    for n in (1, 2, 3):
        assert not thick_family(n).is_planar
