"""Example diagrams, split unions, knotification and H-thick families.

The shipped catalog holds two diagrams whose all-A resolution is a single
circle with a prescribed chord diagram: a six-crossing link whose Lando
graph is the hexagon C6, and an eleven-crossing diagram whose Lando graph
is two hexagons sharing a vertex.  Only their combinatorial data (chord
endpoints and sides, crossing signs, Lando isomorphism class, extreme row)
is pinned down; the PD codes are reconstructed from the chord diagrams by
``from_chord_diagram``, and the tests check them against the pinned data.

The reconstruction works because a chord diagram with sides fixes the
diagram up to orientation and altitude choices: un-smoothing a chord whose
endpoints sit at circle positions i < j places the four incident arcs
counterclockwise as (arc_{i-1}, arc_i, arc_{j-1}, arc_j) for an inside
chord and (arc_i, arc_{i-1}, arc_j, arc_{j-1}) for an outside one, and the
A-pairs of a PD tuple are its slot pairs (0,1) and (2,3), which leaves per
crossing exactly the two even rotations.  Orienting each component then
selects the rotation whose slot-0 arc flows into the crossing, and the
crossing sign can be read off slot 3.

Knotification inserts a two-crossing clasp that reroutes two components
into one while leaving the Lando graph untouched: the A-resolution of the
clasp reconstitutes both original strands and adds one isolated circle
carrying both new chords, so neither chord is admissible, and the Lando
graph of the result equals the original one, vertex for vertex.

The thick family's extreme row is the binomial row of the n-fold join of
a square plus a point.  ``join_power_table`` computes that row as the
homology of the independence complex of n disjoint copies of one
five-vertex graph, by the enumerator that builds X_D.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from math import comb

from .diagram import Diagram, parse_pd
from .errors import CapExceeded, ClaspFailed, DiagramError, SameComponent
from .lando import Graph, build_lando
from .simplicial import (
    DEFAULT_FACE_CAP,
    AbelianGroup,
    homology,
    independence_complex,
)


# --------------------------------------------------------------------------
# chord-diagram reconstruction
# --------------------------------------------------------------------------


def from_chord_diagram(
    pairs: list[tuple[int, int]], inside: list[bool]
) -> Diagram:
    """Realise a one-circle chord diagram as a link diagram.

    ``pairs[k]`` gives the two circle positions of chord k on a circle with
    2*len(pairs) marked points; ``inside[k]`` says which side of the circle
    the chord is drawn on.  Interleaved chords must lie on opposite sides,
    otherwise the picture is not planar and ValueError is raised.  The
    resulting diagram has the chord diagram as its all-A resolution; its
    components are oriented by the default rule (first arc of each runs
    forward along the circle numbering); ``Diagram.reverse_component``
    picks a different orientation.
    """
    c = len(pairs)
    if c == 0:
        raise ValueError("a chord diagram needs at least one chord")
    if len(inside) != c:
        raise ValueError("pairs and inside lists must have equal length")
    total = 2 * c
    seen_positions = sorted(p for pair in pairs for p in pair)
    if seen_positions != list(range(total)):
        raise ValueError("chord endpoints must cover 0..2c-1 exactly once")

    def interleaved(a: tuple[int, int], b: tuple[int, int]) -> bool:
        (a1, a2), (b1, b2) = sorted(a), sorted(b)
        return (a1 < b1 < a2) != (a1 < b2 < a2)

    for k in range(c):
        for m in range(k + 1, c):
            if inside[k] == inside[m] and interleaved(pairs[k], pairs[m]):
                raise ValueError(
                    f"chords {k} and {m} interleave on the same side"
                )

    chord_at = {}
    for k, (p, q) in enumerate(pairs):
        chord_at[p] = k
        chord_at[q] = k

    # Arc p runs from position p to position p+1; its two crossing-ends sit
    # at those positions.  A strand entering a crossing along the arc that
    # arrives at one chord endpoint leaves along the arc arriving at the
    # other endpoint, so orient each component by walking (arc, direction)
    # states: +1 travels with the circle numbering, -1 against it.
    direction: dict[int, int] = {}
    for start in range(total):
        if start in direction:
            continue
        arc, forward = start, 1
        while arc not in direction:
            direction[arc] = forward
            pos = (arc + 1) % total if forward == 1 else arc
            k = chord_at[pos]
            p, q = pairs[k]
            other = q if pos == p else p
            if arc == (pos - 1) % total:
                nxt = (other - 1) % total
                forward = -1  # exit the partner arc away from its far end
            else:
                nxt = other % total
                forward = 1
            arc = nxt

    def into(arc: int, pos: int) -> bool:
        """Does the directed arc flow into the crossing at this position?"""
        if direction[arc] == 1:
            return pos == (arc + 1) % total
        return pos == arc

    crossings = []
    signs = []
    for k, (p, q) in enumerate(pairs):
        i, j = min(p, q), max(p, q)
        u, v = (i - 1) % total, i % total
        x, y = (j - 1) % total, j % total
        if inside[k]:
            cyc = ((u, i), (v, i), (x, j), (y, j))
        else:
            cyc = ((v, i), (u, i), (y, j), (x, j))
        if into(*cyc[0]):
            order = cyc
        else:
            order = cyc[2:] + cyc[:2]
            if not into(*order[0]):
                raise DiagramError("orientation propagation failed")
        crossings.append(tuple(arc + 1 for arc, _ in order))
        signs.append(1 if into(*order[3]) else -1)
    return Diagram(tuple(crossings), tuple(signs))


# --------------------------------------------------------------------------
# split unions and knotification
# --------------------------------------------------------------------------


def split_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Disjoint union of diagrams, second one relabelled out of the way."""
    offset = max((x for t in d1.crossings for x in t), default=0)
    shifted = tuple(tuple(x + offset for x in t) for t in d2.crossings)
    return Diagram(
        d1.crossings + shifted,
        d1.signs + d2.signs,
        d1.free_loops + d2.free_loops,
    )


def _incoming_port(d: Diagram, arc: int) -> tuple[int, int]:
    """The (crossing, slot) where the arc flows into a crossing."""
    for port in d._arc_ports[arc]:
        ci, slot = port >> 2, port & 3
        if (
            slot == 0
            or (slot == 3 and d.signs[ci] > 0)
            or (slot == 1 and d.signs[ci] < 0)
        ):
            return ci, slot
    raise DiagramError(f"arc {arc} has no incoming end")


def knotify(d: Diagram, arc_a: int, arc_b: int) -> Diagram:
    """Merge two components with a two-crossing clasp, Lando graph intact.

    The clasp cuts the two arcs and reroutes each into the other component
    through two new positive crossings.  Both new A-chords end on a little
    circle private to the clasp, so the admissible chords and their
    interleavements are exactly those of the original diagram.  Of the
    clasp variants that leave one component fewer, the first whose Lando
    graph equals the original one (same vertices, in crossing order, and
    same edges) is returned; ClaspFailed is raised when none does.
    """
    comp_of = d._component_of_arc
    if arc_a not in comp_of or arc_b not in comp_of:
        raise SameComponent("both arcs must lie on crossing components")
    if comp_of[arc_a] == comp_of[arc_b]:
        raise SameComponent(
            f"arcs {arc_a} and {arc_b} lie on the same component"
        )
    top = max(x for t in d.crossings for x in t)
    n1, n2, n3, n4 = top + 1, top + 2, top + 3, top + 4
    ci_a, slot_a = _incoming_port(d, arc_a)
    ci_b, slot_b = _incoming_port(d, arc_b)
    tuples = [list(t) for t in d.crossings]
    tuples[ci_a][slot_a] = n4
    tuples[ci_b][slot_b] = n2
    base = tuple(tuple(t) for t in tuples)
    variants = [
        ((arc_a, n4, n1, n3), (arc_b, n2, n3, n1)),
        ((n3, n1, n4, arc_a), (arc_b, n2, n3, n1)),
        ((arc_a, n4, n1, n3), (n1, n3, n2, arc_b)),
        ((n3, n1, n4, arc_a), (n1, n3, n2, arc_b)),
    ]
    lando_before = build_lando(d)
    for x_t, y_t in variants:
        candidate = Diagram(
            base + (x_t, y_t), d.signs + (1, 1), d.free_loops
        )
        try:
            components = candidate.component_count
        except DiagramError:
            continue
        if components != d.component_count - 1:
            continue
        if build_lando(candidate) == lando_before:
            return candidate
    raise ClaspFailed(
        f"no clasp variant at arcs {arc_a}, {arc_b} preserves the Lando graph"
    )


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    pd: str
    reconstructed: bool
    chord_pairs: tuple[tuple[int, int], ...]
    chord_inside: tuple[bool, ...]
    expected: dict

    def diagram(self) -> Diagram:
        return parse_pd(self.pd)


def load_catalog() -> dict[str, CatalogEntry]:
    text = resources.files("exkh").joinpath("data/catalog.json").read_text()
    out = {}
    for raw in json.loads(text):
        entry = CatalogEntry(
            name=raw["name"],
            summary=raw["summary"],
            pd=raw["pd"],
            reconstructed=raw["reconstructed"],
            chord_pairs=tuple(tuple(p) for p in raw["chords"]["pairs"]),
            chord_inside=tuple(raw["chords"]["inside"]),
            expected=raw["expected"],
        )
        out[entry.name] = entry
    return out


def catalog_diagram(name: str) -> Diagram:
    catalog = load_catalog()
    if name not in catalog:
        raise KeyError(
            f"no catalog entry {name!r}; have {sorted(catalog)}"
        )
    return catalog[name].diagram()


# --------------------------------------------------------------------------
# thick families
# --------------------------------------------------------------------------


def thick_family(n: int) -> Diagram:
    """A one-component diagram with n + 1 nonzero extreme groups.

    Built as the split union of n copies of the eleven-crossing catalog
    diagram, knotified pairwise until a single component remains.  The
    Lando graph is n disjoint copies of the two-hexagon graph, so the
    extreme row follows the binomial pattern of the n-fold join.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    base = catalog_diagram("eleven_crossing")
    d = base
    for _ in range(n - 1):
        d = split_union(d, base)
    while d.component_count > 1:
        comps = d.components
        d = knotify(d, min(comps[0]), min(comps[1]))
    return d


def join_power_table(
    n: int, cap: int = DEFAULT_FACE_CAP
) -> dict[int, AbelianGroup]:
    """Reduced homology of the n-fold join of the square-plus-point complex.

    The complex is {∅,1,2,3,4,5,12,23,34,41}: a 4-cycle and an isolated
    vertex, the independence complex of the graph on 1..5 with edges 13,
    24, 15, 25, 35 and 45.  Since Ind(G + H) = Ind(G) * Ind(H), the n-fold
    join is the independence complex of n disjoint copies of that graph,
    built as X_D is.  Its 10^n faces over ``cap`` raise CapExceeded before
    any is enumerated.  Its homology is Z^binomial(n, i-n+1) in degrees
    n-1 .. 2n-1, which is what the thick families realise as extreme rows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if 10**n > cap:
        raise CapExceeded("independent set enumeration", cap)
    edges = ((1, 3), (2, 4), (1, 5), (2, 5), (3, 5), (4, 5))
    copies = Graph.build(
        [(c, v) for c in range(n) for v in range(1, 6)],
        [((c, u), (c, v)) for c in range(n) for u, v in edges],
    )
    h = homology(independence_complex(copies, cap))
    return {deg: grp for deg, grp in h.items() if not grp.is_trivial}


def binomial_row(n: int) -> dict[int, AbelianGroup]:
    """The closed form the n-fold join must match."""
    return {
        i: AbelianGroup(comb(n, i - n + 1))
        for i in range(n - 1, 2 * n)
    }


# --------------------------------------------------------------------------
# randomized corpus
# --------------------------------------------------------------------------


def random_braid_closure(rng: random.Random, max_crossings: int = 12) -> Diagram:
    """The closure of a random braid word, signs known by construction."""
    strands = rng.randrange(2, 6)
    length = rng.randrange(1, max_crossings + 1)
    cur = list(range(1, strands + 1))
    label = strands
    tuples: list[tuple[int, int, int, int]] = []
    signs: list[int] = []
    for _ in range(length):
        pos = rng.randrange(strands - 1)
        a, b = cur[pos], cur[pos + 1]
        ni, nj = label + 1, label + 2
        label += 2
        if rng.random() < 0.5:
            tuples.append((a, ni, nj, b))
            signs.append(1)
        else:
            tuples.append((b, a, ni, nj))
            signs.append(-1)
        cur[pos], cur[pos + 1] = ni, nj

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for k in range(strands):
        ra, rb = find(cur[k]), find(k + 1)
        if ra != rb:
            parent[ra] = rb
    closed = tuple(tuple(find(x) for x in t) for t in tuples)
    used = {x for t in closed for x in t}
    loops = sum(
        1 for k in range(strands) if find(k + 1) not in used
    )
    d = Diagram(closed, tuple(signs), loops)
    # Random extra handedness and orientation churn.
    if rng.random() < 0.3:
        d = d.mirror()
    for comp in range(len(d.components)):
        if rng.random() < 0.3:
            d = d.reverse_component(comp)
    return d


def random_diagrams(
    count: int,
    max_crossings: int = 12,
    seed: int = 0,
    multi_component: bool = False,
) -> list[Diagram]:
    """A reproducible corpus of braid-closure diagrams.

    With ``multi_component`` every diagram has at least two components that
    carry crossings, which is what knotification needs.  That takes at least
    two crossings, so ``max_crossings`` below 2 raises ValueError, as
    does a negative ``count``.
    """
    if count < 0:
        raise ValueError(f"a corpus cannot hold {count} diagrams")
    if multi_component and max_crossings < 2:
        raise ValueError("two crossing components need max_crossings >= 2")
    rng = random.Random(seed)
    out: list[Diagram] = []
    while len(out) < count:
        d = random_braid_closure(rng, max_crossings)
        if d.crossing_count == 0 or d.crossing_count > max_crossings:
            continue
        if multi_component and len(d.components) < 2:
            continue
        out.append(d)
    return out
