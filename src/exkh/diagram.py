"""Planar diagram codes for oriented link diagrams.

A diagram with c crossings is written as c whitespace-separated tuples
``X(a,b,c,d)``: the four arc labels met counterclockwise around the crossing,
starting from the arc that enters *under* the over-strand.  The under-strand
therefore runs a -> c, while the over-strand occupies slots b and d with a
direction that is recovered from global consistency of the arc orientations.
Crossingless unknot components are written as bare ``U`` tokens.  Arc labels
are arbitrary positive integers; they are normalised to 1..2c on parsing.

Sign convention.  A crossing is positive when its over-strand enters at slot
d (equivalently: turning the entering over-direction a quarter turn
counterclockwise gives the entering under-direction).  With this rule the
usual left trefoil code ``X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)`` has three
negative crossings and writhe -3.

Smoothings follow Kauffman's convention: the A-smoothing of X(a,b,c,d) joins
a-b and c-d, the B-smoothing joins a-d and b-c.  A state assigns one letter
to every crossing; resolving all crossings leaves a disjoint union of
circles, each crossing contributing one chord between the two points where
its smoothing arcs used to sit.  Circles are reported as cyclic sequences of
chord endpoints ``(crossing, half)`` with half 0 for the smoothing arc
containing slot a and half 1 for the other one.  A crossingless circle is
reported with a single pseudo-endpoint ``(-k, 0)``, k >= 1.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ArcLabelNotPairedTwice,
    EmptyDiagram,
    InconsistentOrientation,
    MalformedTuple,
)

Endpoint = tuple  # (crossing_index, half); negative first entry marks a free loop

_TUPLE_RE = re.compile(
    r"[Xx]\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)"
)

A = "A"
B = "B"


@dataclass(frozen=True)
class State:
    """An assignment of a smoothing letter A or B to every crossing."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if any(x not in (A, B) for x in self.labels):
            raise ValueError(f"state labels must be 'A' or 'B': {self.labels!r}")

    @property
    def a_count(self) -> int:
        return self.labels.count(A)

    @property
    def b_count(self) -> int:
        return self.labels.count(B)

    @property
    def sigma(self) -> int:
        """Number of A labels minus number of B labels."""
        return self.a_count - self.b_count

    @property
    def bits(self) -> int:
        """The B-labelled crossings as the set bits of an integer."""
        return sum(1 << k for k, lab in enumerate(self.labels) if lab == B)

    def flip(self, crossing: int) -> "State":
        labels = list(self.labels)
        labels[crossing] = B if labels[crossing] == A else A
        return State(tuple(labels))


@dataclass(frozen=True)
class Chord:
    """The trace of one smoothed crossing on the resolved circles."""

    crossing: int
    label: str
    endpoints: tuple[Endpoint, Endpoint]


@dataclass(frozen=True)
class ResolvedState:
    """Circles and chords left after smoothing every crossing of a state."""

    state: State
    circles: tuple[tuple[Endpoint, ...], ...]
    chords: tuple[Chord, ...]

    @property
    def circle_count(self) -> int:
        return len(self.circles)

    def circle_of(self, endpoint: Endpoint) -> int:
        for k, circle in enumerate(self.circles):
            if endpoint in circle:
                return k
        raise KeyError(endpoint)

    def to_json(self) -> str:
        return json.dumps(
            {
                "state": list(self.state.labels),
                "circles": [[list(e) for e in circle] for circle in self.circles],
                "chords": [
                    {
                        "crossing": ch.crossing,
                        "label": ch.label,
                        "endpoints": [list(e) for e in ch.endpoints],
                    }
                    for ch in self.chords
                ],
            }
        )


@dataclass(frozen=True)
class Diagram:
    """An oriented link diagram given by its crossing tuples.

    ``signs[i]`` is the sign of crossing i.  Signs are fixed at construction
    time and travel with the diagram: reversing a component that never passes
    under a crossing is invisible to the PD text, so the stored signs, not a
    re-derivation, are authoritative.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    signs: tuple[int, ...]
    free_loops: int = 0

    def __post_init__(self):
        if len(self.signs) != len(self.crossings):
            raise ValueError("one sign per crossing required")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        if self.free_loops < 0:
            raise ValueError("free_loops must be >= 0")

    # ----- elementary counts -------------------------------------------------

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def positive_count(self) -> int:
        return sum(1 for s in self.signs if s > 0)

    @property
    def negative_count(self) -> int:
        return sum(1 for s in self.signs if s < 0)

    @property
    def writhe(self) -> int:
        return sum(self.signs)

    # ----- derived structure -------------------------------------------------

    @cached_property
    def _arc_ports(self) -> dict[int, tuple[int, int]]:
        """Map arc label -> its two ports.  Port ids are 4*crossing + slot."""
        seen: dict[int, list[int]] = {}
        for ci, tup in enumerate(self.crossings):
            for slot, arc in enumerate(tup):
                seen.setdefault(arc, []).append(4 * ci + slot)
        bad = sorted(a for a, ports in seen.items() if len(ports) != 2)
        if bad:
            raise ArcLabelNotPairedTwice(
                f"arc labels not occurring exactly twice: {bad}"
            )
        return {a: (p[0], p[1]) for a, p in seen.items()}

    @cached_property
    def _arc_partner(self) -> dict[int, int]:
        """Map port -> the port at the other end of the same arc."""
        partner = {}
        for p, q in self._arc_ports.values():
            partner[p] = q
            partner[q] = p
        return partner

    @cached_property
    def _strands(self) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
        """Trace the link components through the crossings.

        Returns (components, entry_slot_by_crossing) where each component is
        the tuple of its arc labels in traversal order (minimal arc first)
        and entry_slot_by_crossing maps a crossing to the slot at which the
        over-strand enters (1 or 3).  Raises InconsistentOrientation when the
        under-entry convention cannot be satisfied.
        """
        arc_partner = self._arc_partner
        n_ports = 4 * len(self.crossings)
        seen = [False] * n_ports
        components: list[tuple[int, ...]] = []
        over_entry: dict[int, int] = {}

        for start in range(n_ports):
            if seen[start]:
                continue
            # Walk the strand, collecting the ports at which it enters a
            # passage.  Passages pair slots 0-2 (under) and 1-3 (over).
            entries = []
            p = start
            while True:
                entries.append(p)
                seen[p] = True
                seen[p ^ 2] = True
                p = arc_partner[p ^ 2]
                if p == start:
                    break
            under = [q for q in entries if q & 1 == 0]
            wrong = [q for q in under if q & 3 == 2]
            if wrong and len(wrong) < len(under):
                raise InconsistentOrientation(
                    f"crossings {sorted({q // 4 for q in under})} disagree on "
                    "the direction of one strand"
                )
            if under and wrong:
                entries = [q ^ 2 for q in reversed(entries)]
            elif not under:
                # The strand only ever passes over.  Orient it so that the
                # arc following its minimal arc is the smaller neighbour,
                # matching the usual increasing arc numbering.
                arcs = [self.crossings[q // 4][q & 3] for q in entries]
                k = arcs.index(min(arcs))
                nxt = arcs[(k + 1) % len(arcs)]
                prv = arcs[(k - 1) % len(arcs)]
                if prv < nxt:
                    entries = [q ^ 2 for q in reversed(entries)]
            arcs = [self.crossings[q // 4][q & 3] for q in entries]
            k = arcs.index(min(arcs))
            components.append(tuple(arcs[k:] + arcs[:k]))
            for q in entries:
                if q & 1:
                    over_entry[q // 4] = q & 3
        components.sort(key=lambda comp: comp[0])
        return tuple(components), over_entry

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Arc labels of each link component, crossingless circles excluded."""
        return self._strands[0]

    @property
    def component_count(self) -> int:
        return len(self.components) + self.free_loops

    @cached_property
    def _component_of_arc(self) -> dict[int, int]:
        of = {}
        for k, comp in enumerate(self.components):
            for arc in comp:
                of[arc] = k
        return of

    # ----- states and resolutions --------------------------------------------

    def all_a_state(self) -> State:
        return State((A,) * self.crossing_count)

    def resolve(self, state: State) -> ResolvedState:
        """Smooth every crossing according to ``state``.

        Circles come out canonically: each cyclic endpoint sequence is
        rotated so its minimal endpoint is first and the circles are sorted
        by that endpoint.
        """
        if len(state.labels) != self.crossing_count:
            raise ValueError("state length does not match crossing count")
        circles = self._resolve_bits(state.bits)
        chords = tuple(
            Chord(ci, state.labels[ci], ((ci, 0), (ci, 1)))
            for ci in range(self.crossing_count)
        )
        return ResolvedState(state=state, circles=circles, chords=chords)

    @cached_property
    def _endpoints(self) -> tuple[Endpoint, ...]:
        """The 2c chord endpoints, ``(ci, half)`` at index 2*ci + half.

        Every resolution reuses these tuples, so the resolution cache holds
        one endpoint object per chord end however many states it keeps.
        """
        return tuple(
            (ci, half) for ci in range(len(self.crossings)) for half in (0, 1)
        )

    def _resolve_bits(self, bits: int) -> tuple[tuple[Endpoint, ...], ...]:
        """Circles of the state whose B-labelled crossings are the set bits.

        This is the package's one circle tracer: every state loop counts or
        compares circles through it.
        """
        cache = self.__dict__.setdefault("_resolution_cache", {})
        hit = cache.get(bits)
        if hit is not None:
            return hit
        arc_partner = self._arc_partner
        endpoints = self._endpoints
        n_ports = 4 * len(self.crossings)
        # Smoothing: in the A-smoothing ports pair as slot^1 (joins 01 and
        # 23), in the B-smoothing as slot^3 (joins 03 and 12).  The join
        # through slot a is half 0 of the crossing's chord, so an A-join
        # through port p is endpoint p >> 1 and a B-join adds the parity
        # of the slot's two bits to 2*ci.
        seen = [False] * n_ports
        circles = []
        for start in range(n_ports):
            if seen[start]:
                continue
            joins: list[Endpoint] = []
            p = start
            while True:
                seen[p] = True
                if (bits >> (p >> 2)) & 1:
                    q = p ^ 3
                    joins.append(endpoints[((p >> 1) & ~1) | ((p ^ (p >> 1)) & 1)])
                else:
                    q = p ^ 1
                    joins.append(endpoints[p >> 1])
                seen[q] = True
                p = arc_partner[q]
                if p == start:
                    break
            k = joins.index(min(joins))
            circles.append(tuple(joins[k:] + joins[:k]))
        for k in range(self.free_loops):
            circles.append(((-(k + 1), 0),))
        circles.sort(key=lambda c: c[0])
        result = tuple(circles)
        cache[bits] = result
        return result

    # ----- diagram surgeries --------------------------------------------------

    def mirror(self) -> "Diagram":
        """Swap over- and under-strand at every crossing."""
        new = []
        for tup, sign in zip(self.crossings, self.signs):
            a, b, c, d = tup
            # The old over-entry arc becomes the under-entry arc.
            new.append((d, a, b, c) if sign > 0 else (b, c, d, a))
        return Diagram(tuple(new), tuple(-s for s in self.signs), self.free_loops)

    def reverse_component(self, index: int) -> "Diagram":
        """Reverse the orientation of one link component.

        A crossing's sign flips exactly when one of its two strands lies on
        the reversed component.  Tuples whose under-strand is reversed are
        rotated by two slots so the PD text stays faithful.  Crossingless
        circles carry no orientation and cannot be reversed.
        """
        if not 0 <= index < len(self.components):
            raise ValueError(f"no component with index {index}")
        comp_of = self._component_of_arc
        new_cross = []
        new_signs = []
        for tup, sign in zip(self.crossings, self.signs):
            under_in = comp_of[tup[0]] == index
            over_in = comp_of[tup[1]] == index
            if under_in:
                tup = (tup[2], tup[3], tup[0], tup[1])
            new_cross.append(tup)
            new_signs.append(-sign if under_in != over_in else sign)
        return Diagram(tuple(new_cross), tuple(new_signs), self.free_loops)

    # ----- serialisation -------------------------------------------------------

    def to_pd(self) -> str:
        tokens = [f"X({a},{b},{c},{d})" for a, b, c, d in self.crossings]
        tokens.extend("U" for _ in range(self.free_loops))
        return " ".join(tokens)

    def to_json(self) -> str:
        return json.dumps(
            {
                "crossings": [list(t) for t in self.crossings],
                "signs": list(self.signs),
                "free_loops": self.free_loops,
            }
        )

    @staticmethod
    def from_json(text: str) -> "Diagram":
        data = json.loads(text)
        return Diagram(
            tuple(tuple(t) for t in data["crossings"]),
            tuple(data["signs"]),
            data.get("free_loops", 0),
        )

    @staticmethod
    def unknot(loops: int = 1) -> "Diagram":
        if loops < 1:
            raise EmptyDiagram("an unknot diagram needs at least one circle")
        return Diagram((), (), loops)


def parse_pd(text: str) -> Diagram:
    """Parse PD text into a Diagram.

    Raises MalformedTuple, ArcLabelNotPairedTwice, InconsistentOrientation or
    EmptyDiagram on bad input.
    """
    rest = text
    tuples: list[tuple[int, int, int, int]] = []
    for m in _TUPLE_RE.finditer(text):
        tuples.append(tuple(int(g) for g in m.groups()))
    rest = _TUPLE_RE.sub(" ", text)
    loops = 0
    for token in rest.split():
        if token in ("U", "u"):
            loops += 1
        else:
            raise MalformedTuple(f"unrecognised token {token!r}")
    if not tuples and not loops:
        raise EmptyDiagram("no crossings and no loop markers in input")
    if any(x == 0 for tup in tuples for x in tup):
        raise MalformedTuple("arc labels must be positive integers")

    labels = sorted({x for tup in tuples for x in tup})
    relabel = {old: new for new, old in enumerate(labels, start=1)}
    tuples = [tuple(relabel[x] for x in tup) for tup in tuples]

    probe = Diagram(tuple(tuples), (1,) * len(tuples), loops)
    _, over_entry = probe._strands  # validates pairing and orientation
    signs = tuple(1 if over_entry[ci] == 3 else -1 for ci in range(len(tuples)))
    return Diagram(tuple(tuples), signs, loops)


def pd_hash(d: Diagram) -> str:
    """Stable short hash of a diagram, for table metadata."""
    return hashlib.sha1(d.to_pd().encode()).hexdigest()[:12]
