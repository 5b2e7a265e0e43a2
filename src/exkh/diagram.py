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

_LOOP_MARKERS = ("U", "u")  # a crossingless circle in PD text

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
    def bits(self) -> int:
        """The B-labelled crossings as the set bits of an integer."""
        return sum(1 << k for k, lab in enumerate(self.labels) if lab == B)


@dataclass(frozen=True)
class ResolvedState:
    """The circles left after smoothing every crossing of a state.

    Crossing ci leaves a chord between its endpoints ``(ci, 0)`` and
    ``(ci, 1)`` on these circles; ``to_json`` lists the chords from the
    state's labels.
    """

    state: State
    circles: tuple[tuple[Endpoint, ...], ...]

    @property
    def circle_count(self) -> int:
        return len(self.circles)

    def to_json(self) -> str:
        return json.dumps(
            {
                "state": list(self.state.labels),
                "circles": [[list(e) for e in circle] for circle in self.circles],
                "chords": [
                    {"crossing": ci, "label": label, "endpoints": [[ci, 0], [ci, 1]]}
                    for ci, label in enumerate(self.state.labels)
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
    def is_planar(self) -> bool:
        """Whether the projection, with the crossings' rotations, is planar.

        Faces are traced port by port: from port p along its arc to
        q = partner[p], then on to the next slot counterclockwise at q's
        crossing.  With c crossings, 2c edges and k connected pieces, Euler's
        formula makes the projection planar exactly when it has c + 2k
        faces; a virtual diagram has fewer.  Free loops change neither side.
        """
        partner = self._arc_partner
        c = len(self.crossings)
        seen = [False] * (4 * c)
        faces = 0
        for start in range(4 * c):
            if not seen[start]:
                faces += 1
                p = start
                while not seen[p]:
                    seen[p] = True
                    q = partner[p]
                    p = (q & ~3) | ((q + 1) & 3)
        root = list(range(c))

        def find(x: int) -> int:
            while root[x] != x:
                x = root[x]
            return x

        for p, q in partner.items():
            root[find(p >> 2)] = find(q >> 2)
        pieces = sum(root[x] == x for x in range(c))
        return faces == c + 2 * pieces

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
        return ResolvedState(state=state, circles=self._resolve_bits(state.bits))

    def _resolve_bits(self, bits: int) -> tuple[tuple[Endpoint, ...], ...]:
        """Circles of the state whose B-labelled crossings are the set bits.

        This is the package's one circle tracer, a plain function of
        ``bits`` that keeps nothing: ``resolve``, ``_all_a_circles`` and
        the all-B count of ``j_bounds`` read circles from here.  Loops that
        only count circles read the tally ``_count_histogram``, which
        traces nothing.
        """
        n_ports = 4 * len(self.crossings)
        seen = [False] * n_ports
        circles = []
        for start in range(n_ports):
            if not seen[start]:
                ends = self._circle_ends(bits, start, seen)
                k = ends.index(min(ends))
                circles.append(tuple((e >> 1, e & 1) for e in ends[k:] + ends[:k]))
        for k in range(self.free_loops):
            circles.append(((-(k + 1), 0),))
        circles.sort(key=lambda c: c[0])
        return tuple(circles)

    def _circle_ends(self, bits: int, start: int, seen: list[bool]) -> list[int]:
        """The chord ends, as 2 * ci + half, met in order on the circle of
        smoothing ``bits`` that leaves port ``start``; marks its ports in
        ``seen``.

        This is the one loop that follows ports: ``_resolve_bits`` walks
        every circle with it, and the growth of the brute rows walks the
        one new circle of a split.
        """
        arc_partner = self._arc_partner
        # Smoothing: in the A-smoothing ports pair as slot^1 (joins 01 and
        # 23), in the B-smoothing as slot^3 (joins 03 and 12).  The join
        # through slot a is half 0 of the crossing's chord, so an A-join
        # through port p is chord end p >> 1, and a B-join has the parity
        # of the slot's two bits as its half.
        ends = []
        p = start
        while True:
            seen[p] = True
            if (bits >> (p >> 2)) & 1:
                q = p ^ 3
                ends.append((p >> 1 & ~1) | ((p ^ p >> 1) & 1))
            else:
                q = p ^ 1
                ends.append(p >> 1)
            seen[q] = True
            p = arc_partner[q]
            if p == start:
                return ends

    @cached_property
    def _all_a_circles(self) -> tuple[tuple[Endpoint, ...], ...]:
        """The all-A smoothing's circles, traced once per diagram for the
        Lando graph, ``j_bounds`` and the root of the brute rows' growth."""
        return self._resolve_bits(0)

    @cached_property
    def _extreme_circle_counts(self) -> tuple[int, int]:
        """Circle counts, free loops in, of the all-A and all-B smoothings,
        which ``j_bounds`` reads: the all-B one traced once per diagram."""
        all_b = (1 << len(self.crossings)) - 1
        return len(self._all_a_circles), len(self._resolve_bits(all_b))

    @cached_property
    def _count_histogram(self) -> dict[tuple[int, int], int]:
        """(B-count, circle count) -> how many smoothings have them.

        Free loops are left out of the counts; only pairs that occur are
        keys.  A frontier scan (Bar-Natan's local scanning, at the level of
        the Jones polynomial) traces nothing: it places the crossings one
        by one, each next one sharing the most arcs with those placed.  A
        state is the pairing of the open ends of the paths placed so far,
        and counts its smoothings as ``{b * (2c + 1) + m: count}``, m the
        circles closed.  Placing a crossing's A or B joins takes a pairing
        to one pairing and closes as many circles for all its smoothings.
        """
        c = len(self.crossings)
        partner = self._arc_partner
        stride = 2 * c + 1  # circle counts run 0 .. 2c
        # Kauffman's A joins slots a-b and c-d, B joins a-d and b-c
        smoothings = ((((0, 1), (2, 3)), 0), (((0, 3), (1, 2)), stride))
        states: dict[tuple, dict[int, int]] = {(): {0: 1}}
        todo = set(range(c))
        shared = [0] * c  # arcs from each crossing to the placed ones
        for _ in range(c):
            x = max(todo, key=lambda y: (shared[y], -y))
            todo.remove(x)
            for u in range(4 * x, 4 * x + 4):
                shared[partner[u] >> 2] += 1
            after: dict[tuple, dict[int, int]] = {}
            for pairing, tally in states.items():
                ends = dict(pairing)
                for u in range(4 * x, 4 * x + 4):
                    if u not in ends:  # an arc to x itself or to an unplaced crossing
                        ends[u], ends[partner[u]] = partner[u], u
                for joins, shift in smoothings:
                    pairs = dict(ends)
                    closed = 0
                    for s, t in joins:  # join the paths ending at x's slots s and t
                        a, b = pairs.pop(4 * x + s), pairs.pop(4 * x + t)
                        if a == 4 * x + t:
                            closed += 1
                        else:
                            pairs[a], pairs[b] = b, a
                    into = after.setdefault(tuple(sorted(pairs.items())), {})
                    for k, n in tally.items():
                        k += shift + closed
                        into[k] = into.get(k, 0) + n
            states = after
        (tally,) = states.values()
        return {divmod(k, stride): n for k, n in tally.items()}

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

    @staticmethod
    def unknot(loops: int = 1) -> "Diagram":
        if loops < 1:
            raise EmptyDiagram("an unknot diagram needs at least one circle")
        return Diagram((), (), loops)


def _pd_tokens(text: str) -> tuple[list[tuple[int, ...]], list[str]]:
    """The crossing tuples of PD text, and its other whitespace-separated
    tokens, which well-formed text holds only as loop markers."""
    tuples = [tuple(int(g) for g in m.groups()) for m in _TUPLE_RE.finditer(text)]
    return tuples, _TUPLE_RE.sub(" ", text).split()


def is_pd_text(text: str) -> bool:
    """Whether ``text`` holds a crossing tuple or a loop marker of PD text.

    This tells inline PD from a catalog name or a file path; whether the
    rest of the text is well formed is for ``parse_pd`` to say.
    """
    tuples, tokens = _pd_tokens(text)
    return bool(tuples) or any(t in _LOOP_MARKERS for t in tokens)


def parse_pd(text: str) -> Diagram:
    """Parse PD text into a Diagram.

    Raises MalformedTuple, ArcLabelNotPairedTwice, InconsistentOrientation or
    EmptyDiagram on bad input.
    """
    tuples, tokens = _pd_tokens(text)
    loops = 0
    for token in tokens:
        if token in _LOOP_MARKERS:
            loops += 1
        else:
            raise MalformedTuple(f"unrecognised token {token!r}")
    if not tuples and not loops:
        raise EmptyDiagram("no crossings and no loop markers in input")
    if any(x == 0 for tup in tuples for x in tup):
        raise MalformedTuple("arc labels must be positive integers")

    labels = sorted({x for tup in tuples for x in tup})
    relabel = {old: new for new, old in enumerate(labels, start=1)}
    crossings = tuple(tuple(relabel[x] for x in tup) for tup in tuples)

    probe = Diagram(crossings, (1,) * len(crossings), loops)
    _, over_entry = probe._strands  # validates pairing and orientation
    signs = tuple(1 if over_entry[ci] == 3 else -1 for ci in range(len(crossings)))
    d = Diagram(crossings, signs, loops)
    # the arcs and strands traced so far depend on the tuples, not the signs
    for name in ("_arc_ports", "_arc_partner", "_strands"):
        d.__dict__[name] = probe.__dict__[name]
    return d


def pd_hash(d: Diagram) -> str:
    """Stable short hash of a diagram, for table metadata."""
    return hashlib.sha1(d.to_pd().encode()).hexdigest()[:12]
