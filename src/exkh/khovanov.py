"""Khovanov cohomology by brute force over enhanced states.

An enhanced state of a diagram is a smoothing state together with a sign
+-1 on every resulting circle.  Writing sigma for (#A - #B) over the
crossings and tau for the sum of the circle signs, each enhanced state s
sits in bidegree

    i(s) = (w - sigma) / 2,        j(s) = w + i(s) + tau,

with w the writhe.  The differential raises i by one and preserves j: its
matrix entry between s and t is nonzero exactly when t relabels a single
A-crossing of s to B, every circle untouched by that crossing keeps its
sign, and the signs at the crossing follow the local rules

    merge:  (+,+) -> +       split:  (-) -> (-,-)
            (+,-) -> -               (+) -> (+,-)
            (-,+) -> -               (+) -> (-,+)

(all other combinations give entry 0).  The entry is then (-1)^k where k
counts the B-labelled crossings of s strictly after the changed one in
crossing order.  Cohomology of the resulting complex, row by row in j, is
the Khovanov cohomology of the diagram.

One pass builds every j-row of a window [lo, hi] of j at once (the full
table's [j_min, j_max], or [j, j] for one row).  An enhanced state is
keyed as the integer pair (B-bits, mask of minus-signed circles), bit k
of the mask the sign of circle k as ``Diagram._resolve_bits`` lists
them.  Only the smoothings with i - m <= hi - w, m circles, hold a state
with j <= hi; they form a family closed under subsets, grown from the
all-A smoothing, which the diagram traces once.  The growth keeps, for each
smoothing, where its circles hold the chord ends.  A flip changes only
the circles through one crossing (Bar-Natan's local form), so each child
is made from its parent by surgery: a merge renames two positions and
walks nothing, and a split walks only its one new circle.  A cube edge
likewise needs only where the flipped crossing's two chord ends sit, so
each (smoothing, A-crossing) pair is read once for all rows.  As circles
sort by least chord end, a merge lands on the lower of its two source
positions and a split keeps the old position for the part with the old
least end; so a sign mask crosses the edge by two fixed bit operations
(delete or open one bit, clear another), and the maps come out as the
sparse rows the reduction kernel takes.

``khovanov_cohomology`` keeps one slot: the last diagram whose full table
it built, with each row's groups over Z, from which every ring's groups
follow; the rows themselves are not kept.  A table asked for again on an
equal diagram (over another ring, say) reduces nothing, and a table for
any other diagram empties the slot before its own build, so at most one
diagram's groups are ever held.  Only the full table reads the slot: one
row (``khovanov_complex``, the brute extreme row) is always built afresh,
so it stays an independent check on the full build.

The Kauffman bracket and Jones polynomial live here too, computed by a
state sum that never builds enhanced states; agreement of the graded Euler
characteristic of the cohomology table with the bracket is a strong
end-to-end check.  They and the j-range scan read only
``Diagram._count_histogram``, a frontier scan's tally of smoothings per
(B-count, circle count) pair that traces no smoothing; the complex's
growth reads its root from ``Diagram._all_a_circles``, its splits walk
the tracer's one port-following loop, ``Diagram._circle_ends``, and
``j_bounds`` reads the all-A and all-B circle counts.  The test suite
checks both against a union-find circle count (``tests/conftest.py``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .diagram import Diagram, pd_hash
from .errors import CapExceeded, NonPlanarDiagram, NotAComplex
from .simplicial import (
    AbelianGroup,
    ChainComplex,
    check_square_zero,
    cohomology,
    over_ring,
    parse_ring,
)

DEFAULT_CROSSING_CAP = 16


def _check_crossing_cap(d: Diagram, cap: int) -> None:
    if d.crossing_count > cap:
        raise CapExceeded("crossing count", cap)


def _check_planar(d: Diagram, needs: str) -> None:
    if not d.is_planar:
        raise NonPlanarDiagram(
            f"{needs} needs a planar diagram; this one does not embed in the plane"
        )


# (diagram, j -> its row's groups over Z) of the last full table built, or None
_table_slot: tuple[Diagram, dict[int, dict[int, AbelianGroup]]] | None = None


# --------------------------------------------------------------------------
# Laurent polynomials
# --------------------------------------------------------------------------


class LaurentPoly:
    """A Laurent polynomial with integer coefficients in one variable."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: dict[int, int] | None = None, var: str = "A"):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}
        self.var = var

    @staticmethod
    def one(var: str = "A") -> "LaurentPoly":
        return LaurentPoly({0: 1}, var)

    def _merge(self, other: "LaurentPoly") -> str:
        if self.var != other.var:
            raise ValueError(f"mixed variables {self.var!r} and {other.var!r}")
        return self.var

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        var = self._merge(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out, var)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()}, self.var)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        var = self._merge(other)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out, var)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = LaurentPoly.one(self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by var**k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()}, self.var)

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, frozenset(self.coeffs.items())))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                pow_ = self.var if e == 1 else f"{self.var}^{e}"
                term = mag + pow_
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeffs!r}, var={self.var!r})"


# --------------------------------------------------------------------------
# the complex, one j-row at a time
# --------------------------------------------------------------------------


def _move(source_where: list[int], target_where: list[int], x: int) -> tuple:
    """How relabelling A-crossing x of a smoothing to B moves its circles.

    The chord-end maps of the smoothing and of its flip at x hold, at
    2*ci + half, the position of the circle holding chord end (ci, half).
    Only the circles through x's two ends change; the kept ones are the
    same tuples on both sides and sort by least endpoint, so they keep
    their order.  Returns (split, low, high).  In a merge the circles at
    source positions low < high join into the target circle at low, as
    its least end is the lower circle's, and every position above high
    drops by one.  In a split the source circle at low parts into the
    target circles at low, the part that holds the old least end, and
    high > low; every position from high up rises by one.  Raises
    NotAComplex unless two circles merge or one splits, or if the merged
    circle or the split's kept part is not at the lower source position.
    """
    s0, s1 = sorted(source_where[2 * x : 2 * x + 2])
    t0, t1 = sorted(target_where[2 * x : 2 * x + 2])
    split = s0 == s1
    if split == (t0 == t1):
        raise NotAComplex(
            f"relabelling crossing {x} changed {2 - split} circles "
            f"into {2 - (t0 == t1)}"
        )
    if t0 != s0:
        raise NotAComplex(
            f"relabelling crossing {x} moved the circle at position {s0} to {t0}"
        )
    return split, s0, t1 if split else s1


def _flip(
    d: Diagram, child: int, x: int, m: int, where: list[int]
) -> tuple[int, list[int]]:
    """(m, where) of smoothing ``child`` from those of its parent
    ``child ^ 1 << x``, where x is A, by surgery at x.

    Circles sort by their least chord end, so a flip moves positions only
    around the circles through x's two ends; every position is renamed
    through one table, ``moved``.  A merge of the circles at positions
    k0 < k1 walks nothing: k1 becomes k0 and every position above k1 drops
    by one.  Otherwise the child's circle through (x, 0) is walked from
    port 4x.  If it meets (x, 1), the flip keeps the count (a virtual
    diagram) and every position.  If not, the old circle split: the part
    holding its least chord end keeps its position, and the other part,
    whose least chord end is ``least``, goes just above the circles whose
    least end is lower, to ``max(where[:least]) + 1``; positions from there
    up rise by one.  The list returned is always new.
    """
    k0, k1 = where[2 * x], where[2 * x + 1]
    if k0 != k1:  # a merge
        k0, k1 = min(k0, k1), max(k0, k1)
        moved = [*range(k1), k0, *range(k1, m - 1)]
        return m - 1, list(map(moved.__getitem__, where))
    walked = set(d._circle_ends(child, 4 * x, [False] * (4 * d.crossing_count)))
    if 2 * x + 1 in walked:  # the count stays
        return m, list(where)
    least = where.index(k0)
    keep = least in walked  # the walked part keeps the old least end
    if keep:
        while least in walked:
            least = where.index(k0, least + 1)
    else:
        least = min(walked)
    t = max(where[:least]) + 1
    moved = [*range(t), *range(t + 1, m + 1)]
    if keep:
        moved[k0] = t
    out = list(map(moved.__getitem__, where))
    for e in walked:
        out[e] = k0 if keep else t
    return m + 1, out


def _grown_family(d: Diagram, limit: int) -> dict[int, tuple[int, list[int]]]:
    """B-bits -> (m, where) for the smoothings with b - m <= limit, b the
    B-count and m the circle count (free loops in); the all-A smoothing
    must be one.  ``where`` is the chord-end map ``_move`` reads; free
    loops sort first and hold no end.  Each smoothing keeps a list of its
    own.

    A flip raises b by one and moves m by at most one, so the family is
    closed under subsets.  It grows from the all-A smoothing, the one
    smoothing traced in full, flipping only crossings above the highest
    B-bit; every other smoothing is made once, by ``_flip`` from its
    parent's map (Bar-Natan's local form: a flip changes only the circles
    through one crossing).  At slack limit - (b - m) below 2 a child needs
    m to stay or rise: a merge (chord ends on two circles) is skipped
    unmade, and a count-preserving flip of a virtual diagram is dropped at
    slack 0.
    """
    c = d.crossing_count
    circles = d._all_a_circles
    root = [0] * (2 * c)
    for k in range(d.free_loops, len(circles)):
        for ci, half in circles[k]:
            root[2 * ci + half] = k
    family = {0: (len(circles), root)}
    grow = [0]
    while grow:
        bits = grow.pop()
        m, where = family[bits]
        slack = limit - bits.bit_count() + m
        for x in range(bits.bit_length(), c):
            if slack < 2 and where[2 * x] != where[2 * x + 1]:
                continue  # a merge
            child = bits | 1 << x
            made = _flip(d, child, x, m, where)
            if made[0] - m >= 1 - slack:
                family[child] = made
                grow.append(child)
    return family


def _j_rows(
    d: Diagram, only_j: int | None = None, max_crossings: int = DEFAULT_CROSSING_CAP
) -> dict[int, ChainComplex]:
    """The j-rows of the enhanced-state complex in one window, built in one pass.

    The window is [j_min, j_max] of ``j_bounds`` for the full table, and
    just ``only_j`` for one row.  Returns j -> fixed-j cochain complex for
    every j in the window that holds a state.  Basis elements are the
    integer pairs (B-bits, mask of minus-signed circles), ordered by
    smoothing in bit order, then by minus set in lexicographic order.  Rows
    are sparse, as ChainComplex holds them, and each row is checked to
    square to zero.

    The smoothings, grown by ``_grown_family`` and taken in bit order, are
    those with i - m <= hi - w, as an enhancement of m circles has
    j >= w + i - m; a window below j_min of ``j_bounds`` grows none.  Only
    the all-A smoothing is traced; every other one is made from its parent
    by ``_flip``, which moves the positions of the circles through one
    crossing and walks at most one new circle.  Each one numbers the
    states of its minus counts k that land in the window into their (j, i)
    bases, a block of masks per k: the masks of m circles with k minus
    signs, in lexicographic order, are formed once per (m, k) in the call.
    It then pulls its incoming differential from the smoothings one
    B-crossing lower, which are numbered already.  Every (smoothing,
    A-crossing) pair is read by ``_move`` once, for all rows, from the two
    chord-end maps, and each source mask goes to its target masks by two
    fixed bit operations.  In a merge of low < high, ``kept`` deletes bit
    high and clears bit low; (+,+) goes to ``kept``, one minus to
    ``kept | 1 << low``, and (-,-) to nothing.  In a split, ``kept``
    clears bit low and opens a zero at high; plus goes to
    ``kept | 1 << high`` and ``kept | 1 << low``, minus to ``kept`` with
    both bits set.
    """
    _check_crossing_cap(d, max_crossings)
    c = d.crossing_count
    w = d.writhe
    n = d.negative_count
    j_min, j_max = j_bounds(d)
    lo, hi = (j_min, j_max) if only_j is None else (only_j, only_j)
    if hi < j_min:
        return {}
    family = _grown_family(d, hi - w + n)
    bases: dict[int, dict[int, list[tuple[int, int]]]] = {}  # j -> i -> states
    into: dict[int, dict[int, list[dict]]] = {}  # j -> i -> rows of the map into i
    # bits -> [(column of the first mask, masks)], one block per minus count
    numbered: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    masks_of: dict[tuple[int, int], tuple[int, ...]] = {}  # (m, k) -> masks
    for bits in sorted(family):
        m, where = family[bits]
        i = bits.bit_count() - n
        top = w + i + m  # j of the all-plus enhancement
        here: dict[int, dict] = {}  # mask -> the row of its state
        blocks = numbered[bits] = []
        for k in range(max(0, (top - hi + 1) // 2), min(m, (top - lo) // 2) + 1):
            j = top - 2 * k
            masks = masks_of.get((m, k))
            if masks is None:
                masks = masks_of[m, k] = tuple(
                    sum(1 << b for b in neg) for neg in itertools.combinations(range(m), k)
                )
            basis = bases.setdefault(j, {}).setdefault(i, [])
            made = [{} for _ in masks]
            blocks.append((len(basis), masks))
            basis.extend(zip(itertools.repeat(bits), masks))
            into.setdefault(j, {}).setdefault(i, []).extend(made)
            here.update(zip(masks, made))
        if not blocks:
            continue
        after = 0  # B-crossings of bits after x
        for x in range(c - 1, -1, -1):
            if not (bits >> x) & 1:
                continue
            source = bits ^ 1 << x
            source_blocks = numbered[source]
            if source_blocks:
                incidence = -1 if after % 2 else 1
                split, low, high = _move(family[source][1], where, x)
                low_bit, high_bit = 1 << low, 1 << high
                both = low_bit | high_bit
                below = (high_bit - 1) ^ low_bit  # kept in place, low cleared
                if split:  # open a zero at high
                    above = ~(2 * high_bit - 1)
                    for first, masks in source_blocks:
                        for col, mask in enumerate(masks, first):
                            kept = mask & below | mask << 1 & above
                            if mask & low_bit:
                                here[kept | both][col] = incidence
                            else:
                                here[kept | high_bit][col] = incidence
                                here[kept | low_bit][col] = incidence
                else:  # delete bit high
                    above = ~(high_bit - 1)
                    for first, masks in source_blocks:
                        for col, mask in enumerate(masks, first):
                            signs = mask & both
                            if signs != both:
                                kept = mask & below | mask >> 1 & above
                                here[kept | low_bit if signs else kept][col] = incidence
            after += 1
    out = {}
    for j in sorted(bases):
        row_bases = {i: tuple(b) for i, b in sorted(bases[j].items())}
        rows = {i: tuple(into[j].get(i + 1, ())) for i in row_bases}
        check_square_zero(rows, f" in row j={j}")
        out[j] = ChainComplex(bases=row_bases, rows=rows)
    return out


def khovanov_complex(
    d: Diagram, j: int, max_crossings: int = DEFAULT_CROSSING_CAP
) -> ChainComplex:
    """The fixed-j cochain complex of enhanced states.

    Degrees run over i; the maps are sparse rows in the row-per-target
    convention of ChainComplex, verified to compose to zero.  This is
    ``_j_rows`` with the window [j, j]: basis elements are its
    (B-bits, mask of minus-signed circles) pairs, over the smoothings in
    bit order, and within one smoothing over its minus-signed circle sets
    in lexicographic order.  The grown family holds the smoothings with
    i - m <= j - w, m the circle count; for j = j_min that is exactly the
    smoothings holding a j_min state.  A row that holds no state is the
    empty complex.
    """
    return _j_rows(d, j, max_crossings).get(j, ChainComplex(bases={}, rows={}))


# --------------------------------------------------------------------------
# cohomology tables
# --------------------------------------------------------------------------


@dataclass
class CohomologyTable:
    """Nonzero Khovanov cohomology groups of one diagram over one ring."""

    entries: dict[tuple[int, int], AbelianGroup]
    ring: str
    diagram: str  # short content hash of the diagram
    j_range: tuple[int, int]

    def group(self, i: int, j: int) -> AbelianGroup:
        return self.entries.get((i, j), AbelianGroup(0))

    def row(self, j: int) -> dict[int, AbelianGroup]:
        return {i: g for (i, jj), g in self.entries.items() if jj == j}

    def graded_euler_characteristic(self) -> LaurentPoly:
        out: dict[int, int] = {}
        for (i, j), g in self.entries.items():
            if g.rank:
                out[j] = out.get(j, 0) + (g.rank if i % 2 == 0 else -g.rank)
        return LaurentPoly(out, var="q")

    def to_json(self) -> str:
        return json.dumps(
            {
                "ring": self.ring,
                "diagram": self.diagram,
                "j_range": list(self.j_range),
                "entries": [
                    {
                        "i": i,
                        "j": j,
                        "rank": g.rank,
                        "torsion": list(g.torsion),
                        "group": g.to_text(self.ring),
                    }
                    for (i, j), g in sorted(self.entries.items())
                ],
            }
        )

    def to_text(self) -> str:
        if not self.entries:
            return "(no nonzero groups)"
        i_values = sorted({i for i, _ in self.entries})
        j_values = sorted({j for _, j in self.entries}, reverse=True)
        cells = {
            (i, j): g.to_text(self.ring) for (i, j), g in self.entries.items()
        }
        header = ["j\\i"] + [str(i) for i in i_values]
        rows = [header]
        for j in j_values:
            rows.append(
                [str(j)] + [cells.get((i, j), "·") for i in i_values]
            )
        widths = [
            max(len(r[k]) for r in rows) for k in range(len(header))
        ]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows
        )


def j_bounds(d: Diagram) -> tuple[int, int]:
    """The extreme j-gradings carrying any enhanced state.

    j_min is realised exactly by the all-A state with all-negative circles,
    j_max by the all-B state with all-positive ones; in between rows may or
    may not survive to cohomology.  The two circle counts are traced once
    per diagram (``Diagram._extreme_circle_counts``).
    """
    c = d.crossing_count
    s_a, s_b = d._extreme_circle_counts
    return c - 3 * d.negative_count - s_a, -c + 3 * d.positive_count + s_b


def scanned_j_range(
    d: Diagram, max_crossings: int = DEFAULT_CROSSING_CAP
) -> tuple[int, int]:
    """min/max of j over all enhanced states, found smoothing by smoothing.

    Per smoothing the extremes of j are w + i -+ (circle count), so the
    scan takes them over the (B-count, circle count) pairs of
    ``Diagram._count_histogram``, which a frontier scan tallies without
    tracing a smoothing, and touches no sign vectors; it checks the closed
    formulas of j_bounds, which trace circles.  The test suite checks the
    tally against an independent union-find count.
    """
    _check_crossing_cap(d, max_crossings)
    shift = d.writhe - d.negative_count
    loops = d.free_loops
    pairs = d._count_histogram
    return (
        shift + min(b - m for b, m in pairs) - loops,
        shift + max(b + m for b, m in pairs) + loops,
    )


def khovanov_cohomology(
    d: Diagram,
    ring: str = "Z",
    max_crossings: int = DEFAULT_CROSSING_CAP,
) -> CohomologyTable:
    """The full cohomology table.

    One pass (``_j_rows``) builds every j-row's sparse complex, and each
    row's ``cohomology`` over Z is taken on its own; the groups over
    ``ring`` follow from those (``over_ring``).  The groups over Z of the
    last diagram built stay in a one-slot memo, keyed by diagram equality,
    and its rows are dropped, so the same diagram's table over another
    ring neither builds nor reduces again; any other diagram empties the
    slot before its build.  The crossing cap is checked on every call,
    memo or not, and then planarity: on a virtual diagram a cube edge can
    take one circle to one, which no differential here maps.
    """
    global _table_slot
    _check_crossing_cap(d, max_crossings)
    _check_planar(d, "the full table, whose cube edges each merge or split circles,")
    parse_ring(ring)
    j_min, j_max = j_bounds(d)
    slot = _table_slot  # read once: the groups read are d's own
    if slot is None or slot[0] != d:
        slot = _table_slot = None  # never hold two tables at once
        rows = _j_rows(d, None, max_crossings).items()
        slot = _table_slot = (d, {j: cohomology(cc) for j, cc in rows})
    entries: dict[tuple[int, int], AbelianGroup] = {}
    for j, groups in slot[1].items():
        for i, g in over_ring(groups, ring).items():
            if not g.is_trivial:
                entries[(i, j)] = g
    return CohomologyTable(
        entries=entries, ring=ring, diagram=pd_hash(d), j_range=(j_min, j_max)
    )


# --------------------------------------------------------------------------
# Kauffman bracket / Jones polynomial (no enhanced states)
# --------------------------------------------------------------------------


def kauffman_bracket(
    d: Diagram, max_crossings: int = DEFAULT_CROSSING_CAP
) -> LaurentPoly:
    """The bracket state sum in the variable A.

    Each smoothing contributes A^sigma (-A^2 - A^-2)^(circles - 1); the
    empty diagram brackets to 1.  The smoothings come counted per
    (B-count, circle count) pair from ``Diagram._count_histogram``, the
    frontier scan's tally, so none is traced or visited one by one; they
    are grouped by circle count into one polynomial in A each, and each
    power of the loop value is formed once, by multiplying the last one.
    The test suite checks the sum against a per-state one over an
    independent union-find circle count.
    """
    _check_crossing_cap(d, max_crossings)
    c = d.crossing_count
    if c == 0 and d.free_loops == 0:
        return LaurentPoly.one()
    by_circles: dict[int, dict[int, int]] = {}  # circles -> sigma -> smoothings
    for (b, m), count in d._count_histogram.items():
        by_circles.setdefault(m + d.free_loops, {})[c - 2 * b] = count
    delta = LaurentPoly({2: -1, -2: -1})
    lo, hi = min(by_circles), max(by_circles)
    power = delta ** (lo - 1)
    total = LaurentPoly(by_circles[lo]) * power
    for m in range(lo + 1, hi + 1):
        power = power * delta
        if m in by_circles:
            total = total + LaurentPoly(by_circles[m]) * power
    return total


def jones(d: Diagram, max_crossings: int = DEFAULT_CROSSING_CAP) -> LaurentPoly:
    """Writhe-normalised bracket (-A)^(-3w) <D>, still in the variable A.

    Substituting A = t^(-1/4) turns this into the Jones polynomial V(t);
    keeping A avoids fractional exponents for links of even component count.
    """
    bracket = kauffman_bracket(d, max_crossings)
    w = d.writhe
    out = bracket.shift(-3 * w)
    return out if w % 2 == 0 else -out


def graded_jones(
    d: Diagram, max_crossings: int = DEFAULT_CROSSING_CAP
) -> LaurentPoly:
    """The bracket's prediction for sum over (i,j) of (-1)^i q^j rank.

    Summing (-1)^i q^j over all enhanced states and collecting the sign
    vectors circle by circle turns the bracket state sum into the graded
    Euler characteristic of the cohomology table: multiply the normalised
    bracket by delta = -A^2 - A^-2 and substitute q = -A^-2.  The sign in
    the substitution matters only for links with evenly many components,
    where the populated j gradings are even.
    """
    if d.crossing_count == 0 and d.free_loops == 0:
        return LaurentPoly({0: 1}, var="q")
    in_a = jones(d, max_crossings) * LaurentPoly({2: -1, -2: -1})
    out: dict[int, int] = {}
    for e, c in in_a.coeffs.items():
        if e % 2:
            raise NotAComplex("odd exponent in the normalised bracket")
        out[-e // 2] = c if (e // 2) % 2 == 0 else -c
    return LaurentPoly(out, var="q")
