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

One pass over the 2^c smoothings builds every j-row at once: enhanced
states are numbered as (B-bits, minus mask) integer pairs, each
(smoothing, A-crossing) pair is traced once for all rows, and the maps are
emitted as the sparse rows the reduction kernel takes, never as dense
matrices.  EnhancedState objects are made only where a caller asks for a
basis (``khovanov_complex``).

The Kauffman bracket and Jones polynomial live here too, computed by a
state sum that never builds enhanced states; agreement of the graded Euler
characteristic of the cohomology table with the bracket is a strong
end-to-end check.  The bracket, the j-range scan and the complex all count
and compare circles through the one tracer, ``Diagram._resolve_bits``; the
independent check on that tracer is the union-find circle count among the
test suite's oracles (``tests/conftest.py``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .diagram import A, B, Diagram, State, pd_hash
from .errors import CapExceeded, DifferentDiagram, NotAComplex
from .simplicial import (
    AbelianGroup,
    ChainComplex,
    check_square_zero,
    cohomology,
    parse_ring,
)

DEFAULT_CROSSING_CAP = 16


def _check_crossing_cap(d: Diagram, cap: int) -> None:
    if d.crossing_count > cap:
        raise CapExceeded("crossing count", cap)


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

    def scale(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e: k * c for e, c in self.coeffs.items()}, self.var)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by var**k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()}, self.var)

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def min_degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return min(self.coeffs)

    def max_degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

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
# enhanced states
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EnhancedState:
    """A smoothing state with a sign on each of its circles.

    ``signs[k]`` belongs to circle k of the canonical resolution of
    ``state``; the circle order is the one ``Diagram.resolve`` produces.
    """

    state: State
    signs: tuple[int, ...]

    def __post_init__(self):
        if any(e not in (1, -1) for e in self.signs):
            raise ValueError("circle signs must be +1 or -1")

    @property
    def tau(self) -> int:
        return sum(self.signs)


def state_i(d: Diagram, s: State | EnhancedState) -> int:
    labels = s.labels if isinstance(s, State) else s.state.labels
    if len(labels) != d.crossing_count:
        raise DifferentDiagram("state length does not match the diagram")
    sigma = labels.count(A) - labels.count(B)
    return (d.writhe - sigma) // 2


def state_j(d: Diagram, s: EnhancedState) -> int:
    return d.writhe + state_i(d, s) + s.tau


def enumerate_enhanced(
    d: Diagram, max_crossings: int = DEFAULT_CROSSING_CAP
) -> dict[tuple[int, int], tuple[EnhancedState, ...]]:
    """All enhanced states, grouped by bidegree (i, j).

    The total count is sum over states of 2^(number of circles), so this is
    only for small diagrams; the cap guards against runaway requests.
    """
    _check_crossing_cap(d, max_crossings)
    c = d.crossing_count
    w = d.writhe
    n = d.negative_count
    out: dict[tuple[int, int], list[EnhancedState]] = {}
    for bits in range(1 << c):
        state = State(tuple(B if (bits >> k) & 1 else A for k in range(c)))
        circles = d._resolve_bits(bits)
        i = bin(bits).count("1") - n
        for signs in itertools.product((1, -1), repeat=len(circles)):
            es = EnhancedState(state, signs)
            j = w + i + sum(signs)
            out.setdefault((i, j), []).append(es)
    return {key: tuple(v) for key, v in sorted(out.items())}


def _transition_sign(
    d: Diagram, s: EnhancedState, t: EnhancedState, x: int
) -> int:
    """Incidence of s -> t when t flips crossing x from A to B, else 0."""
    sc = d._resolve_bits(s.state.bits)
    tc = d._resolve_bits(t.state.bits)
    s_sign = dict(zip(sc, s.signs))
    t_sign = dict(zip(tc, t.signs))
    s_only = []
    for circ, e in s_sign.items():
        if circ in t_sign:
            if t_sign[circ] != e:
                return 0
        else:
            s_only.append(e)
    t_only = [e for circ, e in t_sign.items() if circ not in s_sign]
    if len(s_only) == 2 and len(t_only) == 1:
        e1, e2 = s_only
        if e1 == e2 == -1 or t_only[0] != e1 * e2:
            return 0
    elif len(s_only) == 1 and len(t_only) == 2:
        e = s_only[0]
        e1, e2 = t_only
        if e == -1:
            if not (e1 == e2 == -1):
                return 0
        elif e1 * e2 != -1:
            return 0
    else:
        return 0
    k = sum(1 for y in range(x + 1, d.crossing_count) if s.state.labels[y] == B)
    return -1 if k % 2 else 1


def adjacent(d: Diagram, s: EnhancedState, t: EnhancedState) -> int:
    """Matrix entry of the differential between two enhanced states."""
    for es in (s, t):
        if len(es.state.labels) != d.crossing_count:
            raise DifferentDiagram("state length does not match the diagram")
        if len(es.signs) != len(d._resolve_bits(es.state.bits)):
            raise DifferentDiagram("sign count does not match the resolution")
    if state_j(d, s) != state_j(d, t):
        return 0
    if state_i(d, t) != state_i(d, s) + 1:
        return 0
    diff = [
        x
        for x in range(d.crossing_count)
        if s.state.labels[x] != t.state.labels[x]
    ]
    if len(diff) != 1 or s.state.labels[diff[0]] != A:
        return 0
    return _transition_sign(d, s, t, diff[0])


# --------------------------------------------------------------------------
# the complex, one j-row at a time
# --------------------------------------------------------------------------


def _move(d: Diagram, bits: int, x: int) -> tuple:
    """How relabelling A-crossing x of smoothing ``bits`` to B moves circles.

    Returns (g0, g1, triples, outs).  g0 and g1 are the positions of the
    circles that leave the resolution (equal for a split).  Each
    (select, up, down) triple carries the signs of the kept circles that
    move by one distance: ``((mask & select) << up) >> down``.  ``outs[g]``
    lists the minus bits of the entering circles, g holding the leaving
    circles' minus bits (g0 as bit 0, g1 as bit 1), by the local rules of
    the module docstring.  Raises NotAComplex unless two circles merge or
    one splits.
    """
    target = {circ: k for k, circ in enumerate(d._resolve_bits(bits | 1 << x))}
    gone = []
    shifts: dict[int, int] = {}
    for k, circ in enumerate(d._resolve_bits(bits)):
        kt = target.pop(circ, None)
        if kt is None:
            gone.append(k)
        else:
            shifts[kt - k] = shifts.get(kt - k, 0) | 1 << k
    new = [1 << k for k in sorted(target.values())]
    if len(gone) == 2 and len(new) == 1:
        outs = ((0,), (new[0],), (new[0],), ())
    elif len(gone) == 1 and len(new) == 2:
        outs = ((new[1], new[0]), (), (), (new[0] | new[1],))
    else:
        raise NotAComplex(
            f"relabelling crossing {x} changed {len(gone)} circles "
            f"into {len(new)}"
        )
    triples = [(sel, max(dk, 0), max(-dk, 0)) for dk, sel in shifts.items()]
    return gone[0], gone[-1], triples, outs


def _j_rows(
    d: Diagram, only_j: int | None = None, max_crossings: int = DEFAULT_CROSSING_CAP
) -> dict[int, ChainComplex]:
    """Every j-row of the enhanced-state complex, built in one pass.

    Returns j -> fixed-j cochain complex: every row that holds a state, or
    just row ``only_j``, empty if it holds none.  Basis elements are the integer
    pairs (B-bits, mask of minus-signed circles), ordered by smoothing in
    bit order, then by minus set in lexicographic order.  Rows are sparse,
    as ChainComplex holds them, and each row is checked to square to zero.

    The smoothings are visited in bit order.  Each one numbers its states
    into their (j, i) bases, then pulls its incoming differential from the
    smoothings one B-crossing lower, which are numbered already: every
    (smoothing, A-crossing) pair is traced by ``_move`` once, for all
    rows at once, and maps source masks to target masks by bit operations.
    """
    _check_crossing_cap(d, max_crossings)
    c = d.crossing_count
    w = d.writhe
    n = d.negative_count
    bases: dict[int, dict[int, list[tuple[int, int]]]] = {}  # j -> i -> states
    into: dict[int, dict[int, list[dict]]] = {}  # j -> i -> rows of the map into i
    numbered: list[dict[int, tuple[int, dict]]] = []  # bits -> mask -> (col, row)
    for bits in range(1 << c):
        m = len(d._resolve_bits(bits))
        i = bits.bit_count() - n
        if only_j is None:
            minus_counts = range(m + 1)
        else:
            k, odd = divmod(w + i + m - only_j, 2)
            minus_counts = () if odd or not 0 <= k <= m else (k,)
        here: dict[int, tuple[int, dict]] = {}
        for k in minus_counts:
            j = w + i + m - 2 * k
            basis = bases.setdefault(j, {}).setdefault(i, [])
            rows = into.setdefault(j, {}).setdefault(i, [])
            for neg in itertools.combinations(range(m), k):
                mask = sum(1 << b for b in neg)
                row: dict[int, int] = {}
                here[mask] = (len(basis), row)
                basis.append((bits, mask))
                rows.append(row)
        numbered.append(here)
        if not here:
            continue
        after = 0  # B-crossings of bits after x
        for x in range(c - 1, -1, -1):
            if not (bits >> x) & 1:
                continue
            source = bits ^ 1 << x
            if numbered[source]:
                incidence = -1 if after % 2 else 1
                g0, g1, triples, outs = _move(d, source, x)
                for mask, (col, _) in numbered[source].items():
                    kept = 0
                    for sel, up, down in triples:
                        kept |= ((mask & sel) << up) >> down
                    for extra in outs[((mask >> g0) & 1) | ((mask >> g1) & 1) << 1]:
                        here[kept | extra][1][col] = incidence
            after += 1
    out = {}
    for j in sorted(bases) if only_j is None else (only_j,):
        row_bases = {i: tuple(b) for i, b in sorted(bases.get(j, {}).items())}
        rows = {i: tuple(into[j].get(i + 1, ())) for i in row_bases}
        check_square_zero(rows, f" in row j={j}")
        out[j] = ChainComplex(bases=row_bases, rows=rows)
    return out


def khovanov_complex(
    d: Diagram, j: int, max_crossings: int = DEFAULT_CROSSING_CAP
) -> ChainComplex:
    """The fixed-j cochain complex of enhanced states.

    Degrees run over i; the maps are sparse rows in the row-per-target
    convention of ChainComplex, verified to compose to zero.  Bases run
    over the smoothings in bit order, and within one smoothing over its
    minus-signed circle sets in lexicographic order.  The rows come from
    the one-pass builder ``_j_rows`` restricted to j; only the bases are
    turned into EnhancedState objects here.
    """
    cc = _j_rows(d, j, max_crossings)[j]
    c = d.crossing_count
    bases = {}
    for i, states in cc.bases.items():
        enhanced = []
        for bits, mask in states:
            state = State(tuple(B if (bits >> k) & 1 else A for k in range(c)))
            m = len(d._resolve_bits(bits))
            signs = tuple(-1 if (mask >> k) & 1 else 1 for k in range(m))
            enhanced.append(EnhancedState(state, signs))
        bases[i] = tuple(enhanced)
    return ChainComplex(bases=bases, rows=cc.rows)


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
    may not survive to cohomology.
    """
    c = d.crossing_count
    n = d.negative_count
    p = d.positive_count
    s_a = len(d._resolve_bits(0))
    s_b = len(d._resolve_bits((1 << c) - 1))
    return c - 3 * n - s_a, -c + 3 * p + s_b


def scanned_j_range(
    d: Diagram, max_crossings: int = DEFAULT_CROSSING_CAP
) -> tuple[int, int]:
    """min/max of j over all enhanced states, found state by state.

    Per state the extremes of j are w + i -+ (circle count), so the scan
    touches every smoothing but no sign vectors; it checks the closed
    formulas of j_bounds.  Circles are counted by the one tracer,
    ``Diagram._resolve_bits``, which the test suite checks against an
    independent union-find count.
    """
    _check_crossing_cap(d, max_crossings)
    w = d.writhe
    n = d.negative_count
    lo = None
    hi = None
    for bits in range(1 << d.crossing_count):
        m = len(d._resolve_bits(bits))
        i = bits.bit_count() - n
        a, b = w + i - m, w + i + m
        lo = a if lo is None or a < lo else lo
        hi = b if hi is None or b > hi else hi
    return lo, hi


def khovanov_cohomology(
    d: Diagram,
    ring: str = "Z",
    max_crossings: int = DEFAULT_CROSSING_CAP,
) -> CohomologyTable:
    """The full cohomology table.

    One pass (``_j_rows``) builds every j-row's sparse complex, and each
    row is then reduced on its own.
    """
    _check_crossing_cap(d, max_crossings)
    parse_ring(ring)
    j_min, j_max = j_bounds(d)
    entries: dict[tuple[int, int], AbelianGroup] = {}
    for j, cc in _j_rows(d, None, max_crossings).items():
        for i, g in cohomology(cc, ring).items():
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
    empty diagram brackets to 1.  The smoothings are counted per
    (sigma, circles - 1) pair, with circles from the one tracer
    ``Diagram._resolve_bits``, and each pair costs one Laurent power.  The
    test suite checks the sum against a per-state one over an independent
    union-find circle count.
    """
    _check_crossing_cap(d, max_crossings)
    c = d.crossing_count
    if c == 0 and d.free_loops == 0:
        return LaurentPoly.one()
    counts: dict[tuple[int, int], int] = {}
    for bits in range(1 << c):
        key = (c - 2 * bits.bit_count(), len(d._resolve_bits(bits)) - 1)
        counts[key] = counts.get(key, 0) + 1
    delta = LaurentPoly({2: -1, -2: -1})
    total = LaurentPoly()
    for (sigma, k), count in counts.items():
        total = total + (delta**k).shift(sigma).scale(count)
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
