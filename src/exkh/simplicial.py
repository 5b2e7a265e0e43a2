"""Abstract simplicial complexes and exact integer (co)homology.

A complex is its ordered ground set and its faces, held as int bitmasks
over ground positions (bit k is ground[k]), one tuple per size, with its
maximal faces beside them.  The faces are enumerated once, when the complex
is built, under the face cap of whoever builds it; reading them takes no
cap.  Two degenerate complexes are kept distinct: the *void* complex has
no faces at all, while the *empty* complex has the single face {}.  All
homology here is reduced, computed from the augmented (co)chain complex in
which the empty face generates degree -1; with that convention the empty
complex has one unit of (co)homology in degree -1 and combinatorial
Alexander duality

    H~_i(X)  ~=  H~^{n-i-3}(dual(X)),        n = |ground|,

holds on the nose in every degree, void and empty cases included.

How complexes are built.  Independence complexes, Jonsson complexes, the
duals of Jonsson complexes (read straight off the neighbourhoods) and
Alexander duals are families closed under subsets, and one enumerator
builds them all, one size at a time: it extends each face of the last
size, in order, by later vertices of the ground order while a
per-construction test admits them, so each size comes out in
lexicographic order, and past the face cap it raises CapExceeded naming
its stage.  Each test reads only the face and the vertex, against masks
fixed before the enumeration starts; a graph's are its own neighbour
masks (``Graph.nbrs``), renumbered along the chosen side V for the
Jonsson complexes.  The same pass checks that every
facet of a face was built and finds the maximal faces, those that are a
facet of no larger face.  No complex is built from a list of faces: a
join of independence complexes is the independence complex of the
disjoint union of the graphs, Ind(G + H) = Ind(G) * Ind(H).

Cochain conventions.  Faces of each degree are ordered lexicographically by
ground position.  The coboundary of a face s is

    delta(s) = sum over v with s+{v} a face of (-1)^k (s+{v}),

k being the number of vertices of s that come after v in the ground order.
A map is held as sparse rows, target by source: delta_i has one
{column: value} dict per (i+1)-face g, read off the boundary of g, where
dropping its k-th vertex (g ^ bit for the k-th set bit of g's mask) gives
the entry (-1)^(|g|-1-k).  No zero is ever
stored; a dense matrix exists only as a view for printing and for tests.
Boundaries are the transposes, whence homology and cohomology share free
ranks while torsion shifts one degree, as usual.

Integer linear algebra is exact and goes through one sparse elimination
kernel, over Z.  Rows are kept as {column: value}.  Rows holding a lone
unit clear their columns by deletion alone, taken lowest first from a
heap of their own before any longer row; then the pivot is a unit in a
short row, taken from a heap keyed lazily by row length, at the unit
whose column is sparsest.  The few rows left without a unit form a small
dense core, which least-entry pivoting diagonalises; only
``AbelianGroup.from_orders`` makes divisibility chains.
A complex is reduced degree by degree, lowest first, and each unit pivot
of d_{i-1} cancels its row's basis element from the source of d_i as
well: by Gaussian elimination on the complex (Bar-Natan, "Fast Khovanov
homology computations", Lemma 4.2) the rest of d_i is unchanged, so those
columns are left out of d_i.  Only unit pivots are cancelled, so this is
exact over Z.  A simplicial complex's maps are built one at a time, each
only after the map below it is reduced, straight from the face masks and
without the cancelled faces' columns (``cohomology_of``); a given
``ChainComplex`` has its rows copied without them (``cohomology``).  All
of these answer over Z and take no ring: a complex of free modules has its
groups over Q and F_p fixed by those, by the universal coefficient theorem,
so each public route reads its ring off once, at the end (``over_ring``).
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from math import gcd
from typing import Callable, Hashable, Iterable, Sequence

from .errors import CapExceeded, EmptyPartW, NotAComplex, NotBipartition
from .lando import Graph, _bits, _squeeze

DEFAULT_FACE_CAP = 1 << 22

Row = dict  # {column: nonzero int}


# --------------------------------------------------------------------------
# finitely generated abelian groups
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """Z^rank plus cyclic torsion with an ascending divisibility chain."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0 or any(t < 2 for t in self.torsion):
            raise ValueError("rank must be >= 0 and torsion orders >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion chain not divisible: {self.torsion}")

    @staticmethod
    def from_orders(rank: int, orders: Iterable[int]) -> "AbelianGroup":
        """Normalise a direct sum of cyclic groups of the given orders.

        Order 0 is a free summand, order 1 is nothing, and an order counts
        by its absolute value.  Z/a + Z/b ~= Z/gcd(a,b) + Z/lcm(a,b), so
        merging each order into the chain from the left keeps it divisible.
        """
        chain: list[int] = []
        for n in map(abs, orders):
            if n == 0:
                rank += 1
            elif n > 1:
                for k, t in enumerate(chain):
                    g = gcd(t, n)
                    chain[k], n = g, t // g * n
                chain.append(n)
        return AbelianGroup(rank, tuple(t for t in chain if t > 1))

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup.from_orders(
            self.rank + other.rank, self.torsion + other.torsion
        )

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def to_text(self, ring: str = "Z") -> str:
        """The group as a sum of copies of the ring it is over."""
        parts = []
        if self.rank == 1:
            parts.append(ring)
        elif self.rank > 1:
            parts.append(f"{ring}^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.to_text()


def tensor_group(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    orders = []
    orders.extend([d] * b.rank for d in a.torsion)
    orders.extend([e] * a.rank for e in b.torsion)
    flat = [x for chunk in orders for x in chunk]
    flat.extend(gcd(d, e) for d in a.torsion for e in b.torsion)
    return AbelianGroup.from_orders(a.rank * b.rank, flat)


def tor_group(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    return AbelianGroup.from_orders(
        0, (gcd(d, e) for d in a.torsion for e in b.torsion)
    )


# --------------------------------------------------------------------------
# smith normal form
# --------------------------------------------------------------------------


def _snf_dense(m: list[list[int]]) -> list[int]:
    """The invariant factors of a dense integer matrix, which is consumed.

    The pivot is an entry of least absolute value.  Alone in its row and
    column it is a diagonal entry, whose row and column go; otherwise row
    and column operations reduce its column and row by floor division, and
    any remainder is a smaller entry.  ``AbelianGroup.from_orders`` chains
    the diagonal: ascending, ones first, one factor per unit of rank.
    """
    if not m or not m[0]:
        return []
    diagonal = []
    while True:
        nonzero = [
            (abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v
        ]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        if sum(r == i or c == j for _, r, c in nonzero) == 1:
            diagonal.append(m.pop(i)[j])
            for row in m:
                del row[j]
            continue
        piv_row = m[i]
        piv = piv_row[j]
        for row in m:
            q = row[j] // piv
            if q and row is not piv_row:
                for c, v in enumerate(piv_row):
                    row[c] -= q * v
        for c, v in enumerate(piv_row):
            q = v // piv
            if q and c != j:
                for row in m:
                    row[c] -= q * row[j]
    torsion = AbelianGroup.from_orders(0, diagonal).torsion
    return [1] * (len(diagonal) - len(torsion)) + list(torsion)


def _eliminate(rows: list[dict[int, int]]) -> tuple[list[int], list[list[int]]]:
    """Pivot on the units of a sparse integer matrix until none is left.

    ``rows`` holds the nonzero entries of each row as ``{col: value}``;
    they are consumed.  Rows with one entry wait in a heap of bare row
    indices, and all of them are taken, lowest index first, before any
    longer row: a lone unit clears its column by deleting that entry from
    every other row, with no multiply, and a lone non-unit is set aside.
    That order picks which rows, so which basis elements, are cancelled.

    When the lone heap first runs dry, the live rows with two or more
    entries go on a heap keyed by length, and the pivot is taken in the
    row popped, at its unit whose column has the fewest entries.  Keys are
    lazy: a row that shrank keeps its old key, so the pivot row is short
    but not always the shortest.  A row that drops to one entry goes on
    the lone heap, emptied again before the next pop; a row goes back on
    the length heap only when it is popped with a key shorter than its
    length (it grew by fill), or when a pivot changes it after it was set
    aside for holding no unit.  Returns the indices of the pivot rows, one
    per unit pivot, and the dense residual with no unit entry left.
    """
    live = {i: r for i, r in enumerate(rows) if r}
    cols: dict[int, set[int]] = {}
    for i, r in live.items():
        for j in r:
            col = cols.get(j)
            if col is None:
                cols[j] = {i}
            else:
                col.add(i)
    lone = [i for i, r in live.items() if len(r) == 1]  # ascending: a heap
    heap: list[tuple[int, int]] | None = None  # (length, row), built late
    aside: set[int] = set()  # rows popped without a unit; only fill can give one
    pivots = []
    while True:
        while lone:
            i = heapq.heappop(lone)
            piv_row = live.get(i)
            if piv_row is None:
                continue
            ((j, v),) = piv_row.items()
            if v not in (1, -1):
                aside.add(i)  # it comes back if a pivot changes it
                continue
            del live[i]
            pivots.append(i)
            col = cols.pop(j)
            col.discard(i)
            for ii in col:
                row = live[ii]
                del row[j]
                if not row:
                    del live[ii]
                elif len(row) == 1:
                    heapq.heappush(lone, ii)
        if heap is None:
            heap = [(len(r), i) for i, r in live.items() if len(r) > 1]
            heapq.heapify(heap)
        if not heap:
            break
        key, i = heapq.heappop(heap)
        piv_row = live.get(i)
        if piv_row is None or i in aside:
            continue
        if key < len(piv_row):
            heapq.heappush(heap, (len(piv_row), i))
            continue
        unit_cols = [jj for jj, vv in piv_row.items() if vv in (1, -1)]
        if not unit_cols:
            aside.add(i)
            continue
        del live[i]
        pivots.append(i)
        for jj in piv_row:
            cols[jj].discard(i)
        j = min(unit_cols, key=lambda jj: len(cols[jj]))
        v = piv_row[j]
        for ii in cols.pop(j):
            row = live[ii]
            q = row[j] * v  # a unit of Z is its own inverse
            for jj, pv in piv_row.items():
                new = row.get(jj, 0) - q * pv
                if new:
                    if jj not in row:
                        cols[jj].add(ii)
                    row[jj] = new
                else:
                    del row[jj]
                    if jj != j:
                        cols[jj].discard(ii)
            if not row:
                del live[ii]
            elif len(row) == 1:
                heapq.heappush(lone, ii)
            elif ii in aside:
                aside.discard(ii)
                heapq.heappush(heap, (len(row), ii))
    live_cols = sorted({j for r in live.values() for j in r})
    dense = [[r.get(j, 0) for j in live_cols] for _, r in sorted(live.items())]
    return pivots, dense


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors and rank of a dense integer matrix.

    The factors come back as the full ascending divisibility chain, ones
    included, so ``len(factors) == rank``.
    """
    pivots, residual = _eliminate(
        [{j: v for j, v in enumerate(row) if v} for row in matrix]
    )
    factors = (1,) * len(pivots) + tuple(_snf_dense(residual))
    return factors, len(factors)


def integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    return smith_normal_form(matrix)[1]


def rank_mod_p(matrix: Sequence[Sequence[int]], p: int) -> int:
    """The rank over F_p: the invariant factors that p does not divide."""
    return sum(f % p != 0 for f in smith_normal_form(matrix)[0])


# --------------------------------------------------------------------------
# rings
# --------------------------------------------------------------------------


# Miller-Rabin to these bases is exact below the bound (Sorenson and Webster 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= p < ``_WITNESS_BOUND``."""
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * odd
    for a in _WITNESSES:
        x = pow(a, (p - 1) >> s, p)
        if a != p and x != 1 and p - 1 not in (pow(x, 1 << k, p) for k in range(s)):
            return False
    return True


def parse_ring(ring: str) -> tuple[str, int | None]:
    """Validate a coefficient ring name: 'Z', 'Q' or 'F<p>' with p prime,
    written in ASCII digits with no leading zero, below ``_WITNESS_BOUND``."""
    if ring in ("Z", "Q"):
        return ring, None
    digits = ring[1:]
    if ring[:1] == "F" and digits.isascii() and digits.isdigit() and digits[0] != "0":
        p = int(digits)
        if 2 <= p < _WITNESS_BOUND and _is_prime(p):
            return "F", p
    raise ValueError(f"unknown coefficient ring {ring!r} (use Z, Q or Fp)")


# --------------------------------------------------------------------------
# chain complexes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainComplex:
    """A finite cochain complex of free modules with chosen bases.

    ``rows[d]`` is the map from degree d to d+1 as sparse rows, one
    ``{col: value}`` dict per degree-(d+1) basis element, with columns
    indexing the degree-d basis and no zero values.
    """

    bases: dict[int, tuple]
    rows: dict[int, tuple[Row, ...]]

    def dim(self, degree: int) -> int:
        return len(self.bases.get(degree, ()))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.bases))

    @property
    def matrices(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """Dense row-tuple view of every map, built afresh on each read."""
        out = {}
        for d, rows in self.rows.items():
            dense = []
            for r in rows:
                row = [0] * self.dim(d)
                for k, v in r.items():
                    row[k] = v
                dense.append(tuple(row))
            out[d] = tuple(dense)
        return out


def check_square_zero(rows: dict[int, Sequence[Row]], where: str = "") -> None:
    """Raise NotAComplex unless consecutive maps compose to zero.

    ``rows[d]`` holds the sparse rows of the map leaving degree d, as in
    ChainComplex; ``where`` is added to the error message.
    """
    for d, inner in rows.items():
        outer = rows.get(d + 1)
        if outer is None:
            continue
        for row in outer:
            acc: dict[int, int] = {}
            for mid, val in row.items():
                for col, val2 in inner[mid].items():
                    acc[col] = acc.get(col, 0) + val * val2
            if any(acc.values()):
                raise NotAComplex(f"maps do not square to zero{where} at degree {d}")


def cohomology(cc: ChainComplex) -> dict[int, AbelianGroup]:
    """Cohomology groups of a cochain complex over Z.

    Each map goes to ``_reduce`` as a copy of its rows without the columns
    of the basis elements the map below it cancelled, made only once that
    map is reduced; ``cc`` is left as it was.
    """
    return _reduce(
        {d: cc.dim(d) for d in cc.degrees},
        sorted(cc.rows),
        lambda d, drop: [
            {k: v for k, v in r.items() if k not in drop} for r in cc.rows[d]
        ],
    )


def _reduce(
    dims: dict[int, int],
    maps: Iterable[int],
    rows_out: Callable[[int, set[int]], list[Row]],
) -> dict[int, AbelianGroup]:
    """The cohomology over Z of a complex with ``dims[d]`` basis elements
    in degree d, reduced one map at a time.

    ``maps`` are the degrees whose map leaves them, ascending, and
    ``rows_out(d, drop)`` builds the rows of the map out of degree d, for
    ``_eliminate`` to consume, leaving out the columns in ``drop``: the
    degree-d basis elements whose rows held a unit pivot of d_{d-1}, which
    are cancelled.  So a map's rows are built only once the map below it is
    reduced.  ``_eliminate`` clears lone units lowest row first, ahead of
    its length heap, and that order sets which columns go.  A map's rank is
    its unit pivots plus the invariant factors of the residual they leave,
    whose factors above 1 are the torsion one degree up.
    """
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}  # degree -> its torsion orders
    cancelled: dict[int, set[int]] = {}  # degree -> its basis indices cancelled
    for d in maps:
        pivots, residual = _eliminate(rows_out(d, cancelled.pop(d, set())))
        cancelled[d + 1] = set(pivots)
        factors = _snf_dense(residual)
        ranks[d] = len(pivots) + len(factors)
        torsion[d + 1] = tuple(t for t in factors if t > 1)
    groups = {}
    for d, dim in dims.items():
        free = dim - ranks.get(d, 0) - ranks.get(d - 1, 0)
        groups[d] = AbelianGroup(free, torsion.get(d, ()))
    return groups


def over_ring(groups: dict[int, AbelianGroup], ring: str) -> dict[int, AbelianGroup]:
    """The cohomology over ``ring`` of a complex of free modules whose
    cohomology over Z is ``groups``; Z groups come back as they are.

    By the universal coefficient theorem H^i(C; F_p) is H^i(C) (x) F_p plus
    Tor(H^{i+1}(C), F_p), so each torsion order that p divides, in degree
    i or i+1, adds one to the rank in degree i; over Q only the ranks stay.
    A degree missing from ``groups`` is zero over Z but takes that rank too.
    """
    kind, p = parse_ring(ring)
    if kind == "Z":
        return groups
    ranks = {d: g.rank for d, g in groups.items()}
    for d, g in groups.items():
        if p is not None and (lost := sum(t % p == 0 for t in g.torsion)):
            ranks[d] += lost
            ranks[d - 1] = ranks.get(d - 1, 0) + lost
    return {d: AbelianGroup(r) for d, r in ranks.items()}


def shift_torsion(
    groups: dict[int, AbelianGroup], step: int
) -> dict[int, AbelianGroup]:
    """Move every torsion summand ``step`` degrees, free ranks staying put.

    Cohomology and homology of one complex differ exactly so: step -1 turns
    cohomology into homology, step +1 turns it back.
    """
    degrees = set(groups) | {d + step for d, g in groups.items() if g.torsion}
    zero = AbelianGroup(0)
    return {
        d: AbelianGroup(groups.get(d, zero).rank, groups.get(d - step, zero).torsion)
        for d in degrees
    }


# --------------------------------------------------------------------------
# simplicial complexes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex with ordered ground set.

    ``levels[s]`` holds the faces of size s as int bitmasks over ground
    positions (bit k is ground[k]), in lexicographic order, and ``tops``
    holds the maximal faces, by size and then lexicographically.  No levels
    is the void complex; ``levels == ((0,),)`` is the empty complex whose
    only face is the empty face.  Every complex but the void one comes out
    of ``_closed_family``, once, under the cap of whoever builds it.
    """

    ground: tuple[Hashable, ...]
    levels: tuple[tuple[int, ...], ...]
    tops: tuple[int, ...]

    # ---- constructors ----

    @staticmethod
    def void(ground: Iterable = ()) -> "SimplicialComplex":
        return SimplicialComplex(_ground(ground), (), ())

    # ---- basic queries ----

    @property
    def maximal(self) -> frozenset:
        """The maximal faces as frozensets of ground vertices, made on each read."""
        return frozenset(frozenset(_vertices(self.ground, m)) for m in self.tops)

    @property
    def is_void(self) -> bool:
        return not self.levels

    @property
    def dimension(self) -> int | None:
        return len(self.levels) - 2 if self.levels else None

    def faces(self) -> tuple[tuple, ...]:
        """Every face as a tuple of ground vertices, ordered by dimension
        then lexicographically, as the cochain bases are."""
        return tuple(itertools.chain(*_named(self.ground, self.levels)))

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f_-1, f_0, ..., f_dim); (0,) for the void complex."""
        return tuple(map(len, self.levels)) or (0,)

    # ---- serialisation ----

    def to_json(self) -> str:
        return json.dumps(
            {
                "ground": list(self.ground),
                "maximal_faces": [_vertices(self.ground, m) for m in self.tops],
            }
        )


def coboundary_complex(x: SimplicialComplex) -> ChainComplex:
    """The reduced simplicial cochain complex of x with lex-ordered bases,
    read off x's face masks in the order they were enumerated."""
    levels = x.levels
    bases = {d - 1: fs for d, fs in enumerate(_named(x.ground, levels))}
    rows = {
        d - 1: tuple(_coboundary_rows(levels[d], levels[d + 1], ()))
        for d in range(len(levels) - 1)
    }
    return ChainComplex(bases=bases, rows=rows)


def _coboundary_rows(
    source: Sequence[int], target: Sequence[int], drop: Iterable[int]
) -> list[Row]:
    """The coboundary from the faces ``source`` to those one size up,
    ``target``, as one row per target face, its columns indexing
    ``source``; the columns in ``drop`` are left out, never built."""
    index = dict(zip(source, range(len(source))))
    for k in drop:
        del index[source[k]]
    rows = []
    for g in target:
        # dropping the lowest vertex leaves |g| - 1 vertices after it
        sign = 1 if g.bit_count() & 1 else -1
        row = {}
        rest = g
        while rest:
            bit = rest & -rest
            k = index.get(g ^ bit)
            if k is not None:
                row[k] = sign
            sign = -sign
            rest ^= bit
        rows.append(row)
    return rows


def homology(x: SimplicialComplex) -> dict[int, AbelianGroup]:
    """Reduced simplicial homology of a complex, over Z.

    Boundary matrices are the transposes of the coboundaries, so free ranks
    match the cohomology of the same degree and torsion sits one lower.
    """
    return shift_torsion(cohomology_of(x), -1)


def cohomology_of(x: SimplicialComplex) -> dict[int, AbelianGroup]:
    """Reduced simplicial cohomology of a complex, over Z.

    The rows of the map out of each degree are built straight from the
    face masks, and only after the map below it is reduced, leaving out the
    faces that map cancelled: no face is named and no ``ChainComplex`` is
    made, and one map's rows at most are alive at a time.
    """
    levels = x.levels
    return _reduce(
        {d - 1: len(level) for d, level in enumerate(levels)},
        range(-1, len(levels) - 2),
        lambda d, drop: _coboundary_rows(levels[d + 1], levels[d + 2], drop),
    )


# --------------------------------------------------------------------------
# complex constructions
# --------------------------------------------------------------------------


def _ground(vertices: Iterable) -> tuple:
    """The vertices as a ground tuple; a repeated vertex raises ValueError."""
    ground = tuple(vertices)
    if len(set(ground)) != len(ground):
        raise ValueError("duplicate ground vertices")
    return ground


def _vertices(ground: Sequence, mask: int) -> list:
    return [v for k, v in enumerate(ground) if mask >> k & 1]


def _named(ground: Sequence, levels: Sequence[Sequence[int]]) -> list[tuple[tuple, ...]]:
    """Each level of face masks as tuples of ground vertices, in order.

    A face is its parent, the face without its top vertex, plus that vertex.
    """
    out = []
    names: dict[int, tuple] = {}
    for level in levels:
        parents, names = names, {}
        for g in level:
            top = g.bit_length() - 1
            names[g] = parents[g ^ 1 << top] + (ground[top],) if g else ()
        out.append(tuple(names.values()))
    return out


def _closed_family(
    ground: Sequence,
    admits: Callable[[int, int], bool],
    cap: int,
    stage: str,
) -> SimplicialComplex:
    """The complex of faces reached from {} by admitted one-vertex steps.

    Faces are bitmasks over ground positions, built one size at a time:
    each face f of the last size, in order, grows by each later position k,
    ascending, for which ``admits(f, k)`` holds.  So each face is built
    once and each size comes out in lexicographic order.  The cap counts
    faces as they are built, the empty face included; face ``cap + 1``
    raises CapExceeded naming ``stage``.  ``admits`` must describe a family
    closed under subsets: a face with a facet missing one size down raises
    NotAComplex, and a face that is a facet of no face one size up is
    maximal.  A repeated ground vertex raises ValueError.
    """
    ground = _ground(ground)
    n = len(ground)
    count = 1  # the empty face
    if count > cap:
        raise CapExceeded(stage, cap)
    levels = [(0,)]
    maximal = []
    while True:
        below = levels[-1]
        level = []
        for f in below:
            for k in range(f.bit_length(), n):
                if admits(f, k):
                    count += 1
                    if count > cap:
                        raise CapExceeded(stage, cap)
                    level.append(f | 1 << k)
        facets = set()
        for g in level:
            rest = g
            while rest:
                bit = rest & -rest
                facets.add(g ^ bit)
                rest ^= bit
        missing = facets.difference(below)
        if missing:
            raise NotAComplex(f"{_vertices(ground, min(missing))} missing under a face")
        maximal.extend(f for f in below if f not in facets)
        if not level:
            break
        levels.append(tuple(level))
    return SimplicialComplex(ground, tuple(levels), tuple(maximal))


def independence_complex(g: Graph, cap: int = DEFAULT_FACE_CAP) -> SimplicialComplex:
    """The complex of independent vertex sets of a graph."""
    adj = g.nbrs
    return _closed_family(
        g.vertices, lambda f, k: not adj[k] & f, cap, "independent set enumeration"
    )


def alexander_dual(
    x: SimplicialComplex, cap: int = DEFAULT_FACE_CAP
) -> SimplicialComplex:
    """Faces of the dual are complements of non-faces of x, same ground."""
    full = (1 << len(x.ground)) - 1
    tops = x.tops
    if full in tops:
        return SimplicialComplex.void(x.ground)
    # f + {v} is a face when its complement lies in no maximal face of x
    return _closed_family(
        x.ground,
        lambda f, k: not any(m | full ^ f ^ 1 << k == m for m in tops),
        cap,
        "dual face enumeration",
    )


def join_homology(
    hx: dict[int, AbelianGroup], hy: dict[int, AbelianGroup]
) -> dict[int, AbelianGroup]:
    """Reduced homology of a join from the factors' reduced homology.

    H~_i(X * Y) = sum over r+s=i-1 of H~_r(X) (x) H~_s(Y)
                plus sum over r+s=i-2 of Tor(H~_r(X), H~_s(Y)).

    A trivial group on either side adds nothing, so only pairs of nonzero
    groups are multiplied, and Tor only of two torsion parts.
    """
    out: dict[int, AbelianGroup] = {}

    def add(i: int, g: AbelianGroup) -> None:
        if g.is_trivial:
            return
        out[i] = out[i].direct_sum(g) if i in out else g

    ys = [(s, b) for s, b in hy.items() if not b.is_trivial]
    for r, a in hx.items():
        if a.is_trivial:
            continue
        for s, b in ys:
            add(r + s + 1, tensor_group(a, b))
            if a.torsion and b.torsion:
                add(r + s + 2, tor_group(a, b))
    return out


def _bipartition(g: Graph, part_v: Iterable) -> tuple[int, int]:
    """The chosen side V and the other side W, as masks over the graph's
    vertex positions.

    Raises NotBipartition unless every edge crosses between V and W, and
    EmptyPartW when W is empty.
    """
    v_set = set(part_v)
    if not v_set <= set(g.vertices):
        raise NotBipartition("chosen part contains unknown vertices")
    v_mask = sum(1 << k for k, v in enumerate(g.vertices) if v in v_set)
    w_mask = (1 << len(g.vertices)) - 1 ^ v_mask
    for k, m in enumerate(g.nbrs):
        inside = m & (v_mask if v_mask >> k & 1 else w_mask)
        if inside:
            e = (g.vertices[k], g.vertices[_bits(inside)[0]])
            raise NotBipartition(f"edge {sorted(e, key=repr)} does not cross the partition")
    if not w_mask:
        raise EmptyPartW("the complementary part of the bipartition is empty")
    return v_mask, w_mask


def jonsson_complex(
    g: Graph, part_v: Iterable, cap: int = DEFAULT_FACE_CAP
) -> SimplicialComplex:
    """Jonsson's complex of a bipartite graph with a chosen side.

    Faces are the subsets of the chosen side all of whose vertices avoid the
    neighbourhood of at least one vertex of the other side.  Its suspension
    is homotopy equivalent to the independence complex of the graph.
    """
    v_mask, w_mask = _bipartition(g, part_v)
    # N(w) for w in W, renumbered along V
    hoods = _squeeze(map(g.nbrs.__getitem__, _bits(w_mask)), v_mask)
    # f + {v} is a face when the neighbourhood of some w of the other side
    # misses both
    return _closed_family(
        _vertices(g.vertices, v_mask),
        lambda f, k: any(not h & (f | 1 << k) for h in hoods),
        cap,
        "Jonsson face enumeration",
    )


def jonsson_dual(
    g: Graph, part_v: Iterable, cap: int = DEFAULT_FACE_CAP
) -> SimplicialComplex:
    """The Alexander dual of ``jonsson_complex(g, part_v)``, built directly.

    The Jonsson complex has maximal faces V - N(w), so a subset of V is a
    face of its dual exactly when it contains no neighbourhood N(w), w in
    W.  This is Y_D for a Lando graph.  It is void when some N(w) is empty,
    and otherwise grows without ever listing a Jonsson face.
    """
    v_mask, w_mask = _bipartition(g, part_v)
    nbrs, v_side = g.nbrs, _vertices(g.vertices, v_mask)
    w_side = _bits(w_mask)
    if not all(nbrs[w] for w in w_side):
        return SimplicialComplex.void(v_side)
    # f + {v} is a face unless it swallows N(w) for some w next to v; N(w)
    # is renumbered along V
    hood = dict(zip(w_side, _squeeze(map(nbrs.__getitem__, w_side), v_mask)))
    rest = [[hood[w] ^ 1 << k for w in _bits(nbrs[v])] for k, v in enumerate(_bits(v_mask))]

    def admits(f: int, k: int) -> bool:
        for r in rest[k]:
            if r & f == r:
                return False
        return True

    return _closed_family(v_side, admits, cap, "Y_D face enumeration")
