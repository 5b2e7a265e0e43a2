"""Abstract simplicial complexes and exact integer (co)homology.

Complexes are stored by ground set and maximal faces; the full face list is
expanded on demand under a cap.  Two degenerate complexes are kept distinct:
the *void* complex has no faces at all, while the *empty* complex has the
single face {}.  All homology here is reduced, computed from the augmented
(co)chain complex in which the empty face generates degree -1; with that
convention the empty complex has one unit of (co)homology in degree -1 and
combinatorial Alexander duality

    H~_i(X)  ~=  H~^{n-i-3}(dual(X)),        n = |ground|,

holds on the nose in every degree, void and empty cases included.

How complexes are built.  Independence complexes, Jonsson complexes, the
duals of Jonsson complexes (read straight off the neighbourhoods) and
Alexander duals are families closed under subsets, and one enumerator
builds them all: it grows each face by later vertices of the ground order
while a per-construction test admits them, and past the face cap it raises
CapExceeded naming its stage.  In such a family a face is maximal exactly
when no one-vertex extension of it is a face, so no pairwise comparison of
faces is needed.

Cochain conventions.  Faces of each degree are ordered lexicographically by
ground position.  The coboundary of a face s is

    delta(s) = sum over v with s+{v} a face of (-1)^k (s+{v}),

k being the number of vertices of s that come after v in the ground order.
A map is held as sparse rows, target by source: delta_i has one
{column: value} dict per (i+1)-face g, read off the boundary of g, where
dropping its k-th vertex gives the entry (-1)^(|g|-1-k).  No zero is ever
stored; a dense matrix exists only as a view for printing and for tests.
Boundaries are the transposes, whence homology and cohomology share free
ranks while torsion shifts one degree, as usual.

Integer linear algebra is exact and goes through one sparse elimination
kernel, over Z or over F_p.  Rows are kept as {column: value}; the pivot is
a unit in the shortest row that still holds one, taken from a heap keyed by
row length, at the unit whose column is sparsest.  Over F_p every nonzero
entry is a unit, so the kernel alone gives the rank.  Over Z the few rows
left without a unit form a small dense core, which gcd pivoting takes to
Smith normal form.  A complex is reduced degree by degree, lowest first,
and each unit pivot of d_{i-1} cancels its row's basis element from the
source of d_i as well: by Gaussian elimination on the complex (Bar-Natan,
"Fast Khovanov homology computations", Lemma 4.2) the rest of d_i is
unchanged, so those columns are dropped before d_i is reduced.  Only unit
pivots are cancelled, so this is exact over Z.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from math import gcd
from typing import Callable, Hashable, Iterable, Sequence

from .errors import CapExceeded, EmptyPartW, NotAComplex, NotBipartition
from .lando import Graph

DEFAULT_FACE_CAP = 1 << 22

Face = frozenset
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

        The Smith normal form of the diagonal matrix of orders is the
        divisibility chain; order 0 is a free summand, order 1 is nothing.
        """
        orders = list(orders)
        diagonal = [[0] * len(orders) for _ in orders]
        for i, n in enumerate(orders):
            diagonal[i][i] = n
        chain = _snf_dense(diagonal)
        return AbelianGroup(
            rank + len(orders) - len(chain), tuple(t for t in chain if t > 1)
        )

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
    """Diagonal entries of an integer SNF, an ascending divisibility chain.

    Each pivot is made to divide the whole remaining submatrix before the
    next one is taken, so no factoring or pairwise repair is needed after.
    """
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    out = []
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            row = m[i]
            for j in range(t, cols):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        m[t], m[i] = m[i], m[t]
        if j != t:
            for row in m:
                row[t], row[j] = row[j], row[t]
        while True:
            # Clear the pivot column, shrinking the pivot on any remainder.
            restart = False
            for i in range(t + 1, rows):
                v = m[i][t]
                if not v:
                    continue
                q = v // m[t][t]
                if q:
                    piv_row = m[t]
                    row = m[i]
                    for j in range(t, cols):
                        row[j] -= q * piv_row[j]
                if m[i][t]:
                    m[t], m[i] = m[i], m[t]
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, cols):
                v = m[t][j]
                if not v:
                    continue
                q = v // m[t][t]
                if q:
                    for row in m:
                        row[j] -= q * row[t]
                if m[t][j]:
                    for row in m:
                        row[t], row[j] = row[j], row[t]
                    restart = True
                    break
            if restart:
                continue
            # Pivot now alone in its row and column; enforce divisibility.
            piv = m[t][t]
            offender = None
            for i in range(t + 1, rows):
                row = m[i]
                for j in range(t + 1, cols):
                    if row[j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, cols):
                m[t][j] += m[offender][j]
        out.append(abs(m[t][t]))
        t += 1
        if t == rows or t == cols:
            break
    return out


def _eliminate(
    rows: list[dict[int, int]], p: int | None = None
) -> tuple[list[int], list[list[int]]]:
    """Pivot on units of a sparse matrix until none is left.

    ``rows`` holds the nonzero entries of each row as ``{col: value}``,
    reduced mod ``p`` when a prime is given; they are consumed.  The pivot
    is always taken in the shortest live row that holds a unit, at the unit
    whose column has the fewest entries.  Rows wait in a heap keyed by
    length and go back in only when a pivot modifies them.  Returns the
    indices of the pivot rows, one per unit pivot, and the dense residual
    with no unit entry left; over F_p every nonzero residue is a unit, so
    that residual is empty.
    """
    live = {i: r for i, r in enumerate(rows) if r}
    cols: dict[int, set[int]] = {}
    for i, r in live.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in live.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, i = heapq.heappop(heap)
        piv_row = live.get(i)
        if piv_row is None or len(piv_row) != length:
            continue
        unit_cols = [jj for jj, vv in piv_row.items() if p is not None or vv in (1, -1)]
        if not unit_cols:
            continue  # no unit yet; it comes back if a pivot changes it
        j = min(unit_cols, key=lambda jj: len(cols[jj]))
        v = piv_row[j]
        inv = v if p is None else pow(v, -1, p)
        del live[i]
        for jj in piv_row:
            cols[jj].discard(i)
        for ii in cols.pop(j):
            row = live[ii]
            q = row[j] * inv
            for jj, pv in piv_row.items():
                new = row.get(jj, 0) - q * pv
                if p is not None:
                    new %= p
                if new:
                    if jj not in row:
                        cols[jj].add(ii)
                    row[jj] = new
                else:
                    del row[jj]
                    if jj != j:
                        cols[jj].discard(ii)
            if row:
                heapq.heappush(heap, (len(row), ii))
            else:
                del live[ii]
        pivots.append(i)
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
    rows = [{j: v % p for j, v in enumerate(row) if v % p} for row in matrix]
    return len(_eliminate(rows, p)[0])


# --------------------------------------------------------------------------
# rings
# --------------------------------------------------------------------------


def parse_ring(ring: str) -> tuple[str, int | None]:
    """Validate a coefficient ring name: 'Z', 'Q' or 'F<p>' with p prime."""
    if ring in ("Z", "Q"):
        return ring, None
    if ring.startswith("F"):
        try:
            p = int(ring[1:])
        except ValueError:
            p = 0
        if p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1)):
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

    def check(self) -> None:
        """Verify shapes and that consecutive maps compose to zero."""
        for d, rows in self.rows.items():
            if len(rows) != self.dim(d + 1):
                raise NotAComplex(f"row count at degree {d}")
            width = self.dim(d)
            if any(not 0 <= k < width for r in rows for k in r):
                raise NotAComplex(f"column outside the basis at degree {d}")
        check_square_zero(self.rows)


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


def cohomology(cc: ChainComplex, ring: str = "Z") -> dict[int, AbelianGroup]:
    """Cohomology groups of a cochain complex, degree by degree.

    The maps are reduced in ascending degree by the sparse kernel.  A
    degree-i basis element whose row held a unit pivot of d_{i-1} is
    cancelled, so its column is dropped from d_i before d_i is reduced;
    that leaves the rank and the invariant factors of d_i unchanged.  Over
    Q and F_p every group is a vector space; integral torsion shows up
    there as lost rank, which the ranks already carry.
    """
    kind, p = parse_ring(ring)
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    cancelled: dict[int, set[int]] = {}  # degree -> its basis indices cancelled
    for d in sorted(cc.rows):
        drop = cancelled.pop(d, ())
        if p is None:
            rows = [{k: v for k, v in r.items() if k not in drop} for r in cc.rows[d]]
        else:
            rows = [
                {k: v % p for k, v in r.items() if v % p and k not in drop}
                for r in cc.rows[d]
            ]
        pivots, residual = _eliminate(rows, p)
        cancelled[d + 1] = set(pivots)
        factors = _snf_dense(residual)
        ranks[d] = len(pivots) + len(factors)
        if kind == "Z":
            torsion[d] = tuple(t for t in factors if t > 1)
    return {
        d: AbelianGroup(
            cc.dim(d) - ranks.get(d, 0) - ranks.get(d - 1, 0),
            torsion.get(d - 1, ()),
        )
        for d in cc.degrees
    }


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

    ``maximal`` empty means the void complex; ``maximal == {frozenset()}``
    is the empty complex whose only face is the empty face.
    """

    ground: tuple[Hashable, ...]
    maximal: frozenset

    def __post_init__(self):
        vs = set(self.ground)
        if len(vs) != len(self.ground):
            raise ValueError("duplicate ground vertices")
        for f in self.maximal:
            if not f <= vs:
                raise ValueError(f"face {sorted(f, key=repr)} not inside ground")
        for f, g in itertools.combinations(self.maximal, 2):
            if f <= g or g <= f:
                raise ValueError("maximal faces must be inclusion-incomparable")

    # ---- constructors ----

    @staticmethod
    def from_maximal(ground: Iterable, faces: Iterable[Iterable]) -> "SimplicialComplex":
        fs = {frozenset(f) for f in faces}
        maximal = {f for f in fs if not any(f < g for g in fs)}
        return SimplicialComplex(tuple(ground), frozenset(maximal))

    @staticmethod
    def from_faces(ground: Iterable, faces: Iterable[Iterable]) -> "SimplicialComplex":
        """Build from an explicit full face list, verifying closure.

        In a family closed under subsets a face is maximal exactly when no
        one-vertex extension of it is a face, an O(faces * ground) test.
        """
        ground = tuple(ground)
        fs = {frozenset(f) for f in faces}
        for f in fs:
            for v in f:
                if f - {v} not in fs:
                    raise NotAComplex(
                        f"face {sorted(f, key=repr)} present but "
                        f"{sorted(f - {v}, key=repr)} missing"
                    )
        maximal = frozenset(
            f for f in fs if not any(v not in f and f | {v} in fs for v in ground)
        )
        return SimplicialComplex(ground, maximal)

    @staticmethod
    def void(ground: Iterable = ()) -> "SimplicialComplex":
        return SimplicialComplex(tuple(ground), frozenset())

    @staticmethod
    def empty(ground: Iterable = ()) -> "SimplicialComplex":
        return SimplicialComplex(tuple(ground), frozenset({frozenset()}))

    @staticmethod
    def full_simplex(ground: Iterable) -> "SimplicialComplex":
        g = tuple(ground)
        return SimplicialComplex(g, frozenset({frozenset(g)}))

    # ---- basic queries ----

    @property
    def is_void(self) -> bool:
        return not self.maximal

    @property
    def is_empty_complex(self) -> bool:
        return self.maximal == frozenset({frozenset()})

    @property
    def dimension(self) -> int | None:
        if self.is_void:
            return None
        return max(len(f) for f in self.maximal) - 1

    def has_face(self, face: Iterable) -> bool:
        f = frozenset(face)
        return any(f <= m for m in self.maximal)

    def faces(self, cap: int = DEFAULT_FACE_CAP) -> tuple[tuple, ...]:
        """Every face, ordered by dimension then lexicographically."""
        cached = self.__dict__.get("_faces")
        if cached is None:
            seen: set = set()
            stack = list(self.maximal)
            while stack:
                f = stack.pop()
                if f in seen:
                    continue
                seen.add(f)
                if len(seen) > cap:
                    raise CapExceeded("face enumeration", cap)
                for v in f:
                    g = f - {v}
                    if g not in seen:
                        stack.append(g)
            pos = {v: i for i, v in enumerate(self.ground)}
            cached = tuple(
                sorted(
                    (tuple(sorted(f, key=pos.__getitem__)) for f in seen),
                    key=lambda t: (len(t), tuple(pos[v] for v in t)),
                )
            )
            self.__dict__["_faces"] = cached
        if len(cached) > cap:
            raise CapExceeded("face enumeration", cap)
        return cached

    def f_vector(self, cap: int = DEFAULT_FACE_CAP) -> tuple[int, ...]:
        """Face counts (f_-1, f_0, ..., f_dim); (0,) for the void complex."""
        if self.is_void:
            return (0,)
        fs = self.faces(cap)
        top = max(len(f) for f in fs)
        counts = [0] * (top + 1)
        for f in fs:
            counts[len(f)] += 1
        return tuple(counts)

    # ---- serialisation ----

    def to_json(self) -> str:
        pos = {v: i for i, v in enumerate(self.ground)}
        return json.dumps(
            {
                "ground": list(self.ground),
                "maximal_faces": sorted(
                    (sorted(f, key=pos.__getitem__) for f in self.maximal),
                    key=lambda t: (len(t), [pos[v] for v in t]),
                ),
            }
        )

    @staticmethod
    def from_json(text: str) -> "SimplicialComplex":
        data = json.loads(text)
        return SimplicialComplex.from_maximal(
            data["ground"], data["maximal_faces"]
        )


def coboundary_complex(
    x: SimplicialComplex, cap: int = DEFAULT_FACE_CAP
) -> ChainComplex:
    """The reduced simplicial cochain complex of x with lex-ordered bases."""
    if x.is_void:
        return ChainComplex(bases={}, rows={})
    by_dim: dict[int, list[tuple]] = {}
    for f in x.faces(cap):
        by_dim.setdefault(len(f) - 1, []).append(f)
    bases = {d: tuple(fs) for d, fs in by_dim.items()}
    rows: dict[int, tuple[Row, ...]] = {}
    for d in range(-1, max(bases)):
        index = {f: i for i, f in enumerate(bases[d])}
        # g minus its k-th vertex, which has len(g) - 1 - k vertices after it
        rows[d] = tuple(
            {
                index[g[:k] + g[k + 1:]]: -1 if (len(g) - 1 - k) % 2 else 1
                for k in range(len(g))
            }
            for g in bases[d + 1]
        )
    return ChainComplex(bases=bases, rows=rows)


def homology(
    x: SimplicialComplex, ring: str = "Z", cap: int = DEFAULT_FACE_CAP
) -> dict[int, AbelianGroup]:
    """Reduced simplicial homology of a complex.

    Boundary matrices are the transposes of the coboundaries, so free ranks
    match the cohomology of the same degree and torsion sits one lower.
    """
    return shift_torsion(cohomology_of(x, ring, cap), -1)


def cohomology_of(
    x: SimplicialComplex, ring: str = "Z", cap: int = DEFAULT_FACE_CAP
) -> dict[int, AbelianGroup]:
    """Reduced simplicial cohomology of a complex."""
    return cohomology(coboundary_complex(x, cap), ring)


# --------------------------------------------------------------------------
# complex constructions
# --------------------------------------------------------------------------


def _closed_family(
    ground: Sequence,
    admits: Callable[[frozenset, Hashable], bool],
    cap: int,
    stage: str,
) -> SimplicialComplex:
    """The complex of faces reached from {} by admitted one-vertex steps.

    A face f grows by a later vertex v of ``ground`` while ``admits(f, v)``
    holds, so each face is reached once, along its vertices in ground
    order.  ``admits`` must describe a family closed under subsets; more
    than ``cap`` faces raise CapExceeded naming ``stage``.
    """
    faces = [frozenset()]
    stack = [(faces[0], 0)]
    while stack:
        f, start = stack.pop()
        for k in range(start, len(ground)):
            v = ground[k]
            if admits(f, v):
                g = f | {v}
                faces.append(g)
                if len(faces) > cap:
                    raise CapExceeded(stage, cap)
                stack.append((g, k + 1))
    return SimplicialComplex.from_faces(ground, faces)


def independence_complex(g: Graph, cap: int = DEFAULT_FACE_CAP) -> SimplicialComplex:
    """The complex of independent vertex sets of a graph."""
    adj = g.adjacency
    return _closed_family(
        g.vertices, lambda f, v: not adj[v] & f, cap, "independent set enumeration"
    )


def alexander_dual(
    x: SimplicialComplex, cap: int = DEFAULT_FACE_CAP
) -> SimplicialComplex:
    """Faces of the dual are complements of non-faces of x, same ground."""
    full = frozenset(x.ground)
    if x.has_face(full):
        return SimplicialComplex.void(x.ground)
    return _closed_family(
        x.ground,
        lambda f, v: not x.has_face(full - f - {v}),
        cap,
        "dual face enumeration",
    )


def join(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertices are tagged (0, v) and (1, w)."""
    ground = tuple((0, v) for v in x.ground) + tuple((1, w) for w in y.ground)
    if x.is_void or y.is_void:
        return SimplicialComplex.void(ground)
    maximal = frozenset(
        frozenset((0, v) for v in f) | frozenset((1, w) for w in g)
        for f in x.maximal
        for g in y.maximal
    )
    return SimplicialComplex(ground, maximal)


def suspension(x: SimplicialComplex) -> SimplicialComplex:
    two_points = SimplicialComplex.from_maximal("NS", [["N"], ["S"]])
    return join(two_points, x)


def join_homology(
    hx: dict[int, AbelianGroup], hy: dict[int, AbelianGroup]
) -> dict[int, AbelianGroup]:
    """Reduced homology of a join from the factors' reduced homology.

    H~_i(X * Y) = sum over r+s=i-1 of H~_r(X) (x) H~_s(Y)
                plus sum over r+s=i-2 of Tor(H~_r(X), H~_s(Y)).
    """
    out: dict[int, AbelianGroup] = {}

    def add(i: int, g: AbelianGroup) -> None:
        if g.is_trivial:
            return
        out[i] = out.get(i, AbelianGroup(0)).direct_sum(g)

    for r, a in hx.items():
        for s, b in hy.items():
            add(r + s + 1, tensor_group(a, b))
            add(r + s + 2, tor_group(a, b))
    return out


def _bipartition(g: Graph, part_v: Iterable) -> tuple[tuple, tuple]:
    """The chosen side V and the other side W, each in graph order.

    Raises NotBipartition unless every edge crosses between V and W, and
    EmptyPartW when W is empty.
    """
    v_set = set(part_v)
    if not v_set <= set(g.vertices):
        raise NotBipartition("chosen part contains unknown vertices")
    for e in g.edges:
        a, b = tuple(e)
        if (a in v_set) == (b in v_set):
            raise NotBipartition(
                f"edge {sorted(e, key=repr)} does not cross the partition"
            )
    w_side = tuple(w for w in g.vertices if w not in v_set)
    if not w_side:
        raise EmptyPartW("the complementary part of the bipartition is empty")
    return tuple(v for v in g.vertices if v in v_set), w_side


def jonsson_complex(
    g: Graph, part_v: Iterable, cap: int = DEFAULT_FACE_CAP
) -> SimplicialComplex:
    """Jonsson's complex of a bipartite graph with a chosen side.

    Faces are the subsets of the chosen side all of whose vertices avoid the
    neighbourhood of at least one vertex of the other side.  Its suspension
    is homotopy equivalent to the independence complex of the graph.
    """
    v_side, w_side = _bipartition(g, part_v)
    adj = g.adjacency
    # f + {v} is a face when some w of the other side misses both
    return _closed_family(
        v_side,
        lambda f, v: any(v not in adj[w] and not adj[w] & f for w in w_side),
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
    v_side, w_side = _bipartition(g, part_v)
    adj = g.adjacency
    if any(not adj[w] for w in w_side):
        return SimplicialComplex.void(v_side)
    # f + {v} is a face unless it swallows N(w) for some w next to v
    rest = {v: [adj[w] - {v} for w in adj[v]] for v in v_side}
    return _closed_family(
        v_side,
        lambda f, v: not any(r <= f for r in rest[v]),
        cap,
        "Y_D face enumeration",
    )


def bipartite_from_complex(x: SimplicialComplex) -> Graph:
    """The bipartite graph on ground vertices and maximal faces of x.

    A ground vertex v is joined to a maximal face m exactly when v is not a
    member of m.  For complexes arising as Jonsson complexes this reverses
    the construction up to isomorphism.
    """
    pos = {v: i for i, v in enumerate(x.ground)}
    face_ids = sorted(
        (tuple(sorted(m, key=pos.__getitem__)) for m in x.maximal),
        key=lambda t: (len(t), [pos[v] for v in t]),
    )
    vertices = list(x.ground) + [("m",) + f for f in face_ids]
    edges = [
        (v, ("m",) + f)
        for v in x.ground
        for f in face_ids
        if v not in f
    ]
    return Graph.build(vertices, edges)
