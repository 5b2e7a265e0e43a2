"""Shared corpora and independent oracles.

The corpora are deterministic (fixed seeds) so failures replay exactly.
Oracles here recompute package outputs by the most naive route available,
sharing no code with the package: independent sets by subset enumeration,
Smith invariant factors by gcd-of-minors, ranks over F_p by dense Gaussian
elimination mod p, joins by direct face products,
circle counts by union-find over the PD tuples.  They are deliberately
slow.

The test builders live here as well, since the package needs none of
them: a complex from given faces (``from_maximal``, through the package's
one enumerator, admitting a vertex while the grown face lies in a given
face), the join of two complexes (``join``, the faces of
``faces_by_product``) and the small graphs ``path_graph``, ``cycle_graph``,
``torus_graph`` and ``two_hexagons_shared_vertex``.  The package builds
every complex from a graph or another complex; its one join table is the
independence complex of a disjoint union of graphs.

The reference model of the enhanced-state complex lives here too:
``EnhancedState`` objects, their gradings, every enhanced state by brute
enumeration, and the differential entry between two states (``adjacent``)
read off the local merge and split rules.  It keys states by labels and
sign tuples, where the package keys them as (B-bits, minus mask) integer
pairs; ``enhanced`` converts one to the other.  ``rows_by_generic_rule``
rebuilds the package's rows on its own bases, mapping each minus mask
across a cube edge by the generic drop-and-open bit loop of
``move_by_generic_rule``, which the package's closed forms replace.  It reads circles through
the package's one tracer, ``Diagram._resolve_bits``, and counts them from
the same tracer; ``circle_count_by_union_find`` checks it, and the
frontier tally ``Diagram._count_histogram``, from outside.  The j_min states
(``s_min_states``), the whole Y_D (``y_complex``), the bipartite graph of
a complex and the suspension are oracles built from package pieces, for
the tests that compare them with the routes.  ``brute_row_mismatch``
certifies the paper's bijection as an equality of complexes: the brute
j_min row is the reduced cochain complex of X_D, entry for entry.

Some oracles answer questions the package itself never asks: graph
isomorphism by backtracking, the group at (1 - n, j_min) read off the
Lando graph's shape (``krs_criterion``), a row's groups from its lowest
degree, and the check of each catalog entry against its pinned
invariants, which replays the chord-diagram reconstruction.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

import pytest

from exkh.diagram import A, B, Diagram, State
from exkh.errors import CapExceeded, NotAComplex
from exkh.extreme import _dual_parts, extreme_via_lando
from exkh.families import CatalogEntry, from_chord_diagram, random_diagrams
from exkh.khovanov import DEFAULT_CROSSING_CAP, _grown_family, j_bounds, khovanov_complex
from exkh import simplicial
from exkh.lando import Graph, build_lando, is_complete_bipartite
from exkh.simplicial import (
    DEFAULT_FACE_CAP,
    AbelianGroup,
    ChainComplex,
    SimplicialComplex,
    check_square_zero,
    coboundary_complex,
    independence_complex,
    jonsson_dual,
    parse_ring,
)


# --------------------------------------------------------------------------
# test builders: the package builds every complex from a graph or another
# complex, never from a list of faces, and needs none of these graphs
# --------------------------------------------------------------------------


def from_maximal(ground, faces, cap: int = DEFAULT_FACE_CAP) -> SimplicialComplex:
    """Every subset of the given faces, enumerated under ``cap``: a face
    grows by a vertex while the two lie inside one given face."""
    ground = tuple(ground)
    pos = {v: k for k, v in enumerate(ground)}
    given = {simplicial._mask(pos, f) for f in faces}
    if not given:
        return SimplicialComplex.void(ground)

    def admits(f: int, k: int) -> bool:
        grown = f | 1 << k
        return any(grown & m == grown for m in given)

    return simplicial._closed_family(ground, admits, cap, "face enumeration")


def faces_by_product(x: SimplicialComplex, y: SimplicialComplex) -> set:
    """Faces of the join, built directly from the definition."""
    fx = x.faces()
    fy = y.faces()
    return {
        frozenset({(0, v) for v in a} | {(1, w) for w in b})
        for a in fx
        for b in fy
    }


def join(
    x: SimplicialComplex, y: SimplicialComplex, cap: int = DEFAULT_FACE_CAP
) -> SimplicialComplex:
    """The simplicial join, vertices tagged (0, v) and (1, w): the faces of
    ``faces_by_product``, enumerated by ``from_maximal``."""
    ground = [(0, v) for v in x.ground] + [(1, w) for w in y.ground]
    return from_maximal(ground, faces_by_product(x, y), cap)


def path_graph(n: int) -> Graph:
    return Graph.build(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n <= 2:
        return path_graph(n)
    return Graph.build(range(n), [(i, (i + 1) % n) for i in range(n)])


def torus_graph(m: int, n: int) -> Graph:
    """C_m x C_n: vertex (i, j) meets (i +- 1, j) and (i, j +- 1)."""
    vertices = [(i, j) for i in range(m) for j in range(n)]
    edges = [((i, j), ((i + 1) % m, j)) for i, j in vertices]
    edges += [((i, j), (i, (j + 1) % n)) for i, j in vertices]
    return Graph.build(vertices, edges)


def two_hexagons_shared_vertex() -> Graph:
    """Two 6-cycles glued at a single common vertex (11 vertices, 12 edges)."""
    ring_a = ["z", *(f"a{i}" for i in range(2, 7))]
    ring_b = ["z", *(f"b{i}" for i in range(2, 7))]
    edges = [(r[i], r[(i + 1) % 6]) for r in (ring_a, ring_b) for i in range(6)]
    return Graph.build([*ring_a, *ring_b[1:]], edges)


# --------------------------------------------------------------------------
# corpora
# --------------------------------------------------------------------------


CORPUS_SEED = 20260814


@pytest.fixture(scope="session")
def corpus12():
    """200 random diagrams with 1..12 crossings."""
    return random_diagrams(200, max_crossings=12, seed=CORPUS_SEED)


@pytest.fixture(scope="session")
def corpus_multi():
    """Diagrams with at least two crossing-carrying components."""
    return random_diagrams(
        60, max_crossings=10, seed=CORPUS_SEED + 1, multi_component=True
    )


def random_complex(rng: random.Random, max_ground: int = 8) -> SimplicialComplex:
    n = rng.randrange(1, max_ground + 1)
    ground = tuple(range(1, n + 1))
    count = rng.randrange(1, n + 2)
    maximal = []
    for _ in range(count):
        size = rng.randrange(0, n + 1)
        maximal.append(tuple(sorted(rng.sample(ground, size))))
    return from_maximal(ground, maximal)


@pytest.fixture(scope="session")
def complex_corpus():
    rng = random.Random(CORPUS_SEED + 2)
    return [random_complex(rng) for _ in range(60)]


def random_bipartite(rng: random.Random, max_vertices: int = 14) -> Graph:
    r = rng.randrange(1, max_vertices)
    s = rng.randrange(1, max_vertices - r + 1)
    part_v = tuple(f"v{k}" for k in range(r))
    part_w = tuple(f"w{k}" for k in range(s))
    edges = [
        (v, w)
        for v in part_v
        for w in part_w
        if rng.random() < 0.4
    ]
    return Graph.build(part_v + part_w, edges)


@pytest.fixture(scope="session")
def bipartite_corpus():
    rng = random.Random(CORPUS_SEED + 3)
    return [random_bipartite(rng) for _ in range(40)]


def random_graph(rng: random.Random, max_vertices: int = 9) -> Graph:
    n = rng.randrange(0, max_vertices + 1)
    vertices = tuple(range(n))
    edges = [
        e for e in itertools.combinations(vertices, 2) if rng.random() < 0.35
    ]
    return Graph.build(vertices, edges)


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------


def subsets_by_enumeration(ground, keep) -> list[tuple]:
    """Every subset of ``ground`` that ``keep`` accepts as a frozenset, in
    the order combinations yield them: by size, then lexicographically."""
    return [
        combo
        for r in range(len(ground) + 1)
        for combo in itertools.combinations(ground, r)
        if keep(frozenset(combo))
    ]


def independent_sets_by_enumeration(g: Graph) -> list[tuple]:
    """Every independent set, empty set included, by brute subsets."""
    return subsets_by_enumeration(
        g.vertices,
        lambda s: all(
            frozenset(pair) not in g.edges for pair in itertools.combinations(s, 2)
        ),
    )


def maximal_by_enumeration(ground, faces) -> frozenset:
    """The faces of a subset-closed list that no one-vertex extension of
    stays in the list."""
    fs = {frozenset(f) for f in faces}
    return frozenset(
        f for f in fs if not any(v not in f and f | {v} in fs for v in ground)
    )


def bipartite_part(g: Graph) -> tuple[Graph, list]:
    """The graph minus its edges between two even or two odd vertices, with
    the even vertices as the side V; vertices are the ints of random_graph."""
    edges = [e for e in g.edges if sum(v % 2 for v in e) == 1]
    return Graph.build(g.vertices, edges), [v for v in g.vertices if v % 2 == 0]


def invariant_factors_by_minors(matrix) -> tuple[int, ...]:
    """Smith invariant factors as ratios of gcds of k-by-k minors.

    Exact and obviously correct, exponentially slow; keep the inputs tiny.
    """
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return ()
    m, n = len(rows), len(rows[0])

    def laplace(sub):
        k = len(sub)
        if k == 0:
            return Fraction(1)
        if k == 1:
            return sub[0][0]
        total = Fraction(0)
        for j in range(k):
            minor = [r[:j] + r[j + 1 :] for r in sub[1:]]
            sign = -1 if j % 2 else 1
            total += sign * sub[0][j] * laplace(minor)
        return total

    def det(idx_r, idx_c):
        return laplace([[Fraction(rows[i][j]) for j in idx_c] for i in idx_r])

    gcds = [1]
    for k in range(1, min(m, n) + 1):
        g_k = 0
        for idx_r in itertools.combinations(range(m), k):
            for idx_c in itertools.combinations(range(n), k):
                g_k = gcd(g_k, int(det(idx_r, idx_c)))
        gcds.append(g_k)
        if g_k == 0:
            break
    factors = []
    for k in range(1, len(gcds)):
        if gcds[k] == 0:
            break
        factors.append(gcds[k] // gcds[k - 1])
    return tuple(factors)


def rank_mod_p_by_gauss(matrix, p: int) -> int:
    """Rank over F_p by Gaussian elimination on a dense copy reduced mod p:
    each pivot row leaves and clears its column from the rows still left."""
    rows = [[v % p for v in r] for r in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        k = next((k for k, r in enumerate(rows) if r[col]), None)
        if k is None:
            continue
        pivot = rows.pop(k)
        rank += 1
        inv = pow(pivot[col], -1, p)
        support = [(j, v) for j, v in enumerate(pivot) if v]
        for r in rows:
            f = r[col] * inv
            if f:
                for j, v in support:
                    r[j] = (r[j] - f * v) % p
    return rank


def check_complex(cc: ChainComplex) -> None:
    """Raise NotAComplex unless each map of ``cc`` has one row per basis
    element of the degree above, columns inside the basis of its own
    degree, and the next map composes with it to zero."""
    for d, rows in cc.rows.items():
        if len(rows) != cc.dim(d + 1):
            raise NotAComplex(f"row count at degree {d}")
        width = cc.dim(d)
        if any(not 0 <= k < width for r in rows for k in r):
            raise NotAComplex(f"column outside the basis at degree {d}")
    check_square_zero(cc.rows)


def circle_count_by_union_find(d, bits: int) -> int:
    """Circles of the smoothing whose B-labelled crossings are the set bits.

    Ports 4*crossing + slot are joined along every arc (the two ports that
    carry one label) and across every crossing by its smoothing: A joins
    slots 0-1 and 2-3, B joins 0-3 and 1-2.  Reads only the PD tuples, so
    it checks the package's circle tracer from outside.
    """
    parent = list(range(4 * d.crossing_count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ports_of_arc: dict[int, list[int]] = {}
    for ci, tup in enumerate(d.crossings):
        for slot, arc in enumerate(tup):
            ports_of_arc.setdefault(arc, []).append(4 * ci + slot)
    joins = [tuple(ports) for ports in ports_of_arc.values()]
    for ci in range(d.crossing_count):
        p = 4 * ci
        if (bits >> ci) & 1:
            joins += [(p, p + 3), (p + 1, p + 2)]
        else:
            joins += [(p, p + 1), (p + 2, p + 3)]
    for a, b in joins:
        parent[find(a)] = find(b)
    return len({find(p) for p in range(4 * d.crossing_count)}) + d.free_loops


def bracket_by_state_sum(d) -> dict[int, int]:
    """Kauffman bracket coefficients, one smoothing at a time.

    Smoothing s adds A^sigma(s) (-A^2 - A^-2)^(m - 1), m its union-find
    circle count, expanded by the binomial theorem.
    """
    c = d.crossing_count
    out: dict[int, int] = {}
    for bits in range(1 << c):
        sigma = c - 2 * bin(bits).count("1")
        k = circle_count_by_union_find(d, bits) - 1
        for r in range(k + 1):
            e = sigma + 4 * r - 2 * k
            out[e] = out.get(e, 0) + (-1) ** k * comb(k, r)
    return {e: v for e, v in out.items() if v}


def suspension(x: SimplicialComplex) -> SimplicialComplex:
    """The join of x with two points."""
    two_points = from_maximal("NS", [["N"], ["S"]])
    return join(two_points, x)


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


# --------------------------------------------------------------------------
# graph, row and catalog oracles
# --------------------------------------------------------------------------


def degree(g: Graph, v) -> int:
    return len(g.adjacency[v])


def find_isomorphism(g: Graph, h: Graph) -> dict | None:
    """A graph isomorphism g -> h found by backtracking, or None.

    Meant for the small graphs that arise here (a few dozen vertices).
    """
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return None

    def signature(graph: Graph) -> dict:
        deg = {v: degree(graph, v) for v in graph.vertices}
        return {
            v: (deg[v], tuple(sorted(deg[w] for w in graph.adjacency[v])))
            for v in graph.vertices
        }

    sig_g, sig_h = signature(g), signature(h)
    if sorted(sig_g.values()) != sorted(sig_h.values()):
        return None
    order = sorted(g.vertices, key=lambda v: sig_g[v], reverse=True)
    adj_g, adj_h = g.adjacency, h.adjacency

    mapping: dict = {}
    used: set = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for w in h.vertices:
            if w in used or sig_h[w] != sig_g[v]:
                continue
            ok = True
            for u in adj_g[v]:
                if u in mapping and mapping[u] not in adj_h[w]:
                    ok = False
                    break
            if ok:
                for u in g.vertices:
                    if u in mapping and u not in adj_g[v] and mapping[u] in adj_h[w]:
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(k + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return dict(mapping) if extend(0) else None


def isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


def complete_bipartite_graph(r: int, s: int) -> Graph:
    verts = [("u", i) for i in range(r)] + [("w", j) for j in range(s)]
    edges = [(("u", i), ("w", j)) for i in range(r) for j in range(s)]
    return Graph.build(verts, edges)


def lando_by_alternating_ends(d: Diagram) -> Graph:
    """The Lando graph read off the circles of ``d.resolve(d.all_a_state())``.

    A crossing is a vertex when both ends of its chord lie on one circle;
    two such chords are joined when, walking once round their circle, their
    ends come as u v u v.  Vertices come in crossing order.
    """
    circles = d.resolve(d.all_a_state()).circles
    home: dict[int, set[int]] = {}  # crossing -> the circles holding its ends
    for k, circle in enumerate(circles):
        for ci, _ in circle:
            home.setdefault(ci, set()).add(k)
    chords = sorted(ci for ci, ks in home.items() if ci >= 0 and len(ks) == 1)
    edges = []
    for u, v in itertools.combinations(chords, 2):
        if home[u] == home[v]:
            (k,) = home[u]
            walk = [ci for ci, _ in circles[k] if ci in (u, v)]
            if walk[0] == walk[2]:
                edges.append((u, v))
    return Graph.build(chords, edges)


def krs_criterion(d: Diagram, ring: str = "Z") -> AbelianGroup:
    """The group at (1 - n, j_min), read off the Lando graph's shape.

    It is one copy of the coefficient ring when the Lando graph is a
    complete bipartite graph K_{r,s} (r, s >= 1) and trivial otherwise;
    this is the degree where H~^0(X_D) sits, and the independence complex
    of a graph is disconnected exactly in the complete bipartite case,
    when it is a disjoint union of two simplices.
    """
    parse_ring(ring)
    g = build_lando(d)
    if is_complete_bipartite(g) is not None:
        return AbelianGroup(1)
    return AbelianGroup(0)


def ranks_from_lowest(groups: dict[int, AbelianGroup]) -> tuple[AbelianGroup, ...]:
    """A row's group sequence starting at its lowest nonzero i.

    Reorienting components shifts the whole row in i; comparing these
    sequences factors that shift out.
    """
    if not groups:
        return ()
    lo = min(groups)
    hi = max(groups)
    return tuple(groups.get(i, AbelianGroup(0)) for i in range(lo, hi + 1))


def reorient_for_negative_count(d: Diagram, target: int) -> Diagram:
    """Reverse a subset of components to hit a given negative-crossing count.

    Subsets are tried in increasing size and lexicographic order, so the
    answer is deterministic; ValueError if no orientation works.
    """
    mu = d.component_count
    for size in range(mu + 1):
        for subset in itertools.combinations(range(mu), size):
            out = d
            for comp in subset:
                out = out.reverse_component(comp)
            if out.negative_count == target:
                return out
    raise ValueError(f"no orientation of the diagram has {target} negative crossings")


_LANDO_CLASSES = {
    "hexagon": lambda: cycle_graph(6),
    "two_hexagons_shared_vertex": two_hexagons_shared_vertex,
}


def validate_catalog_entry(entry: CatalogEntry) -> list[str]:
    """Recompute every pinned invariant of an entry; list the mismatches."""
    problems = []
    d = entry.diagram()
    exp = entry.expected

    def check(label, got, want):
        if got != want:
            problems.append(f"{label}: computed {got!r}, pinned {want!r}")

    check("crossings", d.crossing_count, exp["crossings"])
    check("negative", d.negative_count, exp["negative"])
    check("components", d.component_count, exp["components"])
    check("s_a", len(d._resolve_bits(0)), exp["s_a"])
    g = build_lando(d)
    check("lando vertices", len(g.vertices), exp["lando"]["vertices"])
    check("lando edges", len(g.edges), exp["lando"]["edges"])
    ref = _LANDO_CLASSES[exp["lando"]["class"]]()
    if not isomorphic(g, ref):
        problems.append(f"lando graph not isomorphic to {exp['lando']['class']}")
    j_min, _ = j_bounds(d)
    check("j_min", j_min, exp["extreme"]["j"])
    row = extreme_via_lando(d)
    groups = {str(i): str(grp) for i, grp in sorted(row.groups.items())}
    check("extreme row", groups, exp["extreme"]["groups"])
    # The reconstruction provenance must replay exactly.
    if entry.reconstructed:
        rebuilt = from_chord_diagram(
            list(entry.chord_pairs), list(entry.chord_inside)
        )
        rebuilt = reorient_for_negative_count(rebuilt, exp["negative"])
        if rebuilt.to_pd() != entry.pd:
            problems.append("chord-diagram reconstruction does not replay")
    return problems


# --------------------------------------------------------------------------
# the reference model of the enhanced-state complex
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EnhancedState:
    """A smoothing state with a sign on each of its circles.

    ``signs[k]`` belongs to circle k of the state's resolution, in the
    order ``Diagram._resolve_bits`` lists the circles.
    """

    state: State
    signs: tuple[int, ...]

    def __post_init__(self):
        if any(e not in (1, -1) for e in self.signs):
            raise ValueError("circle signs must be +1 or -1")

    @property
    def tau(self) -> int:
        return sum(self.signs)


def enhanced(d: Diagram, bits: int, mask: int) -> EnhancedState:
    """The EnhancedState of the package's (B-bits, minus mask) pair."""
    state = State(tuple(B if (bits >> k) & 1 else A for k in range(d.crossing_count)))
    m = len(d._resolve_bits(bits))
    return EnhancedState(state, tuple(-1 if (mask >> k) & 1 else 1 for k in range(m)))


def state_i(d: Diagram, s: State | EnhancedState) -> int:
    labels = s.labels if isinstance(s, State) else s.state.labels
    if len(labels) != d.crossing_count:
        raise ValueError("state length does not match the diagram")
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
    if d.crossing_count > max_crossings:
        raise CapExceeded("crossing count", max_crossings)
    c = d.crossing_count
    w = d.writhe
    n = d.negative_count
    loops = d.free_loops
    out: dict[tuple[int, int], list[EnhancedState]] = {}
    for bits in range(1 << c):
        m = len(d._resolve_bits(bits))
        state = State(tuple(B if (bits >> k) & 1 else A for k in range(c)))
        i = bits.bit_count() - n
        for signs in itertools.product((1, -1), repeat=m):
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
            raise ValueError("state length does not match the diagram")
        if len(es.signs) != len(d._resolve_bits(es.state.bits)):
            raise ValueError("sign count does not match the resolution")
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


def move_by_generic_rule(source_where: list[int], target_where: list[int], x: int):
    """(leaving, entering, outs) of the cube edge that relabels A-crossing x.

    The chord-end maps are those of ``khovanov._grown_family``.  A source
    mask maps by dropping its bits at ``leaving`` (highest first) and
    opening zero bits at ``entering`` (lowest first); ``outs[g]`` lists
    the entering circles' minus bits, g the leaving circles' minus bits
    (the lower as bit 0), by the local merge and split rules.  Unlike the
    package's closed forms, this assumes nothing about where the merged
    circle or the split's parts land.
    """
    s0, s1 = sorted(source_where[2 * x : 2 * x + 2])
    t0, t1 = sorted(target_where[2 * x : 2 * x + 2])
    if s0 != s1 and t0 == t1:  # a merge
        return (s1, s0), (t0,), ((0,), (1 << t0,), (1 << t0,), ())
    if s0 == s1 and t0 != t1:  # a split
        return (s0,), (t0, t1), ((1 << t1, 1 << t0), (), (), (1 << t0 | 1 << t1,))
    raise NotAComplex(f"relabelling crossing {x} keeps the circle count")


def rows_by_generic_rule(d: Diagram, rows: dict[int, ChainComplex]) -> dict:
    """j -> i -> the rows of the map out of degree i, as ``ChainComplex.rows``
    holds them, over the bases of the package's ``rows`` (its full window),
    with every entry put in by ``move_by_generic_rule`` and a per-mask bit
    loop."""
    c = d.crossing_count
    w, n = d.writhe, d.negative_count
    family = _grown_family(d, j_bounds(d)[1] - w + n)
    out = {}
    for j, cc in rows.items():
        index = {state: col for basis in cc.bases.values() for col, state in enumerate(basis)}
        want = {i: [{} for _ in cc.bases.get(i + 1, ())] for i in cc.bases}
        by_bits: dict[int, list[tuple[int, int, int]]] = {}  # bits -> (i, col, mask)
        for i, basis in cc.bases.items():
            for col, (bits, mask) in enumerate(basis):
                by_bits.setdefault(bits, []).append((i, col, mask))
        for bits, states in by_bits.items():
            for x in range(c):
                target = bits | 1 << x
                if bits >> x & 1 or target not in family:
                    continue
                leaving, entering, outs = move_by_generic_rule(
                    family[bits][1], family[target][1], x
                )
                sign = -1 if (bits >> (x + 1)).bit_count() % 2 else 1
                for i, col, mask in states:
                    kept = mask
                    for p in leaving:
                        kept = (kept & ((1 << p) - 1)) | (kept >> (p + 1) << p)
                    for p in entering:
                        kept = (kept & ((1 << p) - 1)) | (kept >> p << (p + 1))
                    g = ((mask >> leaving[-1]) & 1) | ((mask >> leaving[0]) & 1) << 1
                    for extra in outs[g]:
                        want[i][index[target, kept | extra]][col] = sign
        out[j] = want
    return out


def s_min_states(d: Diagram, cap: int = DEFAULT_FACE_CAP) -> set[EnhancedState]:
    """The enhanced states realising j = j_min.

    They are exactly the all-minus enhancements of states whose B-labelled
    crossings form an independent set of the Lando graph; in particular
    there are as many of them as X_D has faces, the empty face included.
    """
    x = independence_complex(build_lando(d), cap)
    out: set[EnhancedState] = set()
    for face in x.faces():
        out.add(enhanced(d, sum(1 << k for k in face), -1))  # mask -1: all minus
    return out


def y_complex(d: Diagram, cap: int = DEFAULT_FACE_CAP) -> SimplicialComplex:
    """The Alexander dual Y_D of a Jonsson complex of the Lando graph, whole.

    Built straight from the neighbourhoods (``jonsson_dual``): the faces are
    the subsets of V, the union of the components' sides V_k, that contain
    no N(w) for w in W.  The dual route itself never builds this whole
    complex, only its components' Y_k.

    Raises EmptyPartW when W is empty, as it is when the graph has no
    vertices; the dual route answers that graph with the empty join.
    """
    g = build_lando(d)
    return jonsson_dual(g, [v for _, side in _dual_parts(g) for v in side], cap)


def brute_row_mismatch(d: Diagram, max_crossings: int = DEFAULT_CROSSING_CAP) -> str:
    """Where the brute j_min row of ``d`` differs from the reduced cochain
    complex of X_D, or '' where the two are equal entry for entry.

    The basis element (B-bits, all minus) in degree i goes to the face of
    its B-crossings, in cochain degree i + n - 1; the Lando vertices are
    crossings, in crossing order, so the faces are the set bits in order.
    The map must be onto, one to one, and carry every row entry of the
    brute row to the equal entry of ``coboundary_complex``, with no sign
    change.  The message names the diagram, the degree and the entry.
    """
    n = d.negative_count
    brute = khovanov_complex(d, j_bounds(d)[0], max_crossings)
    x_d = coboundary_complex(independence_complex(build_lando(d)))
    where = f"{d.to_pd()}: "

    def face(bits: int) -> tuple:
        return tuple(k for k in range(d.crossing_count) if bits >> k & 1)

    column = {}  # brute degree i -> X_D's index of each brute basis element
    for i, basis in brute.bases.items():
        faces = x_d.bases.get(i + n - 1, ())
        index = {f: k for k, f in enumerate(faces)}
        column[i] = [index.get(face(bits)) for bits, _ in basis]
        if None in column[i] or sorted(column[i]) != list(range(len(faces))):
            return (
                f"{where}degree i={i} does not go one to one onto the "
                f"{len(faces)} faces of X_D's degree {i + n - 1}"
            )
    hit = {i + n - 1 for i in brute.bases}
    if missed := [deg for deg in x_d.bases if deg not in hit]:
        return f"{where}no brute state maps to X_D's degree {missed[0]}"
    for i, rows in brute.rows.items():
        deg = i + n - 1
        want = x_d.rows.get(deg, ())
        got = [{} for _ in want]  # the brute rows, in X_D's row order
        for r, row in enumerate(rows):
            got[column[i + 1][r]] = {column[i][k]: v for k, v in row.items()}
        for r, (g, w) in enumerate(zip(got, want)):
            for k in sorted(set(g) | set(w)):
                if g.get(k, 0) != w.get(k, 0):
                    return (
                        f"{where}degree i={i}, entry (row {x_d.bases[deg + 1][r]}, "
                        f"column {x_d.bases[deg][k]}): brute {g.get(k, 0)}, X_D {w.get(k, 0)}"
                    )
    return ""
