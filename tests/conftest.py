"""Shared corpora and independent oracles.

The corpora are deterministic (fixed seeds) so failures replay exactly.
Oracles here recompute package outputs by the most naive route available:
independent sets by subset enumeration, Smith invariant factors by
gcd-of-minors, joins by direct face products, circle counts by union-find
over the PD tuples.  They are deliberately slow and deliberately share no
code with the package.
"""

import itertools
import random
from fractions import Fraction
from math import comb, gcd

import pytest

from exkh.families import random_diagrams
from exkh.lando import Graph
from exkh.simplicial import SimplicialComplex

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
    return SimplicialComplex.from_maximal(ground, maximal)


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


def faces_by_product(x: SimplicialComplex, y: SimplicialComplex) -> set:
    """Faces of the join, built directly from the definition."""
    fx = x.faces()
    fy = y.faces()
    return {
        frozenset({(0, v) for v in a} | {(1, w) for w in b})
        for a in fx
        for b in fy
    }


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
