"""Seeded input generators for the benchmark.

Everything here is plain Python that shares no code with ``exkh``: braid
closures are written straight out as PD text, chord diagrams as endpoint
pairs plus sides, and the size measures used to keep every seed's inputs
equally heavy (enhanced-state totals, independent-set counts) are computed
from scratch.  The program under test only ever sees the PD text.
"""

from __future__ import annotations

import hashlib
import random
import re
from functools import lru_cache

_TUPLE_RE = re.compile(r"X\((\d+),(\d+),(\d+),(\d+)\)")


def braid_pd(rng: random.Random, crossings: int, strands: int) -> str:
    """PD text of the closure of a random braid word of the given length.

    Generators and their signs are drawn uniformly; strands that no
    generator touches close up into free loops, written as ``U``.
    """
    cur = list(range(1, strands + 1))
    label = strands
    tuples: list[tuple[int, int, int, int]] = []
    for _ in range(crossings):
        pos = rng.randrange(strands - 1)
        a, b = cur[pos], cur[pos + 1]
        out_l, out_r = label + 1, label + 2
        label += 2
        if rng.random() < 0.5:
            tuples.append((a, out_l, out_r, b))
        else:
            tuples.append((b, a, out_l, out_r))
        cur[pos], cur[pos + 1] = out_l, out_r
    # Closing the braid glues each bottom label to the top label of its
    # strand position.
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for k in range(strands):
        ra, rb = find(cur[k]), find(k + 1)
        if ra != rb:
            parent[ra] = rb
    closed = [tuple(find(x) for x in t) for t in tuples]
    used = {x for t in closed for x in t}
    loops = sum(1 for k in range(strands) if find(k + 1) not in used)
    tokens = [f"X({a},{b},{c},{d})" for a, b, c, d in closed]
    return " ".join(tokens + ["U"] * loops)


def smoothing_circles(pd: str, bits: int) -> int:
    """Circles of the smoothing whose B-smoothed crossings are the set bits.

    A-smoothing joins PD slots (0,1) and (2,3); B-smoothing joins (0,3) and
    (1,2).  Free loops count one circle each.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    labels = set()
    for k, m in enumerate(_TUPLE_RE.finditer(pd)):
        a, b, c, d = (int(g) for g in m.groups())
        labels.update((a, b, c, d))
        pairs = ((a, d), (b, c)) if (bits >> k) & 1 else ((a, b), (c, d))
        for u, v in pairs:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return len({find(x) for x in labels}) + pd.split().count("U")


def enhanced_state_total(pd: str, stop: int) -> int:
    """Number of enhanced states, the sum of 2^circles over all smoothings,
    or the first partial sum that reaches ``stop``.

    This is the total basis size of every j-row complex of the full
    Khovanov table, which is what makes one table cheap or expensive.
    """
    total = 0
    for bits in range(1 << len(_TUPLE_RE.findall(pd))):
        total += 1 << smoothing_circles(pd, bits)
        if total >= stop:
            break
    return total


def chord_diagram(
    rng: random.Random, chords: int
) -> tuple[list[tuple[int, int]], list[bool]]:
    """A random one-circle chord diagram with a connected bipartite
    interleaving graph.

    Chords are inserted one at a time between random points of the circle;
    a chord is kept when it interleaves at least one earlier chord (so the
    graph stays connected) and all the chords it interleaves share a
    colour (so it stays bipartite).  Colour 0 is drawn inside the circle.
    """
    ends: list[tuple[float, float]] = []
    colour: list[int] = []
    while len(ends) < chords:
        u, v = sorted((rng.random(), rng.random()))
        crossed = {colour[k] for k, (a, b) in enumerate(ends) if (u < a < v) != (u < b < v)}
        if ends and len(crossed) != 1:
            continue
        ends.append((u, v))
        colour.append(1 - crossed.pop() if crossed else 0)
    order = sorted((p, k) for k, e in enumerate(ends) for p in e)
    positions: dict[int, list[int]] = {}
    for i, (_, k) in enumerate(order):
        positions.setdefault(k, []).append(i)
    pairs = [(positions[k][0], positions[k][1]) for k in range(chords)]
    return pairs, [c == 0 for c in colour]


def interleaving_masks(pairs: list[tuple[int, int]]) -> list[int]:
    """Neighbour bitmasks of the interleaving graph of a chord diagram."""
    masks = [0] * len(pairs)
    for i, (a1, a2) in enumerate(pairs):
        for j, (b1, b2) in enumerate(pairs):
            if i != j and (a1 < b1 < a2) != (a1 < b2 < a2):
                masks[i] |= 1 << j
    return masks


def independent_set_counts(masks: list[int]) -> tuple[int, int]:
    """(number of independent sets, alternating count I(G)) of a graph.

    The first is the face count of the independence complex, the empty
    face included; I(G) is minus its reduced Euler characteristic, so a
    nonzero I(G) means a nonzero extreme row.
    """

    @lru_cache(maxsize=None)
    def count(mask: int, sign: int) -> int:
        if not mask:
            return 1
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        return count(rest, sign) + sign * count(rest & ~masks[v], sign)

    full = (1 << len(masks)) - 1
    return count(full, 1), count(full, -1)


def digest(texts: list[str]) -> str:
    """Short content hash of a workload's PD texts, in item order."""
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def round_robin(strata: list[list]) -> list:
    """Interleave strata so that every prefix of a pass has the same mix."""
    out = []
    depth = max(len(s) for s in strata)
    for k in range(depth):
        out.extend(s[k] for s in strata if k < len(s))
    return out
