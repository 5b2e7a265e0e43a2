"""Machine-speed calibration.

On a shared 2-vCPU Xeon host, interpreter-bound code runs up to ~1.7x
slower for stretches of seconds to minutes while other tenants are busy.
So the benchmark times a fixed pure-Python kernel between items and
reports every end-to-end time scaled to a machine on which the kernel
takes ``REFERENCE_S``: an item timing ``t`` counts as
``t * REFERENCE_S / k``, where ``k`` is the mean of the kernel timings
taken just before and just after it.  Set-up, which runs before any
item, is scaled by the median of the kernel timings taken between the
set-ups instead.  The kernel does the kind of work the program does --
small-int union-find, frozenset growth and subset tests, dict-of-dict row
elimination, tuple sorting -- and shares no code with it, so a change to
the program cannot move it.  The unscaled figures are reported next to
the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.010


def kernel() -> int:
    """Fixed work, about 10 ms on a 2020s server core."""
    return sum(_kernel_round() for _ in range(5))


def _kernel_round() -> int:
    n = 600
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(n):
        b = (a * 7919 + 13) % n
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    roots = len({find(a) for a in range(n)})

    faces = [frozenset()]
    for v in range(12):
        faces += [f | {v} for f in faces if len(f) < 3 and not (v - 1) in f]
    maximal = [f for f in faces if not any(f < g for g in faces if len(g) == len(f) + 1)]

    rows = {i: {(i * j) % 37: (i + j) % 5 - 2 for j in range(9)} for i in range(60)}
    for i in list(rows)[:30]:
        pivot = rows.pop(i)
        col = next(iter(pivot))
        for r in rows.values():
            q = r.get(col, 0)
            if q:
                for c, v in pivot.items():
                    r[c] = r.get(c, 0) - q * v
    ordered = sorted(tuple(sorted(f)) for f in faces)
    return roots + len(maximal) + len(ordered) + sum(len(r) for r in rows.values())


class Calibration:
    """Kernel timings taken through a run, and the scale they give."""

    def __init__(self):
        self.timings: list[float] = []
        kernel()  # the first call in a process runs cold; do not count it

    def measure(self) -> int:
        """Time the kernel once; returns the index of the timing."""
        t0 = perf_counter()
        kernel()
        self.timings.append(perf_counter() - t0)
        return len(self.timings) - 1

    def scale(self, before: int) -> float:
        """REFERENCE_S over the mean of timing ``before`` and the next one."""
        return 2 * REFERENCE_S / (self.timings[before] + self.timings[before + 1])
