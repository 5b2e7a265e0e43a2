"""The three benchmark workloads: their items, and the oracle checks.

An item is PD text plus, for the thick family, the n whose binomial row
it must reproduce.  Running an item parses the text, computes what the
workload computes, and checks it; the checks are part of the timed item.
A run returns the list of problems found, empty when every check passed.

Sizes, and why each workload exists:

* ``corpus`` -- what ``exkh verify`` checks on one diagram, minus the full
  table, on 100 braid closures with 1..12 crossings.  Time goes to the 2^c
  state loops and thousands of tiny reductions; complex building is
  nearly idle.
* ``lando_large`` -- the lando and dual routes on 40 connected bipartite
  one-circle chord diagrams with 14..17 chords whose X_D has 1200..1300
  faces, plus ``thick_family(1..3)``.  Time goes to building and reducing
  X_D and Y_D; there is no state enumeration.  The chord diagrams are
  taken as the generator draws them in the face band, so their rows are
  mostly zero: about 4 % of them have I(G) != 0.  Each row's Euler
  characteristic is checked against I(G), counted by the benchmark's own
  code, so a zero row is checked too.
* ``tables`` -- full Khovanov tables over Z and F2 of 21 braid closures
  with 6..8 crossings.  Time goes to Khovanov differentials and their
  reduction, over Z and through the mod-p path.

Every seed gets different diagrams of the same sizes: crossing counts are
fixed per stratum, and candidates are drawn until their face count or
enhanced-state total falls in a narrow band, so that a run's cost depends
on the seed as little as possible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import inputs


# Rejection sampling gives up after this many candidates per item.
_MAX_TRIES = 100_000


@dataclass(frozen=True)
class Item:
    label: str
    pd: str
    thick: int = 0  # n > 0: a thick_family(n) diagram with a binomial row
    independence: int | None = None  # I(G) of a chord diagram's Lando graph


# ---------------------------------------------------------------------------
# checks (pure: they see only computed values, so a test can corrupt them)
# ---------------------------------------------------------------------------


def check_routes(rows: dict) -> list[str]:
    """Every route's extreme row must have the same groups."""
    names = sorted(rows)
    first = rows[names[0]].groups
    return [
        f"route {name} disagrees with {names[0]}: "
        f"{rows[name].summary()} vs {rows[names[0]].summary()}"
        for name in names[1:]
        if rows[name].groups != first
    ]


def check_bracket(d, bracket, independence: int) -> list[str]:
    """The extreme bracket coefficient is +-I(G) of the Lando graph."""
    c = d.crossing_count
    s_a = d.resolve(d.all_a_state()).circle_count
    coeff = bracket.coefficient(c + 2 * s_a - 2)
    want = (-1) ** (s_a - 1) * independence
    if coeff != want:
        return [f"extreme bracket coefficient {coeff} != signed I(G) {want}"]
    return []


def check_j_bounds(bounds, scanned) -> list[str]:
    if tuple(bounds) != tuple(scanned):
        return [f"j_bounds {bounds} != scanned range {scanned}"]
    return []


def check_euler(groups: dict, independence: int) -> list[str]:
    """An extreme row's Euler characteristic is +-I(G)."""
    euler = sum((-1) ** i * g.rank for i, g in groups.items())
    if abs(euler) != abs(independence):
        return [f"row Euler characteristic {euler} != +-I(G) = +-{independence}"]
    return []


def check_thick(kh, groups: dict, n: int) -> list[str]:
    """thick_family(n) has Z^C(n,k) in n + 1 consecutive degrees."""
    lo = min(groups, default=0)
    want = {lo + k: kh.AbelianGroup(comb(n, k)) for k in range(n + 1)}
    if groups != want:
        return [f"thick_family({n}) row {groups} != binomial row {want}"]
    return []


def check_table(table, jones, extreme_groups: dict) -> list[str]:
    """Euler characteristic against Jones; the j_min row against lando."""
    problems = []
    if table.graded_euler_characteristic() != jones:
        problems.append(f"{table.ring} table: Euler characteristic != graded Jones")
    if table.row(table.j_range[0]) != extreme_groups:
        problems.append(f"{table.ring} table: j_min row != extreme_via_lando")
    return problems


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


# Items per crossing count (8 where not listed): as many items below 7
# crossings as above, so the median item sits mid-way through the 7s.
_CORPUS_COUNTS = {1: 4, 2: 4, 7: 20}


def corpus_items(seed: int, tiny: bool) -> list[Item]:
    rng = random.Random(f"corpus:{seed}")
    strata = []
    for c in range(1, 7 if tiny else 13):
        count = 1 if tiny else _CORPUS_COUNTS.get(c, 8)
        strata.append(
            [
                Item(f"c{c}-{k}", inputs.braid_pd(rng, c, 2 + k % 4))
                for k in range(count)
            ]
        )
    return inputs.round_robin(strata)


def corpus_run(kh, item: Item) -> list[str]:
    d = kh.parse_pd(item.pd)
    problems = check_j_bounds(kh.j_bounds(d), kh.scanned_j_range(d))
    bracket = kh.kauffman_bracket(d, max(d.crossing_count, 1))
    independence = kh.independence_number(kh.build_lando(d))
    problems += check_bracket(d, bracket, independence)
    rows = {
        "lando": kh.extreme_via_lando(d),
        "brute": kh.extreme_via_brute(d),
        "dual": kh.extreme_row(d, "Z", "dual"),
    }
    return problems + check_routes(rows)


# ---------------------------------------------------------------------------
# lando_large
# ---------------------------------------------------------------------------

# X_D face band [lo, hi) of the chord items.  One narrow band keeps the
# median item's cost steady from seed to seed.
_FACE_BAND = (1200, 1300)
_TINY_FACE_BAND = (20, 60)


def _chords(rng: random.Random, tiny: bool) -> tuple:
    """(pairs, sides, I(G)) of the first drawn diagram in the face band."""
    lo, hi = _TINY_FACE_BAND if tiny else _FACE_BAND
    sizes = (6, 7, 8) if tiny else (14, 15, 16, 17)
    for _ in range(_MAX_TRIES):
        pairs, inside = inputs.chord_diagram(rng, rng.choice(sizes))
        faces, independence = inputs.independent_set_counts(
            inputs.interleaving_masks(pairs)
        )
        if lo <= faces < hi:
            return pairs, inside, independence
    raise RuntimeError(f"no chord diagram with {lo} <= faces < {hi} found")


def lando_large_items(seed: int, tiny: bool) -> list:
    """Thick-family sizes and chord diagrams; ``lando_large_realise`` turns
    them into PD text through the program."""
    rng = random.Random(f"lando_large:{seed}")
    thick = [("thick", n) for n in ((1, 2) if tiny else (1, 2, 3))]
    chords = [("chords", *_chords(rng, tiny)) for _ in range(2 if tiny else 40)]
    return thick + chords


def lando_large_realise(kh, specs: list) -> list[Item]:
    items = []
    for k, spec in enumerate(specs):
        if spec[0] == "thick":
            items.append(Item(f"thick{spec[1]}", kh.thick_family(spec[1]).to_pd(), thick=spec[1]))
        else:
            _, pairs, inside, independence = spec
            pd = kh.from_chord_diagram(pairs, inside).to_pd()
            items.append(Item(f"chords-{k}", pd, independence=independence))
    return items


def lando_large_run(kh, item: Item) -> list[str]:
    d = kh.parse_pd(item.pd)
    rows = {
        "lando": kh.extreme_via_lando(d),
        "dual": kh.extreme_row(d, "Z", "dual"),
    }
    problems = check_routes(rows)
    if item.thick:
        problems += check_thick(kh, rows["lando"].groups, item.thick)
    else:
        problems += check_euler(rows["lando"].groups, item.independence)
    return problems


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

# crossings -> (lo, hi) band on the enhanced-state total of the diagram.
_STATE_BANDS = {6: (800, 900), 7: (1250, 1400), 8: (2000, 2200)}
_TINY_STATE_BANDS = {3: (20, 200), 4: (40, 400)}


def tables_items(seed: int, tiny: bool) -> list[Item]:
    rng = random.Random(f"tables:{seed}")
    strata = []
    for c, (lo, hi) in (_TINY_STATE_BANDS if tiny else _STATE_BANDS).items():
        items = []
        for _ in range(_MAX_TRIES):
            if len(items) == (1 if tiny else 7):
                break
            pd = inputs.braid_pd(rng, c, rng.randrange(3, 6))
            if lo <= inputs.enhanced_state_total(pd, hi) < hi:
                items.append(Item(f"c{c}-{len(items)}", pd))
        else:
            raise RuntimeError(f"no {c}-crossing closures in the state band found")
        strata.append(items)
    return inputs.round_robin(strata)


def tables_run(kh, item: Item) -> list[str]:
    d = kh.parse_pd(item.pd)
    jones = kh.graded_jones(d)
    problems = []
    for ring in ("Z", "F2"):
        table = kh.khovanov_cohomology(d, ring)
        problems += check_table(table, jones, kh.extreme_via_lando(d, ring).groups)
    return problems


def _as_is(kh, items: list[Item]) -> list[Item]:
    return items


@dataclass(frozen=True)
class Workload:
    """``sample`` is the benchmark's own seeded search, run once and untimed;
    ``realise`` turns its output into items through the program, and is
    part of the timed set-up."""

    name: str
    sample: Callable  # (seed, tiny) -> specs
    realise: Callable  # (kh, specs) -> list[Item]
    run: Callable  # (kh, item) -> list[str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", corpus_items, _as_is, corpus_run),
        Workload("lando_large", lando_large_items, lando_large_realise, lando_large_run),
        Workload("tables", tables_items, _as_is, tables_run),
    )
}
