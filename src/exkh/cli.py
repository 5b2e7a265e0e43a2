"""Command-line front end.

One subcommand per pipeline stage: ``parse`` and ``resolve`` inspect
diagrams, ``lando`` / ``complex`` expose the geometric side, ``extreme``
runs the three routes to an extreme row side by side, ``khovanov``
and ``jones`` print full invariants, ``families`` emits the shipped and
generated example diagrams, and ``verify`` replays the cross-checks on a
corpus.

Each subcommand takes only the options its handler reads; ``families``
has one subcommand per kind, so only ``random`` takes ``--max-crossings``
and ``--seed``, and only ``joins`` takes ``--max-faces``.  An option
left off the command line takes its ``EXKH_*`` variable (``EXKH_RING``,
``EXKH_MAX_CROSSINGS``, ...), else its default; only the subcommand being
run reads its variables, and a bad value names the flag or the variable.

Exit codes: 0 success, 2 a cap was exceeded, 3 two routes to an extreme row
disagree (which a proven theorem forbids, so it means a bug), 1 anything
else.  ``verify`` runs every check on every diagram before it exits with
the gravest of 3 and 1; a cap overrun or bad input still stops it at once.
Diagram inputs may be inline PD text like ``X(1,4,2,5) ...``, a file
containing such text, ``-`` for stdin, or a catalog name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .diagram import Diagram, State, is_pd_text, parse_pd, pd_hash
from .errors import CapExceeded, ExkhError
from .extreme import ExtremeRow, extreme_row
from .families import (
    binomial_row,
    join_power_table,
    load_catalog,
    random_diagrams,
    thick_family,
)
from .khovanov import (
    DEFAULT_CROSSING_CAP,
    graded_jones,
    j_bounds,
    jones,
    kauffman_bracket,
    khovanov_cohomology,
    scanned_j_range,
)
from .lando import build_lando, independence_number, is_complete_bipartite
from .simplicial import (
    DEFAULT_FACE_CAP,
    coboundary_complex,
    independence_complex,
    parse_ring,
)

AGREEMENT_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; we need it for caps.
    A subcommand reports the arguments it leaves over under its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self._subparsers is None:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# dest -> (the variable read when the flag is left off, the value if it is unset)
_DEFAULTS = {
    "ring": ("EXKH_RING", "Z"),
    "max_crossings": ("EXKH_MAX_CROSSINGS", DEFAULT_CROSSING_CAP),
    "max_faces": ("EXKH_MAX_FACES", DEFAULT_FACE_CAP),
    "fmt": ("EXKH_FORMAT", "text"),
    "seed": ("EXKH_SEED", 0),
}

_HELP = {
    "--ring": "coefficient ring: Z, Q or Fp for a prime p (default Z)",
    "--max-crossings": "refuse state enumeration beyond this many crossings",
    "--max-faces": "refuse simplicial complexes beyond this many faces",
}


def _settle(args) -> None:
    """Fill in and check the options of the subcommand being run, reading
    only their variables.  A bad value names where it came from:
    ``--max-faces -3`` or ``EXKH_MAX_FACES=0``."""
    for dest, (var, fallback) in _DEFAULTS.items():
        if dest not in vars(args):
            continue
        value, raw = getattr(args, dest), None
        named = f"--{dest.replace('_', '-')} {value}"
        if value is None:
            raw = os.environ.get(var)
            named = f"{var}={raw}"
            try:
                value = fallback if raw is None else type(fallback)(raw)
            except ValueError:
                raise ExkhError(
                    f"{var}={raw!r} is not a valid {type(fallback).__name__}"
                ) from None
            setattr(args, dest, value)
        if dest == "ring":
            try:
                parse_ring(value)
            except ValueError as exc:
                where = "" if raw is None else f"{named}: "
                raise ExkhError(f"{where}{exc}") from None
        elif dest.startswith("max_") and value <= 0:
            raise ExkhError(f"caps must be positive: {named}")
    # argparse checks choices only on the command line
    if args.fmt not in args.formats:
        raise ExkhError(
            f"EXKH_FORMAT={args.fmt!r} is not a format of {args.command}; "
            f"it renders {', '.join(args.formats)}"
        )


def _limits(sub: argparse.ArgumentParser, *flags: str) -> None:
    """Give ``sub`` the ring and cap options that its handler reads."""
    for flag in flags:
        sub.add_argument(flag, type=None if flag == "--ring" else int, help=_HELP[flag])


def _common(
    sub: argparse.ArgumentParser,
    diagram_input: bool = True,
    formats: tuple[str, ...] = ("text", "json"),  # those it renders
) -> None:
    sub.add_argument("--format", choices=formats, dest="fmt")
    sub.set_defaults(formats=formats)  # for _settle to check EXKH_FORMAT
    if diagram_input:
        sub.add_argument(
            "input",
            help="PD text, a file of PD text, '-' for stdin, or a catalog name",
        )
        sub.add_argument(
            "--orient",
            action="append",
            default=[],
            metavar="COMP:+|-",
            help="keep (+) or reverse (-) the orientation of a component, "
            "e.g. --orient 1:-",
        )


def _load_diagram(spec: str, orient: list[str]) -> Diagram:
    if spec == "-":
        d = parse_pd(sys.stdin.read())
    elif is_pd_text(spec):
        d = parse_pd(spec)
    else:
        catalog = load_catalog()
        if spec in catalog:
            d = catalog[spec].diagram()
        elif os.path.exists(spec):
            with open(spec) as fh:
                d = parse_pd(fh.read())
        else:
            raise ExkhError(
                f"input {spec!r} is not PD text, a readable file or one of "
                f"the catalog entries {sorted(catalog)}"
            )
    count = len(d.components)
    for item in orient:
        comp, _, sign = item.partition(":")
        if sign not in ("+", "-", "+1", "-1") or comp not in map(str, range(count)):
            raise ExkhError(
                f"--orient wants COMP:+ or COMP:-, 0 <= COMP < {count}, got {item!r}"
            )
        if sign.startswith("-"):
            d = d.reverse_component(int(comp))
    return d


def _emit(payload: dict, args, text_lines) -> None:
    if args.fmt == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _row_payload(row, ring: str) -> dict:
    return {
        "j": row.j,
        "groups": {str(i): g.to_text(ring) for i, g in sorted(row.groups.items())},
        "provenance": row.provenance,
        "n": row.n,
        "shift": row.shift,
    }


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_parse(args) -> int:
    d = _load_diagram(args.input, args.orient)
    payload = {
        "pd": d.to_pd(),
        "crossings": d.crossing_count,
        "signs": list(d.signs),
        "writhe": d.writhe,
        "components": d.component_count,
        "free_loops": d.free_loops,
        "hash": pd_hash(d),
    }
    lines = [
        d.to_pd(),
        f"crossings: {d.crossing_count} "
        f"(+{d.positive_count}, -{d.negative_count}), writhe {d.writhe}",
        f"components: {d.component_count} ({d.free_loops} crossingless)",
        f"hash: {pd_hash(d)}",
    ]
    _emit(payload, args, lines)
    return 0


def _cmd_resolve(args) -> int:
    d = _load_diagram(args.input, args.orient)
    labels = args.state or "A" * d.crossing_count
    rs = d.resolve(State(tuple(labels.upper())))
    plural = "" if rs.circle_count == 1 else "s"
    lines = [
        f"state {labels.upper() or '(empty)'}: {rs.circle_count} circle{plural}"
    ]
    for k, circle in enumerate(rs.circles):
        pts = " ".join(f"{ci}.{half}" for ci, half in circle)
        lines.append(f"circle {k}: {pts}")
    _emit(json.loads(rs.to_json()), args, lines)
    return 0


def _cmd_lando(args) -> int:
    d = _load_diagram(args.input, args.orient)
    g = build_lando(d)
    if args.fmt == "dot":
        print(g.to_dot("lando"))
        return 0
    ig = independence_number(g)
    kb = is_complete_bipartite(g)
    payload = {
        "vertices": [str(v) for v in g.vertices],
        "edges": sorted(sorted(str(x) for x in e) for e in g.edges),
        "independence_number": ig,
        "complete_bipartite": list(kb) if kb else None,
    }
    lines = [
        f"{len(g.vertices)} vertices, {len(g.edges)} edges, I(G)={ig}",
        "vertices: " + " ".join(str(v) for v in g.vertices),
    ]
    lines += ["edge: " + " -- ".join(e) for e in payload["edges"]]
    lines.append(
        f"complete bipartite: K_{{{kb[0]},{kb[1]}}}" if kb
        else "complete bipartite: no"
    )
    _emit(payload, args, lines)
    return 0


def _cmd_complex(args) -> int:
    d = _load_diagram(args.input, args.orient)
    x = independence_complex(build_lando(d), args.max_faces)
    cc = coboundary_complex(x)
    maps = sorted(cc.rows.items())
    fv = x.f_vector()
    if args.fmt == "json":
        payload = json.loads(x.to_json())
        payload["f_vector"] = list(fv)
        payload["coboundaries"] = {
            str(deg): [sorted(r.items()) for r in rows] for deg, rows in maps
        }
        _emit(payload, args, ())
        return 0
    print(f"faces: {sum(fv)}, f-vector {fv}")
    print(f"dimension: {x.dimension}")
    for deg in cc.degrees:
        faces = ", ".join("{" + ",".join(map(str, f)) + "}" for f in cc.bases[deg])
        print(f"degree {deg}: {faces}")
    for deg, rows in maps:
        print(f"coboundary {deg} -> {deg + 1}:")
        for r in rows:
            print("  [" + " ".join(f"{k}:{v:+d}" for k, v in sorted(r.items())) + "]")
    return 0


def _compare_routes(d: Diagram, args, side: str) -> tuple[dict[str, ExtremeRow], str]:
    """The row at ``side`` by each of the three routes, and the message
    that names them if any two disagree, else ''."""
    rows = {
        m: extreme_row(d, args.ring, m, args.max_faces, args.max_crossings, side)
        for m in ("lando", "brute", "dual")
    }
    if len({(r.j, tuple(sorted(r.groups.items()))) for r in rows.values()}) == 1:
        return rows, ""
    summaries = " / ".join(f"{m} {r.summary(args.ring)}" for m, r in rows.items())
    return rows, f"extreme rows disagree at j_{side} ({summaries})"


def _cmd_extreme(args) -> int:
    d = _load_diagram(args.input, args.orient)
    if args.method != "both":
        row = extreme_row(
            d, args.ring, args.method, args.max_faces, args.max_crossings, args.side
        )
        _emit(_row_payload(row, args.ring), args, [row.summary(args.ring)])
        return 0
    rows, disagreement = _compare_routes(d, args, args.side)
    payload = {m: _row_payload(r, args.ring) for m, r in rows.items()}
    payload["agreement"] = not disagreement
    lines = [f"{m}: {r.summary(args.ring)}" for m, r in rows.items()]
    lines.append(f"agreement: {'MISMATCH' if disagreement else 'OK'}")
    _emit(payload, args, lines)
    if disagreement:
        print(disagreement, file=sys.stderr)
        return AGREEMENT_EXIT
    return 0


def _cmd_khovanov(args) -> int:
    d = _load_diagram(args.input, args.orient)
    table = khovanov_cohomology(d, args.ring, args.max_crossings)
    if args.fmt == "json":
        print(table.to_json())
    else:
        if args.ring != "Z":
            print(f"coefficients: {args.ring}")
        print(table.to_text())
        print(f"graded euler characteristic: {table.graded_euler_characteristic()}")
    return 0


def _cmd_jones(args) -> int:
    d = _load_diagram(args.input, args.orient)
    bracket = kauffman_bracket(d, args.max_crossings)
    v = jones(d, args.max_crossings)
    q = graded_jones(d, args.max_crossings)
    payload = {
        "kauffman_bracket_A": str(bracket), "jones_A": str(v), "graded_q": str(q)
    }
    lines = [
        f"kauffman bracket (A): {bracket}",
        f"jones, writhe-normalised (A): {v}",
        f"graded euler characteristic (q): {q}",
    ]
    _emit(payload, args, lines)
    return 0


def _cmd_families(args) -> int:
    kind = args.kind
    if kind == "list":
        payload = {name: e.summary for name, e in sorted(load_catalog().items())}
        _emit(payload, args, [f"{name}: {s}" for name, s in payload.items()])
        return 0
    arg = args.arg
    if kind == "show":
        catalog = load_catalog()
        if arg not in catalog:
            raise ExkhError(f"no catalog entry {arg!r}; the entries are {sorted(catalog)}")
        entry = catalog[arg]
        payload = {"name": entry.name, "pd": entry.pd, "expected": entry.expected}
        _emit(payload, args, [entry.pd])
        return 0
    if kind == "thick":
        d = thick_family(arg)
        _emit({"pd": d.to_pd()}, args, [d.to_pd()])
        return 0
    if kind == "joins":
        table = join_power_table(arg, args.max_faces)
        payload = {str(k): str(g) for k, g in sorted(table.items())}
        lines = [f"H~_{k} = {g}" for k, g in sorted(table.items())]
        want = binomial_row(arg)
        ok = table == {k: g for k, g in want.items() if not g.is_trivial}
        lines.append(f"binomial pattern: {'OK' if ok else 'MISMATCH'}")
        _emit(payload, args, lines)
        return 0 if ok else 1
    out = random_diagrams(  # kind == "random", the last of argparse's choices
        arg,
        max_crossings=args.max_crossings,
        seed=args.seed,
        multi_component=args.multi_component,
    )
    payload = [d.to_pd() for d in out]
    _emit({"diagrams": payload}, args, payload)
    return 0


def _verify_one(d: Diagram, label: str, args) -> int:
    """Every cross-check on one diagram, each failure printed as it shows.

    Returns 3 if the extreme-row routes disagree, at j_min or, on a
    planar diagram, at j_max, or the lando j_max row disagrees with the
    table, else 1 if any other check failed, else 0.  A cap overrun is not
    a failed check: it propagates.  A virtual diagram has no table and no
    j_max row to check.
    """
    c = d.crossing_count
    checks = []
    status = 0

    def check(ok: bool, name: str, failure: str, code: int = 1) -> None:
        nonlocal status
        if ok:
            checks.append(name)
        else:
            print(f"{label}: {failure}", file=sys.stderr)
            status = max(status, code)

    if c <= 12:
        scan = scanned_j_range(d, args.max_crossings)
        check(scan == j_bounds(d), "j-bounds",
              "j-bound formulas disagree with the state scan")

    g = build_lando(d)
    bracket = kauffman_bracket(d, args.max_crossings)
    s_a = d._extreme_circle_counts[0]  # all-A circles, free loops in
    top = c + 2 * s_a - 2
    coeff = bracket.coefficient(top)
    want = (-1) ** (s_a - 1) * independence_number(g)
    check(coeff == want, "bracket-vs-I(G)",
          "extreme bracket coefficient != signed I(G)")

    _, disagreement = _compare_routes(d, args, "min")
    check(not disagreement, "extreme-routes", disagreement, AGREEMENT_EXIT)
    if d.is_planar:
        tops, disagreement = _compare_routes(d, args, "max")
        check(not disagreement, "jmax-routes", disagreement, AGREEMENT_EXIT)

    if c <= 10 and d.is_planar:
        table = khovanov_cohomology(d, args.ring, args.max_crossings)
        euler = table.graded_euler_characteristic()
        check(euler == graded_jones(d, args.max_crossings), "euler-vs-jones",
              "table euler characteristic != jones")
        js = {j for _, j in table.entries}
        check(len({j % 2 for j in js}) <= 1, "j-parity",
              "mixed j parities in the table")
        top = tops["lando"]
        want_top = table.row(top.j)
        check(top.groups == want_top, "jmax-vs-table",
              f"j_max rows disagree (lando {top.summary(args.ring)} / "
              f"table {replace(top, groups=want_top).summary(args.ring)})",
              AGREEMENT_EXIT)

    if not status:
        print(f"{label}: ok ({', '.join(checks)})")
    return status


def _cmd_verify(args) -> int:
    diagrams: list[tuple[str, Diagram]] = []
    if args.inputs:
        for spec in args.inputs:
            diagrams.append((spec, _load_diagram(spec, [])))
    else:
        for name, entry in sorted(load_catalog().items()):
            diagrams.append((name, entry.diagram()))
        corpus = random_diagrams(
            args.count, max_crossings=min(args.max_crossings, 10),
            seed=args.seed,
        )
        diagrams += [
            (f"random-{k}", d) for k, d in enumerate(corpus)
        ]
    statuses = [_verify_one(d, label, args) for label, d in diagrams]
    failed = sum(1 for s in statuses if s)
    print(f"verified {len(diagrams)} diagrams, {failed} failed")
    return max(statuses, default=0)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="exkh", description=__doc__.splitlines()[0])
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="normalise a diagram and report counts")
    _common(p)
    p.set_defaults(fn=_cmd_parse)

    p = subs.add_parser("resolve", help="smooth every crossing of a state")
    _common(p)
    p.add_argument("--state", help="A/B letters, one per crossing (default all A)")
    p.set_defaults(fn=_cmd_resolve)

    p = subs.add_parser("lando", help="Lando graph and its independence number")
    _common(p, formats=("text", "json", "dot"))
    p.set_defaults(fn=_cmd_lando)

    p = subs.add_parser(
        "complex", help="independence complex of the Lando graph"
    )
    _common(p)
    _limits(p, "--max-faces")
    p.set_defaults(fn=_cmd_complex)

    p = subs.add_parser(
        "extreme", help="extreme cohomology row by three independent routes"
    )
    _common(p)
    _limits(p, "--ring", "--max-crossings", "--max-faces")
    p.add_argument(
        "--side", choices=("min", "max"), default="min",
        help="'max' is the top row, by Khovanov duality from the mirror's row",
    )
    p.add_argument(
        "--method",
        choices=("both", "lando", "brute", "dual"),
        default="both",
        help="'both' compares the lando, brute and dual routes",
    )
    p.set_defaults(fn=_cmd_extreme)

    p = subs.add_parser("khovanov", help="full cohomology table")
    _common(p)
    _limits(p, "--ring", "--max-crossings")
    p.set_defaults(fn=_cmd_khovanov)

    p = subs.add_parser("jones", help="bracket and Jones polynomials")
    _common(p)
    _limits(p, "--max-crossings")
    p.set_defaults(fn=_cmd_jones)

    p = subs.add_parser("families", help="catalog and generated examples")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, help_, arg_help in (
        ("list", "the catalog entries", None),
        ("show", "one catalog entry", "the entry's name"),
        ("thick", "the one-component diagram with n + 1 extreme groups", "n"),
        ("joins", "homology of the n-fold join of the square plus a point", "n"),
        ("random", "reproducible braid closures", "how many"),
    ):
        k = kinds.add_parser(kind, help=help_)
        _common(k, diagram_input=False)
        k.set_defaults(fn=_cmd_families)
        if arg_help:
            k.add_argument("arg", type=None if kind == "show" else int, help=arg_help)
    _limits(kinds.choices["joins"], "--max-faces")
    k = kinds.choices["random"]
    _limits(k, "--max-crossings")
    k.add_argument("--seed", type=int)
    k.add_argument(
        "--multi-component", action="store_true",
        help="only diagrams with two or more crossing components",
    )

    p = subs.add_parser("verify", help="replay the invariant suite on a corpus")
    _common(p, diagram_input=False, formats=("text",))
    _limits(p, "--ring", "--max-crossings", "--max-faces")
    p.add_argument("inputs", nargs="*", help="diagrams; default is catalog + random corpus")
    p.add_argument("--count", type=int, default=25, help="random corpus size")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _settle(args)
        return args.fn(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (ExkhError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
