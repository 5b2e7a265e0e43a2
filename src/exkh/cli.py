"""Command-line front end.

One subcommand per pipeline stage: ``parse`` and ``resolve`` inspect
diagrams, ``lando`` / ``complex`` expose the geometric side, ``extreme``
runs the graph route and the enhanced-state route side by side, ``khovanov``
and ``jones`` print full invariants, ``families`` emits the shipped and
generated example diagrams, and ``verify`` replays the cross-checks on a
corpus.

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

from .diagram import Diagram, State, parse_pd, pd_hash
from .errors import CapExceeded, ExkhError
from .extreme import (
    extreme_jmax,
    extreme_row,
    extreme_via_brute,
    extreme_via_lando,
)
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
    """argparse reserves exit code 2 for usage errors; we need it for caps."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env(name: str, fallback):
    raw = os.environ.get(f"EXKH_{name}")
    if raw is None:
        return fallback
    try:
        return type(fallback)(raw)
    except ValueError:
        raise ExkhError(
            f"EXKH_{name}={raw!r} is not a valid {type(fallback).__name__}"
        ) from None


def _common(sub: argparse.ArgumentParser, diagram_input: bool = True) -> None:
    sub.add_argument(
        "--ring",
        default=_env("RING", "Z"),
        help="coefficient ring: Z, Q or Fp for a prime p (default Z)",
    )
    sub.add_argument(
        "--max-crossings",
        type=int,
        default=_env("MAX_CROSSINGS", DEFAULT_CROSSING_CAP),
        help="refuse state enumeration beyond this many crossings",
    )
    sub.add_argument(
        "--max-faces",
        type=int,
        default=_env("MAX_FACES", DEFAULT_FACE_CAP),
        help="refuse simplicial complexes beyond this many faces",
    )
    sub.add_argument(
        "--format",
        choices=("text", "json", "dot"),
        default=_env("FORMAT", "text"),
        dest="fmt",
    )
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
    elif "X(" in spec or spec.strip().replace("U", "").strip() == "":
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
    for item in orient:
        comp, _, sign = item.partition(":")
        if sign not in ("+", "-", "+1", "-1"):
            raise ExkhError(f"--orient wants COMP:+ or COMP:-, got {item!r}")
        if sign.startswith("-"):
            d = d.reverse_component(int(comp))
    return d


def _emit(payload: dict, args, text_lines) -> None:
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
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
    _emit(
        payload,
        args,
        [
            d.to_pd(),
            f"crossings: {d.crossing_count} "
            f"(+{d.positive_count}, -{d.negative_count}), writhe {d.writhe}",
            f"components: {d.component_count} "
            f"({d.free_loops} crossingless)",
            f"hash: {pd_hash(d)}",
        ],
    )
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
    lines += [
        "edge: " + " -- ".join(sorted(str(x) for x in e)) for e in sorted(
            g.edges, key=lambda e: sorted(str(x) for x in e)
        )
    ]
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
    matrices = cc.matrices
    payload = json.loads(x.to_json())
    fv = x.f_vector(args.max_faces)
    payload["f_vector"] = list(fv)
    payload["coboundaries"] = {
        str(deg): [list(r) for r in matrices[deg]] for deg in cc.degrees[:-1]
    }
    lines = [
        f"faces: {sum(fv)}, f-vector {fv}",
        f"dimension: {x.dimension}",
    ]
    for deg in cc.degrees:
        faces = ", ".join(
            "{" + ",".join(str(v) for v in f) + "}" for f in cc.bases[deg]
        )
        lines.append(f"degree {deg}: {faces}")
    for deg in cc.degrees[:-1]:
        lines.append(f"coboundary {deg} -> {deg + 1}:")
        for r in matrices[deg]:
            lines.append("  [" + " ".join(f"{v:3d}" for v in r) + "]")
    _emit(payload, args, lines)
    return 0


def _cmd_extreme(args) -> int:
    d = _load_diagram(args.input, args.orient)
    if args.side == "max" or args.method != "both":
        if args.side == "max":
            row = extreme_jmax(d, args.ring, args.max_faces)
        else:
            row = extreme_row(
                d, args.ring, args.method, args.max_faces, args.max_crossings
            )
        _emit(_row_payload(row, args.ring), args, [row.summary(args.ring)])
        return 0
    lando = extreme_via_lando(d, args.ring, args.max_faces)
    brute = extreme_via_brute(d, args.ring, args.max_crossings)
    agree = lando.groups == brute.groups and lando.j == brute.j
    payload = {
        "lando": _row_payload(lando, args.ring),
        "brute": _row_payload(brute, args.ring),
        "agreement": agree,
    }
    lines = [
        f"lando: {lando.summary(args.ring)}",
        f"brute: {brute.summary(args.ring)}",
        f"agreement: {'OK' if agree else 'MISMATCH'}",
    ]
    _emit(payload, args, lines)
    if not agree:
        print(
            "extreme rows disagree between the graph route and brute force",
            file=sys.stderr,
        )
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
        "kauffman_bracket_A": str(bracket),
        "jones_A": str(v),
        "graded_q": str(q),
    }
    _emit(
        payload,
        args,
        [
            f"kauffman bracket (A): {bracket}",
            f"jones, writhe-normalised (A): {v}",
            f"graded euler characteristic (q): {q}",
        ],
    )
    return 0


def _cmd_families(args) -> int:
    kind, arg = args.kind, args.arg
    if kind != "list" and arg is None:
        raise ExkhError(f"families {kind} needs an argument")
    if kind == "list":
        catalog = load_catalog()
        payload = {name: e.summary for name, e in sorted(catalog.items())}
        _emit(
            payload,
            args,
            [f"{name}: {e.summary}" for name, e in sorted(catalog.items())],
        )
        return 0
    if kind == "show":
        entry = load_catalog()[arg]
        payload = {
            "name": entry.name,
            "pd": entry.pd,
            "expected": entry.expected,
        }
        _emit(payload, args, [entry.pd])
        return 0
    if kind == "thick":
        d = thick_family(int(arg))
        _emit({"pd": d.to_pd()}, args, [d.to_pd()])
        return 0
    if kind == "joins":
        n = int(arg)
        table = join_power_table(n, args.max_faces)
        payload = {str(k): str(g) for k, g in sorted(table.items())}
        lines = [f"H~_{k} = {g}" for k, g in sorted(table.items())]
        want = binomial_row(n)
        ok = table == {k: g for k, g in want.items() if not g.is_trivial}
        lines.append(f"binomial pattern: {'OK' if ok else 'MISMATCH'}")
        _emit(payload, args, lines)
        return 0 if ok else 1
    if kind == "random":
        out = random_diagrams(
            int(arg),
            max_crossings=args.max_crossings,
            seed=args.seed,
            multi_component=args.multi_component,
        )
        payload = [d.to_pd() for d in out]
        _emit({"diagrams": payload}, args, payload)
        return 0
    raise ExkhError(f"unknown families kind {kind!r}")


def _verify_one(d: Diagram, label: str, args) -> int:
    """Every cross-check on one diagram, each failure printed as it shows.

    Returns 3 if the extreme-row routes disagree, or the j_max row through
    the mirror disagrees with the table, else 1 if any other check failed,
    else 0.  A cap overrun is not a failed check: it propagates.
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
    top = c + 2 * len(d._resolve_bits(0)) - 2
    coeff = bracket.coefficient(top)
    want = (-1) ** (len(d._resolve_bits(0)) - 1) * independence_number(g)
    check(coeff == want, "bracket-vs-I(G)",
          "extreme bracket coefficient != signed I(G)")

    lando = extreme_via_lando(d, args.ring, args.max_faces)
    brute = extreme_via_brute(d, args.ring, args.max_crossings)
    dual = extreme_row(d, args.ring, "dual", args.max_faces)
    check(lando.groups == brute.groups == dual.groups, "extreme-routes",
          f"extreme rows disagree (lando {lando.summary(args.ring)} / "
          f"brute {brute.summary(args.ring)} / "
          f"dual {dual.summary(args.ring)})", AGREEMENT_EXIT)

    if c <= 10:
        table = khovanov_cohomology(d, "Z", args.max_crossings)
        euler = table.graded_euler_characteristic()
        check(euler == graded_jones(d, args.max_crossings), "euler-vs-jones",
              "table euler characteristic != jones")
        js = {j for _, j in table.entries}
        check(len({j % 2 for j in js}) <= 1, "j-parity",
              "mixed j parities in the table")
        top = extreme_jmax(d, "Z", args.max_faces)
        want_top = table.row(top.j)
        check(top.groups == want_top, "jmax-vs-table",
              f"j_max rows disagree (mirror {top.summary()} / "
              f"table {replace(top, groups=want_top).summary()})", AGREEMENT_EXIT)

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
    _common(p)
    p.set_defaults(fn=_cmd_lando)

    p = subs.add_parser(
        "complex", help="independence complex of the Lando graph"
    )
    _common(p)
    p.set_defaults(fn=_cmd_complex)

    p = subs.add_parser(
        "extreme", help="extreme cohomology row by two independent routes"
    )
    _common(p)
    p.add_argument("--side", choices=("min", "max"), default="min")
    p.add_argument(
        "--method",
        choices=("both", "lando", "brute", "dual"),
        default="both",
        help="'both' compares the graph route against brute force",
    )
    p.set_defaults(fn=_cmd_extreme)

    p = subs.add_parser("khovanov", help="full cohomology table")
    _common(p)
    p.set_defaults(fn=_cmd_khovanov)

    p = subs.add_parser("jones", help="bracket and Jones polynomials")
    _common(p)
    p.set_defaults(fn=_cmd_jones)

    p = subs.add_parser("families", help="catalog and generated examples")
    _common(p, diagram_input=False)
    p.add_argument(
        "kind", choices=("list", "show", "thick", "joins", "random")
    )
    p.add_argument("arg", nargs="?", help="name or numeric argument")
    p.add_argument("--seed", type=int, default=_env("SEED", 0))
    p.add_argument(
        "--multi-component", action="store_true",
        help="random: only diagrams with two or more crossing components",
    )
    p.set_defaults(fn=_cmd_families)

    p = subs.add_parser("verify", help="replay the invariant suite on a corpus")
    _common(p, diagram_input=False)
    p.add_argument("inputs", nargs="*", help="diagrams; default is catalog + random corpus")
    p.add_argument("--count", type=int, default=25, help="random corpus size")
    p.add_argument("--seed", type=int, default=_env("SEED", 0))
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        parse_ring(args.ring)
        if args.max_crossings <= 0 or args.max_faces <= 0:
            print("caps must be positive", file=sys.stderr)
            return 1
        return args.fn(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except ExkhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
