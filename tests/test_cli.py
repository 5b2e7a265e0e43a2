import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exkh.cli
from exkh.cli import build_parser, main
from exkh.families import catalog_diagram, knotify, split_union, thick_family

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
HOPF = "X(4,2,1,3) X(2,4,3,1)"
HEXAGON_MIRROR = catalog_diagram("hexagon_link").mirror().to_pd()
SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# basic subcommands
# --------------------------------------------------------------------------


def test_parse_reports_counts(capsys):
    code, out, _ = run(["parse", TREFOIL], capsys)
    assert code == 0
    assert "crossings: 3 (+0, -3), writhe -3" in out
    assert "components: 1" in out


def test_parse_json(capsys):
    code, out, _ = run(["parse", TREFOIL, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["crossings"] == 3 or payload.get("crossing_count") == 3


def test_resolve_state(capsys):
    code, out, _ = run(["resolve", TREFOIL, "--state", "ABA"], capsys)
    assert code == 0
    assert "state ABA: 2 circles" in out


def test_resolve_rejects_bad_state(capsys):
    code, _, err = run(["resolve", TREFOIL, "--state", "AB"], capsys)
    assert code == 1
    assert "error" in err


def test_lando_text(capsys):
    code, out, _ = run(["lando", "eleven_crossing"], capsys)
    assert code == 0
    assert "11 vertices, 12 edges, I(G)=0" in out


def test_lando_refuses_the_face_cap(capsys):
    # the subcommand builds no complex, so it takes no --max-faces
    code, out, err = run(["lando", "eleven_crossing", "--max-faces", "2"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: exkh")
    assert "unrecognized arguments: --max-faces 2" in err


def test_lando_dot(capsys):
    code, out, _ = run(["lando", "eleven_crossing", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("graph lando {")
    assert "--" in out


def test_complex_of_trefoil_is_a_point(capsys):
    code, out, _ = run(["complex", TREFOIL], capsys)
    assert code == 0
    assert "faces: 1" in out


def test_complex_prints_each_coboundary_row_as_its_nonzero_entries(capsys):
    code, out, _ = run(["complex", "hexagon_link"], capsys)
    assert code == 0
    assert "degree 2: {0,2,4}, {1,3,5}" in out
    rows = out.split("coboundary 1 -> 2:\n", 1)[1].splitlines()
    assert rows == ["  [0:+1 2:-1 6:+1]", "  [3:+1 5:-1 8:+1]"]
    code, out, _ = run(["complex", "hexagon_link", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["coboundaries"]["1"] == [[[0, 1], [2, -1], [6, 1]], [[3, 1], [5, -1], [8, 1]]]
    assert payload["maximal_faces"][-2:] == [[0, 2, 4], [1, 3, 5]]


def test_complex_of_a_thick_family_prints_every_row(capsys):
    # printed dense, these maps ran out of memory under a 2.5 GB address limit
    code, out, _ = run(["complex", thick_family(2).to_pd()], capsys)
    assert code == 0
    assert "faces: 37636," in out
    assert sum(line.startswith("  [") for line in out.splitlines()) == 37635


# --------------------------------------------------------------------------
# extreme rows
# --------------------------------------------------------------------------


def test_extreme_both_routes_agree(capsys):
    # 'both' keeps its name and compares all three routes
    code, out, _ = run(["extreme", "hexagon_link"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "lando: j=-13: i=-4: Z^2",
        "brute: j=-13: i=-4: Z^2",
        "dual: j=-13: i=-4: Z^2",
        "agreement: OK",
    ]


def test_extreme_single_method(capsys):
    code, out, _ = run(["extreme", TREFOIL, "--method", "lando"], capsys)
    assert code == 0
    assert out.strip() == "j=-9: i=-3: Z"


def test_extreme_side_max(capsys):
    code, out, _ = run(["extreme", TREFOIL, "--side", "max"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "lando: j=-1: i=0: Z", "brute: j=-1: i=0: Z", "dual: j=-1: i=0: Z", "agreement: OK"
    ]


def test_extreme_side_max_json_keeps_the_mirror_shift(capsys):
    # n is the left trefoil's own; shift is its mirror's n - 1
    code, out, _ = run(["extreme", TREFOIL, "--side", "max", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("agreement") is True
    assert payload == {
        m: {"j": -1, "groups": {"0": "Z"}, "provenance": m, "n": 3, "shift": -1}
        for m in ("lando", "brute", "dual")
    }


@pytest.mark.parametrize("method", ["brute", "dual"])
def test_extreme_side_max_takes_every_route(capsys, method):
    code, out, err = run(["extreme", TREFOIL, "--side", "max", "--method", method], capsys)
    assert (code, err) == (0, "")
    assert out.strip() == "j=-1: i=0: Z"


def test_extreme_side_max_accepts_the_lando_method(capsys):
    code, out, _ = run(["extreme", TREFOIL, "--side", "max", "--method", "lando"], capsys)
    assert code == 0
    assert out.strip() == "j=-1: i=0: Z"


def test_extreme_side_max_refuses_a_virtual_diagram(capsys):
    for method in ("both", "lando", "brute", "dual"):
        argv = ["extreme", "--side", "max", "--method", method, thick_family(1).to_pd()]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, ""), method
        assert "planar" in err and "Traceback" not in err, method


def test_extreme_json(capsys):
    code, out, _ = run(["extreme", "hexagon_link", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["lando"]["j"] == -13
    assert payload["lando"]["groups"] == {"-4": "Z^2"}
    assert payload["brute"]["provenance"] == "brute"
    assert payload["dual"]["groups"] == {"-4": "Z^2"}


@pytest.mark.parametrize(
    "argv, stage",
    [
        (["extreme", "--method", "brute", "--max-crossings", "3", "hexagon_link"],
         "crossing count"),
        # --side max enumerates no states: the face cap holds on the mirror,
        # whose mirror (the hexagon link itself) has the Lando graph C_6;
        # C_6 splits down to edges, and the X of an edge has three faces
        (["extreme", "--side", "max", "--max-faces", "2", HEXAGON_MIRROR],
         "independent set enumeration"),
        (["extreme", "--side", "max", "--method", "brute", "--max-crossings", "5",
          "hexagon_link"], "crossing count"),
    ],
    ids=["brute", "side-max", "side-max-brute"],
)
def test_extreme_brute_paths_keep_crossing_cap(capsys, argv, stage):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert stage in err


def test_extreme_prints_groups_over_q(capsys):
    argv = ["extreme", "--method", "lando", "--ring", "Q", "hexagon_link"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.strip() == "j=-13: i=-4: Q^2"


def test_khovanov_prints_groups_over_f2(capsys):
    code, out, _ = run(["khovanov", "--ring", "F2", TREFOIL], capsys)
    assert code == 0
    assert " -9  F2   ·   ·" in out
    assert "Z" not in out
    argv = ["khovanov", "--ring", "F2", "--format", "json", TREFOIL]
    code, out, _ = run(argv, capsys)
    assert {e["group"] for e in json.loads(out)["entries"]} == {"F2"}


def test_extreme_dual_method(capsys):
    code, out, _ = run(["extreme", "hexagon_link", "--method", "dual"], capsys)
    assert code == 0
    assert "j=-13: i=-4: Z^2" in out


def test_orient_flag_changes_the_answer(capsys):
    code, plain, _ = run(["parse", HOPF], capsys)
    assert code == 0
    assert "(+2, -0)" in plain
    code, flipped, _ = run(["parse", HOPF, "--orient", "1:-"], capsys)
    assert code == 0
    assert "(+0, -2)" in flipped


def test_orient_flag_validation(capsys):
    code, _, err = run(["parse", HOPF, "--orient", "1:x"], capsys)
    assert code == 1
    assert "--orient wants" in err


def test_orient_refuses_what_is_not_a_crossing_component(capsys):
    # the trefoil has one crossing component, 0
    for item in ("x:+", "7:+", "x:-", "1:-", "+0:-"):
        code, out, err = run(["parse", TREFOIL, "--orient", item], capsys)
        assert (code, out) == (1, ""), item
        assert err.startswith("error: --orient wants"), item
        assert "0 <= COMP < 1" in err and repr(item) in err, item
    code, kept, _ = run(["parse", TREFOIL, "--orient", "0:+"], capsys)
    assert code == 0 and kept.startswith(TREFOIL + "\n")
    code, reversed_, _ = run(["parse", TREFOIL, "--orient", "0:-"], capsys)
    assert code == 0 and reversed_.startswith("X(2,5,1,4) X(4,1,3,6) X(6,3,5,2)\n")


# --------------------------------------------------------------------------
# full tables and polynomials
# --------------------------------------------------------------------------


def test_khovanov_table_text(capsys):
    code, out, _ = run(["khovanov", TREFOIL], capsys)
    assert code == 0
    assert "j\\i" in out
    assert "Z/2" in out
    assert "graded euler characteristic: -q^-9 + q^-5 + q^-3 + q^-1" in out


def test_khovanov_table_over_field(capsys):
    code, out, _ = run(["khovanov", TREFOIL, "--ring", "F2"], capsys)
    assert code == 0
    assert "coefficients: F2" in out


def test_jones_output(capsys):
    code, out, _ = run(["jones", TREFOIL], capsys)
    assert code == 0
    assert "kauffman bracket (A): -A^-5 - A^3 + A^7" in out
    assert "jones, writhe-normalised (A): A^4 + A^12 - A^16" in out


# --------------------------------------------------------------------------
# families
# --------------------------------------------------------------------------


def test_families_list(capsys):
    code, out, _ = run(["families", "list"], capsys)
    assert code == 0
    assert "hexagon_link" in out and "eleven_crossing" in out


def test_families_show(capsys):
    code, out, _ = run(["families", "show", "hexagon_link"], capsys)
    assert code == 0
    assert out.strip().startswith("X(")


def test_families_show_names_the_catalog_entries_on_a_miss(capsys):
    code, _, err = run(["families", "show", "nope"], capsys)
    assert code == 1
    assert "hexagon_link" in err


def test_families_random_multi_component_needs_two_crossings():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    argv = ["families", "random", "1", "--multi-component", "--max-crossings", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "exkh", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error:")


def test_families_joins(capsys):
    code, out, _ = run(["families", "joins", "2"], capsys)
    assert code == 0
    assert "H~_2 = Z^2" in out
    assert "binomial pattern: OK" in out


def test_families_thick(capsys):
    code, out, _ = run(["families", "thick", "1"], capsys)
    assert code == 0
    assert out.count("X(") == 15


def test_families_random_seeded(capsys):
    code, first, _ = run(
        ["families", "random", "3", "--seed", "9", "--max-crossings", "6"],
        capsys,
    )
    assert code == 0
    code, second, _ = run(
        ["families", "random", "3", "--seed", "9", "--max-crossings", "6"],
        capsys,
    )
    assert first == second


def test_families_needs_argument(capsys):
    code, _, err = run(["families", "thick"], capsys)
    assert code == 1
    assert err.startswith("usage: exkh families thick")
    assert "the following arguments are required: arg" in err
    code, _, err = run(["families", "thick", "x"], capsys)
    assert code == 1
    assert err.startswith("usage: exkh families thick")
    assert "argument arg: invalid int value: 'x'" in err


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def test_verify_single_diagram(capsys):
    code, out, _ = run(["verify", TREFOIL], capsys)
    assert code == 0
    assert "extreme-routes" in out
    assert "verified 1 diagrams" in out


def test_verify_checks_a_virtual_diagram_without_its_table(capsys):
    d = catalog_diagram("hexagon_link")
    for _ in range(2):
        comps = d.components
        d = knotify(d, min(comps[0]), min(comps[1]))
    assert d.crossing_count == 10 and not d.is_planar
    code, out, err = run(["verify", d.to_pd(), "hexagon_link"], capsys)
    assert (code, err) == (0, "")
    virtual, planar = out.splitlines()[:2]
    assert virtual.endswith(": ok (j-bounds, bracket-vs-I(G), extreme-routes)")
    assert planar.startswith("hexagon_link: ok (") and "jmax-vs-table" in planar
    code, out, err = run(["extreme", d.to_pd()], capsys)
    assert "agreement: OK" in out and "i=-4: Z^2" in out
    code, _, err = run(["khovanov", d.to_pd()], capsys)
    assert code == 1
    assert "planar" in err


def test_verify_small_corpus(capsys):
    code, out, _ = run(["verify", "--count", "3"], capsys)
    assert code == 0
    # catalog entries plus three random diagrams
    assert "verified 5 diagrams" in out


def test_verify_refuses_a_negative_count(capsys):
    code, out, err = run(["verify", "--count", "-1"], capsys)
    assert code == 1
    assert err.startswith("error: ") and "-1" in err
    assert out == ""


def test_verify_cap_applies_to_catalog_entries(capsys):
    # a cap below the catalog's eleven-crossing entry stops the brute route
    code, _, err = run(["verify", "--count", "1", "--max-crossings", "6"], capsys)
    assert code == 2
    assert "cap exceeded" in err


def test_verify_passes_the_crossing_cap_to_every_state_loop(capsys, monkeypatch):
    import exkh.cli as cli
    from exkh.khovanov import DEFAULT_CROSSING_CAP

    caps = []
    for name in ("scanned_j_range", "kauffman_bracket", "graded_jones"):
        real = getattr(cli, name)

        def spy(d, max_crossings=DEFAULT_CROSSING_CAP, _real=real, _name=name):
            caps.append((_name, max_crossings))
            return _real(d, max_crossings)

        monkeypatch.setattr(cli, name, spy)
    code, _, err = run(["verify", "--max-crossings", "5", "hexagon_link"], capsys)
    assert code == 2
    assert "cap exceeded" in err
    assert caps and all(cap <= 5 for _, cap in caps)
    caps.clear()
    code, _, _ = run(["verify", "--max-crossings", "6", "hexagon_link"], capsys)
    assert code == 0
    assert sorted(caps) == [
        ("graded_jones", 6), ("kauffman_bracket", 6), ("scanned_j_range", 6)
    ]


def with_an_extra_group(route):
    """``route`` with Z added at i=99 to every row it returns."""
    import dataclasses

    from exkh.simplicial import AbelianGroup

    def disagreeing(d, *args):
        row = route(d, *args)
        return dataclasses.replace(row, groups={**row.groups, 99: AbelianGroup(1)})

    return disagreeing


@pytest.mark.parametrize("side", ["min", "max"])
def test_extreme_exits_three_when_a_route_disagrees(capsys, monkeypatch, side):
    from exkh import extreme

    monkeypatch.setattr(extreme, "extreme_via_dual", with_an_extra_group(extreme.extreme_via_dual))
    code, out, err = run(["extreme", "hexagon_link", "--side", side], capsys)
    assert code == 3
    assert out.splitlines()[-1] == "agreement: MISMATCH"
    assert f"extreme rows disagree at j_{side} (lando " in err


def test_every_route_at_j_max_reads_one_mirror(capsys, monkeypatch):
    from exkh.diagram import Diagram

    mirrors = []
    mirror = Diagram.mirror

    def counting(d):
        mirrors.append(d)
        return mirror(d)

    monkeypatch.setattr(Diagram, "mirror", counting)
    code, out, _ = run(["extreme", "hexagon_link", "--side", "max"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "agreement: OK"
    assert len(mirrors) == 1


def test_verify_reports_every_failure(capsys, monkeypatch):
    from exkh import extreme

    # the brute route of the mirror gives the j_max row, so both sides fail
    monkeypatch.setattr(extreme, "extreme_via_brute", with_an_extra_group(extreme.extreme_via_brute))
    code, out, err = run(["verify", TREFOIL, "hexagon_link"], capsys)
    assert code == 3
    for label in (TREFOIL, "hexagon_link"):
        assert f"{label}: extreme rows disagree at j_min" in err
        assert f"{label}: extreme rows disagree at j_max" in err
    assert "verified 2 diagrams, 2 failed" in out


def test_verify_checks_the_top_row_against_the_table(capsys, monkeypatch):
    import exkh.cli as cli

    code, out, _ = run(["verify", TREFOIL], capsys)
    assert code == 0
    assert "jmax-routes" in out and "jmax-vs-table" in out
    honest = cli.extreme_row
    wrong = with_an_extra_group(honest)

    def wrong_at_the_top(d, ring, method, *args):
        route = wrong if (method, args[-1]) == ("lando", "max") else honest
        return route(d, ring, method, *args)

    monkeypatch.setattr(cli, "extreme_row", wrong_at_the_top)
    code, out, err = run(["verify", TREFOIL], capsys)
    assert code == 3
    assert f"{TREFOIL}: extreme rows disagree at j_max" in err
    assert "extreme rows disagree at j_min" not in err
    assert f"{TREFOIL}: j_max rows disagree" in err
    assert "i=99: Z" in err and "table j=-1: i=0: Z)" in err
    assert "verified 1 diagrams, 1 failed" in out


def test_extreme_side_max_reaches_past_the_crossing_cap(capsys):
    eleven = catalog_diagram("eleven_crossing")
    d = split_union(eleven, eleven)
    assert d.crossing_count > 16
    for method in ("lando", "dual"):
        code, out, _ = run(["extreme", "--side", "max", "--method", method, d.to_pd()], capsys)
        assert code == 0
        # the top row of each factor is Z at i=8, so theirs tensor to Z at i=16
        assert out.strip() == "j=34: i=16: Z"
    # the default comparison takes in the brute route, which stops at the cap
    code, out, err = run(["extreme", "--side", "max", d.to_pd()], capsys)
    assert (code, out) == (2, "")
    assert "crossing count" in err


def test_verify_other_failures_exit_one(capsys, monkeypatch):
    import exkh.cli as cli

    monkeypatch.setattr(cli, "independence_number", lambda g: 7)
    code, out, err = run(["verify", TREFOIL, "hexagon_link"], capsys)
    assert code == 1
    assert err.count("extreme bracket coefficient != signed I(G)") == 2
    assert "verified 2 diagrams, 2 failed" in out


# --------------------------------------------------------------------------
# inputs and exit codes
# --------------------------------------------------------------------------


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(TREFOIL))
    code, out, _ = run(["parse", "-"], capsys)
    assert code == 0
    assert "crossings: 3" in out


def test_file_input(capsys, tmp_path):
    p = tmp_path / "diagram.txt"
    p.write_text(TREFOIL + "\n")
    code, out, _ = run(["parse", str(p)], capsys)
    assert code == 0
    assert "crossings: 3" in out


@pytest.mark.parametrize(
    "spelling,canonical",
    [
        ("x(1,4,2,5) x(3,6,4,1) x(5,2,6,3)", TREFOIL),
        ("X (1,4,2,5) X (3,6,4,1) X (5,2,6,3)", TREFOIL),
        ("u", "U"),
        ("u U", "U U"),
    ],
)
def test_inline_pd_in_every_spelling_parse_pd_accepts(capsys, spelling, canonical):
    code, out, err = run(["parse", spelling, "--format", "json"], capsys)
    assert code == 0, err
    assert (code, out) == run(["parse", canonical, "--format", "json"], capsys)[:2]


def test_unknown_input_is_an_error(capsys):
    code, _, err = run(["parse", "not a diagram"], capsys)
    assert code == 1
    assert "catalog entries" in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "exkh", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    ok = module("extreme", TREFOIL)
    assert ok.returncode == 0, ok.stderr
    assert "agreement: OK" in ok.stdout
    bad = module("extreme", "X(1,2,3)")
    assert bad.returncode == 1
    assert bad.stderr.startswith("error:")
    assert "Traceback" not in bad.stderr


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run(["khovanov", TREFOIL, "--max-crossings", "1"], capsys)
    assert code == 2
    assert "cap exceeded" in err


def test_face_cap_exit_code(capsys):
    code, _, err = run(
        ["extreme", "hexagon_link", "--method", "lando", "--max-faces", "2"],
        capsys,
    )
    assert code == 2
    assert "cap exceeded" in err


def test_face_cap_holds_on_the_dual_route(capsys):
    # the dual route builds one Y_k per Lando component, 10 faces each here
    pd = thick_family(3).to_pd()
    code, _, err = run(
        ["extreme", pd, "--method", "dual", "--max-faces", "9"], capsys
    )
    assert code == 2
    assert "Y_D face enumeration" in err
    code, out, _ = run(
        ["extreme", pd, "--method", "dual", "--max-faces", "10"], capsys
    )
    assert code == 0
    assert "i=0: Z, i=1: Z^3, i=2: Z^3, i=3: Z" in out


def test_bad_ring_exit_code(capsys):
    code, _, err = run(["khovanov", TREFOIL, "--ring", "F4"], capsys)
    assert code == 1


def test_a_large_prime_ring_is_answered_at_once():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for ring, code in (("F100000000000000000039", 0), ("F3215031751", 1)):
        done = subprocess.run(
            [sys.executable, "-m", "exkh", "khovanov", TREFOIL, "--ring", ring],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == code, (ring, done.stderr)
    assert "unknown coefficient ring 'F3215031751'" in done.stderr


def test_a_ring_int_would_read_is_refused(capsys, monkeypatch):
    code, out, err = run(["khovanov", TREFOIL, "--ring", "F 2"], capsys)
    assert (code, out) == (1, "")
    assert err.strip() == "error: unknown coefficient ring 'F 2' (use Z, Q or Fp)"
    monkeypatch.setenv("EXKH_RING", "F02")
    code, out, err = run(["khovanov", TREFOIL], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: EXKH_RING=F02: unknown coefficient ring 'F02'")


def test_nonpositive_cap_rejected(capsys):
    code, _, err = run(["khovanov", TREFOIL, "--max-crossings", "0"], capsys)
    assert code == 1
    assert "caps must be positive" in err
    assert err.strip() == "error: caps must be positive: --max-crossings 0"
    code, out, err = run(["extreme", TREFOIL, "--max-faces", "-3"], capsys)
    assert (code, out) == (1, "")
    assert err.strip() == "error: caps must be positive: --max-faces -3"


def test_usage_error_is_exit_one(capsys):
    code, _, err = run(["bogus"], capsys)
    assert code == 1
    assert "invalid choice" in err


def test_env_overrides_format(capsys, monkeypatch):
    monkeypatch.setenv("EXKH_FORMAT", "json")
    code, out, _ = run(["extreme", "hexagon_link"], capsys)
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_env_overrides_ring(capsys, monkeypatch):
    monkeypatch.setenv("EXKH_RING", "F3")
    code, out, _ = run(["khovanov", TREFOIL], capsys)
    assert code == 0
    assert "coefficients: F3" in out


def test_bad_env_value_is_exit_one(capsys, monkeypatch):
    monkeypatch.setenv("EXKH_MAX_CROSSINGS", "abc")
    code, _, err = run(["khovanov", "hexagon_link"], capsys)
    assert code == 1
    assert err.strip() == "error: EXKH_MAX_CROSSINGS='abc' is not a valid int"


def test_out_of_range_env_format_is_exit_one(capsys, monkeypatch):
    monkeypatch.setenv("EXKH_FORMAT", "xml")
    code, out, err = run(["parse", TREFOIL], capsys)
    assert (code, out) == (1, "")
    assert "EXKH_FORMAT" in err


def test_env_format_dot_only_on_lando(capsys, monkeypatch):
    monkeypatch.setenv("EXKH_FORMAT", "dot")
    code, out, _ = run(["lando", "eleven_crossing"], capsys)
    assert code == 0 and out.startswith("graph lando {")
    code, out, err = run(["parse", TREFOIL], capsys)
    assert (code, out) == (1, "")
    assert "EXKH_FORMAT" in err


@pytest.mark.parametrize("command", ["complex", "jones", "khovanov"])
def test_dot_format_is_refused_where_no_graph_is_drawn(capsys, command):
    code, out, err = run([command, TREFOIL, "--format", "dot"], capsys)
    assert (code, out) == (1, "")
    assert "invalid choice" in err


def test_verify_renders_text_only(capsys, monkeypatch):
    code, out, err = run(["verify", "--count", "1", "--format", "json"], capsys)
    assert (code, out) == (1, "")
    assert "invalid choice" in err
    monkeypatch.setenv("EXKH_FORMAT", "json")
    code, out, err = run(["verify", "--count", "1"], capsys)
    assert (code, out) == (1, "")
    assert "EXKH_FORMAT" in err


# --------------------------------------------------------------------------
# each subcommand takes only the options it reads
# --------------------------------------------------------------------------


def _nested(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs[0].choices if subs else {}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """The parser of every command that runs, ``families`` one per kind."""
    out = {}
    for name, sub in _nested(build_parser()).items():
        kinds = _nested(sub)
        out.update({f"{name} {k}": leaf for k, leaf in kinds.items()} or {name: sub})
    return out


def _options(sub: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]


LIMITS = {
    "parse": set(),
    "resolve": set(),
    "lando": set(),
    "complex": {"--max-faces"},
    "khovanov": {"--ring", "--max-crossings"},
    "jones": {"--max-crossings"},
    "families list": set(),
    "families show": set(),
    "families thick": set(),
    "families joins": {"--max-faces"},
    "families random": {"--max-crossings"},
    "extreme": {"--ring", "--max-crossings", "--max-faces"},
    "verify": {"--ring", "--max-crossings", "--max-faces"},
}


def test_ring_and_caps_go_only_to_the_subcommands_that_read_them():
    subs = _subparsers()
    assert set(subs) == set(LIMITS)
    for name, sub in subs.items():
        flags = {f for a in _options(sub) for f in a.option_strings}
        assert flags & {"--ring", "--max-crossings", "--max-faces"} == LIMITS[name], name
    count = sum(1 for sub in subs.values() for a in _options(sub) if a.option_strings)
    assert count == 39


def _args_reads() -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """For each function of the cli module: the attributes it reads off
    ``args``, and the module's functions it calls by name."""
    tree = ast.parse(Path(exkh.cli.__file__).read_text(encoding="utf-8"))
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    reads, calls = {}, {}
    for name, func in funcs.items():
        nodes = list(ast.walk(func))
        reads[name] = {
            n.attr for n in nodes
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id == "args" and isinstance(n.ctx, ast.Load)
        }
        calls[name] = {
            n.func.id for n in nodes
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id in funcs
        }
    return reads, calls


def _read_from(start: str, reads, calls) -> set[str]:
    seen, todo, out = set(), [start], set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            out |= reads[name]
            todo.extend(calls[name])
    return out


def test_every_option_is_read_by_its_handler_or_main():
    reads, calls = _args_reads()
    by_main = _read_from("main", reads, calls)
    for name, sub in _subparsers().items():
        handler = sub.get_default("fn").__name__
        read = _read_from(handler, reads, calls) | by_main
        unread = [a.dest for a in _options(sub) if a.dest not in read]
        assert unread == [], f"{name}: {handler} never reads {unread}"


@pytest.mark.parametrize(
    "env, argv",
    [
        ({"EXKH_SEED": "abc"}, ["parse", TREFOIL]),
        ({"EXKH_RING": "F4"}, ["parse", TREFOIL]),
        ({"EXKH_MAX_FACES": "0"}, ["jones", TREFOIL]),
        ({"EXKH_MAX_CROSSINGS": "0"}, ["lando", "eleven_crossing"]),
        ({"EXKH_MAX_FACES": "0"}, ["families", "list"]),
        ({"EXKH_MAX_CROSSINGS": "0", "EXKH_SEED": "x"}, ["families", "thick", "1"]),
        ({"EXKH_MAX_CROSSINGS": "0"}, ["families", "joins", "2"]),
        ({"EXKH_MAX_FACES": "0"}, ["families", "random", "2", "--max-crossings", "5"]),
    ],
    ids=[
        "seed-parse", "ring-parse", "faces-jones", "crossings-lando", "faces-families-list",
        "crossings-families-thick", "crossings-families-joins", "faces-families-random",
    ],
)
def test_variables_of_options_a_subcommand_lacks_are_not_read(
    capsys, monkeypatch, env, argv
):
    code, plain, _ = run(argv, capsys)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert run(argv, capsys) == (code, plain, "")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["jones", TREFOIL, "--ring", "F7"],
        ["parse", TREFOIL, "--max-crossings", "5"],
        ["complex", TREFOIL, "--ring", "F2"],
        ["khovanov", TREFOIL, "--max-faces", "5"],
        ["families", "list", "--ring", "F2"],
        ["families", "thick", "1", "--max-crossings", "3"],
        ["families", "random", "2", "--max-faces", "5"],
        ["families", "joins", "2", "--seed", "5"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_a_leftover_argument_is_reported_under_the_subcommand_usage(capsys):
    for argv, usage in (
        (["families", "random", "3", "--max-faces", "4"], "usage: exkh families random"),
        (["jones", "hexagon_link", "--ring", "F7"], "usage: exkh jones"),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(usage), err
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_a_cap_from_the_environment_names_its_variable(capsys, monkeypatch):
    monkeypatch.setenv("EXKH_MAX_FACES", "0")
    code, out, err = run(["extreme", TREFOIL], capsys)
    assert (code, out) == (1, "")
    assert err.strip() == "error: caps must be positive: EXKH_MAX_FACES=0"
    # a flag overrides the variable, and its own bad value names the flag
    code, out, err = run(["extreme", TREFOIL, "--max-faces", "-3"], capsys)
    assert (code, out) == (1, "")
    assert err.strip() == "error: caps must be positive: --max-faces -3"
    code, out, _ = run(["extreme", TREFOIL, "--max-faces", "5"], capsys)
    assert code == 0 and "agreement: OK" in out


def test_a_ring_from_the_environment_names_its_variable(capsys, monkeypatch):
    monkeypatch.setenv("EXKH_RING", "F4")
    code, out, err = run(["khovanov", TREFOIL], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: EXKH_RING=F4: ")
    assert "unknown coefficient ring 'F4'" in err
