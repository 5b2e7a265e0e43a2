import json

import pytest

from exkh.cli import main
from exkh.families import catalog_diagram, split_union, thick_family

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
HOPF = "X(4,2,1,3) X(2,4,3,1)"
HEXAGON_MIRROR = catalog_diagram("hexagon_link").mirror().to_pd()


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


def test_lando_ignores_the_face_cap(capsys):
    # the subcommand builds no complex, so --max-faces must not bound I(G)
    code, plain, _ = run(["lando", "eleven_crossing"], capsys)
    capped_code, capped, _ = run(
        ["lando", "eleven_crossing", "--max-faces", "2"], capsys
    )
    assert code == capped_code == 0
    assert "I(G)=0" in capped
    assert capped == plain


def test_lando_dot(capsys):
    code, out, _ = run(["lando", "eleven_crossing", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("graph lando {")
    assert "--" in out


def test_complex_of_trefoil_is_a_point(capsys):
    code, out, _ = run(["complex", TREFOIL], capsys)
    assert code == 0
    assert "faces: 1" in out


# --------------------------------------------------------------------------
# extreme rows
# --------------------------------------------------------------------------


def test_extreme_both_routes_agree(capsys):
    code, out, _ = run(["extreme", "hexagon_link"], capsys)
    assert code == 0
    assert "lando: j=-13: i=-4: Z^2" in out
    assert "brute: j=-13: i=-4: Z^2" in out
    assert "agreement: OK" in out


def test_extreme_single_method(capsys):
    code, out, _ = run(["extreme", TREFOIL, "--method", "lando"], capsys)
    assert code == 0
    assert out.strip() == "j=-9: i=-3: Z"


def test_extreme_side_max(capsys):
    code, out, _ = run(["extreme", TREFOIL, "--side", "max"], capsys)
    assert code == 0
    assert out.strip() == "j=-1: i=0: Z"


def test_extreme_json(capsys):
    code, out, _ = run(["extreme", "hexagon_link", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["lando"]["j"] == -13
    assert payload["lando"]["groups"] == {"-4": "Z^2"}
    assert payload["brute"]["provenance"] == "brute"


@pytest.mark.parametrize(
    "argv, stage",
    [
        (["extreme", "--method", "brute", "--max-crossings", "3", "hexagon_link"],
         "crossing count"),
        # --side max enumerates no states: the face cap holds on the mirror,
        # whose mirror (the hexagon link itself) has the Lando graph C_6
        (["extreme", "--side", "max", "--max-faces", "2", HEXAGON_MIRROR],
         "independent set enumeration"),
    ],
    ids=["brute", "side-max"],
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
    assert "needs an argument" in err


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def test_verify_single_diagram(capsys):
    code, out, _ = run(["verify", TREFOIL], capsys)
    assert code == 0
    assert "extreme-routes" in out
    assert "verified 1 diagrams" in out


def test_verify_small_corpus(capsys):
    code, out, _ = run(["verify", "--count", "3"], capsys)
    assert code == 0
    # catalog entries plus three random diagrams
    assert "verified 5 diagrams" in out


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


def test_verify_reports_every_failure(capsys, monkeypatch):
    import dataclasses

    import exkh.cli as cli
    from exkh.simplicial import AbelianGroup

    honest = cli.extreme_via_brute

    def disagreeing(d, *args):
        row = honest(d, *args)
        return dataclasses.replace(row, groups={**row.groups, 99: AbelianGroup(1)})

    monkeypatch.setattr(cli, "extreme_via_brute", disagreeing)
    code, out, err = run(["verify", TREFOIL, "hexagon_link"], capsys)
    assert code == 3
    assert f"{TREFOIL}: extreme rows disagree" in err
    assert "hexagon_link: extreme rows disagree" in err
    assert "verified 2 diagrams, 2 failed" in out


def test_verify_checks_the_top_row_against_the_table(capsys, monkeypatch):
    import dataclasses

    import exkh.cli as cli
    from exkh.simplicial import AbelianGroup

    code, out, _ = run(["verify", TREFOIL], capsys)
    assert code == 0
    assert "jmax-vs-table" in out
    honest = cli.extreme_jmax

    def disagreeing(d, *args):
        row = honest(d, *args)
        return dataclasses.replace(row, groups={**row.groups, 99: AbelianGroup(1)})

    monkeypatch.setattr(cli, "extreme_jmax", disagreeing)
    code, out, err = run(["verify", TREFOIL], capsys)
    assert code == 3
    assert f"{TREFOIL}: j_max rows disagree" in err
    assert "i=99: Z" in err and "table j=-1: i=0: Z)" in err
    assert "verified 1 diagrams, 1 failed" in out


def test_extreme_side_max_reaches_past_the_crossing_cap(capsys):
    eleven = catalog_diagram("eleven_crossing")
    d = split_union(eleven, eleven)
    assert d.crossing_count > 16
    code, out, _ = run(["extreme", "--side", "max", d.to_pd()], capsys)
    assert code == 0
    # the top row of each factor is Z at i=8, so theirs tensor to Z at i=16
    assert out.strip() == "j=34: i=16: Z"


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


def test_unknown_input_is_an_error(capsys):
    code, _, err = run(["parse", "not a diagram"], capsys)
    assert code == 1
    assert "catalog entries" in err


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


def test_nonpositive_cap_rejected(capsys):
    code, _, err = run(["parse", TREFOIL, "--max-crossings", "0"], capsys)
    assert code == 1
    assert "caps must be positive" in err


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
    code, _, err = run(["parse", "hexagon_link"], capsys)
    assert code == 1
    assert "EXKH_MAX_CROSSINGS" in err
