import argparse
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from divlab.bitfam import save_family
from divlab.booleanlab import counterexample_table
from divlab.bounds import verify_triangle_chain
from divlab.cli import (
    build_parser,
    cmd_rho_profile,
    main,
    parse_bias,
    parse_r_range,
    word_from_string,
)
from divlab.constructions import fano_plane
from divlab.report import Report
from divlab.runstat import in_t_table, rho_distribution
from divlab.verify import criterion_04_cross_weighted_sweep

from oracles import cross_intersecting, lex_sorted_ksets, scan_words, word_to_string


def run(argv):
    return main(argv)


def assert_usage_error(argv, named, capsys):
    """argparse refuses argv with exit code 2, naming ``named`` on stderr."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_parse_bias():
    assert parse_bias("2/5") == Fraction(2, 5)
    assert parse_bias("0.45") == Fraction(9, 20)


def test_parse_r_range():
    assert parse_r_range("2..5") == [2, 3, 4, 5]
    assert parse_r_range("7") == [7]
    assert parse_r_range("2,4,9") == [2, 4, 9]
    assert parse_r_range("5..5") == [5]
    for bad in ("2..", "..5", "2,x", "x", "5..2", ",,", ""):
        with pytest.raises(ValueError, match=rf"^bad r range: '{re.escape(bad)}'$"):
            parse_r_range(bad)


def test_open_r_range_is_a_usage_error_that_names_it(capsys):
    assert run(["boolean", "counterexample-table", "--r", "2.."]) == 2
    assert "usage error: bad r range: '2..'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5..2", ",,"])
def test_empty_r_range_is_a_usage_error_that_names_it(capsys, text):
    # a descending or empty range names no r, and is refused by its text
    # rather than as the r values [] outside the table's range
    assert run(["boolean", "counterexample-table", "--r", text]) == 2
    assert f"usage error: bad r range: '{text}'" in capsys.readouterr().err


def test_word_from_string():
    mask, length = word_from_string("1011011")
    assert length == 7 and mask == int("1011011"[::-1], 2)
    assert word_from_string("100") == (1, 3)  # the first character is bit 0
    with pytest.raises(ValueError):
        word_from_string("10x1")


def test_family_build_stats_check_round_trip(tmp_path):
    fam_path = tmp_path / "fam.txt"
    assert run(["family", "build", "hub-block", "--n", "7", "--k", "3",
                "--u", "2", "--out", str(fam_path)]) == 0
    assert fam_path.exists()
    assert run(["family", "stats", "--in", str(fam_path)]) == 0
    assert run(["family", "check", "--in", str(fam_path), "--t", "1"]) == 0


def test_family_check_failure_exit_code(tmp_path):
    fam_path = tmp_path / "fam.txt"
    fam_path.write_text("n=4 k=2\n1,2\n3,4\n")
    assert run(["family", "check", "--in", str(fam_path), "--t", "1"]) == 1


def test_cross_check(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("n=5 k=2\n1,2\n1,3\n")
    b.write_text("n=5 k=3\n1,4,5\n1,2,3\n")
    assert run(["family", "cross-check", "--in", str(a), "--cross", str(b)]) == 0


def test_usage_error_exit_code(tmp_path):
    assert run(["family", "build", "hub-block", "--n", "5", "--k", "3",
                "--u", "2"]) == 2  # n < 2k
    assert run(["family", "build", "window-majority", "--n", "64", "--k", "3"]) == 2


def test_extremal_search_past_the_ground_set_cap_is_usage_error(capsys):
    assert run(["extremal", "search", "--n", "64", "--k", "2", "--budget", "5"]) == 2
    assert "n <= 63" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "stats", "--in", "{dir}"],
        ["rho", "exact", "--L", "5", "--json", "{dir}/missing/rep.json"],
        ["rho", "exact", "--L", "5", "--csv", "{dir}/missing/rep.csv"],
    ],
    ids=["in-directory", "json-missing-directory", "csv-missing-directory"],
)
def test_file_errors_are_usage_errors(argv, tmp_path, capsys):
    assert run([arg.format(dir=tmp_path) for arg in argv]) == 2
    assert "usage error:" in capsys.readouterr().err


def test_resource_cap_exit_code():
    assert run(["rho", "exact", "--L", "30"]) == 3
    assert run(["family", "build", "hub-block", "--n", "60", "--k", "30"]) == 3
    assert run(["extremal", "search", "--n", "40", "--k", "20"]) == 3


def test_rho_dist_csv_shape(tmp_path):
    csv_path = tmp_path / "out.csv"
    assert run(["rho", "exact", "--L", "15", "--csv", str(csv_path)]) == 0
    text = csv_path.read_text()
    assert "# rho_tail" in text and "# expected_runs" in text
    tail_lines = [
        l for l in text.splitlines() if l and not l.startswith("#") and "," in l
    ]
    header = tail_lines[0].split(",")
    assert header[:3] == ["k", "prob", "stderr"]
    # k runs from 0 to floor(15/2) = 7
    ks = [l.split(",")[0] for l in tail_lines[1:9]]
    assert ks == [str(k) for k in range(8)]


def test_counterexample_table_csv_shape(tmp_path):
    csv_path = tmp_path / "table.csv"
    assert run(["boolean", "counterexample-table", "--r", "2..4", "--csv", str(csv_path)]) == 0
    lines = [l for l in csv_path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["r", "p", "family", "mu", "gamma_p", "deficit", "total_influence", "ratio"]
    assert len(lines) == 1 + 3 * 2  # three r values, two families each


def test_counterexample_table_exact_values_json_only(tmp_path):
    argv = ["boolean", "counterexample-table", "--r", "2..4"]
    json_path = tmp_path / "table.json"
    csv_path = tmp_path / "table.csv"
    assert run(argv + ["--json", str(json_path)]) == 0
    assert run(argv + ["--csv", str(csv_path)]) == 0
    exact = json.loads(json_path.read_text())["results"]["exact_values"]
    assert len(exact) == 3 * 2
    r2_run = next(row for row in exact if row["r"] == 2 and row["family"] == "run_dominance")
    assert r2_run["mu"] == "53/512"
    assert r2_run["total_influence"] == "135/128"
    text = csv_path.read_text()
    assert "exact_values" not in text
    assert "/" not in text


def test_boolean_commands():
    assert run(["boolean", "mu", "--family", "run-dominance", "--r", "4", "--p", "1/2"]) == 0
    assert run(["boolean", "gammap", "--family", "window-majority", "--r", "2", "--p", "2/5"]) == 0
    assert run(["boolean", "influence", "--family", "window-majority", "--r", "1",
                "--p", "1/2", "--i", "1"]) == 0


def test_bias_with_zero_denominator_is_usage_error(capsys):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_bias("1/0")
    assert_usage_error(["boolean", "mu", "--p", "1/0"],
                       "argument --p: bias '1/0' has a zero denominator", capsys)


def test_json_report_schema(tmp_path):
    json_path = tmp_path / "rep.json"
    assert run(["boolean", "mu", "--family", "run-dominance", "--r", "3",
                "--p", "1/2", "--json", str(json_path)]) == 0
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == 1
    assert payload["results"]["rows"][0]["mu_exact"] == "1/2"
    assert payload["ok"] is True


def test_main_finishes_each_handler_report_once(monkeypatch, tmp_path):
    fam_path = tmp_path / "fano.txt"
    save_family(fano_plane(), fam_path)
    finished = []
    finish = Report.finish
    monkeypatch.setattr(Report, "finish", lambda self: finished.append(self.command) or finish(self))
    assert run(["lex", "segment", "--m", "3"]) == 0
    assert run(["lemma-sweep", "check", "--m", "10", "--a", "2", "--b", "3"]) == 0
    assert run(["decompose", "--in", str(fam_path)]) == 0
    assert run(["rho", "exact", "--L", "9"]) == 0
    assert run(["verify-all", "--quick"]) == 0
    # the library and the criteria finish reports of their own, which main
    # copies from or writes before the action's report
    actions = ["lex-segment", "lemma-sweep-check", "decompose", "rho-exact", "verify-all"]
    assert [command for command in finished if command in actions] == actions


def test_lemma_sweep_single_and_json(tmp_path):
    json_path = tmp_path / "lemma.json"
    assert run(["lemma-sweep", "check", "--m", "10", "--a", "2", "--b", "3", "--cprime", "2",
                "--json", str(json_path)]) == 0
    payload = json.loads(json_path.read_text())
    assert payload["assertions"][0]["pass"] is True
    # row s recounted by brute force: a_max is the longest lex prefix of
    # 2-sets that meets every one of the first s 3-sets of [10]
    pairs, triples = lex_sorted_ksets(10, 2), lex_sorted_ksets(10, 3)
    want = []
    for s in range(9):  # s = 0..C(10 - 2, 1)
        a_max = max(i for i in range(len(pairs) + 1) if cross_intersecting(pairs[:i], triples[:s]))
        lhs = a_max + 2 * s
        want.append({"b_size": s, "a_max": a_max, "lhs": lhs, "rhs": 45, "slack": 45 - lhs})
    assert payload["results"]["rows"] == want


def test_lemma_sweep_usage_errors(capsys):
    assert run(["lemma-sweep", "check", "--m", "10", "--a", "2", "--b", "3",
                "--cprime", "-1"]) == 2
    assert "weight must be >= 1" in capsys.readouterr().err
    assert_usage_error(["lemma-sweep", "check", "--m", "10"], "--a, --b", capsys)


def test_lemma_sweep_rows_equal_criterion_04(tmp_path):
    json_path = tmp_path / "sweep.json"
    assert run(["lemma-sweep", "grid", "--m-max", "10", "--json", str(json_path)]) == 0
    rows = json.loads(json_path.read_text())["results"]["rows"]
    criterion = Report("criterion-04")
    criterion_04_cross_weighted_sweep(criterion, quick=True)
    assert rows == criterion.tables["rows"]
    assert rows and all(row["violations"] == 0 for row in rows)


def test_shift_closure_cli(tmp_path):
    src = tmp_path / "fam.txt"
    out = tmp_path / "closed.txt"
    src.write_text("n=4 k=2\n2,3\n3,4\n")
    assert run(["shift", "closure", "--in", str(src), "--out", str(out)]) == 0
    assert out.exists()


def test_extremal_cli_with_witness(tmp_path):
    wit = tmp_path / "wit.txt"
    assert run(["extremal", "search", "--n", "7", "--k", "3", "--budget", "60",
                "--emit-witness", str(wit)]) == 0
    from divlab.bitfam import is_t_intersecting, load_family, stats

    fam = load_family(wit)
    assert is_t_intersecting(fam, 1)
    assert stats(fam).diversity == 5


def test_extremal_cli_row_records_nodes_and_time(tmp_path):
    json_path = tmp_path / "ext.json"
    assert run(["extremal", "search", "--n", "9", "--k", "3", "--json", str(json_path)]) == 0
    row = json.loads(json_path.read_text())["results"]["rows"][0]
    assert row["best_diversity"] == 6 and row["complete"] is True
    assert row["node_count"] > 0
    assert 0 <= row["elapsed_s"] < 60


def test_extremal_enumerate_cli():
    assert run(["extremal", "enumerate", "--n", "5", "--k", "2"]) == 0


def test_extremal_nan_budget_and_negative_cap_are_usage_errors(capsys):
    assert run(["extremal", "search", "--n", "7", "--k", "3", "--budget", "nan"]) == 2
    assert "budget nan" in capsys.readouterr().err
    assert run(["extremal", "enumerate", "--n", "5", "--k", "2", "--cap", "-1"]) == 2
    assert "cap -1" in capsys.readouterr().err


def test_lex_cli():
    assert run(["lex", "segment", "--m", "5", "--k", "2", "--n", "5"]) == 0
    assert run(["lex", "partner-max", "--b-size", "8", "--a", "2", "--b", "3",
                "--m", "10"]) == 0


def test_decompose_cli(tmp_path):
    fam_path = tmp_path / "fam.txt"
    run(["family", "build", "fano", "--out", str(fam_path)])
    assert run(["decompose", "--in", str(fam_path)]) == 0
    # n < k + 3: the tail family h2 cannot fit in n - 3 points and is empty
    run(["family", "build", "star", "--n", "5", "--k", "3", "--out", str(fam_path)])
    assert run(["decompose", "--in", str(fam_path)]) == 0
    # 93,024 members: its intersecting check runs on the packed table
    json_path = tmp_path / "hub.json"
    argv = ["hub-block", "--n", "22", "--k", "8", "--u", "2", "--out", str(fam_path)]
    assert run(["family", "build", *argv, "--json", str(json_path)]) == 0
    assert json.loads(json_path.read_text())["results"]["rows"][0]["intersecting"] is True
    assert run(["decompose", "--in", str(fam_path)]) == 0


def test_deterministic_tables_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["rho", "mc", "--L", "13", "--samples", "20000", "--seed", "5"]
    assert run(argv + ["--csv", str(a)]) == 0
    assert run(argv + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    argv = ["lemma-sweep", "check", "--m", "14", "--a", "3", "--b", "4", "--cprime", "2"]
    assert run(argv + ["--csv", str(a)]) == 0
    assert run(argv + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rho_profile_cli(tmp_path):
    json_path = tmp_path / "profile.json"
    assert run(["rho", "profile", "--word", "1100100", "--t", "2",
                "--json", str(json_path)]) == 0
    row = json.loads(json_path.read_text())["results"]["rows"][0]
    assert (row["ones_runs"], row["zeros_runs"]) == ("2,1", "2,2")
    assert row["tie_len"] == 1 and row["ones_dominant"] is False
    assert row["runs_ge_2"] == 3
    assert run(["rho", "profile", "--word", "1100", "--json", str(json_path)]) == 0
    row = json.loads(json_path.read_text())["results"]["rows"][0]
    assert row["ones_dominant"] is None and row["tie_len"] == 1
    assert run(["rho", "profile", "--word", "1100100", "--t", "0"]) == 2


@pytest.mark.parametrize("length", range(1, 15))
def test_rho_profile_tie_and_dominance_match_the_oracle_scan(length):
    tie, dom, _, _ = scan_words(np.arange(1 << length), length)
    for mask in range(1 << length):
        args = argparse.Namespace(word=word_to_string(mask, length), t=None)
        report = Report("rho-profile")
        cmd_rho_profile(args, report)
        row = report.tables["rows"][0]
        assert type(row["tie_len"]) is int and row["tie_len"] == tie[mask]
        assert row["ones_dominant"] is (None if length % 2 == 0 else bool(dom[mask]))


def _parameters(argv, tmp_path):
    json_path = tmp_path / "report.json"
    assert run(argv + ["--json", str(json_path)]) == 0
    return json.loads(json_path.read_text())["parameters"]


def test_lemma_sweep_records_only_its_mode_parameters(tmp_path):
    assert _parameters(["lemma-sweep", "grid", "--m-max", "9", "--a-max", "2", "--b-max", "2",
                        "--cprime-list", "3"], tmp_path) == {
        "m_max": 9, "a_max": 2, "b_max": 2, "cprime_list": [3],
    }
    assert _parameters(["lemma-sweep", "check", "--m", "10", "--a", "2", "--b", "3"], tmp_path) == {
        "m": 10, "a": 2, "b": 3, "cprime": 2,
    }


def test_boolean_records_r_as_the_integer_it_used(tmp_path):
    params = _parameters(["boolean", "mu", "--r", "2"], tmp_path)
    assert params == {"family": "run-dominance", "r": 2, "p": "1/2"}


def test_boolean_influence_records_the_coordinate_it_kept(tmp_path):
    params = _parameters(["boolean", "influence", "--r", "3", "--i", "2"], tmp_path)
    assert params == {"family": "run-dominance", "r": 3, "p": "1/2", "i": 2}
    assert _parameters(["boolean", "influence", "--r", "3"], tmp_path)["i"] is None
    assert "i" not in _parameters(["boolean", "gammap", "--r", "3"], tmp_path)


@pytest.mark.parametrize("option", [["--p", "1/3"], ["--family", "dictator"], ["--i", "1"]])
def test_counterexample_table_refuses_options_it_does_not_read(option, capsys):
    assert_usage_error(["boolean", "counterexample-table", "--r", "2", *option], option[0], capsys)


def test_extremal_refuses_options_its_mode_does_not_read(tmp_path, capsys):
    wit = tmp_path / "w.txt"
    assert_usage_error(["extremal", "enumerate", "--n", "5", "--k", "2",
                        "--emit-witness", str(wit)], "--emit-witness", capsys)
    assert not wit.exists()
    assert_usage_error(["extremal", "search", "--n", "5", "--k", "2", "--cap", "5"],
                       "--cap", capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["boolean", "mu", "--i", "1"],
        ["boolean", "gammap", "--i", "1"],
        ["extremal", "enumerate", "--n", "5", "--k", "2", "--budget", "5"],
        ["rho", "exact", "--samples", "100"],
        ["rho", "exact", "--seed", "5"],
        ["rho", "mc", "--samples", "100", "--word", "101"],
        ["rho", "exact", "--t", "2"],
        ["rho", "profile", "--word", "1101", "--samples", "5"],
        ["rho", "profile", "--word", "1101", "--seed", "5"],
        ["rho", "profile", "--word", "1101", "--L", "30"],
        ["shift", "is-shifted", "--in", "f.txt", "--out", "g.txt"],
    ],
)
def test_cli_refuses_options_the_action_does_not_read(argv, capsys):
    option = next(a for a in argv[::-1] if a.startswith("--"))
    assert_usage_error(argv, option, capsys)


def _declared(parser):
    """Option flag -> its argparse action, for one action's parser."""
    return {flag: act for act in parser._actions for flag in act.option_strings}


def _subcommands(parser):
    """Name -> parser of a parser's sub-commands (empty when it has none)."""
    subs = [act for act in parser._actions if isinstance(act, argparse._SubParsersAction)]
    return subs[0].choices if subs else {}


def _minimal_argv(parser):
    """Values for the options an action requires, so that parsing gets as far
    as the options it does not declare."""
    argv = []
    for act in parser._actions:
        if act.required and act.option_strings:
            argv += [act.option_strings[0], "1"]
    return argv


def _leaves(parser, path=()):
    """Parser path -> parser, for every action under ``parser``: a parser
    with no sub-commands, found by recursing into nested ones."""
    subs = _subcommands(parser)
    if not subs:
        return {path: parser}
    return {leaf: p for name, sub in subs.items() for leaf, p in _leaves(sub, (*path, name)).items()}


_ACTIONS = _leaves(build_parser())


def _sibling_cases(parser, path):
    """(*path of A, option) -> whether the option takes a value, for every
    option that an action under a sibling of A declares and no action under
    A does, where A is a sub-command of ``parser``, at every depth."""
    subs = _subcommands(parser)
    cases = {}
    for name, sub in subs.items():
        own = {flag for leaf in _leaves(sub).values() for flag in _declared(leaf)}
        for sibling in subs.values():
            for leaf in _leaves(sibling).values():
                cases.update({(*path, name, flag): act.nargs != 0
                              for flag, act in _declared(leaf).items() if flag not in own})
        cases.update(_sibling_cases(sub, (*path, name)))
    return cases


_SIBLING_CASES = {
    case: takes_value
    for command, command_parser in _subcommands(build_parser()).items()
    for case, takes_value in _sibling_cases(command_parser, (command,)).items()
}


# the action/option pairs that exited 0 with the option ignored before every
# action had its own parser
_FORMERLY_IGNORED = [
    ("family build", "--t --in --cross"),
    ("family stats", "--n --k --u --r --t --cross --out"),
    ("family check", "--n --k --u --r --out"),
    ("lemma-sweep check", "--m-max --a-max --b-max --cprime-list"),
    ("lemma-sweep grid", "--a --b --cprime"),
    ("lex segment", "--a --b --b-size"),
    ("lex partner-max", "--k --n"),
    ("shift closure", "--i --j"),
    ("shift is-shifted", "--i --j --out"),
]
# ... and those that exited 0 with the option ignored while the family kind
# was an option of family build and the cross check a mode of family check
_IGNORED_BY_KIND = [
    ("family build hub-block", "--r"),
    ("family build window-majority", "--u"),
    ("family build star", "--u --r"),
    ("family build full", "--u --r"),
    ("family build fano", "--n --k --u --r"),
    ("family build run-dominance-lift", "--u"),
    ("family cross-check", "--t"),
]


def _cases(table):
    return [(*path.split(), flag) for path, flags in table for flag in flags.split()]


def test_sibling_cases_cover_the_formerly_ignored_options():
    formerly = set(_cases(_FORMERLY_IGNORED + _IGNORED_BY_KIND))
    assert len(formerly) == 44
    assert formerly <= _SIBLING_CASES.keys()


@pytest.mark.parametrize("case", sorted(_SIBLING_CASES), ids=" ".join)
def test_every_action_refuses_the_options_only_its_siblings_declare(case, capsys):
    *path, flag = case
    value = ["1"] if _SIBLING_CASES[case] else []
    for leaf, parser in _ACTIONS.items():
        if leaf[:len(path)] == tuple(path):
            assert_usage_error([*leaf, *_minimal_argv(parser), flag, *value], flag, capsys)


@pytest.mark.parametrize("case", _cases(_IGNORED_BY_KIND), ids=" ".join)
def test_kinds_and_cross_check_refuse_what_they_ignored_under_their_own_usage(case, capsys):
    *path, flag = case
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*path, *_minimal_argv(_ACTIONS[tuple(path)]), flag, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: divlab {' '.join(path)} ")
    assert err.rstrip().endswith(f"error: unrecognized arguments: {flag} 1")


def test_family_stats_without_in_names_the_missing_option(capsys):
    assert_usage_error(["family", "stats"], "required: --in", capsys)


def test_unread_option_is_refused_with_the_actions_usage(tmp_path, capsys):
    fam_path, out_path = tmp_path / "fam.txt", tmp_path / "g.txt"
    assert run(["family", "build", "fano", "--out", str(fam_path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["family", "stats", "--in", str(fam_path), "--out", str(out_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: divlab family stats")
    assert "unrecognized arguments: --out" in err
    assert not out_path.exists()


def test_influence_refuses_a_coordinate_outside_the_centre(capsys):
    assert run(["boolean", "influence", "--r", "1", "--i", "3"]) == 0
    for i in ("0", "4"):
        assert run(["boolean", "influence", "--r", "1", "--i", i]) == 2
        assert "outside the centre [1, 3]" in capsys.readouterr().err


def test_influence_rows_are_the_total_influence_profile(tmp_path):
    from divlab.booleanlab import total_influence
    from divlab.constructions import build_majority_defining

    prof = total_influence(build_majority_defining(2), Fraction(2, 5))
    json_path = tmp_path / "inf.json"
    argv = ["boolean", "influence", "--family", "window-majority", "--r", "2", "--p", "2/5"]
    assert run(argv + ["--json", str(json_path)]) == 0
    rows = json.loads(json_path.read_text())["results"]["rows"]
    assert [row["influence_exact"] for row in rows] == [
        f"{m.numerator}/{m.denominator}" for m in (*prof.per_coordinate, prof.total)
    ]
    assert run(argv + ["--i", "4", "--json", str(json_path)]) == 0
    assert json.loads(json_path.read_text())["results"]["rows"] == [rows[3]]


def test_extremal_search_records_its_default_budget(tmp_path):
    params = _parameters(["extremal", "search", "--n", "5", "--k", "2"], tmp_path)
    assert params == {"n": 5, "k": 2, "budget": 60.0}


def test_extremal_records_only_its_mode_parameters(tmp_path):
    params = _parameters(["extremal", "enumerate", "--n", "5", "--k", "2", "--cap", "5"],
                         tmp_path)
    assert params == {"n": 5, "k": 2, "cap": 5}
    params = _parameters(["extremal", "search", "--n", "7", "--k", "3", "--budget", "30"],
                         tmp_path)
    assert params == {"n": 7, "k": 3, "budget": 30.0}


def test_rho_dist_records_samples_only_when_consumed(tmp_path):
    # rho exact refuses --samples (test_cli_refuses_options_the_action_does_not_read)
    params = _parameters(["rho", "exact", "--L", "11"], tmp_path)
    assert params == {"L": 11}
    assert _parameters(["rho", "exact"], tmp_path) == params  # the default it applied
    params = _parameters(["rho", "mc", "--L", "11", "--samples", "100"], tmp_path)
    assert params == {"L": 11, "samples": 100, "seed": 0}


def test_rho_seed_recorded_only_when_consumed(tmp_path):
    exact_path, mc_path = tmp_path / "exact.json", tmp_path / "mc.json"
    # rho exact refuses --seed (test_cli_refuses_options_the_action_does_not_read)
    assert run(["rho", "exact", "--L", "11", "--json", str(exact_path)]) == 0
    assert run(["rho", "mc", "--L", "11", "--samples", "1000",
                "--seed", "5", "--json", str(mc_path)]) == 0
    assert json.loads(exact_path.read_text())["seed"] is None
    assert json.loads(mc_path.read_text())["seed"] == 5


def test_options_only_on_subcommands_that_use_them(capsys):
    for argv, option in (
        (["extremal", "search", "--n", "7", "--k", "3", "--quick"], "--quick"),
        (["lex", "segment", "--seed", "1"], "--seed"),
        (["verify-all", "--budget", "5"], "--budget"),
        (["extremal", "search", "--n", "7", "--k", "3", "--dry-run"], "--dry-run"),
        (["boolean", "russo"], "russo"),
        (["rho", "dist"], "dist"),
        (["lex", "--op", "segment"], "--op"),
    ):
        assert_usage_error(argv, option, capsys)


def test_options_are_not_abbreviated(capsys):
    # an undeclared option that is a prefix of a declared one is still refused
    assert_usage_error(["lemma-sweep", "grid", "--m", "10"], "--m", capsys)
    assert_usage_error(["extremal", "search", "--n", "7", "--k", "3", "--emit", "w"],
                       "--emit", capsys)


def test_family_build_fano_refuses_n_and_k(tmp_path, capsys):
    json_path = tmp_path / "fano.json"
    assert_usage_error(["family", "build", "fano", "--n", "60", "--k", "30"], "--n 60 --k 30",
                       capsys)
    assert run(["family", "build", "fano", "--json", str(json_path)]) == 0
    payload = json.loads(json_path.read_text())
    assert payload["results"]["rows"][0]["size"] == 7
    assert payload["parameters"] == {}


def test_family_build_records_only_the_parameters_its_kind_reads(tmp_path):
    json_path = tmp_path / "hub.json"
    assert run(["family", "build", "hub-block", "--n", "7", "--k", "3",
                "--u", "2", "--json", str(json_path)]) == 0
    assert json.loads(json_path.read_text())["parameters"] == {"n": 7, "k": 3, "u": 2}


def test_family_build_cap_still_refuses_enumerating_kinds():
    assert run(["family", "build", "full", "--n", "60", "--k", "30"]) == 3
    for kind, extra in [("star", []), ("hub-block", ["--u", "3"]),
                        ("window-majority", ["--r", "13"]), ("run-dominance-lift", ["--r", "3"])]:
        assert run(["family", "build", kind, "--n", "40", "--k", "20", *extra]) == 3


def test_run_dominance_lift_refuses_the_cap_before_building_the_table():
    in_t_table.cache_clear()
    argv = ["family", "build", "run-dominance-lift", "--r", "12", "--n", "40", "--k", "20"]
    assert run(argv) == 3
    assert in_t_table.cache_info().currsize == 0


def test_family_build_past_the_pairwise_cap_writes_the_family(tmp_path):
    from divlab.bitfam import PAIRWISE_CHECK_CAP, load_family

    # all 7-sets of [22] are checked on the packed table; window majority
    # on 30 points has more than PAIRWISE_CHECK_CAP pairs and is refused
    fam_path, json_path = tmp_path / "full.txt", tmp_path / "full.json"
    for argv, size, want in (
        (["full", "--n", "22", "--k", "7", "--out", str(fam_path)], 170544, False),
        (["window-majority", "--n", "30", "--k", "8", "--r", "3"], 348910, None),
    ):
        assert run(["family", "build", *argv, "--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        row = payload["results"]["rows"][0]
        assert row["size"] == size and size * (size - 1) // 2 > PAIRWISE_CHECK_CAP
        assert row["intersecting"] is want
    assert payload["notes"][0] == ("intersecting not checked: pairwise check refused for "
                                   "60868919595 > 2^31 member pairs")
    assert len(load_family(fam_path)) == 170544
    assert run(["family", "check", "--in", str(fam_path)]) == 1


def test_family_check_past_the_pairwise_cap_exits_3(tmp_path):
    # 2^16 subsets of [16] on 30 points, the empty set first: as one family
    # 2^31 - 2^15 pairs are scanned and fail, against itself 2^32 are refused
    from divlab.bitfam import family_from_masks, save_family

    fam_path = tmp_path / "fam.txt"
    save_family(family_from_masks(30, None, np.arange(1 << 16, dtype=np.int64)), fam_path)
    assert run(["family", "check", "--in", str(fam_path)]) == 1
    assert run(["family", "cross-check", "--in", str(fam_path), "--cross", str(fam_path)]) == 3


_OUTPUT_FLAGS = {"--help", "--json", "--csv", "--out", "--emit-witness"}
# a value for each option that some action requires but --in and --cross
_REQUIRED_VALUES = {"--m": "10", "--a": "2", "--b": "3", "--i": "1", "--j": "2",
                    "--n": "5", "--k": "2", "--word": "1101", "--samples": "100"}


# '<command> <action>', or '<command>' where it has no actions; the actions
# under each, found by recursing, are the six kinds under 'family build'
_ACTION_WORDS = sorted({" ".join(path[:2]) for path in _ACTIONS})


@pytest.mark.parametrize("words", _ACTION_WORDS)
def test_every_cli_built_report_records_exactly_its_declared_options(words, tmp_path):
    fam_path, json_path = tmp_path / "fano.txt", tmp_path / "report.json"
    save_family(fano_plane(), fam_path)
    for path, parser in _ACTIONS.items():
        if " ".join(path[:2]) != words:
            continue
        argv = []
        for act in parser._actions:
            if act.required and act.option_strings:
                flag = act.option_strings[0]
                argv += [flag, str(fam_path) if flag in ("--in", "--cross") else _REQUIRED_VALUES[flag]]
            elif isinstance(act, argparse._StoreTrueAction):
                argv.append(act.option_strings[0])  # verify-all then runs its quick ranges
        declared = [act.option_strings[-1] for act in parser._actions if act.option_strings]
        expected = [flag[2:].replace("-", "_") for flag in declared if flag not in _OUTPUT_FLAGS]
        assert run([*path, *argv, "--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        payload = payload["reports"][-1] if "reports" in payload else payload  # verify-all's is last
        assert payload["command"] == "-".join(path)
        assert list(payload["parameters"]) == expected


# library-backed action -> (its options, its parameters, the library call behind it)
_LIBRARY_BACKED = {
    "decompose": ("--in {fano}", {"in": "{fano}"}, lambda: verify_triangle_chain(fano_plane())),
    "rho exact": ("--L 9", {"L": 9}, lambda: rho_distribution(9, "exact")),
    "rho mc": ("--L 9 --samples 500 --seed 3", {"L": 9, "samples": 500, "seed": 3},
               lambda: rho_distribution(9, "mc", 500, 3)),
    "boolean counterexample-table": ("--r 2..4", {"r": "2..4"},
                                     lambda: counterexample_table([2, 3, 4])),
}


@pytest.mark.parametrize("path", list(_LIBRARY_BACKED))
def test_library_backed_actions_report_the_library_results_under_their_own_name(path, tmp_path):
    fam_path, json_path = tmp_path / "fano.txt", tmp_path / "report.json"
    save_family(fano_plane(), fam_path)
    options, parameters, library = _LIBRARY_BACKED[path]
    argv = [*path.split(), *options.format(fano=fam_path).split(), "--json", str(json_path)]
    assert run(argv) == 0
    got, want = json.loads(json_path.read_text()), library().to_json_dict()
    assert got["command"] == path.replace(" ", "-")
    assert got["parameters"] == {
        name: value.format(fano=fam_path) if isinstance(value, str) else value
        for name, value in parameters.items()
    }
    for key in ("results", "assertions", "notes", "seed"):
        assert got[key] == want[key], key
