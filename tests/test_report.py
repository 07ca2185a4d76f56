import json
from fractions import Fraction

from divlab.report import SCHEMA_VERSION, Report, write_json


def test_json_only_table_left_out_of_csv():
    rep = Report(command="t")
    rep.add_table("rows", [{"x": 1}])
    rep.add_table("exact", [{"x": Fraction(1, 3)}], csv=False)
    assert rep.to_csv() == "x\n1\n"
    assert rep.to_json_dict()["results"] == {"rows": [{"x": 1}], "exact": [{"x": "1/3"}]}


def test_csv_sections_count_only_csv_tables():
    rep = Report(command="t")
    rep.add_table("a", [{"x": 1}])
    rep.add_table("exact", [{"x": Fraction(1, 3)}], csv=False)
    rep.add_table("b", [{"y": 2}])
    assert rep.to_csv() == "# a\nx\n1\n\n# b\ny\n2\n"
    assert list(rep.to_json_dict()["results"]) == ["a", "exact", "b"]


def test_write_json_writes_one_report_or_many(tmp_path):
    a, b = Report(command="a"), Report(command="b")
    a.add_table("rows", [{"x": Fraction(1, 3)}])
    one, many = tmp_path / "one.json", tmp_path / "many.json"
    write_json([a], one)
    write_json([a, b], many)
    assert one.read_text() == json.dumps(a.to_json_dict(), indent=2) + "\n"
    assert json.loads(many.read_text()) == {
        "schema": SCHEMA_VERSION, "reports": [a.to_json_dict(), b.to_json_dict()],
    }


def test_extend_adds_tables_assertions_notes_and_a_set_seed():
    rep = Report(command="action", seed=4)
    rep.add_table("rows", [{"x": 1}])
    rep.check("first", 1, 1)
    rep.note("first note")
    lib = Report(command="library")
    lib.add_table("exact", [{"x": Fraction(1, 3)}], csv=False)
    lib.add_table("more", [{"y": 2}])
    lib.check("second", 2, 3)
    lib.note("second note")
    rep.extend(lib)
    assert rep.to_csv() == "# rows\nx\n1\n\n# more\ny\n2\n"
    assert rep.to_json_dict()["results"] == {
        "rows": [{"x": 1}], "exact": [{"x": "1/3"}], "more": [{"y": 2}],
    }
    assert [(a.name, a.passed) for a in rep.assertions] == [("first", True), ("second", False)]
    assert not rep.ok
    assert rep.notes == ["first note", "second note"]
    assert rep.seed == 4  # the library's None seed does not overwrite it
    lib.seed = 7
    fresh = Report(command="action")
    fresh.extend(lib)
    assert fresh.seed == 7
