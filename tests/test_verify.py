import json

from divlab.cli import main
from divlab.verify import CRITERIA


def test_verify_all_quick_passes_every_criterion(tmp_path):
    json_path = tmp_path / "verify.json"
    assert main(["verify-all", "--quick", "--json", str(json_path)]) == 0
    reports = json.loads(json_path.read_text())["reports"]
    assert len(reports) == len(CRITERIA) + 1  # the criteria plus the combined summary
    assert all(rep["ok"] is True for rep in reports)
    summary = reports[-1]
    assert summary["command"] == "verify-all"
    assert [row["ok"] for row in summary["results"]["criteria"]] == [True] * len(CRITERIA)
    assert [(a["name"], a["pass"]) for a in summary["assertions"]] == [
        (f"criterion-{name}", True) for name, _ in CRITERIA
    ]
    assert [rep["command"] for rep in reports[:-1]] == [f"criterion-{name}" for name, _ in CRITERIA]
    assert all(list(rep["parameters"].items())[0] == ("quick", True) for rep in reports[:-1])
