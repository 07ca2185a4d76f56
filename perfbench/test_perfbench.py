"""Self-test of the benchmark: smoke-sized runs of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs once untraced and once traced on tiny inputs; the result
line must pass the correctness gate and name exactly the metrics, with the
units, that BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_gate_and_metric_names(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_extremal_node_counts_repeat():
    spans = HERE / "out" / "spans-sweep-smoke-seed5-trace1-rep0.json"
    counts = []
    for _ in range(2):
        assert run_bench(ROOT, "sweep", 1).returncode == 0
        records = json.loads(spans.read_text(encoding="utf-8"))
        searches = [s for s in records if s["name"].startswith("extremal.max")]
        counts.append({s["name"]: s["work"] for s in searches})
    assert counts[0] == counts[1]
    assert sorted(counts[0]) == [f"extremal.max_diversity_search:n{n}k3" for n in (6, 7)]
    assert all(c > 0 for c in counts[0].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_counts_failed_checks_and_exceptions():
    gate = workloads.Gate()
    with gate.op("passes"):
        workloads.check(True, "fine")
    with gate.op("fails a check"):
        workloads.check(False, "wrong value")
    with gate.op("raises"):
        raise ValueError("boom")
    assert gate.attempted == 3
    assert [f.split(":")[0] for f in gate.failures] == ["fails a check", "raises"]


def test_digest_mismatch_fails(monkeypatch):
    rows = [{"k": 0, "prob": workloads.Fraction(1, 1)}, {"k": 1, "prob": workloads.Fraction(1, 2)}]
    digest = workloads.table_digest(rows, ("k", "prob"))
    monkeypatch.setitem(workloads.EXPECTED_DIGESTS, "test", digest)
    workloads.check_digest("test", rows, ("k", "prob"))
    rows[1]["prob"] = workloads.Fraction(1, 3)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_digest("test", rows, ("k", "prob"))
