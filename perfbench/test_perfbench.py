"""Tests of the benchmark itself, on the smoke workload (z2 at r = 2).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import spans  # noqa: E402


def run(*extra, cwd=ROOT, trace=0, run_py=HERE / "run.py"):
    cmd = [sys.executable, str(run_py), "--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_the_contract(trace, kind):
    res = result(run(trace=trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 3
    assert res["metrics"] == {
        m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in BENCH[kind]
    }
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_traced_run_sees_every_layer_of_the_smoke_workload():
    m = {k: v["value"] for k, v in result(run(trace=1))["metrics"].items()}
    for name in ("chartab.dixon_table", "clifford.phi_set", "clifford.mackey_restriction", "grp.GroupTable.mul"):
        assert m[f"{name}.calls"] > 0, name
    assert 0 < m["chartab.decompose.yield"] <= 1


def copy_benchmark(dest: Path) -> Path:
    """BENCHMARK.json and perfbench/ copied into dest; returns the copy's run.py."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    return dest / "perfbench" / "run.py"


def test_corrupted_expected_record_is_a_failed_job(tmp_path):
    run_py = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    expected = json.loads((HERE / "expected.json").read_text())
    expected["verify:z2:r2:mackey"]["digest"] = "0" * 16
    (tmp_path / "perfbench" / "expected.json").write_text(json.dumps(expected))
    res = result(run(cwd=tmp_path, run_py=run_py))
    assert res["correct"] is False
    assert res["failed"] == 1 and res["attempted"] >= 3
    assert res["metrics"]["success_rate"]["value"] < 1


def test_refuses_to_run_without_the_sources(tmp_path):
    proc = run(cwd=tmp_path, run_py=copy_benchmark(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_totals_self_time_and_outermost_inclusive_time():
    # a(0..10) -> b(1..4) -> a(2..3); c(11..12) at the top level
    sp = [
        ["a", 0.0, 10.0, -1, 50.0, 60.0, 0],
        ["b", 1.0, 4.0, 0, 50.0, 55.0, 2],
        ["a", 2.0, 3.0, 1, 50.0, 52.0, 0],
        ["c", 11.0, 12.0, -1, 60.0, 60.0, 5],
    ]
    t = spans.totals(sp)
    assert t["a"] == {"calls": 2, "s": 10.0, "self_s": 8.0, "rss_rise_mb": 10.0, "count": 0}
    assert t["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0, "rss_rise_mb": 5.0, "count": 2}
    assert t["c"]["self_s"] == 1.0 and t["c"]["count"] == 5
    assert spans.children_named(sp, 0, "b") == [1]
