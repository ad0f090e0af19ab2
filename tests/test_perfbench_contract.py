"""What the benchmark's span recorder reads of branchlab still exists.

perfbench/spans.py patches the functions named in its TARGETS table and
takes counts from their results; an API move that drops a target or changes
a counted result would break a traced benchmark run, so the table is read
here, without editing it, against the current modules.  The worker's jobs
for smoke and every benchmark workload run here too, against their expected
records.
"""

import importlib.util
import json
from pathlib import Path

from branchlab import chartab, clifford, grp, mat, predict, ring, verify

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (chartab, clifford, grp, mat, predict, ring, verify)}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_span_target_resolves():
    for mod_name, attr, _ in _spans().TARGETS:
        owner = MODULES[mod_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(leaf)), f"{mod_name}.{attr}"


def test_dixon_table_count_is_the_class_count(groups):
    count = {(m, a): c for m, a, c in _spans().TARGETS}[("chartab", "dixon_table")]
    G = groups("z2", 2)
    assert count((G,), chartab.dixon_table(G)) == grp.ConjClasses(G).k == 14


def _run_workload(monkeypatch, workload: str, num_jobs: int):
    # the worker, loaded unedited, runs the workload's jobs in this process: an
    # API move under orbit_job or verify_job fails here, not first in a benchmark run
    monkeypatch.syspath_prepend(str(SPANS.parent))
    spec = importlib.util.spec_from_file_location("perfbench_worker", SPANS.parent / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    expected = json.loads(worker.EXPECTED.read_text())
    jobs = worker.make_jobs(workload, 0)
    assert len(jobs) == num_jobs
    for job_id, run in jobs:
        record, _ = run()
        assert worker.matches(job_id, record, expected), job_id


def test_smoke_workload_matches_its_expected_records(monkeypatch):
    _run_workload(monkeypatch, "smoke", 3)


def test_mackey_r3_workload_matches_its_expected_records(monkeypatch):
    # verify at r = 3 with the Mackey route on, for z2, f2t and eis2 (the one
    # run of eis2 r = 3 through Mackey in the suite)
    _run_workload(monkeypatch, "mackey-r3", 3)


def test_table_z2r4_workload_matches_its_expected_records(monkeypatch):
    # verify at z2 r = 4 without the Mackey route
    _run_workload(monkeypatch, "table-z2r4", 1)


def test_tablefree_workload_matches_its_expected_records(monkeypatch):
    # the sqrt1 sweep, the predictor, and psi_A with its inertia for every
    # orbit at f4t r = 2 and z2 r = 5 (the one reader of inertia's results)
    _run_workload(monkeypatch, "tablefree", 4)
