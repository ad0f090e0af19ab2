"""Rewrite expected.json from the branchlab in this checkout's src/.

    PYTHONPATH=src python3 perfbench/record_expected.py

Run it only on a commit whose outputs are known to be right: every later run
of the benchmark compares against what it writes.  Verify reports do not
depend on Dixon's seed, so seed 0 stands for all seeds; the predictor is
recorded at every level a seed can choose.
"""

import json
import subprocess
from pathlib import Path

import worker

WORKLOADS = ("table-z2r4", "mackey-r3", "tablefree", "smoke")


def main():
    root = Path(__file__).resolve().parent.parent
    sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    out = {"recorded_at": sha or None}
    for workload in WORKLOADS:
        for job_id, run in worker.make_jobs(workload, seed=0):
            if job_id in out or job_id == "predict":
                continue
            record, info = run()
            if isinstance(record, dict) and record.get("passed") is False:
                raise SystemExit(f"{job_id}: report did not pass; refusing to record it")
            out[job_id] = record
            print(job_id, info.get("G"), info.get("k"), flush=True)
    _, run = worker.predict_job(worker.predict_levels())
    out["predict"], _ = run()
    # one line per record (per level for the predictor) keeps diffs readable
    lines = []
    for key, value in sorted(out.items()):
        if key == "predict":
            rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            lines.append(f' "predict": {{\n{rows}\n }}')
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    worker.EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
