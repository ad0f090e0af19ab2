"""Run one branchlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; branchlab is imported from its src/.  Each
repetition of the workload runs in a fresh worker process (worker.py), one at
a time: a closed loop with one client.  Repetitions continue while the next
one is expected to end within --seconds; there is always at least one.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: medians over the
repetitions, plus set-up time as the median over every worker started,
set-up probes (workers that stop once the jobs are ready) included.
--trace 1 alternates an untraced and a traced worker and prints the per-layer
metrics: span totals from the traced workers, BranchReport.timing from the
untraced ones, and their wall-time difference as trace.overhead_s.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Provenance, every worker's record and the layer split go
to perfbench/out/.

The workload "smoke" (z2 at r = 2) runs the same code paths in a few seconds,
for the benchmark's own tests; it is not part of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("table-z2r4", "mackey-r3", "tablefree", "smoke")
# set-up probes, half before the repetitions and half after, so that the
# median set-up time samples the whole run
SETUP_PROBES = 12
# no new repetition may start that is expected to end after this many
# seconds, so a run stays inside the 180 s a run is allowed
HARD_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 170.0
# per-layer metric suffix -> key of spans.totals()
FIELDS = {"s": "s", "self_s": "self_s", "calls": "calls", "rss_rise_mb": "rss_rise_mb", "k_sum": "count", "elements": "count"}
MODULES = tuple(dict.fromkeys(module for module, _, _ in spans.TARGETS))
# calls that tell the workloads apart: Dixon, and the Mackey route
STRUCTURE = ("chartab.dixon_table", "clifford.phi_set", "clifford.mackey_restriction")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def spawn(args, trace: int, *, setup_only: bool = False, tag: str = "") -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans-out", str(OUT / f"spans-{args.workload}-seed{args.seed}-{tag}.json")]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_state() -> dict:
    """SHA and dirty flag of the checkout, or nulls outside a git repository."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*a):
        return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True, text=True).stdout.strip()
    return {"sha": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def layer_metric(name: str, w: dict) -> float:
    """One per-layer metric of BENCHMARK.json from a traced worker's span totals."""
    totals = w["totals"]
    if name == "chartab.decompose.yield":
        found = totals.get("chartab.decompose", {}).get("count", 0)
        return found / w["decompose_inner_calls"] if w["decompose_inner_calls"] else 0.0
    span, field = name.rsplit(".", 1)
    return float(totals.get(span, {}).get(FIELDS[field], 0))


def layer_split(w: dict) -> dict:
    """Share of a traced worker's wall time per module (self time) and per span (self and inclusive)."""
    totals, wall = w["totals"], w["wall_s"]
    by_module = {m: 0.0 for m in MODULES}
    for name, t in totals.items():
        by_module[name.split(".", 1)[0]] += t["self_s"]
    shares = {m: round(s / wall, 4) for m, s in by_module.items()}
    shares["outside_spans"] = round(1 - sum(by_module.values()) / wall, 4)
    return {
        "traced_wall_s": round(wall, 3),
        "structure": {f"{name}.calls": totals.get(name, {}).get("calls", 0) for name in STRUCTURE},
        "self_share_by_module": shares,
        "spans": {
            name: {"calls": t["calls"], "self_share": round(t["self_s"] / wall, 4), "share": round(t["s"] / wall, 4)}
            for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one branchlab benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "branchlab" / "__init__.py").is_file():
        print(f"no branchlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    setups, untraced, traced, took = [], [], [], []
    probes = 0 if args.trace else SETUP_PROBES // 2
    setups += [spawn(args, 0, setup_only=True)["setup_s"] for _ in range(probes)]
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        untraced.append(spawn(args, 0))
        if args.trace:
            traced.append(spawn(args, 1, tag=str(len(traced))))
        took.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        nxt = elapsed + median(took)
        if nxt > args.seconds or elapsed + max(took) > HARD_LIMIT_S:
            break

    setups += [spawn(args, 0, setup_only=True)["setup_s"] for _ in range(probes)]
    workers = untraced + traced
    jobs = [j for w in workers for j in w["jobs"]]
    failed = sum(not j["ok"] for j in jobs)
    if args.trace:
        specs = bench["per_layer"]
        values = {}
        for m in specs:
            name = m["name"]
            if name == "trace.overhead_s":
                values[name] = median(w["wall_s"] for w in traced) - median(w["wall_s"] for w in untraced)
            elif name.startswith("verify.timing."):
                key = name.removeprefix("verify.timing.").removesuffix("_s")
                values[name] = median(
                    sum(j["info"]["timing"][key] for j in w["jobs"] if "timing" in j.get("info", {}))
                    for w in untraced
                )
            else:
                values[name] = median(layer_metric(name, w) for w in traced)
    else:
        specs = bench["end_to_end"]
        setups += [w["setup_s"] for w in untraced]
        values = {
            "wall_s": median(w["wall_s"] for w in untraced),
            "cpu_s": median(w["cpu_s"] for w in untraced),
            "peak_rss_mb": median(w["peak_rss_mb"] for w in untraced),
            "setup_s": median(setups),
            "success_rate": (len(jobs) - failed) / len(jobs),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    first = workers[0]
    sizes = {j["id"]: {"G": j["info"]["G"], "k": j["info"]["k"]} for j in first["jobs"] if "G" in j.get("info", {})}
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git": git_state(), "versions": first["versions"], "nproc": first["nproc"],
        "sizes": sizes, "repetitions": len(untraced), "setup_samples_s": setups,
    }
    record = {"provenance": provenance, "metrics": metrics, "workers": workers}
    if args.trace:
        record["layer_split"] = layer_split(traced[0]) | {"trace.overhead_s": values["trace.overhead_s"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for j in jobs:
        if not j["ok"]:
            print(f"FAILED {j['id']}: {j['reason']}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
