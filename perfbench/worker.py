"""One repetition of a benchmark workload, in a fresh process.

run.py starts this script once per repetition, so GroupTable caches and
ring's lru_cache tables never carry over from one repetition or workload to
the next.  It generates the workload's inputs from the seed, runs the jobs
back to back (a closed loop with one client), checks every output against
expected.json, and prints one JSON line: set-up time, wall and CPU time over
the jobs, peak RSS, and each job's outcome.  With --trace 1 it also records
spans around branchlab's public functions (spans.py), writes them to
--spans-out, and adds the per-span totals.

Needs branchlab importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import sympy

from branchlab import chartab, clifford, grp, mat, predict, ring, verify

import spans

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
MODULES = {
    "ring": ring, "mat": mat, "grp": grp, "chartab": chartab,
    "clifford": clifford, "predict": predict, "verify": verify,
}
PREDICT_KINDS = ("z2", "f2t", "f4t", "eis2")
PREDICT_LEVELS = range(2, 51)
# criterion 11's sweep: (kind, largest l'), both levels r = 2l' and 2l'+1
SWEEP = (("z2", 20), ("f2t", 20), ("f4t", 20), ("eis2", 12))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------- jobs
# A job is (id, fn); fn() returns (record, info).  The record is compared
# with expected.json[id]; info carries sizes and timings for the result file.


def verify_job(kind: str, r: int, mackey: bool, seed: int):
    spec = ring.make_ring(kind, r=r)

    def run():
        rep = verify.verify_branching(spec, seed=seed, mackey=mackey)
        body = rep.to_json()
        timing = body.pop("timing")
        record = {
            "passed": rep.passed,
            "digest": digest(body),
            "gl_order": rep.gl_order,
            "num_irreducibles": rep.num_irreducibles,
        }
        return record, {"G": rep.gl_order, "k": rep.num_irreducibles, "timing": timing}

    return f"verify:{kind}:r{r}:{'mackey' if mackey else 'nomackey'}", run


def sweep_job():
    """Square roots of 1 counted by brute force against the closed form n_r."""

    def run():
        rows = []
        for kind, lim in SWEEP:
            for lvl in range(1, lim + 1):
                even = ring.make_ring(kind, r=2 * lvl)
                odd = ring.make_ring(kind, r=2 * lvl + 1)
                brute = ring.sqrt1_count(ring.truncate(even, lvl))
                n_even, n_odd = predict.n_r(even), predict.n_r(odd)
                if not n_even == n_odd == brute:
                    raise AssertionError(f"{kind} l'={lvl}: n_r {n_even}/{n_odd} != sqrt1 count {brute}")
                rows.append([kind, lvl, n_even, n_odd, brute])
        return rows, {"levels": 2 * len(rows)}

    return "sweep", run


def predict_points(spec) -> list:
    """Every trace class and determinant-image size the predictor accepts here."""
    low_units = (spec.q - 1) * spec.q ** (spec.ell_prime - 1)
    # low_units is 2^j or 3 * 4^j, so its divisors are 2^i and 3 * 2^i
    dets = [m << i for m in (1, 3) for i in range(low_units.bit_length()) if low_units % (m << i) == 0]
    points = [("unit", None), ("nonunit", None)] + [("nonunit", d) for d in dets]
    return [predict.predict_branching(spec, tc, det_cent=d).to_json() for tc, d in points]


def predict_levels() -> list[str]:
    return [f"{kind}:{r}" for kind in PREDICT_KINDS for r in PREDICT_LEVELS]


def predict_job(levels: list[str]):
    """Closed-form predictions at seed-chosen levels up to r = 50, one digest per level."""

    def run():
        out = {}
        for key in levels:
            kind, r = key.split(":")
            out[key] = digest(predict_points(ring.make_ring(kind, r=int(r))))
        return out, {"levels": len(levels)}

    return "predict", run


def orbit_job(kind: str, r: int):
    """GL2, its classes, then psi_A and its inertia for every cyclic orbit; no character table.

    Orbits run in the fixed order verify_branching uses: peak RSS depends on
    the order, because inertia data stays cached on the GL2 table.
    """
    spec = ring.make_ring(kind, r=r)

    def run():
        gl = grp.build_gl2(spec)
        classes = grp.conjugacy_classes(gl)
        lp = ring.truncate(spec, spec.ell_prime)
        triples = sorted({mat.companion_form(A).triple for A in mat.all_cyclic_matrices(lp)})
        rows = []
        for a, alpha, beta in triples:
            top = ring.mul(ring.inv(ring.RingElem(lp, a)), ring.RingElem(lp, alpha))
            comp = mat.mat_from_codes(lp, 0, top.code, a, beta)
            I = clifford.inertia(clifford.make_psiA(gl, comp))
            trace_class = "unit" if ring.is_unit(mat.trace(comp)) else "nonunit"
            pred = predict.predict_branching(spec, trace_class, det_cent=mat.centralizer_units(comp)[1])
            if pred.dA != len(I.dA_reps):
                raise AssertionError(f"orbit {(a, alpha, beta)}: |D_A| {len(I.dA_reps)} != predicted {pred.dA}")
            rows.append([a, alpha, beta, len(I.dA_reps), I.c_gl.n, I.c_sl.n, I.c_sl_bracket.n])
        return rows, {"G": gl.n, "k": classes.k, "orbits": len(rows)}

    return f"orbits:{kind}:r{r}", run


def make_jobs(workload: str, seed: int) -> list:
    if workload == "table-z2r4":
        return [verify_job("z2", 4, False, seed)]
    if workload == "mackey-r3":
        return [verify_job(kind, 3, True, seed) for kind in ("z2", "f2t", "eis2")]
    if workload == "tablefree":
        levels = sorted(random.Random(seed).sample(predict_levels(), 100))
        return [sweep_job(), predict_job(levels), orbit_job("f4t", 2), orbit_job("z2", 5)]
    if workload == "smoke":
        levels = sorted(random.Random(seed).sample(predict_levels(), 10))
        return [verify_job("z2", 2, True, seed), orbit_job("z2", 2), predict_job(levels)]
    raise ValueError(f"unknown workload {workload!r}")


def matches(job_id: str, record, expected: dict) -> bool:
    if job_id == "predict":
        return all(expected["predict"].get(k) == v for k, v in record.items())
    return json.loads(json.dumps(record)) == expected.get(job_id)


# --------------------------------------------------------------- span checks


def check_spans(sp: list, first: int, info: dict) -> str | None:
    """Span totals of one verify job against its BranchReport.timing, or None if they agree."""
    top = spans.children_named(sp, -1, "verify.verify_branching")
    top = [i for i in top if i >= first]
    if len(top) != 1:
        return f"expected one verify_branching span, found {len(top)}"
    vb = top[0]
    dixon = spans.children_named(sp, vb, "chartab.dixon_table")
    regular = spans.children_named(sp, vb, "verify.find_regular")
    if len(dixon) != 2 or len(regular) != 1:
        return f"verify_branching has {len(dixon)} dixon_table and {len(regular)} find_regular children"
    timing = info["timing"]
    for idx, key in ((vb, "total"), (dixon[0], "chartab_gl"), (dixon[1], "chartab_sl"), (regular[0], "find_regular")):
        dur = sp[idx][spans.END] - sp[idx][spans.START]
        if abs(dur - timing[key]) > 0.05 + 0.02 * timing[key]:
            return f"span {sp[idx][spans.NAME]} took {dur:.6f}s but timing.{key} is {timing[key]:.6f}s"
    return None


# --------------------------------------------------------------------- main


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() just before spawn")
    ap.add_argument("--setup-only", action="store_true", help="stop once the jobs are ready")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    jobs = make_jobs(args.workload, args.seed)
    expected = json.loads(EXPECTED.read_text())
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    rec = None
    if args.trace:
        rec = spans.Recorder()
        rec.install(MODULES)
    results = []
    cpu0, t0 = cpu_s(), time.perf_counter()
    for job_id, run in jobs:
        first = len(rec.spans) if rec else 0
        res = {"id": job_id, "ok": False, "reason": None}
        try:
            record, info = run()
        except Exception as exc:  # a failed job is counted, not fatal
            traceback.print_exc()
            res["reason"] = f"raised {exc!r}"
        else:
            res["info"] = info
            if isinstance(record, dict) and record.get("passed") is False:
                res["reason"] = "report passed = False"
            elif not matches(job_id, record, expected):
                res["reason"] = "output differs from the expected record"
            elif rec and job_id.startswith("verify:"):
                res["reason"] = check_spans(rec.spans, first, info)
            res["ok"] = res["reason"] is None
        results.append(res)
    wall = time.perf_counter() - t0
    out.update(
        wall_s=wall,
        cpu_s=cpu_s() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        jobs=results,
        versions={"python": platform.python_version(), "numpy": np.__version__, "sympy": sympy.__version__},
        nproc=len(os.sched_getaffinity(0)),
    )
    if rec:
        rec.uninstall()
        sp = rec.spans
        out["totals"] = spans.totals(sp)
        # the denominator of chartab.decompose.yield: inner products decompose computed
        out["decompose_inner_calls"] = sum(
            1 for s in sp
            if s[spans.NAME] == "chartab.inner" and s[spans.PARENT] >= 0
            and sp[s[spans.PARENT]][spans.NAME] == "chartab.decompose"
        )
        if args.spans_out:
            args.spans_out.write_text(json.dumps({"fields": spans.FIELDS, "spans": sp}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
