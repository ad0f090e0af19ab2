"""End-to-end branching verification and the command-line interface.

The pipeline enumerates GL2(o_r) and SL2(o_r), computes both character
tables exactly, locates the regular irreducibles (those whose restriction
to the level-ell congruence block is supported on cyclic matrices), and
decomposes each restriction to SL2.  Observed constituent counts and
dimensions are checked against the closed-form predictions, against the
Mackey-decomposition route at small levels, and against the dimension
lower bound for odd levels in characteristic two.  The outcome is a
versioned BranchReport (schema 1).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import chartab, clifford, cyclo, grp, mat, predict, ring
from .chartab import ClassFunction
from .grp import GroupTable
from .mat import Mat2
from .ring import RingSpec

SCHEMA = 1
KINDS = ("z2", "f2t", "f4t", "eis2")


# ----------------------------------------------------- regular irreducibles


def find_regular(G: GroupTable, table: ClassFunction):
    """[(irreducible index, supporting A list)] over the regular irreducibles of G.

    table is G's character table (chartab.dixon_table).  The support of rho
    is {A over o_l' : <Res_{M^ell} rho, psi_A> != 0}; rho is regular iff
    every supporting A is cyclic.  A float transform only proposes the
    support; acceptance is the exact identity
    sum_A m_A psi_A = Res_{M^ell} rho, which pins the m_A uniquely because
    distinct characters of the abelian M^ell are linearly independent.  For
    regular rho the support is verified to be a single conjugation orbit
    (every member has the same companion form, reached by an explicit
    conjugator) carrying one common multiplicity.  Companion forms are
    memoized per call, by A.
    """
    L = clifford._layers(G)
    lp = L.spec_lp
    Ml = L.Ml
    T = L.psi_table
    n = ring.psi_order(L.spec)
    num_A = lp.size**4

    # rho is constant on each GL2 class meeting M^ell, so psi_A is summed per
    # class first; plain einsum loops, as BLAS threads would cost CPU for no wall time
    cls, cls_m = np.unique(table.classes.class_id[Ml.pos_in(G)], return_inverse=True)
    V = table.float_values()[:, cls]  # [k, c] float values of rho
    W = np.zeros((num_A, len(cls)), dtype=complex)  # [A, c] class sums of conjugated psi
    np.add.at(W, (slice(None), cls_m), np.exp(-2j * np.pi * T / n))
    coef = np.einsum("ic,ac->ia", V, W) / Ml.n
    mult = np.rint(coef.real).astype(np.int64)
    if np.max(np.abs(coef - mult)) > 0.25:
        raise AssertionError("float support proposal is ambiguous")

    entries = mat._vunpack(lp, np.arange(num_A, dtype=np.int64))
    cyc = mat.cyclic_mask(lp, entries)
    ccM = grp.conjugacy_classes(Ml)
    red_n = cyclo.reduction_matrix(n)
    exps_at_reps = T[:, ccM.reps] % n

    res = chartab.restrict(table, Ml)
    forms: dict = {}  # A codes -> companion form, which validates an explicit conjugator

    out = []
    for i in range(len(table)):
        supp = np.flatnonzero(mult[i] > 0)
        vals = np.einsum("s,sja->ja", mult[i, supp], red_n[exps_at_reps[supp]])
        if ClassFunction(Ml, n, vals) != res[i]:
            raise AssertionError(f"support reconstruction failed for irreducible {i}")
        if not np.all(cyc[supp]):
            continue  # not regular
        if len(set(mult[i, supp].tolist())) != 1:
            raise AssertionError(f"orbit multiplicities differ for irreducible {i}")
        support = []
        labels = set()
        for code in supp:
            A = Mat2(lp, *(int(t[code]) for t in entries))
            if A.codes not in forms:
                forms[A.codes] = mat.companion_form(A)
            labels.add(forms[A.codes].triple)
            support.append(A)
        if len(labels) != 1:
            raise AssertionError(f"support of irreducible {i} spans several orbits: {labels}")
        out.append((i, support))
    return out


# ------------------------------------------------------------------ reports


@dataclass
class RhoRecord:
    """Branching outcome for one regular irreducible of GL2."""

    rho_id: int
    dim: int
    orbit: list  # companion triple codes over o_l'
    orbit_text: str
    trace_class: str
    trace_square: bool | None
    dA: int
    delta: int
    constituent_dims: list
    multiplicities: list
    multiplicity_free: bool
    delta_min: int
    delta_max: int | None
    predicted_dim: int | None
    rules: list
    mackey_checked: bool
    passed: bool
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(kw_only=True)
class BranchReport:
    schema: int = SCHEMA
    kind: str
    q: int
    r: int
    gl_order: int
    sl_order: int
    num_irreducibles: int
    records: list
    summary: dict
    timing: dict
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)

    def __repr__(self):
        return (
            f"<BranchReport {self.kind} r={self.r}: {len(self.records)} regular "
            f"irreducibles, max delta {self.summary['max_delta']}, "
            f"{'pass' if self.passed else 'FAIL'}>"
        )


def verify_branching(
    spec: RingSpec,
    *,
    budget: int | None = None,
    seed: int = 0,
    mackey: bool | None = None,
) -> BranchReport:
    """Restrict every regular irreducible of GL2(o_r) to SL2(o_r) and audit it.

    mackey=None runs the Mackey cross-check automatically for r <= 3; the
    direct route (exact decomposition against the SL2 character table) always
    runs.  Raises grp.BudgetError when the group exceeds the element budget
    and AssertionError on any internal consistency failure.
    """
    budget = grp.DEFAULT_BUDGET if budget is None else budget
    mackey_on = (spec.r <= 3) if mackey is None else mackey
    timing: dict = {}
    t_total = time.perf_counter()

    t = time.perf_counter()
    gl = grp.build_gl2(spec, budget=budget)
    L = clifford._layers(gl)
    sl = L.sl
    timing["build"] = time.perf_counter() - t

    t = time.perf_counter()
    gl_tab = chartab.dixon_table(gl, seed)
    timing["chartab_gl"] = time.perf_counter() - t
    t = time.perf_counter()
    sl_tab = chartab.dixon_table(sl, seed)
    timing["chartab_sl"] = time.perf_counter() - t

    t = time.perf_counter()
    regs = find_regular(gl, gl_tab)
    timing["find_regular"] = time.perf_counter() - t

    t = time.perf_counter()
    reg_ids = [i for i, _ in regs]
    decomps = dict(zip(reg_ids, chartab.decompose(chartab.restrict(gl_tab[reg_ids], sl), sl_tab)))
    timing["decompose"] = time.perf_counter() - t

    gl_deg, sl_deg = gl_tab.degree, sl_tab.degree
    forms: dict = {}  # supp[0] codes -> companion form: a regular's support is one full orbit
    by_orbit: dict = {}  # triple -> (companion form, regular irreducibles)
    for i, supp in regs:
        if supp[0].codes not in forms:
            forms[supp[0].codes] = mat.companion_form(supp[0])
        form = forms[supp[0].codes]
        by_orbit.setdefault(form.triple, (form, []))[1].append(i)

    lp = L.spec_lp
    records = []
    min_dim_checks = []
    witness = None
    mackey_orbits = 0
    timing["mackey"] = 0.0

    for triple in sorted(by_orbit):
        form, members = by_orbit[triple]
        comp, orbit_text = form.companion, form.text
        psiA = clifford.make_psiA(gl, comp)
        where = clifford._where(psiA)
        dA = len(psiA.dA_reps)

        if mackey_on:
            t = time.perf_counter()
            phis = clifford.phi_set(psiA)
            if len(phis) != len(members):
                raise AssertionError(f"{len(phis)} fiber members vs {len(members)} regular irreducibles ({where})")
            # one induce of the fiber; each regular must be Ind phi for exactly one phi
            ind = chartab.decompose(chartab.induce(phis, gl), gl_tab)
            irreducible = ind.sum(axis=1) == 1
            match = []
            for i in members:
                hits = np.flatnonzero(irreducible & (ind[:, i] == 1))
                if len(hits) != 1:
                    raise AssertionError(
                        f"irreducible {i} matches {len(hits)} fiber members, expected exactly 1 ({where})"
                    )
                match.append(hits[0])
            summands = clifford.mackey_restriction(psiA, phis[match])
            via_mackey = sum(chartab.decompose(ind_d, sl_tab) for _, ind_d in summands)
            for i, m in zip(members, via_mackey):
                if not np.array_equal(m, decomps[i]):
                    raise AssertionError(
                        f"Mackey route and direct route decompose irreducible {i} differently ({where})"
                    )
            mackey_orbits += 1
            timing["mackey"] += time.perf_counter() - t

        orbit_max_delta = 0
        for i in members:
            dim = int(gl_deg[i])
            js = np.flatnonzero(decomps[i])
            dims = sl_deg[js].tolist()
            mults = decomps[i][js].tolist()
            delta = len(js)
            orbit_max_delta = max(orbit_max_delta, delta)
            mfree = all(m == 1 for m in mults)
            pred = predict.predict_branching(spec, None, A=comp, dim_rho=dim)
            notes = []
            ok = mfree
            if pred.dA is not None and pred.dA != dA:
                raise AssertionError(f"predicted |D_A| {pred.dA} != enumerated {dA} at irreducible {i} ({where})")
            if delta < pred.delta_min:
                ok = False
                notes.append(f"delta {delta} below predicted minimum {pred.delta_min}")
            if pred.delta_max is not None and delta > pred.delta_max:
                ok = False
                notes.append(f"delta {delta} above predicted maximum {pred.delta_max}")
            if pred.dims_equal and len(set(dims)) > 1:
                ok = False
                notes.append(f"dimensions {dims} not all equal")
            if pred.dims_equal and len(set(dims)) == 1 and dims[0] * delta != dim:
                ok = False
                notes.append("equal dimensions do not sum to dim(rho)")

            records.append(
                RhoRecord(
                    rho_id=i,
                    dim=dim,
                    orbit=list(triple),
                    orbit_text=orbit_text,
                    trace_class=pred.trace_class,
                    trace_square=pred.trace_square,
                    dA=dA,
                    delta=delta,
                    constituent_dims=dims,
                    multiplicities=mults,
                    multiplicity_free=mfree,
                    delta_min=pred.delta_min,
                    delta_max=pred.delta_max,
                    predicted_dim=pred.constituent_dim,
                    rules=[tag for tag, applies, _ in pred.rules if applies],
                    mackey_checked=mackey_on,
                    passed=ok,
                    notes=notes,
                )
            )

        # dimension lower bound for constituents over psi_[A] (char 2, odd r > 2);
        # the trace class is the orbit's, so the last member's prediction holds it
        if spec.char_two and spec.r == 3 and pred.trace_class == "nonunit":
            bound = predict.min_dim_bound(spec, comp)
            prof = predict.centralizer_profile(spec, comp)
            if prof["c_sl_psi"] != psiA.c_sl.n or prof["c_gl_psi"] != psiA.c_gl.n:
                raise AssertionError(f"ring-level centralizer sizes disagree with the stabilizer scan ({where})")
            # the SL2 irreducibles over psi_[A] are the constituents of Ind_{K^l}^{SL2} psi_[A]
            fiber = chartab.decompose(chartab.induce(psiA.psi_K, sl), sl_tab)
            fiber_dims = sl_deg[np.flatnonzero(fiber)].tolist()
            ok_bound = all(Fraction(d) >= bound for d in fiber_dims)
            min_dim_checks.append(
                {
                    "orbit": orbit_text,
                    "bound": str(bound),
                    "num_characters": len(fiber_dims),
                    "min_dim": min(fiber_dims) if fiber_dims else None,
                    "ok": ok_bound,
                }
            )

        if triple[1:] == (0, 0):
            sqrt1 = ring.sqrt1_count(lp)
            nr = predict.n_r(spec)
            witness = {
                "orbit": orbit_text,
                "dA": dA,
                "sqrt1_count": sqrt1,
                "n_r": nr,
                "max_delta": orbit_max_delta,
                "ok": dA == sqrt1 == nr and orbit_max_delta >= nr,
            }

    if witness is None:
        raise AssertionError(
            f"the distinguished orbit (alpha = beta = 0) produced no regular irreducible ({spec.short_name}, r={spec.r})"
        )

    max_delta = max((rec.delta for rec in records), default=0)
    summary = {
        "num_regular": len(records),
        "num_orbits": len(by_orbit),
        "max_delta": max_delta,
        "all_multiplicity_free": all(rec.multiplicity_free for rec in records),
        "witness": witness,
        "min_dim_checks": min_dim_checks,
        "mackey_orbits": mackey_orbits,
    }
    timing["total"] = time.perf_counter() - t_total
    passed = (
        all(rec.passed for rec in records)
        and witness["ok"]
        and all(c["ok"] for c in min_dim_checks)
    )
    return BranchReport(
        kind=spec.short_name,
        q=spec.q,
        r=spec.r,
        gl_order=gl.n,
        sl_order=sl.n,
        num_irreducibles=len(gl_tab),
        records=records,
        summary=summary,
        timing={k: round(v, 6) for k, v in timing.items()},
        passed=passed,
    )


# ---------------------------------------------------------------- formatting


def _fmt_cyclo(n: int, vec) -> str:
    """Text of one power-basis vector of Z[zeta_n], a row of ClassFunction.vals."""
    if not np.any(vec):
        return "0"
    parts = []
    for k, c in enumerate(map(int, vec)):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        base = f"z{n}" if k == 1 else f"z{n}^{k}"
        if c == 1:
            parts.append(base)
        elif c == -1:
            parts.append(f"-{base}")
        else:
            parts.append(f"{c}{base}")
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def report_csv(report: BranchReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(
        [
            "rho_id", "dim", "orbit", "trace_class", "trace_square", "dA",
            "delta", "constituent_dims", "multiplicity_free",
            "delta_min", "delta_max", "mackey_checked", "passed",
        ]
    )
    for rec in report.records:
        w.writerow(
            [
                rec.rho_id, rec.dim, rec.orbit_text, rec.trace_class,
                rec.trace_square, rec.dA, rec.delta,
                "+".join(map(str, rec.constituent_dims)), rec.multiplicity_free,
                rec.delta_min, rec.delta_max if rec.delta_max is not None else "",
                rec.mackey_checked, rec.passed,
            ]
        )
    return buf.getvalue()


def chartab_json(G: GroupTable, table: ClassFunction) -> dict:
    cc = table.classes
    degrees = table.degree.tolist()
    return {
        "group": G.name,
        "kind": G.spec.short_name,
        "r": G.spec.r,
        "order": G.n,
        "num_classes": cc.k,
        "root_order": table.n,
        "degrees": degrees,
        "classes": [
            {
                "rep": mat.encode_mat(G.matrix(int(cc.reps[j]))),
                "size": int(cc.sizes[j]),
                "element_order": int(cc.orders[j]),
            }
            for j in range(cc.k)
        ],
        "irreducibles": [
            {"degree": d, "values": [_fmt_cyclo(table.n, v) for v in row]} for d, row in zip(degrees, table.vals)
        ],
    }


def chartab_csv(G: GroupTable, table: ClassFunction) -> str:
    cc = table.classes
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["irr", "degree"] + [mat.encode_mat(G.matrix(int(p))) for p in cc.reps])
    w.writerow(["class_size", ""] + [int(s) for s in cc.sizes])
    for i, (d, row) in enumerate(zip(table.degree.tolist(), table.vals)):
        w.writerow([f"chi_{i}", d] + [_fmt_cyclo(table.n, v) for v in row])
    return buf.getvalue()


# ----------------------------------------------------------------------- CLI


def _add_common(p: argparse.ArgumentParser, need_ring=True):
    p.add_argument("--kind", choices=KINDS, required=need_ring, help="ring family")
    p.add_argument("--r", type=int, required=need_ring, help="quotient level")
    p.add_argument("--budget", type=int, default=None, help="max group order to enumerate")
    p.add_argument("--seed", type=int, default=0, help="seed for the character-table splitting order")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _budget_of(args) -> int:
    env = os.environ.get("BRANCHLAB_BUDGET")
    if env is not None:
        return int(env)  # the environment overrides --budget
    if args.budget is not None:
        return args.budget
    return grp.DEFAULT_BUDGET


def _ring_of(args) -> RingSpec:
    return ring.make_ring(args.kind, r=args.r)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_ring(args) -> int:
    if args.action != "info":
        raise ValueError(f"unknown ring action {args.action!r}")
    spec = _ring_of(args)
    info = {
        "kind": spec.short_name,
        "family": spec.kind,
        "q": spec.q,
        "r": spec.r,
        "size": spec.size,
        "ell": spec.ell,
        "ell_prime": spec.ell_prime,
        "ramification": spec.e,
        "char_two": spec.char_two,
        "psi_order": ring.psi_order(spec),
        "unit_count": ring.unit_count(spec),
    }
    try:
        info["sqrt1_count"] = ring.sqrt1_count(spec)
    except ValueError:
        info["sqrt1_count"] = None  # too large to enumerate, no closed form here
    if spec.r >= 2:
        info["n_r"] = predict.n_r(spec)
        info["n_r_note"] = predict.n_r_note(spec)
        info["gl2_order"] = grp.gl2_order(spec)
        info["sl2_order"] = grp.sl2_order(spec)
    _emit(args, json.dumps(info, indent=2))
    return 0


def _cmd_predict(args) -> int:
    spec = _ring_of(args)
    if args.trace_class:
        pred = predict.predict_branching(
            spec, args.trace_class, det_cent=args.det_cent
        ).to_json()
    else:
        pred = {
            tc: predict.predict_branching(
                spec, tc, det_cent=args.det_cent if tc == "nonunit" else None
            ).to_json()
            for tc in ("unit", "nonunit")
        }
    _emit(args, json.dumps(pred, indent=2))
    return 0


def _cmd_verify(args) -> int:
    spec = _ring_of(args)
    report = verify_branching(spec, budget=_budget_of(args), seed=args.seed)
    if args.format == "csv":
        _emit(args, report_csv(report))
    else:
        _emit(args, json.dumps(report.to_json(), indent=2))
    return 0 if report.passed else 1


def _cmd_chartab(args) -> int:
    spec = _ring_of(args)
    budget = _budget_of(args)
    if args.group == "sl2":
        G = grp.build_sl2(spec, budget=budget)
    else:
        G = grp.build_gl2(spec, budget=budget)
    table = chartab.dixon_table(G, args.seed)
    if args.format == "csv":
        _emit(args, chartab_csv(G, table))
    else:
        _emit(args, json.dumps(chartab_json(G, table), indent=2))
    return 0


def _cmd_selftest(args) -> int:
    budget = _budget_of(args)
    failures = 0

    def check(label, fn):
        nonlocal failures
        t = time.perf_counter()
        try:
            fn()
            print(f"ok   {label} ({time.perf_counter() - t:.2f}s)")
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {label}: {exc}")

    def _orders():
        for kind, want in (("z2", (96, 1536, 24576)), ("f2t", (96, 1536, 24576))):
            for rr, w in zip((2, 3, 4), want):
                spec = ring.make_ring(kind, r=rr)
                assert grp.gl2_order(spec) == w
                assert grp.sl2_order(spec) == w // ring.unit_count(spec)

    def _orth():
        spec = ring.make_ring("z2", r=2)
        G = grp.build_gl2(spec, budget=budget)
        chartab.verify_orthogonality_exact(chartab.dixon_table(G))

    def _nr():
        for kind, lim in (("z2", 12), ("f2t", 12), ("f4t", 8), ("eis2", 8)):
            for lp in range(1, lim + 1):
                spec = ring.make_ring(kind, r=2 * lp)
                assert predict.n_r(spec) == ring.sqrt1_count(ring.truncate(spec, lp))

    def _verify(kind):
        report = verify_branching(ring.make_ring(kind, r=2), budget=budget)
        assert report.passed, "branch report failed"

    check("group orders r=2..4", _orders)
    check("exact orthogonality GL2, r=2", _orth)
    check("square-root count identity", _nr)
    check("branching z2 r=2", lambda: _verify("z2"))
    check("branching f2t r=2", lambda: _verify("f2t"))
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description="Branching of regular representations from GL2 to SL2 over finite chain rings.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ring", help="ring-level information")
    p.add_argument("action", choices=("info",))
    _add_common(p)
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("predict", help="closed-form branching prediction")
    _add_common(p)
    p.add_argument("--trace-class", choices=("unit", "nonunit"), default=None)
    p.add_argument("--det-cent", type=int, default=None, help="|det C(A)| over the level-l' ring")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("verify", help="brute-force branching verification")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chartab", help="exact character table")
    _add_common(p)
    p.add_argument("--group", choices=("gl2", "sl2"), default="gl2")
    p.set_defaults(func=_cmd_chartab)

    p = sub.add_parser("selftest", help="small end-to-end battery")
    _add_common(p, need_ring=False)
    p.set_defaults(func=_cmd_selftest)

    return parser


def cli_main(argv=None) -> int:
    """Entry point; returns the exit code (0 pass, 1 failure, 2 usage/budget)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (AssertionError, cyclo.NotRational) as exc:  # NotRational is a ValueError: catch it first
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    except (grp.BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
