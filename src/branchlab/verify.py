"""End-to-end branching verification and the command-line interface.

The pipeline enumerates GL2(o_r) and SL2(o_r), computes both character
tables exactly, locates the regular irreducibles (those whose restriction
to the level-ell congruence block is supported on cyclic matrices) orbit by
orbit, from one exact decomposition of Ind psi_A over the companion matrix
of every cyclic orbit, and decomposes each restriction to SL2.  Observed
constituent counts and dimensions are checked against the closed-form
predictions, against the Mackey-decomposition route at small levels, and
against the dimension lower bound for odd levels in characteristic two.
The outcome is a versioned BranchReport (schema 1).
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


def find_regular(G: GroupTable, table: ClassFunction) -> list[tuple[mat.CompanionForm, list[int]]]:
    """[(companion form, regular irreducible indices)] per cyclic orbit, sorted by triple.

    table is G's character table (chartab.dixon_table).  rho is regular iff
    Res_{M^ell} rho is supported on cyclic A over o_l'.  The cyclic orbits
    are the companion matrices [[0, alpha], [1, beta]], one per (alpha, beta),
    and by Frobenius reciprocity <Res_{M^ell} rho, psi_A> = <rho, Ind psi_A>,
    so one exact decomposition of the stack of Ind psi_A gives P[O, rho] for
    every orbit O at once.  Checks, each raising with the kind and r, and
    the orbit and irreducible where there is one:
    - decompose's own: the exact reconstruction of every Ind psi_A and one
      exact inner product per constituent, a failure named by its orbit;
    - the orbit size |O| = |GL2(o_l')| / |C(A)| (mat.centralizer_units) is the
      number of cyclic matrices with A's trace and determinant, so the |O|
      add up to the cyclic matrices;
    - regularity two ways: by Parseval, <Res rho, Res rho> = sum_O |O| P[O, rho]^2,
      and by Fourier inversion at 1, sum_O |O| P[O, rho] = rho(1);
    - rho pairs with at most one cyclic orbit (Clifford), so a regular with one.
    Only orbits that carry regulars are listed; the members ascend.
    """
    L = clifford._layers(G)
    spec, lp = L.spec, L.spec_lp
    where = f"{spec.short_name}, r={spec.r}"
    size = lp.size
    alpha, beta = np.divmod(np.arange(size**2), size)  # orbit o = alpha * size + beta, the triple order
    reps = [Mat2(lp, 0, int(a), 1, int(b)) for a, b in zip(alpha, beta)]

    X = mat._vunpack(lp, np.arange(size**4, dtype=np.int64))
    label = ring._vneg(lp, mat._vdet(lp, X)) * size + mat._vtrace(lp, X)
    orbit_size = np.bincount(label[mat.cyclic_mask(lp, X)], minlength=size**2)
    gl_lp = grp.gl2_order(lp)
    for o, A in enumerate(reps):
        cent, _ = mat.centralizer_units(A)
        if orbit_size[o] * cent != gl_lp:
            raise AssertionError(
                f"{orbit_size[o]} cyclic matrices share the trace and determinant of orbit "
                f"{mat.companion_form(A).text}, but |GL2(o_l')| / |C(A)| = {gl_lp}/{cent} ({where})"
            )

    psi = [clifford.make_psiA(G, A).psi_M for A in reps]
    ind = chartab.induce(ClassFunction(L.Ml, psi[0].n, np.stack([f.vals for f in psi])), G)
    try:
        P = chartab.decompose(ind, table)  # [orbit, irreducible]
    except chartab.DecomposeError as exc:
        orbit = mat.companion_form(reps[exc.member[0]]).text
        raise AssertionError(f"{exc}: Ind psi_A of orbit {orbit} ({where})") from exc

    # M^ell is normal, so <Res rho, Res rho> sums over the GL2 classes inside it
    inside = np.unique(table.classes.class_id[L.Ml.pos_in(G)])
    v = table.vals[:, inside]
    norm = chartab._weighted_inner(v, v, table.classes.sizes[inside], table.n, L.Ml.n)
    regular = norm == orbit_size @ P**2
    by_fourier = orbit_size @ P == table.degree
    hits = np.count_nonzero(P, axis=0)
    for i in np.flatnonzero((regular != by_fourier) | (hits > 1)):
        over = ", ".join(mat.companion_form(reps[o]).text for o in np.flatnonzero(P[:, i]))
        raise AssertionError(
            f"irreducible {i} pairs with cyclic orbits [{over}]: <Res rho, Res rho> = {norm[i]} vs "
            f"sum |O| P^2 = {orbit_size @ P[:, i] ** 2}, sum |O| P = {orbit_size @ P[:, i]} vs "
            f"rho(1) = {table.degree[i]} ({where})"
        )
    R = (P != 0) & regular
    return [(mat.companion_form(reps[o]), np.flatnonzero(R[o]).tolist()) for o in np.flatnonzero(R.any(axis=1))]


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
    reg_ids = [i for _, members in regs for i in members]
    try:
        decomps = dict(zip(reg_ids, chartab.decompose(chartab.restrict(gl_tab[reg_ids], sl), sl_tab)))
    except chartab.DecomposeError as exc:
        where = f"{spec.short_name}, r={spec.r}"
        raise AssertionError(f"{exc}: Res_SL2 of irreducible {reg_ids[exc.member[0]]} ({where})") from exc
    timing["decompose"] = time.perf_counter() - t

    gl_deg, sl_deg = gl_tab.degree, sl_tab.degree
    lp = L.spec_lp
    records = []
    min_dim_checks = []
    witness = None
    mackey_orbits = 0
    timing["mackey"] = 0.0

    for form, members in regs:
        triple, comp, orbit_text = form.triple, form.companion, form.text
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

        # every member is Ind phi from C_GL2(psi_A), of dimension [GL2 : C] phi(1)
        orbit_dims = sorted({int(gl_deg[i]) for i in members})
        if len(orbit_dims) != 1:
            raise AssertionError(f"regular irreducibles of one orbit have dimensions {orbit_dims} ({where})")
        dim = orbit_dims[0]
        pred = predict.predict_branching(spec, None, A=comp, dim_rho=dim)
        if pred.dA is not None and pred.dA != dA:
            raise AssertionError(f"predicted |D_A| {pred.dA} != enumerated {dA} ({where})")
        orbit_max_delta = 0
        for i in members:
            js = np.flatnonzero(decomps[i])
            dims = sl_deg[js].tolist()
            mults = decomps[i][js].tolist()
            delta = len(js)
            orbit_max_delta = max(orbit_max_delta, delta)
            mfree = all(m == 1 for m in mults)
            notes = []
            ok = mfree
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

        # dimension lower bound for constituents over psi_[A] (char 2, r = 3)
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
        "num_orbits": len(regs),
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


# the common flags, --NAME -> add_argument keywords
_FLAGS = {
    "kind": dict(choices=KINDS, required=True, help="ring family"),
    "r": dict(type=int, required=True, help="quotient level"),
    "budget": dict(type=int, default=None, help="max group order to enumerate"),
    "seed": dict(type=int, default=0, help="seed for the character-table splitting order"),
    "out": dict(default=None, help="write output to this path instead of stdout"),
    "format": dict(choices=("json", "csv"), default="json"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str):
    """Give a subcommand exactly the common flags it reads."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


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

    def equal(what, got, want):
        # an explicit raise, which python -O keeps
        if got != want:
            raise AssertionError(f"{what}: {got} != {want}")

    def check(label, fn):
        nonlocal failures
        t = time.perf_counter()
        try:
            fn()
            sys.stdout.write(f"ok   {label} ({time.perf_counter() - t:.2f}s)\n")
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            sys.stdout.write(f"FAIL {label}: {exc}\n")

    def _orders():
        for kind, want in (("z2", (96, 1536, 24576)), ("f2t", (96, 1536, 24576))):
            for rr, w in zip((2, 3, 4), want):
                spec = ring.make_ring(kind, r=rr)
                equal(f"|GL2| at {kind} r={rr}", grp.gl2_order(spec), w)
                equal(f"|SL2| at {kind} r={rr}", grp.sl2_order(spec), w // ring.unit_count(spec))

    def _orth():
        spec = ring.make_ring("z2", r=2)
        G = grp.build_gl2(spec, budget=budget)
        chartab.verify_orthogonality_exact(chartab.dixon_table(G))

    def _nr():
        for kind, lim in (("z2", 12), ("f2t", 12), ("f4t", 8), ("eis2", 8)):
            for lp in range(1, lim + 1):
                spec = ring.make_ring(kind, r=2 * lp)
                want = ring.sqrt1_count(ring.truncate(spec, lp))
                equal(f"n_r at {kind} r={2 * lp} against the square-root count at l'={lp}", predict.n_r(spec), want)

    def _verify(kind):
        report = verify_branching(ring.make_ring(kind, r=2), budget=budget)
        equal(f"branch report passed at {kind} r=2", report.passed, True)

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
    _add_flags(p, "kind", "r", "out")
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("predict", help="closed-form branching prediction")
    _add_flags(p, "kind", "r", "out")
    p.add_argument("--trace-class", choices=("unit", "nonunit"), default=None)
    p.add_argument("--det-cent", type=int, default=None, help="|det C(A)| over the level-l' ring")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("verify", help="brute-force branching verification")
    _add_flags(p, *_FLAGS)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chartab", help="exact character table")
    _add_flags(p, *_FLAGS)
    p.add_argument("--group", choices=("gl2", "sl2"), default="gl2")
    p.set_defaults(func=_cmd_chartab)

    p = sub.add_parser("selftest", help="small end-to-end battery")
    _add_flags(p, "budget")
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
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 1
    except (grp.BudgetError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
