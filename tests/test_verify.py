"""End-to-end branching reports, regular-irreducible detection, and the CLI."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from branchlab import chartab, clifford, cyclo, grp, mat, predict, ring, verify

GOLDEN = Path(__file__).parent / "golden"


# -------------------------------------------------------------- find_regular


@pytest.mark.parametrize("kind,r", [("z2", 2), ("f2t", 3), ("eis2", 2)])
def test_find_regular_matches_brute_support(groups, chartabs, kind, r):
    # independent route: <Res_{M^ell} rho, psi_A> for every A over o_l',
    # then "regular" = all supporting A cyclic
    G = groups(kind, r)
    table = chartabs(G)
    L = clifford._layers(G)
    lp, Ml = L.spec_lp, L.Ml
    all_A = [
        mat.mat_from_codes(lp, a, b, c, d)
        for a in range(lp.size)
        for b in range(lp.size)
        for c in range(lp.size)
        for d in range(lp.size)
    ]
    res = chartab.restrict(table, Ml)
    m = np.stack([chartab.inner(res, clifford.make_psiA(G, A).psi_M) for A in all_A], axis=1)  # [rho, A]
    brute = {}
    for i in range(len(table)):
        supp = [A for A, mA in zip(all_A, m[i]) if mA != 0]
        if all(mat.is_cyclic(A) for A in supp):
            brute[i] = sorted(A.codes for A in supp)

    regs = verify.find_regular(G, table)
    assert [form.triple for form, _ in regs] == sorted(form.triple for form, _ in regs)
    assert sorted(i for _, members in regs for i in members) == sorted(brute)
    for form, members in regs:
        # the orbit is every cyclic matrix with the companion's trace and determinant
        orbit = sorted(
            A.codes
            for A in all_A
            if mat.is_cyclic(A) and mat.trace(A) == form.beta and mat.det(A) == -form.alpha
        )
        assert members == sorted(i for i in brute if brute[i] == orbit)
    if (kind, r) == ("z2", 2):
        assert len(brute) == 8

    # the trivial character is supported on A = 0 only, which is not cyclic
    triv = [
        i
        for i in range(len(table))
        if table.degree[i] == 1
        and np.all(table.vals[i] == table.vals[i, 0])
    ]
    assert len(triv) == 1 and triv[0] not in brute


def test_find_regular_orbit_size_check_names_the_orbit(groups, chartabs, monkeypatch):
    # a centralizer twice too large halves |GL2(o_l')| / |C(A)|, which then
    # disagrees with the count of cyclic matrices of that trace and determinant
    G = groups("z2", 3)
    real = mat.centralizer_units
    monkeypatch.setattr(mat, "centralizer_units", lambda A: (2 * real(A)[0], real(A)[1]))
    with pytest.raises(AssertionError, match=r"orbit \(1;0;0\).*\(z2, r=3\)"):
        verify.find_regular(G, chartabs(G))


def test_find_regular_rejects_a_regular_over_two_orbits(groups, chartabs, monkeypatch):
    G = groups("z2", 3)
    table = chartabs(G)
    i = verify.find_regular(G, table)[0][1][0]
    real = chartab.decompose

    def second_orbit(f, irr):
        P = real(f, irr).copy()
        o = np.flatnonzero(P[:, i])[0]
        P[(o + 1) % len(P), i] = P[o, i]
        return P

    monkeypatch.setattr(chartab, "decompose", second_orbit)
    with pytest.raises(AssertionError, match=rf"irreducible {i} pairs with cyclic orbits \[\(1;.*\), \(1;.*\(z2, r=3\)"):
        verify.find_regular(G, table)


def _corrupt_member(monkeypatch, member, on):
    # decompose sees the stack with 1 added to one member's value at the
    # identity: the multiplicities still round, so the reconstruction fails there
    real = chartab.decompose

    def corrupted(f, irr):
        if not on(f):
            return real(f, irr)
        vals = f.vals.copy()
        vals[member, int(f.classes.class_id[f.group.identity]), 0] += 1
        return real(chartab.ClassFunction(f.group, f.n, vals), irr)

    monkeypatch.setattr(chartab, "decompose", corrupted)


def test_find_regular_decompose_failure_names_the_orbit(groups, chartabs, monkeypatch):
    # member 3 of the Ind psi_A stack is orbit 3 = (alpha, beta) = (1, 1) over o_1
    G = groups("z2", 2)
    table = chartabs(G)
    _corrupt_member(monkeypatch, 3, lambda f: True)
    with pytest.raises(AssertionError, match=r"reconstruct .* at stack member 3: Ind psi_A of orbit \(1;1;1\) \(z2, r=2\)$"):
        verify.find_regular(G, table)


def test_direct_route_decompose_failure_names_the_irreducible(groups, chartabs, monkeypatch):
    # the restricted regulars are decomposed as one stack in find_regular's order
    G = groups("z2", 2)
    rho = [i for _, members in verify.find_regular(G, chartabs(G)) for i in members][1]
    _corrupt_member(monkeypatch, 1, lambda f: f.group.n == grp.sl2_order(G.spec))
    with pytest.raises(AssertionError, match=rf"at stack member 1: Res_SL2 of irreducible {rho} \(z2, r=2\)$"):
        verify.verify_branching(G.spec, mackey=False)


def test_verify_caches_only_per_table_results_on_gl(built_tables):
    # per-orbit data (each PsiA and its preimage groups, companion forms) lives
    # with its caller and A-independent layer data on _Layers: the GL2 table's
    # cache holds per-table results only, and the residue root GL2(o_l') is
    # enumerated once, with nothing cached on it
    verify.verify_branching(ring.make_ring("z2", r=3), seed=0)
    gl, res_root = [H for H in built_tables if H.root is H]
    L = gl.cache["clifford_layers"]
    assert set(gl.cache) == {"classes", "clifford_layers"} and L.res_root is res_root and not res_root.cache
    pre = [H for H in built_tables if H.name in ("C_GL2(psi_A)", "C_SL2(psi_A)")]
    assert pre and not [H for H in pre if any(v is H for v in vars(L).values())]


def test_verify_without_mackey_builds_no_per_orbit_subgroup(built_tables):
    # |D_A| needs only the residue mask of C_GL2(psi_A): no stabilizer, residue
    # image or H^i table is built, and no preimage.  GL2 and the residue root
    # GL2(o_l') are enumerated, and the layers cut from GL2
    rep = verify.verify_branching(ring.make_ring("z2", r=4), mackey=False)
    assert rep.passed and rep.summary["num_orbits"] > 1
    assert sorted(H.name for H in built_tables) == ["GL2", "GL2", "K^2", "M^2", "SL2"]


def test_find_regular_needs_gl():
    sl = grp.build_sl2(ring.make_ring("z2", r=2))
    with pytest.raises(ValueError):
        verify.find_regular(sl, chartab.dixon_table(sl))


# ------------------------------------------------------------ golden reports


@pytest.mark.parametrize(
    "kind,r",
    [("z2", 2), ("z2", 3), ("f2t", 2), ("f2t", 3), ("eis2", 2), ("z2", 4), ("f2t", 4), ("eis2", 4), ("z2", 5)],
)
def test_reports_match_golden(reports, kind, r):
    got = reports(kind, r).to_json()
    got.pop("timing")
    want = json.loads((GOLDEN / f"{kind}_r{r}.json").read_text())
    assert got == want


def test_report_invariants(reports):
    for kind, r in [("z2", 2), ("z2", 3), ("f2t", 2), ("f2t", 3)]:
        rep = reports(kind, r)
        spec = ring.make_ring(kind, r=r)
        assert rep.schema == 1 and rep.passed
        assert rep.gl_order == grp.gl2_order(spec)
        assert rep.sl_order == grp.sl2_order(spec)
        for rec in rep.records:
            assert rec.delta == len(rec.constituent_dims) == len(rec.multiplicities)
            assert rec.delta_min <= rec.delta
            if rec.delta_max is not None:
                assert rec.delta <= rec.delta_max
            assert rec.multiplicity_free == all(m == 1 for m in rec.multiplicities)
            assert sum(d * m for d, m in zip(rec.constituent_dims, rec.multiplicities)) == rec.dim
            if rec.predicted_dim is not None:
                assert rec.constituent_dims == [rec.predicted_dim] * rec.delta
            assert rec.passed and not rec.notes
            assert rec.mackey_checked  # r <= 3 runs the Mackey route by default
        s = rep.summary
        assert s["num_regular"] == len(rep.records)
        assert s["max_delta"] == max(rec.delta for rec in rep.records)
        assert s["all_multiplicity_free"]
        assert s["witness"]["ok"]
        assert s["mackey_orbits"] == s["num_orbits"]
        assert "pass" in repr(rep)


def test_unit_trace_orbits_split_once_at_odd_level(reports):
    rep = reports("f2t", 3)
    unit_recs = [rec for rec in rep.records if rec.trace_class == "unit"]
    assert unit_recs and all(rec.delta == 1 for rec in unit_recs)
    assert rep.summary["min_dim_checks"]  # nonunit orbits exist at r = 3
    assert all(c["ok"] for c in rep.summary["min_dim_checks"])


def test_mackey_can_be_disabled(reports):
    rep = reports("z2", 2, mackey=False)
    assert rep.passed and rep.summary["mackey_orbits"] == 0
    assert not any(rec.mackey_checked for rec in rep.records)
    # branching outcome identical with and without the cross-check
    base = reports("z2", 2)
    assert [rec.to_json() | {"mackey_checked": True} for rec in rep.records] == [
        rec.to_json() | {"mackey_checked": True} for rec in base.records
    ]


def test_orbit_failures_name_kind_level_and_orbit(monkeypatch):
    real = predict.predict_branching
    monkeypatch.setattr(
        predict, "predict_branching", lambda *a, **kw: dataclasses.replace(real(*a, **kw), dA=10**6)
    )
    with pytest.raises(
        AssertionError, match=r"predicted \|D_A\| 1000000 != enumerated 1 \(z2, r=2, orbit \(1;0;0\)\)$"
    ):
        verify.verify_branching(ring.make_ring("z2", r=2), mackey=False)


def test_orbit_members_of_unequal_dimension_name_the_orbit(monkeypatch):
    # one prediction serves the whole orbit, so its members must share dim(rho)
    real = verify.find_regular

    def merged(G, table):
        (form, members), *rest = real(G, table)
        other = next(i for _, ms in rest for i in ms if table.degree[i] != table.degree[members[0]])
        return [(form, members + [other])] + rest

    monkeypatch.setattr(verify, "find_regular", merged)
    with pytest.raises(
        AssertionError, match=r"regular irreducibles of one orbit have dimensions \[\d+, \d+\] \(z2, r=2, orbit \(1;0;0\)\)$"
    ):
        verify.verify_branching(ring.make_ring("z2", r=2), mackey=False)


def test_mackey_cross_check_failures_raise(monkeypatch):
    # a Mackey route that disagrees with the direct decomposition
    real = clifford.mackey_restriction

    def doubled(psiA, phi):
        (d, first), *rest = real(psiA, phi)
        return [(d, first.scale(2))] + rest

    monkeypatch.setattr(clifford, "mackey_restriction", doubled)
    with pytest.raises(AssertionError, match=r"decompose irreducible \d+ differently \(z2, r=2, orbit"):
        verify.verify_branching(ring.make_ring("z2", r=2))
    monkeypatch.undo()
    # a fiber whose induced rows do not match the regulars one to one
    real_phis = clifford.phi_set
    monkeypatch.setattr(clifford, "phi_set", lambda psiA, **kw: real_phis(psiA, **kw)[[0, 0]])
    with pytest.raises(AssertionError, match=r"irreducible \d+ matches [02] fiber members, expected exactly 1"):
        verify.verify_branching(ring.make_ring("z2", r=2))


def test_mackey_route_builds_no_table_beyond_gl2_and_sl2(monkeypatch):
    # the odd-level fiber is a Krylov block, so a silent fallback to full
    # tables of C_GL2(psi_A) would show here even with identical outputs
    real = chartab.dixon_table
    built = []

    def counted(G, *args):
        built.append(G.name)
        return real(G, *args)

    monkeypatch.setattr(chartab, "dixon_table", counted)
    verify.verify_branching(ring.make_ring("z2", r=3), mackey=True)
    assert built == ["GL2", "SL2"]


def test_budget_error():
    with pytest.raises(grp.BudgetError):
        verify.verify_branching(ring.make_ring("z2", r=2), budget=10)


def test_f4t_level2_full_scope(reports):
    # the q = 4 family at level 2: the one non-binary residue field in scope
    rep = reports("f4t", 2)
    assert rep.passed and rep.q == 4
    assert rep.summary["num_regular"] == 192
    assert rep.summary["all_multiplicity_free"]
    assert rep.summary["witness"]["ok"]
    for rec in rep.records:
        if rec.trace_class == "nonunit":
            assert rec.dA <= rec.delta <= 4 * rec.dA


# -------------------------------------------------------------------- CLI


def _run(argv, monkeypatch=None):
    return verify.cli_main(argv)


def test_cli_ring_info(tmp_path, capsys):
    out = tmp_path / "info.json"
    assert verify.cli_main(["ring", "info", "--kind", "eis2", "--r", "5", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["kind"] == "eis2" and d["size"] == 32 and d["ramification"] == 2
    assert d["psi_order"] == 8 and d["n_r"] == 2
    assert d["gl2_order"] == grp.gl2_order(ring.make_ring("eis2", r=5))
    # r = 1 omits the branching constants but still reports ring data
    assert verify.cli_main(["ring", "info", "--kind", "z2", "--r", "1"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["size"] == 2 and "n_r" not in d


def test_cli_predict(capsys):
    assert verify.cli_main(["predict", "--kind", "f2t", "--r", "4"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"unit", "nonunit"}
    assert d["unit"]["delta_min"] == 1 and d["unit"]["delta_max"] == 2
    assert (
        verify.cli_main(
            ["predict", "--kind", "z2", "--r", "50", "--trace-class", "nonunit",
             "--det-cent", str(2**22)]
        )
        == 0
    )
    d = json.loads(capsys.readouterr().out)
    assert d["dA"] == 4 and d["delta_min"] == d["delta_max"] == 4


def test_cli_verify_json_and_csv(tmp_path, monkeypatch):
    monkeypatch.delenv("BRANCHLAB_BUDGET", raising=False)
    out = tmp_path / "report.json"
    assert verify.cli_main(["verify", "--kind", "z2", "--r", "2", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["passed"] is True and d["schema"] == 1 and len(d["records"]) == 8

    out_csv = tmp_path / "report.csv"
    code = verify.cli_main(
        ["verify", "--kind", "z2", "--r", "2", "--format", "csv",
         "--seed", "5", "--out", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0].startswith("rho_id,dim,orbit,trace_class")
    assert len(lines) == 1 + 8


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("BRANCHLAB_BUDGET", raising=False)
    # budget exhaustion -> 2
    assert verify.cli_main(["verify", "--kind", "z2", "--r", "9"]) == 2
    # usage errors -> 2
    assert verify.cli_main(["verify", "--kind", "q7", "--r", "2"]) == 2
    assert verify.cli_main(["frobnicate"]) == 2
    assert verify.cli_main(["ring", "info", "--kind", "z2", "--r", "0"]) == 2
    capsys.readouterr()
    # the environment variable overrides --budget
    monkeypatch.setenv("BRANCHLAB_BUDGET", "10")
    assert verify.cli_main(["verify", "--kind", "z2", "--r", "2", "--budget", "100000"]) == 2
    monkeypatch.delenv("BRANCHLAB_BUDGET")
    # a failing report -> 1
    real = verify.verify_branching(ring.make_ring("z2", r=2))
    fake = dataclasses.replace(real, passed=False)
    monkeypatch.setattr(verify, "verify_branching", lambda *a, **kw: fake)
    assert verify.cli_main(["verify", "--kind", "z2", "--r", "2", "--out", str(tmp_path / "f.json")]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--kind", "z2", "--r", "4", "--format", "csv"],
        ["predict", "--kind", "z2", "--r", "4", "--seed", "7"],
        ["predict", "--kind", "z2", "--r", "4", "--budget", "5"],
        ["ring", "info", "--kind", "z2", "--r", "4", "--format", "csv"],
        ["selftest", "--kind", "f4t"],
        ["selftest", "--r", "9"],
        ["selftest", "--seed", "3"],
        ["selftest", "--format", "csv"],
        ["selftest", "--out", "report.txt"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[-2].lstrip('-')}",
)
def test_cli_rejects_a_flag_its_subcommand_does_not_read(argv, capsys):
    assert verify.cli_main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_non_rational_inner_product_is_an_internal_failure(monkeypatch, capsys):
    # NotRational is a ValueError, but it signals inconsistent arithmetic, not usage
    def broken(f, g):
        raise cyclo.NotRational("inner product not integral")

    monkeypatch.delenv("BRANCHLAB_BUDGET", raising=False)
    monkeypatch.setattr(chartab, "inner", broken)
    assert verify.cli_main(["verify", "--kind", "z2", "--r", "2"]) == 1
    assert "internal consistency failure: inner product not integral" in capsys.readouterr().err


def test_cli_chartab(tmp_path, capsys):
    out = tmp_path / "tab.csv"
    code = verify.cli_main(
        ["chartab", "--kind", "z2", "--r", "2", "--group", "sl2", "--format", "csv",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("irr,degree,")
    assert len(lines) == 2 + 10  # header + class sizes + 10 irreducibles

    assert verify.cli_main(["chartab", "--kind", "f2t", "--r", "2"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["order"] == 96 and d["num_classes"] == 14
    assert sorted(d["degrees"]) == [1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 6]
    assert sum(x * x for x in d["degrees"]) == 96
    j0 = next(j for j, c in enumerate(d["classes"]) if c["element_order"] == 1)
    assert d["classes"][j0]["size"] == 1
    assert all(row["values"][j0] == str(row["degree"]) for row in d["irreducibles"])


def test_cli_selftest(capsys, monkeypatch):
    monkeypatch.delenv("BRANCHLAB_BUDGET", raising=False)
    assert verify.cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 5 and "FAIL" not in out


def _child_env():
    # the child finds the package where this process imported it from, as pytest's pythonpath does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(verify.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def test_selftest_fails_under_python_O_with_both_values():
    # python -O strips assert statements; the selftest's checks raise explicitly
    env = _child_env()
    env.pop("BRANCHLAB_BUDGET", None)
    code = (
        "import sys\n"
        "from branchlab import predict, verify\n"
        "real = predict.n_r\n"
        "predict.n_r = lambda spec: real(spec) + 1\n"
        "sys.exit(verify.cli_main(['selftest']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 1
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL square-root count identity: ")]
    assert len(fails) == 1
    assert fails[0].endswith("n_r at z2 r=2 against the square-root count at l'=1: 2 != 1")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "branchlab", "ring", "info", "--kind", "f4t", "--r", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["q"] == 4 and d["gl2_order"] == grp.gl2_order(ring.make_ring("f4t", r=2))
