"""Acceptance gate: twelve headline checks, one reported outcome line each.

Each criterion test computes everything it asserts from scratch or from the
session fixtures, then emits a single "criterion N: PASS/FAIL" line through
the collector fixture (the lines are replayed in the terminal summary).
A final extra test goes beyond the twelve: the Mackey identity on the
witness orbit at level 4, affordable because its coset space has order 2.
"""

import time
from fractions import Fraction
from functools import reduce

import numpy as np

from branchlab import chartab, clifford, grp, mat, predict, ring, verify


def _crit(report, n, body):
    try:
        detail = body()
    except BaseException as exc:
        report(f"criterion {n:2d}: FAIL — {type(exc).__name__}: {exc}")
        raise
    report(f"criterion {n:2d}: PASS — {detail}")


def _companions(lp):
    for a in range(lp.size):
        for b in range(lp.size):
            yield mat.mat_from_codes(lp, 0, a, 1, b)


# 1 ------------------------------------------------------------------------


def test_criterion_01_group_orders(criterion_report):
    def body():
        want = {2: (96, 48), 3: (1536, 384), 4: (24576, 3072)}
        worst = 0.0
        for kind in ("z2", "f2t"):
            for r, (glw, slw) in want.items():
                spec = ring.make_ring(kind, r=r)
                t = time.perf_counter()
                G = grp.build_gl2(spec)
                S = grp.build_sl2(spec)
                dt = time.perf_counter() - t
                assert G.n == grp.gl2_order(spec) == glw
                assert S.n == grp.sl2_order(spec) == slw
                assert dt < 1.0, f"{kind} r={r}: enumeration took {dt:.2f}s"
                worst = max(worst, dt)
        return (
            "enumerated GL2/SL2 orders equal the closed forms at z2/f2t, r=2..4 "
            f"(96/48, 1536/384, 24576/3072); slowest enumeration {worst:.3f}s < 1s"
        )

    _crit(criterion_report, 1, body)


# 2 ------------------------------------------------------------------------


def test_criterion_02_character_tables_exact(criterion_report, groups, chartabs):
    def body():
        gl16 = None
        tables = 0
        for kind in ("z2", "f2t"):
            for r in (2, 3, 4):
                G = groups(kind, r)
                for H in (G, clifford._layers(G).sl):
                    t = time.perf_counter()
                    tab = chartabs(H)
                    dt = time.perf_counter() - t
                    if kind == "z2" and r == 4 and H is G:
                        gl16 = dt
                        assert dt < 600.0, f"GL2(Z/16) table took {dt:.0f}s"
                    assert int(np.sum(tab.degree * tab.degree)) == H.n
                    if r <= 3:
                        chartab.verify_orthogonality_exact(tab)
                    else:
                        cert = chartab.orthogonality_certificate(tab)
                        assert cert["ok"] and len(cert["primes"]) >= 2
                    tables += 1
        return (
            f"{tables} tables (GL2 and SL2, z2/f2t, r=2..4): sum deg^2 = |G| and "
            "row+column orthogonality, pairwise-exact at r<=3 and by modular "
            f"certificate at r=4; GL2(Z/16) table in {gl16:.1f}s < 600s"
        )

    _crit(criterion_report, 2, body)


# 3 ------------------------------------------------------------------------


def test_criterion_03_multiplicity_free(criterion_report, reports):
    def body():
        total = 0
        for kind in ("z2", "f2t"):
            for r in (2, 3, 4):
                rep = reports(kind, r)
                assert rep.passed, f"{kind} r={r} report failed"
                assert rep.summary["all_multiplicity_free"]
                for rec in rep.records:
                    assert all(m == 1 for m in rec.multiplicities)
                total += len(rep.records)
        return (
            f"all {total} regular irreducibles over z2/f2t at r=2..4 restrict "
            "to SL2 with every multiplicity in {0, 1}"
        )

    _crit(criterion_report, 3, body)


# 4 ------------------------------------------------------------------------


def test_criterion_04_unit_trace_split(criterion_report, reports):
    def body():
        split = 0
        nonsq = 0
        for r in (2, 3, 4):
            rep = reports("f2t", r)
            unit = [rec for rec in rep.records if rec.trace_class == "unit"]
            assert unit, f"no unit-trace regulars at r={r}"
            for rec in unit:
                if r == 3:
                    assert rec.delta == 1
                    continue
                assert rec.delta in (1, 2)
                if rec.delta == 2:
                    assert rec.dim % 2 == 0
                    assert rec.constituent_dims == [rec.dim // 2] * 2
                    split += 1
                if rec.trace_square is False:
                    assert rec.delta == 1
                    nonsq += 1
        assert nonsq > 0  # the non-square branch is exercised at r = 4
        return (
            "char-2 unit-trace law at f2t: delta = 1 at r=3; delta in {1,2} at "
            f"r=2,4 with equal halves when split ({split} split, {nonsq} "
            "non-square-trace cases, all delta = 1)"
        )

    _crit(criterion_report, 4, body)


# 5 ------------------------------------------------------------------------


def test_criterion_05_nonunit_trace_bounds(criterion_report, reports):
    def body():
        checked = 0
        for r in (2, 3, 4):
            rep = reports("f2t", r)
            non = [rec for rec in rep.records if rec.trace_class == "nonunit"]
            assert non, f"no non-unit-trace regulars at r={r}"
            cap = 4 if r % 2 == 0 else 2**3
            for rec in non:
                assert rec.dA <= rec.delta <= cap * rec.dA, (r, rec.rho_id)
                checked += 1
        return (
            f"char-2 non-unit-trace bounds |D_A| <= delta <= 4|D_A| (even r) / "
            f"q^3|D_A| (odd r) hold for all {checked} such regulars at f2t r=2..4"
        )

    _crit(criterion_report, 5, body)


# 6 ------------------------------------------------------------------------


def test_criterion_06_distinguished_orbit_witness(criterion_report, reports):
    def body():
        w4 = reports("f2t", 4).summary["witness"]
        assert w4["ok"]
        assert w4["dA"] == w4["sqrt1_count"] == w4["n_r"] == 2
        assert w4["max_delta"] >= 2
        for kind, rs in (("z2", (2, 3, 4)), ("f2t", (2, 3))):
            for r in rs:
                w = reports(kind, r).summary["witness"]
                assert w["ok"]
                assert w["dA"] == w["sqrt1_count"] == w["n_r"]
                if ring.make_ring(kind, r=r).ell_prime == 1:
                    assert w["n_r"] == 1  # guarantee is trivial there
                else:
                    # z2 r=4 sits on the l' = 2e boundary: count is already 2
                    assert (kind, r) == ("z2", 4) and w["n_r"] == 2
        return (
            "nilpotent-orbit witness at f2t r=4: |D_A| = sqrt1 = guaranteed "
            f"count = 2 with max delta {w4['max_delta']} >= 2; at z2 r<=4 and "
            "f2t r<=3 the witness count matches sqrt1(o_l') exactly (1 where "
            "l' = 1, 2 at the z2 r=4 boundary)"
        )

    _crit(criterion_report, 6, body)


# 7 ------------------------------------------------------------------------


def test_criterion_07_coset_count_exhaustive(criterion_report, groups):
    def body():
        n_matrices = 0
        n_orbits = 0
        for kind in ("z2", "f2t"):
            for r in (2, 3, 4):
                G = groups(kind, r)
                spec = G.spec
                lp = ring.truncate(spec, spec.ell_prime)
                units_r = ring.unit_count(spec)
                units_lp = ring.unit_count(lp)
                ent = mat._vunpack(lp, np.arange(lp.size**4, dtype=np.int64))
                by_triple: dict = {}
                for idx in np.flatnonzero(mat.cyclic_mask(lp, ent)):
                    A = mat.mat_from_codes(lp, *(int(t[idx]) for t in ent))
                    det_im = np.unique(mat._vdet(lp, mat.centralizer(A)))
                    assert units_lp % len(det_im) == 0
                    by_triple.setdefault(mat.companion_form(A).triple, set()).add(
                        units_lp // len(det_im)
                    )
                    n_matrices += 1
                for (a, alpha, beta), formulas in by_triple.items():
                    assert len(formulas) == 1  # conjugation-invariant
                    top = ring.mul(ring.inv(ring.RingElem(lp, a)), ring.RingElem(lp, alpha))
                    comp = mat.mat_from_codes(lp, 0, top.code, a, beta)
                    I = clifford.inertia(clifford.make_psiA(G, comp))
                    assert len(I.dA_reps) == formulas.pop()
                    assert len(I.dA_reps) * len(I.det_image) == units_r
                    n_orbits += 1
        return (
            f"|D_A| = (q-1)q^(l'-1)/|det C(A)| for every cyclic A over o_l' "
            f"({n_matrices} matrices, {n_orbits} orbits, z2/f2t r=2..4): "
            "independent coset enumeration equals the determinant-image formula"
        )

    _crit(criterion_report, 7, body)


# 8 ------------------------------------------------------------------------


def test_criterion_08_mackey_decomposition(criterion_report, groups):
    def body():
        pairs = 0
        for kind in ("z2", "f2t"):
            for r in (2, 3):
                G = groups(kind, r)
                L = clifford._layers(G)
                for comp in _companions(L.spec_lp):
                    psiA = clifford.make_psiA(G, comp)
                    I = clifford.inertia(psiA)
                    for phi in clifford.phi_set(psiA):
                        summands = clifford.mackey_restriction(psiA, phi)
                        assert len(summands) == len(I.dA_reps)
                        total = reduce(lambda f, g: f + g, [s for _, s in summands])
                        lhs = chartab.restrict(chartab.induce(phi, G), L.sl)
                        assert total == lhs
                        pairs += 1
        return (
            "Res_SL2 Ind(phi) = sum over D_A of Ind(phi^d), exactly, for all "
            f"{pairs} (cyclic orbit, phi) pairs at z2/f2t r=2,3"
        )

    _crit(criterion_report, 8, body)


# 9 ------------------------------------------------------------------------


def test_criterion_09_fiber_dimensions(criterion_report, groups):
    def body():
        counts = []
        for kind in ("z2", "f2t"):
            for r in (2, 3, 4):
                G = groups(kind, r)
                lp = clifford._layers(G).spec_lp
                want = 1 if r % 2 == 0 else 2
                n_phi = 0
                for comp in _companions(lp):
                    phis = clifford.phi_set(clifford.make_psiA(G, comp))
                    assert phis
                    assert all(int(phi.degree) == want for phi in phis)
                    n_phi += len(phis)
                counts.append(f"{kind} r={r}: {n_phi} of dim {want}")
        return (
            "every member of Irr(C_GL2(psi_A) | psi_A) has dim 1 at even r and "
            "dim q = 2 at r = 3, over every cyclic orbit (" + "; ".join(counts) + ")"
        )

    _crit(criterion_report, 9, body)


# 10 -----------------------------------------------------------------------


def test_criterion_10_min_dim_bound(criterion_report, reports):
    def body():
        checks = reports("f2t", 3).summary["min_dim_checks"]
        assert checks, "no non-unit-trace orbits at f2t r=3"
        for c in checks:
            assert c["ok"] and c["num_characters"] > 0
            assert Fraction(c["min_dim"]) >= Fraction(c["bound"])
        spec = ring.make_ring("f2t", r=3)
        nil = mat.mat_from_codes(ring.truncate(spec, 1), 0, 0, 1, 0)
        assert predict.min_dim_bound(spec, nil) == Fraction(3, 4)
        return (
            f"every SL2(o_3) character over psi_[A] (f2t, trace in pi*o) has dim "
            f">= |SL2|/(q^2 |C_SL2(psi_A)|): {len(checks)} orbits, bounds "
            + ", ".join(c["bound"] for c in checks)
        )

    _crit(criterion_report, 10, body)


# 11 -----------------------------------------------------------------------


def test_criterion_11_square_root_count_identity(criterion_report):
    def body():
        t = time.perf_counter()
        boundaries = set()
        levels = 0
        for kind, lim in (("z2", 20), ("f2t", 20), ("f4t", 20), ("eis2", 12)):
            for lvl in range(1, lim + 1):
                even = ring.make_ring(kind, r=2 * lvl)
                odd = ring.make_ring(kind, r=2 * lvl + 1)
                brute = ring.sqrt1_count(ring.truncate(even, lvl))
                assert predict.n_r(even) == brute, (kind, 2 * lvl)
                assert predict.n_r(odd) == brute, (kind, 2 * lvl + 1)
                for spec in (even, odd):
                    if predict.n_r_note(spec) is not None:
                        boundaries.add((kind, spec.r))
                levels += 2
        dt = time.perf_counter() - t
        assert dt < 1.0, f"sweep took {dt:.2f}s"
        assert boundaries == {("z2", 4), ("z2", 5), ("eis2", 8), ("eis2", 9)}
        return (
            f"guaranteed-count formula equals the square-root-of-1 count at all "
            f"{levels} levels (z2/f2t/f4t l' <= 20, eis2 l' <= 12) in {dt:.2f}s < 1s; "
            "l' = 2e boundary flagged at z2 r=4,5 and eis2 r=8,9, where brute force "
            "matches q^(l'/2), not the alternative 2q^e"
        )

    _crit(criterion_report, 11, body)


# 12 -----------------------------------------------------------------------


def test_criterion_12_out_of_reach_statement(criterion_report):
    def body():
        # NOT reproducible at desk scale, stated explicitly: the characteristic-
        # zero stable range starts at r = 4e+2 = 6, where |GL2(Z/2^6)| already
        # exceeds six million elements, and large-level constituent counts grow
        # the same way.  Substituted by the exhaustive coset-count (criterion 7),
        # Mackey (criterion 8), and square-root-count (criterion 11) checks plus
        # the closed-form predictor's internal exactness, sampled here far
        # beyond enumeration range.
        big = grp.gl2_order(ring.make_ring("z2", r=6))
        assert big == 6_291_456
        small = grp.gl2_order(ring.make_ring("z2", r=4))
        assert big == 256 * small
        sampled = 0
        for kind, rs in (("z2", (6, 10, 50)), ("eis2", (10, 12, 30))):
            for r in rs:
                spec = ring.make_ring(kind, r=r)
                assert spec.r >= 4 * spec.e + 2  # stable range
                lp = spec.ell_prime
                for dc in (1 << k for k in range(lp)):
                    p = predict.predict_branching(spec, "nonunit", det_cent=dc)
                    assert p.delta_min == p.delta_max == p.dA == 2 ** (lp - 1) // dc
                    assert p.dims_equal
                    sampled += 1
                pu = predict.predict_branching(spec, "unit")
                assert (pu.delta_min, pu.delta_max) == (1, 1)
                sub = ring.truncate(spec, lp)
                if sub.size <= 1 << 22:
                    assert predict.n_r(spec) == ring.sqrt1_count(sub)
        return (
            "stated: full stable-range verification (needs r >= 6, |GL2(Z/64)| = "
            f"{big:,}) and large-level counts are beyond desk scale; substituted "
            f"by criteria 7, 8, 11 and the predictor's exact split at {sampled} "
            "sampled (level, centralizer) points up to r = 50"
        )

    _crit(criterion_report, 12, body)


# extra ----------------------------------------------------------------------


def test_extra_witness_orbit_mackey_at_level_four(criterion_report, groups):
    """Beyond the r <= 3 contract: the two-summand Mackey case at r = 4."""

    checked = 0
    for kind in ("z2", "f2t"):
        G = groups(kind, 4)
        L = clifford._layers(G)
        psiA = clifford.make_psiA(G, mat.mat_from_codes(L.spec_lp, 0, 0, 1, 0))
        I = clifford.inertia(psiA)
        assert len(I.dA_reps) == 2
        for phi in clifford.phi_set(psiA):
            summands = clifford.mackey_restriction(psiA, phi)
            assert len(summands) == 2
            total = reduce(lambda f, g: f + g, [s for _, s in summands])
            assert total == chartab.restrict(chartab.induce(phi, G), L.sl)
            checked += 1
    criterion_report(
        f"extra       PASS — witness-orbit Mackey identity at r = 4 "
        f"(two-summand case, {checked} extensions, z2 and f2t)"
    )
