"""Closed-form predictions: constants, rule branches, centralizer profiles."""

from fractions import Fraction

import numpy as np
import pytest

from branchlab import clifford, mat, predict, ring


def _ring(kind, r):
    return ring.make_ring(kind, r=r)


# ------------------------------------------------------------ the constant N_r


def test_n_r_values():
    assert predict.n_r(_ring("f2t", 4)) == 2
    assert predict.n_r(_ring("f2t", 9)) == 4
    assert predict.n_r(_ring("f4t", 9)) == 16
    assert predict.n_r(_ring("z2", 2)) == 1
    assert predict.n_r(_ring("z2", 3)) == 1
    assert predict.n_r(_ring("z2", 4)) == 2  # boundary level l' = 2e
    assert predict.n_r(_ring("z2", 9)) == 4  # stable: 2q^e
    assert predict.n_r(_ring("eis2", 12)) == 8
    with pytest.raises(ValueError):
        predict.n_r(_ring("z2", 1))


def test_n_r_boundary_note():
    assert predict.n_r_note(_ring("z2", 4)) is not None
    assert predict.n_r_note(_ring("z2", 9)) is None
    assert predict.n_r_note(_ring("f2t", 4)) is None  # no boundary in char 2
    assert predict.n_r_note(_ring("eis2", 8)) is not None  # l' = 4 = 2e


def test_n_r_equals_square_root_count_of_one():
    # the constant is exactly #{x : x^2 = 1} in o_{l'}, at every reachable level
    for kind, lim in (("z2", 20), ("f2t", 20), ("f4t", 20), ("eis2", 12)):
        for lp in range(1, lim + 1):
            spec = _ring(kind, 2 * lp)
            sub = ring.truncate(spec, lp)
            assert predict.n_r(spec) == ring.sqrt1_count(sub), (kind, lp)
            # same l' reached from the odd level above
            assert predict.n_r(_ring(kind, 2 * lp + 1)) == ring.sqrt1_count(sub)


# ------------------------------------------------------------- rule branches


def _tags(pred):
    return {tag for tag, applies, _ in pred.rules if applies}


def test_char0_stable_range_is_exact():
    spec = _ring("z2", 50)  # r >= 4e + 2: the split is exactly |D_A|
    p = predict.predict_branching(spec, "nonunit", det_cent=2**22, dim_rho=2**28)
    assert p.dA == 4 and (p.delta_min, p.delta_max) == (4, 4)
    assert p.dims_equal and p.constituent_dim == 2**26
    assert predict.STABLE_SPLIT in _tags(p)
    pu = predict.predict_branching(spec, "unit")
    assert pu.dA == 1 and (pu.delta_min, pu.delta_max) == (1, 1)


def test_char0_below_stable_range_only_bounds():
    p = predict.predict_branching(_ring("z2", 3), "nonunit", det_cent=1)
    assert p.dA == 1 and p.delta_min == 1 and p.delta_max is None
    assert _tags(p) == {predict.COSET_COUNT}


def test_char2_odd_unit_trace():
    p = predict.predict_branching(_ring("f2t", 3), "unit")
    assert (p.delta_min, p.delta_max) == (1, 1)
    assert predict.ODD_UNIT in _tags(p)


def test_char2_even_unit_trace_square_classes():
    spec = _ring("f2t", 4)
    sq = predict.predict_branching(spec, "unit", trace_square=True, dim_rho=12)
    assert (sq.delta_min, sq.delta_max) == (1, 2) and sq.dims_equal
    assert predict.EVEN_SQUARE in _tags(sq)
    ns = predict.predict_branching(spec, "unit", trace_square=False)
    assert (ns.delta_min, ns.delta_max) == (1, 1)
    assert predict.EVEN_NONSQUARE in _tags(ns)
    unknown = predict.predict_branching(spec, "unit")
    assert (unknown.delta_min, unknown.delta_max) == (1, 2)
    assert predict.EVEN_UNIT in _tags(unknown)


def test_char2_nonunit_trace_bounds():
    even = predict.predict_branching(_ring("f2t", 4), "nonunit", det_cent=1)
    assert even.dA == 2 and (even.delta_min, even.delta_max) == (2, 8)
    assert predict.NONUNIT_BOUNDS in _tags(even)
    odd = predict.predict_branching(_ring("f2t", 5), "nonunit", det_cent=1)
    assert odd.dA == 2 and (odd.delta_min, odd.delta_max) == (2, 16)  # q^3 |D_A|
    f4 = predict.predict_branching(_ring("f4t", 4), "nonunit", det_cent=3)
    assert f4.dA == 4 and (f4.delta_min, f4.delta_max) == (4, 16)


def test_predict_from_matrix():
    spec = _ring("f2t", 4)
    lp = ring.truncate(spec, 2)
    nil = mat.mat(lp, [[0, 0], [1, 0]])
    p = predict.predict_branching(spec, None, A=nil)
    assert p.trace_class == "nonunit" and p.dA == 2
    unit = mat.mat_from_codes(lp, 0, 1, 1, 1)  # trace 1, a square unit
    pu = predict.predict_branching(spec, None, A=unit)
    assert pu.trace_class == "unit" and pu.trace_square is True
    nonsq = mat.mat_from_codes(lp, 0, 1, 1, 3)  # trace 1 + t
    pn = predict.predict_branching(spec, None, A=nonsq)
    assert pn.trace_square is False and (pn.delta_min, pn.delta_max) == (1, 1)


def test_predict_validation_errors():
    spec = _ring("f2t", 4)
    lp = ring.truncate(spec, 2)
    with pytest.raises(ValueError):
        predict.predict_branching(spec, "weird")
    with pytest.raises(ValueError):
        predict.predict_branching(spec, "nonunit", det_cent=3)  # does not divide q^(l'-1)(q-1)
    with pytest.raises(ValueError):
        predict.predict_branching(spec, "unit", det_cent=1)  # forces dA != 1
    with pytest.raises(ValueError):
        predict.predict_branching(spec, None, A=mat.mat(spec, [[0, 0], [1, 0]]))  # wrong level
    with pytest.raises(ValueError):
        predict.predict_branching(spec, None, A=mat.mat(lp, [[1, 0], [0, 1]]))  # not cyclic
    with pytest.raises(ValueError):
        predict.predict_branching(_ring("z2", 1), "unit")


def test_dim_rho_divisibility_error():
    with pytest.raises(ValueError):
        predict.predict_branching(_ring("z2", 50), "nonunit", det_cent=2**22, dim_rho=6)


def test_prediction_serialization():
    p = predict.predict_branching(_ring("z2", 4), "nonunit", det_cent=1)
    d = p.to_json()
    assert d["kind"] == "z2" and d["r"] == 4 and d["dA"] == 2
    assert d["n_r"] == 2 and d["n_r_note"]
    assert all(set(rec) == {"rule", "applies", "hypothesis"} for rec in d["rules"])
    applying = [rec["rule"] for rec in d["rules"] if rec["applies"]]
    assert predict.COSET_COUNT in applying


# ---------------------------------------------------------------- profiles


def test_centralizer_profile_against_group_stabilizers(groups):
    # ring-level pair scan vs the literal conjugation stabilizers in the group
    for kind, r in [("z2", 2), ("f2t", 2), ("eis2", 2), ("z2", 3), ("f2t", 3)]:
        G = groups(kind, r)
        spec = G.spec
        lp = ring.truncate(spec, spec.ell_prime)
        for a_code in range(lp.size):
            for b_code in range(lp.size):
                A = mat.mat_from_codes(lp, 0, a_code, 1, b_code)
                prof = predict.centralizer_profile(spec, A)
                I = clifford.inertia(clifford.make_psiA(G, A))
                assert prof["c_gl_psi"] == I.c_gl.n
                assert prof["c_sl_psi"] == I.c_sl.n
                assert prof["det_cent"] == len(np.unique(mat._vdet(lp, mat.centralizer(A))))
                assert prof["c_lift"] == mat.centralizer_units(mat.mat_lift(spec, A))[0]


def test_centralizer_profile_canonicalizes():
    spec = _ring("f2t", 4)
    lp = ring.truncate(spec, 2)
    A = mat.mat(lp, [[1, 1], [1, 0]])  # cyclic but not companion
    prof = predict.centralizer_profile(spec, A)
    comp = mat.companion_form(A).companion
    assert prof == predict.centralizer_profile(spec, comp)


def test_centralizer_profile_budget():
    spec = _ring("z2", 13)
    lp = ring.truncate(spec, 6)
    A = mat.mat_from_codes(lp, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        predict.centralizer_profile(spec, A)


# ------------------------------------------------------------- lower bound


def test_min_dim_bound_value():
    spec = _ring("f2t", 3)
    lp = ring.truncate(spec, 1)
    nil = mat.mat(lp, [[0, 0], [1, 0]])
    assert predict.min_dim_bound(spec, nil) == Fraction(3, 4)
    other = mat.mat(lp, [[0, 1], [1, 0]])  # trace 0, det 1
    assert predict.min_dim_bound(spec, other) == Fraction(3, 4)


def test_min_dim_bound_at_higher_level():
    spec = _ring("f2t", 5)
    lp = ring.truncate(spec, 2)
    nil = mat.mat(lp, [[0, 0], [1, 0]])
    b = predict.min_dim_bound(spec, nil)
    assert b > 0 and b.denominator >= 1


def test_min_dim_bound_hypotheses():
    lp1 = ring.truncate(_ring("f2t", 3), 1)
    nil1 = mat.mat(lp1, [[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        predict.min_dim_bound(_ring("z2", 3), nil1)  # characteristic zero
    with pytest.raises(ValueError):
        predict.min_dim_bound(_ring("f2t", 4), mat.mat(ring.truncate(_ring("f2t", 4), 2), [[0, 0], [1, 0]]))  # even r
    with pytest.raises(ValueError):
        predict.min_dim_bound(_ring("f2t", 3), mat.mat(lp1, [[0, 1], [1, 1]]))  # unit trace
    with pytest.raises(ValueError):
        predict.min_dim_bound(_ring("f2t", 3), mat.mat(lp1, [[1, 0], [0, 1]]))  # not cyclic
    with pytest.raises(ValueError):
        predict.min_dim_bound(_ring("f2t", 3), mat.mat(ring.truncate(_ring("f2t", 3), 2), [[0, 0], [1, 0]]))  # wrong level
