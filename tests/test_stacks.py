"""Properties of the stack algebra on GL2(Z/4), its SL2 and M^1.

Every class function here is a stack of random integer combinations of
irreducible characters (generalized characters), so induction stays
integral and every inner product is a rational integer.
"""

from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from branchlab import chartab, grp, ring


@cache
def _tables():
    G = grp.build_gl2(ring.make_ring("z2", r=2))
    groups = {"GL2": G, "SL2": grp.sl2_subgroup(G), "M1": grp.congruence_subgroup(G, 1)}
    return {name: chartab.dixon_table(H) for name, H in groups.items()}


def _stack(table, coeffs):
    """One generalized character sum_i coeffs[m, i] chi_i per row of coeffs."""
    return chartab.ClassFunction(table.group, table.n, np.einsum("mi,ija->mja", coeffs, table.vals))


@st.composite
def _case(draw, lo=-3):
    """(subgroup table, GL2 table, two stacks on the subgroup, two stacks on GL2, coefficients)."""
    T = _tables()
    TH, TG = T[draw(st.sampled_from(["SL2", "M1"]))], T["GL2"]
    m = draw(st.integers(1, 3))
    coeffs = [draw(hnp.arrays(np.int64, (m, len(t)), elements=st.integers(lo, 3))) for t in (TH, TH, TG, TG)]
    F1, F2, X1, X2 = (_stack(t, c) for t, c in zip((TH, TH, TG, TG), coeffs))
    return TH, TG, F1, F2, X1, X2, coeffs


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_case(), st.integers(-4, 4), st.integers(-4, 4))
def test_restrict_and_induce_are_linear(case, a, b):
    TH, TG, F1, F2, X1, X2, _ = case
    G, H = TG.group, TH.group

    def lin(u, v):
        return u.scale(a) + v.scale(b)

    res = chartab.restrict(lin(X1, X2), H)
    assert res == lin(chartab.restrict(X1, H), chartab.restrict(X2, H))
    ind = chartab.induce(lin(F1, F2), G)
    assert ind == lin(chartab.induce(F1, G), chartab.induce(F2, G))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_case())
def test_restriction_of_a_stack_is_member_by_member(case):
    TH, _, _, _, X1, _, _ = case
    H = TH.group
    res = chartab.restrict(X1, H)
    assert len(res) == len(X1)
    for i in range(len(X1)):
        assert res[i] == chartab.restrict(X1[i], H)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_case())
def test_frobenius_reciprocity_member_by_member(case):
    TH, TG, F1, _, X1, _, _ = case
    G, H = TG.group, TH.group
    lhs = chartab.inner(chartab.induce(F1, G), X1)
    rhs = chartab.inner(F1, chartab.restrict(X1, H))
    assert lhs.shape == (len(F1),) and np.array_equal(lhs, rhs)
    assert lhs.tolist() == [chartab.inner(chartab.induce(f, G), x) for f, x in zip(F1, X1)]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_case())
def test_stacked_inner_equals_the_per_pair_inner(case):
    TH, TG, F1, F2, X1, _, coeffs = case
    got = chartab.inner(F1[:, None], F2[None])
    assert np.array_equal(got, [[chartab.inner(f, g) for g in F2] for f in F1])
    # against the irreducibles, inner reads off the coefficients (orthonormal rows)
    assert np.array_equal(chartab.inner(X1[:, None], TG[None]), coeffs[2])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_case(lo=0))
def test_decompose_of_a_stack_equals_the_per_member_result(case):
    TH, _, F1, _, _, _, coeffs = case
    got = chartab.decompose(F1, TH)
    assert got.dtype == np.int64 and np.array_equal(got, coeffs[0])
    for i, f in enumerate(F1):
        assert np.array_equal(chartab.decompose(f, TH), got[i])
