"""Exact cyclotomic integers in the power basis: reduction, products, embeddings."""

import numpy as np
import pytest
import sympy

from branchlab import cyclo
from branchlab.cyclo import NotRational


def _root(n, j):
    """Power-basis vector of zeta_n^j."""
    return cyclo.reduction_matrix(n)[j % n]


def test_roots_of_unity_basics():
    for n in range(1, 17):
        S = cyclo.product_tensor(n)
        p = _root(n, 0)
        for _ in range(n):
            p = np.einsum("a,b,abt->t", p, _root(n, 1), S)
        assert np.array_equal(p, _root(n, 0))  # z^n = 1
        # the sum of all n-th roots vanishes (n > 1)
        assert cyclo.to_integer(cyclo.reduction_matrix(n).sum(axis=0)) == (1 if n == 1 else 0)


def test_cross_order_equality():
    # zeta_6 = -zeta_3^2; equality goes through the embedding into the larger order
    assert np.array_equal(_root(6, 1), -_root(3, 2) @ cyclo.embed_matrix(3, 6))
    assert np.array_equal(_root(4, 2) @ cyclo.embed_matrix(4, 8), -_root(8, 0))
    assert np.array_equal(_root(2, 1) @ cyclo.embed_matrix(2, 6), _root(6, 3))
    assert cyclo.to_integer(_root(5, 0)) == 1
    assert not np.array_equal(_root(5, 1), _root(5, 2))


def test_to_integer():
    assert cyclo.to_integer(5 * _root(8, 0)) == 5
    assert cyclo.to_integer(np.zeros(4, dtype=np.int64)) == 0
    with pytest.raises(NotRational):
        cyclo.to_integer(_root(3, 1))
    # i + (-i) is rational even though neither term is
    assert cyclo.to_integer(_root(4, 1) + _root(4, 3)) == 0
    # 1 + zeta_3 + zeta_3^2 = 0
    assert cyclo.to_integer(_root(3, 0) + _root(3, 1) + _root(3, 2)) == 0
    # a stack gives one integer per vector, and one irrational member raises
    got = cyclo.to_integer(np.stack([3 * _root(12, 0), _root(12, 6)]))
    assert got.dtype == np.int64 and got.tolist() == [3, -1]
    with pytest.raises(NotRational):
        cyclo.to_integer(np.stack([_root(12, 0), _root(12, 1)]))


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.symbols("x")
    for n in range(1, 25):
        ours = list(cyclo.cyclotomic_poly(n))  # constant term first
        theirs = [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]]
        assert ours == theirs


def test_reduction_matrix_is_consistent():
    for n in (4, 8, 12):
        R = cyclo.reduction_matrix(n)
        z = np.exp(2j * np.pi / n)
        basis = z ** np.arange(R.shape[1])
        for k in range(n):
            assert abs((R[k] @ basis) - z**k) < 1e-9


def test_product_tensor_bilinearity():
    for n in (4, 12):
        S = cyclo.product_tensor(n)
        phi = S.shape[0]
        z = np.exp(2j * np.pi / n)
        basis = z ** np.arange(phi)
        # S[a, b] is the power-basis vector of basis_a * basis_b
        for a in range(phi):
            for b in range(phi):
                assert abs(S[a, b] @ basis - basis[a] * basis[b]) < 1e-9


def test_conj_and_embed_matrices():
    for n in (8, 12):
        C = cyclo.conj_matrix(n)
        z = np.exp(2j * np.pi / n)
        basis = z ** np.arange(C.shape[0])
        for a in range(C.shape[0]):
            assert abs(C[a] @ basis - np.conj(basis[a])) < 1e-9
    E = cyclo.embed_matrix(4, 12)  # zeta_4 = zeta_12^3
    basis12 = np.exp(2j * np.pi / 12) ** np.arange(E.shape[1])
    basis4 = np.exp(2j * np.pi / 4) ** np.arange(E.shape[0])
    for a in range(E.shape[0]):
        assert abs(E[a] @ basis12 - basis4[a]) < 1e-9
    with pytest.raises(ValueError):
        cyclo.embed_matrix(8, 12)
