"""Exact cyclotomic integers in the power basis of Z[zeta_n].

An element of Z[zeta_n] is its integer coefficient vector of length phi(n)
in the basis 1, zeta_n, ..., zeta_n^(phi(n)-1); the representation is
canonical, so equality is array equality and a rational integer is a vector
whose coefficients beyond the first vanish.  Arrays of shape [..., phi(n)]
hold many elements at once, and every operation is an integer matrix or
tensor applied along the last axis: reduction_matrix sends zeta_n^j to its
vector (x^j mod Phi_n, with Phi_n computed by exact integer polynomial
division), conj_matrix conjugates, product_tensor multiplies and
embed_matrix moves Z[zeta_n] into Z[zeta_m] for n | m.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class NotRational(ValueError):
    """Raised when a cyclotomic value expected to be a rational integer is not."""


def _polydiv_exact(num, den):
    """Exact division of integer polynomials, highest coefficient last. Raises if inexact."""
    num = list(num)
    dden = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * (len(num) - dden)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dden]
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ValueError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients of Phi_n, constant term first, computed by exact division."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def reduction_matrix(n: int) -> np.ndarray:
    """Matrix [n, phi(n)] sending exponent j to the vector of x^j mod Phi_n."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    out = np.zeros((n, d), dtype=np.int64)
    # x^j mod Phi_n by the linear recurrence x^d = -(phi_0 + ... + phi_{d-1} x^{d-1})
    row = np.zeros(d, dtype=np.int64)
    row[0] = 1
    for j in range(n):
        out[j] = row
        top = row[d - 1]
        row = np.roll(row, 1)
        row[0] = 0
        if top:
            row = row - top * np.asarray(phi[:d], dtype=np.int64)
    return out


def to_integer(vec) -> "int | np.ndarray":
    """The rational integer(s) that power-basis vector(s) [..., phi] stand for.

    Returns an int for one vector and an int64 array over the leading axes
    for a stack; NotRational if any vector is not a rational integer.
    """
    v = np.asarray(vec, dtype=np.int64)
    bad = np.any(v[..., 1:], axis=-1)
    if np.any(bad):
        first = v[np.unravel_index(np.argmax(bad), bad.shape)]
        raise NotRational(f"not a rational integer: canonical form {first.tolist()}")
    out = v[..., 0]
    return int(out) if out.ndim == 0 else out.copy()


@lru_cache(maxsize=None)
def conj_matrix(n: int) -> np.ndarray:
    """Matrix [phi(n), phi(n)] of complex conjugation in the power basis."""
    red = reduction_matrix(n)
    d = red.shape[1]
    out = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        out[i] = red[(-i) % n]
    return out


@lru_cache(maxsize=None)
def product_tensor(n: int) -> np.ndarray:
    """Tensor S[a, b, :] = power-basis vector of zeta^a * zeta^b."""
    red = reduction_matrix(n)
    d = red.shape[1]
    out = np.zeros((d, d, d), dtype=np.int64)
    for a in range(d):
        for b in range(d):
            out[a, b] = red[(a + b) % n]
    return out


@lru_cache(maxsize=None)
def embed_matrix(n_from: int, n_to: int) -> np.ndarray:
    """Matrix [phi(n_from), phi(n_to)] realizing Z[zeta_{n_from}] inside Z[zeta_{n_to}]."""
    if n_to % n_from:
        raise ValueError("embedding requires n_from | n_to")
    k = n_to // n_from
    red = reduction_matrix(n_to)
    d_from = reduction_matrix(n_from).shape[1]
    return red[(np.arange(d_from) * k) % n_to].copy()
