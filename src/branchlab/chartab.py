"""Exact character tables by the class-algebra eigenvector method.

The central characters of a finite group are the common eigenvectors of its
class-multiplication matrices.  We find them modulo a prime p = 1 (mod
exponent), p > 2*sqrt(|G|), by iteratively splitting eigenspaces of seeded
random combinations of class matrices (collisions of eigenvalues mod p are
expected and handled, not assumed away), recover the degrees from the
orthogonality relations, and lift every value to an exact integer combination
of roots of unity through a discrete Fourier transform over the power map.

The center Z splits the problem first.  For central z, a central character
omega satisfies omega(z c) = psi(z) omega(c), psi a character of Z, so the
class space is a direct sum of one piece per psi (_CenterSplit), and
_cocycle_characters finds the psi from Z's Cayley table, the central shifts
c -> z c.  Every class-matrix combination maps each piece into itself; its
block there, of dimension about k/|Z|, is read from the columns of one class
per central orbit, since x^-1 (z g) = z (x^-1 g), so no k x k matrix is
formed and every eigenproblem is block-sized.

One driver, _split_pieces, runs every split (the full table's, fiber's and
_cocycle_characters'): a pass draws _ROWS_PER_PASS random rows, each a
matrix on every piece, and splits each piece row by row; for the class
algebra only the weights change between rows, so one pass over the products
x^-1 g_col gives all of them.  A splitting step restricts a block to a
subspace (matrix T) and reduces T once to Hessenberg form H = Q^-1 T Q.  H
gives the characteristic polynomial, and one back-substitution through H,
vectorized over all roots, gives every eigenspace; only a small system per
root, one row per unreduced Hessenberg block, is row-reduced.  Each
eigenspace is checked against T v = lam v and the dimensions must add up to
the subspace's.  A pass short of the eigenspaces sought is redrawn from
scratch, up to _MAX_PASSES passes; one past them raises.  The kernels work
in int64 mod p and sum class-matrix weights in float64, so dixon_table
refuses groups where k p^2 >= 2^63 or |G| p >= 2^53; a pass bins each
column's |G| products apart from the others', so every float64 sum stays
below |G| p however many columns a batch holds.

When only the constituents of one character f = m * (sum of distinct
irreducibles of one degree) are wanted, fiber finds them without the full
table.  The vector v0(c) = |c| f(c) is a sum of their central characters,
and so is its component in each piece of the center's characters.  The
smallest space holding a component and closed under the piece's blocks of
one pass's rows (a Krylov block) is spanned by the central characters there
whenever the rows separate them, and then the blocks split into
f(1) / (m * degree) eigenspaces in all.  Each block splits by the same
driver and lifts by the same power-map transform as the full table, at the
cost of one product pass and block-sized eigenproblems.

A class function is an integer coefficient row per conjugacy class in the
canonical power basis of Q(zeta_n) (cyclo), and a ClassFunction holds a
whole stack of them, vals[..., k, phi(n)], together with its group; the
group's one class partition (grp.conjugacy_classes) indexes the rows.  A
character table is that stack and nothing more: dixon_table returns the
irreducibles as one ClassFunction over Q(zeta_e), e the group exponent, rows
in a canonical order (by degree, then by coefficients).  The caller holds
the table; nothing is cached on the group, which the table points at.
Equality, inner products, induction, restriction and decomposition are each
one exact integer array operation over every member.  In decompose a
float Gram row only proposes the multiplicities: the rows of a character
table are linearly independent, so the exact reconstruction
sum m_i chi_i == f fixes every m_i, and one exact inner product per
constituent computes each a second way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
import itertools
from math import isqrt, lcm

import numpy as np
import sympy

from . import cyclo, mat
from .grp import ConjClasses, GroupTable, conjugacy_classes

# ------------------------------------------------------------- mod-p linalgebra


def _primes_one_mod(n: int, above: int = 0):
    """The primes p = 1 (mod n) with p > above, ascending and without end."""
    first = above + 1 + (-above) % n  # the least integer = 1 (mod n) above `above`
    return (p for p in itertools.count(first, n) if sympy.isprime(p))


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*sqrt(order)."""
    return next(_primes_one_mod(exponent, 2 * isqrt(order) + 1))


def _zeta_powers(n: int, p: int) -> np.ndarray:
    """zeta_n^t mod a prime p = 1 (mod n) for t < n, zeta_n = g^((p-1)/n), g the least primitive root mod p."""
    z = pow(sympy.primitive_root(p), (p - 1) // n, p)
    return np.array([pow(z, t, p) for t in range(n)], dtype=np.int64)


def _rref_mod(A: np.ndarray, p: int):
    """Row-reduce a copy of A mod p; returns (R, pivot_columns)."""
    R = A.copy() % p
    n, m = R.shape
    pivots = []
    row = 0
    for col in range(m):
        if row == n:
            break
        nz = np.flatnonzero(R[row:, col])
        if len(nz) == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            R[[row, i]] = R[[i, row]]
        R[row] = (R[row] * pow(int(R[row, col]), p - 2, p)) % p
        other = np.flatnonzero(R[:, col])
        other = other[other != row]
        if len(other):
            R[other] = (R[other] - np.outer(R[other, col], R[row])) % p
        pivots.append(col)
        row += 1
    return R, pivots


def _kernel_mod(A: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning the right kernel of A mod p."""
    n, m = A.shape
    R, pivots = _rref_mod(A, p)
    free = [c for c in range(m) if c not in pivots]
    basis = np.zeros((m, len(free)), dtype=np.int64)
    for t, c in enumerate(free):
        basis[c, t] = 1
        for row, pc in enumerate(pivots):
            basis[pc, t] = (-R[row, c]) % p
    return basis


def _restriction_mod(B: np.ndarray, MB: np.ndarray, p: int) -> np.ndarray:
    """T with B @ T = MB for full-column-rank B (all mod p)."""
    d = B.shape[1]
    R, pivots = _rref_mod(np.hstack([B, MB]), p)
    if pivots[:d] != list(range(d)):
        raise AssertionError("subspace basis lost rank")
    return R[:d, d:]


def _hessenberg_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper Hessenberg H and invertible Q with A Q = Q H (all mod p)."""
    H = A.copy() % p
    n = len(H)
    Q = np.eye(n, dtype=np.int64)
    for j in range(n - 2):
        nz = np.flatnonzero(H[j + 1 :, j])
        if len(nz) == 0:
            continue
        i = j + 1 + int(nz[0])
        if i != j + 1:
            H[[j + 1, i]] = H[[i, j + 1]]
            H[:, [j + 1, i]] = H[:, [i, j + 1]]
            Q[:, [j + 1, i]] = Q[:, [i, j + 1]]
        inv = pow(int(H[j + 1, j]), p - 2, p)
        mults = (H[j + 2 :, j] * inv) % p
        H[j + 2 :] = (H[j + 2 :] - mults[:, None] * H[j + 1]) % p
        H[:, j + 1] = (H[:, j + 1] + H[:, j + 2 :] @ mults) % p
        Q[:, j + 1] = (Q[:, j + 1] + Q[:, j + 2 :] @ mults) % p
    return H, Q


def _charpoly_mod(H: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of det(xI - H) mod p for upper Hessenberg H, constant term first."""
    n = len(H)
    polys = [np.array([1], dtype=np.int64)]  # c_0 = 1
    for m in range(1, n + 1):
        c = np.zeros(m + 1, dtype=np.int64)
        prev = polys[m - 1]
        c[1 : m + 1] += prev
        c[:m] -= (int(H[m - 1, m - 1]) * prev) % p
        prod = 1
        for i in range(m - 2, -1, -1):
            prod = (prod * int(H[i + 1, i])) % p
            if prod == 0:
                break
            coef = (int(H[i, m - 1]) * prod) % p
            if coef:
                c[: i + 1] -= (coef * polys[i]) % p
        polys.append(c % p)
    return polys[n]


def _eigenspaces_mod(T: np.ndarray, p: int) -> list[tuple[int, np.ndarray]]:
    """(lam, basis of ker(T - lam I)) for every eigenvalue lam of T in F_p.

    One Hessenberg reduction T Q = Q H gives both the characteristic
    polynomial and the eigenvectors.  (H - lam I) y = 0 is back-substituted
    from the last row upward for all roots at once: a nonzero subdiagonal
    H[i, i-1] solves row i for y[i-1]; a zero one makes row i a constraint and
    y[i-1] a new free parameter, and row 0 is the last constraint.  So
    y = Y_lam c over the m free parameters (one per unreduced block), and the
    eigenspace of lam is Q Y_lam ker(C_lam) for its m x m constraint matrix.
    """
    H, Q = _hessenberg_mod(T, p)
    roots = _poly_roots_mod(_charpoly_mod(H, p), p)
    d, R = len(H), len(roots)
    sub = np.diagonal(H, -1)
    m = 1 + int(np.count_nonzero(sub == 0))
    Y = np.zeros((d, R, m), dtype=np.int64)  # Y[j, r] = y_j over the free parameters
    C = np.zeros((R, m, m), dtype=np.int64)
    Y[d - 1, :, 0] = 1
    n_free, n_con = 1, 0
    for i in range(d - 1, -1, -1):
        f = n_free  # Y is zero beyond the free parameters introduced so far
        row = np.einsum("j,jrt->rt", H[i, i:], Y[i:, :, :f])  # no copy of the strided view
        row = (row - roots[:, None] * Y[i, :, :f]) % p
        if i and sub[i - 1]:
            Y[i - 1, :, :f] = (-row * pow(int(sub[i - 1]), p - 2, p)) % p
            continue
        C[:, n_con, :f] = row
        n_con += 1
        if i:
            Y[i - 1, :, n_free] = 1
            n_free += 1
    return [(int(lam), Q @ (Y[:, r] @ _kernel_mod(C[r], p) % p) % p) for r, lam in enumerate(roots)]


def _poly_roots_mod(coeffs: np.ndarray, p: int) -> np.ndarray:
    """All roots in F_p by vectorized Horner evaluation."""
    xs = np.arange(p, dtype=np.int64)
    y = np.zeros(p, dtype=np.int64)
    for c in coeffs[::-1]:
        y = (y * xs + int(c)) % p
    return xs[y == 0]


# ------------------------------------------------------------- class functions


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """Exact class function, or a stack of them, on one group.

    vals[..., j, :] is the power-basis vector of the value on class j of the
    group's one class partition, grp.conjugacy_classes(group); the leading
    axes index the members of a stack, and every operation acts on all
    members at once.  len, indexing and iteration run over the leading axis.
    == is exact equality of the whole stack after embedding both sides in a
    common root order; class functions on different groups cannot be
    compared (ValueError).  The values are arrays, so a class function is
    unhashable.
    """

    group: GroupTable
    n: int
    vals: np.ndarray  # [..., k, euler_phi(n)] int64, read-only

    def __post_init__(self):
        self.vals.setflags(write=False)

    @property
    def classes(self) -> ConjClasses:
        return conjugacy_classes(self.group)

    def __len__(self) -> int:
        if self.vals.ndim < 3:
            raise TypeError("a single class function has no length")
        return len(self.vals)

    def __getitem__(self, idx) -> "ClassFunction":
        idx = idx if isinstance(idx, tuple) else (idx,)
        return ClassFunction(self.group, self.n, self.vals[idx + (Ellipsis, slice(None), slice(None))])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        f, g = _align(self, other)
        return np.array_equal(f.vals, g.vals)

    __hash__ = None

    @property
    def k(self) -> int:
        """Number of classes."""
        return self.vals.shape[-2]

    @property
    def degree(self) -> "int | np.ndarray":
        j0 = int(self.classes.class_id[self.group.identity])
        return cyclo.to_integer(self.vals[..., j0, :])

    def with_order(self, m: int) -> "ClassFunction":
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError("new order must be a multiple")
        return ClassFunction(self.group, m, self.vals @ cyclo.embed_matrix(self.n, m))

    def conj(self) -> "ClassFunction":
        return ClassFunction(self.group, self.n, self.vals @ cyclo.conj_matrix(self.n))

    def __add__(self, other):
        f, g = _align(self, other)
        return ClassFunction(f.group, f.n, f.vals + g.vals)

    def __sub__(self, other):
        f, g = _align(self, other)
        return ClassFunction(f.group, f.n, f.vals - g.vals)

    def scale(self, m: int) -> "ClassFunction":
        return ClassFunction(self.group, self.n, m * self.vals)

    def float_values(self) -> np.ndarray:
        zs = np.exp(2j * np.pi * np.arange(self.vals.shape[-1]) / self.n)
        return np.einsum("...ja,a->...j", self.vals, zs)

    @cached_property
    def gram_weights(self) -> np.ndarray:
        """[..., k] complex conj(f(c_j)) |c_j| / |G|, so <g, f> ~ gram_weights . g."""
        return np.conj(self.float_values()) * (self.classes.sizes / self.group.n)

    def __repr__(self):
        stack = f"stack {self.vals.shape[:-2]} of " if self.vals.ndim > 2 else ""
        return f"<{stack}class function on {self.group.name}, order {self.n}, deg {self.degree}>"


def _align(f: ClassFunction, g: ClassFunction):
    if f.group is not g.group:
        raise ValueError("class functions live on different groups")
    m = lcm(f.n, g.n)
    return f.with_order(m), g.with_order(m)


def class_function_from_exponents(G: GroupTable, n: int, exps) -> ClassFunction:
    """Linear character from per-class exponents: class j maps to zeta_n^exps[j]."""
    red = cyclo.reduction_matrix(n)
    return ClassFunction(G, n, red[np.asarray(exps, dtype=np.int64) % n])


def trivial_character(G: GroupTable) -> ClassFunction:
    return class_function_from_exponents(G, 1, np.zeros(conjugacy_classes(G).k, dtype=np.int64))


def regular_character(G: GroupTable) -> ClassFunction:
    cc = conjugacy_classes(G)
    vals = np.zeros((cc.k, 1), dtype=np.int64)
    vals[cc.class_id[G.identity], 0] = G.n
    return ClassFunction(G, 1, vals)


# ------------------------------------------------------------- inner products


def inner(f: ClassFunction, g: ClassFunction) -> "int | np.ndarray":
    """<f, g> = |G|^-1 sum |c_j| f(g_j) conj(g(g_j)), exactly.

    Stacks broadcast over their leading axes: an int for two single class
    functions, an int64 array otherwise.
    """
    f, g = _align(f, g)
    return _weighted_inner(f.vals, g.vals, f.classes.sizes, f.n, f.group.n)


def _weighted_inner(fv: np.ndarray, gv: np.ndarray, weights: np.ndarray, n: int, order: int) -> "int | np.ndarray":
    """order^-1 sum_j weights[j] fv[..., j, :] conj(gv[..., j, :]) over Q(zeta_n); NotRational unless integral."""
    W = np.einsum("...ja,...jb->...ab", weights[:, None] * fv, gv @ cyclo.conj_matrix(n))
    tot = np.einsum("...ab,abt->...t", W, cyclo.product_tensor(n))
    if np.any(tot % order):
        raise cyclo.NotRational(f"inner product not integral: {tot} / {order}")
    return cyclo.to_integer(tot // order)


# ------------------------------------------------------------- character tables


# products per batch of _class_matrix_columns and _central_shifts, and (s, t)
# pairs times f characters per batch of _cocycle_characters' check; bounds their working sets
_COMBO_CHUNK = 1 << 12
# random rows per _split_pieces pass (one _class_matrix_blocks pass): over 100 tables
# (seeds 1-5 of the benchmark's z2 r=4 and r=3 jobs) every table split in 2 or 3 rows
_ROWS_PER_PASS = 3
# passes _split_pieces draws before it gives up
_MAX_PASSES = 8
# table entries gathered per exact inner product batch of decompose; bounds its working set
_PAIR_CHUNK = 1 << 17


def _central_shifts(G: GroupTable, cc: ConjClasses) -> np.ndarray:
    """P[z, j] = class of z rep_j, one row per central element z.

    The center is the union of the classes of size 1.  For central z, z c_j is
    a class of the size of c_j, so every row must permute the classes and keep
    their sizes; a row that does not shows a wrong product, and raises.
    """
    k = cc.k
    zs = cc.reps[cc.sizes == 1]
    step = max(1, _COMBO_CHUNK // k)
    P = np.vstack([cc.class_id[G.mul(zs[s : s + step, None], cc.reps[None, :])] for s in range(0, len(zs), step)])
    if not (np.all(np.sort(P, axis=1) == np.arange(k)) and np.all(cc.sizes[P] == cc.sizes)):
        raise AssertionError(f"a central shift is not a size-preserving permutation of the classes ({G.name}, k={k})")
    return P


def _class_matrix_columns(G: GroupTable, cc: ConjClasses, cols: np.ndarray, thetas: np.ndarray, p: int) -> np.ndarray:
    """Columns cols of every class-matrix combination, [rows, k, len(cols)], from the products x^-1 g_col.

    Row t's matrix is M_t[j, col] = sum_i thetas[t, i] #{x in c_i : x^-1 g_col in c_j}
    mod p.  A batch of columns is one [cols, n] product array (columns outer,
    elements inner); a k*col offset on the class ids gives each column its
    own bincount range, so a bin still sums at most |G| weights below p.
    """
    k, n = cc.k, G.n
    step = max(1, _COMBO_CHUNK // n)
    xinv = tuple(t[None, :] for t in G.entries(G.inv))
    weights = np.tile(thetas[:, cc.class_id].astype(np.float64), (1, step))  # [rows, step*n]
    offset = k * np.arange(step, dtype=np.int64)[:, None]
    out = np.empty((len(thetas), k, len(cols)), dtype=np.int64)
    for c0 in range(0, len(cols), step):
        g = tuple(t[:, None] for t in G.entries(cc.reps[cols[c0 : c0 + step]]))
        y = G._lookup(mat._vmat_mul(G.spec, xinv, g))  # [cols, n]
        c = len(y)
        ids = (cc.class_id[y] + offset[:c]).ravel()
        for t, w in enumerate(weights):
            sums = np.bincount(ids, weights=w[: c * n], minlength=k * c)
            out[t, :, c0 : c0 + c] = sums.reshape(c, k).T.astype(np.int64) % p
    return out


@dataclass(frozen=True, eq=False)
class _CenterSplit:
    """The class space mod p as a direct sum of pieces, one per character psi of the center Z.

    P = _central_shifts, row z for the z-th central class; bases holds each
    orbit's least class under Z acting on the classes; psi[i, z] = psi_i(z).
    Piece i has one basis vector u_b per base b whose stabilizer Z_b lies in
    ker psi_i, with u_b(P_z[b]) = psi_i(z) and 0 off b's orbit; pieces[i]
    indexes those bases.  Every central character of G lies in the piece of
    its restriction to Z, and every class-matrix combination maps each piece
    into itself.
    """

    P: np.ndarray  # [|Z|, k]
    bases: np.ndarray  # [orbits]
    psi: np.ndarray  # [pieces, |Z|] mod p
    pieces: list  # one index array into bases per character
    p: int

    @cached_property
    def Pinv(self) -> np.ndarray:
        """Pinv[z] = P[z^-1], the inverse permutation of P[z]."""
        return np.argsort(self.P, axis=1)

    def project(self, v: np.ndarray) -> list:
        """Coordinates in every piece of v's component there: |Z|^-1 sum_z psi(z) v[P_z^-1[b]]."""
        p = self.p
        w = self.psi @ v[self.Pinv[:, self.bases]] % p * pow(len(self.P), p - 2, p) % p
        return [w[i, m] for i, m in enumerate(self.pieces)]

    def expand(self, i: int, W: np.ndarray) -> np.ndarray:
        """Class vectors [k, cols] of the piece-i coordinate columns W [d, cols]."""
        V = np.zeros((self.P.shape[1], W.shape[1]), dtype=np.int64)
        V[self.P[:, self.bases[self.pieces[i]]]] = self.psi[i][:, None, None] * W % self.p
        return V


def _center_split(G: GroupTable, cc: ConjClasses, p: int, rng: np.random.Generator) -> _CenterSplit:
    """The characters of the center Z mod p and the pieces of the class space they cut out.

    They are the _cocycle_characters of Z's Cayley table, P on the central
    classes, so no product is formed beyond _central_shifts'; the piece
    dimensions must sum to k.
    """
    k = cc.k
    P = _central_shifts(G, cc)
    zc = np.flatnonzero(cc.sizes == 1)  # P's rows, in this order
    table = np.searchsorted(zc, P[:, zc])  # table[i, j]: z_i z_j
    j0 = int(np.searchsorted(zc, cc.class_id[G.identity]))
    where = f"{G.name}, k={k}, p={p}, center of order {len(zc)}"
    X = _cocycle_characters(table, np.zeros_like(table, dtype=np.int32), cc.exponent, p, rng, j0, where)
    bases = np.flatnonzero(P.min(axis=0) == np.arange(k))
    fixes = P[:, bases] == bases  # [z, b]: z lies in the stabilizer Z_b
    outside = (X != 0).astype(np.int64) @ fixes  # [psi, b]: elements of Z_b outside ker psi
    pieces = [np.flatnonzero(row == 0) for row in outside]
    dims = sum(len(m) for m in pieces)
    if dims != k:
        raise AssertionError(f"block dimensions sum to {dims}, not k ({where})")
    return _CenterSplit(P, bases, _zeta_powers(cc.exponent, p)[X], pieces, p)


def _class_matrix_blocks(G: GroupTable, cc: ConjClasses, split: _CenterSplit, thetas: np.ndarray, p: int) -> list:
    """blocks[t][i]: the matrix of class-matrix combination t on piece i, mod p.

    For central z, x^-1 (z g) = z (x^-1 g), so M_t[P_z[j], P_z[b]] = M_t[j, b],
    and on piece i, M_t u_b = sum_b' T[b', b] u_b' with
    T[b', b] = |Z_b|^-1 sum_z psi_i(z) M_t[P_z^-1[b'], b].  Only the columns
    of the bases in some piece of split are formed, in one pass over their
    products for every row of thetas.
    """
    used = np.unique(np.concatenate(split.pieces))
    cols = _class_matrix_columns(G, cc, split.bases[used], thetas, p)  # [rows, k, used]
    stab = np.sum(split.P[:, split.bases] == split.bases, axis=0)
    inv_stab = np.array([pow(int(s), p - 2, p) for s in stab], dtype=np.int64)
    blocks = []
    for psi, m in zip(split.psi, split.pieces):
        shifted = cols[:, split.Pinv[:, split.bases[m], None], np.searchsorted(used, m)]  # [rows, z, b', b]
        blocks.append(np.tensordot(psi, shifted, axes=(0, 1)) % p * inv_stab[m] % p)
    return [[B[t] for B in blocks] for t in range(len(thetas))]


def _split_round(subspaces: list, M: np.ndarray, p: int, where: str) -> list:
    """Split every subspace of dimension > 1 into its eigenspaces under M.

    A subspace is a k x d basis of an M-invariant space, or None for the
    whole space in the identity basis: there T = M, and the eigenvectors are
    the split vectors, so no restriction or change of basis is formed.
    """
    out = []
    for S in subspaces:
        if S is not None and S.shape[1] == 1:
            out.append(S)
            continue
        T = M if S is None else _restriction_mod(S, (M @ S) % p, p)
        d = len(T)
        found = 0
        for lam, V in _eigenspaces_mod(T, p):
            if np.any((T @ V - lam * V) % p):
                raise AssertionError(f"eigenvectors of root {lam} fail T v = lam v ({where}, subspace dim {d})")
            out.append(V if S is None else (S @ V) % p)
            found += V.shape[1]
        if found != d:
            raise AssertionError(f"eigenspace split lost dimensions: {found} of {d} ({where}, subspace dim {d})")
    return out


def _krylov_block(Ms: np.ndarray, v0: np.ndarray, p: int) -> np.ndarray:
    """Basis columns [k, d] of the smallest space holding v0 and invariant under every Ms[t] (mod p).

    Each step row-reduces the basis with the images of the rows it added
    last, and only the rows whose pivots are new go on: with the old rows
    they span the grown space.
    """
    R, pivots = _rref_mod(v0[None, :], p)
    B = new = R[: len(pivots)]
    while len(new):
        R, grown = _rref_mod(np.vstack([B, *(new @ np.swapaxes(Ms, 1, 2) % p)]), p)
        B, new = R[: len(grown)], R[[i for i, c in enumerate(grown) if c not in pivots]]
        pivots = grown
    return B.T


def _split_pieces(draw, starts: list, count: int, p: int, where: str) -> list:
    """count common eigenspaces of random rows, as one list of basis columns per piece.

    draw() returns one pass, blocks[t][i] the matrix of random row t on
    piece i, for _ROWS_PER_PASS rows.  Piece i starts from the whole piece
    (starts[i] None) or from the Krylov block of the vector starts[i] under
    the pass's rows, and _split_round splits it row by row.  A pass that ends
    with fewer than count eigenspaces is dropped, and a fresh pass starts
    again, for at most _MAX_PASSES passes; one whose subspaces span more than
    count dimensions raises.
    """
    for n in range(_MAX_PASSES):
        blocks = draw()
        out = []
        for i, v in enumerate(starts):
            subspaces = [None if v is None else _krylov_block(np.stack([Ts[i] for Ts in blocks]), v, p)]
            for t, Ts in enumerate(blocks):
                subspaces = _split_round(subspaces, Ts[i], p, f"{where}, pass {n}, piece {i}, row {t}")
            out.append(subspaces)
        dims = [(len(blocks[0][i]) if S is None else S.shape[1], i) for i, piece in enumerate(out) for S in piece]
        if (total := sum(d for d, _ in dims)) > count:
            raise AssertionError(f"{len(dims)} eigenspaces span dim {total}, more than {count}, at pass {n} ({where})")
        if len(dims) == count:
            return out
    d, i = max(dims)
    raise AssertionError(
        f"splitting gave up after {_MAX_PASSES} passes with {len(dims)} of {count} eigenspaces: "
        f"pass {n}, piece {i}, row {len(blocks) - 1}, largest subspace dim {d} ({where})"
    )


def _normalized(vecs: np.ndarray, j0: int, p: int, where: str) -> np.ndarray:
    """Rows of central characters from eigenvector columns, scaled to 1 at the identity class j0."""
    omega = np.empty(vecs.shape[::-1], dtype=np.int64)
    for i, v in enumerate(vecs.T):
        if v[j0] == 0:
            raise AssertionError(f"eigenvector {i} vanishes at the identity class ({where}, subspace dim 1)")
        omega[i] = (v * pow(int(v[j0]), p - 2, p)) % p
    return omega


def _cocycle_characters(K: np.ndarray, a: np.ndarray, e: int, p: int, rng: np.random.Generator, j0: int, where: str):
    """X[f, f]: zeta_e exponents of the f maps chi with chi(s) chi(t) = zeta_e^a[s, t] chi(K[s, t]), chi(j0) = 1.

    K is a multiplication table on f elements and a its twist (0 for a group's
    own characters).  The chi are the common eigenvectors, of eigenvalues
    chi(s), of the f x f matrices N_s[t, K[s, t]] = zeta_e^a[s, t] mod p.
    _split_pieces splits one piece, the whole space, under passes of
    _ROWS_PER_PASS random combinations of the N_s, redrawn from scratch while
    fewer than f eigenspaces come out.  Checked exactly, each failure naming
    where: every value is an e-th root of unity, the relation holds on all
    f^2 pairs, and the f rows are distinct.
    """
    f = len(K)
    zpow = _zeta_powers(e, p)

    def draw():
        N = np.zeros((_ROWS_PER_PASS, f, f), dtype=np.int64)
        theta = rng.integers(1, p, size=(_ROWS_PER_PASS, f, 1), dtype=np.int64)
        np.add.at(N, (np.arange(_ROWS_PER_PASS)[:, None, None], np.arange(f), K), theta * zpow[a] % p)
        return [[M % p] for M in N]

    (subspaces,) = _split_pieces(draw, [None], f, p, where)
    log = np.full(p, -1, dtype=np.int32)  # int32 exponents, with an int32 a, halve the relation check's working set
    log[zpow] = np.arange(e)
    X = log[_normalized(np.hstack(subspaces), j0, p, where)]
    if np.any(X < 0):
        raise AssertionError(f"a value mod {p} is no e-th root of unity, e = {e}: psi^e != 1 ({where})")
    step = max(1, _COMBO_CHUNK // f)
    for s in range(0, f, step):
        bad = np.any((X[:, s : s + step, None] + X[:, None] - a[s : s + step] - X[:, K[s : s + step]]) % e, axis=(1, 2))
        if np.any(bad):
            i = np.argmax(bad)
            raise AssertionError(f"chi(s) chi(t) != zeta_e^a chi(st): character {i} is not multiplicative ({where})")
    distinct = len({row.tobytes() for row in X})
    if distinct != f:
        raise AssertionError(f"the table has {distinct} distinct characters, not {f} ({where})")
    return X


def _central_characters(G: GroupTable, cc: ConjClasses, p: int, rng, v0=None, count=None) -> np.ndarray:
    """Central-character vectors mod p, rows normalized at the identity: all k, or the count that make up v0.

    The class space is first cut into the pieces of _center_split, one per
    character of the center, and _split_pieces splits every piece by its
    blocks of random combinations of class matrices.  A pass of
    _ROWS_PER_PASS theta rows is one _class_matrix_blocks pass over the
    products x^-1 g_col, g_col one class per central orbit met by a piece;
    it sums each column over its own |G| products, so _check_headroom's
    |G| p < 2^53 still bounds every float64 sum.  Given v0, a sum of central
    characters, the pieces where its component is 0 are dropped, and each
    other piece starts from the Krylov block of its component.
    """
    k = cc.k
    split = _center_split(G, cc, p, rng)
    where = f"{G.name}, k={k}, p={p}"
    if v0 is None:
        starts, count = [None] * len(split.pieces), k
    else:
        w = split.project(v0)
        live = [i for i, x in enumerate(w) if x.any()]
        split = replace(split, psi=split.psi[live], pieces=[split.pieces[i] for i in live])
        starts, where = [w[i] for i in live], f"{where}, {count} members"

    def draw():
        return _class_matrix_blocks(G, cc, split, rng.integers(1, p, size=(_ROWS_PER_PASS, k), dtype=np.int64), p)

    pieces = _split_pieces(draw, starts, count, p, where)
    vecs = np.hstack([split.expand(i, np.hstack(piece)) for i, piece in enumerate(pieces)])
    return _normalized(vecs, int(cc.class_id[G.identity]), p, where)


def _degrees_mod(G: GroupTable, cc: ConjClasses, omega: np.ndarray, p: int) -> np.ndarray:
    order = G.n
    where = f"{G.name}, k={cc.k}, p={p}"
    inv_sizes = np.array([pow(int(s), p - 2, p) for s in cc.sizes], dtype=np.int64)
    jstar = cc.inverse_class
    degs = np.empty(cc.k, dtype=np.int64)
    for i in range(cc.k):
        s = int(np.sum(omega[i] * omega[i][jstar] % p * inv_sizes % p) % p)
        if s == 0:
            raise AssertionError(f"norm of central character {i} vanished ({where})")
        d2 = (order % p) * pow(s, p - 2, p) % p
        d = sympy.ntheory.sqrt_mod(d2, p)
        if d is None:
            raise AssertionError(f"degree recovery hit a non-residue at central character {i} ({where})")
        degs[i] = min(int(d), p - int(d))
    if int(np.sum(degs.astype(object) ** 2)) != order:
        raise AssertionError(f"degree recovery failed the sum-of-squares identity ({where})")
    return degs


def _check_headroom(name: str, order: int, k: int, p: int):
    """Dixon's kernels are exact only while these sums fit their number types."""
    if order * p >= 2**53:
        raise ValueError(
            f"{name}: |G| * p >= 2^53, so float64 class-matrix sums would round (|G|={order}, k={k}, p={p})"
        )
    _check_int64_headroom(name, k, p)


def _check_int64_headroom(name: str, k: int, p: int):
    """A length-k int64 dot product of residues mod p is exact while k p^2 < 2^63."""
    if k * p * p >= 2**63:
        raise ValueError(f"{name}: k * p^2 >= 2^63, so int64 mod-p sums would overflow (k={k}, p={p})")


def _canonical_order(vals: np.ndarray, degs) -> list:
    """dixon_table's row order of a stack of characters: by degree, then by the bytes of the coefficients."""
    return sorted(range(len(vals)), key=lambda i: (int(degs[i]), vals[i].tobytes()))


def _lift(G: GroupTable, cc: ConjClasses, omega: np.ndarray, degs: np.ndarray, p: int) -> np.ndarray:
    """Exact characters [rows, k, phi(e)] from central characters mod p, in _canonical_order.

    chi(c) = deg omega(c) / |c| mod p, with zeta_e^t sent to _zeta_powers(e, p)[t].
    Per class j of element order n_j, a discrete Fourier transform over the
    power classes rep_j^s gives the multiplicity of every n_j-th root of
    unity as an eigenvalue, checked to lie in [0, deg] and to sum to deg.
    Every failure names the group, k, p, the class and the irreducible (its
    row of omega, or of the table once sorted).
    """
    e = cc.exponent

    def fail(text: str, j: int, bad: np.ndarray):
        raise AssertionError(f"{text} ({G.name}, k={cc.k}, p={p}, class {j}, irreducible {np.argmax(bad)})")

    inv_sizes = np.array([pow(int(s), p - 2, p) for s in cc.sizes], dtype=np.int64)
    chi_p = (degs[:, None] * omega % p) * inv_sizes[None, :] % p
    ze = _zeta_powers(e, p)
    orders, P = cc.orders, cc.power_classes
    red = cyclo.reduction_matrix(e)
    tensor = np.zeros((len(omega), cc.k, red.shape[1]), dtype=np.int64)
    for j in range(cc.k):
        nj = int(orders[j])
        # D[s, m] = zeta_nj^(-s m) = zeta_e^((e / nj) (-s m mod nj)); columns of chi over the power classes reps^s
        D = ze[e // nj * (-np.outer(np.arange(nj), np.arange(nj)) % nj)]
        block = chi_p[:, P[:nj, j]]  # [rows, nj]
        am = (block @ D) % p * pow(nj, p - 2, p) % p
        if np.any(over := np.any(am > degs[:, None], axis=1)):
            fail("eigenvalue multiplicities exceed the degree", j, over)
        if np.any(short := am.sum(axis=1) != degs):
            fail("eigenvalue multiplicities do not sum to the degree", j, short)
        tensor[:, j, :] = am @ red[:: e // nj]
    idx = _canonical_order(tensor, degs)
    tensor, degs = tensor[idx], degs[idx]
    j0 = int(cc.class_id[G.identity])
    bad = np.any(tensor[:, j0] != degs[:, None] * red[0], axis=1)
    if np.any(bad):
        fail("identity-class value disagrees with the degree", j0, bad)
    return tensor


def dixon_table(G: GroupTable, seed: int = 0) -> ClassFunction:
    """Every irreducible character of an enumerated group, as one stack [k, k, phi(e)]."""
    cc = conjugacy_classes(G)
    e = cc.exponent
    p = dixon_prime(G.n, e)
    _check_headroom(G.name, G.n, cc.k, p)
    omega = _central_characters(G, cc, p, np.random.default_rng(seed))
    return ClassFunction(G, e, _lift(G, cc, omega, _degrees_mod(G, cc, omega, p), p))


def fiber(f: ClassFunction, degree: int, mult: int) -> ClassFunction:
    """The irreducible constituents of a character f = mult * (sum of distinct irreducibles of one degree).

    The members are found without the full table, as Krylov blocks of the
    class-matrix space.  Each member phi has central character omega_phi(c)
    = |c| phi(c) / degree, so v0(c) = |c| f(c) = mult degree sum omega_phi,
    and v0 lies in the span W of the omega_phi, which every class matrix
    maps into itself.  _central_characters drops the pieces of the center
    split where v0's component is 0 and closes each other component under
    its piece's blocks of one pass's random rows (_krylov_block); that spans
    W exactly when the rows separate every member.  _split_pieces splits the
    Krylov blocks row by row into the omega_phi, redrawing from scratch while
    fewer than f(1) / (mult degree) come out, and _lift lifts them as
    dixon_table does.  The stack is over Q(zeta_e), e the group exponent, in
    dixon_table's canonical row order, and is checked exactly: mult sum phi
    == f, <phi, phi> = 1, members pairwise distinct.
    """
    G, cc = f.group, f.classes
    k, e = cc.k, cc.exponent
    count, rem = divmod(int(f.degree), mult * degree)
    if rem or count == 0:
        raise ValueError(f"f(1) = {f.degree} is not a positive multiple of mult * degree = {mult * degree}")
    p = dixon_prime(G.n, lcm(e, f.n))
    _check_headroom(G.name, G.n, k, p)
    # f mod p, with zeta_n read through the same _zeta_powers embedding as _lift's zeta_e
    pw = _zeta_powers(f.n, p)[: f.vals.shape[-1]]
    v0 = (f.vals % p) @ pw % p * (cc.sizes % p) % p
    omega = _central_characters(G, cc, p, np.random.default_rng(0), v0, count)
    where = f"{G.name}, k={k}, p={p}, {count} members"
    tensor = _lift(G, cc, omega, np.full(count, degree, dtype=np.int64), p)
    out = ClassFunction(G, e, tensor)
    if ClassFunction(G, e, mult * tensor.sum(axis=0)) != f:
        raise AssertionError(f"{mult} * the sum of the members is not f ({where})")
    if np.any(inner(out, out) != 1):
        raise AssertionError(f"a member has norm other than 1 ({where})")
    if np.any(np.all(tensor[1:] == tensor[:-1], axis=(1, 2))):
        raise AssertionError(f"two members are equal ({where})")
    return out


# ------------------------------------------------------------- orthogonality


def orthogonality_certificate(table: ClassFunction) -> dict:
    """Exact proof that the table rows are orthonormal.

    The Gram entries G_ij = sum_c |c| chi_i(c) conj(chi_j(c)) - |G| delta_ij
    are canonical vectors with an explicitly bounded coefficient size C.  Each
    is evaluated at all phi(n) primitive n-th roots modulo two primes = 1 (mod
    n) whose product exceeds 2C.  A square Vandermonde system on distinct
    nodes is invertible mod p, so all-zero evaluations force the zero vector;
    zero mod both primes plus the bound forces exact zero.
    """
    cc = table.classes
    n = table.n
    phi_n = table.vals.shape[2]
    order = table.group.n
    # coefficient bound: |sum_c |c| v w S| <= sum_c |c| * max|v| * max|w| * phi * max|S|
    S = cyclo.product_tensor(n)
    vmax = int(np.abs(table.vals).max())
    C = int(cc.sizes.sum()) * vmax * vmax * phi_n * int(np.abs(S).max()) + order
    primes = _certificate_primes(n, 2 * C)
    prim_exps = [m for m in range(1, n + 1) if np.gcd(m, n) == 1]
    conj_tensor = table.vals @ cyclo.conj_matrix(n)
    w = cc.sizes.astype(np.int64)
    row_target = order * np.eye(len(table), dtype=np.int64)
    col_target = np.diag(order // cc.sizes)
    for p in primes:
        # both Gram products sum k terms below p^2: over the classes, then over the rows
        _check_int64_headroom(table.group.name, max(cc.k, len(table)), p)
        zs = _zeta_powers(n, p)
        for m in prim_exps:
            pw = zs[m * np.arange(phi_n) % n]
            Tz = (table.vals @ pw) % p  # [k_irr, k_class]
            Tzc = (conj_tensor @ pw) % p
            gram = (Tz * (w % p)[None, :] % p) @ Tzc.T % p
            if np.any((gram - row_target) % p):
                raise AssertionError(f"row orthogonality fails mod {p} at primitive root #{m}")
            gram_c = Tz.T @ Tzc % p
            if np.any((gram_c - col_target) % p):
                raise AssertionError(f"column orthogonality fails mod {p} at primitive root #{m}")
    return {"primes": primes, "bound": C, "primitive_roots_checked": len(prim_exps), "ok": True}


def _certificate_primes(n: int, bound: int) -> list[int]:
    """The smallest primes = 1 (mod n) whose product exceeds bound."""
    primes, product, walk = [], 1, _primes_one_mod(n)
    while product <= bound:
        primes.append(next(walk))
        product *= primes[-1]
    return primes


def verify_orthogonality_exact(table: ClassFunction):
    """Direct exact pairwise inner products, rows and columns; quadratic in k, for small tables."""
    got, want = inner(table[:, None], table[None]), np.eye(len(table), dtype=np.int64)
    if not np.array_equal(got, want):
        i, j = np.argwhere(got != want)[0]
        raise AssertionError(f"<chi_{i}, chi_{j}> = {got[i, j]}")
    cc = table.classes
    S = cyclo.product_tensor(table.n)
    Tc = table.vals @ cyclo.conj_matrix(table.n)
    e0 = cyclo.reduction_matrix(table.n)[0]
    order = table.group.n
    gram = np.einsum("ica,idb,abt->cdt", table.vals, Tc, S, optimize=True)
    target = np.einsum("cd,t->cdt", np.diag(order // cc.sizes), e0)
    if not np.array_equal(gram, target):
        raise AssertionError("column orthogonality fails")


# ------------------------------------------------------------- induce/restrict


def _fusion(H: GroupTable, G: GroupTable, ccH: ConjClasses, ccG: ConjClasses) -> np.ndarray:
    return ccG.class_id[H.pos_in(G)[ccH.reps]]


def restrict(f: ClassFunction, H: GroupTable) -> ClassFunction:
    """Restriction from f's group to a subgroup H cut from the same root; one gather."""
    ccH = conjugacy_classes(H)
    fus = _fusion(H, f.group, ccH, f.classes)
    return ClassFunction(H, f.n, np.take(f.vals, fus, axis=-2))


def induce(f: ClassFunction, G: GroupTable) -> ClassFunction:
    """Induced class function(s), exactly; dim scales by the index."""
    H = f.group
    ccG = conjugacy_classes(G)
    fus = _fusion(H, G, f.classes, ccG)
    acc = np.zeros(f.vals.shape[:-2] + (ccG.k, f.vals.shape[-1]), dtype=np.int64)
    np.add.at(acc, (Ellipsis, fus, slice(None)), f.classes.sizes[:, None] * f.vals)
    num = G.n * acc
    den = H.n * ccG.sizes[:, None]
    if np.any(num % den):
        raise AssertionError(
            f"values induced from {H.name} to {G.name} are not integral over the fusion data ({G._where})"
        )
    return ClassFunction(G, f.n, num // den)


class DecomposeError(AssertionError):
    """A failed decompose check; member indexes the stack's leading axes (() for one function)."""

    def __init__(self, text: str, member: tuple):
        self.member = tuple(int(i) for i in member)
        super().__init__(f"{text} at stack member {', '.join(map(str, self.member))}" if self.member else text)


def decompose(f: ClassFunction, irr: ClassFunction) -> np.ndarray:
    """Multiplicities m[..., i] of every irreducible irr[i] in f, int64, one row per member.

    A float Gram row proposes every m_i; the exact reconstruction sum m_i chi_i
    == f fixes them (the rows are linearly independent), and one exact
    inner(f, chi_i) per nonzero (member, irreducible) pair, in batches of at
    most _PAIR_CHUNK gathered table entries, computes each a second way.
    Every failed check raises DecomposeError naming the member.
    """
    if f.group is not irr.group:
        raise ValueError("class function and table live on different groups")
    approx = np.einsum("ij,...j->...i", irr.gram_weights, f.float_values())
    mults = np.rint(approx.real).astype(np.int64)
    dist = np.abs(approx - mults)
    if dist.max(initial=0.0) > 0.25:
        at = np.unravel_index(np.argmax(dist), dist.shape)
        raise DecomposeError(f"float multiplicities lie {dist[at]:.3g} from the nearest integers", at[:-1])
    if np.any(mults < 0):
        at = np.unravel_index(np.argmin(mults), mults.shape)
        raise DecomposeError(f"negative multiplicity {mults[at]} against irreducible {at[-1]}", at[:-1])
    recon, g = _align(ClassFunction(irr.group, irr.n, np.einsum("...i,ija->...ja", mults, irr.vals)), f)
    wrong = np.any(recon.vals != g.vals, axis=(-2, -1))
    if np.any(wrong):
        at = np.unravel_index(np.argmax(wrong), wrong.shape)
        raise DecomposeError("decomposition does not reconstruct the class function", at)
    nz = np.nonzero(mults)
    exact = np.empty(len(nz[-1]), dtype=np.int64)
    step = max(1, _PAIR_CHUNK // irr.vals[0].size)
    for s in range(0, len(exact), step):
        at = tuple(ix[s : s + step] for ix in nz)
        exact[s : s + step] = inner(f[at[:-1]], irr[at[-1]])
    bad = np.flatnonzero(exact != mults[nz])
    if len(bad):
        i, m = nz[-1][bad[0]], mults[nz][bad[0]]
        raise DecomposeError(f"exact <f, chi_{i}> disagrees with the multiplicity {m}", [ix[bad[0]] for ix in nz[:-1]])
    return mults
