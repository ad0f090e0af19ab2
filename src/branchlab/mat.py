"""2x2 matrix algebra over the chain rings.

Cyclic matrices (a non-scalar residue image, from which cyclic_vector reads
a cyclic vector), companion forms and their conjugators, centralizers (C(A)
is the unit group of o[A] = {x I + y A}, built only by centralizer), and
diagonal twists.  Scalar API works on Mat2 values; the _v* kernels act on
tuples of four parallel numpy code arrays (m11, m12, m21, m22) and back the
group layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ring
from .ring import RingElem, RingSpec


@dataclass(frozen=True)
class Mat2:
    """[[m11, m12], [m21, m22]] with entry codes in a common ring."""

    spec: RingSpec
    m11: int
    m12: int
    m21: int
    m22: int

    def __post_init__(self):
        for c in self.codes:
            if not 0 <= c < self.spec.size:
                raise ValueError("entry code out of range")

    @property
    def codes(self):
        return (self.m11, self.m12, self.m21, self.m22)

    def entry(self, i: int, j: int) -> RingElem:
        return RingElem(self.spec, self.codes[2 * i + j])

    def __repr__(self):
        return f"<{encode_mat(self)} over {self.spec.short_name} r={self.spec.r}>"


def mat(spec: RingSpec, rows) -> Mat2:
    """Build from [[a,b],[c,d]] of codes, ints (via from_integer), or RingElems."""
    flat = [rows[0][0], rows[0][1], rows[1][0], rows[1][1]]
    codes = []
    for x in flat:
        if isinstance(x, RingElem):
            if x.spec != spec:
                raise ValueError("entry from a different ring")
            codes.append(x.code)
        else:
            codes.append(ring.from_integer(spec, int(x)).code)
    return Mat2(spec, *codes)


def mat_from_codes(spec: RingSpec, m11: int, m12: int, m21: int, m22: int) -> Mat2:
    return Mat2(spec, int(m11), int(m12), int(m21), int(m22))


def identity(spec: RingSpec) -> Mat2:
    return Mat2(spec, 1, 0, 0, 1)


def scalar_mat(x: RingElem) -> Mat2:
    return Mat2(x.spec, x.code, 0, 0, x.code)


# ---------------------------------------------------------------- vector kernels


def _vmat_mul(spec, X, Y):
    a, b, c, d = X
    e, f, g, h = Y
    mul, add = ring._vmul, ring._vadd
    return (
        add(spec, mul(spec, a, e), mul(spec, b, g)),
        add(spec, mul(spec, a, f), mul(spec, b, h)),
        add(spec, mul(spec, c, e), mul(spec, d, g)),
        add(spec, mul(spec, c, f), mul(spec, d, h)),
    )


def _vdet(spec, X):
    a, b, c, d = X
    return ring._vadd(spec, ring._vmul(spec, a, d), ring._vneg(spec, ring._vmul(spec, b, c)))


def _vtrace(spec, X):
    return ring._vadd(spec, X[0], X[3])


def _vmat_inv(spec, X):
    """Adjugate over det; caller guarantees unit determinants."""
    a, b, c, d = X
    di = ring._vinv(spec, _vdet(spec, X))
    mul, neg = ring._vmul, ring._vneg
    return (
        mul(spec, d, di),
        mul(spec, neg(spec, b), di),
        mul(spec, neg(spec, c), di),
        mul(spec, a, di),
    )


def _vconj_diag(spec, X, d):
    """Entries of diag(d, 1) X diag(d, 1)^-1 for unit codes d: only the off-diagonal entries scale."""
    a, b, c, e = X
    return a, ring._vmul(spec, d, b), ring._vmul(spec, ring._vinv(spec, d), c), e


def _vpack(spec, X):
    s = spec.size
    a, b, c, d = (np.asarray(t, dtype=np.int64) for t in X)
    return a + s * (b + s * (c + s * d))


def _vunpack(spec, codes):
    s = spec.size
    codes = np.asarray(codes, dtype=np.int64)
    a = codes % s
    rest = codes // s
    b = rest % s
    rest = rest // s
    return a, b, rest % s, rest // s


def _as_vec(M: Mat2):
    return tuple(np.int64(c) for c in M.codes)


def _from_vec(spec, X) -> Mat2:
    return Mat2(spec, int(X[0]), int(X[1]), int(X[2]), int(X[3]))


# ---------------------------------------------------------------- scalar ops
# like ring's scalar ops, these wrap int64 scalars silently (ring._wrapping)


def _check(X: Mat2, Y: Mat2):
    if X.spec != Y.spec:
        raise ValueError("ring mismatch")


@ring._wrapping
def mat_mul(X: Mat2, Y: Mat2) -> Mat2:
    _check(X, Y)
    return _from_vec(X.spec, _vmat_mul(X.spec, _as_vec(X), _as_vec(Y)))


@ring._wrapping
def det(X: Mat2) -> RingElem:
    return RingElem(X.spec, int(_vdet(X.spec, _as_vec(X))))


@ring._wrapping
def trace(X: Mat2) -> RingElem:
    return RingElem(X.spec, int(_vtrace(X.spec, _as_vec(X))))


@ring._wrapping
def mat_inv(X: Mat2) -> Mat2:
    if ring.val(det(X)) != 0:
        raise ValueError(f"matrix {encode_mat(X)} is not invertible")
    return _from_vec(X.spec, _vmat_inv(X.spec, _as_vec(X)))


def mat_proj(X: Mat2, s: int | RingSpec) -> Mat2:
    s_spec = s if isinstance(s, RingSpec) else ring.truncate(X.spec, s)
    return _from_vec(s_spec, tuple(int(ring._vproj(X.spec, s_spec, np.int64(c))) for c in X.codes))


def mat_lift(spec_to: RingSpec, X: Mat2) -> Mat2:
    """Entrywise coordinate-identity lift (the fixed choice of A-tilde)."""
    return _from_vec(spec_to, tuple(int(ring._vlift(spec_to, X.spec, np.int64(c))) for c in X.codes))


# ---------------------------------------------------------------- cyclicity


def is_cyclic(A: Mat2) -> bool:
    """True iff some vector v makes [v | Av] invertible: cyclic_mask on one matrix."""
    return bool(cyclic_mask(A.spec, _as_vec(A)))


def cyclic_vector(A: Mat2) -> tuple[RingElem, RingElem] | None:
    """A v with [v | Av] invertible, read off the residue image of A = [[a, b], [c, d]].

    det[v | Av] is c for v = e1, -b for v = e2 and c + d - a - b for
    v = e1 + e2.  A non-scalar residue image makes c, b or a - d a unit; the
    first of these in that order picks v (with b, c in the maximal ideal, a
    unit a - d makes c + d - a - b one).  A scalar image has none: None.
    """
    a, b, c, d = (RingElem(A.spec, x) for x in A.codes)
    for v, x in (((1, 0), c), ((0, 1), b), ((1, 1), ring.add(a, ring.neg(d)))):
        if ring.is_unit(x):
            return RingElem(A.spec, v[0]), RingElem(A.spec, v[1])
    return None


@dataclass(frozen=True)
class CompanionForm:
    """conjugator . A . conjugator^-1 = [[0, alpha], [1, beta]]."""

    alpha: RingElem
    beta: RingElem
    conjugator: Mat2

    @property
    def companion(self) -> Mat2:
        return Mat2(self.alpha.spec, 0, self.alpha.code, 1, self.beta.code)

    @property
    def triple(self) -> tuple[int, int, int]:
        return (1, self.alpha.code, self.beta.code)

    @property
    def text(self) -> str:
        """The orbit label (1;alpha;beta) of reports and failure messages."""
        return f"({';'.join(ring.encode_elem(x) for x in (ring.one(self.alpha.spec), self.alpha, self.beta))})"


def companion_form(A: Mat2) -> CompanionForm:
    """Witness conjugator sending A to companion shape; det = -alpha, trace = beta."""
    v = cyclic_vector(A)
    if v is None:
        raise ValueError(f"{encode_mat(A)} is not cyclic")
    Av = mat_mul(A, Mat2(A.spec, v[0].code, 0, v[1].code, 0))
    basis = Mat2(A.spec, v[0].code, Av.m11, v[1].code, Av.m21)  # columns v, Av
    conj = mat_inv(basis)
    form = CompanionForm(ring.neg(det(A)), trace(A), conj)
    assert mat_mul(mat_mul(conj, A), basis) == form.companion
    return form


# ---------------------------------------------------------------- centralizers

_PAIR_BUDGET = 1 << 24  # pairs (x, y) that centralizer may enumerate


def centralizer(A: Mat2) -> tuple:
    """Entry arrays of C(A) in GL_2 for a cyclic A: the units of o[A] = {x I + y A}.

    A cyclic A has a cyclic vector v, so X commuting with A is fixed by
    Xv = x v + y Av, that is X = x I + y A; C(A) is the |o|^2 pairs (x, y)
    filtered by a unit determinant.  ValueError for a non-cyclic A and when
    |o|^2 exceeds _PAIR_BUDGET.
    """
    spec = A.spec
    if not is_cyclic(A):
        raise ValueError(f"{encode_mat(A)} is not cyclic")
    n = spec.size
    if n**2 > _PAIR_BUDGET:
        raise ValueError(f"pair scan over {spec} exceeds the enumeration budget")
    x = np.repeat(np.arange(n, dtype=np.int64), n)
    y = np.tile(np.arange(n, dtype=np.int64), n)
    yA = [ring._vmul(spec, y, t) for t in _as_vec(A)]
    X = (ring._vadd(spec, x, yA[0]), yA[1], yA[2], ring._vadd(spec, x, yA[3]))
    keep = ring._vval(spec, _vdet(spec, X)) == 0
    return tuple(t[keep] for t in X)


def centralizer_units(A: Mat2) -> tuple[int, int]:
    """(|C(A) in GL_2|, |det C(A)|) over A's own ring."""
    C = centralizer(A)
    return len(C[0]), len(np.unique(_vdet(A.spec, C)))


@ring._wrapping
def conjugate_by_diag(A: Mat2, d: RingElem) -> Mat2:
    """A_d = diag(gamma(d), 1) A diag(gamma(d), 1)^-1 for a unit d upstairs."""
    if ring.val(d) != 0:
        raise ValueError("twist parameter must be a unit")
    gd = d if d.spec == A.spec else ring.proj(d.spec, A.spec, d)
    return _from_vec(A.spec, _vconj_diag(A.spec, _as_vec(A), np.int64(gd.code)))


# ---------------------------------------------------------------- text form


def encode_mat(X: Mat2) -> str:
    e = [ring.encode_elem(RingElem(X.spec, c)) for c in X.codes]
    return f"[[{e[0]},{e[1]}],[{e[2]},{e[3]}]]"


def parse_mat(spec: RingSpec, text: str) -> Mat2:
    t = text.strip()
    if not (t.startswith("[[") and t.endswith("]]")):
        raise ValueError(f"bad matrix text {text!r}")
    rows = t[2:-2].split("],[")
    if len(rows) != 2:
        raise ValueError(f"bad matrix text {text!r}")
    codes = []
    for row in rows:
        parts = _split_row(spec, row)
        if len(parts) != 2:
            raise ValueError(f"bad matrix text {text!r}")
        codes.extend(ring.parse_elem(spec, p).code for p in parts)
    return Mat2(spec, *codes)


def _split_row(spec: RingSpec, row: str) -> list[str]:
    # char2-equal entries contain commas themselves; they carry exactly r digits
    if spec.kind == ring.KIND_CHAR2:
        parts = row.split(",")
        if len(parts) != 2 * spec.r:
            raise ValueError(f"bad row {row!r}")
        return [",".join(parts[: spec.r]), ",".join(parts[spec.r :])]
    return row.split(",")


def all_matrices(spec: RingSpec) -> list[Mat2]:
    """Every element of M_2(o_r); guarded by size."""
    if spec.size**4 > 1 << 24:
        raise ValueError("matrix space too large to enumerate")
    return [Mat2(spec, *map(int, _vunpack(spec, np.int64(c)))) for c in range(spec.size**4)]


def cyclic_mask(spec: RingSpec, X) -> np.ndarray:
    """Cyclicity over parallel entry-code arrays: a non-scalar residue image (see cyclic_vector)."""
    s1 = ring.truncate(spec, 1)
    a, b, c, d = (ring._vproj(spec, s1, t) for t in X)
    return ~((b == 0) & (c == 0) & (a == d))


def all_cyclic_matrices(spec: RingSpec) -> list[Mat2]:
    if spec.size**4 > 1 << 24:
        raise ValueError("matrix space too large to enumerate")
    codes = np.arange(spec.size**4, dtype=np.int64)
    X = _vunpack(spec, codes)
    keep = np.flatnonzero(cyclic_mask(spec, X))
    return [Mat2(spec, int(X[0][i]), int(X[1][i]), int(X[2][i]), int(X[3][i])) for i in keep]
