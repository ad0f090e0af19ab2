"""2x2 matrix helpers: reference formulas, cyclicity, companion forms, centralizers."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab import mat, ring
from branchlab.mat import Mat2

SPECS = ["z2:2", "f2t:2", "eis2:2", "z2:3", "f2t:3", "f4t:1"]


def _spec(name):
    kind, r = name.split(":")
    return ring.make_ring(kind, r=int(r))


def _all(spec):
    return mat.all_matrices(spec)


def _ref_mul(X, Y):
    # textbook 2x2 product, straight from scalar ring ops
    spec = X.spec
    e = lambda i, j: X.entry(i, j)
    f = lambda i, j: Y.entry(i, j)
    rows = [
        [ring.add(ring.mul(e(i, 0), f(0, j)), ring.mul(e(i, 1), f(1, j))) for j in (0, 1)]
        for i in (0, 1)
    ]
    return Mat2(spec, rows[0][0].code, rows[0][1].code, rows[1][0].code, rows[1][1].code)


def test_construction_and_entries():
    spec = ring.make_ring("z2", r=2)
    X = mat.mat(spec, [[1, 2], [3, 0]])
    assert (X.m11, X.m12, X.m21, X.m22) == (1, 2, 3, 0)
    assert X.entry(0, 1).code == 2
    assert mat.mat_from_codes(spec, 1, 2, 3, 0) == X
    assert mat.identity(spec) == mat.mat(spec, [[1, 0], [0, 1]])
    assert mat.scalar_mat(ring.elem(spec, 3)) == mat.mat(spec, [[3, 0], [0, 3]])
    assert mat.trace(X) == ring.elem(spec, 1)
    assert mat.det(X) == ring.from_integer(spec, -6)


@pytest.mark.parametrize("name", ["z2:2", "f2t:2", "f4t:1"])
def test_product_det_trace_exhaustive(name):
    spec = _spec(name)
    ms = _all(spec)
    for X in ms[:64]:
        for Y in ms[:64]:
            P = mat.mat_mul(X, Y)
            assert P == _ref_mul(X, Y)
            assert mat.det(P) == ring.mul(mat.det(X), mat.det(Y))
            assert mat.trace(P) == mat.trace(mat.mat_mul(Y, X))


@pytest.mark.parametrize("name", SPECS)
def test_inverse(name):
    spec = _spec(name)
    I = mat.identity(spec)
    count = 0
    for X in _all(spec):
        if ring.is_unit(mat.det(X)):
            count += 1
            Xi = mat.mat_inv(X)
            assert mat.mat_mul(X, Xi) == I and mat.mat_mul(Xi, X) == I
    # |GL_2(o)| = q^(4r) (1 - 1/q)(1 - 1/q^2)
    q, r = spec.q, spec.r
    assert count == q ** (4 * r) * (q - 1) * (q * q - 1) // q**3
    with pytest.raises(ValueError):
        mat.mat_inv(mat.mat(spec, [[0, 0], [0, 0]]))


@pytest.mark.parametrize("name", SPECS)
def test_cyclic_detection_against_vector_scan(name):
    spec = _spec(name)
    elems = [ring.elem(spec, c) for c in range(spec.size)]
    step = 1 if spec.size <= 4 else 37  # exhaustive on the tiny rings, sampled above
    for A in _all(spec)[::step]:
        brute = False
        for v1 in elems:
            for v2 in elems:
                w1 = ring.add(ring.mul(A.entry(0, 0), v1), ring.mul(A.entry(0, 1), v2))
                w2 = ring.add(ring.mul(A.entry(1, 0), v1), ring.mul(A.entry(1, 1), v2))
                d = ring.add(ring.mul(v1, w2), ring.neg(ring.mul(v2, w1)))
                if ring.is_unit(d):
                    brute = True
                    break
            if brute:
                break
        assert mat.is_cyclic(A) == brute
        v = mat.cyclic_vector(A)
        assert (v is not None) == brute
        if v is not None:
            w1 = ring.add(ring.mul(A.entry(0, 0), v[0]), ring.mul(A.entry(0, 1), v[1]))
            w2 = ring.add(ring.mul(A.entry(1, 0), v[0]), ring.mul(A.entry(1, 1), v[1]))
            d = ring.add(ring.mul(v[0], w2), ring.neg(ring.mul(v[1], w1)))
            assert ring.is_unit(d)


@pytest.mark.parametrize("name", SPECS)
def test_cyclic_mask_and_enumeration(name):
    spec = _spec(name)
    codes = np.arange(spec.size**4, dtype=np.int64)
    X = mat._vunpack(spec, codes)
    mask = mat.cyclic_mask(spec, X)
    per_matrix = np.array([mat.is_cyclic(A) for A in _all(spec)])
    assert np.array_equal(mask, per_matrix)
    assert len(mat.all_cyclic_matrices(spec)) == int(mask.sum())


def test_cyclic_count_over_f2():
    # over a field, non-cyclic = scalar: 16 matrices, 2 scalars
    spec = ring.make_ring("z2", r=1)
    assert len(mat.all_cyclic_matrices(spec)) == 14


@pytest.mark.parametrize("name", SPECS)
def test_companion_form(name):
    spec = _spec(name)
    cyc = mat.all_cyclic_matrices(spec)
    step = 1 if spec.size <= 4 else 5
    for A in cyc[::step]:
        form = mat.companion_form(A)
        g = form.conjugator
        assert mat.mat_mul(mat.mat_mul(g, A), mat.mat_inv(g)) == form.companion
        assert form.alpha == ring.neg(mat.det(A))
        assert form.beta == mat.trace(A)
        C = form.companion
        assert C.m11 == 0 and ring.is_unit(ring.elem(spec, C.m21))
    with pytest.raises(ValueError):
        mat.companion_form(mat.scalar_mat(ring.one(spec)))


@pytest.mark.parametrize("name", ["z2:2", "f2t:2", "z2:3", "f2t:3", "eis2:3", "f4t:1"])
def test_centralizer_units_against_full_scan(name):
    spec = _spec(name)
    gl = [X for X in _all(spec) if ring.is_unit(mat.det(X))]
    cyc = mat.all_cyclic_matrices(spec)
    step = 7 if spec.size <= 4 else len(cyc) // 7
    for A in cyc[::step]:
        comm = [X for X in gl if mat.mat_mul(X, A) == mat.mat_mul(A, X)]
        size, det_size = mat.centralizer_units(A)
        assert size == len(comm)
        assert det_size == len({mat.det(X).code for X in comm})
        C = mat.centralizer(A)
        assert {tuple(map(int, X)) for X in zip(*C)} == {tuple(X.codes) for X in comm}
        assert np.all(ring._vval(spec, mat._vdet(spec, C)) == 0)


def test_centralizer_units_non_cyclic_scalar():
    spec = ring.make_ring("z2", r=2)
    with pytest.raises(ValueError, match="not cyclic"):
        mat.centralizer_units(mat.scalar_mat(ring.one(spec)))


def test_centralizer_pair_budget():
    # |o|^2 = 2^26 pairs at z2 r = 13: refused before anything is allocated
    spec = ring.make_ring("z2", r=13)
    with pytest.raises(ValueError, match="budget"):
        mat.centralizer(mat.mat(spec, [[0, 0], [1, 0]]))


def test_conjugate_by_diag():
    for r in (3, 4):  # at r = 4, d = 3 has d^-1 = 11 != d
        spec = ring.make_ring("z2", r=r)
        A = mat.mat(spec, [[0, 3], [1, 5]])
        for d in ring.units(spec):
            B = mat.conjugate_by_diag(A, d)
            D = mat.mat(spec, [[d.code, 0], [0, 1]])
            assert B == mat.mat_mul(mat.mat_mul(D, A), mat.mat_inv(D))


@pytest.mark.parametrize("name", SPECS)
def test_pack_unpack_round_trip(name):
    spec = _spec(name)
    codes = np.arange(spec.size**4, dtype=np.int64)
    X = mat._vunpack(spec, codes)
    assert np.array_equal(mat._vpack(spec, X), codes)
    dets = mat._vdet(spec, X)
    per = np.array([mat.det(A).code for A in _all(spec)])
    assert np.array_equal(dets, per)


def test_lift_and_proj():
    spec = ring.make_ring("f2t", r=4)
    sub = ring.truncate(spec, 2)
    for A in mat.all_matrices(sub):
        assert mat.mat_proj(mat.mat_lift(spec, A), sub) == A
    X = mat.mat(spec, [[5, 2], [9, 14]])
    P = mat.mat_proj(X, 2)
    assert P.spec == sub
    assert P.entry(0, 0) == ring.proj(spec, sub, X.entry(0, 0))


@pytest.mark.parametrize("name", SPECS)
def test_encode_parse_round_trip(name):
    spec = _spec(name)
    for A in _all(spec)[:: max(1, spec.size // 3)]:
        assert mat.parse_mat(spec, mat.encode_mat(A)) == A


# ------------------------------------------------- properties of the kernels

# widest level per kind whose codes fit int64 (ring._check_width)
_WIDEST = {"z2": 63, "f2t": 63, "f4t": 31, "eis2": 63}


def _levels(kind, table, packed):
    """Levels whose ring._vmul takes the product-table (or the formula) branch;
    packed keeps those whose four entry codes _vpack into one int64."""
    out = []
    for r in range(1, _WIDEST[kind] + 1):
        size = ring.make_ring(kind, r=r).size
        if (kind != "z2" and size <= ring._MUL_TABLE_MAX) == table and (not packed or size**4 <= 1 << 63):
            out.append(r)
    return out


_LEVELS = {(k, t, p): _levels(k, t, p) for k in _WIDEST for t in (True, False) for p in (True, False)}


@st.composite
def _ring_and_mats(draw, table, packed=False):
    """(spec, three matrices as entry tuples of length-1 code arrays) on one branch of ring._vmul."""
    kind = draw(st.sampled_from([k for k in sorted(_WIDEST) if _LEVELS[k, table, packed]]))
    spec = ring.make_ring(kind, r=draw(st.sampled_from(_LEVELS[kind, table, packed])))
    codes = draw(st.lists(st.integers(0, spec.size - 1), min_size=12, max_size=12))
    return spec, [tuple(np.array([c], dtype=np.int64) for c in codes[i : i + 4]) for i in (0, 4, 8)]


def _same(X, Y):
    return all(np.array_equal(x, y) for x, y in zip(X, Y, strict=True))


def _unit(spec, x):
    """x where it is a unit, 1 + x elsewhere (1 + a non-unit is a unit)."""
    return np.where(ring._vval(spec, x) == 0, x, ring._vadd(spec, x, np.int64(ring.one(spec).code)))


def _check_matrix_kernels(spec, mats):
    X, Y, Z = mats
    mul = lambda A, B: mat._vmat_mul(spec, A, B)
    one, zero = np.array([ring.one(spec).code]), np.zeros(1, dtype=np.int64)
    I = (one, zero, zero, one)
    assert _same(mul(mul(X, Y), Z), mul(X, mul(Y, Z)))
    assert _same(mul(I, X), X) and _same(mul(X, I), X)
    assert np.array_equal(mat._vdet(spec, mul(X, Y)), ring._vmul(spec, mat._vdet(spec, X), mat._vdet(spec, Y)))
    # every invertible matrix is w^e [[1,0],[c,1]] diag(u, v) [[1,b],[0,1]] with w the row swap
    a, b, c, d = Y
    U = mul(mul((one, zero, c, one), (_unit(spec, a), zero, zero, _unit(spec, d))), (one, b, zero, one))
    if Z[0][0] % 2:
        U = mul((zero, one, one, zero), U)
    Ui = mat._vmat_inv(spec, U)
    assert _same(mul(U, Ui), I) and _same(mul(Ui, U), I)
    dc = _unit(spec, Z[1])
    D = (dc, zero, zero, one)
    assert _same(mat._vconj_diag(spec, X, dc), mul(mul(D, X), mat._vmat_inv(spec, D)))


def _matrix_kernels(spec, mats):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an int64 overflow warning is a defect
        _check_matrix_kernels(spec, mats)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_ring_and_mats(table=True))
def test_matrix_kernels_on_the_product_table_branch(case):
    _matrix_kernels(*case)


@settings(derandomize=True, max_examples=50, deadline=None)  # a wide f4t example takes up to 0.6 s
@given(_ring_and_mats(table=False))
def test_matrix_kernels_on_the_formula_branch(case):
    _matrix_kernels(*case)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda table: _ring_and_mats(table, packed=True)), st.data())
def test_pack_and_unpack_round_trip_on_both_branches(case, data):
    spec, (X, _, _) = case
    assert _same(mat._vunpack(spec, mat._vpack(spec, X)), X)
    code = data.draw(st.integers(0, spec.size**4 - 1))
    assert int(mat._vpack(spec, mat._vunpack(spec, np.int64(code)))) == code


def _widest_example(kind, entries):
    spec = ring.make_ring(kind, r=_WIDEST[kind])
    return (spec, [tuple(np.array([c], dtype=np.int64) for c in entries)] * 3)


# one example per kind at its widest level, on each branch of cyclic_vector:
# c a unit, then b a unit, then only a - d a unit, then a scalar residue image
@settings(derandomize=True, max_examples=50, deadline=None)
@given(_ring_and_mats(table=False))
@example(_widest_example("z2", [2, 6, 1, 4]))
@example(_widest_example("f2t", [2, 1, 6, 4]))
@example(_widest_example("eis2", [1, 2, 6, 4]))
@example(_widest_example("f4t", [8, 4, 12, 0]))
def test_cyclic_vector_and_companion_witness_on_the_formula_branch(case):
    # the residue-image cyclic vector reaches levels an |o|^2 vector search cannot
    spec, (X, _, _) = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the scalar Mat2 ops wrap int64 silently, as ring's do
        A = Mat2(spec, *(int(t[0]) for t in X))
        assert (mat.cyclic_vector(A) is None) == (not mat.is_cyclic(A))
        if not mat.is_cyclic(A):  # a scalar residue image; a + 1 makes a - d a unit
            A = Mat2(spec, ring.add(A.entry(0, 0), ring.one(spec)).code, A.m12, A.m21, A.m22)
        v = mat.cyclic_vector(A)
        Av = mat.mat_mul(A, Mat2(spec, v[0].code, 0, v[1].code, 0))
        assert ring.is_unit(mat.det(Mat2(spec, v[0].code, Av.m11, v[1].code, Av.m21)))
        form = mat.companion_form(A)  # asserts conjugator . A = companion . conjugator itself
        g = form.conjugator
        assert mat.mat_mul(mat.mat_mul(g, A), mat.mat_inv(g)) == form.companion
        assert form.alpha == ring.neg(mat.det(A)) and form.beta == mat.trace(A)
