"""Exact character tables: known values, orthogonality, an independent float oracle.

The float oracle recomputes tables by the textbook class-algebra route —
numpy eigenvectors of a random combination of class matrices, normalized by
column sums — sharing no code with the exact Dixon implementation.
"""

import re

import numpy as np
import pytest
import sympy

from branchlab import chartab, clifford, cyclo, grp, mat, ring, verify


# ------------------------------------------------------- independent oracle


def burnside_float(G):
    cc = grp.conjugacy_classes(G)
    k = cc.k
    M = np.zeros((k, k, k))  # M[i][:, col]: class-multiplication coefficients
    for col in range(k):
        y = G.mul(G.inv, np.int64(cc.reps[col]))
        for i in range(k):
            M[i][:, col] = np.bincount(cc.class_id[y[cc.class_id == i]], minlength=k)
    rng = np.random.default_rng(7)
    combo = np.einsum("i,ijk->jk", rng.random(k), M)
    w, V = np.linalg.eig(combo)
    j0 = int(cc.class_id[G.identity])
    chis = []
    for c in range(k):
        v = V[:, c] / V[j0, c]
        s = np.sum(v * v[cc.inverse_class] / cc.sizes)
        d = np.sqrt(G.n / s)
        chis.append(d * v / cc.sizes * cc.sizes[j0] * 1.0)
    return np.array(chis)


def _fingerprint(row):
    return tuple(sorted((round(x.real, 6), round(x.imag, 6)) for x in row))


@pytest.mark.parametrize("kind,r,group", [("z2", 1, "gl"), ("z2", 2, "gl"), ("z2", 2, "sl")])
def test_tables_match_the_float_class_algebra_oracle(kind, r, group, groups, chartabs):
    G = groups(kind, r)
    if group == "sl":
        G = grp.sl2_subgroup(G)
    T = chartabs(G)
    bf = burnside_float(G)
    exact = np.array([f.float_values() for f in T])
    assert sorted(map(_fingerprint, bf)) == sorted(map(_fingerprint, exact))


# ------------------------------------------------------------ mod-p kernels

P_TEST = 337


def _rank_mod(A, p=P_TEST):
    return len(chartab._rref_mod(A, p)[1])


def _similar(D, seed, p=P_TEST):
    """P D P^-1 mod p for a seeded random invertible P."""
    rng = np.random.default_rng(seed)
    d = len(D)
    while True:
        P = rng.integers(0, p, size=(d, d), dtype=np.int64)
        R, piv = chartab._rref_mod(np.hstack([P, np.eye(d, dtype=np.int64)]), p)
        if piv[:d] == list(range(d)):
            return P @ (D % p) % p @ R[:, d:] % p


def _block_diag(*blocks):
    d = sum(len(b) for b in blocks)
    out = np.zeros((d, d), dtype=np.int64)
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


def _jordan(lam, size):
    return lam * np.eye(size, dtype=np.int64) + np.eye(size, k=1, dtype=np.int64)


EIGEN_CASES = {
    "repeated": _similar(np.diag([5, 5, 5, 7, 7, 2, 11, 11, 11, 11, 300, 1]), seed=1),
    "jordan": _similar(_block_diag(_jordan(4, 3), _jordan(4, 1), _jordan(9, 2), np.diag([9, 0, 0])), seed=2),
    "scalar": 6 * np.eye(9, dtype=np.int64),
    "block-diagonal": _block_diag(
        _similar(np.diag([3, 3, 8, 20]), seed=3),
        _similar(np.diag([8, 8, 3]), seed=4),
        _similar(np.diag([20, 5, 5, 5, 3]), seed=5),
    ),
}


@pytest.mark.parametrize("case", sorted(EIGEN_CASES))
def test_hessenberg_is_a_similarity(case):
    T = EIGEN_CASES[case]
    H, Q = chartab._hessenberg_mod(T, P_TEST)
    assert not np.any(np.tril(H, -2))
    assert _rank_mod(Q) == len(T)
    assert np.array_equal(T @ Q % P_TEST, Q @ H % P_TEST)


@pytest.mark.parametrize("case", sorted(EIGEN_CASES))
def test_eigenspaces_match_per_root_kernels(case):
    p = P_TEST
    T = EIGEN_CASES[case]
    d = len(T)
    spaces = chartab._eigenspaces_mod(T, p)
    want = [x for x in range(p) if _rank_mod((T - x * np.eye(d, dtype=np.int64)) % p) < d]
    assert [lam for lam, _ in spaces] == want
    for lam, V in spaces:
        K = chartab._kernel_mod((T - lam * np.eye(d, dtype=np.int64)) % p, p)
        assert V.shape == K.shape
        assert _rank_mod(V) == _rank_mod(np.hstack([V, K])) == K.shape[1]
        assert not np.any((T @ V - lam * V) % p)


def test_edge_cases_have_zero_subdiagonals():
    def zero_subdiagonals(T):
        H, _ = chartab._hessenberg_mod(T, P_TEST)
        return int(np.count_nonzero(np.diagonal(H, -1) == 0))

    assert zero_subdiagonals(EIGEN_CASES["scalar"]) == 8
    assert zero_subdiagonals(EIGEN_CASES["block-diagonal"]) >= 2


def test_dixon_headroom_guards():
    chartab._check_headroom("fake", 24576, 248, 337)
    with pytest.raises(ValueError, match=r"fake.*2\^53.*k=5, p=7"):
        chartab._check_headroom("fake", 2**53 // 7 + 1, 5, 7)
    with pytest.raises(ValueError, match=r"fake.*2\^63.*k=9, p=2147483647"):
        chartab._check_headroom("fake", 1, 9, 2**31 - 1)


# --------------------------------------------------- batched class matrices


def _class_matrix_combo_reference(G, cc, theta, p):
    """One theta, one GroupTable.mul over G per column."""
    k = cc.k
    th_elem = theta[cc.class_id].astype(np.float64)
    M = np.empty((k, k), dtype=np.int64)
    for col in range(k):
        y = G.mul(G.inv, np.int64(cc.reps[col]))
        M[:, col] = np.bincount(cc.class_id[y], weights=th_elem, minlength=k).astype(np.int64) % p
    return M


# C_GL2(psi_A) for the companions [[0, 1], [1, 1]] and [[0, 0], [1, 0]]
CGL_COMPANIONS = {"cgl": (0, 1, 1, 1), "cgl-nil": (0, 0, 1, 0)}


def _combo_group(groups, kind, r, group):
    G = groups(kind, r)
    if group == "sl":
        return grp.sl2_subgroup(G)
    if group in CGL_COMPANIONS:
        lp = clifford._layers(G).spec_lp
        return clifford.inertia(clifford.make_psiA(G, mat.mat_from_codes(lp, *CGL_COMPANIONS[group]))).c_gl
    return G


def _product_columns(G, cc):
    """The classes whose columns _class_matrix_blocks forms from products: one per central orbit."""
    P = chartab._central_shifts(G, cc)
    return np.flatnonzero(P.min(axis=0) == np.arange(cc.k))


def _combo_case(groups, kind, r, group):
    G = _combo_group(groups, kind, r, group)
    cc = grp.conjugacy_classes(G)
    p = chartab.dixon_prime(G.n, cc.exponent)
    thetas = np.random.default_rng(5).integers(1, p, size=(3, cc.k), dtype=np.int64)
    want = [_class_matrix_combo_reference(G, cc, theta, p) for theta in thetas]
    split = chartab._center_split(G, cc, p, np.random.default_rng(0))
    return G, cc, p, thetas, want, split


def _piece_basis(split, i, k):
    """U [k, d]: column m is u_b, b the m-th base of piece i, with u_b(P_z[b]) = psi_i(z) and 0 off b's orbit."""
    bases = split.bases[split.pieces[i]]
    U = np.zeros((k, len(bases)), dtype=np.int64)
    for z, psi in enumerate(split.psi[i]):
        U[split.P[z, bases], np.arange(len(bases))] = psi
    return U


def _assert_blocks_restrict_the_reference(split, got, want, p):
    """M_ref U_psi == U_psi T_psi (mod p) for every piece psi and every theta row."""
    k = len(want[0])
    Us = [_piece_basis(split, i, k) for i in range(len(split.pieces))]
    assert _rank_mod(np.hstack(Us), p) == k  # the pieces span the class space
    assert len(got) == len(want)
    for Ts, M in zip(got, want):
        assert len(Ts) == len(Us)
        for U, T in zip(Us, Ts):
            assert T.shape == (U.shape[1], U.shape[1])
            assert np.array_equal(M @ U % p, U @ T % p)


# batches of product columns: "whole" when they split into full batches,
# "partial" when the last batch is short, "single" when |G| exceeds
# _COMBO_CHUNK (one column each)
COMBO_CASES = [
    ("z2", 3, "gl", "whole"),
    ("z2", 3, "sl", "whole"),
    ("f2t", 3, "gl", "whole"),
    ("f2t", 3, "sl", "whole"),
    ("eis2", 3, "gl", "whole"),
    ("eis2", 3, "sl", "whole"),
    ("z2", 3, "cgl", "whole"),
    ("z2", 3, "cgl-nil", "partial"),
    ("z2", 4, "gl", "single"),
]


@pytest.mark.parametrize("kind,r,group,batches", COMBO_CASES)
def test_class_matrix_combos_match_the_per_column_reference(kind, r, group, batches, groups):
    G, cc, p, thetas, want, split = _combo_case(groups, kind, r, group)
    step = chartab._COMBO_CHUNK // G.n
    cols = len(_product_columns(G, cc))
    assert batches == ("single" if step == 0 else "partial" if cols % step else "whole")
    got = chartab._class_matrix_blocks(G, cc, split, thetas, p)
    _assert_blocks_restrict_the_reference(split, got, want, p)


@pytest.mark.parametrize("kind,r,group", [c[:3] for c in COMBO_CASES if c[1] == 3])
def test_class_matrix_combos_do_not_depend_on_the_batch_size(kind, r, group, groups, monkeypatch):
    G, cc, p, thetas, want, split = _combo_case(groups, kind, r, group)
    for chunk in (1, G.n * cc.k):  # one column per batch; every column in one batch
        monkeypatch.setattr(chartab, "_COMBO_CHUNK", chunk)
        got = chartab._class_matrix_blocks(G, cc, split, thetas, p)
        _assert_blocks_restrict_the_reference(split, got, want, p)


def test_trivial_center_gives_one_block_the_whole_space(groups):
    G = groups("z2", 1)  # GL2(F_2) = S3, center {1}
    cc = grp.conjugacy_classes(G)
    p = chartab.dixon_prime(G.n, cc.exponent)
    split = chartab._center_split(G, cc, p, np.random.default_rng(0))
    assert split.psi.tolist() == [[1]]
    assert [m.tolist() for m in split.pieces] == [list(range(cc.k))]
    thetas = np.random.default_rng(5).integers(1, p, size=(3, cc.k), dtype=np.int64)
    blocks = chartab._class_matrix_blocks(G, cc, split, thetas, p)
    for (T,), theta in zip(blocks, thetas):
        assert np.array_equal(T, _class_matrix_combo_reference(G, cc, theta, p))


@pytest.mark.parametrize(
    "kind,r,group,cols,k",
    [("z2", 4, "gl", 52, 248), ("z2", 4, "sl", 34, 76), ("z2", 3, "cgl", 10, 72), ("z2", 3, "cgl-nil", 28, 68)],
)
def test_class_matrix_combos_form_products_for_one_class_per_central_orbit(kind, r, group, cols, k, groups, monkeypatch):
    G = _combo_group(groups, kind, r, group)
    cc = grp.conjugacy_classes(G)
    p = chartab.dixon_prime(G.n, cc.exponent)
    split = chartab._center_split(G, cc, p, np.random.default_rng(0))
    real = chartab._class_matrix_columns
    seen = []

    def logged(G, cc, cols, thetas, p):
        seen.append(cols)
        return real(G, cc, cols, thetas, p)

    monkeypatch.setattr(chartab, "_class_matrix_columns", logged)
    chartab._class_matrix_blocks(G, cc, split, np.ones((1, cc.k), dtype=np.int64), p)
    (got,) = seen
    assert (len(got), cc.k) == (cols, k)
    # every class is a central shift of a product column
    assert np.array_equal(np.unique(chartab._central_shifts(G, cc)[:, got]), np.arange(cc.k))


@pytest.mark.parametrize("wrong", ["duplicate", "swap"])
def test_central_shifts_reject_a_wrong_central_product(wrong, groups, monkeypatch):
    G = groups("z2", 3)
    cc = grp.conjugacy_classes(G)
    real = grp.GroupTable.mul
    small, big = int(np.argmin(cc.sizes)), int(np.argmax(cc.sizes))

    def wrong_mul(self, i, j):
        out = real(self, i, j)
        if self is G and np.ndim(out) == 2:  # the [central element, class rep] products
            out = out.copy()
            if wrong == "duplicate":  # two classes shift onto one
                out[-1, big] = out[-1, small]
            else:  # a permutation that moves a class of size 1 onto a larger one
                out[-1, [small, big]] = out[-1, [big, small]]
        return out

    monkeypatch.setattr(grp.GroupTable, "mul", wrong_mul)
    with pytest.raises(AssertionError, match=r"central shift is not a size-preserving permutation .*\(GL2, k=60\)"):
        chartab._center_split(G, cc, 1009, np.random.default_rng(0))


def _wrong_shifts(monkeypatch, wrong):
    """_central_shifts with one entry changed by wrong(P, cc), which must keep every row a permutation."""
    real = chartab._central_shifts

    def shifted(G, cc):
        P = real(G, cc).copy()
        wrong(P, cc)
        return P

    monkeypatch.setattr(chartab, "_central_shifts", shifted)


def test_center_characters_reject_a_corrupted_cayley_table(groups, monkeypatch):
    # z_1 times two central classes trade places: each row still permutes the
    # classes and keeps their sizes, but the center's table is no group's
    def swap(P, cc):
        zc = np.flatnonzero(cc.sizes == 1)
        P[1, zc[[1, 2]]] = P[1, zc[[2, 1]]]

    _wrong_shifts(monkeypatch, swap)
    with pytest.raises(AssertionError, match=r"\(GL2, k=60, p=\d+, center of order 4"):
        chartab.dixon_table(groups("z2", 3))


@pytest.mark.parametrize(
    "wrong,message",
    [
        ("flip", "not multiplicative"),
        ("product", "3 distinct characters, not 4"),
        ("zero", r"psi\^e != 1"),
        pytest.param(
            "stuck",
            "after 8 passes with 1 of 4 eigenspaces: pass 7, piece 0, row 2, largest subspace dim 4",
            id="stuck-after 8 passes",
        ),
        ("fiber-zero", r"psi\^e != 1"),
        ("fiber-duplicate", "7 distinct characters, not 8"),
    ],
)
def test_center_characters_are_checked_exactly(wrong, message, groups, monkeypatch):
    # the exact checks of _cocycle_characters through both of its callers: the
    # center of GL2(Z/8), (Z/8)^x = C2 x C2 of order 4, and the even-level fiber
    # at z2 r = 4, orbit (1;3;2), whose 8 members split from the residue classes
    real = chartab._split_round
    if wrong.startswith("fiber"):
        G = groups("z2", 4)
        pa = clifford.make_psiA(G, mat.mat(clifford._layers(G).spec_lp, [[0, 3], [1, 2]]))
        L, C = pa.layers, pa.c_gl
        j0 = np.unique(L.residues[C.pos_in(L.gl)], return_inverse=True)[1][C.identity]  # the class of M^l
        z, run, suffix = (j0 + 1) % 8, lambda: clifford.phi_set(pa), r"\(z2, r=4, orbit \(1;3;2\)\)$"
    else:
        G = groups("z2", 3)
        cc = grp.conjugacy_classes(G)
        z = (list(np.flatnonzero(cc.sizes == 1)).index(cc.class_id[G.identity]) + 1) % 4  # not the identity
        run, suffix = lambda: chartab.dixon_table(G), r"\(GL2, k=60, p=\d+, center of order 4\)"

    def corrupt(subspaces, M, p, where):
        if wrong == "stuck":  # no row splits anything
            return subspaces
        out = real(subspaces, M, p, where)
        if ("center" in where or "orbit" in where) and all(S.shape[1] == 1 for S in out):
            if wrong == "flip":  # +-1 valued, but -1 on an odd number of elements
                out[1] = out[1].copy()
                out[1][z] = -out[1][z] % p
            elif wrong == "product":  # psi_1 psi_2 is another character of C2 x C2
                out[1] = out[1] * out[2] % p
            elif wrong == "fiber-duplicate":  # a valid extension twice: the relation holds
                out[1] = out[2].copy()
            else:  # 0 is no root of unity
                out[1] = out[1].copy()
                out[1][z] = 0
        return out

    monkeypatch.setattr(chartab, "_split_round", corrupt)
    with pytest.raises(AssertionError, match=rf"{message} {suffix}"):
        run()


def test_block_dimensions_must_sum_to_k(groups, monkeypatch):
    # a wrong shift that fixes a base class it moves puts z in that class's
    # stabilizer, which drops the class from every piece where psi(z) != 1
    def fix_a_base(P, cc):
        moved = np.flatnonzero((P[1] != np.arange(cc.k)) & (P.min(axis=0) == np.arange(cc.k)))
        P[1, moved[0]] = moved[0]

    _wrong_shifts(monkeypatch, fix_a_base)
    with pytest.raises(AssertionError, match=r"block dimensions sum to \d+, not k \(GL2, k=60, p=\d+, center"):
        chartab.dixon_table(groups("z2", 3))


def _log_table_rounds(monkeypatch, blocks=None):
    """(products, rounds): each _class_matrix_blocks pass, and (pass, row, M) of each table split round."""
    real_blocks, real_round = chartab._class_matrix_blocks, chartab._split_round
    products, rounds = [], []

    def logged_blocks(G, cc, split, thetas, p):
        products.append((len(thetas), blocks(G, cc, split, thetas, p) if blocks else real_blocks(G, cc, split, thetas, p)))
        return products[-1][1]

    def logged_round(subspaces, M, p, where):
        if "center" not in where:
            n, row = re.search(r", pass (\d+), piece \d+, row (\d+)$", where).groups()
            rounds.append((int(n), int(row), M))
        return real_round(subspaces, M, p, where)

    monkeypatch.setattr(chartab, "_class_matrix_blocks", logged_blocks)
    monkeypatch.setattr(chartab, "_split_round", logged_round)
    return products, rounds


def test_one_product_pass_serves_three_splitting_rounds(groups, monkeypatch):
    # every pass forms its class-matrix products once, for three theta rows,
    # and rows 0, 1 and 2 of that one product pass split every piece in turn
    G = groups("z2", 4)  # GL2(Z/16), k = 248
    cc = grp.conjugacy_classes(G)
    p = chartab.dixon_prime(G.n, cc.exponent)
    for seed in range(5):
        with monkeypatch.context() as m:
            products, rounds = _log_table_rounds(m)
            chartab._central_characters(G, cc, p, np.random.default_rng(seed))
        assert [rows for rows, _ in products] == [chartab._ROWS_PER_PASS] * len(products) == [3] * len(products)
        assert {n for n, _, _ in rounds} == set(range(len(products)))
        for n, row, M in rounds:
            assert any(M is B for B in products[n][1][row])
        pieces = len(products[0][1][0])
        assert [(n, row) for n, row, _ in rounds] == [(n, t) for n in range(len(products)) for _ in range(pieces) for t in range(3)]


def test_splitting_that_never_progresses_stops_at_24_rounds(groups, monkeypatch):
    # every row of every pass is the first pass's row 0, which leaves some
    # eigenspace of dimension > 1: 8 passes of 3 rows, 24 rounds, then a raise
    G = groups("z2", 3)
    real = chartab._class_matrix_blocks
    first = []

    def same_every_round(*args):
        if not first:
            first.append(real(*args)[0])
        return [first[0]] * 3

    products, rounds = _log_table_rounds(monkeypatch, same_every_round)
    with pytest.raises(
        AssertionError,
        match=r"splitting gave up after 8 passes with \d+ of 60 eigenspaces: pass 7, piece \d+, row 2, "
        r"largest subspace dim \d+ \(GL2, k=60, p=\d+\)$",
    ):
        chartab.dixon_table(G, seed=0)
    assert len(products) == chartab._MAX_PASSES == 8
    assert sorted({(n, row) for n, row, _ in rounds}) == [(n, t) for n in range(8) for t in range(3)]
    assert len({(n, row) for n, row, _ in rounds}) == chartab._MAX_PASSES * chartab._ROWS_PER_PASS == 24


def _solve(which, groups):
    """One solve, run with a fixed seed: the GL2(Z/8) table or a phi_set fiber."""
    if which == "table":
        G = groups("z2", 3)
        return lambda: chartab.dixon_table(G)
    r, rows = {"odd": (3, [[0, 0], [1, 0]]), "even": (4, [[0, 3], [1, 2]])}[which]
    G = groups("z2", r)
    pa = clifford.make_psiA(G, mat.mat(clifford._layers(G).spec_lp, rows))
    return lambda: clifford.phi_set(pa)


@pytest.mark.parametrize(
    "which,message",
    [
        pytest.param(
            "table",
            r"4 of 60 eigenspaces: pass 7, piece \d, row 2, largest subspace dim \d+ \(GL2, k=60, p=\d+\)$",
            id="table",
        ),
        pytest.param(
            "odd",
            r"2 of 8 eigenspaces: pass 7, piece \d, row 2, largest subspace dim \d "
            r"\(C_GL2\(psi_A\), k=68, p=\d+, 8 members\) \(z2, r=3, orbit \(1;0;0\)\)$",
            id="odd",
        ),
        pytest.param(
            "even",
            r"1 of 8 eigenspaces: pass 7, piece 0, row 2, largest subspace dim 8 \(z2, r=4, orbit \(1;3;2\)\)$",
            id="even",
        ),
    ],
)
def test_every_solve_redraws_a_stalled_pass_and_gives_up_after_max_passes(which, message, groups, monkeypatch):
    # the full table, the odd-level fiber and the even-level cocycle solve run
    # one driver; the center's own split (the table's and the odd fiber's) is
    # left alone, so only the solve under test stalls
    run = _solve(which, groups)
    want = run().vals
    real_pieces, real_round = chartab._split_pieces, chartab._split_round
    passes = []

    def counted(draw, starts, count, p, where):
        def logged():
            if "center" not in where:
                passes.append(where)
            return draw()

        return real_pieces(logged, starts, count, p, where)

    def stalled(when):
        return lambda subspaces, M, p, where: (
            subspaces if "center" not in where and when(where) else real_round(subspaces, M, p, where)
        )

    monkeypatch.setattr(chartab, "_split_pieces", counted)
    monkeypatch.setattr(chartab, "_split_round", stalled(lambda where: ", pass 0," in where))
    got = run().vals
    assert got.dtype == want.dtype and np.array_equal(got, want) and len(passes) == 2
    passes.clear()
    monkeypatch.setattr(chartab, "_split_round", stalled(lambda where: True))
    with pytest.raises(AssertionError, match=rf"splitting gave up after 8 passes with {message}"):
        run()
    assert len(passes) == chartab._MAX_PASSES == 8


def test_fiber_raises_when_the_krylov_block_exceeds_the_count(groups, chartabs):
    # f = 2 (chi_i + chi_j) read as 4 * (one irreducible of degree d): the
    # count is 1, but v0 holds two central characters
    T = chartabs(groups("z2", 2))
    i, j = np.flatnonzero(T.degree == 2)[:2]
    f = chartab.ClassFunction(T.group, T.n, 2 * (T.vals[i] + T.vals[j]))
    more = r"eigenspaces span dim 2, more than 1, at pass 0 \(GL2, k=14, p=\d+, 1 members\)$"
    with pytest.raises(AssertionError, match=more):
        chartab.fiber(f, 2, 4)


def test_krylov_block_is_the_smallest_invariant_space_holding_v0():
    # Ms = Q [[A, X], [0, C]] Q^-1 and v0 = Q (x, 0) keep the block inside Q's first s columns
    p, rng = 7, np.random.default_rng(3)

    def rank(A):
        return len(chartab._rref_mod(A, p)[1])

    for _ in range(40):
        k, s, t = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
        s = min(s, k)
        Q = rng.integers(0, p, size=(k, k))
        R, pivots = chartab._rref_mod(np.hstack([Q, np.eye(k, dtype=np.int64)]), p)
        if len(pivots) < k or pivots[-1] >= k:
            continue
        Ms = rng.integers(0, p, size=(t, k, k))
        Ms[:, s:, :s] = 0
        Ms = Q @ Ms % p @ R[:, k:] % p
        v0 = Q[:, :s] @ rng.integers(0, p, size=s) % p
        if not v0.any():
            continue
        B = chartab._krylov_block(Ms, v0, p)
        d = B.shape[1]
        assert B.shape[0] == k and rank(B) == d <= s
        assert rank(np.column_stack([B, v0])) == d
        assert all(rank(np.hstack([B, M @ B % p])) == d for M in Ms)
        words, naive = [v0], [v0]  # every word of length < k in the Ms, applied to v0
        for _ in range(k - 1):
            words = [M @ w % p for M in Ms for w in words]
            naive += words
        assert rank(np.column_stack(naive)) == d


@pytest.mark.parametrize("kind,r", [("z2", 2), ("f2t", 3)])
def test_fiber_returns_the_table_rows_of_each_degree(kind, r, groups, chartabs):
    # every degree's irreducibles, summed with multiplicity 2, split back into
    # the same rows as the full table's, in its order
    T = chartabs(groups(kind, r))
    for d in np.unique(T.degree):
        rows = np.flatnonzero(T.degree == d)
        f = chartab.ClassFunction(T.group, T.n, 2 * T.vals[rows].sum(axis=0))
        assert chartab.fiber(f, int(d), 2) == T[rows]
    with pytest.raises(ValueError, match="not a positive multiple"):
        chartab.fiber(T[0], 2, 1)


def test_dixon_degree_checks_raise(groups, monkeypatch):
    G = groups("z2", 2)  # GL2(Z/4): degrees 1 to 6
    real_central, real_degrees = chartab._central_characters, chartab._degrees_mod

    def swapped(G, cc, omega, p):  # the degrees of a linear and the 6-dimensional irreducible trade places
        degs = real_degrees(G, cc, omega, p)
        i, j = np.argmin(degs), np.argmax(degs)
        degs[[i, j]] = degs[[j, i]]
        return degs

    with monkeypatch.context() as m:
        m.setattr(chartab, "_degrees_mod", swapped)
        with pytest.raises(
            AssertionError,
            match=r"eigenvalue multiplicities exceed the degree \(GL2, k=14, p=37, class \d+, irreducible \d+\)$",
        ):
            chartab.dixon_table(G)

    def duplicated(G, cc, p, rng, v0=None, count=None):  # a linear central character is replaced by the 6-dimensional one
        omega = real_central(G, cc, p, rng, v0, count)
        degs = real_degrees(G, cc, omega, p)
        omega[np.argmin(degs)] = omega[np.argmax(degs)]
        return omega

    with monkeypatch.context() as m:
        m.setattr(chartab, "_central_characters", duplicated)
        with pytest.raises(AssertionError, match="sum-of-squares"):
            chartab.dixon_table(G)


# ------------------------------------------------------------- known tables


def test_s3_table_exact(groups, chartabs):
    G = groups("z2", 1)  # GL2(F2) = S3
    T = chartabs(G)
    assert sorted(map(int, T.degree)) == [1, 1, 2]
    chartab.verify_orthogonality_exact(T)
    assert chartab.orthogonality_certificate(T)["ok"]
    cc = T.classes
    by_size = {int(cc.sizes[j]): j for j in range(cc.k)}
    col_id, col_3cyc, col_2cyc = by_size[1], by_size[2], by_size[3]
    fv = np.array([f.float_values() for f in T])
    vals = sorted((round(v[col_id].real), round(v[col_2cyc].real), round(v[col_3cyc].real)) for v in fv)
    assert vals == [(1, -1, 1), (1, 1, 1), (2, 0, -1)]


def test_abelian_congruence_subgroup_is_all_linear(groups, chartabs):
    M1 = grp.congruence_subgroup(groups("z2", 2), 1)
    T = chartabs(M1)
    assert len(T) == 16 and all(int(d) == 1 for d in T.degree)
    chartab.verify_orthogonality_exact(T)


DEGREE_PROFILES = {
    ("z2", 2, "gl"): [1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 6],
    ("z2", 2, "sl"): [1, 1, 1, 1, 2, 2, 3, 3, 3, 3],
    ("f2t", 2, "gl"): [1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 6],
    ("f2t", 2, "sl"): [1, 1, 1, 1, 2, 2, 3, 3, 3, 3],
    ("z2", 3, "gl"): [1] * 8 + [2] * 10 + [3] * 8 + [4] * 12 + [6] * 18 + [12] * 4,
    ("z2", 3, "sl"): [1] * 4 + [2] * 6 + [3] * 12 + [4] * 2 + [6] * 6,
}


@pytest.mark.parametrize("kind,r,group", sorted(DEGREE_PROFILES))
def test_degree_profiles(kind, r, group, groups, chartabs):
    G = groups(kind, r)
    if group == "sl":
        G = grp.sl2_subgroup(G)
    T = chartabs(G)
    assert sorted(map(int, T.degree)) == DEGREE_PROFILES[(kind, r, group)]
    assert int(np.sum(T.degree.astype(object) ** 2)) == G.n
    chartab.verify_orthogonality_exact(T)


def test_certificate_at_r3(groups, chartabs):
    T = chartabs(groups("z2", 3))
    cert = chartab.orthogonality_certificate(T)
    assert cert["ok"] and len(cert["primes"]) >= 1


def test_certificate_checks_its_int64_headroom(groups, chartabs, monkeypatch):
    # a prime near 2^32 would overflow the Gram sums: the certificate refuses it
    T = chartabs(groups("z2", 2))
    p = sympy.nextprime(2**32)
    monkeypatch.setattr(chartab, "_certificate_primes", lambda n, bound: [p])
    with pytest.raises(ValueError, match=rf"^GL2: k \* p\^2 >= 2\^63.*\(k={T.classes.k}, p={p}\)$"):
        chartab.orthogonality_certificate(T)


def test_dixon_is_seed_independent(groups):
    G = grp.sl2_subgroup(groups("f2t", 2))
    T0 = chartab.dixon_table(G, seed=0)
    T1 = chartab.dixon_table(G, seed=99)
    assert np.array_equal(T0.vals, T1.vals)  # canonical row order
    assert np.array_equal(T0.degree, T1.degree)


def test_dixon_is_seed_independent_through_reduced_hessenberg_forms(groups):
    G = groups("z2", 3)  # GL2(Z/8), k = 60
    T0 = chartab.dixon_table(G, seed=0)
    T1 = chartab.dixon_table(G, seed=99)
    assert np.array_equal(T0.vals, T1.vals)
    assert np.array_equal(T0.degree, T1.degree)


# ------------------------------------------------------ class-function laws


def test_class_function_ops(groups, chartabs):
    G = groups("z2", 2)
    T = chartabs(G)
    f, g = T[4], T[9]
    z = f.float_values()
    w = g.float_values()
    assert np.allclose((f + g).float_values(), z + w)
    assert np.allclose((f - g).float_values(), z - w)
    assert np.allclose(f.scale(3).float_values(), 3 * z)
    assert np.allclose(f.conj().float_values(), np.conj(z))
    assert f.degree == int(T.degree[4])
    assert f == f and f != g
    # value at the identity class = degree
    cc = T.classes
    cid = int(cc.class_id[G.identity])
    assert cyclo.to_integer(f.vals[cid]) == f.degree
    # with_order embeds into a larger root order without changing values
    f2 = f.with_order(2 * f.n)
    assert f2.n == 2 * f.n and f2 == f


def test_class_function_equality(groups, chartabs):
    G = groups("z2", 2)
    T = chartabs(G)
    assert (T[0] == T[1]) is False and (T[0] == T[0]) is True
    assert T[0] != T[1]
    # a stack is equal only when every member is
    assert T == T and T[[0, 1]] == T[[0, 1]]
    assert T[[0, 1]] != T[[0, 2]] and T[[0, 1]] != T[[1, 0]]
    # embeddings into a larger root order compare equal, single or stacked
    assert T[3].with_order(2 * T.n) == T[3]
    assert T == T.with_order(3 * T.n)
    with pytest.raises(ValueError, match="different groups"):
        T[0] == chartabs(grp.sl2_subgroup(G))[0]
    assert T[0] != "chi_0"
    with pytest.raises(TypeError):
        hash(T[0])


def test_inner_products(groups, chartabs):
    G = groups("z2", 2)
    T = chartabs(G)
    triv = chartab.trivial_character(T.group)
    assert chartab.inner(triv, triv) == 1
    assert chartab.inner(T[5], T[5]) == 1
    assert chartab.inner(T[5], T[6]) == 0


def test_regular_character_decomposition(groups, chartabs):
    T = chartabs(groups("z2", 2))
    reg = chartab.regular_character(T.group)
    dec = chartab.decompose(reg, T)
    assert dec.dtype == np.int64 and np.array_equal(dec, T.degree)


def _decompose_by_inner(f, table):
    """Reference: one exact inner product against every row."""
    return np.array([chartab.inner(f, table[i]) for i in range(len(table))])


@pytest.mark.parametrize("kind,r", [("z2", 4), ("z2", 3), ("f2t", 3), ("eis2", 3)])
def test_decompose_matches_the_per_irreducible_loop(kind, r, groups, chartabs):
    G = groups(kind, r)
    S = grp.sl2_subgroup(G)
    TG = chartabs(G)
    TS = chartabs(S)
    regs = verify.find_regular(G, TG)
    assert regs
    for _, members in regs:
        for i in members:
            res = chartab.restrict(TG[i], S)
            assert np.array_equal(chartab.decompose(res, TS), _decompose_by_inner(res, TS))


@pytest.mark.parametrize("kind", ["z2", "f2t", "eis2"])
def test_decompose_matches_the_per_irreducible_loop_on_mackey_summands(kind, groups, chartabs):
    G = groups(kind, 3)
    L = clifford._layers(G)
    TS = chartabs(L.sl)
    lp = L.spec_lp
    summands = 0
    for a in range(lp.size):
        for b in range(lp.size):
            psiA = clifford.make_psiA(G, mat.mat_from_codes(lp, 0, a, 1, b))
            for phi in clifford.phi_set(psiA):
                for _, cf in clifford.mackey_restriction(psiA, phi):
                    assert np.array_equal(chartab.decompose(cf, TS), _decompose_by_inner(cf, TS))
                    summands += 1
    assert summands


def _fake_table(T, tensor, weights):
    """A table on T's classes with the given rows and decompose float weights."""
    fake = chartab.ClassFunction(T.group, T.n, tensor)
    fake.__dict__["gram_weights"] = weights
    return fake


def test_decompose_rounds_float_proposals_to_the_nearest_integer(groups, chartabs):
    T = chartabs(groups("z2", 2))
    reg = chartab.regular_character(T.group)
    assert 0.03 * int(T.degree.max()) < 0.25  # a 3% error stays inside the tolerance
    for scale in (0.97, 1.03):
        assert np.array_equal(chartab.decompose(reg, _fake_table(T, T.vals, scale * T.gram_weights)), T.degree)
    with pytest.raises(AssertionError, match="nearest integers"):
        chartab.decompose(reg, _fake_table(T, T.vals, 1.4 * T.gram_weights))


def test_decompose_rejects_what_is_not_a_character(groups, chartabs):
    T = chartabs(groups("z2", 2))
    with pytest.raises(AssertionError, match="negative multiplicity"):
        chartab.decompose(T[0] - T[1], T)
    # 1 at the identity and 0 elsewhere: every multiplicity is d_i / |G|
    delta = np.zeros((T.classes.k, 1), dtype=np.int64)
    delta[int(T.classes.class_id[T.group.identity])] = 1
    with pytest.raises(AssertionError, match="reconstruct"):
        chartab.decompose(chartab.ClassFunction(T.group, 1, delta), T)
    TS = chartabs(grp.sl2_subgroup(groups("z2", 2)))
    with pytest.raises(ValueError):
        chartab.decompose(TS[0], T)


def test_decompose_checks_each_constituent_exactly(groups, chartabs):
    # rows chi_0 + chi_1, chi_1, ... are independent but not orthonormal; with
    # float weights that propose the right coordinates the reconstruction
    # passes, and only the exact <f, chi_i> of the support sees the bad row
    T = chartabs(groups("z2", 2))
    tensor = T.vals.copy()
    tensor[0] += T.vals[1]
    W = T.gram_weights.copy()
    W[1] -= W[0]
    fake = _fake_table(T, tensor, W)
    with pytest.raises(AssertionError, match="exact"):
        chartab.decompose(fake[0], fake)


def test_decompose_checks_every_member_of_a_stack(groups, chartabs):
    T = chartabs(groups("z2", 2))
    assert np.array_equal(chartab.decompose(T[[0, 1]], T), np.eye(len(T), dtype=np.int64)[:2])
    bad = chartab.ClassFunction(T.group, T.n, np.stack([T.vals[0], T.vals[0] - T.vals[1]]))
    with pytest.raises(chartab.DecomposeError, match="negative multiplicity -1 against irreducible 1 at stack member 1$"):
        chartab.decompose(bad, T)
    # every check names the member that failed: here the reconstruction of member 2
    delta = np.zeros_like(T.vals[0])
    delta[int(T.classes.class_id[T.group.identity]), 0] = 1
    off = chartab.ClassFunction(T.group, T.n, np.stack([T.vals[0], T.vals[1], T.vals[1] + delta]))
    with pytest.raises(chartab.DecomposeError, match="reconstruct the class function at stack member 2$") as err:
        chartab.decompose(off, T)
    assert err.value.member == (2,)


# --------------------------------------------------------- induce / restrict


def test_frobenius_reciprocity(groups, chartabs):
    G = groups("z2", 2)
    S = grp.sl2_subgroup(G)
    TG = chartabs(G)
    TS = chartabs(S)
    for i in (0, 3, 9):
        for j in (0, 5, 13):
            lhs = chartab.inner(chartab.induce(TS[i], G), TG[j])
            rhs = chartab.inner(TS[i], chartab.restrict(TG[j], S))
            assert lhs == rhs


def test_induction_from_trivial_subgroup_is_regular(groups):
    G = groups("z2", 2)
    one = grp.subgroup(G, np.array([G.identity]), name="1")
    t = chartab.trivial_character(one)
    ind = chartab.induce(t, G)
    assert ind == chartab.regular_character(G)


def test_induction_is_transitive(groups):
    G = groups("z2", 2)
    S = grp.sl2_subgroup(G)
    one = grp.subgroup(S, np.array([S.identity]), name="1")
    t = chartab.trivial_character(one)
    via_s = chartab.induce(chartab.induce(t, S), G)
    direct = chartab.induce(t, G)
    assert via_s == direct


def test_restriction_dimension_bookkeeping(groups, chartabs):
    G = groups("z2", 2)
    S = grp.sl2_subgroup(G)
    TG = chartabs(G)
    TS = chartabs(S)
    for i in range(len(TG)):
        res = chartab.restrict(TG[i], S)
        dec = chartab.decompose(res, TS)
        assert int(dec @ TS.degree) == int(TG.degree[i])


def test_induced_degree_scales_by_index(groups, chartabs):
    G = groups("z2", 2)
    M1 = grp.congruence_subgroup(G, 1)
    TM = chartabs(M1)
    ind = chartab.induce(TM[3], G)
    assert ind.degree == TM[3].degree * (G.n // M1.n)
