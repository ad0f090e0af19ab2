"""psi_A machinery: bijection, stabilizers, extensions, the fiber, Mackey summands.

The stabilizer tests re-derive the inertia groups by a literal definition
scan (conjugate every generator-level element against every character value)
so the vectorized routes inside the library are checked against brute force.
"""

import gc
import weakref

import numpy as np
import pytest

from branchlab import chartab, clifford, grp, mat, ring


@pytest.fixture(scope="module")
def z2r2(groups):
    return groups("z2", 2)


def _psi(G, rows):
    lp = ring.truncate(G.spec, G.spec.ell_prime)
    return clifford.make_psiA(G, mat.mat(lp, rows))


# ------------------------------------------------------------------ layers


def test_layer_sizes(groups):
    # M^l' is the kernel of reduction mod pi^l', so its cosets are the residue classes
    L = clifford._layers(groups("z2", 2))
    K1 = grp.congruence_subgroup(L.sl, 1)
    Mlp = grp.congruence_subgroup(L.gl, L.ellp)
    assert (L.Ml.n, L.Kl.n, Mlp.n, K1.n) == (16, 8, 16, 8)
    assert L.res_root.n == grp.gl2_order(L.spec_lp) == L.gl.n // Mlp.n
    L3 = clifford._layers(groups("z2", 3))
    K1 = grp.congruence_subgroup(L3.sl, 1)
    Mlp = grp.congruence_subgroup(L3.gl, L3.ellp)
    assert (L3.Ml.n, L3.Kl.n, Mlp.n, K1.n) == (16, 8, 256, 64)
    assert L3.res_root.n == grp.gl2_order(L3.spec_lp) == L3.gl.n // Mlp.n
    assert L3.ell == 2 and L3.ellp == 1
    # the kernel fiber of residues is M^l' in GL2 and K^l' in SL2, and the
    # identity's run of L.fibers, on which lifts checks centralizing, is M^l'
    for L in (L, L3):
        res_id = L.res_root.identity
        Mlp = grp.congruence_subgroup(L.gl, L.ellp)
        assert np.array_equal(np.flatnonzero(L.residues == res_id), Mlp.root_pos)
        order, start = L.fibers
        assert np.array_equal(order[start[res_id] : start[res_id + 1]], Mlp.root_pos)
        K = grp.congruence_subgroup(L.sl, L.ellp)
        assert np.array_equal(L.sl.root_pos[L.residues[L.sl.root_pos] == res_id], K.root_pos)
        assert np.count_nonzero(L.res_sl) == grp.sl2_order(L.spec_lp)


def test_lifts_check_once_that_Mlp_centralizes_Ml(monkeypatch):
    # a table of its own, so the failing layers never reach the session's cache
    G = grp.build_gl2(ring.make_ring("z2", r=3))
    L = clifford._layers(G)
    g = G.pos_of_matrix(mat.mat(G.spec, [[1, 1], [0, 1]]))  # moves I + 4 E_21 in M^2
    order, start = L.fibers
    order = order.copy()
    order[start[L.res_root.identity + 1] - 1] = g  # the last member of M^l', the identity's run
    monkeypatch.setattr(L, "fibers", (order, start))
    for attr in ("conj_lifts_M", "conj_lifts_K"):
        with pytest.raises(AssertionError, match=r"^M\^l' does not centralize M\^l \(z2, r=3\)$"):
            getattr(L, attr)
    with pytest.raises(AssertionError, match=r"^M\^l' does not centralize M\^l \(z2, r=3\)$"):
        clifford.inertia(clifford.make_psiA(G, mat.mat(L.spec_lp, [[0, 1], [1, 1]])))
    monkeypatch.undo()
    assert L.conj_lifts_M.shape == (len(L.Ml.gens), L.res_root.n)


def test_conjugate_positions_failures_name_the_table_kind_and_level(groups):
    G = groups("z2", 2)
    u = G.pos_of_matrix(mat.mat(G.spec, [[1, 1], [0, 1]]))  # order 4
    powers = [G.identity, u, G.mul(u, u), int(G.inv[u])]
    N = grp.subgroup(G, powers, name="<u>")  # not normal: the swap w sends u to a lower unitriangular
    w = G.pos_of_matrix(mat.mat(G.spec, [[0, 1], [1, 0]]))
    with pytest.raises(AssertionError, match=r"^a conjugating element is missing from GL2 \(z2, r=2\)$"):
        clifford._conjugate_positions(G, N, np.array([G.identity, -1]))
    with pytest.raises(AssertionError, match=r"^conjugate left <u> \(z2, r=2\)$"):
        clifford._conjugate_positions(G, N, np.array([G.identity, w]))


def test_layers_reject_other_tables(groups):
    G = groups("z2", 2)
    with pytest.raises(ValueError):
        clifford._layers(grp.congruence_subgroup(G, 1))
    with pytest.raises(ValueError):
        clifford._layers(grp.build_gl2(ring.make_ring("z2", r=1)))
    with pytest.raises(ValueError):
        clifford._layers(grp.build_sl2(ring.make_ring("z2", r=2)))


# ------------------------------------------------------------ characters


def test_psi_bijection_and_homomorphism(groups):
    # every A over o_l' gives a distinct character of M^l; A = 0 the trivial one
    for kind in ("z2", "f2t"):
        G = groups(kind, 2)
        lp = ring.truncate(G.spec, 1)
        L = clifford._layers(G)
        seen = set()
        for code in range(lp.size**4):
            A = mat.Mat2(lp, *map(int, mat._vunpack(lp, np.int64(code))))
            pa = clifford.make_psiA(G, A)
            seen.add(pa.exps_M.tobytes())
            if code == 0:
                assert np.all(pa.exps_M == 0)
        assert len(seen) == L.Ml.n == lp.size**4
        pa = _psi(G, [[0, 0], [1, 0]])
        idx = np.arange(L.Ml.n)
        prod = L.Ml.mul(idx[:, None], idx[None, :])
        assert np.all(pa.exps_M[prod] == (pa.exps_M[:, None] + pa.exps_M[None, :]) % pa.n)


def test_make_psiA_level_check(groups):
    G = groups("z2", 2)
    with pytest.raises(ValueError):
        clifford.make_psiA(G, mat.mat(G.spec, [[0, 0], [1, 0]]))  # wrong ring level


# ------------------------------------------------------------------ h sets


def _h_brute(pa, i):
    # straight from the definition: val(2x) >= i and val(x(x + beta~)) >= i
    spec = pa.layers.spec
    beta = ring.elem(spec, pa.Atilde.m22)
    two = ring.from_integer(spec, 2)
    out = []
    for c in range(spec.size):
        x = ring.elem(spec, c)
        if ring.val(ring.mul(two, x)) >= i and ring.val(ring.mul(x, ring.add(x, beta))) >= i:
            out.append(c)
    return out


@pytest.mark.parametrize("kind,r,rows", [
    ("z2", 2, [[0, 0], [1, 0]]),
    ("z2", 2, [[0, 1], [1, 1]]),
    ("z2", 3, [[0, 0], [1, 0]]),
    ("f2t", 3, [[0, 1], [1, 1]]),
    ("eis2", 2, [[0, 0], [1, 0]]),
])
def test_h_set_matches_definition(kind, r, rows, groups):
    pa = _psi(groups(kind, r), rows)
    for i in range(pa.layers.spec.r + 1):
        assert [x.code for x in clifford.h_set(pa, i)] == _h_brute(pa, i)
    with pytest.raises(ValueError):
        clifford.h_set(pa, pa.layers.spec.r + 1)


def test_h_set_requires_companion(groups):
    G = groups("z2", 2)
    lp = ring.truncate(G.spec, 1)
    pa = clifford.make_psiA(G, mat.mat(lp, [[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        clifford.h_set(pa, 1)


def test_product_mask_in_chunks(groups):
    # one GroupTable.mul over every pair, against the products taken one by one
    G = groups("z2", 3)
    pos_a = np.arange(0, G.n, 7)  # 220 elements
    pos_b = grp.congruence_subgroup(G, 2).root_pos  # 16 elements
    brute = {int(G.mul(np.int64(a), np.int64(b))) for a in pos_a for b in pos_b}
    mask = clifford._product_mask(G, pos_a, pos_b)
    assert set(np.flatnonzero(mask).tolist()) == brute


# ----------------------------------------------------------------- inertia


def _brute_stabilizer(G, sub, exps, n):
    # positions g in G with psi(g m g^-1) = psi(m) for every m in sub
    member_pos = sub.pos_in(G)
    back = {int(p): i for i, p in enumerate(member_pos)}
    keep = []
    for g in range(G.n):
        gi = int(G.inv[g])
        ok = True
        for i, p in enumerate(member_pos):
            c = int(G.mul(G.mul(np.int64(g), np.int64(int(p))), np.int64(gi)))
            j = back.get(c)
            if j is None or exps[j] != exps[i]:
                ok = False
                break
        if ok:
            keep.append(g)
    return set(keep)


@pytest.mark.parametrize("kind,rows", [
    ("z2", [[0, 0], [1, 0]]),
    ("z2", [[0, 1], [1, 1]]),
    ("f2t", [[0, 1], [1, 0]]),
])
def test_inertia_matches_brute_stabilizers(kind, rows, groups):
    G = groups(kind, 2)
    pa = _psi(G, rows)
    I = clifford.inertia(pa)
    L = pa.layers
    got_gl = set(I.c_gl.root_pos.tolist())
    assert got_gl == _brute_stabilizer(G, L.Ml, pa.exps_M, pa.n)
    sl_pos_in_gl = L.sl.root_pos
    got_sl = set(I.c_sl.root_pos.tolist())
    assert got_sl == got_gl & set(sl_pos_in_gl.tolist())
    # psi_[A] stabilizer inside SL2, same brute scan over K^l
    exps_K = pa.exps_K
    brute_br = _brute_stabilizer(L.sl, L.Kl, exps_K, pa.n)
    assert set(I.c_sl_bracket.pos_in(L.sl).tolist()) == brute_br


@pytest.mark.parametrize("kind,r", [("z2", 4), ("eis2", 3)])
def test_psi_bracket_is_the_trace_pairing_on_K(kind, r, groups):
    # exps_K gathers psi_A at K^l inside M^l; the pairing on K^l's own entries is a second route
    G = groups(kind, r)
    L = clifford._layers(G)
    lp = L.spec_lp
    for code in range(0, lp.size**4, max(1, lp.size**4 // 16)):
        pa = clifford.make_psiA(G, mat.Mat2(lp, *map(int, mat._vunpack(lp, np.int64(code)))))
        assert np.array_equal(pa.exps_K, clifford._psi_exps(L.spec, mat._as_vec(pa.Atilde), L.Kl.ms))


@pytest.mark.parametrize(
    "kind,r",
    [(k, r) for k in ("z2", "f2t", "eis2") for r in (2, 3, 4)] + [("z2", 5), ("f4t", 2)],
)
def test_psi_A_is_its_literal_definition(kind, r, groups, request):
    # psi_A(I + pi^l B~) = psi(pi^l tr(A~ B~)) for random B~ over o_r, by scalar
    # arithmetic: m is built by multiplying with pi^l, never by dividing, and
    # looked up among M^l's positions
    G = request.getfixturevalue("z2r5") if r == 5 else groups(kind, r)
    spec = G.spec
    L = clifford._layers(G)
    pe = ring.one(spec)
    for _ in range(L.ell):
        pe = ring.mul(pe, ring.uniformizer(spec))
    one = ring.one(spec)
    rng = np.random.default_rng(0)
    for A in _companions(L.spec_lp):
        pa = clifford.make_psiA(G, A)
        a11, a12, a21, a22 = (ring.elem(spec, c) for c in pa.Atilde.codes)
        for codes in rng.integers(0, spec.size, size=(16, 4)).tolist():
            b11, b12, b21, b22 = (ring.elem(spec, c) for c in codes)
            m = mat.Mat2(
                spec,
                ring.add(one, ring.mul(pe, b11)).code,
                ring.mul(pe, b12).code,
                ring.mul(pe, b21).code,
                ring.add(one, ring.mul(pe, b22)).code,
            )
            tr = ring.add(
                ring.add(ring.mul(a11, b11), ring.mul(a12, b21)),
                ring.add(ring.mul(a21, b12), ring.mul(a22, b22)),
            )
            want = int(ring.psi_exponent(spec, ring.mul(pe, tr).code))
            assert pa.exps_M[L.Ml.pos_of_matrix(m)] == want, (mat.encode_mat(A), codes)


def test_inertia_invariants(groups):
    for kind, r in [("z2", 2), ("f2t", 2), ("z2", 3), ("f2t", 3)]:
        G = groups(kind, r)
        spec = G.spec
        lp = ring.truncate(spec, spec.ell_prime)
        for A in (mat.mat(lp, [[0, 0], [1, 0]]), mat.mat(lp, [[0, 1], [1, 1]])):
            pa = clifford.make_psiA(G, A)
            I = clifford.inertia(pa)
            # M^l centralizes its own character; K^l sits inside every SL stabilizer
            L = pa.layers
            assert set(L.Ml.root_pos.tolist()) <= set(I.c_gl.root_pos.tolist())
            # determinant image is a subgroup of the units hit by C_GL
            det_img = set(I.det_image.tolist())
            assert det_img == {int(G.dets[p]) for p in I.c_gl.root_pos}
            for a in list(det_img)[:4]:
                for b in list(det_img)[:4]:
                    assert ring.mul(ring.elem(spec, a), ring.elem(spec, b)).code in det_img
            # D_A representatives enumerate the unit cosets of the image exactly
            assert len(I.dA_reps) * len(det_img) == ring.unit_count(spec)
            seen = set()
            for d in I.dA_reps:
                coset = frozenset(ring.mul(d, ring.elem(spec, u)).code for u in det_img)
                assert coset not in seen
                seen.add(coset)
            # index of the bracket stabilizer over the plain one is 1 or 2
            assert I.c_sl_bracket.n % I.c_sl.n == 0
            assert I.c_sl_bracket.n // I.c_sl.n in (1, 2)


def _moved_at_identity(pa, k):
    # res_conj with entry k of P^-1 A P moved off A's at P = I, as a fresh tuple
    D = tuple(t.copy() for t in pa.res_conj)
    i = pa.layers.res_root.identity
    D[k][i] = (D[k][i] + 1) % pa.layers.spec_lp.size
    return D


def test_inertia_failures_name_kind_level_and_orbit(groups):
    G = groups("z2", 4)  # a fresh PsiA runs inertia afresh, so a shared table will do
    lp = ring.truncate(G.spec, G.spec.ell_prime)
    A = mat.mat(lp, [[0, 3], [1, 2]])
    assert mat.companion_form(A).text == "(1;3;2)"
    pa = clifford.make_psiA(G, A)
    pa.res_conj = _moved_at_identity(pa, 0)  # the identity no longer commutes with A
    with pytest.raises(
        AssertionError,
        match=r"^C_GL2\(psi_A\): stabilizer scan and residue commutation disagree \(z2, r=4, orbit \(1;3;2\)\)$",
    ):
        clifford.inertia(pa)


def test_product_route_failure_names_kind_level_and_orbit(monkeypatch, groups):
    # one unit of o_r[A~] short, C_GL2(A~) M^l' has the wrong order
    G = groups("z2", 4)
    A = mat.mat(ring.truncate(G.spec, G.spec.ell_prime), [[0, 3], [1, 2]])
    real = mat.centralizer
    monkeypatch.setattr(mat, "centralizer", lambda X: tuple(t[1:] for t in real(X)))
    with pytest.raises(
        AssertionError,
        match=r"C_GL2\(psi_A\): stabilizer scan and product formula disagree \(z2, r=4, orbit \(1;3;2\)\)$",
    ):
        clifford.make_psiA(G, A).c_gl_mask


def test_bracket_stabilizer_failure_names_kind_level_and_orbit(groups):
    G = groups("z2", 4)
    A = mat.mat(ring.truncate(G.spec, G.spec.ell_prime), [[0, 3], [1, 2]])
    pa = clifford.make_psiA(G, A)
    pa.c_gl_mask  # the commutation route reads the true array first
    pa.res_conj = _moved_at_identity(pa, 1)  # P^-1 A P - A is no longer scalar at P = I
    with pytest.raises(
        AssertionError,
        match=r"^C_SL2\(psi_\[A\]\): stabilizer scan and scalar test disagree \(z2, r=4, orbit \(1;3;2\)\)$",
    ):
        clifford.inertia(pa)


def _corrupt_first_generator(pa, attr):
    # psi_A (or psi_[A]) with its value at the first generator of M^l (K^l) moved
    N = pa.layers.Ml if attr == "exps_M" else pa.layers.Kl
    exps = getattr(pa, attr).copy()
    exps[N.gens[0]] = (exps[N.gens[0]] + 1) % pa.n
    setattr(pa, attr, exps)
    return pa


def _conj_agreeing_with(pa, mask):
    # a stand-in for res_conj whose P^-1 A P equals A exactly on mask (-1 is no
    # code), so both residue formulas read mask: commuting, and scalar on mask & SL2
    return tuple(np.where(mask, np.int64(a), np.int64(-1)) for a in pa.A.codes)


def test_corrupted_psi_exponent_raises_through_every_route(groups):
    # each route in turn is the only one left to see the corruption: the routes
    # checked first are made to agree with the corrupted stabilizer scan
    G = groups("z2", 4)
    A = mat.mat(ring.truncate(G.spec, G.spec.ell_prime), [[0, 3], [1, 2]])
    where = r" disagree \(z2, r=4, orbit \(1;3;2\)\)$"
    bad = _corrupt_first_generator(clifford.make_psiA(G, A), "exps_M")
    with pytest.raises(AssertionError, match=r"C_GL2\(psi_A\): stabilizer scan and residue commutation" + where):
        bad.c_gl_mask
    bad.res_conj = _conj_agreeing_with(bad, bad.stabilizer_residues)
    with pytest.raises(AssertionError, match=r"C_GL2\(psi_A\): stabilizer scan and product formula" + where):
        bad.c_gl_mask
    bad = _corrupt_first_generator(clifford.make_psiA(G, A), "exps_K")
    L = bad.layers
    with pytest.raises(AssertionError, match=r"C_SL2\(psi_\[A\]\): stabilizer scan and scalar test" + where):
        bad.c_sl_bracket
    bstab = np.zeros(L.res_root.n, dtype=bool)
    bstab[L.res_sl] = clifford._stabilizer_mask(L.conj_lifts_K, L.Kl, bad.exps_K)
    bad.c_gl_mask  # read from the true array, before the stand-in
    bad.res_conj = _conj_agreeing_with(bad, bstab)
    with pytest.raises(AssertionError, match=r"C_SL2\(psi_\[A\]\): stabilizer scan and H-product formula" + where):
        bad.c_sl_bracket


def test_preimage_rejects_a_non_closed_image_and_uneven_fibers(groups):
    L = clifford._layers(groups("z2", 3))
    res = L.res_root
    g = res.pos_of_matrix(mat.mat(L.spec_lp, [[1, 1], [0, 1]]))  # order 2 mod 2
    h = res.pos_of_matrix(mat.mat(L.spec_lp, [[1, 0], [1, 1]]))
    members = np.array(sorted({res.identity, g, h}))  # closed under inverses, not under products
    loose = grp.GroupTable(res.spec, "loose", res.codes[members], root=res, root_pos=members)
    with pytest.raises(ValueError, match="left the element set"):
        grp.preimage(L.gl, L.fibers, loose, name="C")
    image = grp.subgroup(res, [res.identity, g], name="<g>")
    C = grp.preimage(L.gl, L.fibers, image, name="C")
    Mlp = grp.congruence_subgroup(L.gl, L.ellp)
    assert C.n == 2 * Mlp.n and np.array_equal(C.root_pos, np.flatnonzero(np.isin(L.residues, image.root_pos)))
    with pytest.raises(ValueError, match=r"C: fibers over 7 positions, but <g>'s root has 6$"):
        grp.preimage(L.gl, grp.fibers(L.residues, res.n + 1), image, name="C")
    # one element of the kernel fiber sent to g: |preimage| stays, the kernel fiber shrinks
    index = L.residues.copy()
    index[Mlp.root_pos[1]] = g
    uneven = r"C: 512 elements map into <g>, not \|image\| \* \|kernel fiber\| = 2 \* 255$"
    with pytest.raises(ValueError, match=uneven):
        grp.preimage(L.gl, grp.fibers(index, res.n), image, name="C")


def test_frozen_inertia_sizes(groups):
    pa = _psi(groups("f2t", 3), [[0, 0], [1, 0]])
    I = clifford.inertia(pa)
    assert (I.c_gl.n, I.c_sl.n, len(I.dA_reps)) == (512, 128, 1)
    pa2 = _psi(groups("z2", 2), [[0, 0], [1, 0]])
    I2 = clifford.inertia(pa2)
    assert len(I2.dA_reps) == 1


def test_nilpotent_trace_at_r4_has_two_cosets(groups):
    pa = _psi(groups("f2t", 4), [[0, 0], [1, 0]])
    I = clifford.inertia(pa)
    assert len(I.dA_reps) == 2


# ------------------------------------------- per-orbit data lives on its PsiA


def test_inertia_is_freed_with_its_psiA(groups):
    def held(G):
        pa = _psi(G, [[0, 0], [1, 0]])
        I = clifford.inertia(pa)
        phis = clifford.phi_set(pa)
        clifford.mackey_restriction(pa, phis)
        return [weakref.ref(H) for H in (I.c_gl, I.c_sl, I.c_sl_bracket, phis.group)]

    # odd r splits a Krylov block of C_GL2(psi_A), even r its residue classes;
    # this orbit has |D_A| = 1 at z2 r=3 and 2 at f2t r=4.  Reference counting
    # alone frees every subgroup: the cyclic collector is off
    gc.disable()
    try:
        for kind, r in (("z2", 3), ("f2t", 4)):
            refs = held(groups(kind, r))
            assert len(refs) == 4
            assert [ref() for ref in refs] == [None] * len(refs), (kind, r)
    finally:
        gc.enable()


def test_orbit_sweep_leaves_no_per_orbit_cache_keys(groups):
    G = groups("z2", 3)
    L = clifford._layers(G)
    comps = list(_companions(L.spec_lp))
    keys = []
    for A in comps:
        pa = clifford.make_psiA(G, A)
        clifford.inertia(pa)
        for phi in clifford.phi_set(pa):
            clifford.mackey_restriction(pa, phi)
        keys.append((set(G.cache), set(L.sl.cache)))
    assert len(comps) > 1 and all(k == keys[0] for k in keys)
    for key in keys[0][0] | keys[0][1]:
        parts = key if isinstance(key, tuple) else (key,)
        assert not any(A.codes in parts for A in comps), key


def test_inertia_runs_once_per_psiA(groups, built_tables):
    G = groups("z2", 3)
    clifford._layers(G).res_root  # the per-table layers and the residue root are built first
    del built_tables[:]

    def names():
        return [H.name for H in built_tables]

    pa = _psi(G, [[0, 0], [1, 0]])
    assert clifford.inertia(pa) is pa
    first = names()
    per_orbit = {"C_GL2(psi_A)", "C_SL2(psi_A)", "C_SL2(psi_[A])"}
    # each group, and its residue image; no root is enumerated
    assert set(first) == per_orbit | {f"{n} mod pi^l'" for n in per_orbit} and len(first) == 6
    assert clifford.inertia(pa) is pa and names() == first
    # a second PsiA of the same A builds its own subgroups
    pb = _psi(G, [[0, 0], [1, 0]])
    clifford.inertia(pb)
    assert names() == first + first
    assert pb.c_gl is not pa.c_gl and pb.c_sl_bracket is not pa.c_sl_bracket
    # the fiber and the Mackey route read the stabilizers already built
    del built_tables[:]
    for phi in clifford.phi_set(pa):
        clifford.mackey_restriction(pa, phi)
    assert not set(first) & set(names()) and "GL2" not in names()


# ----------------------------------------------- per-table inertia data


def _literal_scan(G, N, exps):
    # the stabilizer scan with its conjugates recomputed, as one orbit alone would
    spec = G.spec
    ginv = G.entries(G.inv)
    keep = np.ones(G.n, dtype=bool)
    for ngen, up in zip(N.gens, N.pos_in(G)[N.gens]):
        t = mat._vmat_mul(spec, mat._vmat_mul(spec, ginv, G.entries(up)), G.ms)
        inside = N.pos_of_codes(mat._vpack(spec, t))
        assert np.all(inside >= 0)
        keep &= exps[inside] == exps[ngen]
    return keep


def _companions(lp):
    for a, alpha, beta in sorted({mat.companion_form(A).triple for A in mat.all_cyclic_matrices(lp)}):
        top = ring.mul(ring.inv(ring.elem(lp, a)), ring.elem(lp, alpha))
        yield mat.mat_from_codes(lp, 0, top.code, a, beta)


@pytest.mark.parametrize("kind,r", [("z2", 3), ("z2", 4), ("f2t", 3), ("eis2", 3), ("f4t", 2)])
def test_per_table_routes_match_per_orbit_recomputation(kind, r, groups):
    G = groups(kind, r)
    L = clifford._layers(G)
    lp = L.spec_lp
    glp_entries = tuple(ring._vproj(L.spec, lp, t) for t in G.ms)
    index, res = L.residues, L.res_root
    Mlp = grp.congruence_subgroup(G, L.ellp)
    assert res.n == grp.gl2_order(lp) == G.n // Mlp.n
    # the residue root's positions are the sorted distinct residue codes
    assert np.array_equal(res.codes, np.unique(mat._vpack(lp, glp_entries)))
    assert L.conj_lifts_M.dtype == np.min_scalar_type(L.Ml.n - 1) and index.dtype == np.int32
    assert L.conj_lifts_M.shape[1] == res.n and L.conj_lifts_K.shape[1] == grp.sl2_order(lp)
    orbits = 0
    for A in _companions(lp):
        pa = clifford.make_psiA(G, A)
        stab = _literal_scan(G, L.Ml, pa.exps_M)
        assert np.array_equal(pa.stabilizer_residues[index], stab)
        bstab = np.zeros(res.n, dtype=bool)
        bstab[L.res_sl] = clifford._stabilizer_mask(L.conj_lifts_K, L.Kl, pa.exps_K)
        assert np.array_equal(bstab[index[L.sl.root_pos]], _literal_scan(L.sl, L.Kl, pa.exps_K))
        # C_GL2(A~) M^l': the residue classes met by C_GL2(A~), against the literal products
        cent_lift = _commuting(L.spec, G.ms, pa.Atilde)
        hit = np.zeros(res.n, dtype=bool)
        hit[index[cent_lift]] = True
        prod = clifford._product_mask(G, np.flatnonzero(cent_lift), Mlp.pos_in(G))
        assert np.array_equal(hit[index], prod)
        # res_conj's P^-1 A P = A against the commutation of every GL2 residue with A
        resid = np.all([x == a for x, a in zip(pa.res_conj, A.codes)], axis=0)[index]
        assert np.array_equal(resid, _commuting(lp, glp_entries, A))
        I = clifford.inertia(pa)
        assert np.array_equal(I.c_gl.root_pos, np.flatnonzero(stab))
        assert np.array_equal(I.c_sl_bracket.pos_in(L.sl), np.flatnonzero(bstab[index[L.sl.root_pos]]))
        orbits += 1
    assert orbits > 1


@pytest.fixture(scope="module")
def z2r5():
    # GL2(Z/32) is built here, not in the session cache, so it is freed with this module
    return grp.build_gl2(ring.make_ring("z2", r=5))


@pytest.mark.parametrize(
    "kind,r", [(k, r) for k in ("z2", "f2t", "eis2") for r in (2, 3, 4)] + [("f4t", 2), ("z2", 5)]
)
def test_preimage_groups_equal_the_full_stabilizer_scans(kind, r, groups, greedy_reference, request):
    # today's GL2-wide scans, cut with grp.subgroup, against the preimages of the
    # residue masks: the same members, the same |D_A|, and generators that,
    # read lazily, are the greedy ones
    G = request.getfixturevalue("z2r5") if r == 5 else groups(kind, r)
    L = clifford._layers(G)
    gl, sl = L.gl, L.sl
    conj_M = clifford._conjugate_positions(gl, L.Ml, np.arange(gl.n))
    conj_K = clifford._conjugate_positions(sl, L.Kl, np.arange(sl.n))
    units = ring.unit_codes(L.spec)
    for A in _companions(L.spec_lp):
        pa = clifford.inertia(clifford.make_psiA(G, A))
        stab = clifford._stabilizer_mask(conj_M, L.Ml, pa.exps_M)
        today = {
            "c_gl": grp.subgroup(gl, stab, name="C"),
            "c_sl": grp.subgroup(sl, stab[sl.root_pos], name="C_SL2"),
            "c_sl_bracket": grp.subgroup(sl, clifford._stabilizer_mask(conj_K, L.Kl, pa.exps_K), name="C_SL2[A]"),
        }
        for attr, ref in today.items():
            H = getattr(pa, attr)
            assert "gens" not in vars(H), attr  # nothing in inertia read them
            assert np.array_equal(H.root_pos, ref.root_pos), attr
            assert H.gens == ref.gens == greedy_reference(H), attr
        assert np.array_equal(pa.det_image, np.unique(gl.dets[stab]))
        assert len(pa.dA_reps) * len(pa.det_image) == len(units)


def test_warm_inertia_runs_no_closure_or_scan_on_a_group_cut_from_gl2(z2r5, monkeypatch):
    # a count guard, no clock: after the first orbit warms the layers, inertia closes
    # only residue images (at most |GL2(o_l')| elements) and scans one lift per class
    L = clifford._layers(z2r5)
    comps = list(_companions(L.spec_lp))
    clifford.inertia(clifford.make_psiA(z2r5, comps[0]))
    closed, cols = [], []
    real_closure, real_scan = grp._closure_mask, clifford._stabilizer_mask
    monkeypatch.setattr(grp, "_closure_mask", lambda t, *a: closed.append(t) or real_closure(t, *a))
    monkeypatch.setattr(clifford, "_stabilizer_mask", lambda c, *a: cols.append(c.shape[1]) or real_scan(c, *a))
    clifford.inertia(clifford.make_psiA(z2r5, comps[-1]))
    assert closed and {t.root for t in closed} == {L.res_root}
    assert cols and max(cols) <= L.res_root.n == grp.gl2_order(L.spec_lp) == 96


def _commuting(spec, X, A):
    # X A == A X entrywise, for every matrix of the entry arrays X
    Av = tuple(np.int64(c) for c in A.codes)
    XA, AX = mat._vmat_mul(spec, X, Av), mat._vmat_mul(spec, Av, X)
    return np.all([x == y for x, y in zip(XA, AX)], axis=0)


@pytest.mark.parametrize("kind,r", [("z2", 4), ("f2t", 4), ("eis2", 4), ("f4t", 2), ("z2", 5)])
def test_centralizer_of_the_lift_is_the_commutation_scan(kind, r, groups):
    # c_gl_mask looks C_GL2(A~) up as the units of o_r[A~]; here every element
    # of GL2 is tested for commuting with A~ instead, on every companion orbit
    G = groups(kind, r)
    lp = ring.truncate(G.spec, G.spec.ell_prime)
    orbits = 0
    for A in _companions(lp):
        At = mat.mat_lift(G.spec, A)
        pos = G.pos_of_codes(mat._vpack(G.spec, mat.centralizer(At)))
        assert np.array_equal(np.sort(pos), np.flatnonzero(_commuting(G.spec, G.ms, At)))
        orbits += 1
    assert orbits == lp.size**2


# -------------------------------------------------------------- extensions


def test_extension_set_is_the_pi_ell_ideal(groups):
    # beta = 1 + t: a unit whose square class blocks extension beyond pi^l o
    G = groups("f2t", 4)
    spec4 = G.spec
    lp4 = ring.truncate(spec4, 2)
    L4 = clifford._layers(G)
    pb = clifford.make_psiA(G, mat.mat(lp4, [[0, 1], [1, ring.elem(lp4, 3)]]))
    hl = clifford.h_set(pb, L4.ell)
    pi2 = {c for c in range(spec4.size) if int(ring._vval(spec4, np.int64(c))) >= 2}
    beta = np.int64(pb.Atilde.m22)
    expect_h = {0, int(beta)} | pi2 | {int(ring._vadd(spec4, beta, np.int64(c))) for c in pi2}
    assert {x.code for x in hl} == expect_h
    sl4 = L4.sl
    # C_S^l(A~) = (C_GL2(A~) M^l) cap SL2
    cent_lift = _commuting(spec4, G.ms, pb.Atilde)
    prod_ell = clifford._product_mask(G, np.flatnonzero(cent_lift), L4.Ml.root_pos)
    c_s_ell = grp.subgroup(sl4, prod_ell[sl4.root_pos], name="C_S^l(A~)")
    ainv = ring.inv(ring.elem(spec4, pb.Atilde.m21))
    e_set = []
    for lam in hl:
        top = ring.mul(ainv, lam)
        e_lam = sl4.pos_of_matrix(mat.mat_from_codes(spec4, 1, top.code, 0, 1))
        gens = [int(g) for g in c_s_ell.pos_in(sl4)[c_s_ell.gens]] + [e_lam]
        Hc = grp.subgroup(sl4, grp._closure_mask(sl4, gens), name="C_S^l<e_lam>")
        # psi_[A] extends to Hc iff some linear character of Hc restricts to it
        linear = [h for h in chartab.dixon_table(Hc) if h.degree == 1]
        if any(chartab.inner(chartab.restrict(h, L4.Kl), pb.psi_K) == 1 for h in linear):
            e_set.append(lam.code)
    assert set(e_set) == pi2


# ------------------------------------------------------------ phi / Mackey


def test_phi_set_even_level(groups):
    for kind in ("z2", "f2t"):
        pa = _psi(groups(kind, 2), [[0, 0], [1, 0]])
        phis = clifford.phi_set(pa)
        assert len(phis) == 2 and all(p.degree == 1 for p in phis)
        # distinct characters extending psi_A
        assert phis[0] != phis[1]


def test_phi_set_odd_level(groups):
    pa = _psi(groups("z2", 3), [[0, 0], [1, 0]])
    phis = clifford.phi_set(pa)
    assert len(phis) == 8 and all(p.degree == 2 for p in phis)


def _restriction_filter(pa):
    """(phi_set's stack, the reference fiber): the reference is every row of
    the full table of C_GL2(psi_A) whose restriction to M^l pairs with psi_A."""
    table = chartab.dixon_table(clifford.inertia(pa).c_gl)
    brute = [i for i, phi in enumerate(table) if chartab.inner(chartab.restrict(phi, pa.layers.Ml), pa.psi_M)]
    got = clifford.phi_set(pa)
    assert len(got) == len(brute) > 0
    return got, table[brute]


@pytest.mark.parametrize("kind", ["z2", "f2t", "eis2"])
def test_phi_set_odd_level_matches_the_restriction_filter(kind, groups):
    # phi_set splits Ind psi_A without the full table of C_GL2(psi_A); the
    # reference builds that table and pairs every Res phi with psi_A
    G = groups(kind, 3)
    lp = clifford._layers(G).spec_lp
    for a in range(lp.size):
        for b in range(lp.size):
            got, ref = _restriction_filter(clifford.make_psiA(G, mat.mat_from_codes(lp, 0, a, 1, b)))
            assert got == ref


@pytest.mark.parametrize(
    "kind,r,rows",
    [pytest.param(k, 2, None, id=f"{k}-2-all") for k in ("z2", "f2t", "eis2", "f4t")]
    + [
        pytest.param("z2", 4, [[0, 0], [1, 0]], id="z2-4-(1;0;0)"),
        pytest.param("z2", 4, [[0, 3], [1, 2]], id="z2-4-(1;3;2)"),
        pytest.param("f2t", 4, [[0, 1], [1, 1]], id="f2t-4-(1;1;1)"),
        pytest.param("eis2", 4, [[0, 3], [1, 2]], id="eis2-4-(1;3;2)"),
    ],
)
def test_phi_set_even_level_matches_the_restriction_filter(kind, r, rows, groups):
    # the even stack is split from the residue classes of C_GL2(psi_A), without
    # its table; rows=None runs every A, a given companion matrix one orbit
    G = groups(kind, r)
    lp = clifford._layers(G).spec_lp
    if rows is None:
        As = [mat.mat_from_codes(lp, 0, a, 1, b) for a in range(lp.size) for b in range(lp.size)]
    else:
        As = [mat.mat(lp, rows)]
    for A in As:
        got, ref = _restriction_filter(clifford.make_psiA(G, A))
        assert np.all(got.degree == 1)
        assert got == ref


def test_phi_set_even_level_relation_check_names_the_orbit(groups, monkeypatch):
    # one eigenvector replaced by the product of two: phi_1 phi_2 extends
    # psi_A^2, not psi_A, though its entries are still roots of unity
    real = chartab._split_round

    def corrupt(subspaces, M, p, where):
        out = real(subspaces, M, p, where)
        if all(S.shape[1] == 1 for S in out):
            out[1] = out[1] * out[2] % p
        return out

    monkeypatch.setattr(chartab, "_split_round", corrupt)
    pa = _psi(groups("z2", 4), [[0, 3], [1, 2]])
    relation = r"chi\(s\) chi\(t\) != zeta_e\^a chi\(st\): character \d+ is not multiplicative"
    with pytest.raises(AssertionError, match=rf"{relation} \(z2, r=4, orbit \(1;3;2\)\)$"):
        clifford.phi_set(pa)


def test_phi_set_odd_level_at_r5(z2r5):
    # orbit (1;2;2): |C_GL2(psi_A)| = 32768 with 1472 classes, |D_A| = 2.  r = 5 is
    # below z2's stable range r >= 6, and the norm law does not hold on every
    # orbit: on (1;0;0) some Res_SL2 Ind phi have norm 4 against |D_A| = 2.
    G = z2r5
    L = clifford._layers(G)
    pa = clifford.make_psiA(G, mat.mat_from_codes(L.spec_lp, 0, 2, 1, 2))
    I = clifford.inertia(pa)
    phis = clifford.phi_set(pa)
    assert len(phis) == 32 and np.all(phis.degree == 2)
    q_sum = chartab.ClassFunction(I.c_gl, phis.n, 2 * phis.vals.sum(axis=0))
    assert q_sum == chartab.induce(pa.psi_M, I.c_gl)
    res = chartab.restrict(chartab.induce(phis, G), L.sl)
    assert len(I.dA_reps) == 2 and np.all(chartab.inner(res, res) == 2)


def test_mackey_pieces_sum_to_the_restriction(groups, chartabs):
    for kind, r, rows in [
        ("z2", 2, [[0, 0], [1, 0]]),
        ("z2", 2, [[0, 1], [1, 1]]),
        ("f2t", 2, [[0, 1], [1, 0]]),
        ("z2", 3, [[0, 0], [1, 0]]),
    ]:
        G = groups(kind, r)
        pa = _psi(G, rows)
        L = pa.layers
        for phi in clifford.phi_set(pa)[:2]:
            mr = clifford.mackey_restriction(pa, phi)
            lhs = chartab.restrict(chartab.induce(phi, L.gl), L.sl)
            total = None
            for _, cf in mr:
                total = cf if total is None else total + cf
            assert total == lhs
            dims = {cf.degree for _, cf in mr}
            assert len(dims) == 1  # all summands share one dimension
            sl_tab = chartabs(L.sl)
            for _, cf in mr:
                dec = chartab.decompose(cf, sl_tab)
                assert dec.any() and dec.min() >= 0


def test_mackey_restriction_of_a_stack_is_member_by_member(groups):
    pa = _psi(groups("z2", 3), [[0, 0], [1, 0]])
    phis = clifford.phi_set(pa)
    stacked = clifford.mackey_restriction(pa, phis)
    for k, phi in enumerate(phis):
        single = clifford.mackey_restriction(pa, phi)
        assert [d for d, _ in single] == [d for d, _ in stacked]
        assert all(cf == st[k] for (_, cf), (_, st) in zip(single, stacked))
    # one reducible member fails the whole stack
    mixed = chartab.ClassFunction(phis.group, phis.n, np.stack([phis.vals[0], phis.vals[0] + phis.vals[1]]))
    with pytest.raises(AssertionError, match="not irreducible"):
        clifford.mackey_restriction(pa, mixed)


def _literal_twist(pa, d, phi):
    """The twist built literally through conj_perm over GL2: the SL2 class of
    t_d^-1 x t_d per SL2 class rep x, and Ind phi^d from the subgroup
    C_SL2(psi_{A_d}) = t_d C_SL2(psi_A) t_d^-1 with its own classes."""
    L = pa.layers
    gl, sl, C = L.gl, L.sl, clifford.inertia(pa).c_gl
    td = gl.pos_of_matrix(mat.Mat2(L.spec, d.code, 0, 0, 1))
    back = gl.conj_perm(int(gl.inv[td]))  # x -> t_d^-1 x t_d
    cc = grp.conjugacy_classes(sl)
    perm = cc.class_id[sl.pos_of_codes(mat._vpack(L.spec, gl.entries(back[sl.pos_in(gl)[cc.reps]])))]
    mask = np.zeros(gl.n, dtype=bool)
    mask[gl.conj_perm(td)[C.pos_in(gl)]] = True
    c_sl_d = grp.subgroup(sl, mask[sl.pos_in(gl)], name="C_SL2(psi_A_d)")
    reps_d = c_sl_d.pos_in(gl)[grp.conjugacy_classes(c_sl_d).reps]
    back_C = C.pos_of_codes(mat._vpack(L.spec, gl.entries(back[reps_d])))
    assert np.all(back_C >= 0)
    phid = chartab.ClassFunction(c_sl_d, phi.n, np.take(phi.vals, phi.classes.class_id[back_C], axis=-2))
    return perm, chartab.induce(phid, sl)


@pytest.mark.parametrize("kind,r", [("z2", 3), ("z2", 4), ("f2t", 3), ("f2t", 4)])
def test_twists_match_the_literal_conjugation(kind, r, groups):
    # each summand is one induced character read through perm_d; the literal
    # route builds each twisted subgroup and its phi^d instead
    G = groups(kind, r)
    dAs = []
    for A in _companions(clifford._layers(G).spec_lp):
        pa = clifford.make_psiA(G, A)
        phis = clifford.phi_set(pa)
        summands = clifford.mackey_restriction(pa, phis)
        assert [d for d, _ in pa.twists] == [d for d, _ in summands] == clifford.inertia(pa).dA_reps
        for (d, perm), (_, cf) in zip(pa.twists, summands):
            ref_perm, ref_ind = _literal_twist(pa, d, phis)
            assert np.array_equal(perm, ref_perm)
            assert cf == ref_ind
        dAs.append(len(pa.twists))
    assert max(dAs) == (2 if r == 4 else 1)  # r = 4 reaches a twist by d != 1


def test_twist_check_names_the_orbit_when_the_conjugated_inertia_group_differs(groups, monkeypatch):
    # at z2 r <= 4 the check cannot fail on its own (A_d = d A over o_l'), so
    # make_psiA is swapped, after inertia, for another orbit's psi
    G = groups("z2", 4)
    pa = _psi(G, [[0, 0], [1, 0]])
    clifford.inertia(pa)
    other = _psi(G, [[0, 3], [1, 2]])
    monkeypatch.setattr(clifford, "make_psiA", lambda gl, A: other)
    with pytest.raises(AssertionError, match=r"conjugated inertia group differs .*\(z2, r=4, orbit \(1;0;0\), d=1\)$"):
        pa.twists


def test_mackey_rejects_foreign_phi(groups):
    G = groups("z2", 2)
    pa = _psi(G, [[0, 0], [1, 0]])
    pa2 = _psi(G, [[0, 1], [1, 1]])
    phi2 = clifford.phi_set(pa2)[0]
    with pytest.raises(ValueError):
        clifford.mackey_restriction(pa, phi2)
