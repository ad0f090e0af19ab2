"""Group enumeration, subgroups, conjugacy classes, cosets."""

import tracemalloc

import numpy as np
import pytest

from branchlab import clifford, grp, mat, ring


def _gl(kind, r):
    return grp.build_gl2(ring.make_ring(kind, r=r))


def test_orders_match_closed_forms():
    for kind, r, g, s in [
        ("z2", 1, 6, 6),
        ("z2", 2, 96, 48),
        ("z2", 3, 1536, 384),
        ("z2", 4, 24576, 3072),
        ("f2t", 2, 96, 48),
        ("f2t", 3, 1536, 384),
        ("f2t", 4, 24576, 3072),
        ("f4t", 1, 180, 60),
        ("eis2", 2, 96, 48),
        ("eis2", 3, 1536, 384),
    ]:
        spec = ring.make_ring(kind, r=r)
        assert grp.gl2_order(spec) == g
        assert grp.sl2_order(spec) == s
        G = grp.build_gl2(spec)
        assert G.n == g
        assert grp.sl2_subgroup(G).n == s
        assert grp.build_sl2(spec).n == s


def test_group_axioms_exhaustive_small():
    for G in (_gl("z2", 1), grp.build_sl2(ring.make_ring("f2t", r=2))):
        idx = np.arange(G.n, dtype=np.int64)
        mul = G.mul(idx[:, None], idx[None, :])
        e = G.identity
        assert np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx)
        assert np.array_equal(mul[idx, G.inv[idx]], np.full(G.n, e))
        a3 = mul[mul[idx[:, None, None], idx[None, :, None]], idx[None, None, :]]
        b3 = mul[idx[:, None, None], mul[idx[None, :, None], idx[None, None, :]]]
        assert np.array_equal(a3, b3)
        # each row/column of the multiplication table is a permutation
        assert all(len(set(mul[i])) == G.n for i in range(G.n))


def test_matrix_position_round_trip():
    G = _gl("z2", 2)
    spec = G.spec
    for p in range(0, G.n, 11):
        M = G.matrix(p)
        assert G.pos_of_matrix(M) == p
        assert ring.is_unit(mat.det(M))
    with pytest.raises(ValueError):
        G.pos_of_matrix(mat.mat(spec, [[2, 0], [0, 1]]))  # det not a unit
    S = grp.sl2_subgroup(G)
    with pytest.raises(ValueError):
        S.pos_of_matrix(mat.mat(spec, [[3, 0], [0, 1]]))  # in GL2, det != 1


def test_mul_matches_matrix_product():
    G = _gl("f2t", 2)
    for a in range(0, G.n, 17):
        for b in range(0, G.n, 13):
            got = G.matrix(int(G.mul(np.int64(a), np.int64(b))))
            assert got == mat.mat_mul(G.matrix(a), G.matrix(b))


def test_dets_traces_class_orders():
    G = _gl("z2", 2)
    cc = grp.conjugacy_classes(G)
    orders = np.zeros(G.n, dtype=np.int64)
    for p in range(G.n):
        M = G.matrix(p)
        assert G.dets[p] == mat.det(M).code
        # brute element order
        k, acc = 1, p
        while acc != G.identity:
            acc = int(G.mul(np.int64(acc), np.int64(p)))
            k += 1
        orders[p] = k
    assert np.array_equal(cc.orders, orders[cc.reps])
    assert cc.exponent == int(np.lcm.reduce(orders))
    # row s of the power-class matrix holds the class of every rep^s
    P = cc.power_classes
    assert len(P) == orders.max() + 1
    for j, rep in enumerate(cc.reps):
        acc = G.identity
        for s in range(len(P)):
            assert P[s, j] == cc.class_id[acc]
            acc = int(G.mul(np.int64(acc), np.int64(rep)))


def test_conjugacy_classes_are_built_once_per_table():
    G = _gl("z2", 1)
    assert grp.conjugacy_classes(G) is grp.conjugacy_classes(G) is G.cache["classes"]


def test_congruence_subgroups():
    for kind in ("z2", "f2t"):
        for r in (2, 3):
            spec = ring.make_ring(kind, r=r)
            G = grp.build_gl2(spec)
            S = grp.sl2_subgroup(G)
            q = spec.q
            for i in range(1, r):
                M = grp.congruence_subgroup(G, i)
                K = grp.congruence_subgroup(S, i)
                assert M.n == q ** (4 * (r - i))
                assert K.n == q ** (3 * (r - i))
                # members reduce to the identity mod pi^i
                sub = ring.truncate(spec, i)
                for p in M.root_pos[:: max(1, M.n // 5)]:
                    assert mat.mat_proj(G.matrix(int(p)), sub) == mat.identity(sub)
                # normal in the parent: conjugation permutes the member set
                members = set(M.root_pos.tolist())
                g = int(np.random.default_rng(3).integers(G.n))
                gi = int(G.inv[g])
                for p in list(members)[:: max(1, M.n // 5)]:
                    c = int(G.mul(np.int64(g), G.mul(np.int64(p), np.int64(gi))))
                    assert c in members


def test_sl2_subgroup_dets():
    G = _gl("z2", 3)
    S = grp.sl2_subgroup(G)
    assert np.all(G.dets[S.root_pos] == 1)
    assert S.n * ring.unit_count(G.spec) == G.n


def test_conjugacy_classes():
    for G in (_gl("z2", 1), _gl("z2", 2), grp.build_sl2(ring.make_ring("z2", r=2))):
        cc = grp.ConjClasses(G)
        assert int(cc.sizes.sum()) == G.n
        assert np.array_equal(cc.class_id[cc.reps], np.arange(cc.k))
        assert all(G.n % int(s) == 0 for s in cc.sizes)  # orbit sizes divide the order
        # inverse_class and power maps agree with direct computation
        for c in range(cc.k):
            rep = int(cc.reps[c])
            assert cc.class_id[G.inv[rep]] == cc.inverse_class[c]
        # class of identity is a singleton
        cid = int(cc.class_id[G.identity])
        assert cc.sizes[cid] == 1
        # brute orbit check on a few classes
        for c in range(0, cc.k, 3):
            rep = int(cc.reps[c])
            orbit = {int(G.mul(G.mul(g, np.int64(rep)), G.inv[g])) for g in range(G.n)}
            assert orbit == set(np.flatnonzero(cc.class_id == c).tolist())


def test_class_counts_frozen():
    assert grp.ConjClasses(_gl("z2", 1)).k == 3  # S3
    assert grp.ConjClasses(_gl("z2", 2)).k == 14
    assert grp.ConjClasses(grp.build_sl2(ring.make_ring("z2", r=2))).k == 10
    assert grp.ConjClasses(_gl("f2t", 2)).k == 14
    assert grp.ConjClasses(grp.build_sl2(ring.make_ring("f2t", r=2))).k == 10


def test_centralizer_orbit_identity():
    G = _gl("z2", 2)
    cc = grp.ConjClasses(G)
    for c in range(cc.k):
        rep = int(cc.reps[c])
        cent = sum(
            1
            for g in range(G.n)
            if int(G.mul(np.int64(g), np.int64(rep))) == int(G.mul(np.int64(rep), np.int64(g)))
        )
        assert cent * int(cc.sizes[c]) == G.n


@pytest.mark.parametrize("kind,r", [("z2", 3), ("f4t", 2)])
def test_incremental_generators_match_a_from_scratch_greedy(kind, r, built_tables, greedy_reference):
    G = _gl(kind, r)  # a fresh table, so inertia builds every subgroup below
    lp = ring.truncate(G.spec, G.spec.ell_prime)
    triples = sorted({mat.companion_form(A).triple for A in mat.all_cyclic_matrices(lp)})
    for a, alpha, beta in triples:
        top = ring.mul(ring.inv(ring.elem(lp, a)), ring.elem(lp, alpha))
        clifford.inertia(clifford.make_psiA(G, mat.mat_from_codes(lp, 0, top.code, a, beta)))
    # C_GL2(psi_A), C_SL2(psi_A), C_SL2(psi_[A]) per orbit, each the preimage of a
    # residue subgroup; the preimages' generators are read here for the first time
    res_root = clifford._layers(G).res_root
    pre = [H for H in built_tables if H.root is G and H.name.startswith("C_")]
    assert len(pre) == 3 * len(triples) and not any("gens" in vars(H) for H in pre)
    assert len([H for H in built_tables if H.root is res_root and H is not res_root]) == 3 * len(triples)
    for H in built_tables:
        assert H.gens == greedy_reference(H), H


def test_subgroup_of_a_non_closed_set_raises():
    G = _gl("z2", 2)
    g = G.pos_of_matrix(mat.mat(G.spec, [[1, 1], [0, 1]]))  # order 4
    members = [G.identity, g, int(G.inv[g])]  # closed under inverses, not under products
    with pytest.raises(ValueError, match="left the element set"):
        grp.subgroup(G, members)
    with pytest.raises(ValueError, match="lacks the identity"):
        grp.subgroup(G, [g])


def test_budget_errors():
    with pytest.raises(grp.BudgetError):
        grp.build_gl2(ring.make_ring("z2", r=9))
    with pytest.raises(grp.BudgetError):
        grp.build_gl2(ring.make_ring("z2", r=2), budget=10)


def test_pos_in_ancestor():
    G = _gl("z2", 2)
    S = grp.sl2_subgroup(G)
    K = grp.congruence_subgroup(S, 1)
    up = K.pos_in(G)
    for i in range(K.n):
        assert G.matrix(int(up[i])) == K.matrix(i)


def test_subgroup_lookup_marks_non_members():
    G = _gl("z2", 2)
    S = grp.sl2_subgroup(G)
    zero = mat._vpack(G.spec, (0, 0, 0, 0))  # not in GL2 at all
    outside = G.pos_of_matrix(mat.mat(G.spec, [[3, 0], [0, 1]]))  # in GL2, det != 1
    codes = mat._vpack(G.spec, G.entries(np.array([outside])))
    assert S.pos_of_codes(zero) == -1
    assert S.pos_of_codes(codes)[0] == -1
    inside = S.pos_of_codes(mat._vpack(G.spec, S.ms))
    assert np.array_equal(inside, np.arange(S.n))


def test_pos_in_between_siblings():
    G = _gl("z2", 3)
    M1 = grp.congruence_subgroup(G, 1)
    K1 = grp.congruence_subgroup(grp.sl2_subgroup(G), 1)
    into = K1.pos_in(M1)
    assert len(set(into.tolist())) == K1.n
    for i in range(K1.n):
        assert M1.matrix(int(into[i])) == K1.matrix(i)


def test_pos_in_rejects_non_subgroups():
    G = _gl("z2", 2)
    S = grp.sl2_subgroup(G)
    M1 = grp.congruence_subgroup(G, 1)
    with pytest.raises(ValueError, match="not contained"):
        M1.pos_in(S)  # M^1 holds elements of determinant != 1
    with pytest.raises(ValueError, match="different root"):
        grp.build_sl2(G.spec).pos_in(S)


def test_only_the_root_keeps_a_code_index():
    G = _gl("z2", 4)
    index_bytes = 4 * G.spec.size**4
    M3 = grp.congruence_subgroup(G, 3)  # 16 elements
    tracemalloc.start()
    try:
        sub = grp.subgroup(G, M3.root_pos, name="small")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sub.n == 16
    assert peak < index_bytes // 2


def test_perm_actions():
    G = grp.build_sl2(ring.make_ring("f2t", r=2))
    g = 7
    conj = G.conj_perm(g)
    for x in range(0, G.n, 5):
        assert conj[x] == int(G.mul(G.mul(np.int64(g), np.int64(x)), G.inv[g]))
