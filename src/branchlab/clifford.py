"""Inertia machinery for restricting GL2 irreducibles to SL2.

The congruence subgroup M^ell of GL2(o_r) (ell = ceil(r/2)) is abelian, and
its linear characters are exactly

    psi_A(I + pi^ell B) = psi(pi^ell trace(A~ B)),   A in M_2(o_ell'),

for a fixed coordinate lift A~ of A.  Over a full GL2 table, this module
builds psi_A and its restriction psi_[A] to K^ell = M^ell cap SL2, the
unipotent h/H layers, and the inertia data of psi_A: C_GL2(psi_A),
C_SL2(psi_A), C_SL2(psi_[A]), the coset space D_A = o_r^x / det C_GL2(psi_A)
and that determinant image.  It also gives the fiber Irr(C_GL2(psi_A) | psi_A)
(at even r, the linear characters of C_GL2(psi_A)/ker psi_A extending psi_A)
and the coset-twisted decomposition

    Res_SL2 Ind(phi) = sum over d in D_A of Ind_{C_SL2(psi_{A_d})}(phi^d).

With t_d = diag(d, 1), which normalizes SL2, each summand is the one induced
character Ind_{C_SL2(psi_A)} Res phi read at t_d^-1 x t_d, so a coset costs a
permutation of the SL2 classes, not a subgroup.

Every identity with two independent computation paths (stabilizer scan vs
product formula, coset counts vs centralizer determinant images, the
stabilizer of psi_{A_d} vs the t_d-conjugate of C_GL2(psi_A)) is computed
both ways; the cross-check failures raise, and are part of the contract.
The product formula is C_GL2(psi_A) = C_GL2(A~) M^ell', and C_GL2(A~) is the
unit group of o_r[A~] from mat.centralizer, not a search over GL2.

What lives where.  Work that does not depend on A (the layers, generator
conjugates, residues mod pi^ell', whose classes are the cosets of M^ell') is
done once per GL2 table on _Layers, clifford's one entry in the table's cache;
each orbit only gathers from it, every route from its own data, so the routes
stay independent.  What depends on A (each inertia result, the Mackey twists)
is a cached property of the fresh PsiA from make_psiA, built and checked when
first read; inertia(psiA) reads them all.  Its subgroups are held by the PsiA
alone and cache nothing that points back at them, so reference counting frees
them with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

import numpy as np

from . import chartab, grp, mat, ring
from .chartab import ClassFunction
from .grp import GroupTable
from .mat import Mat2
from .ring import RingElem, RingSpec


# ------------------------------------------------------------------ layers


@dataclass(eq=False)
class _Layers:
    """Congruence layers shared by every psi_A over one GL2 table.

    Every layer is cut from the same root table as gl/sl, so positions move
    between them with GroupTable.pos_in.  The cached properties are the
    A-independent halves of inertia's routes.  M^ell' is the kernel of
    reduction mod pi^ell', so its left cosets are the residue classes that
    residues indexes; it needs no table of its own.  Nor is there a table of
    every psi_A: each is built per orbit by make_psiA.
    """

    spec: RingSpec
    spec_lp: RingSpec
    ell: int
    ellp: int
    gl: GroupTable
    sl: GroupTable
    Ml: GroupTable
    Kl: GroupTable
    B_M: tuple  # (m - I)/pi^ell entrywise, per M^ell position
    pi_ell_code: int

    @cached_property
    def conj_M(self) -> np.ndarray:
        return _conjugate_positions(self.gl, self.Ml)

    @cached_property
    def conj_K(self) -> np.ndarray:
        return _conjugate_positions(self.sl, self.Kl)

    @cached_property
    def residues(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct packed gl entries mod pi^ell', int32 index of every gl position into them)."""
        lp = self.spec_lp
        packed = mat._vpack(lp, tuple(ring._vproj(self.spec, lp, t) for t in self.gl.ms))
        codes, index = np.unique(packed, return_inverse=True)
        return codes, index.astype(np.int32)


def _b_arrays(spec: RingSpec, table: GroupTable, ell: int) -> tuple:
    m11, m12, m21, m22 = table.ms
    one = np.int64(1)
    d11 = ring._vadd(spec, m11, ring._vneg(spec, one))
    d22 = ring._vadd(spec, m22, ring._vneg(spec, one))
    return tuple(ring.div_pi_power(spec, t, ell) for t in (d11, m12, m21, d22))


def _layers(G: GroupTable) -> _Layers:
    if "clifford_layers" in G.cache:
        return G.cache["clifford_layers"]
    spec = G.spec
    if spec.r < 2:
        raise ValueError("psi_A machinery needs level r >= 2")
    if G.n != grp.gl2_order(spec):
        raise ValueError("G must be a full GL2 table")
    ell, ellp = spec.ell, spec.ell_prime
    sl = grp.sl2_subgroup(G)
    Ml = grp.congruence_subgroup(G, ell)
    Kl = grp.congruence_subgroup(sl, ell)
    pe = ring.one(spec)
    for _ in range(ell):
        pe = ring.mul(pe, ring.uniformizer(spec))
    out = _Layers(spec, ring.truncate(spec, ellp), ell, ellp, G, sl, Ml, Kl, _b_arrays(spec, Ml, ell), pe.code)
    G.cache["clifford_layers"] = out
    return out


# ------------------------------------------------------------------ psi_A


@dataclass(eq=False)
class PsiA:
    """psi_A on M^ell together with its restriction psi_[A] to K^ell.

    exps_M holds the zeta_n exponent of the character value at every member
    position of M^ell, exps_K its gather at K^ell (a subgroup of M^ell).  The
    cached properties are this orbit's data; they live and die with this
    object, never on the group table.
    """

    layers: _Layers
    A: Mat2
    Atilde: Mat2
    n: int
    exps_M: np.ndarray = field(repr=False)

    @cached_property
    def exps_K(self) -> np.ndarray:
        return self.exps_M[self.layers.Kl.pos_in(self.layers.Ml)]

    @cached_property
    def psi_M(self) -> ClassFunction:
        """psi_A as an exact class function on M^ell (classes are singletons)."""
        Ml = self.layers.Ml
        return chartab.class_function_from_exponents(Ml, self.n, self.exps_M[grp.conjugacy_classes(Ml).reps])

    @cached_property
    def psi_K(self) -> ClassFunction:
        """psi_[A], the restriction to K^ell."""
        Kl = self.layers.Kl
        return chartab.class_function_from_exponents(Kl, self.n, self.exps_K[grp.conjugacy_classes(Kl).reps])

    @cached_property
    def stabilizer_mask_gl(self) -> np.ndarray:
        """g in GL2 with psi_A(g^-1 m g) = psi_A(m) on M^ell (_stabilizer_mask)."""
        return _stabilizer_mask(self.layers.conj_M, self.layers.Ml, self.exps_M)

    @cached_property
    def c_gl_mask(self) -> np.ndarray:
        """C_GL2(psi_A) as a mask on gl: the stabilizer scan, checked against
        the product formula C_GL2(A~) M^ell' and the residue commutation.

        C_GL2(A~), the units of o_r[A~] (mat.centralizer), is looked up in gl.
        C_GL2(A~) M^ell' is the union of the residue classes it meets, of order
        |C_GL2(A~)| q^(2 ell): C_GL2(A~) cap M^ell' is x = 1, y = 0 mod pi^ell'."""
        _require_companion(self.A)
        L = self.layers
        spec, lp, gl = L.spec, L.spec_lp, L.gl
        stab = self.stabilizer_mask_gl
        cent_lift = gl.pos_of_codes(mat._vpack(spec, mat.centralizer(self.Atilde)))
        codes, index = L.residues
        hit = np.zeros(len(codes), dtype=bool)
        hit[index[cent_lift]] = True
        if not np.array_equal(stab, hit[index]) or np.count_nonzero(stab) != len(cent_lift) * spec.q ** (2 * L.ell):
            raise AssertionError(f"C_GL2(psi_A): stabilizer scan and product formula disagree ({_where(self)})")
        resid = _commute_mask(lp, mat._vunpack(lp, codes), self.A.codes)[index]
        if not np.array_equal(stab, resid):
            raise AssertionError(f"C_GL2(psi_A): stabilizer scan and residue commutation disagree ({_where(self)})")
        return stab

    @cached_property
    def c_gl(self) -> GroupTable:
        """C_GL2(psi_A), a subgroup of GL2."""
        return grp.subgroup(self.layers.gl, self.c_gl_mask, name="C_GL2(psi_A)")

    @cached_property
    def c_sl(self) -> GroupTable:
        """C_SL2(psi_A) = C_GL2(psi_A) cap SL2."""
        L = self.layers
        return grp.subgroup(L.sl, self.c_gl_mask[L.sl.pos_in(L.gl)], name="C_SL2(psi_A)")

    @cached_property
    def c_sl_bracket(self) -> GroupTable:
        """C_SL2(psi_[A]): the stabilizer scan over K^ell, checked against the
        scalar test and the product formula C_SL2(psi_A) H^ell'."""
        L = self.layers
        sl = L.sl
        bstab = _stabilizer_mask(L.conj_K, L.Kl, self.exps_K)
        if not np.array_equal(bstab, _scalar_conj_mask_sl(L, self.A)):
            raise AssertionError(f"C_SL2(psi_[A]): stabilizer scan and scalar test disagree ({_where(self)})")
        bprod = _product_mask(sl, self.c_sl.pos_in(sl), H_group(self, L.ellp).pos_in(sl))
        if not np.array_equal(bstab, bprod):
            raise AssertionError(f"C_SL2(psi_[A]): stabilizer scan and H-product formula disagree ({_where(self)})")
        return grp.subgroup(sl, bstab, name="C_SL2(psi_[A])")

    @cached_property
    def det_image(self) -> np.ndarray:
        """Sorted codes of det C_GL2(psi_A)."""
        return np.unique(self.layers.gl.dets[self.c_gl_mask])

    @cached_property
    def dA_reps(self) -> list[RingElem]:
        """D_A = o_r^x / det C_GL2(psi_A): the smallest-code unit per coset, by
        explicit coset enumeration, checked against three counts."""
        L, det_image = self.layers, self.det_image
        spec = L.spec
        units = ring.unit_codes(spec)
        coset_label = ring._vmul(spec, units[:, None], det_image[None, :]).min(axis=1)
        rep_codes = np.unique(coset_label)
        if len(rep_codes) * len(det_image) != len(units):
            raise AssertionError(f"determinant cosets do not partition the units evenly ({_where(self)})")
        _csize, dsize = mat.centralizer_units(self.A)
        if len(det_image) != dsize * spec.q**L.ell:
            raise AssertionError(f"|det C_GL2(psi_A)| = {len(det_image)} != {dsize} * q^{L.ell} ({_where(self)})")
        low_units = ring.unit_count(L.spec_lp)
        if low_units % dsize or len(rep_codes) != low_units // dsize:
            raise AssertionError(
                f"|D_A| = {len(rep_codes)} does not match (q-1)q^(l'-1)/|det C(A)| = {low_units}/{dsize} "
                f"({_where(self)})"
            )
        if ring.val(mat.trace(self.A)) == 0 and len(rep_codes) != 1:
            raise AssertionError(f"unit trace must give |D_A| = 1, got {len(rep_codes)} ({_where(self)})")
        return [RingElem(spec, int(c)) for c in rep_codes]

    @cached_property
    def twists(self) -> list[tuple]:
        """Per d in D_A: (d, perm_d), mackey_restriction's phi-independent half.

        With t_d = diag(d, 1), perm_d[j] is the SL2 class of t_d^-1 x_j t_d for
        the rep x_j of SL2 class j.  Conjugation by t_d normalizes SL2 and
        carries C_GL2(psi_A) onto the stabilizer of psi_{A_d}, A_d = t_d A t_d^-1;
        that second fact is checked here for every d against make_psiA(A_d)'s
        own stabilizer scan, so Ind_{C_SL2(psi_{A_d})} phi^d is the untwisted
        Ind_{C_SL2(psi_A)} Res phi read through perm_d.
        """
        L = self.layers
        spec, gl, sl = L.spec, L.gl, L.sl
        cc = grp.conjugacy_classes(sl)
        reps = sl.entries(cc.reps)
        out = []
        for d in self.dA_reps:
            dc = np.int64(d.code)
            mask = np.zeros(gl.n, dtype=bool)
            mask[gl.pos_of_codes(mat._vpack(spec, mat._vconj_diag(spec, self.c_gl.ms, dc)))] = True
            A_d = mat.conjugate_by_diag(self.A, d)
            if not np.array_equal(mask, make_psiA(gl, A_d).stabilizer_mask_gl):
                raise AssertionError(
                    f"conjugated inertia group differs from the stabilizer of psi_{{A_d}} ({_where(self, d)})"
                )
            pos = sl.pos_of_codes(mat._vpack(spec, mat._vconj_diag(spec, reps, ring._vinv(spec, dc))))
            if np.any(pos < 0):
                raise AssertionError(f"conjugate of an SL2 class rep left SL2 ({_where(self, d)})")
            out.append((d, cc.class_id[pos]))
        return out

    def __repr__(self):
        return f"<psi_A for A={mat.encode_mat(self.A)} at level r={self.layers.spec.r}>"


def _psi_exps(L: _Layers, At: tuple, B: tuple) -> np.ndarray:
    """zeta_n exponents of psi(pi^ell trace(At B)) for broadcastable entry arrays."""
    spec = L.spec
    a11, a12, a21, a22 = At
    b11, b12, b21, b22 = B
    m, ad = ring._vmul, ring._vadd
    tr = ad(
        spec,
        ad(spec, m(spec, a11, b11), m(spec, a12, b21)),
        ad(spec, m(spec, a21, b12), m(spec, a22, b22)),
    )
    arg = ring._vmul(spec, np.int64(L.pi_ell_code), tr)
    return np.asarray(ring.psi_exponent(spec, arg), dtype=np.int64)


def make_psiA(G: GroupTable, A: Mat2) -> PsiA:
    """A fresh PsiA: the character psi_A of M^ell of the GL2 table G.

    A must live over o_ell'; A = 0 gives the trivial character, and distinct
    A give distinct characters.  Nothing is cached on G: the caller owns it.
    """
    L = _layers(G)
    if A.spec != L.spec_lp:
        raise ValueError(f"A must be over the level-{L.ellp} quotient ring, got level {A.spec.r}")
    Atilde = mat.mat_lift(L.spec, A)
    return PsiA(L, A, Atilde, ring.psi_order(L.spec), _psi_exps(L, mat._as_vec(Atilde), L.B_M))


def _require_companion(A: Mat2):
    if A.m11 != 0 or ring._vval(A.spec, np.int64(A.m21)) != 0:
        raise ValueError(f"non-companion A: {mat.encode_mat(A)}")


def _where(psiA: PsiA, d: RingElem | None = None) -> str:
    """Failure context: kind, level, A's orbit as its companion triple
    (a;alpha;beta), and d in D_A when there is one."""
    spec = psiA.layers.spec
    out = f"{spec.short_name}, r={spec.r}, orbit {mat.companion_form(psiA.A).text}"
    return out if d is None else f"{out}, d={ring.encode_elem(d)}"


# ------------------------------------------------------------------ h / H layers


def h_set(psiA: PsiA, i: int) -> list[RingElem]:
    """h^i = {x in o_r : 2x = 0 mod pi^i and x(x + beta~) = 0 mod pi^i}.

    beta~ is the lifted trace entry of the companion matrix; ascending codes.
    """
    _require_companion(psiA.A)
    L = psiA.layers
    spec = L.spec
    if not 0 <= i <= spec.r:
        raise ValueError(f"congruence level {i} not in [0, {spec.r}]")
    beta = np.int64(psiA.Atilde.m22)
    x = np.arange(spec.size, dtype=np.int64)
    two = np.int64(ring.from_integer(spec, 2).code)
    c1 = ring._vval(spec, ring._vmul(spec, two, x)) >= i
    c2 = ring._vval(spec, ring._vmul(spec, x, ring._vadd(spec, x, beta))) >= i
    return [RingElem(spec, int(c)) for c in x[c1 & c2]]


def H_group(psiA: PsiA, i: int) -> GroupTable:
    """H^i = {e_x = [[1, a~^-1 x],[0,1]] : x in h^i} as a subgroup of SL2."""
    L = psiA.layers
    spec = L.spec
    hs = h_set(psiA, i)
    ainv = np.int64(ring.inv(RingElem(spec, psiA.Atilde.m21)).code)
    tops = ring._vmul(spec, ainv, np.array([h.code for h in hs], dtype=np.int64))
    zero, one = np.zeros(len(hs), dtype=np.int64), np.ones(len(hs), dtype=np.int64)
    pos = L.sl.pos_of_codes(mat._vpack(spec, (one, tops, zero, one)))
    if np.any(pos < 0):
        raise AssertionError(f"unipotent element missing from SL2 table ({_where(psiA)})")
    sub = grp.subgroup(L.sl, np.sort(pos), name=f"H^{i}")
    if not grp.is_abelian(sub):
        raise AssertionError(f"H^{i} is not abelian ({_where(psiA)})")
    return sub


# ------------------------------------------------------------------ masks


def _commute_mask(spec: RingSpec, X: tuple, codes4: tuple) -> np.ndarray:
    """Positions whose entries (4 parallel arrays) commute with the fixed matrix."""
    a, b, c, d = (np.int64(t) for t in codes4)
    x11, x12, x21, x22 = X
    m, ad, ng = ring._vmul, ring._vadd, ring._vneg
    # entries of X*A - A*X (the diagonal x11*a-style terms cancel)
    e11 = ad(spec, m(spec, x12, c), ng(spec, m(spec, b, x21)))
    e12 = ad(
        spec,
        ad(spec, m(spec, x11, b), m(spec, x12, d)),
        ng(spec, ad(spec, m(spec, a, x12), m(spec, b, x22))),
    )
    e21 = ad(
        spec,
        ad(spec, m(spec, x21, a), m(spec, x22, c)),
        ng(spec, ad(spec, m(spec, c, x11), m(spec, d, x21))),
    )
    e22 = ad(spec, m(spec, x21, b), ng(spec, m(spec, c, x12)))
    return (e11 == 0) & (e12 == 0) & (e21 == 0) & (e22 == 0)


# products per GroupTable.mul call in _product_mask; bounds its working set
_PRODUCT_CHUNK = 1 << 18


def _product_mask(G: GroupTable, pos_a, pos_b) -> np.ndarray:
    """Membership mask of the product set {a*b : a in pos_a, b in pos_b}."""
    pa = np.asarray(pos_a, dtype=np.int64)
    pb = np.asarray(pos_b, dtype=np.int64)
    out = np.zeros(G.n, dtype=bool)
    rows = max(1, _PRODUCT_CHUNK // max(1, len(pb)))
    for s in range(0, len(pa), rows):
        out[G.mul(pa[s : s + rows, None], pb[None, :])] = True
    return out


def _conjugate_positions(G: GroupTable, N: GroupTable) -> np.ndarray:
    """[j, g] -> N-position of g^-1 n_j g for the generators n_j of N.

    Stored in the narrowest unsigned dtype; N must be normal in G, and a
    conjugate outside N raises.
    """
    spec = G.spec
    ginv = G.entries(G.inv)
    out = np.empty((len(N.gens), G.n), dtype=np.min_scalar_type(N.n - 1))
    for j, up in enumerate(N.pos_in(G)[N.gens]):
        t = mat._vmat_mul(spec, mat._vmat_mul(spec, ginv, G.entries(up)), G.ms)
        inside = N.pos_of_codes(mat._vpack(spec, t))
        if np.any(inside < 0):
            raise AssertionError(f"conjugate left {N.name}")
        out[j] = inside
    return out


def _stabilizer_mask(conj: np.ndarray, N: GroupTable, exps: np.ndarray) -> np.ndarray:
    """g with psi(g^-1 n g) = psi(n) on the generators n of N (conj from
    _conjugate_positions), psi linear on the abelian N with zeta exponents
    exps.  Conjugation by g is an automorphism of N and psi a homomorphism,
    so agreement on generators is agreement everywhere.
    """
    keep = np.ones(conj.shape[1], dtype=bool)
    for row, ngen in zip(conj, N.gens):
        keep &= exps[row] == exps[ngen]
    return keep


def _scalar_conj_mask_sl(L: _Layers, A: Mat2) -> np.ndarray:
    """g in SL2 with gamma(g)^-1 A gamma(g) - A scalar (the psi_[A] stabilizer test)."""
    lp = L.spec_lp
    sl = L.sl
    codes, index = L.residues
    up = sl.pos_in(L.gl)
    P = mat._vunpack(lp, codes[index[up]])
    Pi = mat._vunpack(lp, codes[index[up[sl.inv]]])
    Av = tuple(np.int64(c) for c in A.codes)
    D = mat._vmat_mul(lp, Pi, mat._vmat_mul(lp, Av, P))
    d11 = ring._vadd(lp, D[0], ring._vneg(lp, np.int64(A.m11)))
    d22 = ring._vadd(lp, D[3], ring._vneg(lp, np.int64(A.m22)))
    return (D[1] == A.m12) & (D[2] == A.m21) & (d11 == d22)


# ------------------------------------------------------------------ inertia


def inertia(psiA: PsiA) -> PsiA:
    """psiA, with every inertia result built and checked: c_gl, c_sl,
    c_sl_bracket, det_image and dA_reps.

    Each is a cached property that runs its own cross-checks when first read
    (a literal stabilizer scan against the residue-level commutation/scalar
    test and the unipotent product formula; D_A's coset enumeration against
    the determinant-image counts), so a caller that reads only dA_reps builds
    no subgroup.  Any disagreement raises.
    """
    psiA.c_gl, psiA.c_sl, psiA.c_sl_bracket, psiA.dA_reps
    return psiA


# ------------------------------------------------------------------ abelian quotients


@dataclass(eq=False)
class _AbelianQuotient:
    """Abelian H/N: labels, coset representatives, a multiple of its exponent."""

    H: GroupTable
    lab: np.ndarray  # H position -> quotient label
    reps: np.ndarray  # representative H position per label
    size: int
    exponent: int
    id_label: int

    def mul_label(self, i: int, j) -> np.ndarray:
        return self.lab[self.H.mul(int(self.reps[i]), self.reps[np.asarray(j, dtype=np.int64)])]


def _abelian_quotient(H: GroupTable, N: GroupTable) -> _AbelianQuotient:
    """H/N for a normal N, by the coset labels of N; nothing is cached on H.

    Raises unless every commutator of two generators of H lies in N, that is,
    unless H/N is abelian.  The exponent is H's own, a multiple of H/N's.
    """
    raw = grp.coset_labels(H, N)
    reps = np.unique(raw)
    lab = np.searchsorted(reps, raw).astype(np.int64)
    size = len(reps)
    assert size * N.n == H.n
    idl = int(lab[H.identity])
    g = np.array(H.gens, dtype=np.int64)
    comm = H.mul(H.mul(g[:, None], g[None, :]), H.mul(H.inv[g][:, None], H.inv[g][None, :]))
    if np.any(lab[comm] != idl):
        raise AssertionError(f"{H.name}/{N.name} is not abelian")
    return _AbelianQuotient(H, lab, reps, size, grp.conjugacy_classes(H).exponent, idl)


def _extend_all(Hq: _AbelianQuotient, base: np.ndarray) -> list[np.ndarray]:
    """All exponent labelings of the quotient extending a seeded partial character.

    base holds a mod-exponent value on the labels of a subgroup (and -1
    elsewhere).  Finite-abelian character theory makes every branch solvable;
    the count of leaves is the index of the seeded subgroup.
    """
    E = Hq.exponent
    out: list[np.ndarray] = []
    stack = [base]
    while stack:
        cur = stack.pop()
        missing = np.flatnonzero(cur < 0)
        if missing.size == 0:
            out.append(cur)
            continue
        q = int(missing[0])
        n, x = 1, q
        while cur[x] < 0:
            x = int(Hq.mul_label(x, q))
            n += 1
        t = int(cur[x])  # exponent already assigned to q^n
        g = gcd(n, E)
        if t % g:
            raise AssertionError("partial character admits no extension; seed is inconsistent")
        y0 = (t // g) * pow(n // g, -1, E // g) % (E // g)
        assigned = np.flatnonzero(cur >= 0)
        for j in range(g):
            y = (y0 + j * (E // g)) % E
            nxt = cur.copy()
            plab = q
            # assign the cosets q^s S for s = 1..n-1; q itself sits in q*S
            for s in range(1, n):
                rows = Hq.mul_label(plab, assigned)
                nxt[rows] = (s * y + cur[assigned]) % E
                plab = int(Hq.mul_label(plab, q))
            stack.append(nxt)
    return out


def _rescale_exponents(t: np.ndarray, N: int, E: int) -> np.ndarray:
    num = t * E
    if np.any(num % N):
        raise AssertionError("character values do not embed in the quotient exponent")
    return (num // N) % E


def _roots_agree(xe: np.ndarray, E: int, te: np.ndarray, N: int) -> bool:
    return bool(np.all((xe * N - te * E) % (N * E) == 0))


def _seed_base(Hq: _AbelianQuotient, labels: np.ndarray, exps: np.ndarray) -> np.ndarray:
    ulab, first_idx = np.unique(labels, return_index=True)
    per_label = exps[first_idx]
    spread = per_label[np.searchsorted(ulab, labels)]
    if np.any(spread != exps):
        raise AssertionError("character is not constant on the quotient's fibers")
    base = np.full(Hq.size, -1, dtype=np.int64)
    base[ulab] = per_label
    if base[Hq.id_label] not in (-1, 0):
        raise AssertionError("identity must map to 1")
    base[Hq.id_label] = 0
    return base


# ------------------------------------------------------------------ the phi layer


def phi_set(psiA: PsiA) -> ClassFunction:
    """Irr(C_GL2(psi_A) | psi_A) as one stack of class functions on C_GL2(psi_A).

    Even r: the linear characters of C_GL2(psi_A)/ker psi_A extending psi_A.
    Odd r: every member has degree q and Ind_{M^ell}^{C_GL2(psi_A)} psi_A =
    q sum phi, so chartab.fiber splits Ind psi_A as a Krylov block of the
    class-matrix space of C_GL2(psi_A), without its full character table;
    each member pairs with psi_A on M^ell exactly q times, and the stack is in
    the table's canonical row order.
    Dimensions (1 for even r, q for odd r) and the fiber size are verified
    on the whole stack.
    """
    L = psiA.layers
    C = psiA.c_gl
    q, r = L.spec.q, L.spec.r
    fiber = C.n // L.Ml.n
    if r % 2 == 0:
        # C/M^l is abelian, so [C, C] lies in M^l, and psi_A, which extends
        # to C, is trivial there: the members are characters of C/ker psi_A
        # (_abelian_quotient checks that this quotient is abelian)
        ml_in_C = L.Ml.pos_in(C)
        kernel = grp.subgroup(L.Ml, psiA.exps_M % psiA.n == 0, name="ker psi_A")
        try:
            Hq = _abelian_quotient(C, kernel)
            base = _seed_base(Hq, Hq.lab[ml_in_C], _rescale_exponents(psiA.exps_M, psiA.n, Hq.exponent))
            exts = np.array(_extend_all(Hq, base))
        except AssertionError as exc:
            raise AssertionError(f"{exc} ({_where(psiA)})") from exc
        if len(exts) != fiber:
            raise AssertionError(
                f"found {len(exts)} extensions of psi_A, expected [C:M^l] = {fiber} ({_where(psiA)})"
            )
        if not _roots_agree(exts[:, Hq.lab[ml_in_C]], Hq.exponent, psiA.exps_M, psiA.n):
            raise AssertionError(f"extension does not restrict to psi_A ({_where(psiA)})")
        reps = grp.conjugacy_classes(C).reps
        return chartab.class_function_from_exponents(C, Hq.exponent, exts[:, Hq.lab[reps]])
    # odd r: Ind psi_A = q sum phi, split as a Krylov block of C's class-matrix space
    try:
        out = chartab.fiber(chartab.induce(psiA.psi_M, C), q, q)
    except AssertionError as exc:
        raise AssertionError(f"{exc} ({_where(psiA)})") from exc
    pairing = chartab.inner(chartab.restrict(out, L.Ml), psiA.psi_M)
    if np.any(out.degree != q) or np.any(pairing != q):
        raise AssertionError(
            f"odd-level fiber degrees {out.degree.tolist()}, pairings {pairing.tolist()}; "
            f"expected q = {q} ({_where(psiA)})"
        )
    if len(out) * q**2 != fiber:
        raise AssertionError(
            f"fiber has {len(out)} members, expected [C:M^l]/q^2 = {fiber // q**2} ({_where(psiA)})"
        )
    return out


# ------------------------------------------------------------------ Mackey decomposition


def mackey_restriction(psiA: PsiA, phi: ClassFunction) -> list[tuple[RingElem, ClassFunction]]:
    """[(d, Ind_{C_SL2(psi_{A_d})} phi^d)] for d over D_A, with exactness checks.

    phi is one class function on C_GL2(psi_A) or a stack of them; every
    summand is a stack of phi's shape.  phi^d(x) = phi(t_d^-1 x t_d) with
    t_d = diag(d, 1).  Since t_d normalizes SL2,

        Ind_{C_SL2(psi_{A_d})} phi^d (x) = Ind_{C_SL2(psi_A)} Res phi (t_d^-1 x t_d),

    so one induced stack is read at the classes PsiA.twists permutes, which
    also checks t_d C_GL2(psi_A) t_d^-1 against the stabilizer of psi_{A_d}.
    Member by member, the sum of the summands is checked to equal
    Res_SL2 Ind_GL2(phi) exactly, and all summand dimensions agree with
    dim(phi) |SL2| / |C_SL2(psi_A)|.
    """
    L = psiA.layers
    C, gl, sl = psiA.c_gl, L.gl, L.sl
    if phi.group is not C:
        raise ValueError("phi must be a class function on C_GL2(psi_A)")
    rho = chartab.induce(phi, gl)
    if np.any(chartab.inner(rho, rho) != 1):
        raise AssertionError(f"Ind(phi) is not irreducible; phi is outside the psi_A fiber ({_where(psiA)})")
    lhs = chartab.restrict(rho, sl)
    expected = phi.degree * sl.n
    ind = chartab.induce(chartab.restrict(phi, psiA.c_sl), sl)
    out = []
    for d, perm in psiA.twists:
        summand = ClassFunction(sl, ind.n, np.take(ind.vals, perm, axis=-2))
        if np.any(expected % psiA.c_sl.n) or np.any(summand.degree != expected // psiA.c_sl.n):
            raise AssertionError(
                f"summand dimension disagrees with dim(phi) |SL2| / |C_SL2(psi_A)| ({_where(psiA, d)})"
            )
        out.append((d, summand))
    total = out[0][1]
    for _, cf in out[1:]:
        total = total + cf
    if total != lhs:
        raise AssertionError(f"Mackey sum does not equal the direct restriction ({_where(psiA)})")
    degs = np.array([cf.degree for _, cf in out])
    if np.any(degs != degs[0]):
        raise AssertionError(f"summand dimensions are not all equal ({_where(psiA)})")
    return out
