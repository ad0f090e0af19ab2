"""Inertia machinery for restricting GL2 irreducibles to SL2.

The congruence subgroup M^ell of GL2(o_r) (ell = ceil(r/2)) is abelian, and
its linear characters are exactly

    psi_A(I + pi^ell B) = psi(pi^ell trace(A~ B)),   A in M_2(o_ell'),

for a fixed coordinate lift A~ of A.  Over a full GL2 table, this module
builds psi_A and its restriction psi_[A] to K^ell = M^ell cap SL2, the
unipotent h/H layers, and the inertia data of psi_A: C_GL2(psi_A),
C_SL2(psi_A), C_SL2(psi_[A]), the coset space D_A = o_r^x / det C_GL2(psi_A)
and that determinant image.  It also gives the fiber Irr(C_GL2(psi_A) | psi_A)
(at even r, the linear characters of C_GL2(psi_A) extending psi_A, read off
its residue classes mod pi^ell') and the coset-twisted decomposition

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

Inertia on residues.  M^ell' = ker(GL2(o_r) -> GL2(o_ell')) fixes psi_A, which
is checked per orbit on generators of M^ell', so C_GL2(psi_A) is a union of
residue classes mod pi^ell'; likewise K^ell' = M^ell' cap SL2 for psi_[A].
So every stabilizer scan reads one lift per residue class, every route is
compared as a mask on the residue root GL2(o_ell') (|GL2(o_ell')| entries, not
|GL2|), and each inertia group is cut from GL2 or SL2 by grp.preimage of its
residue image, a grp.subgroup of the residue root.

What lives where.  Work that does not depend on A (the layers, the residue
root and every position's residue, the conjugates of M^ell's and K^ell's
generators by the residue lifts) is
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
    reduction mod pi^ell', so its cosets are the residue classes: residues
    sends every gl position to its class's position in res_root, the
    enumerated GL2(o_ell'): the quotient GL2 / M^ell' has a table of its own,
    and fibers / fibers_sl group the gl / sl positions by class, so that a
    grp.preimage reads only the classes it keeps.
    M^ell' fixes every psi_A, so each stabilizer is read on one lift per
    residue class.  M^ell' itself needs no table, only generators (Mlp_gens)
    that check that fact per orbit.  There is no table of every psi_A: each
    is built per orbit by make_psiA.
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
    def res_root(self) -> GroupTable:
        """GL2(o_ell'): its positions ascend with the packed codes, as gl's do."""
        return grp.build_gl2(self.spec_lp)

    @cached_property
    def residues(self) -> np.ndarray:
        """int32 res_root position of every gl position's residue mod pi^ell'.

        Reduction is onto GL2(o_ell') with kernel M^ell', so every fiber has
        |gl| / |res_root| members; both facts are checked."""
        lp, res = self.spec_lp, self.res_root
        index = res.pos_of_codes(mat._vpack(lp, tuple(ring._vproj(self.spec, lp, t) for t in self.gl.ms)))
        if np.any(index < 0) or np.any(np.bincount(index, minlength=res.n) * res.n != self.gl.n):
            raise AssertionError(
                f"reduction mod pi^{self.ellp} does not map GL2 evenly onto GL2(o_l') "
                f"({self.spec.short_name}, r={self.spec.r})"
            )
        return index.astype(np.int32)

    @cached_property
    def fibers(self) -> tuple:
        """gl's positions grouped by residue (grp.fibers), for grp.preimage."""
        return grp.fibers(self.residues, self.res_root.n)

    @cached_property
    def fibers_sl(self) -> tuple:
        """sl's positions grouped by residue: onto SL2(o_ell') = res_sl, kernel K^ell'."""
        return grp.fibers(self.residues[self.sl.root_pos], self.res_root.n)

    @cached_property
    def res_sl(self) -> np.ndarray:
        """Mask of SL2(o_ell') on res_root."""
        return self.res_root.dets == 1

    @cached_property
    def conj_lifts_M(self) -> np.ndarray:
        """_conjugate_positions of M^ell by the coordinate lift of every res_root element."""
        lifted = tuple(ring._vlift(self.spec, self.spec_lp, t) for t in self.res_root.ms)
        return _conjugate_positions(self.gl, self.Ml, self.gl.pos_of_codes(mat._vpack(self.spec, lifted)))

    @cached_property
    def conj_lifts_K(self) -> np.ndarray:
        """_conjugate_positions of K^ell by one SL2 lift of every element of SL2(o_ell'),
        in res_root order: diag(det x~^-1, 1) x~ for the coordinate lift x~, the same residue."""
        spec = self.spec
        x = tuple(ring._vlift(spec, self.spec_lp, t[self.res_sl]) for t in self.res_root.ms)
        dinv = ring._vinv(spec, mat._vdet(spec, x))
        x = (ring._vmul(spec, dinv, x[0]), ring._vmul(spec, dinv, x[1]), x[2], x[3])
        return _conjugate_positions(self.sl, self.Kl, self.sl.pos_of_codes(mat._vpack(spec, x)))

    @cached_property
    def Mlp_gens(self) -> np.ndarray:
        """gl positions of generators of M^ell': I + y E_12, I + y E_21,
        diag(1 + y, 1) and diag(1, 1 + y) for y in pi^ell' o_r.  They generate,
        since I + pi^ell' B factors as L D U with one factor of each kind
        (1 + pi^ell' b_11 is a unit)."""
        spec = self.spec
        x = np.arange(spec.size, dtype=np.int64)
        y = x[ring._vval(spec, x) >= self.ellp]
        one, zero = np.ones_like(y), np.zeros_like(y)
        y1 = ring._vadd(spec, one, y)
        kinds = ((one, y, zero, one), (one, zero, y, one), (y1, zero, zero, one), (one, zero, zero, y1))
        return self.gl.pos_of_codes(mat._vpack(spec, tuple(np.concatenate(t) for t in zip(*kinds))))

    @cached_property
    def conj_Mlp(self) -> np.ndarray:
        """_conjugate_positions of M^ell by the generators of M^ell'."""
        return _conjugate_positions(self.gl, self.Ml, self.Mlp_gens)


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
    def stabilizer_residues(self) -> np.ndarray:
        """The residues of the g in GL2 with psi_A(g^-1 m g) = psi_A(m) on M^ell,
        as a mask on res_root (_stabilizer_mask).

        M^ell' fixes psi_A (checked on its generators), so the stabilizer is a
        union of residue classes, and one lift per class decides it."""
        L = self.layers
        if not _stabilizer_mask(L.conj_Mlp, L.Ml, self.exps_M).all():
            raise AssertionError(f"M^l' does not fix psi_A ({_where(self)})")
        return _stabilizer_mask(L.conj_lifts_M, L.Ml, self.exps_M)

    @cached_property
    def c_gl_mask(self) -> np.ndarray:
        """C_GL2(psi_A) mod pi^ell' as a mask on res_root: the stabilizer scan,
        checked against the residue commutation and the product formula
        C_GL2(A~) M^ell'.

        C_GL2(A~), the units of o_r[A~] (mat.centralizer), is looked up in gl.
        C_GL2(A~) M^ell' is the union of the residue classes it meets, of order
        |C_GL2(A~)| q^(2 ell): C_GL2(A~) cap M^ell' is x = 1, y = 0 mod pi^ell'."""
        _require_companion(self.A)
        L = self.layers
        spec, res = L.spec, L.res_root
        stab = self.stabilizer_residues
        if not np.array_equal(stab, _commute_mask(L.spec_lp, res.ms, self.A.codes)):
            raise AssertionError(f"C_GL2(psi_A): stabilizer scan and residue commutation disagree ({_where(self)})")
        cent_lift = L.gl.pos_of_codes(mat._vpack(spec, mat.centralizer(self.Atilde)))
        hit = np.zeros(res.n, dtype=bool)
        hit[L.residues[cent_lift]] = True
        order = np.count_nonzero(stab) * (L.gl.n // res.n)
        if not np.array_equal(stab, hit) or order != len(cent_lift) * spec.q ** (2 * L.ell):
            raise AssertionError(f"C_GL2(psi_A): stabilizer scan and product formula disagree ({_where(self)})")
        return stab

    @cached_property
    def c_gl(self) -> GroupTable:
        """C_GL2(psi_A), a subgroup of GL2: the preimage of its residues."""
        L = self.layers
        image = grp.subgroup(L.res_root, self.c_gl_mask, name="C_GL2(psi_A) mod pi^l'")
        return grp.preimage(L.gl, L.fibers, image, name="C_GL2(psi_A)")

    @cached_property
    def c_sl(self) -> GroupTable:
        """C_SL2(psi_A) = C_GL2(psi_A) cap SL2: the preimage in SL2 of the residues
        of C_GL2(psi_A) in SL2(o_ell') (M^ell' has every determinant in 1 + pi^ell' o)."""
        L = self.layers
        image = grp.subgroup(L.res_root, self.c_gl_mask & L.res_sl, name="C_SL2(psi_A) mod pi^l'")
        return grp.preimage(L.sl, L.fibers_sl, image, name="C_SL2(psi_A)")

    @cached_property
    def c_sl_bracket(self) -> GroupTable:
        """C_SL2(psi_[A]): the stabilizer scan over K^ell on one SL2 lift per
        residue class (K^ell' fixes psi_[A], as M^ell' fixes psi_A), checked
        against the scalar test and the product formula C_SL2(psi_A) H^ell',
        all as masks on res_root."""
        L = self.layers
        res = L.res_root
        bstab = np.zeros(res.n, dtype=bool)
        bstab[L.res_sl] = _stabilizer_mask(L.conj_lifts_K, L.Kl, self.exps_K)
        if not np.array_equal(bstab, _scalar_conj_mask_sl(L, self.A)):
            raise AssertionError(f"C_SL2(psi_[A]): stabilizer scan and scalar test disagree ({_where(self)})")
        lp = L.spec_lp
        h = res.pos_of_codes(mat._vpack(lp, tuple(ring._vproj(L.spec, lp, t) for t in _unipotents(self, L.ellp))))
        bprod = _product_mask(res, np.flatnonzero(self.c_gl_mask & L.res_sl), h)
        if not np.array_equal(bstab, bprod):
            raise AssertionError(f"C_SL2(psi_[A]): stabilizer scan and H-product formula disagree ({_where(self)})")
        image = grp.subgroup(res, bstab, name="C_SL2(psi_[A]) mod pi^l'")
        return grp.preimage(L.sl, L.fibers_sl, image, name="C_SL2(psi_[A])")

    @cached_property
    def det_image(self) -> np.ndarray:
        """Sorted codes of det C_GL2(psi_A): the units whose residue is the
        determinant of a residue of C_GL2(psi_A), as det M^ell' = 1 + pi^ell' o."""
        L = self.layers
        units = ring.unit_codes(L.spec)
        low = np.unique(L.res_root.dets[self.c_gl_mask])
        return units[np.isin(ring._vproj(L.spec, L.spec_lp, units), low)]

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
        own stabilizer scan, as masks on res_root (both groups contain
        M^ell'), so Ind_{C_SL2(psi_{A_d})} phi^d is the untwisted
        Ind_{C_SL2(psi_A)} Res phi read through perm_d.
        """
        L = self.layers
        spec, lp, res, sl = L.spec, L.spec_lp, L.res_root, L.sl
        cc = grp.conjugacy_classes(sl)
        reps = sl.entries(cc.reps)
        cres = res.entries(np.flatnonzero(self.c_gl_mask))
        out = []
        for d in self.dA_reps:
            dc = np.int64(d.code)
            mask = np.zeros(res.n, dtype=bool)
            mask[res.pos_of_codes(mat._vpack(lp, mat._vconj_diag(lp, cres, ring._vproj(spec, lp, dc))))] = True
            A_d = mat.conjugate_by_diag(self.A, d)
            if not np.array_equal(mask, make_psiA(L.gl, A_d).stabilizer_residues):
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


def _unipotents(psiA: PsiA, i: int) -> tuple:
    """Entry arrays of e_x = [[1, a~^-1 x],[0,1]] for x in h^i, ascending in x."""
    spec = psiA.layers.spec
    hs = h_set(psiA, i)
    ainv = np.int64(ring.inv(RingElem(spec, psiA.Atilde.m21)).code)
    tops = ring._vmul(spec, ainv, np.array([h.code for h in hs], dtype=np.int64))
    zero, one = np.zeros(len(hs), dtype=np.int64), np.ones(len(hs), dtype=np.int64)
    return one, tops, zero, one


def H_group(psiA: PsiA, i: int) -> GroupTable:
    """H^i = {e_x = [[1, a~^-1 x],[0,1]] : x in h^i} as a subgroup of SL2."""
    L = psiA.layers
    pos = L.sl.pos_of_codes(mat._vpack(L.spec, _unipotents(psiA, i)))
    if np.any(pos < 0):
        raise AssertionError(f"unipotent element missing from SL2 table ({_where(psiA)})")
    sub = grp.subgroup(L.sl, np.sort(pos), name=f"H^{i}")
    if not grp.is_abelian(sub):
        raise AssertionError(f"H^{i} is not abelian ({_where(psiA)})")
    return sub


# ------------------------------------------------------------------ masks


def _commute_mask(spec: RingSpec, X: tuple, codes4: tuple) -> np.ndarray:
    """Positions whose entries (4 parallel arrays) commute with the fixed matrix: X A == A X."""
    A = tuple(np.int64(t) for t in codes4)
    XA, AX = mat._vmat_mul(spec, X, A), mat._vmat_mul(spec, A, X)
    return np.logical_and.reduce([x == y for x, y in zip(XA, AX)])


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


def _conjugate_positions(G: GroupTable, N: GroupTable, cols: np.ndarray) -> np.ndarray:
    """[j, c] -> N-position of g^-1 n_j g for the generators n_j of N and the
    G-position g = cols[c].

    Stored in the narrowest unsigned dtype; N must be normal in G, and a
    missing column or a conjugate outside N raises.
    """
    if np.any(cols < 0):
        raise AssertionError(f"a conjugating element is missing from {G.name}")
    spec = G.spec
    g, ginv = G.entries(cols), G.entries(G.inv[cols])
    out = np.empty((len(N.gens), len(cols)), dtype=np.min_scalar_type(N.n - 1))
    for j, up in enumerate(N.pos_in(G)[N.gens]):
        t = mat._vmat_mul(spec, mat._vmat_mul(spec, ginv, G.entries(up)), g)
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
    """SL2(o_ell') elements P with P^-1 A P - A scalar, as a mask on res_root
    (the psi_[A] stabilizer test, which reads only the residue mod pi^ell')."""
    lp = L.spec_lp
    P = L.res_root.ms
    Av = tuple(np.int64(c) for c in A.codes)
    D = mat._vmat_mul(lp, mat._vmat_inv(lp, P), mat._vmat_mul(lp, Av, P))
    d11 = ring._vadd(lp, D[0], ring._vneg(lp, np.int64(A.m11)))
    d22 = ring._vadd(lp, D[3], ring._vneg(lp, np.int64(A.m22)))
    return (D[1] == A.m12) & (D[2] == A.m21) & (d11 == d22) & L.res_sl


# ------------------------------------------------------------------ inertia


def inertia(psiA: PsiA) -> PsiA:
    """psiA, with every inertia result built and checked: c_gl, c_sl,
    c_sl_bracket, det_image and dA_reps.

    Each is a cached property that runs its own cross-checks when first read
    (a stabilizer scan on the residue lifts against the residue-level
    commutation/scalar test and the product formulas; D_A's coset enumeration
    against the determinant-image counts), so a caller that reads only dA_reps
    builds no subgroup.  Any disagreement raises.  The groups' generators are
    not searched for until something reads them (phi_set's classes do).
    """
    psiA.c_gl, psiA.c_sl, psiA.c_sl_bracket, psiA.dA_reps
    return psiA


# ------------------------------------------------------------------ the phi layer


def _linear_fiber(psiA: PsiA) -> ClassFunction:
    """Irr(C | psi_A) at even r: the linear characters of C = C_GL2(psi_A) extending psi_A.

    At even r, ell = ell', so M^ell is the kernel of reduction mod pi^ell' and
    its cosets in C are the residue classes that _Layers.residues indexes.
    With one representative t_s per class (the identity for M^ell itself),
    t_s t_t = t_K m_st with K = K[s, t] and m_st in M^ell.  So the phi(t_s)
    are the characters of the table K twisted by psi_A(m_st), from
    chartab._cocycle_characters, and phi(c) = phi(t) psi_A(t^-1 c) at the
    class reps.  As C stabilizes psi_A, the relation makes phi a homomorphism
    extending psi_A, and the f distinct rows are all of Irr(C | psi_A).  Also
    checked: f |M^ell| = |C|, and psi_A's values are e-th roots of unity for
    e the exponent of C.
    """
    L, C = psiA.layers, psiA.c_gl
    where = _where(psiA)
    cc = grp.conjugacy_classes(C)
    e = cc.exponent
    _, t, label = np.unique(L.residues[C.pos_in(L.gl)], return_index=True, return_inverse=True)
    f = len(t)
    if f * L.Ml.n != C.n:
        raise AssertionError(f"{f} residue classes of |M^l| = {L.Ml.n} do not fill |C| = {C.n} ({where})")
    j0 = int(label[C.identity])
    t[j0] = C.identity
    num = psiA.exps_M * e
    if np.any(num % psiA.n):
        raise AssertionError(f"psi_A's values are not e-th roots of unity, e = {e} ({where})")
    psi = np.zeros(C.n, dtype=np.int64)  # psi_A as zeta_e exponents, at the C positions of M^l
    psi[L.Ml.pos_in(C)] = num // psiA.n % e
    prod = C.mul(t[:, None], t[None, :])
    K = label[prod]
    a = psi[C.mul(C.inv[t[K]], prod)]  # psi_A(m_st), m_st = t_K^-1 t_s t_t
    X = chartab._cocycle_characters(K, a, e, chartab.dixon_prime(f * f, e), np.random.default_rng(0), j0, where)
    s = label[cc.reps]
    out = chartab.class_function_from_exponents(C, e, X[:, s] + psi[C.mul(C.inv[t[s]], cc.reps)])
    return out[chartab._canonical_order(out.vals, out.degree)]


def phi_set(psiA: PsiA) -> ClassFunction:
    """Irr(C_GL2(psi_A) | psi_A) as one stack of class functions on C_GL2(psi_A),
    in dixon_table's canonical row order.

    Even r: the [C_GL2(psi_A) : M^ell] linear characters extending psi_A,
    read off the residue classes by _linear_fiber.
    Odd r: every member has degree q and Ind_{M^ell}^{C_GL2(psi_A)} psi_A =
    q sum phi, so chartab.fiber splits Ind psi_A as a Krylov block of the
    class-matrix space of C_GL2(psi_A), without its full character table;
    each member pairs with psi_A on M^ell exactly q times, and the degrees
    and the fiber size are verified on the whole stack.
    """
    L = psiA.layers
    if L.spec.r % 2 == 0:
        return _linear_fiber(psiA)
    C = psiA.c_gl
    q = L.spec.q
    fiber = C.n // L.Ml.n
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
