"""Finite matrix-group engine for GL2/SL2 over the chain rings.

One GroupTable class serves ambient groups and subgroups alike: elements are
stored as four parallel entry-code arrays and products are recomputed from
matrix entries (never a full Cayley table).  Only a root table (an enumerated
GL2 or SL2) keeps the dense packed-code -> position index; every table cut
from it holds its sorted positions in the root and their inverse map, so a
lookup is root index -> local position, and K.pos_in(H) moves positions
between any two tables of one root.

Conjugacy classes are orbits, found by min-label propagation over generator
permutation arrays.  Every table finds its own generating set greedily, by
breadth-first closure, when its gens are first read.  The two cutting
constructors differ in who proves closure.  subgroup reads gens at once, and
the closure search raises if a product leaves the member set.  preimage
(clifford's inertia groups, under reduction mod pi^ell') takes closure from
its image, a closed table, through the homomorphism; it checks only that
every fiber it keeps has the kernel's size, and its gens wait until
something reads them.

Ownership runs one way.  A subgroup holds its root, a table holds its class
partition (cache["classes"]), and a class function holds its table; nothing a
table caches points back at it.  So a subgroup is freed by reference counting
as soon as its last holder lets go.  The one cycle is by design: a GL2 root's
cache["clifford_layers"] holds subgroups that reach the root's index, and it
holds no per-orbit data.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

import numpy as np

from . import mat, ring
from .mat import Mat2
from .ring import RingSpec


class BudgetError(RuntimeError):
    """Requested enumeration exceeds the configured element budget."""


DEFAULT_BUDGET = 1 << 25


def gl2_order(spec: RingSpec) -> int:
    q = spec.q
    return q ** (4 * spec.r - 3) * (q - 1) * (q * q - 1)


def sl2_order(spec: RingSpec) -> int:
    return gl2_order(spec) // ring.unit_count(spec)


class GroupTable:
    """Enumerated matrix group (or subgroup) with entrywise multiplication."""

    def __init__(self, spec, name, ms, root=None, root_pos=None):
        """root/root_pos: the root table and this table's sorted positions in it
        (None for a root)."""
        self.spec = spec
        self.name = name
        # entry codes (m11, m12, m21, m22), one read-only array each, indexed by position
        self.ms = tuple(np.ascontiguousarray(a, dtype=np.int64) for a in ms)
        for t in self.ms:
            t.setflags(write=False)
        self.n = len(self.ms[0])
        # results other modules compute once per table: "classes" on every table,
        # "clifford_layers" on a GL2 root (see the module docstring)
        self.cache = {}
        if root is None:
            self._root = None
            self._index = np.full(spec.size**4, -1, dtype=np.int32)
            self._index[mat._vpack(spec, self.ms)] = np.arange(self.n, dtype=np.int32)
            root_pos = np.arange(self.n, dtype=np.int64)
        else:
            self._root = root
        self.root_pos = root_pos
        # root position -> position here, -1 for non-members; the trailing -1
        # keeps the root index's -1 (a code outside the root) at -1
        self.local = np.full(self.root.n + 1, -1, dtype=np.int32)
        self.local[root_pos] = np.arange(self.n, dtype=np.int32)
        self.identity = int(self.pos_of_codes(mat._vpack(spec, (1, 0, 0, 1))))
        if self.identity < 0:
            raise ValueError("element set lacks the identity")
        self.inv = self._lookup(mat._vmat_inv(spec, self.ms))

    @property
    def root(self) -> "GroupTable":
        """The enumerated table this one was cut from (itself for a root).

        A root stores no reference to itself, so reference counting frees its index.
        """
        return self if self._root is None else self._root

    # -------------------------------------------------------------- plumbing

    def entries(self, i):
        return tuple(t[i] for t in self.ms)

    def pos_of_codes(self, codes):
        """Positions of packed matrix codes; -1 marks non-members.

        A root's index already holds its positions (-1 outside it), so only a
        subgroup maps them through local.
        """
        pos = self.root._index[np.asarray(codes, dtype=np.int64)]
        return (pos if self._root is None else self.local[pos]).astype(np.int64)

    def _lookup(self, ms):
        p = self.pos_of_codes(mat._vpack(self.spec, ms))
        if not np.all(p >= 0):
            raise ValueError(f"product left the element set of {self.name}")
        return p

    def mul(self, i, j):
        """Position(s) of element i times element j; broadcasts."""
        p = self._lookup(mat._vmat_mul(self.spec, self.entries(i), self.entries(j)))
        return p if isinstance(i, np.ndarray) or isinstance(j, np.ndarray) else int(p)

    def matrix(self, i) -> Mat2:
        return Mat2(self.spec, *(int(t[i]) for t in self.ms))

    def pos_of_matrix(self, X: Mat2) -> int:
        p = int(self.pos_of_codes(mat._vpack(self.spec, X.codes)))
        if p < 0:
            raise ValueError(f"{mat.encode_mat(X)} is not in {self.name}")
        return p

    @cached_property
    def dets(self):
        return mat._vdet(self.spec, self.ms)

    @cached_property
    def gens(self) -> list[int]:
        """Greedy generators: each is the first position outside the closure of the ones before."""
        gens: list[int] = []
        known = _closure_mask(self, gens)
        while not known.all():
            gens.append(int(np.flatnonzero(~known)[0]))
            known = _closure_mask(self, gens, known)
        return gens

    # -------------------------------------------------------------- permutations

    def conj_perm(self, g: int):
        """x -> g x g^-1 as a position permutation."""
        gx = mat._vmat_mul(self.spec, self.entries(g), self.ms)
        return self._lookup(mat._vmat_mul(self.spec, gx, self.entries(int(self.inv[g]))))

    def pos_in(self, H: "GroupTable") -> np.ndarray:
        """Positions in H of this table's elements; both must share one root."""
        if H.root is not self.root:
            raise ValueError(f"{self.name} and {H.name} are cut from different root tables")
        out = H.local[self.root_pos].astype(np.int64)
        if np.any(out < 0):
            raise ValueError(f"{self.name} is not contained in {H.name}")
        return out

    def __repr__(self):
        return f"<{self.name} over {self.spec.short_name} r={self.spec.r}, {self.n} elements>"


def _closure_mask(table: GroupTable, gens, known=None) -> np.ndarray:
    """Mask of the subgroup generated by gens, by breadth-first right multiplication.

    known, if given, is the mask for gens[:-1] and is extended in place.  It is
    closed under those generators, so a word first leaves it through gens[-1]:
    the search starts at (known * gens[-1]) minus known.
    """
    if known is None:
        known = np.zeros(table.n, dtype=bool)
        known[table.identity] = True
        frontier = np.array([table.identity], dtype=np.int64)
    else:
        p = table.mul(np.flatnonzero(known), np.int64(gens[-1]))
        frontier = np.unique(p[~known[p]])
        known[frontier] = True
    while len(frontier):
        nxt = []
        for g in gens:
            p = table.mul(frontier, np.int64(g))
            p = p[~known[p]]
            if len(p):
                p = np.unique(p)
                known[p] = True
                nxt.append(p)
        frontier = np.concatenate(nxt) if nxt else np.array([], dtype=np.int64)
    return known


# ------------------------------------------------------------------ builders


def _enumerate_group(spec, keep_fn, name, expected, budget):
    if expected > budget:
        raise BudgetError(
            f"|{name}({spec.short_name}, r={spec.r})| = {expected} exceeds the budget {budget}; "
            "use the predict module for closed forms at this level"
        )
    total = spec.size ** 4
    chunks = []
    step = 1 << 22
    for start in range(0, total, step):
        codes = np.arange(start, min(start + step, total), dtype=np.int64)
        X = mat._vunpack(spec, codes)
        keep = keep_fn(X)
        chunks.append(tuple(t[keep] for t in X))
    ms = tuple(np.concatenate([c[k] for c in chunks]) for k in range(4))
    table = GroupTable(spec, name, ms)
    if table.n != expected:
        raise AssertionError(f"enumerated {table.n} elements of {name}, expected {expected}")
    return table


def build_gl2(spec: RingSpec, budget: int = DEFAULT_BUDGET) -> GroupTable:
    """All of GL_2(o_r) by vectorized scan; order formula asserted."""
    return _enumerate_group(
        spec,
        lambda X: ring._vval(spec, mat._vdet(spec, X)) == 0,
        "GL2",
        gl2_order(spec),
        budget,
    )


def build_sl2(spec: RingSpec, budget: int = DEFAULT_BUDGET) -> GroupTable:
    """All of SL_2(o_r) as its own ambient table."""
    return _enumerate_group(
        spec,
        lambda X: mat._vdet(spec, X) == 1,
        "SL2",
        sl2_order(spec),
        budget,
    )


def _cut(table: GroupTable, idx: np.ndarray, name: str) -> GroupTable:
    return GroupTable(table.spec, name, tuple(t[idx] for t in table.ms), root=table.root, root_pos=table.root_pos[idx])


def subgroup(table: GroupTable, members, name="subgroup") -> GroupTable:
    """Wrap a closed subset of table as a child GroupTable.

    members: boolean mask or position array.  Closure failures surface as
    errors during construction: its generators are found at once, and the
    search raises when a product leaves the member set.
    """
    members = np.asarray(members)
    idx = np.flatnonzero(members) if members.dtype == bool else np.sort(members.astype(np.int64))
    sub = _cut(table, idx, name)
    sub.gens
    return sub


def fibers(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, start): the positions p sorted by index[p] (int32), and the run
    order[start[s]:start[s + 1]] of those with index[p] = s, for s < n."""
    order = np.argsort(index, kind="stable").astype(np.int32)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=n), out=start[1:])
    return order, start


def preimage(table: GroupTable, fibers: tuple, image: GroupTable, name="preimage") -> GroupTable:
    """The elements of table that a homomorphism sends into image, as a child GroupTable.

    fibers is grp.fibers(index, image.root.n) for the homomorphism's index:
    index[g] is the position of g's image in image.root.  The preimage of a
    closed image under a homomorphism is closed, so no closure search runs
    here and gens are found only when first read; image's own gens are read,
    which proves its closure (a subgroup already has).  A homomorphism's
    fibers all have the kernel's size, so every fiber over image is checked
    to have it (|preimage| = |image| |kernel fiber|), and a mismatch raises.
    Only the fibers over image are read.
    """
    image.gens
    order, start = fibers
    if len(start) != image.root.n + 1:
        raise ValueError(f"{name}: fibers over {len(start) - 1} positions, but {image.name}'s root has {image.root.n}")
    lo = start[image.root_pos]
    sizes = start[image.root_pos + 1] - lo
    kernel = int(sizes[image.identity])
    if np.any(sizes != kernel):
        raise ValueError(
            f"{name}: {int(sizes.sum())} elements map into {image.name}, "
            f"not |image| * |kernel fiber| = {image.n} * {kernel}"
        )
    return _cut(table, np.sort(order[lo[:, None] + np.arange(kernel)], axis=None), name)


def sl2_subgroup(gl: GroupTable) -> GroupTable:
    sub = subgroup(gl, gl.dets == 1, name="SL2")
    assert sub.n == sl2_order(gl.spec)
    return sub


def congruence_subgroup(G: GroupTable, i: int) -> GroupTable:
    """M^i = I + pi^i M_2(o_r) intersected with G (K^i when G is SL2)."""
    spec = G.spec
    if not 1 <= i <= spec.r:
        raise ValueError(f"congruence level {i} not in [1, {spec.r}]")
    X = G.ms
    one_ = np.int64(1)
    keep = (
        (ring._vval(spec, ring._vadd(spec, X[0], ring._vneg(spec, one_))) >= i)
        & (ring._vval(spec, X[1]) >= i)
        & (ring._vval(spec, X[2]) >= i)
        & (ring._vval(spec, ring._vadd(spec, X[3], ring._vneg(spec, one_))) >= i)
    )
    name = f"K^{i}" if G.name.startswith("SL2") or G.name.startswith("K^") else f"M^{i}"
    sub = subgroup(G, keep, name=name)
    q, r = spec.q, spec.r
    expected = {"M": q ** (4 * (r - i)), "K": q ** (3 * (r - i))}[name[0]]
    if G.name in ("GL2", "SL2") and sub.n != expected:
        raise AssertionError(f"|{name}| = {sub.n}, expected {expected}")
    return sub


def is_abelian(H: GroupTable) -> bool:
    return all(H.mul(a, b) == H.mul(b, a) for a in H.gens for b in H.gens)


# ------------------------------------------------------------------ orbits


def _orbit_labels(n: int, perms) -> np.ndarray:
    """Connected components of the union of the permutations' edge sets.

    Monotone min-label flow: labels only decrease and always hold a position
    inside the holder's orbit, so the fixpoint labels each orbit by its
    minimum position.
    """
    lab = np.arange(n, dtype=np.int64)
    while True:
        before = lab.copy()
        for p in perms:
            lab = np.minimum(lab, lab[p])
            np.minimum.at(lab, p, lab.copy())
        lab = np.minimum(lab, lab[lab])
        if np.array_equal(lab, before):
            return lab


class ConjClasses:
    """Partition of a GroupTable into conjugacy classes, with its power data.

    Everything is computed here, from the table, and the table is not kept:
    the partition is cached on its table (conjugacy_classes), never the
    other way round.
    """

    def __init__(self, table: GroupTable):
        perms = [table.conj_perm(g) for g in table.gens]
        lab = _orbit_labels(table.n, perms)
        self.reps = np.unique(lab)
        self.class_id = np.searchsorted(self.reps, lab)
        self.k = len(self.reps)
        self.sizes = np.bincount(self.class_id, minlength=self.k)
        assert int(self.sizes.sum()) == table.n
        assert all(table.n % int(s) == 0 for s in self.sizes)
        # class index of the inverses, per class
        self.inverse_class = self.class_id[table.inv[self.reps]]
        # P[s, j] = class of rep_j^s, for s from 0 to the largest element order:
        # one loop powers the k reps until each has returned to the identity
        cur = np.full(self.k, table.identity, dtype=np.int64)
        back = np.zeros(self.k, dtype=bool)
        rows = [self.class_id[cur]]
        while not back.all():
            cur = table.mul(cur, self.reps)
            back |= cur == table.identity
            rows.append(self.class_id[cur])
        self.power_classes = np.array(rows)
        # element order of each class, and the group exponent
        j0 = self.class_id[table.identity]
        self.orders = 1 + np.argmax(self.power_classes[1:] == j0, axis=0)
        self.exponent = lcm(*map(int, self.orders))

    def __repr__(self):
        return f"<{self.k} conjugacy classes, sizes {sorted(set(map(int, self.sizes)))}>"


def conjugacy_classes(G: GroupTable) -> ConjClasses:
    """The class partition of G, built once per table."""
    if "classes" not in G.cache:
        G.cache["classes"] = ConjClasses(G)
    return G.cache["classes"]
