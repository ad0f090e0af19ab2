"""Chain-ring arithmetic checked against independent small models.

Each ring kind gets an oracle that does not share code with the library:
plain integers mod 2^r, carry-less polynomial multiplication, an explicit
F_4 coefficient model, and the quadratic a + b*pi model with pi^2 = 2.
"""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab import grp, predict, ring


SMALL = ["z2:1", "z2:2", "z2:3", "z2:4", "f2t:2", "f2t:3", "f4t:1", "f4t:2", "eis2:2", "eis2:3", "eis2:5"]


def _spec(name):
    kind, r = name.split(":")
    return ring.make_ring(kind, r=int(r))


def all_elems(spec):
    return [ring.elem(spec, c) for c in range(spec.size)]


# ------------------------------------------------------------- construction


def test_aliases_and_validation():
    s = ring.make_ring("z2", r=3)
    assert (s.q, s.r, s.e, s.char_two, s.short_name) == (2, 3, 1, False, "z2")
    s = ring.make_ring("f4t", r=2)
    assert (s.q, s.e, s.char_two, s.size) == (4, None, True, 16)
    s = ring.make_ring("eis2", r=5)
    assert (s.e, s.size) == (2, 32)
    with pytest.raises(ValueError):
        ring.make_ring("z2", q=4, r=2)  # alias pins q
    with pytest.raises(ValueError):
        ring.make_ring("z2", r=0)
    with pytest.raises(ValueError):
        ring.make_ring("nonsense", q=2, r=2)
    with pytest.raises(ValueError):
        ring.elem(ring.make_ring("z2", r=2), 4)


def test_level_split():
    for r, l, lp in [(1, 1, 0), (2, 1, 1), (3, 2, 1), (4, 2, 2), (9, 5, 4)]:
        s = ring.make_ring("f2t", r=r)
        assert (s.ell, s.ell_prime) == (l, lp)


# ------------------------------------------------------------- ring axioms


@pytest.mark.parametrize("name", SMALL)
def test_ring_axioms_exhaustive(name):
    spec = _spec(name)
    n = spec.size
    x = np.arange(n, dtype=np.int64)
    add = ring._vadd(spec, x[:, None], x[None, :])
    mul = ring._vmul(spec, x[:, None], x[None, :])
    zero = np.zeros(n, dtype=np.int64)
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], x) and np.array_equal(mul[1], x)
    assert np.array_equal(mul[0], zero)
    neg = ring._vneg(spec, x)
    assert np.array_equal(add[x, neg], zero)
    if n <= 32:  # keep the O(n^3) laws exhaustive only on the truly small rings
        a3 = add[add[x[:, None, None], x[None, :, None]], x[None, None, :]]
        b3 = add[x[:, None, None], add[x[None, :, None], x[None, None, :]]]
        assert np.array_equal(a3, b3)
        a3 = mul[mul[x[:, None, None], x[None, :, None]], x[None, None, :]]
        b3 = mul[x[:, None, None], mul[x[None, :, None], x[None, None, :]]]
        assert np.array_equal(a3, b3)
        a3 = mul[x[:, None, None], add[x[None, :, None], x[None, None, :]]]
        b3 = add[mul[x[:, None, None], x[None, :, None]], mul[x[:, None, None], x[None, None, :]]]
        assert np.array_equal(a3, b3)


@pytest.mark.parametrize("name", ["z2:3", "f2t:3", "f4t:2", "eis2:4"])
def test_from_integer_is_a_ring_hom(name):
    spec = _spec(name)
    for a in range(-6, 10):
        for b in range(-6, 10):
            fa, fb = ring.from_integer(spec, a), ring.from_integer(spec, b)
            assert ring.from_integer(spec, a + b) == ring.add(fa, fb)
            assert ring.from_integer(spec, a * b) == ring.mul(fa, fb)
    # additive order of 1 = characteristic of the quotient
    one = ring.one(spec)
    acc, k = one, 1
    while acc.code:
        acc = ring.add(acc, one)
        k += 1
    expect = {"z2": 2**spec.r, "f2t": 2, "f4t": 2, "eis2": 2**spec.ell}[spec.short_name]
    assert k == expect


def test_z2_matches_integers_mod_16():
    spec = ring.make_ring("z2", r=4)
    for a in range(16):
        for b in range(16):
            assert ring.add(ring.elem(spec, a), ring.elem(spec, b)).code == (a + b) % 16
            assert ring.mul(ring.elem(spec, a), ring.elem(spec, b)).code == (a * b) % 16
    for a in range(1, 16):
        assert ring.val(ring.elem(spec, a)) == (a & -a).bit_length() - 1


def _clmul(a, b, r):
    out = 0
    for i in range(r):
        if (a >> i) & 1:
            out ^= b << i
    return out & ((1 << r) - 1)


def _all_pairs(spec):
    x = np.arange(spec.size, dtype=np.int64)
    return x[:, None], x[None, :]


def test_f2t_matches_carryless_polynomials():
    spec = ring.make_ring("f2t", r=4)
    t = ring.uniformizer(spec)
    # pin the code layout down from public ops: code c = sum of bits c_i t^i
    for c in range(16):
        e, p = ring.zero(spec), ring.one(spec)
        for i in range(4):
            if (c >> i) & 1:
                e = ring.add(e, p)
            p = ring.mul(p, t)
        assert e.code == c
    for a in range(16):
        for b in range(16):
            assert int(ring._vmul(spec, np.int64(a), np.int64(b))) == _clmul(a, b, 4)
            assert int(ring._vadd(spec, np.int64(a), np.int64(b))) == a ^ b
    # 128 elements: above the product-table limit, so this checks the formula
    spec = ring.make_ring("f2t", r=7)
    expect = [[_clmul(a, b, 7) for b in range(spec.size)] for a in range(spec.size)]
    assert ring._vmul(spec, *_all_pairs(spec)).tolist() == expect


# F_4 = F_2[u]/(u^2 + u + 1) on symbols 0, 1, u, u+1
_F4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def _f4t_mul(a, b, r):
    da = [(a >> (2 * i)) & 3 for i in range(r)]
    db = [(b >> (2 * i)) & 3 for i in range(r)]
    out = [0] * r
    for i in range(r):
        for j in range(r - i):
            out[i + j] ^= _F4_MUL[da[i]][db[j]]
    return sum(c << (2 * k) for k, c in enumerate(out))


def test_f4t_matches_the_f4_coefficient_model():
    spec = ring.make_ring("f4t", r=2)
    u = ring.elem(spec, 2)
    assert ring.add(ring.add(ring.mul(u, u), u), ring.one(spec)).code == 0  # u^2+u+1 = 0
    t = ring.uniformizer(spec)
    for c in range(16):
        e, p = ring.zero(spec), ring.one(spec)
        for i in range(2):
            d = (c >> (2 * i)) & 3
            e = ring.add(e, ring.mul(ring.elem(spec, d), p))
            p = ring.mul(p, t)
        assert e.code == c  # base-4 digit layout
    for a in range(16):
        for b in range(16):
            assert int(ring._vmul(spec, np.int64(a), np.int64(b))) == _f4t_mul(a, b, 2)
            assert int(ring._vadd(spec, np.int64(a), np.int64(b))) == a ^ b
    # 256 elements: above the product-table limit, so this checks the formula
    spec = ring.make_ring("f4t", r=4)
    expect = [[_f4t_mul(a, b, 4) for b in range(spec.size)] for a in range(spec.size)]
    assert ring._vmul(spec, *_all_pairs(spec)).tolist() == expect


def test_eis2_matches_the_quadratic_model():
    # x = a + b*pi with pi^2 = 2, a mod 2^ceil(r/2), b mod 2^floor(r/2)
    for r in (2, 3, 4, 5, 7):  # r = 7 (128 elements) is above the product-table limit
        spec = ring.make_ring("eis2", r=r)
        na, nb = 1 << spec.ell, 1 << spec.ell_prime
        pi = ring.uniformizer(spec)

        def build(a, b):
            return ring.add(ring.from_integer(spec, a), ring.mul(ring.from_integer(spec, b), pi))

        codes = {build(a, b).code for a in range(na) for b in range(nb)}
        assert len(codes) == spec.size  # the model enumerates the ring exactly once
        for a in range(na):
            for b in range(nb):
                x = build(a, b)
                for c in range(na):
                    for d in range(nb):
                        y = build(c, d)
                        za, zb = (a * c + 2 * b * d) % na, (a * d + b * c) % nb
                        assert ring.mul(x, y) == build(za, zb)
                        assert ring.add(x, y) == build((a + c) % na, (b + d) % nb)


# ------------------------------------------------------- product tables

# every f2t/f4t/eis2 level that multiplies by table lookup
TABLED = [
    (kind, r)
    for kind in ("f2t", "f4t", "eis2")
    for r in range(1, 7)
    if ring.make_ring(kind, r=r).size <= ring._MUL_TABLE_MAX
]


def test_product_tables_cover_every_gl2_within_the_default_budget():
    for kind in ("z2", "f2t", "f4t", "eis2"):
        top = max(r for r in range(1, 20) if grp.gl2_order(ring.make_ring(kind, r=r)) <= grp.DEFAULT_BUDGET)
        assert ring.make_ring(kind, r=top).size == ring._MUL_TABLE_MAX


@pytest.mark.parametrize("kind,r", TABLED)
def test_product_table_equals_the_formula(kind, r):
    spec = ring.make_ring(kind, r=r)
    x, y = _all_pairs(spec)
    expect = ring._vmul_formula(spec, x, y)
    # the 2-D broadcast shape that clifford._product_mask uses
    got = ring._vmul(spec, x, y)
    assert got.dtype == np.int64 and np.array_equal(got, expect)
    # 1-D arrays of every pair
    xs, ys = np.broadcast_arrays(x, y)
    got = ring._vmul(spec, xs.ravel(), ys.ravel())
    assert got.dtype == np.int64 and np.array_equal(got, expect.ravel())
    # np.int64 scalars, the shape scalar ring.mul passes
    for a in range(spec.size):
        for b in range(spec.size):
            got = ring._vmul(spec, np.int64(a), np.int64(b))
            assert got.dtype == np.int64 and got == expect[a, b]
    table = ring._mul_table(spec)
    assert table.dtype == np.int64 and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1


def test_z2_and_large_rings_have_no_product_table():
    ring._mul_table.cache_clear()
    x = np.arange(64, dtype=np.int64)
    for kind, r in (("z2", 6), ("f2t", 7), ("f4t", 4), ("eis2", 7)):
        ring._vmul(ring.make_ring(kind, r=r), x[:, None], x[None, :])
    assert ring._mul_table.cache_info().currsize == 0


# ------------------------------------------------------ valuation and units


@pytest.mark.parametrize("name", SMALL)
def test_valuation_against_pi_power_images(name):
    spec = _spec(name)
    pi = ring.uniformizer(spec)
    sets = [set(range(spec.size))]
    p = ring.one(spec)
    for _ in range(spec.r):
        p = ring.mul(p, pi)
        sets.append({ring.mul(p, y).code for y in all_elems(spec)})
    for x in all_elems(spec):
        expect = max(k for k in range(spec.r + 1) if x.code in sets[k])
        assert ring.val(x) == expect
    assert ring.val(ring.zero(spec)) == spec.r


# the widest level of each kind whose codes, all below 2^63, fit in int64
WIDEST = {"z2": 63, "f2t": 63, "f4t": 31, "eis2": 63}


def _val_oracle(kind, r, c):
    """pi-adic valuation of code c, from Python ints."""

    def ctz(n):
        return (n & -n).bit_length() - 1 if n else r

    if kind == "eis2":
        a_bits = (r + 1) // 2
        a, b = c & ((1 << a_bits) - 1), c >> a_bits
        return min(2 * ctz(a), 2 * ctz(b) + 1, r)
    if kind == "f4t":
        digits = [(c >> (2 * i)) & 3 for i in range(r)]
        return next((i for i, d in enumerate(digits) if d), r)
    return min(ctz(c), r)  # z2 and f2t: one bit per digit


def _pi_power_code(kind, r, k):
    """Code of pi^k, from the coordinate layout of each kind."""
    if kind == "f4t":
        return 1 << (2 * k)
    if kind == "eis2":  # pi^(2j) = 2^j, pi^(2j+1) = 2^j * pi
        return 1 << (k // 2 + (k % 2) * ((r + 1) // 2))
    return 1 << k


def _wide_codes(spec, seed, n=2000):
    """Seeded random codes, about half shifted up to reach every valuation.

    An eis2 code a + b*pi has both coordinates shifted by the same amount.
    """
    rnd = random.Random(seed)
    widths = [(spec.r + 1) // 2, spec.r // 2] if spec.short_name == "eis2" else [spec.size.bit_length() - 1]
    codes = [0, 1, _pi_power_code(spec.short_name, spec.r, spec.r - 1), spec.size - 1]
    for _ in range(n):
        shift = rnd.randrange(widths[0] + 1) if rnd.random() < 0.5 else 0
        c, offset = 0, 0
        for w in widths:
            c |= ((rnd.randrange(1 << w) << shift) % (1 << w)) << offset
            offset += w
        codes.append(c)
    return codes


@pytest.mark.parametrize("kind", sorted(WIDEST))
def test_valuation_exact_on_the_widest_int64_codes(kind):
    spec = ring.make_ring(kind, r=WIDEST[kind])
    codes = _wide_codes(spec, seed=11)
    expect = [_val_oracle(kind, spec.r, c) for c in codes]
    assert expect[:3] == [spec.r, 0, spec.r - 1]
    assert sorted(set(expect)) == list(range(spec.r + 1))
    assert ring._vval(spec, np.array(codes, dtype=np.int64)).tolist() == expect
    assert [ring.val(ring.elem(spec, c)) for c in codes] == expect


# ---------------------------------------------------------- code width


def test_codes_wider_than_int64_raise_value_error():
    for kind, r in (("z2", 64), ("f2t", 64), ("f4t", 32), ("eis2", 64)):
        spec = ring.make_ring(kind, r=r)
        with pytest.raises(ValueError, match=f"{kind} r={r}"):
            ring.mul(ring.elem(spec, 3), ring.elem(spec, 5))
        if spec.char_two:
            with pytest.raises(ValueError, match=f"{kind} r={r}"):
                ring._vsquare(spec, np.int64(3))
        for kernel in (lambda x: ring._vadd(spec, x, x), lambda x: ring._vneg(spec, x), lambda x: ring._vval(spec, x)):
            with pytest.raises(ValueError, match=f"{kind} r={r}"):
                kernel(np.int64(3))


WIDE_Z2 = ring.make_ring("z2", r=64)
SCALAR_WRAPPERS = {
    "add": lambda x: ring.add(x, x),
    "mul": lambda x: ring.mul(x, x),
    "neg": ring.neg,
    "val": ring.val,
    "inv": ring.inv,
    "proj": lambda x: ring.proj(WIDE_Z2, 3, x),
    "lift": lambda x: ring.lift(ring.make_ring("z2", r=65), x),
}


@pytest.mark.parametrize("name", sorted(SCALAR_WRAPPERS))
def test_scalar_wrappers_reject_codes_wider_than_int64(name):
    # 2^63 + 1 is a valid code at z2 r = 64 but not an int64
    with pytest.raises(ValueError, match="z2 r=64"):
        SCALAR_WRAPPERS[name](ring.elem(WIDE_Z2, 2**63 + 1))


def test_widest_f4t_product_is_warning_free():
    spec = ring.make_ring("f4t", r=WIDEST["f4t"])
    x, y = ring.elem(spec, (2 << 60) | 3), ring.elem(spec, (1 << 60) | 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = ring.mul(x, y)
    # digit 30: u*1 + (1+u)*1 = 1; digits 0 and 1: (1+u)*1 = 1+u
    assert z.code == (1 << 60) | (3 << 2) | 3 == _f4t_mul(x.code, y.code, spec.r)


def test_scalar_ops_wrap_silently_at_the_widest_levels():
    # (2^63 - 3)(2^63 - 5) = 15 mod 2^63; numpy warns on such scalar products
    spec = ring.make_ring("z2", r=63)
    x, y = ring.elem(spec, 2**63 - 3), ring.elem(spec, 2**63 - 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ring.mul(x, y).code == 15
        assert ring.add(x, y).code == 2**63 - 8
        assert ring.mul(x, ring.inv(x)).code == 1


def _levels(kind, table):
    """Levels up to the width limit whose _vmul takes the product-table (or the formula) branch."""
    sizes = {r: ring.make_ring(kind, r=r).size for r in range(1, WIDEST[kind] + 1)}
    return [r for r, n in sizes.items() if (kind != "z2" and n <= ring._MUL_TABLE_MAX) == table]


@st.composite
def _ring_and_codes(draw, table):
    """(spec, three codes) at a random level on one branch of _vmul."""
    kind = draw(st.sampled_from([k for k in sorted(WIDEST) if _levels(k, table)]))
    spec = ring.make_ring(kind, r=draw(st.sampled_from(_levels(kind, table))))
    codes = draw(st.lists(st.integers(0, spec.size - 1), min_size=3, max_size=3))
    return spec, codes


def _ring_properties(spec, codes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an int64 overflow warning is a defect
        _check_ring_properties(spec, codes)


def _check_ring_properties(spec, codes):
    x, y, z = (ring.elem(spec, c) for c in codes)
    zero, one = ring.zero(spec), ring.one(spec)
    assert (x + y) + z == x + (y + z) and x + y == y + x and x + zero == x and x + (-x) == zero
    assert (x * y) * z == x * (y * z) and x * y == y * x and x * one == x
    assert x * (y + z) == x * y + x * z
    units = [u if ring.is_unit(u) else u + one for u in (x, y, z)]  # 1 + a non-unit is a unit
    for u in units:
        assert u * ring.inv(u) == one
    arr = np.array(codes, dtype=np.int64)
    assert np.array_equal(ring._vsquare(spec, arr), ring._vmul(spec, arr, arr))
    # the scalar API against the array kernels, pairing x with y, y with z, z with x
    pairs = list(zip((x, y, z), (y, z, x)))
    other = arr[[1, 2, 0]]
    assert ring._vmul(spec, arr, other).tolist() == [(a * b).code for a, b in pairs]
    assert ring._vadd(spec, arr, other).tolist() == [(a + b).code for a, b in pairs]
    assert ring._vneg(spec, arr).tolist() == [(-a).code for a in (x, y, z)]
    assert ring._vval(spec, arr).tolist() == [ring.val(a) for a in (x, y, z)]
    uarr = np.array([u.code for u in units], dtype=np.int64)
    assert ring._vinv(spec, uarr).tolist() == [ring.inv(u).code for u in units]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_ring_and_codes(table=True))
def test_ring_properties_on_the_product_table_branch(case):
    _ring_properties(*case)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_ring_and_codes(table=False))
def test_ring_properties_on_the_formula_branch(case):
    _ring_properties(*case)


def test_predict_stays_unbounded_past_the_code_width():
    pred = predict.predict_branching(ring.make_ring("f4t", r=50), "unit")
    assert (pred.r, pred.dA, pred.delta_min, pred.delta_max) == (50, 1, 1, 2)


@pytest.mark.parametrize("kind", ["f2t", "f4t"])
def test_square_kernel_matches_multiplication(kind):
    for r in [*range(1, 9), WIDEST[kind]]:
        spec = ring.make_ring(kind, r=r)
        if r <= 8:
            x = np.arange(spec.size, dtype=np.int64)
        else:
            x = np.array(_wide_codes(spec, seed=r), dtype=np.int64)
        assert np.array_equal(ring._vsquare(spec, x), ring._vmul(spec, x, x)), r


@pytest.mark.parametrize("name", SMALL)
def test_units_and_inverses(name):
    spec = _spec(name)
    units = []
    for x in all_elems(spec):
        has_inverse = any(ring.mul(x, y).code == 1 for y in all_elems(spec))
        assert ring.is_unit(x) == has_inverse == (ring.val(x) == 0)
        if has_inverse:
            units.append(x)
            assert ring.mul(x, ring.inv(x)).code == 1
    assert ring.unit_count(spec) == len(units)
    assert sorted(ring.unit_codes(spec).tolist()) == sorted(u.code for u in units)
    brute_squares = {ring.mul(u, u).code for u in units}
    assert set(ring.square_unit_codes(spec).tolist()) == brute_squares
    assert ring.sqrt1_count(spec) == sum(1 for u in units if ring.mul(u, u).code == 1)


def test_sqrt1_count_large_level_matches_valuation_argument():
    # x^2 = 1 iff val(x + 1) >= ceil(m/2) in characteristic two
    for r in range(1, 9):
        spec = ring.make_ring("f4t", r=r)
        units = ring.unit_codes(spec)
        # the product path (table or digit formula), not _vsquare's Frobenius route
        squares = ring._vmul(spec, units, units)
        step = max(1, len(units) // 5)
        for c, sq in zip(units[::step], squares[::step]):
            assert ring.mul(ring.elem(spec, int(c)), ring.elem(spec, int(c))).code == sq
        brute = int(np.count_nonzero(squares == 1))
        assert ring.sqrt1_count(spec) == brute == 4 ** (r // 2)


def test_sqrt1_count_above_the_table_budget_matches_enumeration(monkeypatch):
    # the kernel-of-squaring rank route, forced at every enumerable char-2 level
    specs = [ring.make_ring("f2t", r=r) for r in range(1, 23)] + [ring.make_ring("f4t", r=r) for r in range(1, 12)]
    assert max(spec.size for spec in specs) == ring._TABLE_BUDGET
    enumerated = [ring.sqrt1_count(spec) for spec in specs]
    monkeypatch.setattr(ring, "_TABLE_BUDGET", 0)
    with pytest.raises(ValueError, match="too large to enumerate"):
        ring.unit_codes(specs[0])
    assert [ring.sqrt1_count(spec) for spec in specs] == enumerated


@pytest.mark.parametrize("kind,r", [("z2", 5), ("f2t", 6), ("f4t", 3), ("eis2", 7), ("f4t", 10), ("z2", 22)])
def test_unit_codes_need_no_inverses(kind, r, monkeypatch):
    def no_inverses(spec, x):
        raise AssertionError("unit_codes computed inverses")

    monkeypatch.setattr(ring, "_vinv", no_inverses)
    spec = ring.make_ring(kind, r=r)
    codes = np.arange(spec.size, dtype=np.int64)
    units = ring.unit_codes(spec)
    assert np.array_equal(units, codes[ring._vval(spec, codes) == 0])
    assert len(units) == ring.unit_count(spec)


def test_table_budget_guard():
    spec = ring.make_ring("z2", r=23)  # 2^23 elements, over the enumeration budget
    with pytest.raises(ValueError):
        ring.unit_codes(spec)


# -------------------------------------------------------- quotients and lifts


@pytest.mark.parametrize("name", ["z2:4", "f2t:4", "f4t:2", "eis2:5"])
def test_projection_and_lift(name):
    spec = _spec(name)
    for s in range(1, spec.r):
        sub = ring.truncate(spec, s)
        assert (sub.kind, sub.q, sub.r) == (spec.kind, spec.q, s)
        # projection is a surjective ring hom and lift is a section of it
        for x in all_elems(spec):
            for y in all_elems(spec):
                px, py = ring.proj(spec, sub, x), ring.proj(spec, sub, y)
                assert ring.proj(spec, sub, ring.add(x, y)) == ring.add(px, py)
                assert ring.proj(spec, sub, ring.mul(x, y)) == ring.mul(px, py)
        for z in all_elems(sub):
            assert ring.proj(spec, sub, ring.lift(spec, z)) == z


def test_div_pi_power():
    for name in ("z2:4", "f2t:4", "eis2:5"):
        spec = _spec(name)
        pi = ring.uniformizer(spec)
        pk = ring.one(spec)
        for k in range(spec.r + 1):
            sub = ring.truncate(spec, spec.r - k) if k < spec.r else None
            for y in all_elems(spec):
                x = ring.mul(pk, y)
                got = ring.elem(spec, int(ring.div_pi_power(spec, np.int64(x.code), k)))
                assert ring.mul(pk, got) == x
                if sub is not None:  # quotient determined mod pi^(r-k)
                    assert ring.proj(spec, sub, got) == ring.proj(spec, sub, y)
            pk = ring.mul(pk, pi)
        with pytest.raises(ValueError):
            ring.div_pi_power(spec, np.int64(1), 1)


# ------------------------------------------------------- additive characters


@pytest.mark.parametrize("name", ["z2:2", "z2:3", "f2t:2", "f2t:3", "f4t:2", "eis2:3", "eis2:4"])
def test_additive_character(name):
    spec = _spec(name)
    n = ring.psi_order(spec)
    x = np.arange(spec.size, dtype=np.int64)
    exps = ring.psi_exponent(spec, x)
    assert exps[0] == 0 and np.all((0 <= exps) & (exps < n))
    add = ring._vadd(spec, x[:, None], x[None, :])
    assert np.array_equal(exps[add], (exps[:, None] + exps[None, :]) % n)
    # order exactly n
    assert math.gcd(int(np.gcd.reduce(exps[exps > 0])), n) == 1
    # nontrivial on the last ideal layer pi^(r-1) o
    pi_top = ring.from_integer(spec, 0)
    p = ring.one(spec)
    for _ in range(spec.r - 1):
        p = ring.mul(p, ring.uniformizer(spec))
    socle = [ring.mul(p, y).code for y in all_elems(spec)]
    assert any(exps[c] for c in socle)
    # the pairing x -> psi(x * .) separates points
    mul = ring._vmul(spec, x[:, None], x[None, :])
    rows = {exps[mul[i]].tobytes() for i in range(spec.size)}
    assert len(rows) == spec.size
    # the scalar path agrees with the vectorized one
    for c in (0, 1, spec.size - 1):
        assert int(ring.psi_exponent(spec, c)) == exps[c]


def test_psi_order_values():
    assert ring.psi_order(ring.make_ring("z2", r=3)) == 8
    assert ring.psi_order(ring.make_ring("f2t", r=5)) == 2
    assert ring.psi_order(ring.make_ring("f4t", r=2)) == 2
    assert ring.psi_order(ring.make_ring("eis2", r=4)) == 4
    assert ring.psi_order(ring.make_ring("eis2", r=5)) == 8


# ------------------------------------------------------------------- encoding


@pytest.mark.parametrize("name", SMALL)
def test_encode_parse_round_trip(name):
    spec = _spec(name)
    for x in all_elems(spec):
        assert ring.parse_elem(spec, ring.encode_elem(x)) == x


def test_encoding_formats():
    assert ring.encode_elem(ring.elem(ring.make_ring("z2", r=3), 5)) == "5"
    assert ring.encode_elem(ring.elem(ring.make_ring("eis2", r=4), 5)) == "1+1*pi"
    assert ring.encode_elem(ring.elem(ring.make_ring("f4t", r=2), 6)) == "2,1"
