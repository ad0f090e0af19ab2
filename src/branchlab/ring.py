"""Finite quotients o_r = o/p^r of 2-adic discrete valuation rings.

Three kinds, all with residue characteristic 2:

* ``char0-unramified``  Z/2^r                       (q = 2, e = 1)
* ``char2-equal``       F_q[t]/(t^r), q in {2, 4}
* ``char0-eisenstein``  Z_2[pi]/(pi^2 - 2) mod pi^r (q = 2, e = 2)

Every element has a canonical integer code in [0, size).  Scalar arithmetic
runs on plain ints inside RingElem; the _v* kernels do the same arithmetic on
numpy arrays of codes and are what the group layer is built on.

A product in an f2t, f4t or eis2 ring of at most 64 elements, which covers
every GL2 within the default budget of 2^25 elements, is one gather from a
memoized table; z2 keeps its multiply-and-mask.  Codes must fit int64: the
kernels raise ValueError above z2/f2t/eis2 r = 63 and f4t r = 31.

Short CLI aliases: z2, f2t, f4t, eis2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

KIND_CHAR0 = "char0-unramified"
KIND_CHAR2 = "char2-equal"
KIND_EIS = "char0-eisenstein"

_ALIASES = {
    "z2": (KIND_CHAR0, 2),
    "f2t": (KIND_CHAR2, 2),
    "f4t": (KIND_CHAR2, 4),
    "eis2": (KIND_EIS, 2),
}

# F_4 = F_2[u]/(u^2+u+1) on codes 0,1,2,3 = 0,1,u,1+u. Addition is xor.
_MUL4 = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=np.int64)
_INV4 = np.array([0, 1, 3, 2], dtype=np.int64)
_INV4.setflags(write=False)
_TR4 = (0, 0, 1, 1)  # Tr(x) = x + x^2 down to F_2


@dataclass(frozen=True)
class RingSpec:
    """Immutable description of one truncated ring o_r."""

    kind: str
    q: int
    r: int

    def __post_init__(self):
        if self.kind not in (KIND_CHAR0, KIND_CHAR2, KIND_EIS):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.r < 1:
            raise ValueError("level r must be >= 1")
        if self.kind == KIND_CHAR2:
            if self.q not in (2, 4):
                raise ValueError("char2-equal supports q in {2, 4}")
        elif self.q != 2:
            raise ValueError("char-zero kinds have residue field F_2")

    @property
    def ell(self):
        return (self.r + 1) // 2

    @property
    def ell_prime(self):
        return self.r // 2

    @property
    def e(self):
        """Ramification index over Z_2; None in equal characteristic."""
        if self.kind == KIND_CHAR0:
            return 1
        if self.kind == KIND_EIS:
            return 2
        return None

    @property
    def size(self):
        return self.q**self.r

    @property
    def char_two(self):
        return self.kind == KIND_CHAR2

    # eisenstein coordinate split: code = a + b << a_bits, a mod 2^ceil(r/2), b mod 2^floor(r/2)
    @property
    def _a_bits(self):
        return (self.r + 1) // 2

    @property
    def _b_bits(self):
        return self.r // 2

    @property
    def short_name(self):
        for k, v in _ALIASES.items():
            if v == (self.kind, self.q):
                return k
        raise AssertionError

    def __repr__(self):
        return f"RingSpec({self.short_name}, r={self.r})"


def make_ring(kind: str, q: int | None = None, r: int | None = None) -> RingSpec:
    """Build a RingSpec; kind may be a long name or a short alias like 'f4t'."""
    if kind in _ALIASES:
        k, qq = _ALIASES[kind]
        if q is not None and q != qq:
            raise ValueError(f"alias {kind} fixes q = {qq}")
        q = qq
        kind = k
    if q is None or r is None:
        raise ValueError("q and r are required")
    return RingSpec(kind, q, r)


@dataclass(frozen=True)
class RingElem:
    spec: RingSpec
    code: int

    def __post_init__(self):
        if not 0 <= self.code < self.spec.size:
            raise ValueError(f"code {self.code} out of range for {self.spec}")

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return add(self, neg(other))

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"<{encode_elem(self)} in {self.spec.short_name} r={self.spec.r}>"


def elem(spec: RingSpec, code: int) -> RingElem:
    return RingElem(spec, int(code))


def zero(spec):
    return RingElem(spec, 0)


def one(spec):
    return RingElem(spec, 1)


def uniformizer(spec) -> RingElem:
    """pi: 2 for Z/2^r, t in equal characteristic, the ramified root for eisenstein."""
    if spec.kind == KIND_CHAR0:
        code = 2 % spec.size
    elif spec.kind == KIND_CHAR2:
        code = spec.q if spec.r > 1 else 0
    else:
        code = 1 << spec._a_bits if spec.r > 1 else 0
    return RingElem(spec, code)


def from_integer(spec, n: int) -> RingElem:
    """Image of the rational integer n in the ring."""
    if spec.kind == KIND_CHAR0:
        return RingElem(spec, n % spec.size)
    if spec.kind == KIND_EIS:
        return RingElem(spec, n % (1 << spec._a_bits))
    return RingElem(spec, n % 2)


def _check(x: RingElem, y: RingElem):
    if x.spec != y.spec:
        raise ValueError("ring mismatch")


# ---------------------------------------------------------------- vector kernels


def _vadd(spec, x, y):
    _check_width(spec)
    if spec.kind == KIND_CHAR0:
        return (x + y) & (spec.size - 1)
    if spec.kind == KIND_CHAR2:
        return x ^ y
    ab, bb = spec._a_bits, spec._b_bits
    am, bm = (1 << ab) - 1, (1 << bb) - 1
    a = ((x & am) + (y & am)) & am
    b = (((x >> ab) & bm) + ((y >> ab) & bm)) & bm
    return a | (b << ab)


def _vneg(spec, x):
    _check_width(spec)
    if spec.kind == KIND_CHAR0:
        return (-x) & (spec.size - 1)
    if spec.kind == KIND_CHAR2:
        return x if np.isscalar(x) else x.copy()
    ab, bb = spec._a_bits, spec._b_bits
    am, bm = (1 << ab) - 1, (1 << bb) - 1
    a = (-(x & am)) & am
    b = (-((x >> ab) & bm)) & bm
    return a | (b << ab)


# Largest ring with a product table: |GL2(o_r)| >= 3/8 size^4, so a GL2 within
# the default budget of 2^25 elements (grp.DEFAULT_BUDGET) has size <= 64.
_MUL_TABLE_MAX = 64


def _check_width(spec):
    if spec.size > 1 << 63:
        raise ValueError(f"{spec.short_name} r={spec.r}: codes of {spec.size.bit_length() - 1} bits do not fit int64")


def _vmul(spec, x, y):
    """x*y on codes; broadcasts, int64 out.

    f2t/f4t/eis2 rings of at most _MUL_TABLE_MAX = 64 elements, all that a GL2
    within the default budget needs, gather from _mul_table (32 KB at most);
    z2, whose multiply-and-mask a gather does not beat, and larger rings run
    _vmul_formula."""
    if spec.kind != KIND_CHAR0 and spec.size <= _MUL_TABLE_MAX:
        return _mul_table(spec)[x * spec.size + y]
    return _vmul_formula(spec, x, y)


@lru_cache(maxsize=None)
def _mul_table(spec):
    """Read-only int64 table with x*y at x * size + y, from _vmul_formula."""
    codes = np.arange(spec.size, dtype=np.int64)
    table = _vmul_formula(spec, codes[:, None], codes[None, :]).ravel()
    table.setflags(write=False)
    return table


def _vmul_formula(spec, x, y):
    """The product from the code layout of each kind; codes must fit int64."""
    _check_width(spec)
    if spec.kind == KIND_CHAR0:
        return (x * y) & (spec.size - 1)
    if spec.kind == KIND_CHAR2:
        r = spec.r
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=np.int64)
        if spec.q == 2:
            for i in range(r):
                out ^= (x << i) * ((y >> i) & 1)
            return out & (spec.size - 1)
        for i in range(r):
            di = (x >> (2 * i)) & 3
            for j in range(r - i):
                dj = (y >> (2 * j)) & 3
                out ^= _MUL4[di, dj] << (2 * (i + j))
        return out
    ab, bb = spec._a_bits, spec._b_bits
    am, bm = (1 << ab) - 1, (1 << bb) - 1
    a, b = x & am, (x >> ab) & bm
    c, d = y & am, (y >> ab) & bm
    # (a + b pi)(c + d pi) = ac + 2bd + (ad + bc) pi, using pi^2 = 2
    ra = (a * c + 2 * b * d) & am
    rb = (a * d + b * c) & bm
    return ra | (rb << ab)


# (shift, mask) steps of a bit spread: bit j of a code below 2^32 moves to bit 2j
_SPREAD = (
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)


def _vsquare(spec, x):
    """x*x; in characteristic two, the Frobenius route in O(log r) array passes.

    There (sum d_i t^i)^2 = sum d_i^2 t^(2i).  Only digits i < ceil(r/2)
    survive; on F_4 codes d^2 = d ^ (d >> 1) (it swaps u and 1+u), applied to
    all digits at once with one shift and mask.  Digit i of width w then moves
    to position 2i by the steps of _SPREAD that shift by w or more.  Exact for
    every code that fits int64 (f2t r <= 63, f4t r <= 31).
    """
    if spec.kind != KIND_CHAR2:
        return _vmul(spec, x, x)
    _check_width(spec)
    w = 1 if spec.q == 2 else 2
    n = w * ((spec.r + 1) // 2)  # bits of the surviving digits, at most 32
    y = np.asarray(x, dtype=np.int64) & ((1 << n) - 1)
    if w == 2:
        y = y ^ ((y >> 1) & 0x5555555555555555)
    for s, m in _SPREAD:
        if w <= s < n:  # a shift by n or more would leave y unchanged
            y = (y | (y << s)) & m
    return y & (spec.size - 1)


def _ctz(x):
    """Trailing-zero count of each code in one pass; 1025 for the code 0.

    x & -x isolates the lowest set bit.  Every power of two below 2^63
    converts to float64 exactly, and its biased exponent field is ctz + 1023;
    for 0 the field is 0, which wraps to 1025 under the mask.
    """
    low = np.asarray(x & -x, dtype=np.float64)
    return ((low.view(np.int64) >> 52) - 1023) & 2047


def _vval(spec, x):
    """Valuation vector with val(0) = r, from one trailing-zero count.

    z2/f2t: ctz(x).  f4t: ctz(x) // 2, the index of the lowest nonzero 2-bit
    digit.  eis2 (x = a + b pi, v(2) = 2): min(2 ctz(a), 2 ctz(b) + 1).  Each
    is clamped to r, which also maps the zero code to r.  Exact for every
    code that fits int64 (z2/f2t r <= 63, f4t r <= 31, eis2 r <= 63).
    """
    _check_width(spec)
    x = np.asarray(x)
    if spec.kind == KIND_EIS:
        ab, bb = spec._a_bits, spec._b_bits
        va = 2 * _ctz(x & ((1 << ab) - 1))
        vb = 2 * _ctz((x >> ab) & ((1 << bb) - 1)) + 1
        return np.minimum(np.minimum(va, vb), spec.r)
    shift = 1 if spec.q == 4 else 0
    return np.minimum(_ctz(x) >> shift, spec.r)


def _vinv(spec, x):
    """Newton inversion y <- y(2 - xy); caller guarantees units."""
    if spec.kind == KIND_CHAR2 and spec.q == 4:
        y = _INV4[x & 3]
    else:
        y = np.ones_like(np.asarray(x), dtype=np.int64)
    two = np.int64(0) if spec.kind == KIND_CHAR2 else np.int64(from_integer(spec, 2).code)
    prec = 1
    while prec < spec.r:
        y = _vmul(spec, y, _vadd(spec, two, _vneg(spec, _vmul(spec, x, y))))
        prec *= 2
    return y


def _vproj(spec, s_spec, x):
    if spec.kind != s_spec.kind or spec.q != s_spec.q or s_spec.r > spec.r:
        raise ValueError("projection needs the same kind and a lower level")
    if spec.kind == KIND_CHAR0:
        return x & (s_spec.size - 1)
    if spec.kind == KIND_CHAR2:
        w = 1 if spec.q == 2 else 2
        return x & ((1 << (w * s_spec.r)) - 1)
    ab, bb = spec._a_bits, spec._b_bits
    a, b = x & ((1 << ab) - 1), (x >> ab) & ((1 << bb) - 1)
    a2 = a & ((1 << s_spec._a_bits) - 1)
    b2 = b & ((1 << s_spec._b_bits) - 1)
    return a2 | (b2 << s_spec._a_bits)


# ---------------------------------------------------------------- scalar ops


def _code(x: RingElem) -> np.int64:
    """x's code for the kernels; ValueError, not OverflowError, when codes are wider than int64."""
    _check_width(x.spec)
    return np.int64(x.code)


# int64 scalars warn on overflow where arrays wrap silently: products from z2
# r = 32 and eis2 r = 62 on, sums at z2 r = 63.  Every kernel keeps only bits
# below the overflow, so the wrapped result is exact; this wraps silently too.
_wrapping = np.errstate(over="ignore")


@_wrapping
def add(x: RingElem, y: RingElem) -> RingElem:
    _check(x, y)
    return RingElem(x.spec, int(_vadd(x.spec, _code(x), _code(y))))


@_wrapping
def mul(x: RingElem, y: RingElem) -> RingElem:
    _check(x, y)
    return RingElem(x.spec, int(_vmul(x.spec, _code(x), _code(y))))


def neg(x: RingElem) -> RingElem:
    return RingElem(x.spec, int(_vneg(x.spec, _code(x))))


def val(x: RingElem) -> int:
    """pi-adic valuation, with val(0) = r."""
    return int(_vval(x.spec, _code(x)))


def is_unit(x: RingElem) -> bool:
    return val(x) == 0


@_wrapping
def inv(x: RingElem) -> RingElem:
    if not is_unit(x):
        raise ValueError(f"{x} is not a unit")
    return RingElem(x.spec, int(_vinv(x.spec, _code(x))))


def truncate(spec: RingSpec, s: int) -> RingSpec:
    """The level-s quotient of the same ring, s <= r."""
    if not 1 <= s <= spec.r:
        raise ValueError(f"truncation level {s} not in [1, {spec.r}]")
    return RingSpec(spec.kind, spec.q, s)


def proj(spec_r: RingSpec, spec_s: int | RingSpec, x: RingElem) -> RingElem:
    """Natural projection o_r -> o_s for s <= r (gamma on units)."""
    s_spec = spec_s if isinstance(spec_s, RingSpec) else truncate(spec_r, spec_s)
    if x.spec != spec_r:
        raise ValueError("element not in the source ring")
    return RingElem(s_spec, int(_vproj(spec_r, s_spec, _code(x))))


def _vlift(spec_to: RingSpec, spec_from: RingSpec, x):
    if spec_to.kind != spec_from.kind or spec_to.q != spec_from.q or spec_from.r > spec_to.r:
        raise ValueError("lift needs the same kind and a higher level")
    if spec_to.kind != KIND_EIS:
        return x  # codes are literal coordinates, already valid upstairs
    ab = spec_from._a_bits
    a, b = x & ((1 << ab) - 1), (x >> ab) & ((1 << spec_from._b_bits) - 1)
    return a | (b << spec_to._a_bits)


def lift(spec_to: RingSpec, x: RingElem) -> RingElem:
    """Coordinate-identity section of proj: proj(spec_to, x.spec, lift(x)) = x."""
    return RingElem(spec_to, int(_vlift(spec_to, x.spec, _code(x))))


def _vdiv_pi(spec, x):
    # one division by pi on codes; caller guarantees val >= 1
    if spec.kind == KIND_CHAR0:
        return x >> 1
    if spec.kind == KIND_CHAR2:
        return x >> (1 if spec.q == 2 else 2)
    ab = spec._a_bits
    a, b = x & ((1 << ab) - 1), x >> ab
    return b | ((a >> 1) << ab)  # (a + b*pi)/pi = b + (a/2)*pi


def div_pi_power(spec: RingSpec, x, k: int):
    """Codes of x / pi^k (vectorized); requires val(x) >= k.

    The quotient is only defined modulo pi^(r-k); this returns the canonical
    representative with vanishing top coordinates.
    """
    x = np.asarray(x, dtype=np.int64)
    for _ in range(k):
        if np.any(_vval(spec, x) < 1):
            raise ValueError("element not divisible by the requested pi power")
        x = _vdiv_pi(spec, x)
    return x


_TABLE_BUDGET = 1 << 22


def unit_codes(spec: RingSpec) -> np.ndarray:
    """Codes of the unit group, ascending, for rings small enough to enumerate."""
    if spec.size > _TABLE_BUDGET:
        raise ValueError(f"{spec} too large to enumerate ({spec.size} elements)")
    codes = np.arange(spec.size, dtype=np.int64)
    return codes[_vval(spec, codes) == 0]


def units(spec: RingSpec) -> list[RingElem]:
    return [RingElem(spec, int(c)) for c in unit_codes(spec)]


def unit_count(spec: RingSpec) -> int:
    return (spec.q - 1) * spec.q ** (spec.r - 1)


def square_unit_codes(spec: RingSpec) -> np.ndarray:
    return np.unique(_vsquare(spec, unit_codes(spec)))


def sqrt1_count(spec: RingSpec) -> int:
    """|{x unit : x^2 = 1}|, exhaustively when the ring is enumerable.

    Above the table budget, in characteristic two: there squaring is F_2-linear
    on the w r bits of a code (w = 1 for q = 2, 2 for q = 4) and x^2 = 1 iff
    (x+1)^2 = 0, so the count is the kernel size 2^(w r - rank), the rank taken
    over _vsquare of the basis codes 1 << j.  The tests force this branch and
    compare it with enumeration at every enumerable level.
    """
    if spec.size <= _TABLE_BUDGET:
        return int(np.count_nonzero(_vsquare(spec, unit_codes(spec)) == 1))
    if not spec.char_two:
        raise ValueError(f"{spec} too large to enumerate")
    bits = spec.size.bit_length() - 1
    pivots = {}  # bit length -> the one kept image of that length
    for v in _vsquare(spec, np.int64(1) << np.arange(bits, dtype=np.int64)).tolist():
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return 2 ** (bits - len(pivots))


# ---------------------------------------------------------------- additive character


def psi_order(spec: RingSpec) -> int:
    """Order of the root-of-unity values taken by psi."""
    if spec.kind == KIND_CHAR0:
        return spec.size
    if spec.kind == KIND_CHAR2:
        return 2
    return 1 << spec._a_bits


def psi_exponent(spec: RingSpec, x) -> "int | np.ndarray":
    """Exponent j with psi(x) = zeta_N^j, N = psi_order(spec). Vectorized.

    z2: psi(x) = zeta_{2^r}^x.  f2t/f4t: psi(x) = (-1)^{Tr(alpha a_{r-1})} with
    Tr(alpha) = 1 (alpha = u for q = 4 since Tr(1) = 0 there).  eis2:
    psi(a + b pi) = zeta_{2^l}^a zeta_{2^l'}^b.  All satisfy psi(pi^{r-1}) != 1.
    """
    if spec.kind == KIND_CHAR0:
        return x % spec.size
    if spec.kind == KIND_CHAR2:
        if spec.q == 2:
            return (x >> (spec.r - 1)) & 1
        top = (x >> (2 * (spec.r - 1))) & 3
        # alpha = u is code 2
        if np.isscalar(top) or np.ndim(top) == 0:
            return _TR4[int(_MUL4[2, int(top)])]
        t = _MUL4[2, top]
        return np.asarray(_TR4, dtype=np.int64)[t]
    ab, bb = spec._a_bits, spec._b_bits
    a, b = x & ((1 << ab) - 1), (x >> ab) & ((1 << bb) - 1)
    return (a + (b << (ab - bb))) & ((1 << ab) - 1)


# ---------------------------------------------------------------- text encoding


def encode_elem(x: RingElem) -> str:
    spec = x.spec
    if spec.kind == KIND_CHAR0:
        return str(x.code)
    if spec.kind == KIND_CHAR2:
        w = 1 if spec.q == 2 else 2
        digits = [(x.code >> (w * i)) & ((1 << w) - 1) for i in range(spec.r)]
        return ",".join(str(d) for d in digits)
    ab = spec._a_bits
    a, b = x.code & ((1 << ab) - 1), x.code >> ab
    return f"{a}+{b}*pi"


def parse_elem(spec: RingSpec, text: str) -> RingElem:
    text = text.strip()
    if spec.kind == KIND_CHAR0:
        return RingElem(spec, int(text) % spec.size)
    if spec.kind == KIND_CHAR2:
        w = 1 if spec.q == 2 else 2
        digits = [int(p) for p in text.split(",")]
        if len(digits) > spec.r or any(not 0 <= d < spec.q for d in digits):
            raise ValueError(f"bad element text {text!r}")
        return RingElem(spec, sum(d << (w * i) for i, d in enumerate(digits)))
    if "+" not in text:
        raise ValueError(f"bad element text {text!r}")
    a_s, b_s = text.split("+")
    b_s = b_s.replace("*pi", "")
    a = int(a_s) % (1 << spec._a_bits)
    b = int(b_s) % (1 << spec._b_bits)
    return RingElem(spec, a | (b << spec._a_bits))
