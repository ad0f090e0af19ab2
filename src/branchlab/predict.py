"""Closed-form branching predictions, valid at every level r.

Everything here is arithmetic in q, r, e and the centralizer determinant
size — no group enumeration — so predictions are available far beyond what
the verification pipeline can enumerate (r = 50 is fine).  The one exception
is min_dim_bound, whose value needs centralizer sizes: those come from
mat.centralizer's ring-level pair scan, still without touching GL2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import grp, mat, ring
from .mat import Mat2
from .ring import RingSpec

# rule tags, named by the hypotheses they encode
STABLE_SPLIT = "char0-stable-range"
ODD_UNIT = "char2-odd-unit-trace"
EVEN_NONSQUARE = "char2-even-nonsquare-trace"
EVEN_SQUARE = "char2-even-square-trace"
EVEN_UNIT = "char2-even-unit-trace"
NONUNIT_BOUNDS = "char2-nonunit-trace-bounds"
COSET_COUNT = "determinant-coset-count"


def n_r(spec: RingSpec) -> int:
    """Guaranteed constituent count for the distinguished nilpotent-trace orbit.

    Characteristic two: q^floor(l'/2).  Characteristic zero: 2 q^e when
    2e < l', else q^floor(l'/2).  This is the count of square roots of 1 in
    the level-l' unit group, which the coset space D_A realizes; see
    n_r_note() for the boundary l' = 2e.
    """
    if spec.r < 2:
        raise ValueError("n_r needs r >= 2")
    lp = spec.ell_prime
    if spec.char_two:
        return spec.q ** (lp // 2)
    if 2 * spec.e < lp:
        return 2 * spec.q**spec.e
    return spec.q ** (lp // 2)


def n_r_note(spec: RingSpec) -> str | None:
    """Flag the l' = 2e boundary, where two natural case splits disagree.

    The closed form above sides with the unit square-root count (which brute
    force confirms): q^(l'/2) at the boundary, not 2q^e.
    """
    if not spec.char_two and spec.r >= 2 and spec.ell_prime == 2 * spec.e:
        return (
            "boundary l' = 2e: the unit square-root count gives "
            f"q^(l'/2) = {spec.q ** (spec.ell_prime // 2)}; the alternative case "
            f"split 2q^e = {2 * spec.q ** spec.e} diverges here"
        )
    return None


@dataclass(frozen=True)
class Prediction:
    """Closed-form branching data for one trace class at one level."""

    kind: str
    q: int
    r: int
    trace_class: str  # "unit" | "nonunit"
    trace_square: bool | None  # meaningful for char-2 unit traces at even r
    dA: int | None  # |D_A| = (q-1) q^(l'-1) / |det C(A)| when determined
    delta_min: int
    delta_max: int | None  # None = no applicable upper bound
    dims_equal: bool  # constituent dimensions known to be all equal
    constituent_dim: int | None  # dim(rho)/delta when determined and dim(rho) given
    n_r: int
    n_r_note: str | None
    rules: tuple = field(default=())  # (tag, applies, hypothesis) triples

    def __post_init__(self):
        if self.delta_max is not None and self.delta_min > self.delta_max:
            raise ValueError("delta_min exceeds delta_max")
        if self.n_r < 1:
            raise ValueError("n_r must be at least 1")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "q": self.q,
            "r": self.r,
            "trace_class": self.trace_class,
            "trace_square": self.trace_square,
            "dA": self.dA,
            "delta_min": self.delta_min,
            "delta_max": self.delta_max,
            "dims_equal": self.dims_equal,
            "constituent_dim": self.constituent_dim,
            "n_r": self.n_r,
            "n_r_note": self.n_r_note,
            "rules": [
                {"rule": t, "applies": a, "hypothesis": h} for (t, a, h) in self.rules
            ],
        }


def _dA_value(spec: RingSpec, trace_class: str, det_cent: int | None) -> int | None:
    low_units = (spec.q - 1) * spec.q ** (spec.ell_prime - 1)
    if det_cent is not None:
        if low_units % det_cent:
            raise ValueError(f"|det C(A)| = {det_cent} does not divide (q-1)q^(l'-1) = {low_units}")
        dA = low_units // det_cent
        if trace_class == "unit" and dA != 1:
            raise ValueError("a unit trace forces |D_A| = 1; det_cent is inconsistent")
        return dA
    return 1 if trace_class == "unit" else None


def predict_branching(
    spec: RingSpec,
    trace_class: str,
    det_cent: int | None = None,
    A: Mat2 | None = None,
    *,
    trace_square: bool | None = None,
    dim_rho: int | None = None,
) -> Prediction:
    """Constituent-count bounds for Res_SL2 of a regular representation.

    trace_class is "unit" or "nonunit" (trace of A at level l').  det_cent is
    |det C_GL2(o_l')(A)|; passing A instead derives trace_class, det_cent and
    trace_square from it.  Unmet hypotheses lower a rule's `applies` flag
    rather than erroring, so the prediction degrades to the trivial bounds.
    """
    if spec.r < 2:
        raise ValueError("branching predictions need r >= 2")
    if A is not None:
        lp_spec = ring.truncate(spec, spec.ell_prime)
        if A.spec != lp_spec:
            raise ValueError("A must be over the level-l' quotient ring")
        if not mat.is_cyclic(A):
            raise ValueError("A must be cyclic")
        tr = mat.trace(A)
        trace_class = "unit" if ring.is_unit(tr) else "nonunit"
        if det_cent is None:
            det_cent = mat.centralizer_units(A)[1]
        if spec.char_two and ring.is_unit(tr):
            trace_square = int(tr.code) in set(map(int, ring.square_unit_codes(lp_spec)))
    if trace_class not in ("unit", "nonunit"):
        raise ValueError(f"unknown trace class {trace_class!r}")

    dA = _dA_value(spec, trace_class, det_cent)
    unit = trace_class == "unit"
    even = spec.r % 2 == 0
    rules = []
    lo, hi = 1, None
    dims_equal = False
    delta_known: int | None = None

    # every determinant coset contributes at least one constituent
    coset_applies = dA is not None
    rules.append((COSET_COUNT, coset_applies, "|D_A| known (unit trace or det_cent given)"))
    if coset_applies:
        lo = max(lo, dA)

    if not spec.char_two:
        hyp = f"char 0, r >= 4e+2 = {4 * spec.e + 2}, A cyclic"
        applies = spec.r >= 4 * spec.e + 2 and dA is not None
        rules.append((STABLE_SPLIT, applies, hyp))
        if applies:
            delta_known = dA
            dims_equal = True
    else:
        if unit and not even:
            rules.append((ODD_UNIT, True, "char 2, r odd, trace a unit"))
            delta_known = 1
            dims_equal = True
        elif unit and even:
            if trace_square is False:
                rules.append((EVEN_NONSQUARE, True, "char 2, r even, trace a unit and not a square"))
                delta_known = 1
                dims_equal = True
            elif trace_square is True:
                rules.append((EVEN_SQUARE, True, "char 2, r even, trace a unit square"))
                lo, hi = 1, 2
                dims_equal = True  # either irreducible or two halves of equal dimension
            else:
                rules.append((EVEN_UNIT, True, "char 2, r even, trace a unit (square class unknown)"))
                lo, hi = 1, 2
                dims_equal = True
        else:  # nonunit trace
            factor = 4 if even else spec.q**3
            hyp = f"char 2, trace in the maximal ideal, r {'even' if even else 'odd'}: |D_A| <= delta <= {factor}|D_A|"
            applies = dA is not None
            rules.append((NONUNIT_BOUNDS, applies, hyp))
            if applies:
                lo, hi = dA, factor * dA

    if delta_known is not None:
        lo = hi = delta_known
    cdim = None
    if dims_equal and delta_known is not None and dim_rho is not None:
        if dim_rho % delta_known:
            raise ValueError(f"dim(rho) = {dim_rho} is not divisible by delta = {delta_known}")
        cdim = dim_rho // delta_known

    return Prediction(
        kind=spec.short_name,
        q=spec.q,
        r=spec.r,
        trace_class=trace_class,
        trace_square=trace_square if (spec.char_two and unit and even) else None,
        dA=dA,
        delta_min=lo,
        delta_max=hi,
        dims_equal=dims_equal,
        constituent_dim=cdim,
        n_r=n_r(spec),
        n_r_note=n_r_note(spec),
        rules=tuple(rules),
    )


# ------------------------------------------------------------- size formulas


def centralizer_profile(spec: RingSpec, A: Mat2) -> dict:
    """Ring-level centralizer sizes for a cyclic A over o_l', at level r.

    Returns |C_GL2(o_r)(A~)| and |det C_GL2(o_l')(A)|, both read off
    mat.centralizer (the units of o[A~] and o[A]), and the derived
    |C_GL2(psi_A)| = |C(A~)| q^(2l) and |C_SL2(psi_A)| = |C(A~)| q^l / |det C(A)|.
    These identities are cross-checked against explicit stabilizers in the
    test suite.  ValueError for a non-cyclic A and beyond mat.centralizer's
    pair budget.
    """
    lp_spec = ring.truncate(spec, spec.ell_prime)
    if A.spec != lp_spec:
        raise ValueError("A must be over the level-l' quotient ring")
    comp = mat.companion_form(A).companion  # errors for non-cyclic A
    c_lift = len(mat.centralizer(mat.mat_lift(spec, comp))[0])
    det_cent = mat.centralizer_units(comp)[1]
    q, ell = spec.q, spec.ell
    c_psi = c_lift * q ** (2 * ell)
    num = c_lift * q**ell
    if num % det_cent:
        raise AssertionError("centralizer size formula did not divide evenly")
    return {
        "c_lift": c_lift,
        "det_cent": det_cent,
        "c_gl_psi": c_psi,
        "c_sl_psi": num // det_cent,
    }


def min_dim_bound(spec: RingSpec, A: Mat2) -> Fraction:
    """Lower bound |SL2(o_r)| / (q^2 |C_SL2(psi_A)|) for constituents over psi_[A].

    Hypotheses (errors when unmet): characteristic two, r > 2 odd, A cyclic
    over o_l' (checked by centralizer_profile) with trace in its maximal ideal.
    """
    if not spec.char_two:
        raise ValueError("min_dim_bound applies only in characteristic two")
    if spec.r <= 2 or spec.r % 2 == 0:
        raise ValueError("min_dim_bound needs odd r > 2")
    if ring.is_unit(mat.trace(A)):
        raise ValueError("min_dim_bound needs trace(A) in the maximal ideal")
    sizes = centralizer_profile(spec, A)
    return Fraction(grp.sl2_order(spec), spec.q**2 * sizes["c_sl_psi"])
