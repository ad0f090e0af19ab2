"""Branching of regular representations: GL2 to SL2 over finite chain rings.

Modules, bottom to top:

- ring: arithmetic in the level-r quotients o_r of three 2-adic chain rings
  (integers mod 2^r, F_q[t]/t^r, and a ramified quadratic extension of Z_2).
- mat: 2x2 matrices over those rings; cyclicity, companion forms, centralizers.
- cyclo: exact cyclotomic integers in the power basis (values of characters).
- grp: enumerated GL2/SL2 tables, subgroups, conjugacy classes.
- chartab: exact class functions and character tables (eigenspace splitting
  over a finite field; a table is one ClassFunction stack, held by its caller,
  and a class function holds its group), induction/restriction/decomposition.
- clifford: the orbit characters psi_A, their stabilizers, the fiber
  Irr(C_GL2(psi_A) | psi_A), and the Mackey decomposition of restricted
  induced characters.
- predict: closed-form constituent-count bounds valid at every level.
- verify: the end-to-end pipeline behind the `branchlab` command.
"""

from . import chartab, clifford, cyclo, grp, mat, predict, ring, verify
from .chartab import (
    ClassFunction,
    decompose,
    dixon_table,
    induce,
    inner,
    restrict,
)
from .clifford import (
    H_group,
    h_set,
    inertia,
    mackey_restriction,
    make_psiA,
    phi_set,
)
from .grp import BudgetError, GroupTable, build_gl2, build_sl2, gl2_order, sl2_order
from .mat import Mat2, companion_form, is_cyclic
from .predict import Prediction, min_dim_bound, n_r, predict_branching
from .ring import RingElem, RingSpec, make_ring
from .verify import BranchReport, cli_main, find_regular, verify_branching

__version__ = "0.1.0"

__all__ = [
    "BranchReport",
    "BudgetError",
    "ClassFunction",
    "GroupTable",
    "H_group",
    "Mat2",
    "Prediction",
    "RingElem",
    "RingSpec",
    "build_gl2",
    "build_sl2",
    "chartab",
    "cli_main",
    "clifford",
    "companion_form",
    "cyclo",
    "decompose",
    "dixon_table",
    "find_regular",
    "gl2_order",
    "grp",
    "h_set",
    "induce",
    "inertia",
    "inner",
    "is_cyclic",
    "mackey_restriction",
    "make_psiA",
    "make_ring",
    "mat",
    "min_dim_bound",
    "n_r",
    "phi_set",
    "predict",
    "predict_branching",
    "restrict",
    "ring",
    "sl2_order",
    "verify",
    "verify_branching",
]
