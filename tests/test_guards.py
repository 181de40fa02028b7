"""Constructor guards and ``__repr__``s: one malformed input per guard, with
the exact exception and message it raises, and one object per ``__repr__``.
"""

from fractions import Fraction

import pytest

from algebroids.algebra import HOM, PRE, POST, AlgebraMap, \
    SeparabilityStructure, mult_at_factor, nonzero
from algebroids.bialgebroid import LeftBialgebroid
from algebroids.bimodtensor import ActionSpec, BalancedTensorSpace, \
    Junction
from algebroids.catalog import (
    Character,
    FiniteGroup,
    group_hopf_algebroid,
    pair_groupoid_hopf_algebroid,
    pair_groupoid_weak_hopf,
)
from algebroids.dualspace import DualModule, LOWER_STAR
from algebroids.exactfield import (
    GFElement,
    Matrix,
    PrimeField,
    RationalField,
    SparseEchelon,
    Subspace,
)
from algebroids.integrallab import LEFT, Degenerate, integral_space
from algebroids.report import Report
from algebroids.twistlab import WeakHopfAlgebra
from dense_reference import zero_matrix

QQ = RationalField()
GF7 = PrimeField(7)
Z2 = FiniteGroup.cyclic(2)
KZ2 = group_hopf_algebroid(Z2, QQ)
KZ3 = group_hopf_algebroid(FiniteGroup.cyclic(3), QQ)
M2 = pair_groupoid_hopf_algebroid(2, QQ)
W2 = pair_groupoid_weak_hopf(2, QQ)
A, LB = KZ2.total, KZ2.lb
I2, I3 = Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)


def left(total=A, base=LB.base, s=LB.s, t=LB.t, gamma=LB.gamma_lift,
         counit=LB.counit):
    return LeftBialgebroid(total, base, s, t, gamma, counit)


def weak(delta=W2.delta, counit=W2.counit, antipode=W2.antipode):
    return WeakHopfAlgebra(W2.algebra, delta, counit, antipode)


def gf_with(op):
    return lambda: op(GF7.one, Fraction(1, 2))


def unsupported(op, right="Fraction"):
    return f"unsupported operand type(s) for {op}: 'GFElement' and '{right}'"


GUARDS = {
    # bialgebroid
    "bgd-base": (lambda: left(base=A), ValueError,
                 "source/target maps must start at the base"),
    "bgd-total": (lambda: left(total=LB.base), ValueError,
                  "source/target maps must land in the total algebra"),
    "bgd-source-kind": (lambda: left(s=LB.t), ValueError,
                        "source map must be declared multiplicative"),
    "bgd-target-kind": (lambda: left(t=LB.s), ValueError,
                        "target map must be declared anti-multiplicative"),
    "bgd-gamma-shape": (lambda: left(gamma=LB.counit), ValueError,
                        "coproduct lift must be a d^2 x d matrix"),
    "bgd-counit-shape": (lambda: left(counit=LB.gamma_lift), ValueError,
                         "counit must be a dim(base) x dim(total) matrix"),
    # bimodtensor
    "action-side": (lambda: ActionSpec(LB.s, "middle"), ValueError,
                    "action side must be 'pre' or 'post'"),
    "junction-base": (lambda: Junction(ActionSpec(M2.lb.s, POST),
                                       ActionSpec(LB.s, PRE)),
                      ValueError, "junction actions must share one base "
                      "algebra"),
    "junction-total": (lambda: Junction(ActionSpec(LB.s, POST),
                                        ActionSpec(KZ3.lb.s, PRE)),
                       ValueError, "junction actions must land in one total "
                       "algebra"),
    "mult-side": (lambda: mult_at_factor(A, (2, 2), 0, {}, {}, "middle"),
                  ValueError, "side must be 'pre' or 'post'"),
    "mult-dim": (lambda: mult_at_factor(A, (3, 3), 0, {}, {}, PRE),
                 ValueError, "algebra does not fit factor dimension"),
    "tensor-junctions": (lambda: BalancedTensorSpace([A, A], []), ValueError,
                         "need exactly one junction between adjacent "
                         "factors"),
    # algebra
    "map-kind": (lambda: AlgebraMap(A, A, I2, "iso"), ValueError,
                 "map kind must be 'hom' or 'anti'"),
    "map-shape": (lambda: AlgebraMap(A, A, I3), ValueError,
                  "map matrix shape mismatch"),
    "sep-delta": (lambda: SeparabilityStructure(M2.lb.base, I2, I2),
                  ValueError, "δ has the wrong shape"),
    "sep-psi": (lambda: SeparabilityStructure(
        M2.lb.base, zero_matrix(QQ, 4, 2), I2), ValueError,
        "ψ has the wrong shape"),
    # catalog
    "group-shape": (lambda: FiniteGroup("ab", [[0]]), ValueError,
                    "multiplication table has wrong shape"),
    "group-identity": (lambda: FiniteGroup("ab", [[1, 1], [1, 1]]),
                       ValueError, "no identity element"),
    "group-inverse": (lambda: FiniteGroup("ab", [[0, 1], [1, 1]]),
                      ValueError, "element b has no inverse"),
    "character-values": (lambda: Character(Z2, QQ, [QQ.one]), ValueError,
                         "one value per group element required"),
    "character-identity": (lambda: Character(Z2, QQ, [QQ.zero, QQ.zero]),
                           ValueError, "character vanishes at the identity"),
    # exactfield
    "qq-coerce": (lambda: QQ.of(1.5), TypeError, "cannot coerce 1.5 into QQ"),
    "qq-coerce-bool": (lambda: QQ.of(True), TypeError,
                       "cannot coerce True into QQ"),
    "gf-moduli": (lambda: GF7.one + GFElement(1, 5), ValueError,
                  "mixed moduli 7 and 5"),
    "gf-add": (gf_with(lambda a, b: a + b), TypeError, unsupported("+")),
    "gf-sub": (gf_with(lambda a, b: a - b), TypeError, unsupported("-")),
    "gf-mul": (gf_with(lambda a, b: a * b), TypeError, unsupported("*")),
    "gf-div": (gf_with(lambda a, b: a / b), TypeError, unsupported("/")),
    "gf-pow": (lambda: GF7.one ** "x", TypeError,
               unsupported("** or pow()", "str")),
    "gf-of-moduli": (lambda: GF7.of(GFElement(1, 5)), ValueError,
                     "mixed moduli 5 and 7"),
    "gf-coerce": (lambda: GF7.of(1.5), TypeError,
                  "cannot coerce 1.5 into GF(7)"),
    "gf-coerce-bool": (lambda: PrimeField(7).of(False), TypeError,
                       "cannot coerce False into GF(7)"),
    "matrix-rows": (lambda: Matrix(QQ, 2, 2, [(1, 0)]), ValueError,
                    "matrix shape mismatch"),
    "matrix-no-rows": (lambda: Matrix.from_rows(QQ, []), ValueError,
                       "need ncols for an empty row list"),
    "matrix-no-cols": (lambda: Matrix.from_cols(QQ, []), ValueError,
                       "need nrows for an empty column list"),
    "matrix-cols": (lambda: Matrix.from_cols(QQ, [(1,), (1, 2)]), ValueError,
                    "matrix shape mismatch"),
    "matrix-matmul-type": (lambda: I2 @ 3, TypeError,
                           "unsupported operand type(s) for @: 'Matrix' and "
                           "'int'"),
    "matrix-matmul": (lambda: I2 @ I3, ValueError,
                      "matrix composition shape/field mismatch"),
    "matrix-solve": (lambda: I2.solve({5: QQ.one}), ValueError,
                     "rhs index out of range"),
    "matrix-solve-matrix": (lambda: I2.solve_matrix(I3), ValueError,
                            "rhs shape mismatch"),
    # twistlab
    "weak-delta": (lambda: weak(delta=W2.antipode), ValueError,
                   "Δ has the wrong shape"),
    "weak-counit": (lambda: weak(counit=W2.antipode), ValueError,
                    "ε has the wrong shape"),
    "weak-antipode": (lambda: weak(antipode=W2.counit), ValueError,
                      "S has the wrong shape"),
    # integrallab
    "integral-parent": (lambda: integral_space(A, LEFT), TypeError,
                        "left integrals need a left bialgebroid (got "
                        "Algebra('k[Z2]', dim 2 over QQ))"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_guard_refuses_malformed_input(case):
    build, exc_type, message = GUARDS[case]
    with pytest.raises(Exception) as caught:
        build()
    assert type(caught.value) is exc_type
    assert str(caught.value) == message


REPRS = {
    "algebra": (lambda: A, "Algebra('k[Z2]', dim 2 over QQ)"),
    "algebra-map": (lambda: LB.s, "s: k → k[Z2]"),
    "algebra-map-anti": (lambda: LB.t, "t: k →(anti) k[Z2]"),
    "bialgebroid": (lambda: LB, "LeftBialgebroid('k[Z2]_L': k[Z2] over k)"),
    "tensor-space": (lambda: LB.tensor_space,
                     "BalancedTensorSpace(2 factors, total 4, quotient dim 4)"),
    "group": (lambda: Z2, "FiniteGroup(Z2, order 2)"),
    "dual-module": (lambda: DualModule(LB, LOWER_STAR),
                    "DualModule(lower-star, dim 2)"),
    "matrix": (lambda: I2, "Matrix(2x2 over QQ)"),
    "subspace": (lambda: Subspace.from_vectors(QQ, 3, [{0: QQ.one}]),
                 "Subspace(dim 1 of k^3)"),
    "hopf": (lambda: KZ2, "HopfAlgebroid('k[Z2]' on k[Z2])"),
    "degenerate": (lambda: Degenerate("ℓ_R is singular"),
                   "Degenerate('ℓ_R is singular')"),
    "report": (lambda: Report("empty"), "Report('empty', PASS, 0 checks)"),
    "weak-hopf": (lambda: W2, "WeakHopfAlgebra(W(M2), dim 4)"),
}


@pytest.mark.parametrize("case", sorted(REPRS))
def test_repr(case):
    build, text = REPRS[case]
    assert repr(build()) == text


def test_small_queries_outside_the_verifiers():
    # a bialgebroid stands for its own side; an absent check is None; equal
    # subspaces hash alike; an explicit zero entry reduces to nothing; a
    # singular map has no inverse
    assert integral_space(LB, LEFT).dim == integral_space(KZ2, LEFT).dim
    assert Report("empty").find("nope") is None
    span = [{0: QQ.one, 1: QQ.one}]
    assert hash(Subspace.from_vectors(QQ, 2, span)) == \
        hash(Subspace.from_vectors(QQ, 2, [{0: QQ.of(2), 1: QQ.of(2)}]))
    echelon = SparseEchelon(QQ, 2)
    echelon.insert({0: QQ.one})
    assert nonzero(echelon.reduce({0: QQ.zero, 1: QQ.one})) == {1: QQ.one}
    assert AlgebraMap(A, A, zero_matrix(QQ, 2, 2), HOM).inverse() is None
