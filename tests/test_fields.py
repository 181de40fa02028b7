"""Every constructor that takes matrices rejects one over another field.

A matrix over GF(11) on algebras over GF(7) would otherwise fail only by
chance, at its first product of two residues, or be compared entry by entry
and reported as a failing law: a verdict on ill-typed input.  Each
constructor raises a ValueError naming both fields instead.
"""

import pytest

from algebroids.algebra import HOM, AlgebraMap
from algebroids.catalog import (
    FiniteGroup,
    group_algebra,
    group_hopf_algebroid,
    group_weak_hopf,
)
from algebroids.exactfield import Matrix, PrimeField
from algebroids.hopfcore import HopfAlgebroid
from algebroids.twistlab import WeakHopfAlgebra

F7 = PrimeField(7)
F11 = PrimeField(11)
Z2 = FiniteGroup.cyclic(2)
WRONG = r"over GF\(11\), not over GF\(7\)"


def over_f11(m):
    """The matrix of the same residues, read in GF(11)."""
    return Matrix.from_sparse_cols(
        F11, [{i: F11.of(x.v) for i, x in col.items()} for col in m.cols],
        m.nrows)


def test_algebra_map_rejects_a_matrix_over_another_field():
    kz2 = group_algebra(Z2, F7)
    with pytest.raises(ValueError, match=WRONG):
        AlgebraMap(kz2, kz2, Matrix.identity(F11, 2), HOM, "id")
    with pytest.raises(ValueError, match=WRONG):
        AlgebraMap(group_algebra(Z2, F11), kz2, Matrix.identity(F7, 2),
                   HOM, "id")


@pytest.mark.parametrize("slot", ["gamma_lift", "counit"])
def test_bialgebroid_rejects_a_matrix_over_another_field(slot):
    lb = group_hopf_algebroid(Z2, F7).lb
    parts = {"gamma_lift": lb.gamma_lift, "counit": lb.counit}
    parts[slot] = over_f11(parts[slot])
    with pytest.raises(ValueError, match=WRONG):
        type(lb)(lb.total, lb.base, lb.s, lb.t, parts["gamma_lift"],
                 parts["counit"])


@pytest.mark.parametrize("slot", ["S", "S_inv"])
def test_hopf_algebroid_rejects_an_antipode_over_another_field(slot):
    h = group_hopf_algebroid(Z2, F7)
    parts = {"S": h.S, "S_inv": h.S_inv}
    parts[slot] = over_f11(parts[slot])
    with pytest.raises(ValueError, match=WRONG):
        HopfAlgebroid(h.lb, h.rb, parts["S"], parts["S_inv"])


@pytest.mark.parametrize("slot", ["delta", "counit", "antipode"])
def test_weak_hopf_algebra_rejects_a_matrix_over_another_field(slot):
    w = group_weak_hopf(Z2, F7)
    parts = {"delta": w.delta, "counit": w.counit, "antipode": w.antipode}
    parts[slot] = over_f11(parts[slot])
    with pytest.raises(ValueError, match=WRONG):
        WeakHopfAlgebra(w.algebra, parts["delta"], parts["counit"],
                        parts["antipode"])
