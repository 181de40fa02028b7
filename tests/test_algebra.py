"""Algebras, algebra maps, and tensor plumbing."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from algebroids.exactfield import Matrix, PrimeField, RationalField
from algebroids.algebra import (
    ANTI,
    HOM,
    Algebra,
    AlgebraMap,
    flip_tensor,
    opposite,
    separability_structure,
    sparse,
    tensor_apply,
    tensor_square_product,
    tensor_vec,
    verify_algebra,
    verify_map,
    verify_separability,
)
from algebroids.catalog import FiniteGroup, group_algebra, matrix_algebra

QQ = RationalField()
one = QQ.one


def _struct_of(A):
    return {(i, j, k): c for i in range(A.dim) for j in range(A.dim)
            for k, c in A.table[i][j].items()}


def test_from_struct_solves_unit():
    # kZ3 without a declared unit: the unit must be found automatically
    z3 = FiniteGroup.cyclic(3)
    B = group_algebra(z3, QQ)
    A = Algebra.from_struct(QQ, B.basis_names, _struct_of(B))
    assert A.unit == {0: one}
    assert A == B
    assert verify_algebra(A).passed


def test_from_struct_takes_a_dense_or_a_sparse_unit():
    B = group_algebra(FiniteGroup.cyclic(3), QQ)
    dense = Algebra.from_struct(QQ, B.basis_names, _struct_of(B),
                                unit=(1, 0, 0))
    given = Algebra.from_struct(QQ, B.basis_names, _struct_of(B),
                                unit={0: 1})
    assert dense == given == B
    assert dense.unit == {0: one}
    # a zero coefficient is not stored, in either form
    assert Algebra.from_struct(QQ, B.basis_names, _struct_of(B),
                               unit={0: 1, 2: 0}) == B
    # the corrupted unit of the benchmark, in both forms
    bad_dense = Algebra.from_struct(QQ, B.basis_names, _struct_of(B),
                                    unit=(one, one, QQ.zero))
    bad_sparse = Algebra.from_struct(QQ, B.basis_names, _struct_of(B),
                                     unit={0: one, 1: one})
    assert bad_dense == bad_sparse
    assert not verify_algebra(bad_dense).passed


@pytest.mark.parametrize("unit", [{3: 1}, {-1: 1}, (1, 0), (1, 0, 0, 0)])
def test_from_struct_rejects_a_unit_that_does_not_fit(unit):
    B = group_algebra(FiniteGroup.cyclic(3), QQ)
    with pytest.raises(ValueError):
        Algebra.from_struct(QQ, B.basis_names, _struct_of(B), unit=unit)


def test_from_struct_no_unit_raises():
    # the zero-multiplication algebra has no unit
    with pytest.raises(ValueError):
        Algebra.from_struct(QQ, ["x", "y"], {}, name="null")


def test_verify_algebra_catches_nonassociative():
    # e is a unit; x*x = y, x*y = e, y*x = 0 makes (xx)x = 0 but x(xx) = e
    struct = {(0, 0, 0): one,
              (0, 1, 1): one, (1, 0, 1): one,
              (0, 2, 2): one, (2, 0, 2): one,
              (1, 1, 2): one, (1, 2, 0): one}
    table = [[{} for _ in range(3)] for _ in range(3)]
    for (i, j, k), v in struct.items():
        table[i][j][k] = v
    A = Algebra(QQ, ["e", "x", "y"], tuple(tuple(r) for r in table),
                {0: one}, name="bad")
    rep = verify_algebra(A)
    failed = {c.check_id for c in rep.failures()}
    assert failed == {"assoc"}
    assoc = rep.find("assoc")
    assert assoc.certificates  # a witness triple is reported


def test_opposite_involution(m2):
    A = m2.total
    assert opposite(opposite(A)) == A
    aop = opposite(A)
    # e12 * e21 = e11 in M2; opposite has e21 *op e12 = e11
    v = aop.mul_vec({2: one}, {1: one})
    assert v == {0: one}


def test_opposite_is_built_once_and_undoes_itself(m2):
    A = m2.total
    aop = opposite(A)
    assert opposite(A) is aop and opposite(aop) is A
    assert (aop.name, opposite(aop).name) == ("M2^op", "M2")
    # a parsed k^op keeps its name: its opposite is k, and back again
    kop = Algebra.from_struct(QQ, ["1"], {(0, 0, 0): one}, name="k^op")
    assert opposite(kop).name == "k"
    assert opposite(opposite(kop)) is kop


def test_mult_matrices_agree_with_mul(m2):
    A = m2.total
    rng = random.Random(5)
    for _ in range(10):
        u = sparse(QQ.of(rng.randrange(-2, 3)) for _ in range(A.dim))
        v = sparse(QQ.of(rng.randrange(-2, 3)) for _ in range(A.dim))
        assert A.left_mult_matrix(u).apply(v) == A.mul_vec(u, v)
        assert A.right_mult_matrix(v).apply(u) == A.mul_vec(u, v)


def test_is_commutative(m2, kz3):
    # an algebra is commutative when it equals its opposite
    assert opposite(m2.total) != m2.total
    assert opposite(kz3.total) == kz3.total


def test_fmt_vec(kz2):
    A = kz2.total
    assert A.fmt_vec({0: one, 1: QQ.of(-2)}) == "1 + (-2)*g"
    assert A.fmt_vec({1: QQ.of(-2), 0: one}) == "1 + (-2)*g"
    assert A.fmt_vec({}) == "0"
    assert A.fmt_vec({1: QQ.parse("1/2")}) == "(1/2)*g"


def test_algebra_map_verify_hom_and_anti(m2):
    A = m2.total
    ident = AlgebraMap(A, A, Matrix.identity(QQ, A.dim), HOM, "id")
    assert verify_map(ident).passed
    transp = AlgebraMap(m2.total, m2.total, m2.S, ANTI, "S")
    assert transp.kind == ANTI
    assert verify_map(transp).passed
    # transpose is NOT an algebra hom on M2
    not_hom = transp.with_kind(HOM)
    rep = verify_map(not_hom)
    assert not rep.passed
    assert {c.check_id for c in rep.failures()} == {"map-mult"}


def test_algebra_map_compose_kinds(m2):
    # the transpose of M2 is an involution
    assert (m2.S @ m2.S).is_identity()


def test_map_inverse(m2):
    s = AlgebraMap(m2.total, m2.total, m2.S, ANTI, "S")
    sinv = s.inverse()
    assert (s.matrix @ sinv.matrix).is_identity()
    assert sinv.kind == ANTI


def test_tensor_apply_matches_componentwise():
    rng = random.Random(9)
    F = PrimeField(7)
    m1 = Matrix.from_rows(F, [tuple(F.of(rng.randrange(7)) for _ in range(2))
                              for _ in range(3)], 2)
    m2_ = Matrix.from_rows(F, [tuple(F.of(rng.randrange(7)) for _ in range(3))
                               for _ in range(2)], 3)
    for _ in range(10):
        u = sparse(F.of(rng.randrange(7)) for _ in range(2))
        v = sparse(F.of(rng.randrange(7)) for _ in range(3))
        w = tensor_vec(3, u, v)
        got = tensor_apply(m1, m2_, w)
        expect = tensor_vec(2, m1.apply(u), m2_.apply(v))
        assert got == expect


def test_flip_tensor_involution():
    rng = random.Random(4)
    v = sparse(QQ.of(rng.randrange(-5, 6)) for _ in range(6))
    flipped = flip_tensor(2, 3, v)
    assert flipped == {j * 2 + i: c for i in range(2) for j in range(3)
                       if (c := v.get(i * 3 + j))}
    assert flip_tensor(3, 2, flipped) == v


def test_tensor_square_product_unit(kz3):
    A = kz3.total
    d = A.dim
    unit = A.unit
    unit2 = tensor_vec(d, unit, unit)
    rng = random.Random(12)
    w = sparse(QQ.of(rng.randrange(-2, 3)) for _ in range(d * d))
    assert tensor_square_product(A, A, unit2, w) == w
    assert tensor_square_product(A, A, w, unit2) == w


def test_tensor_square_product_componentwise(kz2):
    A = kz2.total
    d = A.dim
    rng = random.Random(13)
    for _ in range(10):
        a, b, c, e = (sparse(QQ.of(rng.randrange(-2, 3)) for _ in range(d))
                      for _ in range(4))
        lhs = tensor_square_product(A, A, tensor_vec(d, a, b),
                                    tensor_vec(d, c, e))
        rhs = tensor_vec(d, A.mul_vec(a, c), A.mul_vec(b, e))
        assert lhs == rhs


def test_into_opposite_and_back(m2):
    A = m2.total
    s = m2.lb.s
    sop = s.into_opposite()
    assert sop.target is opposite(A)
    assert sop.kind == ANTI
    assert sop.matrix.rows == s.matrix.rows
    back = sop.from_opposite_source()
    assert back.kind == HOM
    assert back.source is opposite(s.source)


# ---------------------------------------------------------------------------
# the separability structure of the trace form

F7 = PrimeField(7)


def split_diagonal(n, field):
    """kⁿ in its basis of orthogonal idempotents."""
    return Algebra.from_struct(field, [f"d{i}" for i in range(n)],
                               {(i, i, i): 1 for i in range(n)},
                               name=f"k^{n}")


def transported(A, Q):
    """A in the basis e'_a = Σ_b Q_ba e_b, for an invertible Q."""
    Q_inv = Q.inverse()
    struct = {(a, b, k): c
              for a, u in enumerate(Q.cols) for b, v in enumerate(Q.cols)
              for k, c in Q_inv.apply(A.mul_vec(u, v)).items()}
    return Algebra.from_struct(A.field, A.basis_names, struct,
                               unit=Q_inv.apply(A.unit), name=A.name + "'")


SEPARABLE = {
    "k3": lambda f: split_diagonal(3, f),
    "M2": lambda f: matrix_algebra(2, f),
    "kS3": lambda f: group_algebra(FiniteGroup.symmetric(3), f),
}


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "GF7"])
@pytest.mark.parametrize("name", sorted(SEPARABLE))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_separability_structure_is_carried_along_a_change_of_basis(
        field, name, data):
    """ψ' = ψ∘Q and δ' = (Q⁻¹⊗Q⁻¹)δQ: the trace form does not see the
    basis, so the structure of the transported base is the transported
    structure, and it verifies."""
    A = SEPARABLE[name](field)
    n = A.dim
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=n, max_size=n))
    Q = Matrix.from_rows(field, [[field.of(x) for x in r] for r in rows], n)
    assume(Q.inverse() is not None)
    sep = separability_structure(A)
    moved = separability_structure(transported(A, Q))
    assert moved is not None
    assert verify_separability(moved).passed
    assert moved.psi == sep.psi @ Q
    Q_inv = Q.inverse()
    assert moved.delta.cols == tuple(
        tensor_apply(Q_inv, Q_inv, sep.delta.apply(c)) for c in Q.cols)


def test_separability_structure_of_split_diagonal_base_is_diagonal():
    sep = separability_structure(split_diagonal(3, QQ))
    assert sep.psi.rows == ((one, one, one),)
    assert sep.delta.cols == tuple({4 * i: one} for i in range(3))
    assert sep.idempotent() == [(i, {i: one}) for i in range(3)]


def test_separability_structure_refuses_a_degenerate_trace_form():
    upper = Algebra.from_struct(QQ, ("e11", "e12", "e22"),
                                {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1,
                                 (2, 2, 2): 1}, name="T2")
    dual_numbers = Algebra.from_struct(QQ, ("1", "x"),
                                       {(0, 0, 0): 1, (0, 1, 1): 1,
                                        (1, 0, 1): 1}, name="k[x]/x^2")
    assert separability_structure(upper) is None
    assert separability_structure(dual_numbers) is None
    # M₂ is separable over GF(2), but its trace form 2·tr vanishes there
    assert separability_structure(matrix_algebra(2, PrimeField(2))) is None


def test_separability_structure_refuses_a_casimir_other_than_one():
    # on an associative base an invertible G forces Σ e_a f_a = 1; a spec
    # can declare a non-associative table (x² = 0, xy = yx = 1, y² = y),
    # where G is invertible and Σ e_a f_a is not 1
    struct = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1,
              (2, 0, 2): 1, (1, 2, 0): 1, (2, 1, 0): 1, (2, 2, 2): 1}
    A = Algebra.from_struct(QQ, ("1", "x", "y"), struct, unit=(1, 0, 0))
    assert not verify_algebra(A).passed
    assert separability_structure(A) is None
