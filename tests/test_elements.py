"""Algebra elements: sparse vectors inside the package, dense tuples at its
boundary.

Inside the package an element is a sparse vector ``{index: scalar}``
without zero entries.  The kernels that compute with them,
``Algebra.mul_vec`` and ``times`` on both sides, ``Matrix.apply`` and
``Subspace.contains`` / ``coords_of``, are compared here with the dense
loops of ``dense_reference`` on the catalog algebras over ℚ and GF(7).  A
caller hands an element in as a dense coefficient tuple, and every public
entry point converts it once through ``Algebra.from_dense``, which rejects
a tuple of the wrong length.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.algebra import POST, PRE, times
from algebroids.catalog import all_fixtures
from algebroids.exactfield import (Matrix, PrimeField, RationalField,
                                   Subspace, sparse)
from algebroids.integrallab import (
    LEFT,
    integral_space,
    intpr_equivalences,
    lac_check,
    ls_antipode,
    ls_right,
    nondegeneracy,
    verify_bgdnd,
    verify_bgdnd_right,
)
from dense_reference import (coords_in_span, dense_matrix_apply,
                             dense_mul_vec, span_basis)

QQ = RationalField()
F7 = PrimeField(7)


@cache
def catalog_algebras(field):
    """The total and base algebras of every catalog fixture over ``field``."""
    out = {}
    for fx in all_fixtures(field):
        h = fx["hopf"]
        out[fx["name"]] = h.total
        out[f"{fx['name']} base"] = h.lb.base
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_element_kernels_match_the_dense_reference(data):
    field = data.draw(st.sampled_from((QQ, F7)))
    algebras = catalog_algebras(field)
    A = algebras[data.draw(st.sampled_from(sorted(algebras)))]
    field = A.field
    coeffs = st.sampled_from((0, 0, 0, 1, -1, 2, 3))

    def dense(n):
        return tuple(field.of(x) for x in data.draw(
            st.lists(coeffs, min_size=n, max_size=n)))

    u, v = dense(A.dim), dense(A.dim)
    got = A.mul_vec(sparse(u), sparse(v))
    assert got == sparse(dense_mul_vec(A, u, v))
    assert all(got.values())
    assert times(A, sparse(u), sparse(v), PRE) == got
    assert times(A, sparse(u), sparse(v), POST) == \
        sparse(dense_mul_vec(A, v, u))

    nrows = data.draw(st.integers(0, 4))
    m = Matrix(field, nrows, A.dim, [dense(A.dim) for _ in range(nrows)])
    got = m.apply(sparse(u))
    assert got == sparse(dense_matrix_apply(m, u))
    assert all(got.values())

    vectors = [dense(A.dim) for _ in range(data.draw(st.integers(0, 3)))]
    span = Subspace.from_vectors(field, A.dim, [sparse(x) for x in vectors])
    basis = span_basis(field, A.dim, vectors)
    inside = tuple(sum((c * x[i] for c, x in zip(u, vectors)), field.zero)
                   for i in range(A.dim))
    for vec in (u, inside):
        want = coords_in_span(basis, field, vec)
        assert span.coords_of(sparse(vec)) == (None if want is None
                                               else sparse(want))
        assert span.contains(sparse(vec)) == (want is not None)


# every public entry point that takes an element of the pair groupoid
# M2 (d = 4) from the caller
ENTRY_POINTS = {
    "Algebra.from_dense": lambda h, ell: h.total.from_dense(ell),
    "IntegralSpace.contains":
        lambda h, ell: integral_space(h, LEFT).contains(ell),
    "intpr_equivalences": intpr_equivalences,
    "nondegeneracy": nondegeneracy,
    "verify_bgdnd": lambda h, ell: verify_bgdnd(h.rb, ell),
    "lac_check": lambda h, ell: lac_check(h.rb, ell),
    "ls_antipode": lambda h, ell: ls_antipode(h.rb, ell),
    "verify_bgdnd_right": lambda h, ell: verify_bgdnd_right(h.lb, ell),
    "ls_right": lambda h, ell: ls_right(h.lb, ell),
}


@pytest.mark.parametrize("length", (3, 5))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_elements_of_the_wrong_length_are_refused(m2, entry, length):
    ell = (QQ.one,) * length
    with pytest.raises(ValueError, match=f"an element of M2 needs 4 "
                                         f"coefficients, got {length}"):
        ENTRY_POINTS[entry](m2, ell)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_sparse_elements_are_refused(m2, entry):
    # a mapping is not a dense tuple: read as one, only its keys would count
    ell = {0: QQ.of(5), 3: QQ.of(7)}
    with pytest.raises(ValueError, match="an element of M2 is given densely"):
        ENTRY_POINTS[entry](m2, ell)
