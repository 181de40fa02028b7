"""Field arithmetic and exact linear algebra.

The rank computations are cross-checked against an independent oracle:
rank of a matrix over GF(7) recomputed by brute-force search for the largest
non-vanishing minor (Laplace expansion), never touching the row-reduction
code under test.  ``SparseEchelon`` and everything ``Matrix`` and
``Subspace`` read from it are compared with the dense Gauss–Jordan loop of
``dense_reference``, which shares no code with the engine.  ``combine``,
``scaled``, ``Matrix.apply``, ``@``, ``+`` and ``-`` meet the dense sums
on zero-term, one-term and longer sums, columns that cancel included, with
coefficients 0, 1, -1, 2 and 1/2, and each result must be a new, zero-free
dict.
"""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.exactfield import (
    Matrix,
    PrimeField,
    RationalField,
    Subspace,
    SparseEchelon,
    combine,
    scaled,
    sparse,
)
from algebroids.specfile import SpecError, _Scalars
from dense_reference import (
    coords_in_span,
    dense,
    dense_apply,
    dense_combine,
    dense_matmul,
    dense_matrix_apply,
    dense_rref,
    dense_sum,
    dense_transpose,
    inverse,
    kernel_basis,
    kernel_scalars,
    solve_with_kernel,
    span_basis,
)

QQ = RationalField()
F7 = PrimeField(7)


def test_rational_field_basics():
    assert QQ.of(3) == Fraction(3)
    assert QQ.parse("2/3") == Fraction(2, 3)
    assert QQ.parse("-5") == Fraction(-5)
    assert QQ.zero == 0 and QQ.one == 1
    assert QQ.characteristic == 0
    assert QQ.name == "rational"
    assert QQ.fmt(Fraction(-1, 2)) == "-1/2"


def test_gf_arithmetic():
    a = F7.of(3)
    b = F7.of(5)
    assert (a + b).v == 1
    assert (a - b).v == 5
    assert (a * b).v == 1
    assert (a / b).v == (3 * pow(5, 5, 7)) % 7
    assert (-a).v == 4
    assert a ** 6 == F7.one
    assert not F7.zero
    assert a
    assert F7.parse("10") == F7.of(3)
    assert F7.parse("1/3") == F7.one / F7.of(3)
    assert F7.characteristic == 7


def test_gf_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F7.one / F7.zero


def test_gf_operands_of_another_modulus_still_raise():
    # same-modulus operands skip the lift; any other operand still takes it
    F11 = PrimeField(11)
    a, b = F7.of(3), F11.of(3)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="mixed moduli 7 and 11"):
            op(a, b)
        with pytest.raises(ValueError, match="mixed moduli 11 and 7"):
            op(b, a)
    assert not a == b and a != b and not b == a
    x = F7.of(3)
    assert 2 * x == x * 2 == F7.of(6)
    assert x + 1 == 1 + x == F7.of(4)
    assert x - 1 == F7.of(2)
    assert x == 3 and x == 10 and not x == 1 and F7.one == 1


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_gf_field_arithmetic_laws_random():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (F7.of(rng.randrange(7)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if b:
            assert (a / b) * b == a


def _mat(field, rows):
    return Matrix.from_rows(field, [tuple(field.of(x) for x in r)
                                    for r in rows], len(rows[0]))


def test_rref_frozen_example():
    m = _mat(QQ, [[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r = m.rref_pivots()[0]
    assert r.rows == _mat(QQ, [[1, 0, -1], [0, 1, 2], [0, 0, 0]]).rows
    assert m.rank() == 2


def test_kernel_frozen_example():
    m = _mat(QQ, [[1, 2, 3], [2, 4, 6]])
    k = m.kernel()
    assert k.dim == 2
    for v in k.sparse_basis():
        assert m.apply(v) == {}
    assert k.contains({0: QQ.of(-2), 1: QQ.one})
    assert k.contains({0: QQ.of(-3), 2: QQ.one})
    assert not k.contains({0: QQ.one})


def test_solve_and_inverse_frozen():
    m = _mat(QQ, [[2, 1], [5, 3]])
    inv = m.inverse()
    assert inv.rows == _mat(QQ, [[3, -1], [-5, 2]]).rows
    sol = m.solve({0: QQ.one})
    assert sol == {0: QQ.of(3), 1: QQ.of(-5)}
    assert m.solve({}) == {}
    singular = _mat(QQ, [[1, 2], [2, 4]])
    assert singular.inverse() is None
    assert singular.solve({1: QQ.one}) is None
    # consistent underdetermined system: canonical solution has free vars 0
    wide = _mat(QQ, [[1, 1, 0]])
    assert wide.solve({0: QQ.of(5)}) == {0: QQ.of(5)}
    # a right-hand side entry past the last row is refused
    for index in (1, -1):
        with pytest.raises(ValueError):
            wide.solve({index: QQ.one})


def test_solve_matrix_batch():
    m = _mat(QQ, [[2, 1], [5, 3]])
    rhs = _mat(QQ, [[1, 0], [0, 1]])
    x = m.solve_matrix(rhs)
    assert (m @ x).is_identity()
    bad = _mat(QQ, [[1, 2], [2, 4]]).solve_matrix(rhs)
    assert bad is None


def _det_laplace(m, rows, cols):
    if len(rows) == 1:
        return m.entry(rows[0], cols[0])
    total = m.field.zero
    sign = m.field.one
    for k, r in enumerate(rows):
        piv = m.entry(r, cols[0])
        if piv:
            sub = _det_laplace(m, rows[:k] + rows[k + 1:], cols[1:])
            total = total + sign * piv * sub
        sign = -sign
    return total


def _rank_by_minors(m):
    best = 0
    import itertools
    for size in range(1, min(m.nrows, m.ncols) + 1):
        found = False
        for rows in itertools.combinations(range(m.nrows), size):
            for cols in itertools.combinations(range(m.ncols), size):
                if _det_laplace(m, list(rows), list(cols)):
                    found = True
                    break
            if found:
                break
        if found:
            best = size
        else:
            break
    return best


def test_rank_against_minor_oracle_gf7():
    rng = random.Random(2024)
    for _ in range(25):
        rows = [[F7.of(rng.randrange(7)) for _ in range(5)]
                for _ in range(4)]
        m = Matrix.from_rows(F7, [tuple(r) for r in rows], 5)
        assert m.rank() == _rank_by_minors(m)


def test_matmul_associativity_random():
    rng = random.Random(11)
    for _ in range(20):
        a = Matrix.from_rows(F7, [tuple(F7.of(rng.randrange(7))
                                        for _ in range(3))
                                  for _ in range(2)], 3)
        b = Matrix.from_rows(F7, [tuple(F7.of(rng.randrange(7))
                                        for _ in range(4))
                                  for _ in range(3)], 4)
        c = Matrix.from_rows(F7, [tuple(F7.of(rng.randrange(7))
                                        for _ in range(2))
                                  for _ in range(4)], 2)
        assert ((a @ b) @ c).rows == (a @ (b @ c)).rows


def test_subspace_membership_and_coords():
    u = Subspace.from_vectors(QQ, 3, [
        {0: QQ.one, 2: QQ.one},
        {1: QQ.one, 2: QQ.one},
    ])
    assert u.dim == 2
    v = {0: QQ.of(2), 1: QQ.of(3), 2: QQ.of(5)}
    coords = u.coords_of(v)
    assert coords == {0: QQ.of(2), 1: QQ.of(3)}
    assert u.coords_of({1: QQ.one, 2: QQ.one}) == {1: QQ.one}
    assert u.coords_of({0: QQ.one}) is None


def test_sparse_echelon_matches_subspace():
    rng = random.Random(3)
    vecs = []
    ech = SparseEchelon(QQ, 6)
    for _ in range(8):
        v = tuple(QQ.of(rng.randrange(-3, 4)) for _ in range(6))
        vecs.append(v)
        ech.insert({i: x for i, x in enumerate(v) if x})
    basis = span_basis(QQ, 6, vecs)
    assert ech.rank == len(basis)
    for _ in range(20):
        w = tuple(QQ.of(rng.randrange(-3, 4)) for _ in range(6))
        in_span = coords_in_span(basis, QQ, w) is not None
        red = ech.reduce({i: x for i, x in enumerate(w) if x})
        assert in_span == (not red)


@st.composite
def insert_sequences(draw):
    """Sparse vectors over QQ or GF(7), a third of them single entries
    whose coefficient is seldom 1, so monomial pivot rows are stored and
    single-entry vectors land on them."""
    field = draw(st.sampled_from((QQ, F7)))
    ncols = draw(st.integers(1, 7))
    entries = st.lists(st.tuples(st.integers(0, ncols - 1),
                                 st.integers(-3, 3)), max_size=4)
    monomials = st.tuples(st.integers(0, ncols - 1),
                          st.sampled_from((1, -1, 2, 3))).map(lambda e: [e])
    vecs = draw(st.lists(st.one_of(entries, monomials, monomials),
                         max_size=10))
    return field, ncols, [{j: field.of(c) for j, c in vec if c}
                          for vec in vecs]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(insert_sequences())
def test_indexed_echelon_is_the_reduced_echelon_form(case):
    field, ncols, vecs = case
    ech = SparseEchelon(field, ncols)
    zero = field.zero
    dense = []
    for vec in vecs:
        rank = ech.rank
        grew = ech.insert(vec)
        dense.append(tuple(vec.get(j, zero) for j in range(ncols)))
        assert grew == (ech.rank > rank)
        assert ech.rank == len(span_basis(field, ncols, dense))
        holders = {}
        for p, row in ech.rows.items():
            assert row[p] == field.one
            for col in row:
                assert col == p or col not in ech.rows
                if col != p:
                    holders.setdefault(col, set()).add(p)
        assert ech.cols == holders
    assert tuple(tuple(ech.rows[p].get(j, zero) for j in range(ncols))
                 for p in ech.pivot_columns()) == span_basis(field, ncols,
                                                             dense)


@st.composite
def linear_systems(draw):
    """A matrix over QQ or GF(7), zero-row, wide, tall or square, with a
    right-hand side of up to three columns.  About half the rows hold a
    single entry, seldom 1, so eliminations store and reduce by monomial
    pivot rows."""
    field = draw(st.sampled_from((QQ, F7)))
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(1, 5))
    width = draw(st.integers(1, 3))
    # mostly small entries with many zeros, so ranks and kernels vary
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, 3))

    def row(m):
        if draw(st.booleans()):
            out = [0] * m
            out[draw(st.integers(0, m - 1))] = draw(
                st.sampled_from((1, -1, 2, 3)))
            return out
        return draw(st.lists(entry, min_size=m, max_size=m))

    def matrix(n, m):
        return Matrix(field, n, m, [tuple(field.of(x) for x in row(m))
                                    for _ in range(n)])

    return field, matrix(nrows, ncols), matrix(nrows, width)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(linear_systems())
def test_elimination_matches_the_dense_reference(case):
    field, m, rhs = case
    red, pivots = dense_rref(m)
    assert m.rref_pivots() == (red, pivots)
    assert m.rank() == len(pivots)
    kern = kernel_basis(m)
    assert m.kernel().basis.rows == kern
    assert m.kernel().dim == m.ncols - len(pivots)

    cols, ref_kern = solve_with_kernel(m, rhs)
    sol, got_kern = m.solve_matrix_kernel(rhs)
    if cols is None:
        assert sol is None and got_kern is None
        assert m.solve_matrix(rhs) is None
    else:
        assert sol.columns() == cols and got_kern.basis.rows == ref_kern
        assert m.solve_matrix(rhs) == sol
    first, _ = solve_with_kernel(m, Matrix.from_cols(field, [rhs.col(0)],
                                                     m.nrows))
    assert m.solve(sparse(rhs.col(0))) == (None if first is None
                                           else sparse(first[0]))

    assert m.inverse() == inverse(m)
    k = min(m.nrows, m.ncols)
    square = Matrix(field, k, k, [r[:k] for r in m.rows[:k]])
    assert square.inverse() == inverse(square)

    # coordinates in the row space: a combination of the rows lies inside,
    # a right-hand side column padded or cut to ncols may lie outside
    span = Subspace.from_vectors(field, m.ncols, m.sparse_rows())
    basis = span_basis(field, m.ncols, m.rows)
    assert span.basis.rows == basis
    inside = tuple(sum((c * a for c, a in zip(rhs.col(0), col)), field.zero)
                   for col in m.columns())
    outside = (rhs.col(0) + (field.one,) * m.ncols)[:m.ncols]
    for vec in (inside, outside):
        want = coords_in_span(basis, field, vec)
        assert span.coords_of(sparse(vec)) == (None if want is None
                                               else sparse(want))
        assert span.contains(sparse(vec)) == (want is not None)


@st.composite
def matrix_cases(draw):
    """Dense rows of an n × m matrix over QQ or GF(7), zero-row and
    zero-column shapes included, with a second n × m matrix, an m × k
    matrix, an n × w matrix, a vector of length m and a scalar."""
    field = draw(st.sampled_from((QQ, F7)))
    n, m, k, w = (draw(st.integers(0, 4)) for _ in range(4))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, 3))

    def rows(nr, nc):
        return tuple(tuple(field.of(x) for x in draw(
            st.lists(entry, min_size=nc, max_size=nc))) for _ in range(nr))

    return (field, n, m, k, w, rows(n, m), rows(n, m), rows(m, k),
            rows(n, w), rows(1, m)[0], field.of(draw(entry)))


def _is_clean(mat):
    """Every stored column is sparse, without zero entries."""
    return len(mat.cols) == mat.ncols and all(
        all(x for x in col.values()) and all(0 <= i < mat.nrows for i in col)
        for col in mat.cols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrix_cases())
def test_sparse_column_matrix_matches_dense_rows(case):
    field, n, m, k, w, rows, other, right, wide, vec, c = case
    zero, one = field.zero, field.one
    cols = dense_transpose(rows, m)
    # explicit zero entries handed to the sparse constructors are dropped
    padded_cols = [{**{i: zero for i in range(n)},
                    **{i: x for i, x in enumerate(col) if x}}
                   for col in cols]
    padded_rows = [{j: x for j, x in enumerate(row)} for row in rows]
    built = [Matrix(field, n, m, rows),
             Matrix.from_rows(field, rows, m),
             Matrix.from_cols(field, cols, n),
             Matrix.from_sparse_cols(field, padded_cols, n),
             Matrix.from_sparse_rows(field, padded_rows, m)]
    mat = built[0]
    for b in built:
        assert _is_clean(b)
        assert (b.nrows, b.ncols) == (n, m)
        assert b == mat and hash(b) == hash(mat)
        assert b.rows == rows
    assert [mat.col(j) for j in range(m)] == list(cols)
    assert mat.columns() == list(cols)
    assert all(mat.entry(i, j) == rows[i][j]
               for i in range(n) for j in range(m))
    assert mat.sparse_rows() == [{j: x for j, x in enumerate(row) if x}
                                 for row in rows]

    assert mat.apply(sparse(vec)) == sparse(dense_apply(field, rows, vec))

    # ``against`` cancels every even column of ``mat`` under +, and the
    # even rows of its odd columns; ``twin`` does the same under -
    against = tuple(tuple(-a if j % 2 == 0 or i % 2 == 0 else b
                          for j, (a, b) in enumerate(zip(r, o)))
                    for i, (r, o) in enumerate(zip(rows, other)))
    twin = tuple(tuple(-a for a in r) for r in against)
    results = {
        "matmul": (mat @ Matrix(field, m, k, right),
                   dense_matmul(field, rows, right, m, k)),
        "add": (mat + Matrix(field, n, m, other),
                dense_combine(rows, other, lambda a, b: a + b)),
        "sub": (mat - Matrix(field, n, m, other),
                dense_combine(rows, other, lambda a, b: a - b)),
        "sub-self": (mat - mat, tuple((zero,) * m for _ in range(n))),
        "add-cancel": (mat + Matrix(field, n, m, against),
                       dense_combine(rows, against, lambda a, b: a + b)),
        "sub-cancel": (mat - Matrix(field, n, m, twin),
                       dense_combine(rows, twin, lambda a, b: a - b)),
        "neg": (-mat, tuple(tuple(-a for a in r) for r in rows)),
        "scale": (mat.scale(c), tuple(tuple(c * a for a in r)
                                      for r in rows)),
        "transpose": (mat.transpose(), cols),
        "stack-cols": (Matrix.from_sparse_cols(
            field, mat.cols + Matrix(field, n, w, wide).cols, n),
            tuple(r + s for r, s in zip(rows, wide))),
    }
    for name, (got, want) in results.items():
        assert _is_clean(got), name
        assert got.rows == want, name
        assert got == Matrix.from_rows(field, want, got.ncols), name
        assert hash(got) == hash(Matrix.from_rows(field, want, got.ncols))

    assert (not any(mat.cols)) == all(not a for r in rows for a in r)
    ident = tuple(tuple(one if i == j else zero for j in range(m))
                  for i in range(n))
    assert mat.is_identity() == (n == m and rows == ident)
    assert Matrix.identity(field, n).is_identity()
    assert Matrix.identity(field, n).rows == tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n))
    assert not any(Matrix.zeros(field, n, m).cols)
    assert Matrix.zeros(field, n, m).rows == tuple((zero,) * m
                                                   for _ in range(n))


@st.composite
def combine_cases(draw):
    """(c, row) terms over QQ or GF(7) on a few shared indices, so that
    sums cancel: coefficients are 0, 1, -1, 2 and 1/2; a drawn term is
    sometimes followed by its negative."""
    field = draw(st.sampled_from((QQ, F7)))
    scalars = kernel_scalars(field)
    entries = st.sampled_from([x for x in scalars if x])
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.dictionaries(st.integers(0, 3), entries, max_size=4))
        c = draw(st.sampled_from(scalars))
        terms.append((c, row))
        if draw(st.booleans()):
            terms.append((-c, row))
    return field, terms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(combine_cases())
def test_combine_matches_the_dense_sum(case):
    field, terms = case
    before = [dict(row) for _, row in terms]
    # the whole sum, and the zero-term and one-term sums it starts with
    for part in (terms, terms[:1], []):
        got = combine(iter(part))
        assert got == sparse(dense_sum(field, 4, part))
        assert all(got.values())
        assert all(got is not row for _, row in terms)
        got[4] = field.one
        assert [row for _, row in terms] == before
    for c, row in terms:
        got = scaled(c, row)
        assert got == sparse(dense_sum(field, 4, [(c, row)]))
        assert all(got.values()) and got is not row
        got[4] = field.one
        assert [row for _, row in terms] == before


@st.composite
def unit_apply_cases(draw):
    """An n × m matrix over QQ or GF(7) with entries 0, 1, -1, 2 and 1/2,
    an m × k matrix whose columns have 0, 1 or several entries, and sparse
    vectors of length m with 0, 1 or several entries, explicit zero
    coefficients among them."""
    field = draw(st.sampled_from((QQ, F7)))
    entry = st.sampled_from(kernel_scalars(field))
    n, m, k = draw(st.integers(0, 3)), draw(st.integers(1, 4)), \
        draw(st.integers(0, 3))

    def vector():
        size = draw(st.sampled_from((0, 1, 1, m)))
        return draw(st.dictionaries(st.integers(0, m - 1), entry,
                                    min_size=size, max_size=size))

    mat = Matrix(field, n, m, [[draw(entry) for _ in range(m)]
                               for _ in range(n)])
    right = Matrix.from_sparse_cols(field, [vector() for _ in range(k)], m)
    return field, mat, right, [vector() for _ in range(3)]


def _cols_of(mat):
    return [dict(col) for col in mat.cols]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(unit_apply_cases())
def test_unit_fast_paths_of_apply_match_the_dense_reference(case):
    # each result is zero-free and a new dict: writing into it changes no
    # column of either operand
    field, mat, right, vecs = case
    n, m = mat.nrows, mat.ncols
    cols, right_cols = _cols_of(mat), _cols_of(right)
    for vec in vecs:
        before = dict(vec)
        got = mat.apply(vec)
        assert got == sparse(dense_matrix_apply(mat, dense(field, m, vec)))
        assert all(got.values())
        got[n] = field.one
        assert _cols_of(mat) == cols and vec == before
    product = mat @ right
    assert _is_clean(product)
    assert product.rows == dense_matmul(field, mat.rows, right.rows, m,
                                        right.ncols)
    for col in product.cols:
        col[n] = field.one
    assert _cols_of(mat) == cols and _cols_of(right) == right_cols


@pytest.mark.parametrize("field", (QQ, F7), ids=("QQ", "GF7"))
def test_echelon_skips_explicit_zero_entries(field):
    zero, one = field.zero, field.one
    ech = SparseEchelon(field, 3)
    assert ech.insert({0: zero, 1: one})
    assert ech.rows == {1: {1: one}} and ech.cols == {}
    assert not ech.insert({0: zero, 2: zero})
    assert ech.rank == 1
    ech = SparseEchelon(field, 3)
    assert not ech.insert({2: zero}) and ech.rank == 0
    ech.insert({0: one})
    assert ech.reduce({0: zero, 2: one}) == {2: one}


@pytest.mark.parametrize("field", (QQ, F7), ids=("QQ", "GF7"))
def test_subspace_reads_explicit_zero_entries_as_absent(field):
    zero, one = field.zero, field.one
    u = Subspace.from_vectors(field, 3, [{0: one}])
    assert u.contains({2: zero}) and u.contains({})
    assert u.coords_of({0: one, 2: zero}) == {0: one}
    # a zero at a pivot column gives no zero coordinate
    assert u.coords_of({0: zero}) == {} == u.coords_of({0: zero, 1: zero})
    assert not u.contains({0: zero, 1: one})
    assert u.coords_of({0: zero, 1: one}) is None


# the integer fast path of ``RationalField.parse`` against ``Fraction``
PARSE_TEXTS = ("0", " 1 ", "+1", "-0", "007", "1/2", "1.5", "1_0", "1__0",
               "_1", "+-1", "", "\u0661")


@pytest.mark.parametrize("text", PARSE_TEXTS)
def test_rational_parse_reads_what_fraction_reads(text):
    try:
        want = Fraction(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            QQ.parse(text)
        assert str(got.value) == str(exc)
        with pytest.raises(SpecError) as refused:
            _Scalars(QQ).read(text, "x")
        assert str(refused.value) == f"x: bad scalar {text!r} ({exc})"
    else:
        got = QQ.parse(text)
        assert type(got) is Fraction and got == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(insert_sequences(), st.data())
def test_explicit_zero_padding_changes_no_echelon(case, data):
    field, ncols, vecs = case
    plain, padded = SparseEchelon(field, ncols), SparseEchelon(field, ncols)
    for vec in vecs:
        pad = data.draw(st.sets(st.integers(0, ncols - 1)))
        grew = padded.insert({**{j: field.zero for j in pad}, **vec})
        assert grew == plain.insert(vec)
        assert padded.rows == plain.rows and padded.cols == plain.cols
        assert padded.rank == plain.rank
        assert all(all(row.values()) for row in padded.rows.values())
