"""Dense Gauss–Jordan elimination: the reference for the sparse engine.

The package eliminates only through ``SparseEchelon``.  The tests that check
that engine compare it with the plain dense pivot loop below, which shares
no code with it: ``dense_rref`` works on a row-major copy of a ``Matrix``
and returns its reduced row echelon form and pivot columns.  The other
helpers read kernel bases, solutions, inverses and coordinates from that
form.
"""

from algebroids.exactfield import Matrix


def dense_rref(matrix):
    """Reduced row echelon form of ``matrix`` and its pivot columns."""
    rows = [list(r) for r in matrix.rows]
    pivots = []
    pr = 0
    for pc in range(matrix.ncols):
        pivot_row = None
        for i in range(pr, matrix.nrows):
            if rows[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = matrix.field.one / rows[pr][pc]
        if inv != matrix.field.one:
            rows[pr] = [inv * a for a in rows[pr]]
        for i in range(matrix.nrows):
            if i != pr and rows[i][pc]:
                c = rows[i][pc]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == matrix.nrows:
            break
    return Matrix(matrix.field, matrix.nrows, matrix.ncols, rows), tuple(pivots)


def span_basis(field, ambient, vectors):
    """The reduced-echelon basis rows of the span of ``vectors``."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return ()
    red, pivots = dense_rref(Matrix.from_rows(field, vectors, ambient))
    return red.rows[:len(pivots)]


def kernel_basis(matrix):
    """The reduced-echelon basis rows of {x : M x = 0}."""
    red, pivots = dense_rref(matrix)
    return _kernel_rows(matrix, red, pivots)


def _kernel_rows(matrix, red, pivots):
    free = [j for j in range(matrix.ncols) if j not in pivots]
    field = matrix.field
    basis = []
    for f in free:
        v = [field.zero] * matrix.ncols
        v[f] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -red.rows[i][f]
        basis.append(tuple(v))
    return span_basis(field, matrix.ncols, basis)


def solve_with_kernel(matrix, rhs):
    """The solution columns of M X = rhs (free variables zero) and the
    kernel basis rows of M, or ``(None, None)`` if a column has no
    solution."""
    aug = Matrix(matrix.field, matrix.nrows, matrix.ncols + rhs.ncols,
                 [a + b for a, b in zip(matrix.rows, rhs.rows)])
    red, pivots = dense_rref(aug)
    if pivots and pivots[-1] >= matrix.ncols:
        return None, None
    cols = []
    for j in range(rhs.ncols):
        x = [matrix.field.zero] * matrix.ncols
        for i, pc in enumerate(pivots):
            x[pc] = red.rows[i][matrix.ncols + j]
        cols.append(tuple(x))
    return cols, _kernel_rows(matrix, red, pivots)


def inverse(matrix):
    """The inverse matrix, or None if ``matrix`` is singular or not square."""
    if matrix.nrows != matrix.ncols:
        return None
    cols, _ = solve_with_kernel(matrix, Matrix.identity(matrix.field,
                                                        matrix.nrows))
    return None if cols is None else Matrix.from_cols(matrix.field, cols,
                                                      matrix.nrows)


def coords_in_span(basis, field, vec):
    """Coordinates of ``vec`` in the reduced-echelon ``basis`` rows, or
    None if ``vec`` lies outside their span: the values at the pivots,
    checked by rebuilding ``vec`` from them."""
    pivots = [next(j for j, a in enumerate(row) if a) for row in basis]
    coords = tuple(vec[p] for p in pivots)
    recon = [field.zero] * len(vec)
    for c, row in zip(coords, basis):
        recon = [a + c * b for a, b in zip(recon, row)]
    return coords if tuple(recon) == tuple(vec) else None


# ---------------------------------------------------------------------------
# dense matrix arithmetic on row-major lists of rows, the reference for the
# sparse-column ``Matrix``


def dense_apply(field, rows, vec):
    return tuple(sum((a * x for a, x in zip(row, vec)), field.zero)
                 for row in rows)


def dense_matmul(field, left, right, inner, ncols):
    """The product of an n × inner and an inner × ncols row list."""
    return tuple(tuple(sum((row[k] * right[k][j] for k in range(inner)),
                           field.zero) for j in range(ncols))
                 for row in left)


def dense_combine(left, right, op):
    return tuple(tuple(op(a, b) for a, b in zip(r, s))
                 for r, s in zip(left, right))


def dense_transpose(rows, ncols):
    return tuple(tuple(row[j] for row in rows) for j in range(ncols))


# ---------------------------------------------------------------------------
# dense algebra elements, the reference for the sparse element kernels:
# the package multiplies and applies matrices to sparse vectors only


def dense_mul_vec(algebra, u, v):
    """The product of two dense coefficient tuples, read from ``table``."""
    out = [algebra.field.zero] * algebra.dim
    terms = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if not a:
            continue
        row = algebra.table[i]
        for j, b in terms:
            ab = a * b
            for k, c in row[j].items():
                out[k] = out[k] + ab * c
    return tuple(out)


def dense_sum(field, n, terms):
    """The dense tuple of length ``n`` of the sum of ``c * row`` over
    ``(c, row)`` pairs of sparse vectors, entry by entry."""
    out = [field.zero] * n
    for c, row in terms:
        for k, x in row.items():
            out[k] = out[k] + c * x
    return tuple(out)


def dense(field, n, vec):
    """The dense tuple of length ``n`` of a sparse vector ``{index: x}``."""
    return tuple(vec.get(i, field.zero) for i in range(n))


def dense_matrix_apply(matrix, vec):
    """``matrix`` times a dense vector of length ncols, as a dense tuple."""
    if len(vec) != matrix.ncols:
        raise ValueError("vector length mismatch")
    acc = {}
    for j, x in enumerate(vec):
        if x:
            for i, a in matrix.cols[j].items():
                old = acc.get(i)
                acc[i] = a * x if old is None else old + a * x
    zero = matrix.field.zero
    return tuple(acc.get(i, zero) for i in range(matrix.nrows))


# ---------------------------------------------------------------------------
# the coefficients the unit-aware kernels tell apart


def kernel_scalars(field):
    """0, 1, -1, 2 and 1/2 in ``field``: a skipped zero, a unit copied
    without a product, and three coefficients that need one."""
    one = field.one
    two = one + one
    return (field.zero, one, -one, two, one / two)
