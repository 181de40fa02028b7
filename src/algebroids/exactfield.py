"""Exact scalars and linear algebra over the rationals or a prime field.

Everything downstream (axiom checks, quotient constructions, certificates)
depends on this arithmetic being exact, so floating point is never used.
Vectors, algebra elements among them, are sparse: dicts ``{index: scalar}``
without zero entries, and ``combine`` is the one kernel that sums them.
The sparse kernels here and in ``algebra`` keep one contract: rows come in
zero-free and results go out zero-free; a zero coefficient is skipped, a
coefficient equal to 1 copies its row without a product, and a result is
always a new dict, so no input row or table entry is shared or changed.
Sums on the paper's examples mostly have one term with coefficient 1, so
``scaled`` answers a one-term sum without setting up a merge.
Dense tuples of scalars appear only where data enters or leaves: ``sparse``
converts one, and ``Matrix`` takes and gives dense rows and columns through
its constructors, ``rows`` and ``col``; ``solve`` and ``Subspace.coords_of``
take and give sparse vectors.  A ``Matrix`` is
immutable and holds only its nonzero columns, each a sparse vector, so
products compose columns and the elimination reads sparse rows by
transposing them.  ``SparseEchelon`` is the
one elimination engine: reduced echelon forms, ranks, kernels, solutions,
inverses and ``Subspace`` membership are all read from it.  It keeps the
same contract: its rows are zero-free, each 1 at its pivot, and it never
changes a vector it is given.  The relations of the paper's balanced
tensor products are mostly monomial, so most of its rows are a single
entry ``{p: 1}``: ``reduce`` cancels an entry at such a pivot by deleting
it, and ``insert`` stores a single-entry vector as ``{p: 1}``, each with
no product, sum or division.  An explicit zero entry in a vector is
allowed: ``insert`` never stores it, ``reduce`` drops it at a pivot and
may keep it elsewhere, and ``Subspace`` reads it as absent.
"""

import re
from fractions import Fraction

_ASCII_INT = re.compile(r"[+-]?[0-9]+\Z").match


class RationalField:
    """The field of rationals; scalars are fractions.Fraction."""

    characteristic = 0
    name = "rational"
    # Fractions are immutable, so every QQ shares one zero and one one
    zero = Fraction(0)
    one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def parse(self, text):
        # an ASCII integer is read by ``int``, faster than ``Fraction``'s
        # own parser; any other text goes to ``Fraction``, which accepts
        # and refuses exactly what it always did
        text = text.strip()
        if _ASCII_INT(text):
            return Fraction(int(text))
        return Fraction(text)

    def fmt(self, x):
        return str(x)


class GFElement:
    """One residue in GF(p).  Arithmetic stays reduced mod p."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    # an operand of this class and modulus skips ``_lift``; any other takes
    # it, so mixed moduli still raise

    def __add__(self, other):
        if type(other) is GFElement and other.p == self.p:
            return GFElement(self.v + other.v, self.p)
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElement(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GFElement and other.p == self.p:
            return GFElement(self.v - other.v, self.p)
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElement(self.v - w, self.p)

    def __mul__(self, other):
        if type(other) is GFElement and other.p == self.p:
            return GFElement(self.v * other.v, self.p)
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElement(self.v * w, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        if w == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.v * pow(w, self.p - 2, self.p), self.p)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return GFElement(pow(self.v, n, self.p), self.p)

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if type(other) is GFElement:
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}"


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """GF(p) for a prime modulus p."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"gf:{p}"
        # residues are never mutated, so one zero and one one are shared
        self.zero = GFElement(0, p)
        self.one = GFElement(1, p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def of(self, x):
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise ValueError(f"mixed moduli {x.p} and {self.p}")
            return x
        if isinstance(x, int):
            return GFElement(x, self.p)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def parse(self, text):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.of(int(num)) / self.of(int(den))
        return GFElement(int(text), self.p)

    def fmt(self, x):
        return str(x.v)


# ---------------------------------------------------------------------------
# vectors are sparse dicts {index: scalar}, and the kernels keep them free of
# zero entries; a dense tuple is converted once, where it enters


def sparse(vec):
    """The nonzero entries ``{index: coefficient}`` of a dense vector."""
    return {k: x for k, x in enumerate(vec) if x}


def nonzero(vec):
    """A sparse vector without its zero entries."""
    return {k: x for k, x in vec.items() if x}


def scaled(c, row):
    """``c * row`` for a sparse vector ``row``, as a new dict: a copy of
    ``row`` when c is 1, without a product, and ``{}`` when c is 0."""
    if c == 1:
        return dict(row)
    if not c:
        return {}
    return {k: c * x for k, x in row.items()}


def combine(terms):
    """The nonzero entries of the sum of ``c * row`` over ``(c, row)`` pairs
    of sparse vectors ``{index: coefficient}``, as a new dict.

    Rows come in without zero entries.  A zero coefficient is skipped, and
    the first other term starts the sum as its ``scaled`` copy, so a
    one-term sum is that copy.  The remaining terms are merged: a row whose
    coefficient is 1 is added as it is, without a product, and a new index
    stores its value as it is, so no entry is ever added to a zero.  With c
    nonzero only a cancelled sum can leave a zero, and only then are zeros
    filtered out.  No input row is shared or changed.
    """
    terms = iter(terms)
    for c, row in terms:
        if c:
            out = scaled(c, row)
            break
    else:
        return {}
    cancelled = False
    for c, row in terms:
        if not c:
            continue
        for k, x in (row.items() if c == 1 else scaled(c, row).items()):
            old = out.get(k)
            if old is None:
                out[k] = x
            else:
                old += x
                out[k] = old
                if not old:
                    cancelled = True
    return nonzero(out) if cancelled else out


def unit_vector(field, n, i):
    one = field.one
    zero = field.zero
    return tuple(one if j == i else zero for j in range(n))


def _apply_cols(cols, vec):
    """The combination of the sparse columns ``cols`` named by the sparse
    vector ``vec`` ``{column: scalar}``: no column for an empty ``vec``, one
    ``scaled`` column for a single entry."""
    # kept: without one-entry paths a benchmark pass runs 11-14 % longer
    if len(vec) == 1:
        (j, x), = vec.items()
        return scaled(x, cols[j])
    if not vec:
        return {}
    return combine((x, cols[j]) for j, x in vec.items())


def require_field(field, x, what):
    """Raise a ValueError naming both fields unless ``x``, a matrix or an
    algebra, is over ``field``; ``what`` names ``x`` in the message."""
    if x.field != field:
        raise ValueError(f"{what} is over {x.field!r}, not over {field!r}")


class Matrix:
    """Immutable matrix over one exact field, held by its nonzero columns.

    ``cols[j]`` is column j as a sparse vector ``{row: scalar}`` without
    zero entries; no dense copy is kept.  ``rows``, ``col`` and ``columns``
    build dense tuples on read.  Shape is explicit so zero-row/zero-column
    matrices round-trip cleanly.
    """

    __slots__ = ("field", "nrows", "ncols", "cols", "_rref")

    def __init__(self, field, nrows, ncols, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("matrix shape mismatch")
        cols = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x:
                    cols[j][i] = x
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = tuple(cols)
        self._rref = None

    @classmethod
    def _of_cols(cls, field, nrows, cols):
        # ``cols`` are sparse columns without zero entries, owned by the result
        m = cls.__new__(cls)
        m.field = field
        m.nrows = nrows
        m.ncols = len(cols)
        m.cols = tuple(cols)
        m._rref = None
        return m

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        rows = [tuple(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("need ncols for an empty row list")
            ncols = len(rows[0])
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls._of_cols(field, n, [{i: one} for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls._of_cols(field, nrows, [{} for _ in range(ncols)])

    @classmethod
    def from_cols(cls, field, cols, nrows=None):
        cols = [tuple(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("need nrows for an empty column list")
            nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise ValueError("matrix shape mismatch")
        return cls._of_cols(field, nrows, [sparse(c) for c in cols])

    @classmethod
    def from_sparse_cols(cls, field, cols, nrows):
        """The matrix whose columns are the sparse vectors ``cols``
        (``{row: scalar}``); zero entries are dropped."""
        return cls._of_cols(field, nrows, [nonzero(c) for c in cols])

    @classmethod
    def from_sparse_rows(cls, field, rows, ncols):
        """The matrix whose rows are the sparse vectors ``rows``
        (``{column: scalar}``); zero entries are dropped."""
        cols = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                if x:
                    cols[j][i] = x
        return cls._of_cols(field, len(rows), cols)

    # -- basics -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols,
                     tuple(frozenset(c.items()) for c in self.cols)))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    @property
    def rows(self):
        """The rows as dense tuples."""
        return tuple(zip(*self.columns())) if self.ncols else \
            ((),) * self.nrows

    def sparse_rows(self):
        """The rows as sparse vectors ``{column: scalar}``: the columns
        transposed."""
        rows = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                rows[i][j] = x
        return rows

    def entry(self, i, j):
        return self.cols[j].get(i, self.field.zero)

    def col(self, j):
        """Column j as a dense tuple."""
        col = self.cols[j]
        zero = self.field.zero
        return tuple(col.get(i, zero) for i in range(self.nrows))

    def columns(self):
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self):
        return Matrix._of_cols(self.field, self.ncols, self.sparse_rows())

    def apply(self, vec):
        """Matrix-vector product of a sparse vector ``{column: scalar}``, as
        a sparse vector: the combination of the columns it names."""
        return _apply_cols(self.cols, vec)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("matrix composition shape/field mismatch")
        cols = self.cols
        return Matrix._of_cols(self.field, self.nrows,
                               [_apply_cols(cols, c) for c in other.cols])

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix addition shape mismatch")
        one = self.field.one
        return Matrix._of_cols(self.field, self.nrows,
                               [combine(((one, a), (one, b)))
                                for a, b in zip(self.cols, other.cols)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        return Matrix._of_cols(self.field, self.nrows,
                               [scaled(c, col) for col in self.cols])

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        one = self.field.one
        return all(len(c) == 1 and c.get(j) == one
                   for j, c in enumerate(self.cols))

    # -- elimination --------------------------------------------------------

    def _echelon(self, rhs_rows=(), width=0):
        """The SparseEchelon of the rows of [M | rhs]: row i of rhs is the
        sparse ``rhs_rows[i]`` ({column: scalar}, ``width`` columns),
        placed past column ncols."""
        n = self.ncols
        ech = SparseEchelon(self.field, n + width)
        for i, vec in enumerate(self.sparse_rows()):
            if width:
                for k, b in rhs_rows[i].items():
                    vec[n + k] = b
            if vec:
                ech.insert(vec)
        return ech

    def rref_pivots(self):
        """Reduced row echelon form and its pivot columns (cached)."""
        if self._rref is None:
            ech = self._echelon()
            pivots = ech.pivot_columns()
            self._rref = (Matrix.from_sparse_rows(
                self.field, [ech.rows[p] for p in pivots]
                + [{}] * (self.nrows - len(pivots)), self.ncols), pivots)
        return self._rref

    def rank(self):
        return len(self.rref_pivots()[1])

    def kernel(self):
        """Null space {x : M x = 0} as a canonical Subspace."""
        return self._kernel_from(self._echelon())

    def _kernel_from(self, ech):
        # ``ech`` is a reduced echelon form whose first ncols columns are
        # this matrix's and whose pivots all lie among them; free column f
        # gives the kernel vector e_f minus f's entries of the pivot rows
        one = self.field.one
        kern = SparseEchelon(self.field, self.ncols)
        for f in range(self.ncols):
            if f not in ech.rows:
                vec = {p: -ech.rows[p][f] for p in ech.cols.get(f, ())}
                vec[f] = one
                kern.insert(vec)
        return Subspace(self.field, self.ncols, kern)

    def _solve_rows(self, rhs_rows, width):
        """Solve M X = rhs, the right-hand side given by its sparse rows
        (``width`` columns), in one elimination of [M | rhs]: X (free
        variables zero) and the echelon, or None and the echelon if a
        column has no solution."""
        if len(rhs_rows) != self.nrows:
            raise ValueError("rhs shape mismatch")
        n = self.ncols
        ech = self._echelon(rhs_rows, width)
        rows = ech.rows
        # the rows are fully reduced, so a pivot in rhs is the only way a
        # column can fail; otherwise pivot row p holds row p of X
        if any(p >= n for p in rows):
            return None, ech
        cols = [{} for _ in range(width)]
        for p in sorted(rows):
            for c, a in rows[p].items():
                if c >= n:
                    cols[c - n][p] = a
        return Matrix._of_cols(self.field, n, cols), ech

    def solve(self, b):
        """One solution of M x = b (free variables zero) for a sparse ``b``
        ``{row: scalar}``, as a sparse vector, or None."""
        if any(not 0 <= i < self.nrows for i in b):
            raise ValueError("rhs index out of range")
        rhs = Matrix.from_sparse_cols(self.field, [b], self.nrows)
        x = self._solve_rows(rhs.sparse_rows(), 1)[0]
        return None if x is None else x.cols[0]

    def solve_matrix(self, rhs):
        """Solve M X = rhs column by column in one elimination; None if any fails."""
        return self._solve_rows(rhs.sparse_rows(), rhs.ncols)[0]

    def solve_matrix_kernel(self, rhs):
        """``(solve_matrix(rhs), kernel())`` from the one elimination of
        [M | rhs], or ``(None, None)`` if any column fails: the reduced form
        is unique, so its first ncols columns are the reduced form of M."""
        x, ech = self._solve_rows(rhs.sparse_rows(), rhs.ncols)
        if x is None:
            return None, None
        return x, self._kernel_from(ech)

    def inverse(self):
        # [M | I] has full row rank, so M is singular iff a pivot lands in I
        if self.nrows != self.ncols:
            return None
        one = self.field.one
        return self._solve_rows([{i: one} for i in range(self.nrows)],
                                self.nrows)[0]


class Subspace:
    """A subspace of k^n held as the SparseEchelon of its unique
    reduced-echelon basis."""

    __slots__ = ("field", "ambient", "echelon")

    def __init__(self, field, ambient, echelon):
        self.field = field
        self.ambient = ambient
        self.echelon = echelon

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        """The span of sparse vectors ``{index: scalar}``."""
        ech = SparseEchelon(field, ambient)
        for vec in vectors:
            if vec:
                ech.insert(vec)
        return cls(field, ambient, ech)

    @property
    def dim(self):
        return self.echelon.rank

    def sparse_basis(self):
        """The echelon basis as sparse vectors, in pivot order."""
        rows = self.echelon.rows
        return [rows[p] for p in self.echelon.pivot_columns()]

    @property
    def basis(self):
        """The echelon basis as the rows of a dim x ambient matrix."""
        return Matrix.from_sparse_rows(self.field, self.sparse_basis(),
                                       self.ambient)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.echelon.rows == other.echelon.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def contains(self, vec):
        """Whether the sparse vector ``{index: scalar}`` lies in the span;
        an explicit zero entry of ``vec`` counts as absent."""
        return not any(self.echelon.reduce(vec).values())

    def coords_of(self, vec):
        """Coordinates of the sparse vector ``vec`` in the echelon basis, as
        a sparse vector ``{basis index: scalar}`` without zero entries, or
        None if outside: each basis row is 1 at its pivot and 0 at the
        others."""
        if not self.contains(vec):
            return None
        return {k: vec[p] for k, p in enumerate(self.echelon.pivot_columns())
                if vec.get(p)}


class SparseEchelon:
    """Incremental reduced echelon over sparse vectors (dict col -> scalar).

    This is the package's one exact elimination engine: ``Matrix`` reads
    its reduced form, ranks, kernels, solutions and inverses from it,
    ``Subspace`` holds one, and the relation spans of balanced tensor
    products are built in it, each relation touching only a handful of
    coordinates.  There the ambient dimension is d² for a tensor square of
    a d-dimensional algebra and q·d for a triple, which eliminates its
    second junction in the coordinates of its q-dimensional pair quotient
    tensored with the last factor; the full d³ is never reached.  The
    pivot of a row is its first nonzero column, as in the reduced row
    echelon form.  Rows are kept fully inter-reduced so reduction is a
    single pass and the final basis is canonical.  ``cols`` indexes each
    non-pivot column to the pivots of the rows that hold it, so a new pivot
    back-reduces only the rows it occurs in.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = {}  # pivot column -> {column: scalar}, pivot coeff 1
        self.cols = {}  # non-pivot column -> set of pivots whose row holds it

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Return vec minus its projection onto the row span (sparse dict).

        A pivot row of one entry is ``{p: 1}``: it cancels ``v[p]`` whatever
        its value, so that entry is deleted with no product and no sum, as
        is an explicit zero at a pivot.  An explicit zero off the pivots is
        kept; ``Subspace`` drops it at its boundary."""
        v = dict(vec)
        rows = self.rows
        for p in [p for p in v if p in rows]:
            row = rows[p]
            c = v[p]
            if len(row) == 1 or not c:
                del v[p]
                continue
            c = -c
            for col, a in row.items():
                old = v.get(col)
                if old is None:
                    v[col] = c * a
                else:
                    old += c * a
                    if old:
                        v[col] = old
                    else:
                        del v[col]
        return v

    def insert(self, vec):
        """Add a vector to the span; True iff the rank grew.

        A reduced vector of one entry c at p is stored as ``{p: 1}`` with
        no division and no scaled copy, unless c is an explicit zero."""
        r = self.reduce(vec)
        # a zero entry of ``vec`` off the pivots survives ``reduce``: the
        # pivot is the first nonzero column, and no zero is stored
        if not r:
            return False
        if len(r) == 1:
            (p, c), = r.items()
            if not c:
                return False
            row = {p: self.field.one}
        else:
            p = min(r)
            c = r[p]
            if c == 1 and all(r.values()):
                row = r
            else:
                if not c:
                    r = nonzero(r)
                    if not r:
                        return False
                    p = min(r)
                    c = r[p]
                inv = self.field.one / c
                row = {k: inv * a for k, a in r.items() if a}
        cols = self.cols
        for q in cols.pop(p, ()):
            other = self.rows[q]
            c = -other.pop(p)
            for col, a in row.items():
                if col == p:
                    continue
                old = other.get(col)
                if old is None:
                    other[col] = c * a
                    cols.setdefault(col, set()).add(q)
                    continue
                old += c * a
                if old:
                    other[col] = old
                else:
                    del other[col]
                    holders = cols[col]
                    holders.discard(q)
                    if not holders:
                        del cols[col]
        for col in row:
            if col != p:
                cols.setdefault(col, set()).add(p)
        self.rows[p] = row
        return True

    def pivot_columns(self):
        return tuple(sorted(self.rows))
