"""Exact scalars and linear algebra over the rationals or a prime field.

Everything downstream (axiom checks, quotient constructions, certificates)
depends on this arithmetic being exact, so floating point is never used.
Vectors are plain tuples of scalars; matrices are immutable row tuples.
``SparseEchelon`` is the one elimination engine: reduced echelon forms,
ranks, kernels, solutions, inverses and ``Subspace`` membership are all
read from it.
"""

from fractions import Fraction


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
        return Fraction(text.strip())

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

    def __add__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElement(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElement(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElement(w - self.v, self.p)

    def __mul__(self, other):
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

    def __rtruediv__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(w * pow(self.v, self.p - 2, self.p), self.p)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.v == 0:
                raise ZeroDivisionError("division by zero in GF(p)")
            return GFElement(pow(self.v, -n * (self.p - 2), self.p), self.p)
        return GFElement(pow(self.v, n, self.p), self.p)

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, GFElement):
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


def field_from_name(name):
    """Build a field from its config string: "rational" or "gf:<p>"."""
    name = name.strip().lower()
    if name in ("rational", "qq", "q"):
        return RationalField()
    if name.startswith("gf:"):
        return PrimeField(int(name[3:]))
    raise ValueError(f"unknown field {name!r} (expected 'rational' or 'gf:p')")


# ---------------------------------------------------------------------------
# vectors are tuples; a few helpers keep call sites readable


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_is_zero(u):
    return not any(u)


def sparse(vec):
    """The nonzero entries ``{index: coefficient}`` of a dense vector."""
    return {k: x for k, x in enumerate(vec) if x}


def unit_vector(field, n, i):
    one = field.one
    zero = field.zero
    return tuple(one if j == i else zero for j in range(n))


class Matrix:
    """Immutable dense matrix over one exact field.

    Shape is explicit so zero-row/zero-column matrices round-trip cleanly.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_rref")

    def __init__(self, field, nrows, ncols, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("matrix shape mismatch")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self._rref = None

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
        return cls(field, n, n, [unit_vector(field, n, i) for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, nrows, ncols, [(z,) * ncols] * nrows)

    @classmethod
    def from_cols(cls, field, cols, nrows=None):
        cols = [tuple(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("need nrows for an empty column list")
            nrows = len(cols[0])
        rows = [tuple(c[i] for c in cols) for i in range(nrows)]
        return cls(field, nrows, len(cols), rows)

    @classmethod
    def from_sparse_cols(cls, field, cols, nrows):
        """The matrix whose columns are the sparse vectors ``cols``
        (``{row: scalar}``)."""
        rows = [[field.zero] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                rows[i][j] = x
        return cls(field, nrows, len(cols), rows)

    # -- basics -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def entry(self, i, j):
        return self.rows[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self):
        return Matrix(self.field, self.ncols, self.nrows,
                      [self.col(j) for j in range(self.ncols)])

    def apply(self, vec):
        """Matrix-vector product (vec has length ncols)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        terms = [(j, x) for j, x in enumerate(vec) if x]
        out = []
        zero = self.field.zero
        for row in self.rows:
            acc = zero
            for j, x in terms:
                a = row[j]
                if a:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("matrix composition shape/field mismatch")
        cols = [self.apply(other.col(j)) for j in range(other.ncols)]
        return Matrix.from_cols(self.field, cols, self.nrows)

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix addition shape mismatch")
        return Matrix(self.field, self.nrows, self.ncols,
                      [vec_add(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix subtraction shape mismatch")
        return Matrix(self.field, self.nrows, self.ncols,
                      [vec_sub(a, b) for a, b in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.field, self.nrows, self.ncols,
                      [vec_scale(-self.field.one, r) for r in self.rows])

    def scale(self, c):
        return Matrix(self.field, self.nrows, self.ncols,
                      [vec_scale(c, r) for r in self.rows])

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("hstack row mismatch")
        return Matrix(self.field, self.nrows, self.ncols + other.ncols,
                      [a + b for a, b in zip(self.rows, other.rows)])

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        return self == Matrix.identity(self.field, self.nrows)

    # -- elimination --------------------------------------------------------

    def _echelon(self, rhs_rows=(), width=0):
        """The SparseEchelon of the rows of [M | rhs]: row i of rhs is the
        sparse ``rhs_rows[i]`` ({column: scalar}, ``width`` columns),
        placed past column ncols."""
        n = self.ncols
        ech = SparseEchelon(self.field, n + width)
        for i, row in enumerate(self.rows):
            vec = sparse(row)
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
            rows = ech.dense_rows()
            rows += [(self.field.zero,) * self.ncols] * (self.nrows - len(rows))
            self._rref = (Matrix(self.field, self.nrows, self.ncols, rows),
                          ech.pivot_columns())
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
        (``width`` columns), in one elimination of [M | rhs]: the rows of
        X (free variables zero) and the echelon, or None and the echelon if
        a column has no solution."""
        if len(rhs_rows) != self.nrows:
            raise ValueError("rhs shape mismatch")
        n = self.ncols
        ech = self._echelon(rhs_rows, width)
        rows = ech.rows
        # the rows are fully reduced, so a pivot in rhs is the only way a
        # column can fail; otherwise pivot row p holds row p of X
        if any(p >= n for p in rows):
            return None, ech
        zero = self.field.zero
        free = (zero,) * width
        return [tuple(rows[p].get(c, zero) for c in range(n, n + width))
                if p in rows else free for p in range(n)], ech

    def solve(self, b):
        """One solution of M x = b (free variables zero), or None."""
        if len(b) != self.nrows:
            raise ValueError("rhs length mismatch")
        x = self._solve_rows([{0: v} if v else {} for v in b], 1)[0]
        return None if x is None else tuple(r[0] for r in x)

    def solve_matrix(self, rhs):
        """Solve M X = rhs column by column in one elimination; None if any fails."""
        return self.solve_matrix_kernel(rhs)[0]

    def solve_matrix_kernel(self, rhs):
        """``(solve_matrix(rhs), kernel())`` from the one elimination of
        [M | rhs], or ``(None, None)`` if any column fails: the reduced form
        is unique, so its first ncols columns are the reduced form of M."""
        x, ech = self._solve_rows([sparse(row) for row in rhs.rows],
                                  rhs.ncols)
        if x is None:
            return None, None
        return (Matrix(self.field, self.ncols, rhs.ncols, x),
                self._kernel_from(ech))

    def inverse(self):
        # [M | I] has full row rank, so M is singular iff a pivot lands in I
        if self.nrows != self.ncols:
            return None
        one = self.field.one
        x = self._solve_rows([{i: one} for i in range(self.nrows)],
                             self.nrows)[0]
        return None if x is None else Matrix(self.field, self.nrows,
                                             self.ncols, x)


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
        ech = SparseEchelon(field, ambient)
        for v in vectors:
            vec = sparse(v)
            if vec:
                ech.insert(vec)
        return cls(field, ambient, ech)

    @property
    def dim(self):
        return self.echelon.rank

    @property
    def basis(self):
        """The echelon basis as the rows of a dim x ambient matrix."""
        return Matrix(self.field, self.dim, self.ambient,
                      self.echelon.dense_rows())

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
        return not self.echelon.reduce(sparse(vec))

    def coords_of(self, vec):
        """Coordinates of vec in the echelon basis, or None if outside: each
        basis row is 1 at its pivot and 0 at the others."""
        if not self.contains(vec):
            return None
        return tuple(vec[p] for p in self.echelon.pivot_columns())


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
        """Return vec minus its projection onto the row span (sparse dict)."""
        v = dict(vec)
        rows = self.rows
        zero = self.field.zero
        for p in [p for p in v if p in rows]:
            c = v[p]
            if not c:
                continue
            for col, a in rows[p].items():
                newval = v.get(col, zero) - c * a
                if newval:
                    v[col] = newval
                else:
                    v.pop(col, None)
        return v

    def insert(self, vec):
        """Add a vector to the span; True iff the rank grew."""
        r = self.reduce(vec)
        if not r:
            return False
        p = min(r)
        one = self.field.one
        if r[p] == one:
            row = r
        else:
            inv = one / r[p]
            row = {c: inv * a for c, a in r.items()}
        zero = self.field.zero
        cols = self.cols
        for q in cols.pop(p, ()):
            other = self.rows[q]
            c = other.pop(p)
            for col, a in row.items():
                if col == p:
                    continue
                old = other.get(col)
                newval = (old or zero) - c * a
                if newval:
                    if old is None:
                        cols.setdefault(col, set()).add(q)
                    other[col] = newval
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

    def dense_rows(self):
        """The rows as dense tuples, in pivot order."""
        zero = self.field.zero
        out = []
        for p in sorted(self.rows):
            dense = [zero] * self.ncols
            for c, a in self.rows[p].items():
                dense[c] = a
            out.append(tuple(dense))
        return out
