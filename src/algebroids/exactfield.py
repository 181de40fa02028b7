"""Exact scalars and dense linear algebra over the rationals or a prime field.

Everything downstream (axiom checks, quotient constructions, certificates)
depends on this arithmetic being exact, so floating point is never used.
Vectors are plain tuples of scalars; matrices are immutable row tuples.
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

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise ValueError("vstack column mismatch")
        return Matrix(self.field, self.nrows + other.nrows, self.ncols,
                      self.rows + other.rows)

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        return self == Matrix.identity(self.field, self.nrows)

    # -- elimination --------------------------------------------------------

    def rref_pivots(self):
        """Reduced row echelon form and its pivot columns (cached)."""
        if self._rref is not None:
            return self._rref
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            pivot_row = None
            for i in range(pr, self.nrows):
                if rows[i][pc]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            inv = self.field.one / rows[pr][pc]
            if inv != self.field.one:
                rows[pr] = [inv * a for a in rows[pr]]
            for i in range(self.nrows):
                if i != pr and rows[i][pc]:
                    c = rows[i][pc]
                    rows[i] = [a - c * b for a, b in zip(rows[i], rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.nrows:
                break
        result = (Matrix(self.field, self.nrows, self.ncols, rows), tuple(pivots))
        self._rref = result
        return result

    def rref(self):
        return self.rref_pivots()[0]

    def rank(self):
        return len(self.rref_pivots()[1])

    def kernel(self):
        """Null space {x : M x = 0} as a canonical Subspace."""
        return self._kernel_from(*self.rref_pivots())

    def _kernel_from(self, red, pivots):
        # ``red`` is a reduced echelon form whose first ncols columns are
        # this matrix's, with pivots ``pivots`` among them
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        zero = self.field.zero
        one = self.field.one
        basis = []
        for f in free:
            v = [zero] * self.ncols
            v[f] = one
            for i, pc in enumerate(pivots):
                v[pc] = -red.rows[i][f]
            basis.append(tuple(v))
        return Subspace.from_vectors(self.field, self.ncols, basis)

    def solve(self, b):
        """One solution of M x = b (free variables zero), or None."""
        if len(b) != self.nrows:
            raise ValueError("rhs length mismatch")
        aug = self.hstack(Matrix.from_cols(self.field, [b], self.nrows))
        red, pivots = aug.rref_pivots()
        if pivots and pivots[-1] == self.ncols:
            return None
        zero = self.field.zero
        x = [zero] * self.ncols
        for i, pc in enumerate(pivots):
            x[pc] = red.rows[i][self.ncols]
        return tuple(x)

    def solve_matrix(self, rhs):
        """Solve M X = rhs column by column in one elimination; None if any fails."""
        return self.solve_matrix_kernel(rhs)[0]

    def solve_matrix_kernel(self, rhs):
        """``(solve_matrix(rhs), kernel())`` from the one elimination of
        [M | rhs], or ``(None, None)`` if any column fails: the reduced form
        is unique, so its first ncols columns are the reduced form of M."""
        if rhs.nrows != self.nrows:
            raise ValueError("rhs shape mismatch")
        aug = self.hstack(rhs)
        red, pivots = aug.rref_pivots()
        # rows past the pivots are zero, so a pivot in rhs is the only way
        # a column can fail
        if pivots and pivots[-1] >= self.ncols:
            return None, None
        zero = self.field.zero
        cols = []
        for j in range(rhs.ncols):
            x = [zero] * self.ncols
            for i, pc in enumerate(pivots):
                x[pc] = red.rows[i][self.ncols + j]
            cols.append(tuple(x))
        return (Matrix.from_cols(self.field, cols, self.ncols),
                self._kernel_from(red, pivots))

    def inverse(self):
        if self.nrows != self.ncols:
            return None
        aug = self.hstack(Matrix.identity(self.field, self.nrows))
        red, pivots = aug.rref_pivots()
        if len(pivots) != self.nrows or any(p >= self.nrows for p in pivots):
            return None
        rows = [r[self.nrows:] for r in red.rows]
        return Matrix(self.field, self.nrows, self.ncols, rows)


class Subspace:
    """A subspace of k^n held as its unique reduced-echelon basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient, basis, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        vectors = [tuple(v) for v in vectors]
        if not vectors:
            return cls(field, ambient, Matrix.zeros(field, 0, ambient), ())
        m = Matrix.from_rows(field, vectors, ambient)
        red, pivots = m.rref_pivots()
        rows = [red.rows[i] for i in range(len(pivots))]
        return cls(field, ambient, Matrix.from_rows(field, rows, ambient) if rows
                   else Matrix.zeros(field, 0, ambient), pivots)

    @property
    def dim(self):
        return self.basis.nrows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def reduce(self, vec):
        """Subtract off the basis span; result is zero iff vec is contained."""
        v = list(vec)
        for i, pc in enumerate(self.pivots):
            if v[pc]:
                c = v[pc]
                row = self.basis.rows[i]
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec):
        return vec_is_zero(self.reduce(vec))

    def coords_of(self, vec):
        """Coordinates of vec in the echelon basis, or None if outside."""
        coords = tuple(vec[pc] for pc in self.pivots)
        recon = [self.field.zero] * self.ambient
        for c, row in zip(coords, self.basis.rows):
            if c:
                recon = [a + c * b for a, b in zip(recon, row)]
        if tuple(recon) != tuple(vec):
            return None
        return coords


class SparseEchelon:
    """Incremental reduced echelon over sparse vectors (dict col -> scalar).

    Used for the relation spans of balanced tensor products, where each
    relation touches only a handful of coordinates.  The ambient dimension
    is d² for a tensor square of a d-dimensional algebra and q·d for a
    triple, which eliminates its second junction in the coordinates of its
    q-dimensional pair quotient tensored with the last factor; the full d³
    is never reached.  Rows are kept fully inter-reduced so reduction is a
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
        inv = self.field.one / r[p]
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

    def contains(self, vec):
        return not self.reduce(vec)

    def pivot_columns(self):
        return tuple(sorted(self.rows))

    def to_subspace(self):
        zero = self.field.zero
        dense = []
        for p in sorted(self.rows):
            row = self.rows[p]
            dense.append(tuple(row.get(j, zero) for j in range(self.ncols)))
        basis = (Matrix.from_rows(self.field, dense, self.ncols)
                 if dense else Matrix.zeros(self.field, 0, self.ncols))
        return Subspace(self.field, self.ncols, basis, self.pivot_columns())
