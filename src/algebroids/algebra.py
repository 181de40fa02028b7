"""Finite-dimensional unital associative algebras presented by structure constants.

An Algebra fixes a distinguished basis, and an element is a sparse vector
``{index: coefficient}`` in that basis, without zero entries; the unit is
one too.  Dense coefficient tuples appear only at the boundary: a unit
given to ``from_struct`` as a tuple, ``basis_vec``, and the elements
callers pass in, each converted once by ``from_dense``.  Maps between
algebras are matrices tagged as multiplicative ("hom") or
anti-multiplicative ("anti"), which keeps source/target bookkeeping honest
when opposites get involved.
"""

from collections.abc import Mapping
from math import prod

from .exactfield import (
    Matrix,
    combine,
    nonzero,
    require_field,
    scaled,
    sparse,
    unit_vector,
)
from .report import Report, column_certificates

HOM = "hom"
ANTI = "anti"
# the side an element multiplies on: u e_i (pre) or e_i u (post)
PRE = "pre"
POST = "post"


class Algebra:
    """A unital associative algebra with a fixed basis.

    The multiplication table is stored sparsely: ``table[i][j]`` is a dict
    mapping a basis index ``k`` to the coefficient of ``e_k`` in ``e_i e_j``,
    and ``unit`` is the sparse element 1.
    """

    def __init__(self, field, basis_names, table, unit, name="A"):
        self.field = field
        self.dim = len(basis_names)
        self.basis_names = tuple(basis_names)
        self.table = table
        self.unit = unit
        self.name = name
        self._op = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_struct(cls, field, basis_names, struct, unit=None, name="A"):
        """Build from sparse structure constants {(i, j, k): scalar}.

        ``unit`` is a sparse element or a dense coefficient tuple; a
        ValueError is raised when it does not fit the basis.  If no unit is
        supplied, the (unique) two-sided unit is solved for; a ValueError is
        raised when none exists.
        """
        dim = len(basis_names)
        table = [[{} for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), val in struct.items():
            c = field.of(val)
            if c:
                table[i][j][k] = c
        table = tuple(tuple(row) for row in table)
        if unit is None:
            unit = cls._solve_unit(field, dim, table)
            if unit is None:
                raise ValueError(f"algebra {name!r} has no two-sided unit")
        else:
            if not isinstance(unit, Mapping):
                unit = tuple(unit)
                if len(unit) != dim:
                    raise ValueError("unit vector length mismatch")
                unit = dict(enumerate(unit))
            if any(not 0 <= k < dim for k in unit):
                raise ValueError("unit index out of range")
            unit = nonzero({k: field.of(x) for k, x in unit.items()})
        return cls(field, basis_names, table, unit, name)

    @staticmethod
    def _solve_unit(field, dim, table):
        # rows: for each j, k two equations sum_i u_i c_{ijk} = d_{jk} and
        # sum_i u_i c_{jik} = d_{jk}
        rows, rhs = [], {}
        for j in range(dim):
            for k in range(dim):
                if j == k:
                    rhs[len(rows)] = rhs[len(rows) + 1] = field.one
                rows.append({i: table[i][j][k] for i in range(dim)
                             if k in table[i][j]})
                rows.append({i: table[j][i][k] for i in range(dim)
                             if k in table[j][i]})
        return Matrix.from_sparse_rows(field, rows, dim).solve(rhs)

    # -- basics --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.table == other.table
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"Algebra({self.name!r}, dim {self.dim} over {self.field!r})"

    def basis_vec(self, i):
        """The dense coefficient tuple of e_i, for callers outside."""
        return unit_vector(self.field, self.dim, i)

    def from_dense(self, vec):
        """The element with the dense coefficient tuple ``vec``, given from
        outside the package; a ValueError if its length is not ``dim`` or if
        it is a mapping, which an element already is."""
        if isinstance(vec, Mapping):
            raise ValueError(f"an element of {self.name} is given densely, "
                             "not as a mapping")
        vec = tuple(vec)
        if len(vec) != self.dim:
            raise ValueError(f"an element of {self.name} needs {self.dim} "
                             f"coefficients, got {len(vec)}")
        return sparse(vec)

    def mul_vec(self, u, v):
        """Product of two elements, read from ``table``: the ``scaled``
        table entry when both have one entry."""
        table = self.table
        # kept: without one-entry paths a benchmark pass runs 11-14 % longer
        if len(u) == 1 and len(v) == 1:
            (i, a), = u.items()
            (j, b), = v.items()
            return scaled(a * b, table[i][j])
        return combine((a * b, table[i][j])
                       for i, a in u.items() for j, b in v.items())

    # -- formatting -----------------------------------------------------------

    def fmt_vec(self, vec):
        """Human-readable form of an element, e.g. ``e - 2*t``, its terms
        in basis order."""
        names = self.basis_names
        return fmt_terms(self.field, ((names[k], vec[k]) for k in sorted(vec)))


def opposite(algebra):
    """The opposite algebra: same space, reversed multiplication, built
    once; its opposite is ``algebra``.  Its name drops or appends ``^op``."""
    if algebra._op is None:
        name = algebra.name
        algebra._op = Algebra(
            algebra.field, algebra.basis_names, tuple(zip(*algebra.table)),
            algebra.unit, name[:-3] if name.endswith("^op") else name + "^op")
        algebra._op._op = algebra
    return algebra._op


def side_product(algebra, u, i, side):
    """The sparse element u times e_i (``pre``) or e_i times u (``post``),
    combined from the ``table`` entries of the coefficients of u: the one
    ``scaled`` entry when u has one entry."""
    table = algebra.table
    # kept: without one-entry paths a benchmark pass runs 11-14 % longer
    if len(u) == 1:
        (a, c), = u.items()
        return scaled(c, table[a][i] if side == PRE else table[i][a])
    if side == PRE:
        terms = ((c, table[a][i]) for a, c in u.items())
    else:
        terms = ((c, table[i][a]) for a, c in u.items())
    return combine(terms)


def times(algebra, u, x, side):
    """The product of two elements with u on ``side``: u·x (``pre``) or
    x·u (``post``)."""
    return algebra.mul_vec(u, x) if side == PRE else algebra.mul_vec(x, u)


def verify_algebra(algebra):
    """Check unit laws and associativity on all basis triples.

    Both laws are read from the structure constants ``table``.  Associativity
    is checked one basis pair (i, j) at a time, over every k at once, on
    vectors of A ⊗ A whose entry at k·d + n is a coefficient of e_n: with
    ``rows[m]`` holding the products e_m e_k for all k, (e_i e_j) e_• is
    one ``combine`` of the rows of e_i e_j, and e_i (e_j e_•) is
    ``rows[j]`` with e_i multiplied onto its second factor.  Only a failing
    pair is cut into its k-slices for the certificates, in (i, j, k) order.
    """
    rep = Report(f"algebra {algebra.name}")
    d = algebra.dim
    table = algebra.table
    names = algebra.basis_names
    unit = algebra.unit.items()

    bad = []
    for i in range(d):
        e = {i: algebra.field.one}
        if combine((c, table[m][i]) for m, c in unit) != e:
            bad.append(f"1*{names[i]} != {names[i]}")
        if combine((c, table[i][m]) for m, c in unit) != e:
            bad.append(f"{names[i]}*1 != {names[i]}")
    rep.add("unit", "two-sided unit law on basis", bad)

    # rows[m][k*d + n] = (e_m e_k)_n
    rows = [{k * d + n: x for k, prod_mk in enumerate(row_m)
             for n, x in prod_mk.items()} for row_m in table]
    bad = []
    for i in range(d):
        row_i = table[i]
        for j in range(d):
            lhs = combine((c, rows[m]) for m, c in row_i[j].items())
            rhs = map_at_factor((d, d), 1, rows[j], d, row_i.__getitem__)
            if lhs != rhs:
                bad.extend(_assoc_certificates(algebra, i, j, lhs, rhs))
    rep.add("assoc", "associativity on basis triples", bad)
    return rep


def _assoc_certificates(algebra, i, j, lhs, rhs):
    """The certificates of the basis triples (i, j, k) on which the pair
    vectors (e_i e_j) e_• and e_i (e_j e_•) of ``verify_algebra`` differ,
    in ascending k."""
    d = algebra.dim
    names = algebra.basis_names
    ni, nj = names[i], names[j]
    left = [{} for _ in range(d)]
    right = [{} for _ in range(d)]
    for vec, slices in ((lhs, left), (rhs, right)):
        for pos, x in vec.items():
            k, n = divmod(pos, d)
            slices[k][n] = x
    for k, nk in enumerate(names):
        if left[k] != right[k]:
            yield (f"({ni}*{nj})*{nk} = {algebra.fmt_vec(left[k])} but "
                   f"{ni}*({nj}*{nk}) = {algebra.fmt_vec(right[k])}")


class AlgebraMap:
    """A linear map between algebras tagged hom (multiplicative) or anti.

    The matrix sends source coordinates to target coordinates.
    """

    def __init__(self, source, target, matrix, kind=HOM, name="f"):
        if kind not in (HOM, ANTI):
            raise ValueError(f"map kind must be {HOM!r} or {ANTI!r}")
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValueError("map matrix shape mismatch")
        require_field(target.field, source, f"the source of {name}")
        require_field(target.field, matrix, f"the matrix of {name}")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.kind = kind
        self.name = name

    def apply(self, vec):
        return self.matrix.apply(vec)

    def is_bijective(self):
        return (self.source.dim == self.target.dim
                and self.matrix.rank() == self.source.dim)

    def inverse(self):
        inv = self.matrix.inverse()
        if inv is None:
            return None
        return AlgebraMap(self.target, self.source, inv, self.kind,
                          f"{self.name}^-1")

    def with_kind(self, kind, name=None):
        return AlgebraMap(self.source, self.target, self.matrix, kind,
                          name or self.name)

    def into_opposite(self):
        """The same linear map viewed into the opposite target algebra."""
        return AlgebraMap(self.source, opposite(self.target), self.matrix,
                          ANTI if self.kind == HOM else HOM, self.name)

    def from_opposite_source(self):
        """The same linear map viewed from the opposite source algebra."""
        return AlgebraMap(opposite(self.source), self.target, self.matrix,
                          ANTI if self.kind == HOM else HOM, self.name)

    def __eq__(self, other):
        return (isinstance(other, AlgebraMap)
                and self.source == other.source and self.target == other.target
                and self.matrix == other.matrix and self.kind == other.kind)

    def __repr__(self):
        arrow = "→" if self.kind == HOM else "→(anti)"
        return f"{self.name}: {self.source.name} {arrow} {self.target.name}"


def verify_map(f):
    """Check that f preserves the unit and is (anti)multiplicative on basis pairs."""
    rep = Report(f"map {f.name}")
    src, tgt = f.source, f.target

    img_one = f.apply(src.unit)
    rep.add("map-unit", f"{f.name}(1) = 1",
            [] if img_one == tgt.unit
            else [f"{f.name}(1) = {tgt.fmt_vec(img_one)}"])

    names = src.basis_names
    bad = [f"{f.name}({names[i]}*{names[j]}) = {tgt.fmt_vec(lhs)} but "
           f"expected {tgt.fmt_vec(rhs)}"
           for i, j, lhs, rhs in map_defects(f)]
    word = "multiplicative" if f.kind == HOM else "anti-multiplicative"
    rep.add("map-mult", f"{f.name} is {word} on basis pairs", bad)
    return rep


def map_defects(f):
    """The basis pairs on which f is not multiplicative, or not
    anti-multiplicative, as its kind says: (i, j, f(e_i e_j), the product
    of the images) for each, generated one at a time."""
    src, tgt = f.source, f.target
    # images of the source basis: the columns of the matrix
    images = f.matrix.cols
    for i in range(src.dim):
        row_i = src.table[i]
        for j in range(src.dim):
            lhs = combine((c, images[m]) for m, c in row_i[j].items())
            if f.kind == HOM:
                rhs = tgt.mul_vec(images[i], images[j])
            else:
                rhs = tgt.mul_vec(images[j], images[i])
            if lhs != rhs:
                yield i, j, lhs, rhs


def is_algebra_map(f):
    """True iff ``verify_map(f)`` passes: f(1) = 1 and f is multiplicative,
    or anti-multiplicative, as its kind says."""
    return f.apply(f.source.unit) == f.target.unit \
        and next(map_defects(f), None) is None


# ---------------------------------------------------------------------------
# tensor vectors are sparse: {index: coefficient} with no zero entries, the
# index of e_i ⊗ f_j being i*dimB + j (row-major over more factors)


def tensor_vec(dim_b, u, v):
    """The tensor u ⊗ v of two elements: (u ⊗ v)[i*dim_b + j] = u_i v_j."""
    return {i * dim_b + j: a * b for i, a in u.items() for j, b in v.items()}


def map_at_factor(dims, p, vec, out_dim, image):
    """Replace each basis vector e_i at tensor factor ``p`` of the sparse
    vector ``vec`` by ``image(i)``, a sparse vector on an
    ``out_dim``-dimensional factor.

    Only the entries of ``vec`` are visited, and ``image`` is called once
    for each i that occurs among them; an image, like every sparse vector,
    holds no zero entry.  Each entry x adds its image ``scaled`` by x: an
    entry 1 without a product, an explicit zero not at all.  As in
    ``combine``, the sum tracks cancellation and filters zeros out only
    when a sum has cancelled.
    """
    stride = prod(dims[p + 1:], start=1)
    block_in = dims[p] * stride
    block_out = out_dim * stride
    out = {}
    images = {}
    cancelled = False
    for pos, x in vec.items():
        blk, r = divmod(pos, block_in)
        i, t = divmod(r, stride)
        img = images.get(i)
        if img is None:
            img = images[i] = image(i)
        base = blk * block_out + t
        for k, c in (img.items() if x == 1 else scaled(x, img).items()):
            at = base + k * stride
            old = out.get(at)
            if old is None:
                out[at] = c
            else:
                old += c
                out[at] = old
                if not old:
                    cancelled = True
    return nonzero(out) if cancelled else out


def on_leg(m, leg, w):
    """The square matrix ``m`` applied to leg ``leg`` of the sparse
    tensor-square vector ``w``, the other leg kept."""
    d = m.ncols
    return map_at_factor((d, d), leg, w, d, m.cols.__getitem__)


def mult_at_factor(algebra, dims, p, vec, elem, side):
    """Multiply tensor factor ``p`` of the sparse vector ``vec`` by a fixed
    algebra element u, given as a sparse vector ``elem``, on one side:
    e_i at factor ``p`` becomes u e_i (``pre``) or e_i u (``post``), for
    each i that occurs in ``vec``.  The result is sparse.
    """
    if side not in (PRE, POST):
        raise ValueError(f"side must be {PRE!r} or {POST!r}")
    if algebra.dim != dims[p]:
        raise ValueError("algebra does not fit factor dimension")
    return map_at_factor(dims, p, vec, algebra.dim,
                         lambda i: side_product(algebra, elem, i, side))


def tensor_square_product(alg_a, alg_b, w1, w2):
    """Componentwise product on A ⊗ B: (a⊗b)(a'⊗b') = aa' ⊗ bb', of sparse
    vectors, read from both tables.

    Each pair of terms scales A's table entry by c1·c2 and each entry of
    that row scales B's, both by ``scaled``: a coefficient 1 costs no
    product, and an explicit zero entry of w1 or w2 adds nothing.  As in
    ``combine``, the sum tracks cancellation and filters zeros out only
    when a sum has cancelled.
    """
    db = alg_b.dim
    table_a, table_b = alg_a.table, alg_b.table
    terms2 = [divmod(idx, db) + (c,) for idx, c in w2.items()]
    out = {}
    cancelled = False
    for idx1, c1 in w1.items():
        i1, j1 = divmod(idx1, db)
        row_a = table_a[i1]
        row_b = table_b[j1]
        for i2, j2, c2 in terms2:
            c = c1 * c2
            prod_b = row_b[j2]
            prod_a = row_a[i2] if c == 1 else scaled(c, row_a[i2])
            for ka, ca in prod_a.items():
                base = ka * db
                for kb, cb in (prod_b.items() if ca == 1
                               else scaled(ca, prod_b).items()):
                    at = base + kb
                    old = out.get(at)
                    if old is None:
                        out[at] = cb
                    else:
                        old += cb
                        out[at] = old
                        if not old:
                            cancelled = True
    return nonzero(out) if cancelled else out


def tensor_apply(m1, m2, vec):
    """(m1 ⊗ m2)(vec) for a sparse vector of A⊗B (length m1.ncols *
    m2.ncols), applied one factor at a time from the matrices' columns;
    the result is sparse, of length m1.nrows * m2.nrows."""
    dims = (m1.ncols, m2.ncols)
    mid = map_at_factor(dims, 1, vec, m2.nrows, m2.cols.__getitem__)
    return map_at_factor((m1.ncols, m2.nrows), 0, mid, m1.nrows,
                         m1.cols.__getitem__)


def flip_tensor(dim_a, dim_b, vec):
    """Swap tensor factors of a sparse vector: e_i ⊗ f_j  ->  f_j ⊗ e_i."""
    return {(k % dim_b) * dim_a + k // dim_b: c for k, c in vec.items()}


def fmt_terms(field, terms):
    """Join (name, coefficient) pairs into ``a + 2*b - (1/2)*c``; zero
    coefficients are skipped and an empty sum is ``0``."""
    out = ""
    for name, c in terms:
        if not c:
            continue
        cs = field.fmt(c)
        if cs == "1":
            term = name
        elif cs == "-1":
            term = f"-{name}"
        elif "/" in cs or cs.startswith("-"):
            term = f"({cs})*{name}"
        else:
            term = f"{cs}*{name}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


def fmt_tensor_multi(algebras, vec):
    """Readable form of a sparse vector in A_1 ⊗ ... ⊗ A_m."""

    def name(idx):
        parts = []
        for a in reversed(algebras):
            idx, r = divmod(idx, a.dim)
            parts.append(a.basis_names[r])
        return "⊗".join(reversed(parts))

    return fmt_terms(algebras[0].field,
                     ((name(idx), vec[idx]) for idx in sorted(vec)))


# ---------------------------------------------------------------------------
# separability structures of a base: the projection P of ``bimodtensor`` and
# the weak Hopf bridge of ``twistlab`` read the same one


class SeparabilityStructure:
    """(L, k, δ, ψ): δ an L-bimodule splitting of the multiplication,
    ψ its counit.  δ is a matrix L → L⊗L, ψ a row vector."""

    def __init__(self, base, delta, psi):
        self.base = base
        self.field = base.field
        dl = base.dim
        if delta.nrows != dl * dl or delta.ncols != dl:
            raise ValueError("δ has the wrong shape")
        if psi.nrows != 1 or psi.ncols != dl:
            raise ValueError("ψ has the wrong shape")
        self.delta = delta
        self.psi = psi

    def idempotent(self):
        """δ(1) = Σ e_i ⊗ f_i grouped by its left leg, as (i, f_i) pairs
        in ascending i with each f_i sparse."""
        dl = self.base.dim
        legs = {}
        for idx, c in self.delta.apply(self.base.unit).items():
            i, j = divmod(idx, dl)
            legs.setdefault(i, {})[j] = c
        return sorted(legs.items())


def separability_structure(base):
    """The separability structure of ``base`` read from its regular trace
    ψ(x) = Tr(y ↦ xy), or None when it has none.

    With the Gram matrix G_ab = ψ(e_a e_b) and the dual basis
    f_a = Σ_b (G⁻¹)_ab e_b, e = Σ_a e_a ⊗ f_a and δ(l) = l·e.  None when G
    is singular (T₂ and k[x]/x², which are not separable, but also M₂ over
    GF(2), which is) or when Σ_a e_a f_a ≠ 1.  The structure does not
    depend on the basis: in another basis it is the same (δ, ψ)
    transported.
    """
    n = base.dim
    field = base.field
    table = base.table
    zero, one = field.zero, field.one
    # ψ(e_a) is the trace of left multiplication by e_a
    psi = [sum((table[a][j].get(j, zero) for j in range(n)), zero)
           for a in range(n)]

    def trace(u):
        return sum((c * psi[k] for k, c in u.items()), zero)

    gram = Matrix.from_sparse_cols(
        field, [nonzero({a: trace(table[a][b]) for a in range(n)})
                for b in range(n)], n)
    inv = gram.inverse()
    if inv is None:
        return None
    # G is symmetric, so column a of G⁻¹ holds the coordinates of f_a
    duals = inv.cols
    if combine((one, side_product(base, f, a, POST))
               for a, f in enumerate(duals)) != base.unit:
        return None
    cols = [combine((one, tensor_vec(n, table[c][a], f))
                    for a, f in enumerate(duals)) for c in range(n)]
    return SeparabilityStructure(
        base, Matrix.from_sparse_cols(field, cols, n * n),
        Matrix.from_rows(field, [tuple(psi)], n))


def verify_separability(sep):
    rep = Report(f"separability structure on {sep.base.name}")
    L = sep.base
    dl = L.dim
    one = sep.field.one

    # splitting: m∘δ = id
    rep.add("sep-splitting", "m∘δ = id", column_certificates(
        (combine((c, L.table[idx // dl][idx % dl]) for idx, c in col.items())
         for col in sep.delta.cols),
        ({j: one} for j in range(dl)), L.basis_names, L.fmt_vec, "{}"))

    # bimodule property: δ(l l') = l·δ(l') = δ(l)·l'
    dims = (dl, dl)
    bad = []
    for i in range(dl):
        for j in range(dl):
            target = sep.delta.apply(L.table[i][j])
            left = mult_at_factor(L, dims, 0, sep.delta.cols[j], {i: one},
                                  PRE)
            right = mult_at_factor(L, dims, 1, sep.delta.cols[i], {j: one},
                                   POST)
            if left != target or right != target:
                bad.append(f"l = {L.basis_names[i]}, "
                           f"l' = {L.basis_names[j]}")
    rep.add("sep-bimodule", "δ(l l') = l·δ(l') = δ(l)·l'", bad)

    rep.add("sep-counit", "(ψ⊗id)δ = id = (id⊗ψ)δ",
            _counit_failures(L, sep.delta, sep.psi))
    return rep


def _counit_failures(algebra, delta, counit):
    """The names of the basis elements b on which the counit law
    (id⊗ε)Δ = id = (ε⊗id)Δ fails, for a coproduct ``delta`` (d² × d) and a
    counit row ``counit`` (1 × d) on ``algebra``."""
    d = algebra.dim
    eps = counit.sparse_rows()[0]
    zero, one = algebra.field.zero, algebra.field.one
    bad = []
    for b, col in enumerate(delta.cols):
        terms = [divmod(idx, d) + (c,) for idx, c in col.items()]
        # keep the leg ``keep`` and apply ε to the other one
        if any(combine((c * eps.get(legs[1 - keep], zero), {legs[keep]: one})
                       for *legs, c in terms) != {b: one}
               for keep in (0, 1)):
            bad.append(algebra.basis_names[b])
    return bad
