"""Balanced tensor products of an algebra with itself over a base ring.

A junction between two adjacent tensor factors is a pair of base-ring actions
(a right action on the left factor, a left action on the right factor); the
balanced product is the quotient of the plain tensor power by the span of the
usual interchange relations.  Quotients are represented by the reduced echelon
form of the relation span, which fixes a canonical normal form, a canonical
coordinate system (values at non-pivot columns), and a canonical linear
section of the projection.
"""

from math import prod

from .exactfield import Matrix, SparseEchelon, unit_vector
from .algebra import HOM, ANTI, fmt_tensor_multi

PRE = "pre"
POST = "post"


class ActionSpec:
    """A base-ring action on the algebra by one-sided multiplication.

    ``amap`` is a map from the base to the total algebra and ``side`` says on
    which side its image multiplies: ``pre`` means b . a = amap(b) * a and
    ``post`` means a . b = a * amap(b).
    """

    def __init__(self, amap, side):
        if side not in (PRE, POST):
            raise ValueError(f"action side must be {PRE!r} or {POST!r}")
        self.amap = amap
        self.side = side

    @property
    def base(self):
        return self.amap.source

    @property
    def total(self):
        return self.amap.target

    def act_basis(self, base_idx, vec):
        """Act by the base basis element of index ``base_idx`` on ``vec``."""
        img = self.amap.apply(self.base.basis_vec(base_idx))
        if self.side == PRE:
            return self.total.mul_vec(img, vec)
        return self.total.mul_vec(vec, img)

    def act(self, base_vec, vec):
        img = self.amap.apply(base_vec)
        if self.side == PRE:
            return self.total.mul_vec(img, vec)
        return self.total.mul_vec(vec, img)

    def expects_kind(self, role):
        """The map kind a valid action of this shape requires.

        For a right action: pre-multiplication reverses products (anti),
        post-multiplication preserves them (hom).  For a left action it is
        the other way around.
        """
        if role == "right":
            return ANTI if self.side == PRE else HOM
        if role == "left":
            return HOM if self.side == PRE else ANTI
        raise ValueError(f"unknown action role {role!r}")


class Junction:
    """One balanced tensor sign between adjacent factors.

    ``right`` acts on the left-hand factor (as a right action), ``left`` acts
    on the right-hand factor (as a left action); both must share the same
    base.  Declared map kinds are validated against the action shape so a
    miswired junction fails fast instead of producing a meaningless quotient.
    """

    def __init__(self, right, left):
        if right.base != left.base:
            raise ValueError("junction actions must share one base algebra")
        if right.total != left.total:
            raise ValueError("junction actions must land in one total algebra")
        want = right.expects_kind("right")
        if right.amap.kind != want:
            raise ValueError(
                f"right action ({right.side}) requires a map of kind {want!r}, "
                f"got {right.amap.kind!r}")
        want = left.expects_kind("left")
        if left.amap.kind != want:
            raise ValueError(
                f"left action ({left.side}) requires a map of kind {want!r}, "
                f"got {left.amap.kind!r}")
        self.right = right
        self.left = left

    @property
    def base(self):
        return self.right.base


def apply_at_factor(dims, p, m, vec):
    """Apply a matrix to tensor factor ``p`` of a dense multi-tensor vector."""
    if len(vec) != prod(dims):
        raise ValueError("apply_at_factor length mismatch")
    if m.ncols != dims[p]:
        raise ValueError("matrix does not fit factor dimension")
    stride = prod(dims[p + 1:], start=1)
    block_in = dims[p] * stride
    nblocks = len(vec) // block_in
    block_out = m.nrows * stride
    field = m.field
    zero = field.zero
    out = [zero] * (nblocks * block_out)
    for blk in range(nblocks):
        base_in = blk * block_in
        base_out = blk * block_out
        for i in range(dims[p]):
            seg_base = base_in + i * stride
            for t in range(stride):
                x = vec[seg_base + t]
                if not x:
                    continue
                for k in range(m.nrows):
                    c = m.rows[k][i]
                    if c:
                        pos = base_out + k * stride + t
                        out[pos] = out[pos] + c * x
    return tuple(out)


def mult_at_factor(algebra, dims, p, vec, elem_vec, side):
    """Multiply tensor factor ``p`` by a fixed algebra element on one side."""
    if side == PRE:
        m = algebra.left_mult_matrix(elem_vec)
    elif side == POST:
        m = algebra.right_mult_matrix(elem_vec)
    else:
        raise ValueError(f"side must be {PRE!r} or {POST!r}")
    return apply_at_factor(dims, p, m, vec)


class BalancedTensorSpace:
    """A quotient of A^{⊗m} by junction relations, with canonical coordinates.

    Coordinates of the quotient are the normal-form values at the non-pivot
    columns of the relation span's reduced echelon form; ``lift`` places
    quotient coordinates back at those columns, which is the canonical linear
    section of ``project``.
    """

    def __init__(self, algebras, junctions):
        algebras = list(algebras)
        junctions = list(junctions)
        if len(junctions) != len(algebras) - 1:
            raise ValueError("need exactly one junction between adjacent factors")
        self.algebras = algebras
        self.field = algebras[0].field
        self.dims = [a.dim for a in algebras]
        self.total_dim = prod(self.dims)
        self.junctions = junctions
        self.echelon = SparseEchelon(self.field, self.total_dim)
        self._build_relations()
        pivot_set = set(self.echelon.rows)
        self.free_cols = tuple(c for c in range(self.total_dim)
                               if c not in pivot_set)
        self._free_index = {c: i for i, c in enumerate(self.free_cols)}
        self._projection = None
        self._section = None

    # -- construction ---------------------------------------------------------

    def _build_relations(self):
        dims = self.dims
        strides = [prod(dims[q + 1:], start=1) for q in range(len(dims))]
        for p, junc in enumerate(self.junctions):
            dl, dr = dims[p], dims[p + 1]
            base_dim = junc.base.dim
            # pairwise relations over factor pair (p, p+1), sparse over (i, j)
            pair_rels = []
            for b in range(base_dim):
                for i in range(dl):
                    acted_l = junc.right.act_basis(b, self.algebras[p].basis_vec(i))
                    for j in range(dr):
                        acted_r = junc.left.act_basis(b, self.algebras[p + 1].basis_vec(j))
                        rel = {}
                        for k, c in enumerate(acted_l):
                            if c:
                                rel[(k, j)] = rel.get((k, j), self.field.zero) + c
                        for k, c in enumerate(acted_r):
                            if c:
                                rel[(i, k)] = rel.get((i, k), self.field.zero) - c
                        rel = {key: v for key, v in rel.items() if v}
                        if rel:
                            pair_rels.append(rel)
            # embed each pairwise relation at every combination of the other factors
            other = [q for q in range(len(dims)) if q not in (p, p + 1)]
            offsets = [0]
            for q in other:
                offsets = [off + t * strides[q]
                           for off in offsets for t in range(dims[q])]
            sl, sr = strides[p], strides[p + 1]
            for rel in pair_rels:
                for off in offsets:
                    vec = {off + i * sl + j * sr: c for (i, j), c in rel.items()}
                    self.echelon.insert(vec)

    # -- quotient interface -----------------------------------------------------

    @property
    def dim(self):
        return len(self.free_cols)

    @property
    def relation_rank(self):
        return self.echelon.rank

    def normal_form(self, vec):
        """Canonical dense representative of the class of ``vec``."""
        sparse = {i: c for i, c in enumerate(vec) if c}
        red = self.echelon.reduce(sparse)
        zero = self.field.zero
        out = [zero] * self.total_dim
        for i, c in red.items():
            out[i] = c
        return tuple(out)

    def project(self, vec):
        """Quotient coordinates of a dense total-space vector."""
        sparse = {i: c for i, c in enumerate(vec) if c}
        red = self.echelon.reduce(sparse)
        zero = self.field.zero
        return tuple(red.get(c, zero) for c in self.free_cols)

    def lift(self, qvec):
        """Canonical section: place quotient coordinates at the free columns."""
        if len(qvec) != self.dim:
            raise ValueError("quotient coordinate length mismatch")
        zero = self.field.zero
        out = [zero] * self.total_dim
        for c, val in zip(self.free_cols, qvec):
            if val:
                out[c] = val
        return tuple(out)

    def is_zero_class(self, vec):
        sparse = {i: c for i, c in enumerate(vec) if c}
        return not self.echelon.reduce(sparse)

    def equal(self, v1, v2):
        diff = {i: a - b for i, (a, b) in enumerate(zip(v1, v2)) if a != b}
        return not self.echelon.reduce(diff)

    def projection_matrix(self):
        """dim x total_dim matrix of ``project`` (cached)."""
        if self._projection is not None:
            return self._projection
        zero = self.field.zero
        cols = []
        for c in range(self.total_dim):
            col = [zero] * self.dim
            if c in self._free_index:
                col[self._free_index[c]] = self.field.one
            else:
                row = self.echelon.rows[c]
                # e_c reduces to e_c - row_c, supported on free columns
                for j, a in row.items():
                    if j != c:
                        col[self._free_index[j]] = -a
            cols.append(tuple(col))
        self._projection = Matrix.from_cols(self.field, cols, self.dim)
        return self._projection

    def section_matrix(self):
        """total_dim x dim matrix of ``lift`` (cached)."""
        if self._section is not None:
            return self._section
        cols = [unit_vector(self.field, self.total_dim, c) for c in self.free_cols]
        self._section = Matrix.from_cols(self.field, cols, self.total_dim)
        return self._section

    # -- formatting ----------------------------------------------------------

    def fmt(self, vec):
        """Readable canonical representative of a total-space vector's class."""
        return fmt_tensor_multi(self.algebras, self.normal_form(vec))

    def fmt_q(self, qvec):
        return fmt_tensor_multi(self.algebras, self.lift(qvec))

    def __repr__(self):
        return (f"BalancedTensorSpace({len(self.dims)} factors, "
                f"total {self.total_dim}, quotient dim {self.dim})")


def plain_tensor_space(algebras):
    """The unbalanced tensor power: junctions over the trivial base k.

    Implemented directly as a BalancedTensorSpace with no relations.
    """
    space = BalancedTensorSpace.__new__(BalancedTensorSpace)
    space.algebras = list(algebras)
    space.field = space.algebras[0].field
    space.dims = [a.dim for a in space.algebras]
    space.total_dim = prod(space.dims)
    space.junctions = []
    space.echelon = SparseEchelon(space.field, space.total_dim)
    space.free_cols = tuple(range(space.total_dim))
    space._free_index = {c: c for c in space.free_cols}
    space._projection = None
    space._section = None
    return space
