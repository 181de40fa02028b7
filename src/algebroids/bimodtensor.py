"""Balanced tensor products of an algebra with itself over a base ring.

A junction between two adjacent tensor factors is a pair of base-ring actions
(a right action on the left factor, a left action on the right factor); the
balanced product is the quotient of the plain tensor power by the span of the
usual interchange relations.  Quotients are represented by the reduced echelon
form of the relation span, which fixes a canonical normal form, a canonical
coordinate system (values at non-pivot columns), and a canonical linear
section of the projection.

Over a separable base equality needs no elimination.  Let e = Σ e¹ ⊗ e² be
the separability idempotent of the base L read from its trace form
(``algebra.separability_structure``: l·e = e·l and Σ e¹e² = 1) and set
P(x ⊗ y) = Σ x·e¹ ⊗ e²·y at a junction.  When both actions are unital
module actions, P kills every relation and x − P(x) is a relation, so ker P
is exactly the relation span.  A space of two or more junctions applies P
one junction at a time; the steps keep each other's relations when the
actions that meet on a middle factor commute, so u ≡ v if and only if
P(u − v) = 0.  Such a space decides ``equal`` and ``is_zero_class`` by P
whenever these conditions hold (``Junction.projection_step`` and
``_separability_steps`` check them), and builds its echelon only when
something needs it: a normal form or ``fmt`` for a certificate, quotient
coordinates, dimensions, or ``echelon`` itself.  A two-factor space is
eliminated when it is built.  A junction eliminates its relations once
(``Junction.relations``), however many spaces end in it.

Tensor vectors are sparse at this interface: a dict ``{index: scalar}``
holding only nonzero entries, the index of e_i ⊗ e_j ⊗ ... being row-major
over the factors.  ``coords``, ``equal``, ``normal_form``,
``is_zero_class`` and ``fmt`` take such vectors, ``normal_form`` returns
them, and the relation build and the reductions touch only nonzero
entries.  Quotient coordinates are sparse too:
``coords`` gives them, ``projection_matrix`` is its matrix, and
``section_matrix`` places them back at the free columns.
"""

from math import prod

from .exactfield import Matrix, SparseEchelon
from .algebra import (HOM, ANTI, POST, PRE, combine, fmt_tensor_multi,
                      is_algebra_map, map_at_factor,
                      separability_structure, side_product, tensor_vec)


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

    def basis_images(self, base_idx):
        """The sparse images of the total algebra's basis vectors under the
        base basis element of index ``base_idx``, read from column
        ``base_idx`` of the structure map and from ``table``."""
        x = self.amap.matrix.cols[base_idx]
        return [side_product(self.total, x, i, self.side)
                for i in range(self.total.dim)]

    def expects_kind(self, role):
        """The map kind a valid action of this shape requires in ``role``,
        "right" or "left".

        For a right action: pre-multiplication reverses products (anti),
        post-multiplication preserves them (hom).  For a left action it is
        the other way around.
        """
        if role == "right":
            return ANTI if self.side == PRE else HOM
        return HOM if self.side == PRE else ANTI


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
        for role, action in (("right", right), ("left", left)):
            want = action.expects_kind(role)
            if action.amap.kind != want:
                raise ValueError(
                    f"{role} action ({action.side}) requires a map of kind "
                    f"{want!r}, got {action.amap.kind!r}")
        self.right = right
        self.left = left
        self._step = None
        self._relations = None

    @property
    def base(self):
        return self.right.base

    def relations(self):
        """The reduced echelon form of the span of the relations
        (e_i·l) ⊗ e_j − e_i ⊗ (l·e_j), in the d² coordinates of two factors
        (cached).  Every space that ends in this junction stages it."""
        if self._relations is None:
            d = self.right.total.dim
            pair = SparseEchelon(self.base.field, d * d)
            _insert_pair_relations(pair, self)
            self._relations = pair
        return self._relations

    def projection_step(self):
        """P at this junction, x ⊗ y ↦ Σ x·e¹ ⊗ e²·y, as a function of the
        index of e_i ⊗ e_j, or None where P is not valid: the base has no
        ``separability_structure`` (its trace form is degenerate), or an
        action map is not unital and multiplicative, or anti-multiplicative,
        as its kind says, so the action is no module action.  The algebras
        are taken to be associative, as the relations of a balanced tensor
        product presume (cached)."""
        if self._step is None:
            sep = None
            if is_algebra_map(self.right.amap) and \
                    is_algebra_map(self.left.amap):
                sep = separability_structure(self.base)
            self._step = (sep is not None
                          and _junction_step(self, sep.idempotent()))
        return self._step or None


def _junction_step(junc, idempotent):
    """P at one junction on the basis tensors e_i ⊗ e_j of its two factors,
    as a function of i·d + j; each image is computed once, when first
    asked for."""
    right, left = junc.right, junc.left
    A = right.total
    d = A.dim
    legs = [(right.amap.matrix.cols[i], left.amap.apply(f))
            for i, f in idempotent]
    images = {}

    def step(pair):
        img = images.get(pair)
        if img is None:
            i, j = divmod(pair, d)
            img = images[pair] = combine(
                (A.field.one, tensor_vec(d, side_product(A, u, i, right.side),
                                         side_product(A, w, j, left.side)))
                for u, w in legs)
        return img

    return step


def _insert_pair_relations(pair, junc):
    """Insert the relations of ``junc`` into the echelon ``pair`` of its
    two factors.

    The relation of l, i, j is (e_i·l) ⊗ e_j − e_i ⊗ (l·e_j), and no
    relation that is zero by construction is built: a base element l
    whose two actions are the same multiple c of the identity (for a
    unital action on a scalar base, every l) is skipped; for e_i·l = 0
    only the j with l·e_j ≠ 0 are visited; and a pair with e_i·l = c·e_i
    and l·e_j = c·e_j is skipped.  The vectors inserted are the nonzero
    relations, in the same order, so the span and its reduced echelon
    form are the same as when every relation is built.  Images are
    zero-free, so only the entry at e_i ⊗ e_j can cancel.
    """
    zero = pair.field.zero
    d = junc.right.total.dim
    for b in range(junc.base.dim):
        acted_l = junc.right.basis_images(b)
        acted_r = junc.left.basis_images(b)
        diag_l = _diagonal(acted_l, zero)
        diag_r = _diagonal(acted_r, zero)
        if None not in diag_l and len(set(diag_l + diag_r)) == 1:
            continue
        acting_r = [j for j in range(d) if acted_r[j]]
        for i in range(d):
            img = acted_l[i]
            c_i = diag_l[i]
            for j in (range(d) if img else acting_r):
                if c_i is not None and c_i == diag_r[j]:
                    continue
                rel = {k * d + j: c for k, c in img.items()}
                for k, c in acted_r[j].items():
                    key = i * d + k
                    old = rel.get(key)
                    if old is None:
                        rel[key] = -c
                    elif old == c:
                        del rel[key]
                    else:
                        rel[key] = old - c
                if rel:
                    pair.insert(rel)


def _diagonal(images, zero):
    """For each basis image e_i·l of one base element's action: its scalar
    c where it is c·e_i (``zero`` where it is 0), None where it is not a
    multiple of e_i."""
    return [img.get(i) if len(img) == 1 else None if img else zero
            for i, img in enumerate(images)]


def _images_commute(f, g):
    A = f.target
    return all(A.mul_vec(a, b) == A.mul_vec(b, a)
               for a in f.matrix.cols for b in g.matrix.cols)


def _separability_steps(junctions):
    """The steps of the separability projection, one per junction, or None
    where P does not decide the balanced product: a junction has no
    ``projection_step``, or on a middle factor the left action of one
    junction and the right action of the next multiply from the same side
    and their images do not commute (for a bialgebroid's coassociativity
    triple, (elbim)), so a step need not keep the next junction's
    relations.  Sides compare in one frame: post-multiplication in A^op is
    pre-multiplication in A (A^op == A only where A is commutative)."""
    steps = [junc.projection_step() for junc in junctions]
    if None in steps:
        return None
    for before, after in zip(junctions, junctions[1:]):
        same_frame = before.left.total == after.right.total
        if (before.left.side == after.right.side) == same_frame and \
                not _images_commute(before.left.amap, after.right.amap):
            return None
    return steps


class BalancedTensorSpace:
    """A quotient of A^{⊗m} by junction relations, with canonical coordinates.

    Coordinates of the quotient are the normal-form values at the non-pivot
    columns of the relation span's reduced echelon form; ``section_matrix``
    places quotient coordinates back at those columns, which is the
    canonical linear section of ``projection_matrix``.

    A space of three or more factors is built on its *head*, the quotient
    of all factors but the last: it is (head ⊗ A) modulo the last junction's
    relations, staged in the q·d coordinates of that product (q the head's
    dimension) instead of in the full tensor power.  The staged rows are
    the junction's ``relations()``, eliminated once in two factors and
    shared by every space that ends in that junction; a two-factor space
    takes them as its own echelon.  The first factor may be an existing
    head space, which is then shared rather than rebuilt:
    ``BalancedTensorSpace([pair, A], [j])`` is pair ⊗_j A.  Staging changes
    no coordinate.  Free column (f, k) of the staged product sits at column
    ``head.free_cols[f] * d + k`` of the tensor power, a monotone map, so
    the reduced echelon pivots of the whole relation span are the head's
    pivots at every k together with the embedded pivots of the staged span,
    and every normal form is the one a single elimination over A^{⊗m} gives.

    A space of two or more junctions decides ``equal`` and
    ``is_zero_class`` by the separability projection where
    ``_separability_steps`` finds it valid, and eliminates its relations
    only when its echelon, its coordinates or its dimensions are first
    read; where P is not valid, the first comparison eliminates.  A
    two-factor space eliminates when it is built.
    """

    def __init__(self, algebras, junctions):
        factors = list(algebras)
        junctions = list(junctions)
        if len(junctions) != len(factors) - 1:
            raise ValueError("need exactly one junction between adjacent factors")
        if isinstance(factors[0], BalancedTensorSpace) and len(factors) == 2:
            head = factors[0]
        elif len(factors) > 2:
            head = BalancedTensorSpace(factors[:-1], junctions[:-1])
        else:
            head = None
        if head is not None:
            factors = head.algebras + factors[-1:]
            junctions = head.junctions + junctions[-1:]
        self.algebras = factors
        self.field = factors[0].field
        self.dims = [a.dim for a in factors]
        self.total_dim = prod(self.dims)
        self.junctions = junctions
        self.head = head
        self._echelon = None
        self._steps = None
        self._projection = None
        self._section = None
        if len(junctions) < 2:
            self._eliminate()

    # -- construction ---------------------------------------------------------

    def _eliminate(self):
        """Build the echelon of the relation span and the free columns.

        A space with a head stages the last junction's ``relations()`` at
        every index of the factors before it, whose relations are the
        head's: offsetting and staging are linear, so the span is the same.
        """
        head = self.head
        if head is None:
            self._echelon = (self.junctions[0].relations() if self.junctions
                             else SparseEchelon(self.field, self.total_dim))
        else:
            # the head-quotient coordinates of each leading basis tensor
            one = self.field.one
            self._head_cols = [head.coords({c: one})
                               for c in range(head.total_dim)]
            self._echelon = SparseEchelon(self.field,
                                          head.dim * self.dims[-1])
            pair = self.junctions[-1].relations()
            for off in range(0, self.total_dim, pair.ncols):
                for row in pair.rows.values():
                    self._echelon.insert(self._stage(
                        {off + key: c for key, c in row.items()}))
        rows = self._echelon.rows
        self._free_cols = tuple(self._embed(s)
                                for s in range(self._echelon.ncols)
                                if s not in rows)
        self._free_index = {c: i for i, c in enumerate(self._free_cols)}

    @property
    def echelon(self):
        """The reduced echelon form of the relation span, in the staged
        coordinates of a space with a head (built on first use)."""
        if self._echelon is None:
            self._eliminate()
        return self._echelon

    @property
    def free_cols(self):
        """The tensor-power columns of the quotient coordinates."""
        if self._echelon is None:
            self._eliminate()
        return self._free_cols

    def _stage(self, sparse):
        """Coordinates in head ⊗ A of a sparse tensor-power vector: every
        entry's leading factors are reduced through the head's quotient."""
        last = self.dims[-1]
        head_cols = self._head_cols
        out = {}
        for col, a in sparse.items():
            c, k = divmod(col, last)
            for f, b in head_cols[c].items():
                key = f * last + k
                old = out.get(key)
                if old is None:
                    out[key] = a * b
                    continue
                old += a * b
                if old:
                    out[key] = old
                else:
                    del out[key]
        return out

    def _embed(self, s):
        """The tensor-power column of echelon column ``s``."""
        if self.head is None:
            return s
        f, k = divmod(s, self.dims[-1])
        return self.head.free_cols[f] * self.dims[-1] + k

    def coords(self, sparse):
        """Sparse quotient coordinates of a sparse vector."""
        red = self.normal_form(sparse)
        index = self._free_index
        return {index[c]: a for c, a in red.items()}

    def separability_projection(self, vec):
        """P(vec), applied one junction at a time: a representative of the
        class of a sparse vector that is zero exactly on the relation span;
        None where ``_separability_steps`` finds P not valid.  The steps are
        found on the first call."""
        if self._steps is None:
            steps = _separability_steps(self.junctions)
            self._steps = False if steps is None else steps
        if self._steps is False:
            return None
        dims = self.dims
        for p, step in enumerate(self._steps):
            merged = dims[:p] + [dims[p] * dims[p + 1]] + dims[p + 2:]
            vec = map_at_factor(merged, p, vec, merged[p], step)
        return vec

    # -- quotient interface -----------------------------------------------------

    @property
    def dim(self):
        return len(self.free_cols)

    @property
    def relation_rank(self):
        return self.total_dim - self.dim

    def normal_form(self, vec):
        """Canonical representative of the class of a sparse vector, as a
        sparse vector."""
        if self.head is None:
            return self.echelon.reduce(vec)
        red = self.echelon.reduce(self._stage(vec))
        return {self._embed(s): a for s, a in red.items()}

    def is_zero_class(self, vec):
        if len(self.junctions) > 1:
            image = self.separability_projection(vec)
            if image is not None:
                return not image
        return not self.normal_form(vec)

    def equal(self, v1, v2):
        diff = dict(v1)
        for i, b in v2.items():
            old = diff.get(i)
            if old is None:
                diff[i] = -b
            elif old == b:
                del diff[i]
            else:
                diff[i] = old - b
        return self.is_zero_class(diff)

    def projection_matrix(self):
        """dim x total_dim matrix of ``coords`` (cached)."""
        if self._projection is None:
            one = self.field.one
            self._projection = Matrix.from_sparse_cols(
                self.field, [self.coords({c: one})
                             for c in range(self.total_dim)], self.dim)
        return self._projection

    def section_matrix(self):
        """total_dim x dim matrix of the canonical section, which holds the
        quotient coordinates at the free columns (cached)."""
        if self._section is None:
            one = self.field.one
            self._section = Matrix.from_sparse_cols(
                self.field, [{c: one} for c in self.free_cols],
                self.total_dim)
        return self._section

    # -- formatting ----------------------------------------------------------

    def fmt(self, vec):
        """Readable canonical representative of a sparse vector's class."""
        return fmt_tensor_multi(self.algebras, self.normal_form(vec))

    def __repr__(self):
        return (f"BalancedTensorSpace({len(self.dims)} factors, "
                f"total {self.total_dim}, quotient dim {self.dim})")
