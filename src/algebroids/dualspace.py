"""Base-valued duals of a bialgebroid and the dual bialgebroid construction.

A left bialgebroid has two distinguished duals of module maps into the base,
one for each of the two base actions carried by the target/source maps; a
right bialgebroid likewise.  Each dual is a subspace of the linear maps
A → base cut out by one intertwining constraint, and each carries a
convolution-style ring structure transported through the coproduct: a
functional acts on the total algebra through one leg of the coproduct
(a ↼ φ, a ⇂ φ, φ ⇀ a, φ ⇁ a).  The action is bilinear, and it is built as
a matrix in either argument, from one table of structure map, leg and side:
``action_matrix`` fixes φ and runs over every basis element a (every
convolution product composes one factor with the action matrix of the
other), and ``acting_on`` fixes a and runs over every flattened functional
φ (the maps ℓ_R, ᵣℓ, ℓ_L and ₗℓ of the integral theory).  Both are read from
the canonical coproduct lift and the structure constants, as are the
pairing and right-hand side of the coproduct equations below.

The distinguished one here is the ``lower-star`` dual of a left bialgebroid:
it becomes a right bialgebroid over the same base, with coproduct determined
by the pairing  ⟨φ' ⊗ φ'', a ⊗ b⟩ = φ'(a t_L(φ''(b)))  — the unique solution
of  ⟨γ̂(φ), a ⊗ b⟩ = φ(ab).  The pairing is invariant under the dual-side
junction exchange φŝ(l) ⊗ ψ ↔ φ ⊗ ψt̂(l) on the nose, because
(φŝ(l))(y) = φ(y t_L(l)) and (ψt̂(l))(b) = l ψ(b); solving the pairing
identity therefore determines γ̂ uniquely modulo the junction as soon as the
pairing kernel is no larger than the junction relations, which is asserted.
The other three duals are reached from it by the opposite/co-opposite
symmetries, which is both the construction and a useful cross-check: their
ring products come out opposite exactly the way the direct convolution
formulas swap their factors.
"""

from .exactfield import Matrix
from .algebra import (HOM, ANTI, Algebra, AlgebraMap, combine, nonzero,
                      side_product, times, verify_algebra)
from .bialgebroid import LeftBialgebroid, RightBialgebroid, contract_leg
from .bimodtensor import PRE, POST
from .report import Report

LOWER_STAR = "lower-star"    # φ(t_L(l) a) = φ(a) l   on a left bialgebroid
STAR_LOWER = "star-lower"    # φ(s_L(l) a) = l φ(a)   on a left bialgebroid
UPPER_STAR = "upper-star"    # φ(a s_R(r)) = φ(a) r   on a right bialgebroid
STAR_UPPER = "star-upper"    # φ(a t_R(r)) = r φ(a)   on a right bialgebroid

_LEFT_KINDS = (LOWER_STAR, STAR_LOWER)
_RIGHT_KINDS = (UPPER_STAR, STAR_UPPER)

# per kind: the structure map carrying a functional's values into the total
# algebra, the coproduct leg the functional reads, and the side its value
# multiplies the other leg from
_ACTIONS = {
    LOWER_STAR: ("s", 0, PRE),     # a ↼ φ = s_L(φ(a_(1))) a_(2)
    STAR_LOWER: ("t", 1, PRE),     # a ⇂ φ = t_L(φ(a_(2))) a_(1)
    UPPER_STAR: ("t", 0, POST),    # φ ⇀ a = a^(2) t_R(φ(a^(1)))
    STAR_UPPER: ("s", 1, POST),    # φ ⇁ a = a^(1) s_R(φ(a^(2)))
}


class DualModule:
    """One of the four base-valued duals, as an explicit constraint subspace.

    Functionals are base-valued: a functional is a dim(base) × dim(total)
    matrix, flattened row-major into the ambient coordinate space.  The
    basis, membership and coordinates are read from the sparse echelon
    rows of the constraint space.
    """

    def __init__(self, bgd, kind, space=None):
        """``space`` is the constraint space when it is solved already: the
        derived duals are lower-star duals of an opposite or co-opposite,
        whose equations are the ``kind`` equations of ``bgd`` row for row.
        """
        if kind not in _LEFT_KINDS + _RIGHT_KINDS:
            raise ValueError(f"unknown dual kind {kind!r}")
        if kind in _LEFT_KINDS and not isinstance(bgd, LeftBialgebroid):
            raise ValueError(f"{kind} dual needs a left bialgebroid")
        if kind in _RIGHT_KINDS and not isinstance(bgd, RightBialgebroid):
            raise ValueError(f"{kind} dual needs a right bialgebroid")
        self.bgd = bgd
        self.kind = kind
        self.total = bgd.total
        self.base = bgd.base
        self.field = bgd.field
        self.space = self._solve_constraints() if space is None else space
        flat = self.space.sparse_basis()
        self.basis = [self._unflatten(row) for row in flat]
        # the module's basis as columns of flattened functionals
        self._embedding = Matrix.from_sparse_cols(self.field, flat,
                                                  self.space.ambient)

    def _unflatten(self, flat):
        dl, da = self.base.dim, self.total.dim
        cols = [{} for _ in range(da)]
        for key, x in flat.items():
            m, i = divmod(key, da)
            cols[i][m] = x
        return Matrix.from_sparse_cols(self.field, cols, dl)

    def _solve_constraints(self):
        A, B = self.total, self.base
        da, dl = A.dim, B.dim
        # the constraint of each kind, as commented where it is defined
        amap = (self.bgd.t if self.kind in (LOWER_STAR, STAR_UPPER)
                else self.bgd.s)
        side = PRE if self.kind in _LEFT_KINDS else POST
        base_right = self.kind in (LOWER_STAR, UPPER_STAR)   # φ(a) l
        rows = []
        for lidx in range(dl):
            x = amap.matrix.cols[lidx]
            for aidx in range(da):
                # the acted-on algebra element
                moved = side_product(A, x, aidx, side)
                for m in range(dl):
                    # equation: φ(moved)_m - (base action on φ(a))_m = 0
                    row = {m * da + i: c for i, c in moved.items()}
                    for mp in range(dl):
                        c = (B.table[mp][lidx] if base_right
                             else B.table[lidx][mp]).get(m)
                        if c:
                            key = mp * da + aidx
                            old = row.get(key)
                            row[key] = -c if old is None else old - c
                    row = nonzero(row)
                    if row:
                        rows.append(row)
        return Matrix.from_sparse_rows(self.field, rows, dl * da).kernel()

    @property
    def dim(self):
        return self.space.dim

    def contains(self, matrix):
        return self.space.contains(flatten(matrix))

    def coords(self, matrix):
        """The sparse coordinates of a functional in the module's basis, or
        None if it is not a member."""
        return self.space.coords_of(flatten(matrix))

    def element(self, coords):
        """The functional with the sparse coordinates ``coords`` in the
        module's basis, an element of the dual ring."""
        return self._unflatten(self._embedding.apply(coords))

    def unit_matrix(self):
        """The convolution unit: the counit of the underlying bialgebroid."""
        return self.bgd.counit

    def product(self, phi, psi):
        """Convolution product of two functionals (base-valued matrices): one
        factor composed with the action matrix of the other,

            lower-star  φψ = ψ ∘ (− ↼ φ)      upper-star  φψ = φ ∘ (ψ ⇀ −)
            star-lower  φψ = ψ ∘ (− ⇂ φ)      star-upper  φψ = φ ∘ (ψ ⇁ −)
        """
        if self.kind in _LEFT_KINDS:
            return psi @ action_matrix(self.bgd, self.kind, phi)
        return phi @ action_matrix(self.bgd, self.kind, psi)

    def products(self, phi, psis):
        """``[product(phi, psi) for psi in psis]``; on a left-sided dual φ's
        action matrix is built once for all of them."""
        if self.kind in _RIGHT_KINDS:
            return [self.product(phi, psi) for psi in psis]
        act = action_matrix(self.bgd, self.kind, phi)
        return [psi @ act for psi in psis]

    def acting_on(self, vec):
        """The matrix of φ ↦ (φ acting on ``vec``) over this module's basis:
        ``acting_on`` restricted to the constraint subspace."""
        return acting_on(self.bgd, self.kind, vec) @ self._embedding

    def __repr__(self):
        return f"DualModule({self.kind}, dim {self.dim})"


def flatten(phi):
    """A base-valued functional (matrix) as its row-major coordinate vector,
    sparse: entry (m, i) of φ sits at index m * phi.ncols + i."""
    da = phi.ncols
    return {m * da + i: x for i, col in enumerate(phi.cols)
            for m, x in col.items()}


# ---------------------------------------------------------------------------
# actions of functionals on the total algebra (used throughout the integral
# machinery) and transpose actions of the algebra on functionals


def action_matrix(bgd, kind, phi):
    """The matrix of the action of a functional φ of the ``kind`` dual on the
    total algebra: column a is e_a ↼ φ, e_a ⇂ φ, φ ⇀ e_a or φ ⇁ e_a, read
    from column a of the canonical coproduct lift."""
    return Matrix.from_sparse_cols(
        bgd.field, _act(bgd, kind, phi, bgd.canonical_gamma_lift),
        bgd.total.dim)


def acting_on(bgd, kind, vec):
    """The matrix of φ ↦ (φ acting on ``vec``) on flattened functionals of
    the ``kind`` dual, read from one coproduct lift of ``vec``.  Column
    (m, k) acts with the functional sending e_k to the m-th base basis
    element and every other e_j to 0: it multiplies x_m, the m-th column
    of the structure map, from the kind's side into the other leg of the
    lift against e_k in the read leg."""
    amap, leg, side = _ACTIONS[kind]
    A = bgd.total
    d = A.dim
    # parts[k]: the other leg of the lift against e_k in the read leg
    parts = [{} for _ in range(d)]
    for idx, c in bgd.coproduct_lift(vec).items():
        i, j = divmod(idx, d)
        if leg == 0:
            parts[i][j] = c
        else:
            parts[j][i] = c
    cols = []
    for x in getattr(bgd, amap).matrix.cols:
        cols.extend(times(A, x, part, side) for part in parts)
    return Matrix.from_sparse_cols(bgd.field, cols, d)


def _act(bgd, kind, phi, lifts):
    # φ acting on each sparse coproduct lift of ``lifts``
    amap, leg, side = _ACTIONS[kind]
    m = getattr(bgd, amap).matrix @ phi
    return [contract_leg(bgd.total, m, w, leg, side) for w in lifts]


def act(bgd, kind, phi, avec):
    """The action of a functional φ of the ``kind`` dual on the element
    ``avec``, read from its coproduct lift:

        lower-star  a ↼ φ = s_L(φ(a_(1))) a_(2)
        star-lower  a ⇂ φ = t_L(φ(a_(2))) a_(1)
        upper-star  φ ⇀ a = a^(2) t_R(φ(a^(1)))
        star-upper  φ ⇁ a = a^(1) s_R(φ(a^(2)))
    """
    return _act(bgd, kind, phi, [bgd.coproduct_lift(avec)])[0]


def transpose_action(phi, algebra, avec, side):
    """The transpose action of the element ``avec`` on the functional φ:
    φ ↼ a, the functional b ↦ φ(ab), from the ``pre`` side, and a ⇀ φ,
    b ↦ φ(ba), from the ``post`` side.  Column b is φ applied to one
    ``side_product``."""
    return Matrix._of_cols(phi.field, phi.nrows,
                           [phi.apply(side_product(algebra, avec, b, side))
                            for b in range(algebra.dim)])


# ---------------------------------------------------------------------------
# the dual bialgebroid


class DualBialgebroid:
    """Bundle of one dual construction: the constraint module, its ring,
    the induced bialgebroid on it, and the construction report.

    The ring basis is the module's echelon basis, in order: the functional
    ``module.basis[i]`` is the ring's i-th basis element.
    """

    def __init__(self, module, ring, bgd, report):
        self.module = module
        self.ring = ring
        self.bgd = bgd
        self.report = report

    @property
    def ok(self):
        return self.report.passed and self.bgd is not None


def dual_lower_star(lb, name=None):
    """The lower-star dual of a left bialgebroid, as a right bialgebroid
    over the same base.

    The coproduct is the unique solution of the defining pairing identity
    ⟨γ̂(φ), a ⊗ b⟩ = φ(ab); uniqueness modulo the dual junction is asserted
    by checking that the pairing's kernel lies inside the junction relations.
    """
    name = name or f"{lb.name}_*"
    rep = Report(f"dual bialgebroid {name}")
    module = DualModule(lb, LOWER_STAR)
    A, L = lb.total, lb.base
    field = lb.field
    n = module.dim
    dl = L.dim

    # ring structure constants: f_i f_j = f_j ∘ (− ↼ f_i)
    struct = {}
    closed_bad = []
    for i in range(n):
        prods = module.products(module.basis[i], module.basis)
        for j, prod in enumerate(prods):
            coords = module.coords(prod)
            if coords is None:
                closed_bad.append(
                    f"f{i} * f{j} leaves the constraint subspace")
                continue
            for k, c in coords.items():
                struct[(i, j, k)] = c
    rep.add("dual-closed", "convolution products stay in the dual",
            closed_bad)

    unit_coords = module.coords(module.unit_matrix())
    rep.add("dual-unit-member", "the counit lies in the dual",
            [] if unit_coords is not None else
            ["π is not a member of the constraint subspace"])

    if closed_bad or unit_coords is None:
        return DualBialgebroid(module, None, None, rep)

    ring = Algebra.from_struct(field, [f"f{i}" for i in range(n)], struct,
                               unit=unit_coords, name=name)
    rep.extend(verify_algebra(ring), prefix="ring-")
    if not rep.passed:
        return DualBialgebroid(module, ring, None, rep)

    # structure maps of the dual right bialgebroid over L:
    #   ŝ(l) = π_L((-) s_L(l)),  t̂(l) = l π_L(-),  π̂(φ) = φ(1)
    shat_cols, that_cols = [], []
    member_bad = []
    for lidx in range(dl):
        cand = transpose_action(lb.counit, A, lb.s.matrix.cols[lidx], POST)
        coords = module.coords(cand)
        if coords is None:
            member_bad.append(f"ŝ({L.basis_names[lidx]}) is not in the dual")
        shat_cols.append(coords)
        cand = Matrix._of_cols(field, dl, [side_product(L, pi, lidx, POST)
                                           for pi in lb.counit.cols])
        coords = module.coords(cand)
        if coords is None:
            member_bad.append(f"t̂({L.basis_names[lidx]}) is not in the dual")
        that_cols.append(coords)
    rep.add("dual-maps-member", "ŝ and t̂ land in the dual", member_bad)
    if member_bad:
        return DualBialgebroid(module, ring, None, rep)

    shat = AlgebraMap(L, ring, Matrix.from_sparse_cols(field, shat_cols, n),
                      HOM, "ŝ")
    that = AlgebraMap(L, ring, Matrix.from_sparse_cols(field, that_cols, n),
                      ANTI, "t̂")
    pihat = Matrix.from_sparse_cols(
        field, [phi.apply(A.unit) for phi in module.basis], dl)

    # the coproduct, solved from the pairing identity
    #   ⟨γ̂(φ), a⊗b⟩ = φ(ab)  with  ⟨u⊗v, a⊗b⟩ = u(a t_L(v(b)))
    pairing, rhs = pairing_system(lb, module)
    sol, kern = pairing.solve_matrix_kernel(rhs)
    rep.add("dual-coproduct-solvable",
            "the pairing identity for γ̂ has a solution",
            [] if sol is not None else
            ["no γ̂ satisfies ⟨γ̂(φ), a⊗b⟩ = φ(ab)"])
    if sol is None:
        return DualBialgebroid(module, ring, None, rep)

    rbd = RightBialgebroid(ring, L, shat, that, sol, pihat, name=name)

    # uniqueness of γ̂ modulo the dual junction: the pairing kernel must lie
    # inside the junction relation span
    bad = []
    tspace = rbd.tensor_space
    for row in kern.sparse_basis():
        if not tspace.is_zero_class(row):
            bad.append("a pairing-kernel vector is nonzero in the dual "
                       "tensor square: " + tspace.fmt(row))
    rep.add("dual-coproduct-wd",
            "γ̂ is unique modulo the dual junction relations", bad)
    return DualBialgebroid(module, ring, rbd, rep)


def pairing_system(lb, module):
    """The pairing matrix and right-hand side of the coproduct equations
    ⟨γ̂(φ_w), e_a ⊗ e_b⟩ = φ_w(e_a e_b) of the lower-star dual ``module``,
    read from the structure constants.  Row (a, b, m) is base coordinate m;
    column (u, v) of the pairing holds u(e_a t_L(v(e_b))), and column w of
    the right-hand side φ_w(e_a e_b) = Σ_k table[a][b][k] φ_w(e_k)."""
    A = lb.total
    d, dl, n = A.dim, lb.base.dim, module.dim
    table = A.table
    size = d * d * dl
    # every basis functional at once: column k holds φ_u(e_k) at rows
    # u·dl + m, so one sparse product evaluates all of them on an element
    stacked = [{} for _ in range(d)]
    for u, phi in enumerate(module.basis):
        for k, col in enumerate(phi.cols):
            for m, y in col.items():
                stacked[k][u * dl + m] = y
    evaluate = Matrix.from_sparse_cols(lb.field, stacked, n * dl)

    def scatter(cols, stride, offset, top, values):
        # values[u·dl + m] goes to row top + m of column u·stride + offset
        for key, x in values.items():
            u, m = divmod(key, dl)
            cols[u * stride + offset][top + m] = x

    pairing = [{} for _ in range(n * n)]
    t_l = lb.t.matrix
    for v, phi in enumerate(module.basis):
        for b in range(d):
            tv = t_l.apply(phi.cols[b])
            for a in range(d):    # e_a t_L(v(e_b)), once for every u
                moved = combine((c, table[a][p]) for p, c in tv.items())
                scatter(pairing, n, v, (a * d + b) * dl,
                        evaluate.apply(moved))
    rhs = [{} for _ in range(n)]
    for a in range(d):
        for b in range(d):
            scatter(rhs, 1, 0, (a * d + b) * dl,
                    evaluate.apply(table[a][b]))
    return (Matrix.from_sparse_cols(lb.field, pairing, size),
            Matrix.from_sparse_cols(lb.field, rhs, size))


def _derived(inner, bgd, kind, back):
    """The ``kind`` dual of ``bgd`` from ``inner``, the lower-star dual of
    its opposite or co-opposite, whose constraint space it shares;
    ``back`` carries inner's bialgebroid back, under inner's name."""
    module = DualModule(bgd, kind, inner.module.space)
    if inner.bgd is None:
        return DualBialgebroid(module, inner.ring, None, inner.report)
    outer = back(inner.bgd)
    outer.name = inner.bgd.name
    return DualBialgebroid(module, outer.total, outer, inner.report)


def dual_star_lower(lb):
    """The star-lower dual of a left bialgebroid: a right bialgebroid over
    the same base.

    The co-opposite of the parent turns the star-lower constraint and
    convolution into lower-star ones in the same factor order, so the inner
    construction is reused verbatim; a final co-opposite (over the
    original base, which the double opposite is, and renamed) restores the
    star-lower coproduct orientation.  That orientation is pinned
    operationally: with it, the four arrows of the duality square are
    bialgebroid isomorphisms on every catalog example.
    """
    name = f"{lb.name}_{{*}}"
    return _derived(dual_lower_star(lb.cop(), name=name), lb, STAR_LOWER,
                    lambda inner: inner.cop())


def dual_upper_star(rb):
    """The upper-star dual of a right bialgebroid: a left bialgebroid over
    the same base, reached through the opposite.

    The opposite swaps the convolution factors relative to the direct
    upper-star formula; taking the opposite of the resulting right
    bialgebroid swaps them back, so the returned total ring multiplies by
    the direct formula.
    """
    name = f"{rb.name}^*"
    return _derived(dual_lower_star(rb.op(), name=name), rb, UPPER_STAR,
                    lambda inner: inner.op())


def dual_star_upper(rb):
    """The star-upper dual of a right bialgebroid: a left bialgebroid over
    the same base, reached through the opposite co-opposite.

    As with the star-lower dual, a final co-opposite (over the original
    base, and renamed) fixes the coproduct orientation so the duality
    square's arrows are honest bialgebroid morphisms.
    """
    name = f"^*{rb.name}"
    return _derived(dual_lower_star(rb.op().cop(), name=name), rb, STAR_UPPER,
                    lambda inner: inner.op().cop())
