"""Antipode twists, weak Hopf algebras, and the bridge between them.

Two independent deformation questions live here.  First: given one antipode
on a left-handed structure, classify all others — they differ by *twists*,
invertible convolution elements of the lower-star dual subject to three
compatibility axioms, and the twisted antipode is S_g(a) = S(a ↼ g).
Second: when is such a structure a weak Hopf algebra in disguise?  The base
must be separable, and for a fixed separability structure the answer is
decided by one element of the plain linear dual — ψ∘π_L∘S — which must be
the counit itself (on the nose) or at least convolution-invertible (up to a
twist).
"""

from itertools import product

from .exactfield import Matrix, Subspace, require_field, sparse
from .algebra import (
    HOM,
    ANTI,
    Algebra,
    AlgebraMap,
    SeparabilityStructure,
    _counit_failures,
    combine,
    map_at_factor,
    nonzero,
    on_leg,
    separability_structure,
    side_product,
    tensor_apply,
    tensor_square_product,
    tensor_vec,
    verify_algebra,
    verify_map,
    verify_separability,
)
from .bimodtensor import PRE, POST, ActionSpec, BalancedTensorSpace, Junction
from .bialgebroid import LeftBialgebroid, RightBialgebroid
from .dualspace import DualModule, LOWER_STAR, act, action_matrix
from .hopfcore import HopfAlgebroid, reconstruct_right
from .report import PairNames, Report, column_certificates


# ---------------------------------------------------------------------------
# twists of (A_L, S)


def twisted_antipode(lb, antipode, g):
    """S_g(a) = S(a ↼ g)."""
    return antipode @ action_matrix(lb, LOWER_STAR, g)


def convolution_inverse(module, phi):
    """Inverse of a functional in the dual convolution ring, or None."""
    coords = module.coords(phi)
    if coords is None:
        return None
    n = module.dim
    field = module.field
    # left-multiplication matrix of phi in the dual ring
    cols = []
    for prod in module.products(phi, module.basis):
        c = module.coords(prod)
        if c is None:
            return None
        cols.append(c)
    lmat = Matrix.from_sparse_cols(field, cols, n)
    unit_coords = module.coords(module.unit_matrix())
    if unit_coords is None:
        return None
    sol = lmat.solve(unit_coords)
    if sol is None:
        return None
    inv = module.element(sol)
    # demand a two-sided inverse
    left = module.product(inv, phi)
    if module.coords(left) != unit_coords:
        return None
    return inv


def verify_twist(lb, antipode, g, g_inv=None):
    """Check that g is a twist of (A_L, S).

    Checks: membership of g (and its convolution inverse) in the lower-star
    dual, convolution invertibility, g∘s_L being a base automorphism, and
    the three twist axioms — (tw1) 1 ↼ g = 1, (tw2) the action is
    multiplicative, (tw3) the antipode exchange relation in the deformed
    module tensor product.
    """
    rep = Report("twist verification")
    A = lb.total
    L = lb.base
    module = DualModule(lb, LOWER_STAR)

    member = module.coords(g) is not None
    rep.add("twist-member", "g lies in the lower-star dual",
            [] if member else ["g violates the dual constraint"])
    if not member:
        return rep

    if g_inv is None:
        g_inv = convolution_inverse(module, g)
    inv_ok = g_inv is not None and module.coords(g_inv) is not None
    if inv_ok:
        unit = module.unit_matrix()
        inv_ok = (module.product(g, g_inv) == unit and
                  module.product(g_inv, g) == unit)
    rep.add("twist-invertible", "g is convolution invertible",
            [] if inv_ok else ["no two-sided convolution inverse"])
    if not inv_ok:
        return rep

    # g∘s_L and g⁻¹∘s_L as endomorphisms of the base
    gs = g @ lb.s.matrix
    gs_inv = g_inv @ lb.s.matrix
    auto_ok = (gs @ gs_inv).is_identity() and (gs_inv @ gs).is_identity()
    if auto_ok:
        auto_ok = verify_map(
            AlgebraMap(L, L, gs, HOM, "g∘s_L")).passed
    rep.add("twist-base-auto",
            "g∘s_L is a base automorphism with inverse g⁻¹∘s_L",
            [] if auto_ok else ["g∘s_L fails to be an automorphism"])

    # (tw1) 1 ↼ g = 1
    moved = act(lb, LOWER_STAR, g, A.unit)
    ok1 = moved == A.unit
    rep.add("tw1", "1 ↼ g = 1",
            [] if ok1 else [f"1 ↼ g = {A.fmt_vec(moved)}"])

    # (tw2) (a ↼ g)(b ↼ g) = ab ↼ g
    act_g = action_matrix(lb, LOWER_STAR, g)
    pairs = list(product(act_g.cols, repeat=2))
    rep.add("tw2", "(a ↼ g)(b ↼ g) = ab ↼ g", column_certificates(
        (A.mul_vec(ai, aj) for ai, aj in pairs),
        (act_g.apply(prod_ij) for row_i in A.table for prod_ij in row_i),
        PairNames(A.basis_names, A.basis_names, "b"), A.fmt_vec, "a = {}"))

    # (tw3) S(a_(1)) ↼ g ⊗ a_(2) = S(a_(1)) ⊗ a_(2) ↼ g⁻¹ in the product of
    # A^L with the g-deformed left module l·a = s_L(g⁻¹(s_L(l))) a
    if not auto_ok:
        rep.add_skip("tw3", "antipode exchange relation",
                     "g∘s_L is not invertible, the deformed module "
                     "is not defined")
        return rep
    deformed = AlgebraMap(L, A, lb.s.matrix @ gs_inv, HOM, "s∘(g∘s)⁻¹")
    junction = Junction(ActionSpec(lb.s, POST), ActionSpec(deformed, PRE))
    space = BalancedTensorSpace([A, A], [junction])
    act_g_inv = action_matrix(lb, LOWER_STAR, g_inv)
    # S(a_(1)) ↼ g ⊗ a_(2) and S(a_(1)) ⊗ a_(2) ↼ g⁻¹
    lifts, s_then_g = lb.canonical_gamma_lift, act_g @ antipode
    bad = column_certificates(
        (on_leg(s_then_g, 0, w) for w in lifts),
        (tensor_apply(antipode, act_g_inv, w) for w in lifts),
        A.basis_names, space.fmt, "a = {}", space.equal)
    rep.add("tw3", "S(a_(1)) ↼ g ⊗ a_(2) ≡ S(a_(1)) ⊗ a_(2) ↼ g⁻¹", bad)
    return rep


def apply_twist(lb, antipode, g):
    """Assemble the Hopf algebroid with the twisted antipode S_g.

    The inverse is S_g⁻¹(a) = S⁻¹(a) ↼ g⁻¹.
    """
    g_inv = convolution_inverse(DualModule(lb, LOWER_STAR), g)
    if g_inv is None:
        raise ValueError("g has no convolution inverse")
    s_g = twisted_antipode(lb, antipode, g)
    s_inv = antipode.inverse()
    if s_inv is None:
        raise ValueError("the reference antipode is not bijective")
    s_g_inv = action_matrix(lb, LOWER_STAR, g_inv) @ s_inv
    return reconstruct_right(lb, s_g, antipode_inv=s_g_inv)


def recover_twist(lb, antipode, antipode2):
    """The twist relating two antipodes: g = π_L∘S⁻¹∘S′ with convolution
    inverse π_L∘S′⁻¹∘S."""
    s_inv = antipode.inverse()
    s2_inv = antipode2.inverse()
    if s_inv is None or s2_inv is None:
        raise ValueError("antipodes must be bijective")
    g = lb.counit @ s_inv @ antipode2
    g_inv = lb.counit @ s2_inv @ antipode
    return g, g_inv


# ---------------------------------------------------------------------------
# weak Hopf algebras


class WeakHopfAlgebra:
    """(H, Δ, ε, S) over the ground field, with the weakened unit/counit
    laws.  Δ is a d² × d matrix H → H⊗H into the plain tensor square, so
    no lift is chosen; ε is a 1 × d row and S a d × d matrix."""

    def __init__(self, algebra, delta, counit, antipode, name=None):
        self.algebra = algebra
        self.field = algebra.field
        d = algebra.dim
        if delta.nrows != d * d or delta.ncols != d:
            raise ValueError("Δ has the wrong shape")
        if counit.nrows != 1 or counit.ncols != d:
            raise ValueError("ε has the wrong shape")
        if antipode.nrows != d or antipode.ncols != d:
            raise ValueError("S has the wrong shape")
        require_field(self.field, delta, "Δ")
        require_field(self.field, counit, "ε")
        require_field(self.field, antipode, "S")
        self.delta = delta
        self.counit = counit
        self.antipode = antipode
        self.name = name or f"W({algebra.name})"
        self._capl = None
        self._capr = None

    @property
    def dim(self):
        return self.algebra.dim

    def delta1(self):
        return self.delta.apply(self.algebra.unit)

    def counit_val(self, vec):
        return self.counit.apply(vec).get(0, self.field.zero)

    def cap_l(self):
        """⊓^L(x) = ε(1_[1] x) 1_[2]."""
        if self._capl is None:
            self._capl = self._cap(True)
        return self._capl

    def cap_r(self):
        """⊓^R(x) = 1_[1] ε(x 1_[2])."""
        if self._capr is None:
            self._capr = self._cap(False)
        return self._capr

    def _cap(self, left):
        table = self.algebra.table
        d = self.dim
        eps = self.counit_val
        units = [(*divmod(idx, d), c) for idx, c in self.delta1().items()]
        one = self.field.one
        cols = []
        for b in range(d):
            if left:
                terms = ((c * eps(table[i][b]), {j: one}) for i, j, c in units)
            else:
                terms = ((c * eps(table[b][j]), {i: one}) for i, j, c in units)
            cols.append(combine(terms))
        return Matrix.from_sparse_cols(self.field, cols, d)

    def __repr__(self):
        return f"WeakHopfAlgebra({self.name}, dim {self.dim})"


def verify_weak_hopf(w):
    """The weak Hopf algebra axioms, each as a named check.

    Every law is evaluated on basis elements from the structure constants
    ``A.table`` and the entries of Δ, ε and S; a sum over Δ(x) runs over the
    nonzero entries of its column only.  The weakened counit law is checked
    one basis pair (x, y) at a time, for every z at once: both sides and
    ε(xy e_z) are one ``combine`` each of the sparse rows
    ``{z: ε(e_m e_z)}``, and the z on which they differ are listed in
    ascending order.  Each mirrored pair of laws (the weakened unit and
    counit laws, antipode-l/r) is one loop body over its two sides, and the
    counit law is the one ``verify_separability`` checks for (δ, ψ).
    """
    rep = Report(f"weak Hopf algebra {w.name}")
    A = w.algebra
    d = A.dim
    zero = w.field.zero
    table = A.table
    names = A.basis_names
    rep.extend(verify_algebra(A), prefix="alg-")

    # Δ(e_b) as sparse {i*d + j: c} and as (i, j, c) triples
    cols = w.delta.cols
    deltas = [[(*divmod(idx, d), c) for idx, c in col.items()] for col in cols]

    # (Δ⊗id)Δ(e_b) and (id⊗Δ)Δ(e_b), sparse in A⊗A⊗A coordinates
    left2, right2 = ([map_at_factor((d, d), leg, col, d * d, cols.__getitem__)
                      for col in cols] for leg in (0, 1))
    rep.add("coassoc", "(Δ⊗id)Δ = (id⊗Δ)Δ",
            [] if left2 == right2 else ["coassociativity fails"])
    rep.add("counit", "(id⊗ε)Δ = id = (ε⊗id)Δ",
            _counit_failures(A, w.delta, w.counit))

    pairs = list(product(cols, repeat=2))
    rep.add("delta-mult", "Δ(xy) = Δ(x)Δ(y)", column_certificates(
        (tensor_square_product(A, A, u, v) for u, v in pairs),
        (combine((c, cols[m]) for m, c in prod_xy.items())
         for row_x in table for prod_xy in row_x),
        PairNames(names, names, "y"), str, "x = {}"))

    # weakened unit law: (Δ(1)⊗1)(1⊗Δ(1)) = Δ²(1) = (1⊗Δ(1))(Δ(1)⊗1).  For
    # terms e_i⊗e_j and e_p⊗e_q of Δ(1) the left side has the term
    # e_i ⊗ e_j e_p ⊗ e_q and the right side e_p ⊗ e_i e_q ⊗ e_j: each side
    # lists the outer legs (a, z) and the middle factors (x, y) of its terms
    unit_terms = [(*divmod(idx, d), c) for idx, c in w.delta1().items()]
    u2 = combine((c, left2[b]) for b, c in A.unit.items())
    for side, label, terms in (
            ("left", "(Δ(1)⊗1)(1⊗Δ(1))",
             ((i, j, p, q, c1, c2) for i, j, c1 in unit_terms
              for p, q, c2 in unit_terms)),
            ("right", "(1⊗Δ(1))(Δ(1)⊗1)",
             ((p, i, q, j, c1, c2) for i, j, c1 in unit_terms
              for p, q, c2 in unit_terms))):
        acc = {}
        for a, x, y, z, c1, c2 in terms:
            prod_xy = table[x][y]
            if prod_xy:
                c = c1 * c2
                for m, v in prod_xy.items():
                    idx = (a * d + m) * d + z
                    old = acc.get(idx)
                    acc[idx] = c * v if old is None else old + c * v
        ok = nonzero(acc) == u2
        rep.add(f"weak-unit-{side}", f"{label} = (Δ⊗id)Δ(1)",
                [] if ok else [f"{side} weakened unit law fails"])

    # weakened counit law: ε(xy_(1))ε(y_(2)z) = ε(xyz) = ε(xy_(2))ε(y_(1)z),
    # for every z at once, on the sparse rows eps2[m] = {z: ε(e_m e_z)}
    bad_l, bad_r = [], []
    eps2 = [sparse(tuple(w.counit_val(prod_mz) for prod_mz in row_m))
            for row_m in table]
    for x in range(d):
        eps_x = eps2[x]
        for y in range(d):
            target = combine((c, eps2[m]) for m, c in table[x][y].items())
            # x meets the leg ``first`` of Δ(y), z the other one
            for bad, first in ((bad_l, 0), (bad_r, 1)):
                acc = combine((c * eps_x.get(legs[first], zero),
                               eps2[legs[1 - first]])
                              for *legs, c in deltas[y])
                if acc != target:
                    bad.extend(
                        f"x,y,z = {names[x]}, {names[y]}, {names[z]}"
                        for z in sorted(acc.keys() | target.keys())
                        if acc.get(z) != target.get(z))
    rep.add("weak-counit-left", "ε(xy_(1))ε(y_(2)z) = ε(xyz)", bad_l)
    rep.add("weak-counit-right", "ε(xy_(2))ε(y_(1)z) = ε(xyz)", bad_r)
    rep.add("s-bijective", "S is bijective",
            [] if w.antipode.inverse() is not None else ["S is singular"])

    s_cols = w.antipode.cols
    # S(e_i) e_j and e_i S(e_j), only for the legs (i, j) of Δ's terms
    pairs = {(i, j) for terms in deltas for i, j, _ in terms}
    s_then = {(i, j): side_product(A, s_cols[i], j, PRE) for i, j in pairs}
    then_s = {(i, j): side_product(A, s_cols[j], i, POST) for i, j in pairs}
    for law, label, cap, prods in (
            ("antipode-l", "x_(1) S(x_(2)) = ⊓^L(x)", w.cap_l(), then_s),
            ("antipode-r", "S(x_(1)) x_(2) = ⊓^R(x)", w.cap_r(), s_then)):
        rep.add(law, label, column_certificates(
            (combine((c, prods[i, j]) for i, j, c in terms)
             for terms in deltas), cap.cols, names, str, "{}"))

    # S(x_(1)) x_(2) S(x_(3)) = S(x)
    rep.add("antipode-mid", "S(x_(1)) x_(2) S(x_(3)) = S(x)",
            column_certificates(
                (combine((c, A.mul_vec(s_then[idx // d // d, idx // d % d],
                                       s_cols[idx % d]))
                         for idx, c in col.items()) for col in left2),
                s_cols, names, str, "{}"))
    return rep


def _subalgebra(A, vectors, names_prefix, name):
    """The unital subalgebra spanned by the given elements, as a standalone
    algebra together with the inclusion matrix and the coordinates of each
    given element in its basis.  Returns (algebra, inclusion, coordinates)
    or a string describing the obstruction."""
    field = A.field
    sub = Subspace.from_vectors(field, A.dim, vectors)
    basis = sub.sparse_basis()
    n = len(basis)
    unit_coords = sub.coords_of(A.unit)
    if unit_coords is None:
        return "the unit is not in the subspace"
    struct = {}
    for i in range(n):
        for j in range(n):
            prod = A.mul_vec(basis[i], basis[j])
            coords = sub.coords_of(prod)
            if coords is None:
                return "the subspace is not multiplicatively closed"
            for k, c in coords.items():
                struct[(i, j, k)] = c
    names = [f"{names_prefix}{i}" for i in range(n)]
    alg = Algebra.from_struct(field, names, struct, unit=unit_coords,
                              name=name)
    inclusion = Matrix.from_sparse_cols(field, basis, A.dim)
    return alg, inclusion, [sub.coords_of(vec) for vec in vectors]


def weak_hopf_to_hopf_algebroid(w):
    """The Hopf algebroid carried by a weak Hopf algebra:

    left side  (H, L = ⊓^L(H), s = incl, t = S⁻¹|_L, Δ, ⊓^L)
    right side (H, R = ⊓^R(H), s = incl, t = S⁻¹|_R, Δ, ⊓^R)

    Returns (hopf_algebroid_or_None, report).
    """
    rep = Report(f"Hopf algebroid from {w.name}")
    A = w.algebra
    field = w.field
    s_inv = w.antipode.inverse()
    rep.add("s-bijective", "S is bijective",
            [] if s_inv is not None else ["S is singular"])
    if s_inv is None:
        return None, rep

    # (id prefix, ⊓, basis prefix and name of the base, chirality); s is
    # the inclusion, t is S⁻¹ on it, and the counit is ⊓ in base coordinates
    bgds = []
    for side, cap, prefix, X, cls in (
            ("left", w.cap_l(), "l", "L", LeftBialgebroid),
            ("right", w.cap_r(), "r", "R", RightBialgebroid)):
        built = _subalgebra(A, cap.cols, prefix, X)
        ok = not isinstance(built, str)
        rep.add(f"{side}-base", f"⊓^{X}(H) is a unital subalgebra",
                [] if ok else [built])
        if not ok:
            return None, rep
        B, incl, pi_cols = built
        bgds.append(cls(A, B, AlgebraMap(B, A, incl, HOM, f"s_{X}"),
                        AlgebraMap(B, A, s_inv @ incl, ANTI, f"t_{X}"),
                        w.delta,
                        Matrix.from_sparse_cols(field, pi_cols, B.dim),
                        name=f"{w.name}_{X}"))
    lb, rb = bgds

    h = HopfAlgebroid(lb, rb, w.antipode, antipode_inv=s_inv,
                      name=w.name)
    rep.add("assembled", "Hopf algebroid data assembled")
    return h, rep


# ---------------------------------------------------------------------------
# the separability structure a weak Hopf algebra induces on its base, and
# the weak bialgebra a separability structure induces


def separability_from_weak(w, lb):
    """The canonical separability structure δ(l) = l ⊓^L(1_(1)) ⊗ 1_(2),
    ψ = ε|_L on the base of the left bialgebroid extracted from a weak
    Hopf algebra.  ``lb`` must be the left side built by
    weak_hopf_to_hopf_algebroid(w).

    Δ(1) lies in H ⊗ L, so each of its slices Σ_k c_ik e_k by the first
    leg e_i lies in L, though the e_k need not.  Its base coordinates are
    π_L of it, as ⊓^L is the identity on L; ⊓^L(e_i) is π_L(e_i)."""
    d = w.algebra.dim
    L = lb.base
    dl = L.dim
    slices = {}
    for idx, c in w.delta1().items():
        i, k = divmod(idx, d)
        slices.setdefault(i, {})[k] = c
    terms = []
    for i, piece in sorted(slices.items()):
        coords = lb.counit.apply(piece)
        if lb.s.apply(coords) != piece:
            raise ValueError("separability data leaves the base")
        terms.append((w.field.one, tensor_vec(dl, lb.counit.cols[i], coords)))
    unit = combine(terms)
    cols = [map_at_factor((dl, dl), 0, unit, dl, row.__getitem__)
            for row in L.table]
    delta = Matrix.from_sparse_cols(w.field, cols, dl * dl)
    return SeparabilityStructure(L, delta, w.counit @ lb.s.matrix)


def weak_bialgebra_from_sep(lb, sep, antipode):
    """The weak bialgebra induced on the total algebra by a separability
    structure of the base:
    Δ(a) = t_L(e_i) a_(1) ⊗ s_L(f_i) a_(2),  ε = ψ∘π_L, with ``antipode``
    as its antipode."""
    A = lb.total
    field = lb.field
    d = A.dim
    moves = [tensor_vec(d, lb.t.matrix.cols[i], lb.s.apply(f))
             for i, f in sep.idempotent()]
    cols = [combine((field.one, tensor_square_product(A, A, move, w))
                    for move in moves)
            for w in lb.canonical_gamma_lift]
    delta = Matrix.from_sparse_cols(field, cols, d * d)
    counit = sep.psi @ lb.counit
    return WeakHopfAlgebra(A, delta, counit, antipode,
                           name=f"wba({lb.name})")


def ahat_algebra(algebra, delta, counit):
    """The convolution algebra on the plain linear dual of a (weak)
    bialgebra: φφ' = (φ⊗φ')∘Δ, unit ε."""
    d = algebra.dim
    struct = {(*divmod(idx, d), k): c
              for k, col in enumerate(delta.cols) for idx, c in col.items()}
    names = [f"{nm}^" for nm in algebra.basis_names]
    return Algebra.from_struct(algebra.field, names, struct,
                               unit=counit.sparse_rows()[0],
                               name=f"{algebra.name}^")


def _ahat_inverse(algebra, delta, counit, row):
    """The inverse of the functional ``row`` (a 1 × d matrix) in the dual
    convolution algebra Â of (Δ, ε), as a sparse vector; None when it has
    none."""
    ahat = ahat_algebra(algebra, delta, counit)
    u = row.sparse_rows()[0]
    # the matrix of x ↦ ux in Â, column j its product with e_j
    mult = Matrix._of_cols(ahat.field, ahat.dim,
                           [side_product(ahat, u, j, PRE)
                            for j in range(ahat.dim)])
    sol = mult.solve(ahat.unit)
    if sol is None or ahat.mul_vec(sol, u) != ahat.unit:
        return None
    return sol


def kappa_map(lb, sep, phi_row):
    """κ(φ)(a) = Σ_i φ(t_L(e_i) a) f_i — from the plain dual into the
    lower-star dual; φ is a row vector.  Column a sums the legs f_i of the
    idempotent, each scaled by φ of one side product t_L(e_i)·e_a."""
    A = lb.total
    zero = lb.field.zero
    legs = [(lb.t.matrix.cols[i], f) for i, f in sep.idempotent()]
    return Matrix._of_cols(lb.field, lb.base.dim, [
        combine((phi_row.apply(side_product(A, t, a, PRE)).get(0, zero), f)
                for t, f in legs)
        for a in range(A.dim)])


def wha_decide(h, sep=None):
    """Decide whether the Hopf algebroid is a weak Hopf algebra for the
    given separability structure on its left base, by default the one of
    the base's trace form (``separability_structure``; a ValueError when
    that form is degenerate).

    Returns a dict: verdict is "exact" when ψ∘π_L∘S = ψ∘π_L (S itself is
    the weak Hopf antipode), "twistable" when ψ∘π_L∘S is merely invertible
    in the dual convolution algebra (a twist S_g does it; g is returned),
    and "not-weak-hopf" otherwise.  The produced weak Hopf algebra is
    re-verified and its report embedded.
    """
    rep = Report(f"weak Hopf decision for {h.name}")
    lb = h.lb
    if sep is None:
        sep = separability_structure(lb.base)
        if sep is None:
            raise ValueError(f"the base {lb.base.name} has a degenerate "
                             "trace form")
    sep_rep = verify_separability(sep)
    rep.extend(sep_rep, prefix="input-")
    if not sep_rep.passed:
        return {"verdict": "not-weak-hopf", "report": rep,
                "weak_hopf": None, "twist": None}

    field = lb.field
    u_row = sep.psi @ lb.counit @ h.S       # ψ∘π_L∘S
    eps_row = sep.psi @ lb.counit           # ψ∘π_L
    # Δ and ε do not depend on the antipode, so a twist keeps them
    wb = weak_bialgebra_from_sep(lb, sep, antipode=h.S)
    if u_row == eps_row:
        rep.add("decide-exact", "ψ∘π_L∘S = ψ∘π_L")
        wrep = verify_weak_hopf(wb)
        rep.extend(wrep, prefix="wha-")
        return {"verdict": "exact", "report": rep, "weak_hopf": wb,
                "twist": None}
    rep.add_skip("decide-exact", "ψ∘π_L∘S = ψ∘π_L",
                 note="not exact; falling back to invertibility")

    # invertibility of ψ∘π_L∘S in the dual convolution algebra
    sol = _ahat_inverse(lb.total, wb.delta, wb.counit, u_row)
    invertible = sol is not None
    rep.add("decide-invertible", "ψ∘π_L∘S is invertible in Â",
            [] if invertible else ["no convolution inverse"])
    if not invertible:
        return {"verdict": "not-weak-hopf", "report": rep,
                "weak_hopf": None, "twist": None}

    # the twist g = κ(ψ∘π_L∘S)⁻¹ and the repaired antipode S_g
    inv_row = Matrix.from_sparse_rows(field, [sol], lb.total.dim)
    g = kappa_map(lb, sep, inv_row)
    g_inv = kappa_map(lb, sep, u_row)
    trep = verify_twist(lb, h.S, g, g_inv)
    rep.extend(trep, prefix="twist-")
    s_g = twisted_antipode(lb, h.S, g)
    w = WeakHopfAlgebra(lb.total, wb.delta, wb.counit, s_g, name=wb.name)
    wrep = verify_weak_hopf(w)
    rep.extend(wrep, prefix="wha-")
    return {"verdict": "twistable", "report": rep, "weak_hopf": w,
            "twist": (g, g_inv)}

