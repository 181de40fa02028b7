"""Integral theory for Hopf algebroids, and the antipode rebuilt from one.

A left integral is an element on which every a ∈ A acts through the counit:
aℓ = s_Lπ_L(a)ℓ.  A non-degenerate integral turns the four base-valued duals
into copies of A, carries a Frobenius system for the base extension, induces
an anti-automorphism ~S of A, makes the dual ring a Hopf algebroid again, and
— run in the other direction — an integral with the (sf)/(sb) exchange
properties on a plain right bialgebroid *produces* the antipode.

Everything here is finite linear algebra over an exact field: the action
maps ℓ_R, ᵣℓ, ℓ_L, ₗℓ are assembled as explicit matrices from one coproduct
lift of ℓ (``dualspace.acting_on``), inverted when possible, and every
claimed identity is replayed on a full basis.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .exactfield import Matrix, Subspace
from .algebra import (ANTI, PRE, POST, AlgebraMap, SeparabilityStructure,
                      combine, flip_tensor, fmt_terms, mult_at_factor, on_leg,
                      side_product, tensor_apply, times, verify_map,
                      verify_separability)
from .report import Report, column_certificates
from .bialgebroid import (
    LeftBialgebroid,
    RightBialgebroid,
    verify_left_morphism,
    verify_right_morphism,
)
from .dualspace import (
    DualModule,
    LOWER_STAR,
    STAR_LOWER,
    UPPER_STAR,
    STAR_UPPER,
    acting_on,
    action_matrix,
    dual_lower_star,
    dual_star_lower,
    dual_star_upper,
    dual_upper_star,
    flatten,
    transpose_left,
    transpose_right,
)
from .hopfcore import from_opposite, reconstruct_left, verify_hopf
from .twistlab import (
    WeakHopfAlgebra,
    ahat_algebra,
    separability_from_weak,
    verify_weak_hopf,
    weak_hopf_to_hopf_algebroid,
    wha_decide,
)

LEFT = "left"
RIGHT = "right"


def _side_bialgebroid(parent, side):
    """Resolve ``parent`` (a bialgebroid or a Hopf algebroid) to one side."""
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}, got {side!r}")
    cls, attr = ((LeftBialgebroid, "lb") if side == LEFT
                 else (RightBialgebroid, "rb"))
    if isinstance(parent, cls):
        return parent
    bgd = getattr(parent, attr, None)
    if bgd is None:
        raise TypeError(f"{side} integrals need a {side} bialgebroid "
                        f"(got {parent!r})")
    return bgd


class PreconditionError(ArithmeticError):
    """A construction's precondition does not hold for its input."""


def _require(ok, message):
    if not ok:
        raise PreconditionError(message)


# ---------------------------------------------------------------------------
# integral spaces


@dataclass(frozen=True)
class IntegralSpace:
    """The space of one-sided integrals of a bialgebroid.

    ``parent`` is the bialgebroid the defining equations were taken from,
    ``side`` is ``"left"`` or ``"right"``, and ``space`` is the solution
    subspace of the total algebra.
    """

    parent: object
    side: str
    space: Subspace

    @property
    def dim(self):
        return self.space.dim

    def contains(self, vec):
        """Whether the dense coefficient tuple ``vec`` is an integral."""
        return self.space.contains(self.parent.total.from_dense(vec))

    def basis_vectors(self):
        return [tuple(row) for row in self.space.basis.rows]


def integral_space(parent, side):
    """All one-sided integrals: the elements ℓ with aℓ = s_Lπ_L(a)ℓ for
    every a (left), or Υ with Υa = Υs_Rπ_R(a) (right).

    Both conditions are linear in a, so running over a basis of the total
    algebra is exhaustive; the space is the kernel of the per-basis blocks
    stacked into one matrix.  Block i multiplies by u = e_i − s π(e_i)
    from the side, so column j of the stack holds the sparse products
    u e_j (or e_j u) at rows i·d + k.
    """
    bgd = _side_bialgebroid(parent, side)
    A = bgd.total
    d = A.dim
    one = bgd.field.one
    mult_side = PRE if side == LEFT else POST
    cols = [{} for _ in range(d)]
    for i in range(d):
        through = bgd.s.matrix.apply(bgd.counit.cols[i])
        u = combine(((one, {i: one}), (-one, through)))
        for j in range(d):
            for k, x in side_product(A, u, j, mult_side).items():
                cols[j][i * d + k] = x
    space = Matrix.from_sparse_cols(bgd.field, cols, d * d).kernel()
    return IntegralSpace(bgd, side, space)


def intpr_equivalences(h, ell):
    """Evaluate the five equivalent characterisations of a left integral
    independently and report whether they agree.

    i)   aℓ = s_Lπ_L(a)ℓ for all a;
    ii)  aℓ = t_Lπ_L(a)ℓ for all a;
    iii) S(ℓ) is a right integral;
    iv)  S⁻¹(ℓ) is a right integral;
    v)   S(a)ℓ⁽¹⁾ ⊗ ℓ⁽²⁾ = ℓ⁽¹⁾ ⊗ aℓ⁽²⁾ in A ⊗_R A for all a.

    Each check fails exactly when it has counterexample certificates; the
    final check ``intpr-agree`` asserts the five verdicts coincide, which
    holds for every element — integral or not.
    """
    rep = Report(f"integral characterisations in {h.name}")
    lb, rb, A = h.lb, h.rb, h.total
    ell = A.from_dense(ell)
    d = A.dim

    # i)-iv): a multiplies vec as the structure map's image of π(a) does,
    # from the left on ℓ and from the right on S(ℓ) and S⁻¹(ℓ); ``side``
    # puts vec before (pre) or after (post) the other factor
    values = []
    for cid, label, bgd, vec, amap, side in (
            ("intpr-i", "aℓ = s_Lπ_L(a)ℓ (left integral)", lb, ell, lb.s,
             POST),
            ("intpr-ii", "aℓ = t_Lπ_L(a)ℓ", lb, ell, lb.t, POST),
            ("intpr-iii", "S(ℓ) is a right integral", rb, h.S.apply(ell),
             rb.s, PRE),
            ("intpr-iv", "S⁻¹(ℓ) is a right integral", rb,
             h.S_inv.apply(ell), rb.s, PRE)):
        bad = column_certificates(
            (side_product(A, vec, i, side) for i in range(d)),
            (times(A, vec, amap.apply(col), side)
             for col in bgd.counit.cols),
            A.basis_names, A.fmt_vec, "a = {}: {} ≠ {}")
        rep.add(cid, label, bad)
        values.append(not bad)

    space = rb.tensor_space
    lift = rb.coproduct_lift(ell)
    dims = (d, d)
    bad = column_certificates(
        (mult_at_factor(A, dims, 0, lift, col, PRE) for col in h.S.cols),
        (mult_at_factor(A, dims, 1, lift, {i: h.field.one}, PRE)
         for i in range(d)),
        A.basis_names, space.fmt,
        "a = {}: S(a)ℓ⁽¹⁾⊗ℓ⁽²⁾ = {} but ℓ⁽¹⁾⊗aℓ⁽²⁾ = {}", space.equal)
    rep.add("intpr-v", "S(a)ℓ⁽¹⁾ ⊗ ℓ⁽²⁾ ≡ ℓ⁽¹⁾ ⊗ aℓ⁽²⁾ in A ⊗_R A", bad)

    values.append(not bad)
    agree = all(values) or not any(values)
    rep.add("intpr-agree", "the five characterisations agree",
            [] if agree else [f"truth vector {values}"])
    return rep


# ---------------------------------------------------------------------------
# non-degeneracy


@dataclass
class Degenerate:
    """A failed non-degeneracy witness: the action map that broke, why,
    and its matrix (when it was built) for inspection."""

    reason: str
    matrix: Matrix = None
    rank: int = None

    @property
    def ok(self):
        return False

    def __repr__(self):
        return f"Degenerate({self.reason!r})"


class _Action(NamedTuple):
    """One action map of ℓ from a right-sided dual: ℓ_R : φ ↦ φ⇀ℓ on
    ``module`` 𝒜* or ᵣℓ : φ ↦ φ⇁ℓ on *𝒜, its ``matrix`` over the module's
    basis and, when it is invertible, its ``inverse`` and the dual
    ``element`` λ* = ℓ_R⁻¹(1) or *λ = ᵣℓ⁻¹(1) (both None otherwise)."""

    module: DualModule
    matrix: Matrix
    inverse: Matrix
    element: Matrix


def _right_bgdnd_data(rb, ell):
    """ℓ_R on 𝒜* and ᵣℓ on *𝒜, in that order, as ``_Action``s."""
    actions = []
    for kind in (UPPER_STAR, STAR_UPPER):
        module = DualModule(rb, kind)
        m = module.acting_on(ell)
        inv = m.inverse()
        actions.append(_Action(module, m, inv, None if inv is None
                               else module.element(inv.apply(rb.total.unit))))
    return tuple(actions)


class NondegenerateIntegral:
    """A left integral ℓ whose two action maps from the right-sided duals,

        ℓ_R : 𝒜* → A, φ ↦ φ⇀ℓ        and        ᵣℓ : *𝒜 → A, φ ↦ φ⇁ℓ,

    are bijective.  Stores both matrices and their inverses, the dual
    elements λ* = ℓ_R⁻¹(1) and *λ = ᵣℓ⁻¹(1), and the verification report
    (inverse formulas (fsrinv), and non-degeneracy of S(ℓ) and S⁻¹(ℓ) as
    right integrals).  ``actions`` holds ℓ_R and ᵣℓ as
    ``_right_bgdnd_data`` gives them.
    """

    def __init__(self, parent, ell, actions, report):
        self.parent = parent
        self.ell = ell
        upper, star = actions
        self.upper, self.ellR, self.ellR_inv, self.lambda_star = upper
        self.star_upper, self.Rell, self.Rell_inv, self.star_lambda = star
        self.report = report
        self._kappa = None

    @property
    def ok(self):
        return self.report.passed

    @property
    def kappa(self):
        """The functional π_L ∘ s_R ∘ λ* : A → L, the two-sided integral of
        the dual ring."""
        if self._kappa is None:
            h = self.parent
            self._kappa = h.lb.counit @ h.rb.s.matrix @ self.lambda_star
        return self._kappa

    def __repr__(self):
        return (f"NondegenerateIntegral({self.parent.name}, "
                f"ℓ = {self.parent.total.fmt_vec(self.ell)})")


def _transposes(transpose, phi, A):
    """The matrix of a ↦ transpose(φ, A, a) on flattened functionals."""
    return Matrix.from_sparse_cols(
        A.field, [flatten(transpose(phi, A, {i: A.field.one}))
                  for i in range(A.dim)], phi.nrows * A.dim)


def nondegeneracy(h, ell):
    """Decide non-degeneracy of a left integral ℓ in a Hopf algebroid.

    Builds ℓ_R and ᵣℓ as matrices over the right-sided dual bases and
    inverts them; on singularity returns a ``Degenerate`` carrying the
    offending matrix.  On success the witness also verifies the inverse
    formulas (fsrinv): ℓ_R⁻¹(a) = λ*↼S(a) and ᵣℓ⁻¹(a) = *λ⇂S⁻¹(a), and that
    S(ℓ) and S⁻¹(ℓ) are non-degenerate right integrals (their action maps
    from the left-sided duals are bijective).
    """
    return _nondegeneracy(h, h.total.from_dense(ell), None)


def _nondegeneracy(h, ell, actions):
    """The body of ``nondegeneracy``.  ``actions`` is
    ``_right_bgdnd_data(h.rb, ell)`` when the caller holds it already, so
    the two right duals and the action maps are not built again; ``None``
    builds them once ℓ is known to be a left integral."""
    lb, A = h.lb, h.total
    if not integral_space(h, LEFT).space.contains(ell):
        raise ValueError(f"{A.fmt_vec(ell)} is not a left integral of "
                         f"{h.name}")
    d = A.dim
    if actions is None:
        actions = _right_bgdnd_data(h.rb, ell)

    # ℓ_R and ᵣℓ: (how the dual and the map are written and how the map
    # acts; the inverse formula's check id, antipode and notation)
    maps = (("𝒜*", "ℓ_R", "⇀", "fsrinv-upper", h.S, ("λ*", "↼", "S(a)")),
            ("*𝒜", "ᵣℓ", "⇁", "fsrinv-star", h.S_inv,
             ("*λ", "⇂", "S⁻¹(a)")))
    for act, (dual_text, text, acts, *_) in zip(actions, maps):
        if act.module.dim != d:
            return Degenerate(f"dim {dual_text} = {act.module.dim} ≠ dim A "
                              f"= {d}; {text} cannot be bijective")
        if act.inverse is None:
            r = act.matrix.rank()
            return Degenerate(f"{text} : φ ↦ φ{acts}ℓ has rank {r} of {d}",
                              matrix=act.matrix, rank=r)

    rep = Report(f"non-degenerate integral in {h.name}")
    rep.add("nd-ell-r", "ℓ_R : 𝒜* → A is bijective")
    rep.add("nd-r-ell", "ᵣℓ : *𝒜 → A is bijective")

    # (fsrinv): ℓ_R⁻¹(a) = λ*↼S(a) and ᵣℓ⁻¹(a) = *λ⇂S⁻¹(a)
    for act, (_, text, _, cid, m, formula) in zip(actions, maps):
        rep.add(cid, f"{text}⁻¹(a) = {' '.join(formula)}",
                column_certificates(
                    (act.module.element(col) for col in act.inverse.cols),
                    (transpose_right(act.element, A, a) for a in m.cols),
                    A.basis_names, str,
                    f"a = {{}}: {text}⁻¹(a) ≠ {''.join(formula)}"))

    rint = integral_space(h, RIGHT)
    # Υ_L and ₗΥ: (the left-sided dual, the map's name, how it acts)
    lefts = ((DualModule(lb, LOWER_STAR), "Υ_L", "↼"),
             (DualModule(lb, STAR_LOWER), "ₗΥ", "⇂"))
    for tag, label, vec in (("nd-s-ell", "S(ℓ)", h.S.apply(ell)),
                            ("nd-s-inv-ell", "S⁻¹(ℓ)", h.S_inv.apply(ell))):
        bad = []
        if not rint.space.contains(vec):
            bad.append(f"{label} = {A.fmt_vec(vec)} is not a right integral")
        for module, text, acts in lefts:
            m = module.acting_on(vec)
            if module.dim != d or m.rank() != d:
                bad.append(f"{text} : φ ↦ {label}{acts}φ has rank "
                           f"{m.rank()} of {d}")
        rep.add(tag, f"{label} is a non-degenerate right integral", bad)

    return NondegenerateIntegral(h, ell, actions, rep)


# ---------------------------------------------------------------------------
# the Frobenius system carried by a non-degenerate integral


@dataclass(frozen=True)
class FrobeniusSystem:
    """A Frobenius system (λ*, ℓ⁽¹⁾ ⊗ S(ℓ⁽²⁾)) for the extension s_R: R → A:
    ``functional`` is the base-valued Frobenius functional, ``quasi_basis``
    the element of A ⊗_k A satisfying both quasi-basis identities, as a
    sparse tensor-square vector."""

    functional: Matrix
    quasi_basis: dict


def frobenius_system(nd, h=None):
    """The Frobenius system induced by a non-degenerate integral."""
    h = h or nd.parent
    lift = h.rb.coproduct_lift(nd.ell)
    quasi = on_leg(h.S, 1, lift)
    return FrobeniusSystem(nd.lambda_star, quasi)


def frobenius_check(nd, h=None):
    """Verify that (λ*, ℓ⁽¹⁾ ⊗ S(ℓ⁽²⁾)) is a Frobenius system for
    s_R : R → A.

    Checks the R-bimodule property of λ* first (λ*(s_R(r)a) = rλ*(a) and
    λ*(a s_R(r)) = λ*(a)r), then both quasi-basis identities with
    x ⊗ y = ℓ⁽¹⁾ ⊗ S(ℓ⁽²⁾):

        Σ x · s_R(λ*(y a)) = a     and     Σ s_R(λ*(a x)) · y = a.
    """
    h = h or nd.parent
    rep = Report(f"Frobenius system for s_R in {h.name}")
    rb, A, R = h.rb, h.total, h.rb.base
    lam = nd.lambda_star
    d = A.dim
    one = A.field.one

    # the left half moves s_R(r) onto a from the left, the right half from
    # the right
    bad = []
    for ridx in range(R.dim):
        srv = rb.s.matrix.cols[ridx]
        for i in range(d):
            for side, away, text in (
                    (PRE, POST, "λ*(s_R(r)a) = {} ≠ rλ*(a) = {}"),
                    (POST, PRE, "λ*(a s_R(r)) = {} ≠ λ*(a)r = {}")):
                lhs = lam.apply(side_product(A, srv, i, side))
                rhs = side_product(R, lam.cols[i], ridx, away)
                if lhs != rhs:
                    bad.append(f"r = {R.basis_names[ridx]}, "
                               f"a = {A.basis_names[i]}: "
                               + text.format(R.fmt_vec(lhs), R.fmt_vec(rhs)))
    rep.add("frob-bimodule", "λ* is an R-bimodule map A → R", bad)

    # x ⊗ y runs over e_k ⊗ y_k, y_k the second legs against e_k
    ys = [{} for _ in range(d)]
    for idx, c in frobenius_system(nd, h).quasi_basis.items():
        k, j = divmod(idx, d)
        ys[k][j] = c

    # frob-right is frob-left in A^op with x and y swapped: the inner leg
    # multiplies a and the outer leg s_R(λ*(…)), from the left (pre) in
    # frob-left and from the right (post) in frob-right
    for cid, label, text, legs, side in (
            ("frob-left", "Σ x · s_R(λ*(y a)) = a", "Σ x·s_R(λ*(y a))",
             [({k: one}, y) for k, y in enumerate(ys)], PRE),
            ("frob-right", "Σ s_R(λ*(a x)) · y = a", "Σ s_R(λ*(a x))·y",
             [(y, {k: one}) for k, y in enumerate(ys)], POST)):
        rep.add(cid, label, column_certificates(
            (combine((one, times(A, outer, rb.s.apply(lam.apply(
                side_product(A, inner, i, side))), side))
                for outer, inner in legs) for i in range(d)),
            ({i: one} for i in range(d)), A.basis_names, A.fmt_vec,
            f"a = {{}}: {text} = {{}}"))
    return rep


# ---------------------------------------------------------------------------
# the induced anti-automorphism ~S and the duality square


def twap(h, nd):
    """The anti-automorphism (twap): ~S(a) = ℓ ↼ (a ⇀ κ) with
    κ = π_L ∘ s_R ∘ λ*, where (a⇀κ)(b) = κ(ba).

    Verified to be a bijective anti-homomorphism of the total algebra before
    returning.
    """
    A = h.total
    m = (acting_on(h.lb, LOWER_STAR, nd.ell)
         @ _transposes(transpose_left, nd.kappa, A))
    amap = AlgebraMap(A, A, m, ANTI, "~S")
    rep = verify_map(amap)
    _require(rep.passed, "~S is not an anti-homomorphism: "
             + rep.failure_line())
    _require(m.rank() == A.dim, "~S is not bijective")
    return amap


def duality_diagram(h, nd):
    """Verify the square of left-bialgebroid isomorphisms between the four
    duals of a Hopf algebroid with non-degenerate integral ℓ:

        (𝒜_*)^op_cop  ── (ₗℓ⁻¹ ∘ ~S⁻¹ ∘ ℓ_L, id) ──▶  (₍*₎𝒜)^op_cop
             │                                             │
        (ℓ_R⁻¹∘ℓ_L, π_R∘s_L)                   (ᵣℓ⁻¹∘ₗℓ, π_R∘t_L)
             ▼                                             ▼
            𝒜*  ──── (ᵣℓ⁻¹ ∘ ~S⁻¹ ∘ ℓ_R, π_R∘S⁻¹∘t_R) ──▶  *𝒜

    Builds ℓ_L and ₗℓ (whose bijectivity is checked, not assumed), verifies
    each arrow as a left-bialgebroid morphism with the stated base map, and
    that the square commutes.
    """
    rep = Report(f"duality square for {h.name}")
    lb, rb, A = h.lb, h.rb, h.total
    d = A.dim

    d_ls = dual_lower_star(lb)
    d_sl = dual_star_lower(lb)
    d_us = dual_upper_star(rb)
    d_su = dual_star_upper(rb)
    bad = [f"{dual.module.kind} dual failed: " + dual.report.failure_line()
           for dual in (d_ls, d_sl, d_us, d_su) if not dual.ok]
    rep.add("diagram-duals", "all four dual bialgebroids assemble", bad)
    if bad:
        return rep

    actions = []
    for cid, label, dual in (
            ("ell-l-bijective", "ℓ_L : 𝒜_* → A, φ ↦ ℓ↼φ is bijective", d_ls),
            ("l-ell-bijective", "ₗℓ : ₍*₎𝒜 → A, φ ↦ ℓ⇂φ is bijective", d_sl)):
        m = dual.module.acting_on(nd.ell)
        ok = dual.module.dim == d and m.rank() == d
        rep.add(cid, label, [] if ok else [f"rank {m.rank()} of {d}"])
        actions.append(m)
    if not rep.passed:
        return rep
    ell_l, l_ell = actions

    corner_tl = d_ls.bgd.op().cop()
    corner_tr = d_sl.bgd.op().cop()
    corner_bl = d_us.bgd
    corner_br = d_su.bgd

    ts = twap(h, nd).matrix
    ts_inv = ts.inverse()

    arrows = [
        ("left", corner_tl, corner_bl,
         nd.ellR_inv @ ell_l, rb.counit @ lb.s.matrix),
        ("right", corner_tr, corner_br,
         nd.Rell_inv @ l_ell, rb.counit @ lb.t.matrix),
        ("top", corner_tl, corner_tr,
         l_ell.inverse() @ ts_inv @ ell_l,
         Matrix.identity(h.field, lb.base.dim)),
        ("bottom", corner_bl, corner_br,
         nd.Rell_inv @ ts_inv @ nd.ellR,
         rb.counit @ h.S_inv @ rb.t.matrix),
    ]
    mats = {}
    for label, src, tgt, total, base in arrows:
        mats[label] = total
        rep.extend(verify_left_morphism(src, tgt, total, base),
                   prefix=f"{label}-")
        ok = total.rank() == total.nrows == total.ncols
        rep.add(f"{label}-bijective", f"the {label} arrow is bijective",
                [] if ok else [f"rank {total.rank()}"])

    lhs = mats["bottom"] @ mats["left"]
    rhs = mats["right"] @ mats["top"]
    rep.add("diagram-commutes",
            "bottom ∘ left = right ∘ top as matrices",
            [] if lhs == rhs else ["the square does not commute"])
    return rep


# ---------------------------------------------------------------------------
# the dual Hopf algebroid


def dual_hopf_algebroid(h, nd, name=None):
    """The Hopf algebroid carried by the dual ring 𝒜_* of a Hopf algebroid
    with non-degenerate left integral: the right bialgebroid is the
    lower-star dual, and the antipode is

        S₍*₎(φ) = (ℓ↼φ) ⇀ κ,          κ = π_L ∘ s_R ∘ λ*,

    i.e. S₍*₎ = ℓ_L⁻¹ ∘ ~S ∘ ℓ_L transported through the action of the dual
    on ℓ.  The result is verified, and κ is confirmed to be a two-sided
    non-degenerate integral in it; its ``decided`` keeps the
    ``verify_hopf`` report under ``hopf``, κ's coordinates in its ring
    under ``kappa``, κ's witness under ``kappa_nd`` and the lower-star
    dual, in whose basis S₍*₎ is written, under ``dual``.
    """
    lb, A = h.lb, h.total
    dual = dual_lower_star(lb, name=name or f"{h.name}_*")
    _require(dual.ok, "the lower-star dual did not assemble: "
             + dual.report.failure_line())
    kappa = nd.kappa
    cols = []
    for moved in dual.module.acting_on(nd.ell).cols:
        func = transpose_left(kappa, A, moved)
        coords = dual.module.coords(func)
        _require(coords is not None,
                 "S₍*₎ left the dual constraint subspace")
        cols.append(coords)
    s_star = Matrix.from_sparse_cols(h.field, cols, dual.module.dim)
    hd = reconstruct_left(dual.bgd, s_star)
    hd.name = name or f"{h.name}_*"

    rep = verify_hopf(hd)
    _require(rep.passed, "the dual Hopf algebroid failed verification: "
             + rep.failure_line())

    kc = dual.module.coords(kappa)
    _require(kc is not None, "κ is not a member of the dual ring")
    # _nondegeneracy refuses a κ that is not a left integral
    _require(integral_space(hd, RIGHT).space.contains(kc),
             "κ is not a right integral of the dual")
    nd_dual = _nondegeneracy(hd, kc, None)
    _require(isinstance(nd_dual, NondegenerateIntegral) and nd_dual.ok,
             f"κ is not a non-degenerate integral of the dual: {nd_dual!r}")
    hd.decided.update(hopf=rep, kappa=kc, kappa_nd=nd_dual, dual=dual)
    return hd


# ---------------------------------------------------------------------------
# the dual of a weak Hopf algebra, compared with the dual Hopf algebroid


def dual_weak_hopf(w):
    """The k-linear dual of a weak Hopf algebra: multiplication is the
    transpose of Δ, comultiplication the transpose of multiplication, the
    counit is evaluation at 1, and the antipode is the transpose of S."""
    A = w.algebra
    d = A.dim
    field = w.field
    ahat = ahat_algebra(A, w.delta, w.counit)
    delta_cols = [{} for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k, c in A.table[i][j].items():
                delta_cols[k][i * d + j] = c
    delta_hat = Matrix.from_sparse_cols(field, delta_cols, d * d)
    counit_hat = Matrix.from_sparse_rows(field, [A.unit], d)
    s_hat = w.antipode.transpose()
    return WeakHopfAlgebra(ahat, delta_hat, counit_hat, s_hat,
                           name=f"{A.name}^")


def weak_dual_iso(w, h, nd):
    """For a weak Hopf algebra W with induced Hopf algebroid h and
    non-degenerate integral ℓ: verify that pairing against the counit,

        Φ(ψ) = ε ∘ ψ,        φ(l) = ε₍1₎ ε₍2₎(l)   (whadiso),

    is an isomorphism of right bialgebroids from the lower-star dual onto
    the Hopf algebroid of the k-dual weak Hopf algebra Ĥ — and that the
    weak Hopf algebra produced from the dual Hopf algebroid's antipode
    (via its canonical separability structure) is carried onto Ĥ by Φ as a
    weak Hopf algebra isomorphism.
    """
    rep = Report(f"dual of {w.name} against the dual of {h.name}")
    lb, A = h.lb, h.total
    d = A.dim
    field = h.field

    what = dual_weak_hopf(w)
    rep.extend(verify_weak_hopf(what), prefix="dual-")
    hhat, rep_hat = weak_hopf_to_hopf_algebroid(what)
    rep.add("dual-algebroid", "the dual weak Hopf algebra induces a Hopf "
            "algebroid", [] if rep_hat.passed else [rep_hat.failure_line()])
    if not rep.passed:
        return rep

    dual = dual_lower_star(lb)
    rep.add("dual-assembles", "the lower-star dual assembles",
            [] if dual.ok else [dual.report.failure_line()])
    if not dual.ok:
        return rep

    eps_on_l = w.counit @ lb.s.matrix
    cols = [(eps_on_l @ phi).sparse_rows()[0] for phi in dual.module.basis]
    phi_total = Matrix.from_sparse_cols(field, cols, d)
    ok = dual.module.dim == d and phi_total.rank() == d
    rep.add("dualiso-bijective", "Φ(ψ) = ε∘ψ is bijective onto Ĥ",
            [] if ok else [f"rank {phi_total.rank()} of {d}"])
    if not ok:
        return rep

    # the base map φ(l) = ε₍1₎ ε₍2₎(l), in the coordinates of Ĥ's right base
    delta_eps = what.delta.apply(what.algebra.unit)
    base_cols = []
    bad = []
    for lidx in range(lb.base.dim):
        slv = lb.s.matrix.cols[lidx]
        acc = combine((c * slv[idx % d], {idx // d: field.one})
                      for idx, c in delta_eps.items() if idx % d in slv)
        coords = hhat.rb.s.matrix.solve(acc)
        if coords is None:
            bad.append(f"φ({lb.base.basis_names[lidx]}) is outside the "
                       "right base of Ĥ")
            coords = {}
        base_cols.append(coords)
    rep.add("dualiso-base-lands", "φ(l) = ε₍1₎ε₍2₎(l) lands in Ĥ's right "
            "base", bad)
    phi_base = Matrix.from_sparse_cols(field, base_cols, hhat.rb.base.dim)

    rep.extend(verify_right_morphism(dual.bgd, hhat.rb, phi_total, phi_base),
               prefix="dualiso-")
    if not rep.passed:
        return rep

    # the weak Hopf algebra induced on the dual ring by S₍*₎ maps onto Ĥ
    hd = dual_hopf_algebroid(h, nd)
    sep_l = separability_from_weak(w, lb)
    # the dual's left base is L^op, separable by flip∘δ and the same ψ
    dl = lb.base.dim
    sep = SeparabilityStructure(
        hd.lb.base,
        Matrix.from_sparse_cols(
            field, [flip_tensor(dl, dl, col) for col in sep_l.delta.cols],
            dl * dl),
        sep_l.psi)
    sep_rep = verify_separability(sep)
    rep.add("dualiso-separability", "the separability structure transports "
            "to the dual's base",
            [] if sep_rep.passed else [sep_rep.failure_line()])
    if not sep_rep.passed:
        return rep

    decided = wha_decide(hd, sep=sep)
    ok = decided["verdict"] in ("exact", "twistable") \
        and decided["report"].passed
    rep.add("dualiso-wha", "a twist of S₍*₎ makes the dual ring a weak "
            "Hopf algebra",
            [] if ok else [f"verdict {decided['verdict']}"])
    if not ok:
        return rep
    wd = decided["weak_hopf"]

    rep.add("dualiso-wha-coproduct", "Φ intertwines the coproducts",
            column_certificates(
                (what.delta.apply(col) for col in phi_total.cols),
                (tensor_apply(phi_total, phi_total, col)
                 for col in wd.delta.cols),
                range(d), str, "basis functional {}: Δ̂(Φ(ψ)) ≠ (Φ⊗Φ)Δ(ψ)"))

    def functional(row):
        # a functional on wd's algebra, in the dual basis of its basis
        names = wd.algebra.basis_names
        return fmt_terms(field, ((f"{names[k]}^", row.entry(0, k))
                                 for k in range(row.ncols)))

    lhs = what.counit @ phi_total
    rep.add("dualiso-wha-counit", "Φ intertwines the counits",
            [] if lhs == wd.counit else
            [f"ε̂∘Φ = {functional(lhs)} but ε = {functional(wd.counit)}"])

    lhs = what.antipode @ phi_total
    rhs = phi_total @ wd.antipode
    rep.add("dualiso-wha-antipode", "Φ intertwines the antipodes",
            [] if lhs == rhs else ["Ŝ∘Φ ≠ Φ∘S"])
    return rep


# ---------------------------------------------------------------------------
# the antipode from a non-degenerate integral on a plain right bialgebroid


class _IntegralNotation(NamedTuple):
    """How one side states the non-degeneracy of an integral.

    The statements are made about a right bialgebroid; the right integrals
    of a left bialgebroid are decided on its opposite, where ℓ_R and ᵣℓ
    read as Υ_L and ₗΥ and the two exchange identities trade places.
    """

    # (id, label, failure) for the bijectivity of ℓ_R and of ᵣℓ
    bijective: tuple
    # (identity on the right bialgebroid, (id, label, skip note,
    # certificate)), in emit order
    exchange: tuple
    refusal: str       # ValueError text when the precondition fails
    not_inverse: str   # when the two candidate antipodes are not inverse


_ON_RIGHT = _IntegralNotation(
    (("bgdnd-ell-r", "ℓ_R : 𝒜* → A is bijective",
      "dim 𝒜* = {dim}, rank ℓ_R = {rank} of {d}"),
     ("bgdnd-r-ell", "ᵣℓ : *𝒜 → A is bijective",
      "dim *𝒜 = {dim}, rank ᵣℓ = {rank} of {d}")),
    (("sf", ("sf", "ℓ⁽¹⁾ ⊗ aℓ⁽²⁾ = [(*λ⇂a)⇁ℓ]ℓ⁽¹⁾ ⊗ ℓ⁽²⁾",
             "*λ unavailable: ᵣℓ is not bijective",
             "ℓ⁽¹⁾⊗aℓ⁽²⁾ = {} but [(*λ⇂a)⇁ℓ]ℓ⁽¹⁾⊗ℓ⁽²⁾ = {}")),
     ("sb", ("sb", "aℓ⁽¹⁾ ⊗ ℓ⁽²⁾ = ℓ⁽¹⁾ ⊗ [(λ*↼a)⇀ℓ]ℓ⁽²⁾",
             "λ* unavailable: ℓ_R is not bijective",
             "aℓ⁽¹⁾⊗ℓ⁽²⁾ = {} but ℓ⁽¹⁾⊗[(λ*↼a)⇀ℓ]ℓ⁽²⁾ = {}"))),
    "not a non-degenerate integral for the right bialgebroid: ",
    "(*λ⇂a)⇁ℓ and (λ*↼a)⇀ℓ are not mutually inverse")

_ON_LEFT = _IntegralNotation(
    (("bgdnd-ups-l", "Υ_L : 𝒜_* → A is bijective",
      "dim 𝒜_* = {dim}, rank Υ_L = {rank} of {d}"),
     ("bgdnd-l-ups", "ₗΥ : ₍*₎𝒜 → A is bijective",
      "dim ₍*₎𝒜 = {dim}, rank ₗΥ = {rank} of {d}")),
    (("sb", ("sf", "Υ₍1₎a ⊗ Υ₍2₎ = Υ₍1₎ ⊗ Υ₍2₎[Υ↼(a⇀ρ*)]",
             "ρ* unavailable: Υ_L is not bijective",
             "Υ₍1₎a⊗Υ₍2₎ = {} but Υ₍1₎⊗Υ₍2₎[Υ↼(a⇀ρ*)] = {}")),
     ("sf", ("sb", "Υ₍1₎ ⊗ Υ₍2₎a = Υ₍1₎[Υ⇂(a⇁*ρ)] ⊗ Υ₍2₎",
             "*ρ unavailable: ₗΥ is not bijective",
             "Υ₍1₎⊗Υ₍2₎a = {} but Υ₍1₎[Υ⇂(a⇁*ρ)]⊗Υ₍2₎ = {}"))),
    "not a non-degenerate right integral for the left bialgebroid: ",
    "Υ↼(a⇀ρ*) and Υ⇂(a⇁*ρ) are not mutually inverse")

# (sf) moves a from the second leg with *λ, (sb) from the first with λ*:
# the index in ``_right_bgdnd_data`` of the action whose dual element moves
# a, which is also the leg a multiplies
_EXCHANGES = {"sf": 1, "sb": 0}


def _verify_bgdnd(rb, ell, title, notation):
    """The checks of ``verify_bgdnd``, reported in ``notation``, with what
    they were decided on: the ``_right_bgdnd_data`` actions and, for each
    exchange law that was stated, the matrix of the elements it moves a to,
    under the law's name (columns (*λ⇂a)⇁ℓ under ``sf`` and (λ*↼a)⇀ℓ under
    ``sb``)."""
    rep = Report(title)
    A = rb.total
    d = A.dim
    actions = _right_bgdnd_data(rb, ell)

    for (cid, label, failure), act in zip(notation.bijective, actions):
        ok = act.element is not None
        rep.add(cid, label,
                [] if ok else [failure.format(dim=act.module.dim,
                                              rank=act.matrix.rank(), d=d)])

    space = rb.tensor_space
    lift = rb.coproduct_lift(ell)
    dims = (d, d)
    moved = {}
    for law, (cid, label, skip, certificate) in notation.exchange:
        leg = _EXCHANGES[law]
        act = actions[leg]
        if act.element is None:
            rep.add_skip(cid, label, note=skip)
            continue
        m = moved[law] = (acting_on(rb, act.module.kind, ell)
                          @ _transposes(transpose_right, act.element, A))
        bad = column_certificates(
            (mult_at_factor(A, dims, leg, lift, {i: A.field.one}, PRE)
             for i in range(d)),
            (mult_at_factor(A, dims, 1 - leg, lift, col, PRE)
             for col in m.cols),
            A.basis_names, space.fmt, "a = {}: " + certificate, space.equal)
        rep.add(cid, label, bad)
    return rep, actions, moved


def verify_bgdnd(rb, ell):
    """Decide whether ℓ is a non-degenerate integral for a right
    bialgebroid (no antipode assumed):

    i)  both ℓ_R : 𝒜* → A, φ ↦ φ⇀ℓ and ᵣℓ : *𝒜 → A, φ ↦ φ⇁ℓ are bijective;
    ii) the exchange identities hold in A ⊗_R A for every basis a:
        (sf)  ℓ⁽¹⁾ ⊗ aℓ⁽²⁾ = [(*λ⇂a)⇁ℓ]ℓ⁽¹⁾ ⊗ ℓ⁽²⁾
        (sb)  aℓ⁽¹⁾ ⊗ ℓ⁽²⁾ = ℓ⁽¹⁾ ⊗ [(λ*↼a)⇀ℓ]ℓ⁽²⁾
    """
    return _verify_bgdnd(rb, rb.total.from_dense(ell),
                         f"integral non-degeneracy in {rb.name}",
                         _ON_RIGHT)[0]


def lac_check(rb, k_elem):
    """The auxiliary action identities: whenever the respective action map
    of k is bijective,

        κ*⇀a = s_R(κ*(a))  for κ* = k_R⁻¹(1),   and
        *κ⇁a = t_R(*κ(a))  for *κ = ᵣk⁻¹(1).

    A side whose action map is singular is reported as skipped.
    """
    rep = Report(f"integral action identities in {rb.name}")
    A = rb.total
    for act, (cid, amap, acts, lands, skip) in zip(
            _right_bgdnd_data(rb, A.from_dense(k_elem)),
            (("lac-s", rb.s, "κ*⇀a", "s_R(κ*(a))", "k_R is not bijective"),
             ("lac-t", rb.t, "*κ⇁a", "t_R(*κ(a))", "ᵣk is not bijective"))):
        label = f"{acts} = {lands}"
        kap = act.element
        if kap is None:
            rep.add_skip(cid, label, note=skip)
            continue
        bad = column_certificates(
            action_matrix(rb, act.module.kind, kap).cols,
            (amap.matrix @ kap).cols,
            A.basis_names, A.fmt_vec,
            f"a = {{}}: {acts} = {{}} ≠ {lands} = {{}}")
        rep.add(cid, label, bad)
    return rep


def ls_antipode(rb, ell):
    """Construct the antipode of a right bialgebroid from a non-degenerate
    integral:

        S(a) = (*λ⇂a)⇁ℓ,          S⁻¹(a) = (λ*↼a)⇀ℓ,

    and assemble the full Hopf algebroid with the left bialgebroid rebuilt
    over R^op.  Requires ``verify_bgdnd(rb, ell)`` to pass.  The internal
    proof identities (grs): γ_R(S(a)) = ℓ⁽¹⁾ ⊗ (*λ⇂a)⇁ℓ⁽²⁾ and (grsi):
    γ_R(S⁻¹(a)) = (λ*↼a)⇀ℓ⁽¹⁾ ⊗ ℓ⁽²⁾ are asserted along the way, the result
    passes the full verifier, and ℓ stays non-degenerate in the result.
    A failed precondition raises a ``ValueError`` whose ``report`` is that
    precondition; the result's ``decided`` keeps the precondition under
    ``pre`` and its ``verify_hopf`` report under ``hopf``.
    """
    return _ls(rb, rb.total.from_dense(ell), _ON_RIGHT)


def _ls(rb, ell, notation):
    """The construction of ``ls_antipode``; its precondition is reported
    and refused in ``notation``."""
    pre, actions, moved = _verify_bgdnd(rb, ell, "", notation)
    if not pre.passed:
        refused = ValueError(notation.refusal + pre.failure_line())
        refused.report = pre
        raise refused
    A = rb.total
    d = A.dim
    # S(a) = (*λ⇂a)⇁ℓ and S⁻¹(a) = (λ*↼a)⇀ℓ, as (sf) and (sb) moved a
    antipode, antipode_inv = moved["sf"], moved["sb"]
    _require((antipode @ antipode_inv).is_identity()
             and (antipode_inv @ antipode).is_identity(),
             notation.not_inverse)

    # (grs) γ_R(S(a)) = ℓ⁽¹⁾ ⊗ (*λ⇂a)⇁ℓ⁽²⁾ and (grsi) γ_R(S⁻¹(a)) =
    # (λ*↼a)⇀ℓ⁽¹⁾ ⊗ ℓ⁽²⁾: the functional that moved a acts on the leg a
    # multiplied
    space = rb.tensor_space
    lift = rb.coproduct_lift(ell)
    for i in range(d):
        avec = {i: rb.field.one}
        for law, tag in (("sf", "grs"), ("sb", "grsi")):
            leg = _EXCHANGES[law]
            act = actions[leg]
            acting = action_matrix(rb, act.module.kind,
                                   transpose_right(act.element, A, avec))
            _require(space.equal(rb.coproduct_lift(moved[law].cols[i]),
                                 on_leg(acting, leg, lift)),
                     f"({tag}) fails at a = {A.basis_names[i]}")

    h = reconstruct_left(rb, antipode, antipode_inv)

    # the reconstructed left coproduct agrees with the directly mirrored
    # lift flip(S ⊗ S)γ_R(S⁻¹(a)) as classes in A ⊗_L A
    lspace = h.lb.tensor_space
    for i in range(d):
        alt = flip_tensor(d, d, tensor_apply(
            antipode, antipode, rb.coproduct_lift(antipode_inv.cols[i])))
        _require(lspace.equal(alt, h.lb.gamma_lift.cols[i]),
                 f"left coproduct mismatch at a = {A.basis_names[i]}")

    rep = verify_hopf(h)
    _require(rep.passed, "the reconstructed Hopf algebroid failed "
             "verification: " + rep.failure_line())
    # h.rb is rb itself, so the precondition's dual data is h's
    nd = _nondegeneracy(h, ell, actions)
    _require(isinstance(nd, NondegenerateIntegral) and nd.ok,
             f"ℓ is not a non-degenerate integral of the result: {nd!r}")
    h.decided.update(pre=pre, hopf=rep)
    return h


def verify_bgdnd_right(lb, upsilon):
    """Decide whether Υ is a non-degenerate right integral for a left
    bialgebroid: Υ_L : 𝒜_* → A, φ ↦ Υ↼φ and ₗΥ : ₍*₎𝒜 → A, φ ↦ Υ⇂φ must be
    bijective, and the exchange identities hold in A ⊗_L A:

        (sf)  Υ₍1₎a ⊗ Υ₍2₎ = Υ₍1₎ ⊗ Υ₍2₎[Υ↼(a⇀ρ*)]
        (sb)  Υ₍1₎ ⊗ Υ₍2₎a = Υ₍1₎[Υ⇂(a⇁*ρ)] ⊗ Υ₍2₎

    This is ``verify_bgdnd`` on the opposite right bialgebroid, where ℓ_R
    and ᵣℓ are Υ_L and ₗΥ and its (sb) and (sf) are these (sf) and (sb).
    """
    return _verify_bgdnd(lb.op(), lb.total.from_dense(upsilon),
                         f"right-integral non-degeneracy in {lb.name}",
                         _ON_LEFT)[0]


def ls_right(lb, upsilon):
    """Construct the antipode of a left bialgebroid from a non-degenerate
    right integral Υ,

        S(a) = Υ↼(a⇀ρ*),          S⁻¹(a) = Υ⇂(a⇁*ρ),

    with ρ* = Υ_L⁻¹(1) and *ρ = ₗΥ⁻¹(1), and assemble the right
    bialgebroid by reconstruction.  This is ``ls_antipode`` on the opposite
    right bialgebroid (whose antipode is S⁻¹), read back onto ``lb``.
    """
    return from_opposite(_ls(lb.op(), lb.total.from_dense(upsilon),
                             _ON_LEFT), lb)


# ---------------------------------------------------------------------------
# the double dual


def double_dual_evaluation(h, nd):
    """Exhibit the isomorphism between a Hopf algebroid and the dual of its
    dual: the antipode-twisted evaluation

        a ↦ (φ ↦ S₍*₎(φ)(S(a)))

    lands in the dual module of the dual ring and is an isomorphism of
    right bialgebroids onto the double dual.  (Plain evaluation fails the
    constraint equations already for the 2×2 matrix groupoid; composing
    with both antipodes is what makes the three chirality reversals cancel.)
    """
    rep = Report(f"double dual of {h.name}")
    A = h.total
    d = A.dim
    field = h.field

    # the dual is refused unless κ is a non-degenerate integral of it
    hd = dual_hopf_algebroid(h, nd)
    rep.add("dd-dual-integral", "κ is a non-degenerate integral of the "
            "dual")
    hdd = dual_hopf_algebroid(hd, hd.decided["kappa_nd"])
    rep.add("dd-assembles", "the double dual assembles and verifies")
    # the lower-star duals whose bases S₍*₎ and the double dual are written in
    module = hd.decided["dual"].module
    module2 = hdd.decided["dual"].module

    s_star = hd.S
    bad = []
    cols = []
    for i in range(d):
        target = h.S.cols[i]
        ev_cols = [module.element(s_star.cols[j]).apply(target)
                   for j in range(module.dim)]
        ev = Matrix.from_sparse_cols(field, ev_cols, hd.lb.base.dim)
        coords = module2.coords(ev)
        if coords is None:
            bad.append(f"a = {A.basis_names[i]}: the twisted evaluation "
                       "functional leaves the constraint subspace")
        cols.append(coords)
    rep.add("dd-member", "φ ↦ S₍*₎(φ)(S(a)) lies in the double-dual module",
            bad)
    if bad:
        return rep

    phi_total = Matrix.from_sparse_cols(field, cols, module2.dim)
    ok = module2.dim == d and phi_total.rank() == d
    rep.add("dd-bijective", "the twisted evaluation is bijective",
            [] if ok else [f"rank {phi_total.rank()} of {d}, "
                           f"dim {module2.dim}"])
    if not ok:
        return rep
    rep.extend(verify_right_morphism(h.rb, hdd.rb, phi_total), prefix="dd-")
    return rep
