"""Hopf algebroids: a compatible left/right bialgebroid pair with an antipode.

The definition verified here packages four groups of axioms on top of the two
bialgebroid structures sharing one total algebra:

* ``defi``   — the source/target images coincide crosswise
  (s_L(L) = t_R(R) and t_L(L) = s_R(R)), witnessed by an explicit
  anti-isomorphism χ between the bases;
* ``defii``  — the two coproducts commute (mixed coassociativity), stated in
  the mixed balanced triple products;
* ``defiii`` — the antipode exchanges the twisted bimodule structures:
  S(t_L(l) a t_R(r)) = s_R(r) S(a) s_L(l), split into its left and right
  halves (these are also exactly the well-definedness conditions for the
  composites in defiv);
* ``defiv``  — the antipode composes with the coproducts to the
  counit-projections: S(a_(1)) a_(2) = s_R(π_R(a)) and
  a^(1) S(a^(2)) = s_L(π_L(a)).

Alongside the verifier this module houses the constructive companions: the
structure identities tying S to both counits (verify_sisom), reconstruction
of either bialgebroid from the other plus S, the closed-form conditions that
make a left bialgebroid with an anti-automorphism a Hopf algebroid, the
section-dependent convolution-style axioms, and the two Galois maps with
their closed-form inverses.
"""

from .exactfield import Matrix, Subspace, require_field
from .algebra import (
    HOM,
    ANTI,
    AlgebraMap,
    opposite,
    side_product,
    tensor_apply,
    flip_tensor,
    verify_map,
)
from .bimodtensor import (
    PRE,
    POST,
    ActionSpec,
    Junction,
    BalancedTensorSpace,
    mult_at_factor,
)
from .bialgebroid import (
    LeftBialgebroid,
    RightBialgebroid,
    contract_leg,
    sharing_total_checks,
    verify_left_bialgebroid,
    verify_right_bialgebroid,
    verify_left_morphism,
)
from .report import Report


class HopfAlgebroid:
    """A left and a right bialgebroid on one algebra, linked by an antipode.

    ``base_antiiso`` is the anti-isomorphism χ from the right base to the
    left base satisfying s_L ∘ χ = t_R; when omitted it is solved for
    linearly (and its absence is reported by the verifier).
    """

    def __init__(self, lb, rb, antipode, antipode_inv=None, base_antiiso=None,
                 name="H"):
        require_field(lb.field, antipode, "the antipode")
        if antipode_inv is None:
            antipode_inv = antipode.inverse()
        else:
            require_field(lb.field, antipode_inv, "the inverse antipode")
        self.lb = lb
        self.rb = rb
        self.S = antipode
        self.S_inv = antipode_inv
        if base_antiiso is None:
            base_antiiso = solve_base_antiiso(lb, rb)
        self.chi = base_antiiso
        self.name = name
        self._llr = None
        self._rrl = None

    @property
    def total(self):
        return self.lb.total

    @property
    def field(self):
        return self.lb.field

    @property
    def llr_space(self):
        """Balanced triple with a left junction then a right junction,
        built on ``lb.tensor_space``."""
        if self._llr is None:
            self._llr = BalancedTensorSpace(
                [self.lb.tensor_space, self.total], [self.rb.junction()])
        return self._llr

    @property
    def rrl_space(self):
        """Balanced triple with a right junction then a left junction,
        built on ``rb.tensor_space``."""
        if self._rrl is None:
            self._rrl = BalancedTensorSpace(
                [self.rb.tensor_space, self.total], [self.lb.junction()])
        return self._rrl

    def antipode_map(self):
        return AlgebraMap(self.total, self.total, self.S, ANTI, "S")

    def op(self):
        """Opposite Hopf algebroid on A^op, with the roles of the sides swapped."""
        chi_op = self.chi.inverse() if self.chi is not None else None
        return HopfAlgebroid(self.rb.op(), self.lb.op(), self.S_inv, self.S,
                             base_antiiso=chi_op, name=f"{self.name}^op")

    def cop(self):
        """Co-opposite Hopf algebroid: both coproducts flipped, bases opposed."""
        lbc = self.lb.cop()
        rbc = self.rb.cop()
        chi_c = solve_base_antiiso(lbc, rbc)
        return HopfAlgebroid(lbc, rbc, self.S_inv, self.S,
                             base_antiiso=chi_c, name=f"{self.name}_cop")

    def __repr__(self):
        return f"HopfAlgebroid({self.name!r} on {self.total.name})"


def solve_base_antiiso(lb, rb):
    """Solve s_L ∘ χ = t_R for χ: R → L; None when no solution exists."""
    sol = lb.s.matrix.solve_matrix(rb.t.matrix)
    if sol is None:
        return None
    if lb.s.matrix @ sol != rb.t.matrix:
        return None
    return AlgebraMap(rb.base, lb.base, sol, ANTI, "χ")


def _column_span(matrix):
    return Subspace.from_vectors(matrix.field, matrix.nrows, matrix.cols)


def _mixed_coassociativity(lb, rb, llr, rrl):
    """Where the two mixed coassociativity identities fail on the basis:
    (γ_L⊗id)γ_R = (id⊗γ_R)γ_L in ``llr`` and (γ_R⊗id)γ_L = (id⊗γ_L)γ_R in
    ``rrl``.  Returns one list per identity of (index, lhs, rhs) for each
    failing basis element, both sides sparse vectors of the triple."""
    bad_lr, bad_rl = [], []
    for i, (wl, wr) in enumerate(zip(lb.canonical_gamma_lift,
                                     rb.canonical_gamma_lift)):
        lhs, rhs = lb.coproduct_on_leg(wr, 0), rb.coproduct_on_leg(wl, 1)
        if not llr.equal(lhs, rhs):
            bad_lr.append((i, lhs, rhs))
        lhs, rhs = rb.coproduct_on_leg(wl, 0), lb.coproduct_on_leg(wr, 1)
        if not rrl.equal(lhs, rhs):
            bad_rl.append((i, lhs, rhs))
    return bad_lr, bad_rl


def verify_hopf(h, title=None, include_bialgebroids=True):
    """Verify the full Hopf algebroid axiom set for ``h``."""
    rep = Report(title or f"hopf algebroid {h.name}")
    lb, rb = h.lb, h.rb
    A = h.total
    d = A.dim

    if include_bialgebroids:
        with sharing_total_checks():
            rep.extend(verify_left_bialgebroid(lb), prefix="lb-")
            rep.extend(verify_right_bialgebroid(rb), prefix="rb-")

    ok = lb.total == rb.total
    rep.add("same-total", "both bialgebroids live on one algebra", ok,
            [] if ok else ["the two total algebras differ"])
    if not ok:
        return rep

    # (defi): crosswise equality of the base images
    span_sl = _column_span(lb.s.matrix)
    span_tr = _column_span(rb.t.matrix)
    bad = []
    if span_sl != span_tr:
        for j in range(lb.base.dim):
            v = lb.s.matrix.cols[j]
            if not span_tr.contains(v):
                bad.append(f"s_L({lb.base.basis_names[j]}) = {A.fmt_vec(v)} "
                           f"is not in t_R(R)")
        for j in range(rb.base.dim):
            v = rb.t.matrix.cols[j]
            if not span_sl.contains(v):
                bad.append(f"t_R({rb.base.basis_names[j]}) = {A.fmt_vec(v)} "
                           f"is not in s_L(L)")
    rep.add("defi-s", "s_L(L) = t_R(R)", not bad, bad)

    span_tl = _column_span(lb.t.matrix)
    span_sr = _column_span(rb.s.matrix)
    bad = []
    if span_tl != span_sr:
        for j in range(lb.base.dim):
            v = lb.t.matrix.cols[j]
            if not span_sr.contains(v):
                bad.append(f"t_L({lb.base.basis_names[j]}) = {A.fmt_vec(v)} "
                           f"is not in s_R(R)")
        for j in range(rb.base.dim):
            v = rb.s.matrix.cols[j]
            if not span_tl.contains(v):
                bad.append(f"s_R({rb.base.basis_names[j]}) = {A.fmt_vec(v)} "
                           f"is not in t_L(L)")
    rep.add("defi-t", "t_L(L) = s_R(R)", not bad, bad)

    # the witnessing base anti-isomorphism
    if h.chi is None:
        rep.add("defi-chi", "base anti-isomorphism χ with s_L∘χ = t_R exists",
                False, ["no linear solution of s_L∘χ = t_R"])
    else:
        rep.extend(verify_map(h.chi), prefix="chi-")
        ok = h.chi.is_bijective()
        rep.add("chi-bijective", "χ is bijective", ok,
                [] if ok else [f"rank(χ) = {h.chi.matrix.rank()}"])
        ok = lb.s.matrix @ h.chi.matrix == rb.t.matrix
        rep.add("defi-chi", "s_L ∘ χ = t_R", ok,
                [] if ok else ["matrix identity s_L∘χ = t_R fails"])

    # (defii): mixed coassociativity in both mixed triple quotients
    bad_lr, bad_rl = _mixed_coassociativity(lb, rb, h.llr_space, h.rrl_space)
    bad1 = [f"a = {A.basis_names[i]}: (γ_L⊗id)γ_R(a) = {h.llr_space.fmt(lhs)} "
            f"but (id⊗γ_R)γ_L(a) = {h.llr_space.fmt(rhs)}"
            for i, lhs, rhs in bad_lr]
    bad2 = [f"a = {A.basis_names[i]}: (γ_R⊗id)γ_L(a) = {h.rrl_space.fmt(lhs)} "
            f"but (id⊗γ_L)γ_R(a) = {h.rrl_space.fmt(rhs)}"
            for i, lhs, rhs in bad_rl]
    rep.add("defii-lr", "(γ_L⊗id)γ_R = (id⊗γ_R)γ_L", not bad1, bad1)
    rep.add("defii-rl", "(γ_R⊗id)γ_L = (id⊗γ_L)γ_R", not bad2, bad2)

    # the antipode is a bijection with the stored inverse
    ok = h.S_inv is not None
    rep.add("s-bijective", "antipode is bijective", ok,
            [] if ok else [f"rank(S) = {h.S.rank()} < {d}"])
    if ok:
        ok = (h.S @ h.S_inv).is_identity() and (h.S_inv @ h.S).is_identity()
        rep.add("s-inverse", "stored inverse composes to the identity", ok,
                [] if ok else ["S∘S' or S'∘S is not the identity"])

    # (defiii): S(t_L(l) a t_R(r)) = s_R(r) S(a) s_L(l), split in halves.
    # These same identities are what make the defiv composites independent
    # of the chosen coproduct representatives.
    bad_l, bad_r = [], []
    for i in range(d):
        sa = h.S.cols[i]
        for j, (tl, sl) in enumerate(zip(lb.t.matrix.cols, lb.s.matrix.cols)):
            lhs = h.S.apply(side_product(A, tl, i, PRE))
            rhs = A.mul_vec(sa, sl)
            if lhs != rhs:
                bad_l.append(
                    f"a = {A.basis_names[i]}, l = {lb.base.basis_names[j]}: "
                    f"S(t_L(l)a) = {A.fmt_vec(lhs)} but S(a)s_L(l) = "
                    f"{A.fmt_vec(rhs)}")
        for j, (tr, sr) in enumerate(zip(rb.t.matrix.cols, rb.s.matrix.cols)):
            lhs = h.S.apply(side_product(A, tr, i, POST))
            rhs = A.mul_vec(sr, sa)
            if lhs != rhs:
                bad_r.append(
                    f"a = {A.basis_names[i]}, r = {rb.base.basis_names[j]}: "
                    f"S(a t_R(r)) = {A.fmt_vec(lhs)} but s_R(r)S(a) = "
                    f"{A.fmt_vec(rhs)}")
    defiii_ok = not bad_l and not bad_r
    rep.add("defiii-left", "S(t_L(l)a) = S(a)s_L(l)", not bad_l, bad_l)
    rep.add("defiii-right", "S(a t_R(r)) = s_R(r)S(a)", not bad_r, bad_r)

    # (defiv): antipode against either coproduct lands on the other counit
    note = "" if defiii_ok else \
        "evaluated on canonical representatives; defiii (well-definedness) failed"
    sr_pir = rb.s.matrix @ rb.counit
    sl_pil = lb.s.matrix @ lb.counit
    bad_l, bad_r = [], []
    for i, (wl, wr) in enumerate(zip(lb.canonical_gamma_lift,
                                     rb.canonical_gamma_lift)):
        got = contract_leg(A, h.S, wl, 0, PRE)
        want = sr_pir.cols[i]
        if got != want:
            bad_l.append(
                f"a = {A.basis_names[i]}: S(a_(1))a_(2) = {A.fmt_vec(got)} "
                f"but s_R(π_R(a)) = {A.fmt_vec(want)}")
        got = contract_leg(A, h.S, wr, 1, POST)
        want = sl_pil.cols[i]
        if got != want:
            bad_r.append(
                f"a = {A.basis_names[i]}: a^(1)S(a^(2)) = {A.fmt_vec(got)} "
                f"but s_L(π_L(a)) = {A.fmt_vec(want)}")
    rep.add("defiv-left", "S(a_(1))a_(2) = s_R(π_R(a))", not bad_l, bad_l,
            note=note)
    rep.add("defiv-right", "a^(1)S(a^(2)) = s_L(π_L(a))", not bad_r, bad_r,
            note=note)
    return rep


# ---------------------------------------------------------------------------
# structure identities relating the antipode to both counits


def verify_sisom(h, title=None):
    """Verify the eight closed-form identities tying S and S^{-1} to the
    right-handed structure maps, plus the two induced bialgebroid morphisms
    into the op-cop transform of the right bialgebroid."""
    rep = Report(title or f"antipode structure identities for {h.name}")
    lb, rb = h.lb, h.rb
    A = h.total
    d = A.dim
    L = lb.base

    pairs = [
        ("sisom-1", "s_R∘π_R∘s_L = S∘s_L",
         rb.s.matrix @ rb.counit @ lb.s.matrix, h.S @ lb.s.matrix, L),
        ("sisom-2", "t_R∘π_R∘s_L = S∘t_L",
         rb.t.matrix @ rb.counit @ lb.s.matrix, h.S @ lb.t.matrix, L),
        ("sisom-5", "s_R∘π_R∘t_L = S⁻¹∘s_L",
         rb.s.matrix @ rb.counit @ lb.t.matrix, h.S_inv @ lb.s.matrix, L),
        ("sisom-6", "t_R∘π_R∘t_L = S⁻¹∘t_L",
         rb.t.matrix @ rb.counit @ lb.t.matrix, h.S_inv @ lb.t.matrix, L),
    ]
    for cid, label, lhs, rhs, dom in pairs:
        bad = []
        if lhs != rhs:
            for j in range(dom.dim):
                if lhs.cols[j] != rhs.cols[j]:
                    bad.append(
                        f"l = {dom.basis_names[j]}: "
                        f"lhs = {A.fmt_vec(lhs.cols[j])}, "
                        f"rhs = {A.fmt_vec(rhs.cols[j])}")
        rep.add(cid, label, not bad, bad)

    pairs = [
        ("sisom-3", "π_R∘s_L∘π_L = π_R∘S",
         rb.counit @ lb.s.matrix @ lb.counit, rb.counit @ h.S),
        ("sisom-7", "π_R∘t_L∘π_L = π_R∘S⁻¹",
         rb.counit @ lb.t.matrix @ lb.counit, rb.counit @ h.S_inv),
    ]
    for cid, label, lhs, rhs in pairs:
        bad = []
        if lhs != rhs:
            for j in range(d):
                if lhs.cols[j] != rhs.cols[j]:
                    bad.append(
                        f"a = {A.basis_names[j]}: lhs = "
                        f"{rb.base.fmt_vec(lhs.cols[j])}, rhs = "
                        f"{rb.base.fmt_vec(rhs.cols[j])}")
        rep.add(cid, label, not bad, bad)

    # the coproduct identities, in the right bialgebroid's quotient
    space = rb.tensor_space
    bad4, bad8 = [], []
    for i, w in enumerate(lb.canonical_gamma_lift):
        lhs = flip_tensor(d, d, tensor_apply(h.S, h.S, w))
        rhs = rb.coproduct_lift(h.S.cols[i])
        if not space.equal(lhs, rhs):
            bad4.append(
                f"a = {A.basis_names[i]}: flip(S⊗S)γ_L(a) = {space.fmt(lhs)} "
                f"but γ_R(S(a)) = {space.fmt(rhs)}")
        lhs = flip_tensor(d, d, tensor_apply(h.S_inv, h.S_inv, w))
        rhs = rb.coproduct_lift(h.S_inv.cols[i])
        if not space.equal(lhs, rhs):
            bad8.append(
                f"a = {A.basis_names[i]}: flip(S⁻¹⊗S⁻¹)γ_L(a) = "
                f"{space.fmt(lhs)} but γ_R(S⁻¹(a)) = {space.fmt(rhs)}")
    rep.add("sisom-4", "flip∘(S⊗S)∘γ_L = γ_R∘S", not bad4, bad4)
    rep.add("sisom-8", "flip∘(S⁻¹⊗S⁻¹)∘γ_L = γ_R∘S⁻¹", not bad8, bad8)

    # both composites assemble into morphisms of left bialgebroids
    target = h.rb.op().cop()
    phi_s = AlgebraMap(A, target.total, h.S, HOM, "S")
    base_s = AlgebraMap(L, target.base, rb.counit @ lb.s.matrix, HOM, "π_R∘s_L")
    rep.extend(verify_left_morphism(lb, target, phi_s, base_s),
               prefix="mor-S-")
    phi_si = AlgebraMap(A, target.total, h.S_inv, HOM, "S⁻¹")
    base_si = AlgebraMap(L, target.base, rb.counit @ lb.t.matrix, HOM, "π_R∘t_L")
    rep.extend(verify_left_morphism(lb, target, phi_si, base_si),
               prefix="mor-Sinv-")
    return rep


# ---------------------------------------------------------------------------
# reconstruction of one side from the other


def reconstruct_right(lb, antipode, antipode_inv=None, nu=None):
    """Rebuild the right bialgebroid of a Hopf algebroid from (lb, S).

    ``nu`` identifies the new base with the opposite of the left base
    (a multiplicative isomorphism from L^op; identity by default).  Returns
    the assembled HopfAlgebroid; run verify_hopf on it to certify the input.
    """
    A = lb.total
    d = A.dim
    field = lb.field
    S = antipode
    S_inv = antipode_inv if antipode_inv is not None else S.inverse()
    if S_inv is None:
        raise ValueError("antipode must be invertible to reconstruct")
    if nu is None:
        R = opposite(lb.base)
        nu = AlgebraMap(R, R, Matrix.identity(field, R.dim), HOM, "ν")
        nu_inv_mat = nu.matrix
    else:
        R = nu.target
        nu_inv_mat = nu.matrix.inverse()
        if nu_inv_mat is None:
            raise ValueError("base identification must be invertible")
    # maps out of R (νinv lands in L, read through s_L / S∘s_L)
    s_r = AlgebraMap(R, A, S @ lb.s.matrix @ nu_inv_mat, HOM, "s_R")
    t_r = AlgebraMap(R, A, lb.s.matrix @ nu_inv_mat, ANTI, "t_R")
    gamma_cols = [flip_tensor(d, d, tensor_apply(
        S, S, lb.coproduct_lift(S_inv.cols[j]))) for j in range(d)]
    gamma_r = Matrix.from_sparse_cols(field, gamma_cols, d * d)
    counit_r = nu.matrix @ lb.counit @ S_inv
    rb = RightBialgebroid(A, R, s_r, t_r, gamma_r, counit_r,
                          name=f"{lb.name}_right")
    chi = AlgebraMap(R, lb.base, nu_inv_mat, ANTI, "χ")
    return HopfAlgebroid(lb, rb, S, S_inv, base_antiiso=chi,
                         name=f"{lb.name}_hopf")


def reconstruct_left(rb, antipode, antipode_inv=None, mu=None):
    """Rebuild the left bialgebroid of a Hopf algebroid from (rb, S).

    The opposite of rb is a left bialgebroid on A^op with antipode S⁻¹, so
    reconstruct_right builds the opposite of the wanted Hopf algebroid; read
    back through op it gives, over the opposite of the right base (via
    ``mu`` when supplied), the source t_R, the target S⁻¹∘t_R, the
    coproduct flip(S⁻¹⊗S⁻¹)∘γ_R∘S and the counit π_R∘S.
    """
    S_inv = antipode_inv if antipode_inv is not None else antipode.inverse()
    if S_inv is None:
        raise ValueError("antipode must be invertible to reconstruct")
    mirror = reconstruct_right(rb.shared_op(), S_inv, antipode, nu=mu)
    return from_opposite(mirror, rb)


def from_opposite(mirror, given):
    """The opposite of ``mirror``, a Hopf algebroid built from
    ``given.op()``, rebuilt around the caller's own bialgebroid.

    ``mirror.op()`` holds a copy of ``given`` on a double-opposite algebra
    under a suffixed name; keep ``given`` itself instead, move the other
    side onto ``given``'s total algebra under the names a direct
    construction gives it, and keep χ pointing from the right base to the
    left base.
    """
    h = mirror.op()
    A = given.total
    if isinstance(given, RightBialgebroid):
        built, cls, side, suffix = h.lb, LeftBialgebroid, "L", "_left"
    else:
        built, cls, side, suffix = h.rb, RightBialgebroid, "R", "_right"
    s = AlgebraMap(built.base, A, built.s.matrix, built.s.kind, f"s_{side}")
    t = AlgebraMap(built.base, A, built.t.matrix, built.t.kind, f"t_{side}")
    new = cls(A, built.base, s, t, built.gamma_lift, built.counit,
              name=f"{given.name}{suffix}")
    lb, rb = (new, given) if cls is LeftBialgebroid else (given, new)
    chi = AlgebraMap(rb.base, lb.base, h.chi.matrix, ANTI, "χ")
    return HopfAlgebroid(lb, rb, h.S, h.S_inv, base_antiiso=chi,
                         name=f"{given.name}_hopf")


# ---------------------------------------------------------------------------
# closed conditions on (lb, S) alone


def check_luiiv(lb, antipode, antipode_inv=None, title=None):
    """Decide from (lb, S) alone whether reconstruction yields a Hopf algebroid.

    The four conditions: (lui) S∘t_L = s_L with S an anti-automorphism;
    (luii) S(a_(1))a_(2) = t_L(π_L(S(a))); (luiii) the S-conjugate coproduct
    is compatible with the inverse conjugate in the candidate right-handed
    quotient; (luiv) both mixed coassociativity identities for the candidate
    right coproduct (its junction's crosswise base-image equality is checked
    first, as the well-definedness premise).
    """
    rep = Report(title or f"antipode conditions for {lb.name}")
    A = lb.total
    d = A.dim
    field = lb.field
    S = antipode
    S_inv = antipode_inv if antipode_inv is not None else S.inverse()

    smap = AlgebraMap(A, A, S, ANTI, "S")
    rep.extend(verify_map(smap), prefix="lui-")
    ok = S_inv is not None
    rep.add("lui-bijective", "S is bijective", ok,
            [] if ok else [f"rank(S) = {S.rank()} < {d}"])
    if not ok:
        return rep
    lhs = S @ lb.t.matrix
    bad = []
    if lhs != lb.s.matrix:
        for j in range(lb.base.dim):
            if lhs.cols[j] != lb.s.matrix.cols[j]:
                bad.append(
                    f"l = {lb.base.basis_names[j]}: S(t_L(l)) = "
                    f"{A.fmt_vec(lhs.cols[j])} but s_L(l) = "
                    f"{A.fmt_vec(lb.s.matrix.cols[j])}")
    rep.add("lui", "S∘t_L = s_L", not bad, bad)

    t_pi_s = lb.t.matrix @ lb.counit @ S
    bad = []
    for i, w in enumerate(lb.canonical_gamma_lift):
        got = contract_leg(A, S, w, 0, PRE)
        want = t_pi_s.cols[i]
        if got != want:
            bad.append(
                f"a = {A.basis_names[i]}: S(a_(1))a_(2) = {A.fmt_vec(got)} "
                f"but t_L(π_L(S(a))) = {A.fmt_vec(want)}")
    rep.add("luii", "S(a_(1))a_(2) = t_L(π_L(S(a)))", not bad, bad)

    # candidate right-handed data: s_R = S∘s_L, t_R = s_L over R = L^op
    R = opposite(lb.base)
    s_r = AlgebraMap(R, A, S @ lb.s.matrix, HOM, "s_R")
    t_r = AlgebraMap(R, A, lb.s.matrix, ANTI, "t_R")
    gamma_r_cols = [flip_tensor(d, d, tensor_apply(
        S, S, lb.coproduct_lift(S_inv.cols[j]))) for j in range(d)]
    gamma_r = Matrix.from_sparse_cols(field, gamma_r_cols, d * d)
    counit_r = lb.counit @ S_inv
    rb = RightBialgebroid(A, R, s_r, t_r, gamma_r, counit_r,
                          name=f"{lb.name}_cand")
    # (luiii) is stated in the candidate's balanced square
    space = rb.tensor_space
    bad = []
    for i in range(d):
        lhs = flip_tensor(d, d, tensor_apply(
            S, S, lb.coproduct_lift(S_inv.cols[i])))
        rhs = flip_tensor(d, d, tensor_apply(
            S_inv, S_inv, lb.coproduct_lift(S.cols[i])))
        if not space.equal(lhs, rhs):
            bad.append(
                f"a = {A.basis_names[i]}: flip(S⊗S)γ_L(S⁻¹(a)) = "
                f"{space.fmt(lhs)} but flip(S⁻¹⊗S⁻¹)γ_L(S(a)) = "
                f"{space.fmt(rhs)}")
    rep.add("luiii", "the S- and S⁻¹-conjugate coproducts agree", not bad, bad)

    # (luiv) premise: candidate crosswise base-image equality
    span_tl = _column_span(lb.t.matrix)
    span_sr = _column_span(s_r.matrix)
    bad = []
    if span_tl != span_sr:
        bad.append("t_L(L) differs from S(s_L(L))")
    rep.add("luiv-wd", "candidate base images match crosswise (t_L(L) = S(s_L(L)))",
            not bad, bad)

    llr = BalancedTensorSpace([lb.tensor_space, A], [rb.junction()])
    rrl = BalancedTensorSpace([space, A], [lb.junction()])
    bad_lr, bad_rl = _mixed_coassociativity(lb, rb, llr, rrl)
    bad1 = [f"a = {A.basis_names[i]}: the two composites differ in the "
            f"left-right triple" for i, _, _ in bad_lr]
    bad2 = [f"a = {A.basis_names[i]}: the two composites differ in the "
            f"right-left triple" for i, _, _ in bad_rl]
    rep.add("luiv-lr", "(γ_L⊗id)γ_R = (id⊗γ_R)γ_L for the candidate",
            not bad1, bad1)
    rep.add("luiv-rl", "(γ_R⊗id)γ_L = (id⊗γ_L)γ_R for the candidate",
            not bad2, bad2)
    return rep


def check_lu_axioms(lb, antipode, section=None, title=None):
    """The three convolution-style antipode axioms on (lb, S).

    The third axiom multiplies S against a chosen linear section ξ of the
    projection onto the balanced tensor square; by default the canonical
    echelon section.  Its verdict genuinely depends on that choice, which is
    why ξ is a parameter.
    """
    rep = Report(title or f"convolution antipode axioms for {lb.name}")
    A = lb.total
    d = A.dim
    S = antipode

    smap = AlgebraMap(A, A, S, ANTI, "S")
    rep.extend(verify_map(smap), prefix="lu1-")
    ok = S.inverse() is not None
    rep.add("lu1-bijective", "S is bijective", ok,
            [] if ok else [f"rank(S) = {S.rank()} < {d}"])
    lhs = S @ lb.t.matrix
    bad = []
    if lhs != lb.s.matrix:
        for j in range(lb.base.dim):
            if lhs.cols[j] != lb.s.matrix.cols[j]:
                bad.append(
                    f"l = {lb.base.basis_names[j]}: S(t_L(l)) = "
                    f"{A.fmt_vec(lhs.cols[j])} but s_L(l) = "
                    f"{A.fmt_vec(lb.s.matrix.cols[j])}")
    rep.add("lu1", "S∘t_L = s_L", not bad, bad)

    t_pi_s = lb.t.matrix @ lb.counit @ S
    bad = []
    for i, w in enumerate(lb.canonical_gamma_lift):
        got = contract_leg(A, S, w, 0, PRE)
        want = t_pi_s.cols[i]
        if got != want:
            bad.append(
                f"a = {A.basis_names[i]}: m(S⊗id)γ(a) = {A.fmt_vec(got)} "
                f"but t_L(π_L(S(a))) = {A.fmt_vec(want)}")
    rep.add("lu2", "m(S⊗id)γ = t_L∘π_L∘S", not bad, bad)

    space = lb.tensor_space
    if section is None:
        section = space.section_matrix()
    if section.nrows != d * d or section.ncols != space.dim:
        raise ValueError("section matrix must map quotient coordinates "
                         "into the tensor square")
    # both products compose sparse columns: proj∘ξ column by column, and
    # ξ applied to the quotient coproduct of each basis element
    ok = (space.projection_matrix() @ section).is_identity()
    rep.add("lu3-section", "ξ is a section of the projection", ok,
            [] if ok else ["proj∘ξ differs from the identity"])

    s_pi = lb.s.matrix @ lb.counit
    bad = []
    for i, q in enumerate(lb.gamma_q.cols):
        got = contract_leg(A, S, section.apply(q), 1, POST)
        want = s_pi.cols[i]
        if got != want:
            bad.append(
                f"a = {A.basis_names[i]}: m(id⊗S)ξγ(a) = {A.fmt_vec(got)} "
                f"but s_L(π_L(a)) = {A.fmt_vec(want)}")
    rep.add("lu3", "m(id⊗S)ξγ = s_L∘π_L for the chosen section ξ",
            not bad, bad)
    return rep


def antipode_uniqueness(h1, h2, title=None):
    """Check that two Hopf structures over one left bialgebroid must share
    their antipode: the second is recovered from the first by the closed
    formula S'(a) = S(a_(1)) s_L(π_L(a_(2)))."""
    rep = Report(title or "antipode uniqueness")
    ok = (h1.lb.total == h2.lb.total and h1.lb.base == h2.lb.base
          and h1.lb.s == h2.lb.s and h1.lb.t == h2.lb.t
          and h1.lb.gamma_q == h2.lb.gamma_q and h1.lb.counit == h2.lb.counit)
    rep.add("same-left-structure", "both share one left bialgebroid", ok,
            [] if ok else ["left bialgebroid data differ"])
    ok2 = (h1.rb.total == h2.rb.total and h1.rb.base == h2.rb.base
           and h1.rb.s == h2.rb.s and h1.rb.t == h2.rb.t
           and h1.rb.gamma_q == h2.rb.gamma_q and h1.rb.counit == h2.rb.counit)
    rep.add("same-right-structure", "both share one right bialgebroid", ok2,
            [] if ok2 else ["right bialgebroid data differ"])
    if not ok:
        return rep
    lb = h1.lb
    A = lb.total
    s_pi = lb.s.matrix @ lb.counit
    ident = Matrix.identity(lb.field, A.dim)
    bad = []
    for i, w in enumerate(lb.canonical_gamma_lift):
        # S(a_(1)) s_L(π_L(a_(2)))
        acc = contract_leg(A, h1.S, tensor_apply(ident, s_pi, w), 0, PRE)
        if acc != h2.S.cols[i]:
            bad.append(
                f"a = {A.basis_names[i]}: S(a_(1))s_L(π_L(a_(2))) = "
                f"{A.fmt_vec(acc)} but S'(a) = {A.fmt_vec(h2.S.cols[i])}")
    rep.add("unique", "S'(a) = S(a_(1))s_L(π_L(a_(2)))", not bad, bad)
    ok = h1.S == h2.S
    rep.add("antipodes-equal", "the two antipodes coincide", ok,
            [] if ok else ["S and S' differ as matrices"])
    return rep


# ---------------------------------------------------------------------------
# Galois maps


class GaloisMaps:
    """The two canonical Galois maps of a Hopf algebroid, with their inverses.

    ``alpha``: a ⊗ b ↦ a_(1) ⊗ a_(2)b from the target-balanced square to the
    coproduct's square; ``beta``: a ⊗ b ↦ a_(2) ⊗ a_(1)b between the two
    source-balanced squares.  Both are stored as matrices between quotient
    coordinates together with their domains/codomains.
    """

    def __init__(self, h):
        self.h = h
        lb = h.lb
        A = h.total
        d = A.dim
        field = h.field
        t_op = lb.t.from_opposite_source()
        s_op = lb.s.from_opposite_source()

        # alpha: A ⊗_{t} A  →  A_L ⊗_L A
        self.alpha_dom = BalancedTensorSpace(
            [A, A], [Junction(ActionSpec(t_op, POST), ActionSpec(t_op, PRE))])
        self.alpha_cod = lb.tensor_space
        # beta: A ⊗_{s} A  →  (s,t)-twisted square
        self.beta_dom = BalancedTensorSpace(
            [A, A], [Junction(ActionSpec(lb.s, POST), ActionSpec(lb.s, PRE))])
        self.beta_cod = BalancedTensorSpace(
            [A, A], [Junction(ActionSpec(s_op, PRE), ActionSpec(t_op, PRE))])

        # total-space matrices of the four maps: e_i ⊗ e_j goes to a
        # coproduct of e_i, legs optionally swapped and moved, times e_j
        ident = Matrix.identity(field, d)
        cols_a, cols_ai, cols_b, cols_bi = [], [], [], []
        for w, wr in zip(lb.canonical_gamma_lift, h.rb.canonical_gamma_lift):
            # e_i_(1) ⊗ e_i_(2), e_i^(1) ⊗ S(e_i^(2)), e_i_(2) ⊗ e_i_(1)
            # and e_i^(2) ⊗ S⁻¹(e_i^(1))
            images = (w, tensor_apply(ident, h.S, wr), flip_tensor(d, d, w),
                      tensor_apply(ident, h.S_inv, flip_tensor(d, d, wr)))
            for j in range(d):
                ej = {j: field.one}
                for cols, img in zip((cols_a, cols_ai, cols_b, cols_bi),
                                     images):
                    cols.append(mult_at_factor(A, [d, d], 1, img, ej, POST))
        alpha_total = Matrix.from_sparse_cols(field, cols_a, d * d)
        alphainv_total = Matrix.from_sparse_cols(field, cols_ai, d * d)
        beta_total = Matrix.from_sparse_cols(field, cols_b, d * d)
        betainv_total = Matrix.from_sparse_cols(field, cols_bi, d * d)

        self.alpha_total = alpha_total
        self.beta_total = beta_total
        self.alpha = (self.alpha_cod.projection_matrix() @ alpha_total
                      @ self.alpha_dom.section_matrix())
        self.alpha_inv = (self.alpha_dom.projection_matrix() @ alphainv_total
                          @ self.alpha_cod.section_matrix())
        self.beta = (self.beta_cod.projection_matrix() @ beta_total
                     @ self.beta_dom.section_matrix())
        self.beta_inv = (self.beta_dom.projection_matrix() @ betainv_total
                         @ self.beta_cod.section_matrix())


def verify_galois(h, title=None):
    """Build the Galois maps and certify well-definedness, bijectivity, and
    that the closed antipode formulas invert them."""
    rep = Report(title or f"galois maps for {h.name}")
    g = GaloisMaps(h)

    # well-definedness: the total-space maps must send domain relations into
    # codomain relations
    bad = []
    for row in g.alpha_dom.echelon.rows.values():
        img = g.alpha_total.apply(row)
        if not g.alpha_cod.is_zero_class(img):
            bad.append(f"a relation maps to the nonzero class "
                       f"{g.alpha_cod.fmt(img)}")
    rep.add("alpha-wd", "α kills the domain relations", not bad, bad)

    bad = []
    for row in g.beta_dom.echelon.rows.values():
        img = g.beta_total.apply(row)
        if not g.beta_cod.is_zero_class(img):
            bad.append(f"a relation maps to the nonzero class "
                       f"{g.beta_cod.fmt(img)}")
    rep.add("beta-wd", "β kills the domain relations", not bad, bad)

    ok = (g.alpha_dom.dim == g.alpha_cod.dim
          and g.alpha.rank() == g.alpha_dom.dim)
    rep.add("alpha-bijective", "α is bijective", ok,
            [] if ok else [f"rank {g.alpha.rank()} on domain of dimension "
                           f"{g.alpha_dom.dim}, codomain {g.alpha_cod.dim}"])
    ok = (g.beta_dom.dim == g.beta_cod.dim
          and g.beta.rank() == g.beta_dom.dim)
    rep.add("beta-bijective", "β is bijective", ok,
            [] if ok else [f"rank {g.beta.rank()} on domain of dimension "
                           f"{g.beta_dom.dim}, codomain {g.beta_cod.dim}"])

    # (schinvun): the closed formulas give two-sided inverses
    ok = ((g.alpha_inv @ g.alpha).is_identity()
          and (g.alpha @ g.alpha_inv).is_identity())
    rep.add("schinvun-alpha",
            "a ⊗ b ↦ a^(1) ⊗ S(a^(2))b is a two-sided inverse of α", ok,
            [] if ok else ["composites with α are not both the identity"])
    ok = ((g.beta_inv @ g.beta).is_identity()
          and (g.beta @ g.beta_inv).is_identity())
    rep.add("schinvun-beta",
            "a ⊗ b ↦ a^(2) ⊗ S⁻¹(a^(1))b is a two-sided inverse of β", ok,
            [] if ok else ["composites with β are not both the identity"])
    return rep
