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

from typing import NamedTuple

from .exactfield import Matrix, Subspace, require_field
from .algebra import (
    HOM,
    ANTI,
    AlgebraMap,
    mult_at_factor,
    on_leg,
    opposite,
    side_product,
    tensor_apply,
    times,
    flip_tensor,
    verify_algebra,
    verify_map,
)
from .bimodtensor import (
    PRE,
    POST,
    ActionSpec,
    Junction,
    BalancedTensorSpace,
)
from .bialgebroid import (
    _LEFT,
    _RIGHT,
    RightBialgebroid,
    _juxt,
    _verify_bialgebroid,
    contract_leg,
    verify_left_morphism,
)
from .report import PairNames, Report, column_certificates


class HopfAlgebroid:
    """A left and a right bialgebroid on one algebra, linked by an antipode.

    ``base_antiiso`` is the anti-isomorphism χ from the right base to the
    left base satisfying s_L ∘ χ = t_R; when omitted it is solved for
    linearly (and its absence is reported by the verifier).

    ``decided`` holds what a construction decided while building it, by
    name (``ls_antipode`` and ``dual_hopf_algebroid`` fill it), so a caller
    that prints those reports does not decide them again; it is empty for
    an assembly made directly.
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
        self.decided = {}
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

    def op(self):
        """Opposite Hopf algebroid on A^op, with the roles of the sides
        swapped; it takes over the mixed triples built so far, swapped."""
        chi_op = self.chi.inverse() if self.chi is not None else None
        h = HopfAlgebroid(self.rb.op(), self.lb.op(), self.S_inv, self.S,
                          base_antiiso=chi_op, name=f"{self.name}^op")
        h._llr, h._rrl = self._rrl, self._llr
        return h

    def cop(self):
        """Co-opposite Hopf algebroid: both coproducts flipped, bases opposed."""
        return HopfAlgebroid(self.lb.cop(), self.rb.cop(), self.S_inv, self.S,
                             name=f"{self.name}_cop")

    def __repr__(self):
        return f"HopfAlgebroid({self.name!r} on {self.total.name})"


def solve_base_antiiso(lb, rb):
    """Solve s_L ∘ χ = t_R for χ: R → L; None when no solution exists."""
    sol = lb.s.matrix.solve_matrix(rb.t.matrix)
    if sol is None:
        return None
    return AlgebraMap(rb.base, lb.base, sol, ANTI, "χ")


def _column_span(matrix):
    return Subspace.from_vectors(matrix.field, matrix.nrows, matrix.cols)


def _mixed_coassociativity(h):
    """The two mixed coassociativity identities (γ_X⊗id)γ_Y = (id⊗γ_Y)γ_X
    of ``h``, for (X, Y) = (L, R) in the left-right triple and then (R, L)
    in the right-left one.  Yields (X, Y), the triple, and the two sides
    on the basis as generators of sparse vectors of the triple."""
    sides = {"L": h.lb, "R": h.rb}
    for (first, then), space in ((("L", "R"), h.llr_space),
                                 (("R", "L"), h.rrl_space)):
        x, y = sides[first], sides[then]
        yield ((first, then), space,
               (x.coproduct_on_leg(w, 0) for w in y.canonical_gamma_lift),
               (y.coproduct_on_leg(w, 1) for w in x.canonical_gamma_lift))


def verify_hopf(h):
    """Verify the full Hopf algebroid axiom set for ``h``."""
    rep = Report(f"hopf algebroid {h.name}")
    lb, rb = h.lb, h.rb
    A = h.total
    d = A.dim

    # a total algebra both sides share is checked once
    ok = lb.total == rb.total
    lb_total = verify_algebra(lb.total)
    rb_total = (lb_total if ok and lb.total.basis_names == rb.total.basis_names
                else verify_algebra(rb.total))
    rep.extend(_verify_bialgebroid(lb, _LEFT, lb_total), prefix="lb-")
    rep.extend(_verify_bialgebroid(rb, _RIGHT, rb_total), prefix="rb-")

    rep.add("same-total", "both bialgebroids live on one algebra",
            [] if ok else ["the two total algebras differ"])
    if not ok:
        return rep

    # (defi): crosswise equality of the base images, s_L(L) = t_R(R) and
    # t_L(L) = s_R(R); the image of each base element that is not in the
    # other image is a certificate
    for cid, left, right in (("defi-s", ("s_L", lb.s), ("t_R", rb.t)),
                             ("defi-t", ("t_L", lb.t), ("s_R", rb.s))):
        spans = {name: _column_span(amap.matrix)
                 for name, amap in (left, right)}
        bad = []
        if spans[left[0]] != spans[right[0]]:
            for (here, amap), (there, _) in ((left, right), (right, left)):
                bad += [f"{here}({b}) = {A.fmt_vec(v)} is not in "
                        f"{there}({there[-1]})"
                        for b, v in zip(amap.source.basis_names,
                                        amap.matrix.cols)
                        if not spans[there].contains(v)]
        rep.add(cid, f"{left[0]}(L) = {right[0]}(R)", bad)

    # the witnessing base anti-isomorphism
    if h.chi is None:
        rep.add("defi-chi", "base anti-isomorphism χ with s_L∘χ = t_R exists",
                ["no linear solution of s_L∘χ = t_R"])
    else:
        rep.extend(verify_map(h.chi), prefix="chi-")
        ok = h.chi.is_bijective()
        rep.add("chi-bijective", "χ is bijective",
                [] if ok else [f"rank(χ) = {h.chi.matrix.rank()}"])
        rep.add("defi-chi", "s_L ∘ χ = t_R",
                [] if lb.s.matrix @ h.chi.matrix == rb.t.matrix
                else ["matrix identity s_L∘χ = t_R fails"])

    # (defii): mixed coassociativity in both mixed triple quotients
    for (first, then), space, lhs, rhs in _mixed_coassociativity(h):
        lhs_text = f"(γ_{first}⊗id)γ_{then}"
        rhs_text = f"(id⊗γ_{then})γ_{first}"
        bad = column_certificates(
            lhs, rhs, A.basis_names, space.fmt,
            f"a = {{}}: {lhs_text}(a) = {{}} but {rhs_text}(a) = {{}}",
            space.equal)
        rep.add(f"defii-{first.lower()}{then.lower()}",
                f"{lhs_text} = {rhs_text}", bad)

    # the antipode is a bijection with the stored inverse
    ok = h.S_inv is not None
    rep.add("s-bijective", "antipode is bijective",
            [] if ok else [f"rank(S) = {h.S.rank()} < {d}"])
    if ok:
        ok = (h.S @ h.S_inv).is_identity() and (h.S_inv @ h.S).is_identity()
        rep.add("s-inverse", "stored inverse composes to the identity",
                [] if ok else ["S∘S' or S'∘S is not the identity"])

    # (defiii): S(t_L(l) a t_R(r)) = s_R(r) S(a) s_L(l), split in halves.
    # These same identities are what make the defiv composites independent
    # of the chosen coproduct representatives.  Each half and each defiv
    # identity is stated by one side, in its own chirality's notation.
    sides = ((lb, rb, _LEFT), (rb, lb, _RIGHT))
    defiii_ok = True
    for own, _, ch in sides:
        side, x, X = ch.side, ch.letter, ch.letter.upper()
        away = POST if side == PRE else PRE
        lhs_text = f"S({_juxt(f't_{X}({x})', 'a', side)})"
        rhs_text = _juxt(f"s_{X}({x})", "S(a)", away)
        pairs = [(i, tx, sx) for i in range(d)
                 for tx, sx in zip(own.t.matrix.cols, own.s.matrix.cols)]
        bad = column_certificates(
            (h.S.apply(side_product(A, tx, i, side)) for i, tx, _ in pairs),
            (times(A, sx, h.S.cols[i], away) for i, _, sx in pairs),
            PairNames(A.basis_names, own.base.basis_names, x), A.fmt_vec,
            f"a = {{}}: {lhs_text} = {{}} but {rhs_text} = {{}}")
        defiii_ok = defiii_ok and not bad
        rep.add(f"defiii-{ch.name}", f"{lhs_text} = {rhs_text}", bad)

    # (defiv): S against either coproduct lands on the other counit,
    # S(a_(1))a_(2) = s_R(π_R(a)) and a^(1)S(a^(2)) = s_L(π_L(a)); S acts on
    # the leg its side's structure maps act on
    note = "" if defiii_ok else \
        "evaluated on canonical representatives; defiii (well-definedness) failed"
    for own, other, ch in sides:
        leg = 0 if ch.side == PRE else 1
        text = _juxt(f"S({ch.legs[leg]})", ch.legs[1 - leg], ch.side)
        Y = "R" if ch is _LEFT else "L"
        want = f"s_{Y}(π_{Y}(a))"
        got = (contract_leg(A, h.S, w, leg, ch.side)
               for w in own.canonical_gamma_lift)
        bad = column_certificates(
            got, (other.s.matrix @ other.counit).cols, A.basis_names,
            A.fmt_vec, f"a = {{}}: {text} = {{}} but {want} = {{}}")
        rep.add(f"defiv-{ch.name}", f"{text} = {want}", bad, note=note)
    return rep


# ---------------------------------------------------------------------------
# structure identities relating the antipode to both counits


def verify_sisom(h):
    """Verify the eight closed-form identities tying S and S^{-1} to the
    right-handed structure maps, plus the two induced bialgebroid morphisms
    into the op-cop transform of the right bialgebroid."""
    rep = Report(f"antipode structure identities for {h.name}")
    lb, rb = h.lb, h.rb
    A = h.total
    d = A.dim
    L = lb.base

    # (id, label, lhs, rhs, the basis the columns run over, its letter,
    # how a column is written)
    fmt_a, fmt_r = A.fmt_vec, rb.base.fmt_vec
    sl, tl, sr, tr = lb.s.matrix, lb.t.matrix, rb.s.matrix, rb.t.matrix
    identities = (
        ("sisom-1", "s_R∘π_R∘s_L = S∘s_L", sr @ rb.counit @ sl, h.S @ sl,
         L, "l", fmt_a),
        ("sisom-2", "t_R∘π_R∘s_L = S∘t_L", tr @ rb.counit @ sl, h.S @ tl,
         L, "l", fmt_a),
        ("sisom-5", "s_R∘π_R∘t_L = S⁻¹∘s_L", sr @ rb.counit @ tl,
         h.S_inv @ sl, L, "l", fmt_a),
        ("sisom-6", "t_R∘π_R∘t_L = S⁻¹∘t_L", tr @ rb.counit @ tl,
         h.S_inv @ tl, L, "l", fmt_a),
        ("sisom-3", "π_R∘s_L∘π_L = π_R∘S", rb.counit @ sl @ lb.counit,
         rb.counit @ h.S, A, "a", fmt_r),
        ("sisom-7", "π_R∘t_L∘π_L = π_R∘S⁻¹", rb.counit @ tl @ lb.counit,
         rb.counit @ h.S_inv, A, "a", fmt_r),
    )
    for cid, label, lhs, rhs, dom, x, fmt in identities:
        bad = column_certificates(lhs.cols, rhs.cols, dom.basis_names, fmt,
                                  f"{x} = {{}}: lhs = {{}}, rhs = {{}}")
        rep.add(cid, label, bad)

    # the antipode and its inverse, each with the base map and the ids of
    # its coproduct identity (in the right bialgebroid's quotient) and of
    # its morphism into the op-cop transform of the right bialgebroid
    space = rb.tensor_space
    target = rb.op().cop()
    antipodes = (("S", h.S, sl, "π_R∘s_L", "sisom-4", "mor-S-"),
                 ("S⁻¹", h.S_inv, tl, "π_R∘t_L", "sisom-8", "mor-Sinv-"))
    for name, m, _, _, cid, _ in antipodes:
        bad = column_certificates(
            (flip_tensor(d, d, tensor_apply(m, m, w))
             for w in lb.canonical_gamma_lift),
            (rb.coproduct_lift(col) for col in m.cols), A.basis_names,
            space.fmt, f"a = {{}}: flip({name}⊗{name})γ_L(a) = {{}} but "
            f"γ_R({name}(a)) = {{}}", space.equal)
        rep.add(cid, f"flip∘({name}⊗{name})∘γ_L = γ_R∘{name}", bad)
    for name, m, base, base_name, _, prefix in antipodes:
        phi = AlgebraMap(A, target.total, m, HOM, name)
        phi_base = AlgebraMap(L, target.base, rb.counit @ base, HOM,
                              base_name)
        rep.extend(verify_left_morphism(lb, target, phi, phi_base),
                   prefix=prefix)
    return rep


# ---------------------------------------------------------------------------
# reconstruction of one side from the other


def reconstruct_right(lb, antipode, antipode_inv=None):
    """Rebuild the right bialgebroid of a Hopf algebroid from (lb, S),
    over the opposite of the left base.

    Returns the assembled HopfAlgebroid; run verify_hopf on it to certify
    the input.
    """
    A = lb.total
    d = A.dim
    field = lb.field
    S = antipode
    S_inv = antipode_inv if antipode_inv is not None else S.inverse()
    if S_inv is None:
        raise ValueError("antipode must be invertible to reconstruct")
    R = opposite(lb.base)
    # maps out of R = L^op, read through s_L / S∘s_L
    s_r = AlgebraMap(R, A, S @ lb.s.matrix, HOM, "s_R")
    t_r = AlgebraMap(R, A, lb.s.matrix, ANTI, "t_R")
    gamma_cols = [flip_tensor(d, d, tensor_apply(
        S, S, lb.coproduct_lift(S_inv.cols[j]))) for j in range(d)]
    gamma_r = Matrix.from_sparse_cols(field, gamma_cols, d * d)
    counit_r = lb.counit @ S_inv
    rb = RightBialgebroid(A, R, s_r, t_r, gamma_r, counit_r,
                          name=f"{lb.name}_right")
    chi = AlgebraMap(R, lb.base, Matrix.identity(field, R.dim), ANTI, "χ")
    return HopfAlgebroid(lb, rb, S, S_inv, base_antiiso=chi,
                         name=f"{lb.name}_hopf")


def reconstruct_left(rb, antipode, antipode_inv=None):
    """Rebuild the left bialgebroid of a Hopf algebroid from (rb, S).

    The opposite of rb is a left bialgebroid on A^op with antipode S⁻¹, so
    reconstruct_right builds the opposite of the wanted Hopf algebroid; read
    back through op it gives, over the opposite of the right base, the
    source t_R, the target S⁻¹∘t_R, the coproduct flip(S⁻¹⊗S⁻¹)∘γ_R∘S and
    the counit π_R∘S.
    """
    S_inv = antipode_inv if antipode_inv is not None else antipode.inverse()
    if S_inv is None:
        raise ValueError("antipode must be invertible to reconstruct")
    mirror = reconstruct_right(rb.op(), S_inv, antipode)
    return from_opposite(mirror, rb)


def from_opposite(mirror, given):
    """The opposite of ``mirror``, a Hopf algebroid built from
    ``given.op()``, around the caller's own bialgebroid.

    ``mirror.op()`` holds ``given`` itself, the opposite of its opposite,
    and the other side on ``given``'s total algebra, which reads its
    quotients from ``mirror``; that side, its maps, χ and the result are
    renamed in place as a direct construction names them.
    """
    h = mirror.op()
    left = isinstance(given, RightBialgebroid)
    built, side, suffix = ((h.lb, "L", "_left") if left
                           else (h.rb, "R", "_right"))
    built.name = f"{given.name}{suffix}"
    built.s.name, built.t.name = f"s_{side}", f"t_{side}"
    h.chi.name = "χ"
    h.name = f"{given.name}_hopf"
    return h


# ---------------------------------------------------------------------------
# closed conditions on (lb, S) alone


# The two identities check_luiiv and check_lu_axioms share, S∘t_L = s_L
# and S(a_(1))a_(2) = t_L(π_L(S(a))), as each names them: (id of the
# first, id of the second, the second's left side in a certificate, the
# second's label)
_LUI = ("lui", "luii", "S(a_(1))a_(2)", "S(a_(1))a_(2) = t_L(π_L(S(a)))")
_LU1 = ("lu1", "lu2", "m(S⊗id)γ(a)", "m(S⊗id)γ = t_L∘π_L∘S")


def _left_antipode_identities(rep, lb, S, notation):
    """Add the two identities of ``notation`` for (lb, S) to ``rep``."""
    A = lb.total
    first, second, lhs, label = notation
    bad = column_certificates(
        (S @ lb.t.matrix).cols, lb.s.matrix.cols, lb.base.basis_names,
        A.fmt_vec, "l = {}: S(t_L(l)) = {} but s_L(l) = {}")
    rep.add(first, "S∘t_L = s_L", bad)
    got = (contract_leg(A, S, w, 0, PRE) for w in lb.canonical_gamma_lift)
    bad = column_certificates(
        got, (lb.t.matrix @ lb.counit @ S).cols, A.basis_names, A.fmt_vec,
        f"a = {{}}: {lhs} = {{}} but t_L(π_L(S(a))) = {{}}")
    rep.add(second, label, bad)


def check_luiiv(lb, antipode):
    """Decide from (lb, S) alone whether reconstruction yields a Hopf algebroid.

    The four conditions: (lui) S∘t_L = s_L with S an anti-automorphism;
    (luii) S(a_(1))a_(2) = t_L(π_L(S(a))); (luiii) the S-conjugate coproduct
    is compatible with the inverse conjugate in the candidate right-handed
    quotient; (luiv) both mixed coassociativity identities for the candidate
    right coproduct (its junction's crosswise base-image equality is checked
    first, as the well-definedness premise).
    """
    rep = Report(f"antipode conditions for {lb.name}")
    A = lb.total
    d = A.dim
    S = antipode
    S_inv = S.inverse()

    rep.extend(verify_map(AlgebraMap(A, A, S, ANTI, "S")), prefix="lui-")
    ok = S_inv is not None
    rep.add("lui-bijective", "S is bijective",
            [] if ok else [f"rank(S) = {S.rank()} < {d}"])
    if not ok:
        return rep
    _left_antipode_identities(rep, lb, S, _LUI)

    # the candidate right bialgebroid: s_R = S∘s_L, t_R = s_L over R = L^op
    h = reconstruct_right(lb, S, S_inv)
    rb = h.rb
    # (luiii) is stated in the candidate's balanced square, whose coproduct
    # is flip(S⊗S)γ_L(S⁻¹(a))
    space = rb.tensor_space
    bad = column_certificates(
        rb.gamma_lift.cols,
        (flip_tensor(d, d, tensor_apply(S_inv, S_inv, lb.coproduct_lift(col)))
         for col in S.cols), A.basis_names, space.fmt,
        "a = {}: flip(S⊗S)γ_L(S⁻¹(a)) = {} but "
        "flip(S⁻¹⊗S⁻¹)γ_L(S(a)) = {}", space.equal)
    rep.add("luiii", "the S- and S⁻¹-conjugate coproducts agree", bad)

    # (luiv) premise: candidate crosswise base-image equality
    ok = _column_span(lb.t.matrix) == _column_span(rb.s.matrix)
    rep.add("luiv-wd", "candidate base images match crosswise (t_L(L) = S(s_L(L)))",
            [] if ok else ["t_L(L) differs from S(s_L(L))"])

    names = {"L": "left", "R": "right"}
    for (first, then), space, lhs, rhs in _mixed_coassociativity(h):
        bad = column_certificates(
            lhs, rhs, A.basis_names, space.fmt,
            "a = {}: the two composites differ in the "
            f"{names[first]}-{names[then]} triple", space.equal)
        rep.add(f"luiv-{first.lower()}{then.lower()}",
                f"(γ_{first}⊗id)γ_{then} = (id⊗γ_{then})γ_{first} for the "
                "candidate", bad)
    return rep


def check_lu_axioms(lb, antipode, section=None):
    """The three convolution-style antipode axioms on (lb, S).

    The third axiom multiplies S against a chosen linear section ξ of the
    projection onto the balanced tensor square; by default the canonical
    echelon section.  Its verdict genuinely depends on that choice, which is
    why ξ is a parameter.
    """
    rep = Report(f"convolution antipode axioms for {lb.name}")
    A = lb.total
    d = A.dim
    S = antipode

    rep.extend(verify_map(AlgebraMap(A, A, S, ANTI, "S")), prefix="lu1-")
    ok = S.inverse() is not None
    rep.add("lu1-bijective", "S is bijective",
            [] if ok else [f"rank(S) = {S.rank()} < {d}"])
    _left_antipode_identities(rep, lb, S, _LU1)

    space = lb.tensor_space
    if section is None:
        section = space.section_matrix()
    if section.nrows != d * d or section.ncols != space.dim:
        raise ValueError("section matrix must map quotient coordinates "
                         "into the tensor square")
    # both products compose sparse columns: proj∘ξ column by column, and
    # ξ applied to the quotient coproduct of each basis element
    ok = (space.projection_matrix() @ section).is_identity()
    rep.add("lu3-section", "ξ is a section of the projection",
            [] if ok else ["proj∘ξ differs from the identity"])

    bad = column_certificates(
        (contract_leg(A, S, section.apply(q), 1, POST)
         for q in lb.gamma_q.cols), (lb.s.matrix @ lb.counit).cols,
        A.basis_names, A.fmt_vec,
        "a = {}: m(id⊗S)ξγ(a) = {} but s_L(π_L(a)) = {}")
    rep.add("lu3", "m(id⊗S)ξγ = s_L∘π_L for the chosen section ξ", bad)
    return rep


def antipode_uniqueness(h1, h2):
    """Check that two Hopf structures over one left bialgebroid must share
    their antipode: the second is recovered from the first by the closed
    formula S'(a) = S(a_(1)) s_L(π_L(a_(2)))."""
    rep = Report("antipode uniqueness")
    ok = h1.lb.same_structure(h2.lb)
    rep.add("same-left-structure", "both share one left bialgebroid",
            [] if ok else ["left bialgebroid data differ"])
    ok2 = h1.rb.same_structure(h2.rb)
    rep.add("same-right-structure", "both share one right bialgebroid",
            [] if ok2 else ["right bialgebroid data differ"])
    if not ok:
        return rep
    lb = h1.lb
    A = lb.total
    s_pi = lb.s.matrix @ lb.counit
    # S(a_(1)) s_L(π_L(a_(2)))
    bad = column_certificates(
        (contract_leg(A, h1.S, on_leg(s_pi, 1, w), 0, PRE)
         for w in lb.canonical_gamma_lift), h2.S.cols, A.basis_names,
        A.fmt_vec, "a = {}: S(a_(1))s_L(π_L(a_(2))) = {} but S'(a) = {}")
    rep.add("unique", "S'(a) = S(a_(1))s_L(π_L(a_(2)))", bad)
    rep.add("antipodes-equal", "the two antipodes coincide",
            [] if h1.S == h2.S else ["S and S' differ as matrices"])
    return rep


# ---------------------------------------------------------------------------
# Galois maps


class GaloisMap(NamedTuple):
    """One Galois map: its total-space matrix between the plain tensor
    squares, and the map and its closed-form inverse between the quotient
    coordinates of ``dom`` and ``cod``."""

    name: str        # the prefix of its check ids
    symbol: str      # the letter of its check labels
    dom: BalancedTensorSpace
    cod: BalancedTensorSpace
    total: Matrix
    forward: Matrix
    inverse: Matrix


class GaloisMaps:
    """The two canonical Galois maps of a Hopf algebroid, with their inverses.

    ``alpha``: a ⊗ b ↦ a_(1) ⊗ a_(2)b from the target-balanced square to the
    coproduct's square; ``beta``: a ⊗ b ↦ a_(2) ⊗ a_(1)b between the two
    source-balanced squares.  ``alpha``, ``beta`` and their inverses
    ``alpha_inv``, ``beta_inv`` are matrices between quotient coordinates;
    ``maps`` holds both maps as ``GaloisMap``s, with their domains,
    codomains and total-space matrices.
    """

    def __init__(self, h):
        self.h = h
        lb = h.lb
        A = h.total
        d = A.dim
        field = h.field
        t_op = lb.t.from_opposite_source()
        s_op = lb.s.from_opposite_source()
        # alpha: A ⊗_{t} A  →  A_L ⊗_L A;  beta: A ⊗_{s} A  →  the
        # (s,t)-twisted square
        spaces = (
            (BalancedTensorSpace([A, A], [Junction(ActionSpec(t_op, POST),
                                                   ActionSpec(t_op, PRE))]),
             lb.tensor_space),
            (BalancedTensorSpace([A, A], [Junction(ActionSpec(lb.s, POST),
                                                   ActionSpec(lb.s, PRE))]),
             BalancedTensorSpace([A, A], [Junction(ActionSpec(s_op, PRE),
                                                   ActionSpec(t_op, PRE))])))

        # total-space matrices of the four maps: e_i ⊗ e_j goes to a
        # coproduct of e_i, legs optionally swapped and moved, times e_j
        cols = ([], [], [], [])
        for w, wr in zip(lb.canonical_gamma_lift, h.rb.canonical_gamma_lift):
            # e_i_(1) ⊗ e_i_(2), e_i^(1) ⊗ S(e_i^(2)), e_i_(2) ⊗ e_i_(1)
            # and e_i^(2) ⊗ S⁻¹(e_i^(1))
            images = (w, on_leg(h.S, 1, wr), flip_tensor(d, d, w),
                      on_leg(h.S_inv, 1, flip_tensor(d, d, wr)))
            for j in range(d):
                ej = {j: field.one}
                for col, img in zip(cols, images):
                    col.append(mult_at_factor(A, [d, d], 1, img, ej, POST))
        totals = [Matrix.from_sparse_cols(field, c, d * d) for c in cols]

        self.maps = tuple(
            GaloisMap(name, symbol, dom, cod, total,
                      cod.projection_matrix() @ total @ dom.section_matrix(),
                      dom.projection_matrix() @ inv @ cod.section_matrix())
            for name, symbol, (dom, cod), total, inv in zip(
                ("alpha", "beta"), "αβ", spaces, totals[::2], totals[1::2]))
        alpha, beta = self.maps
        self.alpha, self.alpha_inv = alpha.forward, alpha.inverse
        self.beta, self.beta_inv = beta.forward, beta.inverse


def verify_galois(h):
    """Build the Galois maps and certify well-definedness, bijectivity, and
    that the closed antipode formulas invert them."""
    rep = Report(f"galois maps for {h.name}")
    maps = GaloisMaps(h).maps

    # well-definedness: the total-space maps must send domain relations into
    # codomain relations
    for m in maps:
        images = (m.total.apply(row) for row in m.dom.echelon.rows.values())
        rep.add(f"{m.name}-wd", f"{m.symbol} kills the domain relations",
                [f"a relation maps to the nonzero class {m.cod.fmt(img)}"
                 for img in images if not m.cod.is_zero_class(img)])

    for m in maps:
        rank = m.forward.rank()
        ok = m.dom.dim == m.cod.dim and rank == m.dom.dim
        rep.add(f"{m.name}-bijective", f"{m.symbol} is bijective",
                [] if ok else [f"rank {rank} on domain of dimension "
                               f"{m.dom.dim}, codomain {m.cod.dim}"])

    # (schinvun): the closed formulas give two-sided inverses
    formulas = {"alpha": "a ⊗ b ↦ a^(1) ⊗ S(a^(2))b",
                "beta": "a ⊗ b ↦ a^(2) ⊗ S⁻¹(a^(1))b"}
    for m in maps:
        ok = ((m.inverse @ m.forward).is_identity()
              and (m.forward @ m.inverse).is_identity())
        rep.add(f"schinvun-{m.name}",
                f"{formulas[m.name]} is a two-sided inverse of {m.symbol}",
                [] if ok else [f"composites with {m.symbol} are not both "
                               "the identity"])
    return rep
