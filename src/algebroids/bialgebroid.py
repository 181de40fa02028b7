"""Left and right bialgebroids over a noncommutative base, with full verifiers.

A left bialgebroid carries a source map (multiplicative), a target map
(anti-multiplicative) with commuting images, a coproduct valued in the
balanced tensor square over the base, and a base-valued counit.  The verifier
walks every axiom on the whole basis and reports each identity under a short
stable id, with explicit counterexamples on failure:

* ``elbim``  — commuting source/target images (so A is a base bimodule);
* ``cros``   — the coproduct's image satisfies the intertwining relation
  making the subsequent multiplicativity check meaningful;
* ``gmp``    — multiplicativity of the coproduct;
* ``coassoc``, counit laws, and the bimodule-map conditions on both
  structure maps.

A right bialgebroid is a left one read through the opposite algebra, so one
verifier body serves both chiralities.  A small table (``_LEFT``,
``_RIGHT``) says how each side states the axioms: the side the structure
maps multiply on (s(l)a versus a s(r)), the coproduct leg the source acts
on, the base letter and leg notation of the certificates, and the id of the
commuting-images check (``elbim``/``erbim``); ``_templates`` writes each
side's certificate templates from it once.  The emit order of the two
counit laws follows from the leg table: the law acting on the first leg
comes first.  The two classes likewise differ only in ``side`` and
``mirror``; the junction, ``op``, ``cop`` and ``repr`` are written once.

Coproducts are given as a chosen linear lift into the plain tensor square,
a d² × d matrix ``gamma_lift`` held by its sparse columns.  From it each
structure derives, once and lazily: ``gamma_q``, the coproduct in quotient
coordinates, reduced column by column through the tensor square's echelon;
and ``canonical_gamma_lift``, the canonical representative of the coproduct
of each basis element, a sparse tensor-square vector supported on the free
columns.  Every quotient-valued identity is evaluated on those sparse
canonical columns and through the canonical echelon normal form, so
verdicts never depend on the stored representative whenever the relevant
well-definedness checks pass.
"""

from functools import cache
from itertools import product
from typing import NamedTuple

from .exactfield import Matrix, require_field
from .algebra import (
    HOM,
    ANTI,
    AlgebraMap,
    combine,
    map_at_factor,
    opposite,
    side_product,
    tensor_apply,
    tensor_square_product,
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
    mult_at_factor,
)
from .report import PairNames, Report, column_certificates


# ---------------------------------------------------------------------------
# contraction of a sparse tensor-square vector against a linear endomap


def contract_leg(algebra, m, w, leg, side):
    """Sum over the legs of the sparse vector w of m applied to leg ``leg``
    (0 or 1) times the other leg, with the m-value multiplying from
    ``side``; an element.

    For example ``leg=0, side=PRE`` is m(a_(1)) a_(2) and ``leg=1,
    side=POST`` is a_(1) m(a_(2)).  Read from the columns of m and
    ``table``.
    """
    d = algebra.dim
    cols = m.cols
    terms = (divmod(idx, d) + (c,) for idx, c in w.items())
    if leg:
        terms = ((j, i, c) for i, j, c in terms)
    return combine((c, side_product(algebra, cols[i], j, side))
                   for i, j, c in terms)


class _BialgebroidBase:
    """Shared plumbing of the two chiralities.

    A chirality sets ``side``, where its structure maps multiply (PRE for
    s(l)a, POST for a s(r)), and ``mirror``, the chirality of its opposite.
    """

    def __init__(self, total, base, s, t, gamma_lift, counit, name):
        if s.source != base or t.source != base:
            raise ValueError("source/target maps must start at the base")
        if s.target != total or t.target != total:
            raise ValueError("source/target maps must land in the total algebra")
        if s.kind != HOM:
            raise ValueError("source map must be declared multiplicative")
        if t.kind != ANTI:
            raise ValueError("target map must be declared anti-multiplicative")
        d = total.dim
        if gamma_lift.nrows != d * d or gamma_lift.ncols != d:
            raise ValueError("coproduct lift must be a d^2 x d matrix")
        if counit.nrows != base.dim or counit.ncols != d:
            raise ValueError("counit must be a dim(base) x dim(total) matrix")
        require_field(total.field, gamma_lift, "the coproduct lift")
        require_field(total.field, counit, "the counit")
        self.total = total
        self.base = base
        self.s = s
        self.t = t
        self.gamma_lift = gamma_lift
        self.counit = counit
        self.name = name
        self._space = None
        self._triple = None
        self._gamma_q = None
        self._canon_lift = None
        self._junction = None

    @property
    def field(self):
        return self.total.field

    @property
    def tensor_space(self):
        """The balanced tensor square the coproduct lands in (cached)."""
        if self._space is None:
            self._space = BalancedTensorSpace([self.total, self.total],
                                              [self.junction()])
        return self._space

    @property
    def coassoc_space(self):
        """The balanced triple power for the coassociativity check (cached),
        built on ``tensor_space``."""
        if self._triple is None:
            self._triple = BalancedTensorSpace(
                [self.tensor_space, self.total], [self.junction()])
        return self._triple

    @property
    def gamma_q(self):
        """Coproduct as a matrix into quotient coordinates (cached), each
        column reduced from the sparse column of ``gamma_lift``."""
        if self._gamma_q is None:
            space = self.tensor_space
            self._gamma_q = Matrix.from_sparse_cols(
                self.field, [space.coords(col)
                             for col in self.gamma_lift.cols], space.dim)
        return self._gamma_q

    @property
    def canonical_gamma_lift(self):
        """The canonical representative of the coproduct of each basis
        element: one sparse tensor-square vector per column, supported on
        the free columns (cached)."""
        if self._canon_lift is None:
            free = self.tensor_space.free_cols
            self._canon_lift = tuple({free[f]: q[f] for f in sorted(q)}
                                     for q in self.gamma_q.cols)
        return self._canon_lift

    def coproduct_lift(self, vec):
        """Canonical representative of the coproduct of an element, as a
        sparse tensor-square vector."""
        cols = self.canonical_gamma_lift
        return combine((c, cols[j]) for j, c in vec.items())

    def coproduct_on_leg(self, w, leg):
        """(γ⊗id)(w) for ``leg`` 0 and (id⊗γ)(w) for ``leg`` 1: the
        canonical coproduct applied to one leg of a sparse tensor-square
        vector, giving a sparse vector of the triple power."""
        d = self.total.dim
        return map_at_factor((d, d), leg, w, d * d,
                             self.canonical_gamma_lift.__getitem__)

    def counit_apply(self, vec):
        return self.counit.apply(vec)

    def _flipped_gamma(self):
        """``gamma_lift`` with the two legs of every column swapped."""
        d = self.total.dim
        return Matrix.from_sparse_cols(
            self.field, [flip_tensor(d, d, col)
                         for col in self.gamma_lift.cols], d * d)

    def junction(self):
        """The junction of the balanced tensor powers (cached, so that every
        space built on it shares its projection step).  Both maps act from
        ``side``: t on the first factor and s on the second on the left,
        s then t on the right."""
        if self._junction is None:
            maps = (self.t, self.s) if self.side == PRE else (self.s, self.t)
            self._junction = Junction(*(ActionSpec(m, self.side)
                                        for m in maps))
        return self._junction

    def op(self):
        """The opposite structure: the mirror chirality on A^op over the
        same base, with source and target exchanged."""
        aop = opposite(self.total)
        return self.mirror(
            aop, self.base,
            self.t.into_opposite(aop), self.s.into_opposite(aop),
            self.gamma_lift, self.counit, name=f"{self.name}^op")

    def cop(self):
        """The co-opposite structure: the same chirality on A over the
        opposite base, with source and target exchanged and the coproduct
        legs swapped."""
        bop = opposite(self.base)
        return type(self)(
            self.total, bop,
            self.t.from_opposite_source(bop), self.s.from_opposite_source(bop),
            self._flipped_gamma(), self.counit, name=f"{self.name}_cop")

    def __repr__(self):
        return (f"{type(self).__name__}({self.name!r}: {self.total.name} "
                f"over {self.base.name})")

    def same_structure(self, other):
        """Whether ``other`` is this bialgebroid: the same chirality, total
        algebra, base, structure maps and counit, and the same coproduct in
        the balanced tensor square, whichever lift each one stores."""
        return self is other or (
            type(self) is type(other) and self.total == other.total
            and self.base == other.base and self.s == other.s
            and self.t == other.t and self.counit == other.counit
            and self.gamma_q == other.gamma_q)

    def shared_op(self):
        """``op()``, reusing this structure's quotients.

        Pre-multiplication in A^op is post-multiplication in A, so the
        opposite has the same junction relations and the same coproduct
        lift: its balanced tensor powers and canonical coproduct are this
        structure's, and building them again would repeat the same
        elimination.
        """
        op = self.op()
        op._space, op._gamma_q = self.tensor_space, self.gamma_q
        op._canon_lift, op._triple = self.canonical_gamma_lift, self._triple
        return op


class LeftBialgebroid(_BialgebroidBase):
    """Total algebra A over base L with a . l = t(l) a, l . a = s(l) a."""

    side = PRE

    def __init__(self, total, base, s, t, gamma_lift, counit, name="A_L"):
        super().__init__(total, base, s, t, gamma_lift, counit, name)


class RightBialgebroid(_BialgebroidBase):
    """Total algebra A over base R with r . a = a t(r), a . r = a s(r)."""

    side = POST

    def __init__(self, total, base, s, t, gamma_lift, counit, name="A_R"):
        super().__init__(total, base, s, t, gamma_lift, counit, name)


LeftBialgebroid.mirror = RightBialgebroid
RightBialgebroid.mirror = LeftBialgebroid


def rebased(bgd, base, name, total=None, side=None):
    """``bgd`` with s and t declared anew as maps from ``base`` into
    ``total`` (by default its own total algebra).

    The new objects must carry the structure constants of the old ones, as
    a double opposite does, so only the labels change.  ``side`` renames
    the maps s_side and t_side; by default they keep their names.
    """
    total = bgd.total if total is None else total
    names = ((bgd.s.name, bgd.t.name) if side is None
             else (f"s_{side}", f"t_{side}"))
    s, t = (AlgebraMap(base, total, amap.matrix, amap.kind, label)
            for amap, label in zip((bgd.s, bgd.t), names))
    return type(bgd)(total, base, s, t, bgd.gamma_lift, bgd.counit,
                     name=name)


# ---------------------------------------------------------------------------
# verifiers


class _Chirality(NamedTuple):
    """How one side states the bialgebroid axioms."""

    name: str     # "left" or "right", for the report title
    side: str     # where s and t multiply: PRE (s(l)a) or POST (a s(r))
    s_leg: int    # the coproduct leg the source acts on: γ(s·a) = ...
    letter: str   # the base element in certificates
    legs: tuple   # notation of the two coproduct legs
    bim_id: str   # id of the commuting-images check


_LEFT = _Chirality("left", PRE, 0, "l", ("a_(1)", "a_(2)"), "elbim")
_RIGHT = _Chirality("right", POST, 1, "r", ("a^(1)", "a^(2)"), "erbim")


def _juxt(x, y, side):
    """Notation for x multiplying y from ``side``; a bare element name is
    kept apart from what follows it (``a s(r)``)."""
    if side == PRE:
        return f"{x}{y}"
    return f"{y} {x}" if len(y) == 1 else f"{y}{x}"


@cache
def _templates(ch):
    """The certificate template of each check of chirality ``ch`` that
    compares one basis element or pair at a time, by check id, and the
    counit law of each structure map.  They depend on the side's notation
    alone, so each is written once per side, not once per verification."""
    x, legs, side = ch.letter, ch.legs, ch.side
    other = POST if side == PRE else PRE

    def at_leg(k, text):
        return "⊗".join(text if n == k else legs[n] for n in (0, 1))

    # (cros) lets each map act from the other side, on the leg the other
    # map acts on in gamma-*-linear
    on_leg = {ch.s_leg: "s", 1 - ch.s_leg: "t"}
    m0, m1 = on_leg[1], on_leg[0]
    # in pi-mult, c indexes the element of (a, b) whose counit is taken
    c = 1 if side == PRE else 0
    acted, counited = "ab"[1 - c], "ab"[c]
    out = {
        ch.bim_id:
            f"{x} = {{}}: s({x})t({x}') = {{}} but t({x}')s({x}) = {{}}",
        "cros":
            f"a = {{}}: {at_leg(0, _juxt(f'{m0}({x})', legs[0], other))} "
            f"= {{}} but {at_leg(1, _juxt(f'{m1}({x})', legs[1], other))} "
            "= {}",
    }
    laws = {}
    for m, leg in (("s", ch.s_leg), ("t", 1 - ch.s_leg)):
        act = f"{m}({x})"
        on = side if m == "s" else other
        laws[m] = _juxt(f"{m}(π({legs[leg]}))", legs[1 - leg], side)
        rule = f"π({_juxt(f'{m}(π({counited}))', acted, other)})"
        out[f"gamma-{m}-linear"] = (
            f"a = {{}}: γ({_juxt(act, 'a', side)}) = {{}} but "
            f"{at_leg(leg, _juxt(act, legs[leg], side))} = {{}}")
        out[f"pi-{m}-linear"] = (
            f"a = {{}}: π({_juxt(act, 'a', side)}) = {{}} but "
            f"{_juxt(x, 'π(a)', on)} = {{}}")
        out[f"counit-{m}"] = f"a = {{}}: {laws[m]} = {{}}"
        out[f"pi-mult-{m}"] = f"a = {{}}: {rule} = {{}} but π(ab) = {{}}"
    return out, laws


def _verify_bialgebroid(bgd, ch, total_checks):
    """Run every axiom of chirality ``ch`` on the basis; report per identity.
    ``total_checks`` is the ``verify_algebra`` report of the total algebra,
    so that ``verify_hopf`` checks a total shared by both sides once."""
    rep = Report(f"{ch.name} bialgebroid {bgd.name}")
    A, B = bgd.total, bgd.base
    d, db = A.dim, B.dim
    side = ch.side
    other = POST if side == PRE else PRE
    templates, laws = _templates(ch)
    # (name, map, the coproduct leg it acts on in gamma-*-linear, role)
    maps = (("s", bgd.s, ch.s_leg, "source"),
            ("t", bgd.t, 1 - ch.s_leg, "target"))

    rep.extend(total_checks, prefix="total-")
    rep.extend(verify_algebra(B), prefix="base-")
    rep.extend(verify_map(bgd.s), prefix="src-")
    rep.extend(verify_map(bgd.t), prefix="tgt-")

    # the structure maps' columns: the images of the base basis, and the
    # counit's columns; each check runs over the basis pairs of A × L (or
    # A × R) or of A × A, the second index running fastest
    images = {m: amap.matrix.cols for m, amap, _, _ in maps}
    counits = bgd.counit.cols
    one = A.field.one
    by_base = list(product(range(d), range(db)))
    by_total = list(product(range(d), repeat=2))
    base_pairs = PairNames(A.basis_names, B.basis_names, ch.letter)
    total_pairs = PairNames(A.basis_names, A.basis_names, "b")

    # (elbim)/(erbim): the images of s and t commute, so the two base
    # actions make A a bimodule.
    commuting = list(product(images["s"], images["t"]))
    rep.add(ch.bim_id, "source and target images commute",
            column_certificates(
                (A.mul_vec(si, tj) for si, tj in commuting),
                (A.mul_vec(tj, si) for si, tj in commuting),
                PairNames(B.basis_names, B.basis_names, f"{ch.letter}'"),
                A.fmt_vec, templates[ch.bim_id]))

    # quotient-valued identities compare canonical representatives: the
    # coproduct of an element is a combination of the canonical columns,
    # the other side is brought to its normal form
    space = bgd.tensor_space
    dims = [d, d]
    lifts = bgd.canonical_gamma_lift
    table = A.table

    def gamma(u):
        """Canonical coproduct of a sparse element."""
        return combine((c, lifts[k]) for k, c in u.items())

    # bimodule-map conditions on the coproduct: γ(s(l)a) = s(l)a_(1)⊗a_(2)
    # and γ(t(l)a) = a_(1)⊗t(l)a_(2) on the left, mirrored on the right
    for m, _, leg, role in maps:
        img = images[m]
        cid = f"gamma-{m}-linear"
        rep.add(cid, f"coproduct intertwines the {role} action",
                column_certificates(
                    (gamma(side_product(A, img[j], i, side))
                     for i, j in by_base),
                    (space.normal_form(
                        mult_at_factor(A, dims, leg, lifts[i], img[j], side))
                     for i, j in by_base),
                    base_pairs, space.fmt, templates[cid]))

    # (cros): a_(1)t(l)⊗a_(2) = a_(1)⊗a_(2)s(l) on the left.  The image of
    # the coproduct commutes across the junction, which is what makes the
    # multiplicativity test below meaningful on the quotient.
    on_leg = {leg: m for m, _, leg, _ in maps}
    m0, m1 = on_leg[1], on_leg[0]
    bad = column_certificates(
        (mult_at_factor(A, dims, 0, lifts[i], images[m0][j], other)
         for i, j in by_base),
        (mult_at_factor(A, dims, 1, lifts[i], images[m1][j], other)
         for i, j in by_base),
        base_pairs, space.fmt, templates["cros"], space.equal)
    rep.add("cros", "coproduct image commutes across the junction", bad)

    # (gmp): multiplicativity of the coproduct, evaluated on canonical
    # representatives (meaningful as a quotient statement when cros holds).
    note = "evaluated on canonical representatives; cros failed" if bad \
        else ""
    unit = A.unit
    g1 = gamma(unit)
    u11 = space.normal_form({i * d + j: a * b for i, a in unit.items()
                             for j, b in unit.items()})
    rep.add("gmp-unit", "coproduct preserves the unit",
            [] if g1 == u11
            else [f"γ(1) = {space.fmt(g1)} but 1⊗1 = {space.fmt(u11)}"],
            note=note)
    rep.add("gmp", "coproduct is multiplicative", column_certificates(
        (gamma(table[i][j]) for i, j in by_total),
        (space.normal_form(tensor_square_product(A, A, lifts[i], lifts[j]))
         for i, j in by_total),
        total_pairs, space.fmt, "a = {}: γ(ab) = {} but γ(a)γ(b) = {}"),
        note=note)

    # coassociativity in the balanced triple power
    triple = bgd.coassoc_space
    rep.add("coassoc", "coproduct is coassociative", column_certificates(
        (bgd.coproduct_on_leg(w, 0) for w in lifts),
        (bgd.coproduct_on_leg(w, 1) for w in lifts), A.basis_names,
        triple.fmt, "a = {}: (γ⊗id)γ(a) = {} but (id⊗γ)γ(a) = {}",
        triple.equal))

    # counit bimodule-map conditions: π(s(l)a) = lπ(a) and π(t(l)a) = π(a)l
    # on the left; the base multiplies through s on the structure maps'
    # side and through t on the other
    for m, _, _, role in maps:
        cid = f"pi-{m}-linear"
        on = side if m == "s" else other
        rep.add(cid, f"counit intertwines the {role} action",
                column_certificates(
                    (bgd.counit_apply(side_product(A, images[m][j], i, side))
                     for i, j in by_base),
                    (B.mul_vec({j: one}, counits[i]) if on == PRE
                     else B.mul_vec(counits[i], {j: one})
                     for i, j in by_base),
                    base_pairs, B.fmt_vec, templates[cid]))

    # counit laws: s(π(a_(1)))a_(2) = a = t(π(a_(2)))a_(1) on the left; the
    # law on the first leg is the left counit law and comes first
    for m, amap, leg, _ in sorted(maps, key=lambda entry: entry[2]):
        through_counit = amap.matrix @ bgd.counit
        rep.add(f"counit-{m}",
                f"{('left', 'right')[leg]} counit law {laws[m]} = a",
                column_certificates(
                    (contract_leg(A, through_counit, w, leg, side)
                     for w in lifts),
                    ({i: one} for i in range(d)), A.basis_names, A.fmt_vec,
                    templates[f"counit-{m}"]))

    # unit/products under the counit
    pi_one = bgd.counit_apply(unit)
    rep.add("pi-unit", "counit preserves the unit",
            [] if pi_one == B.unit else [f"π(1) = {B.fmt_vec(pi_one)}"])

    # π(a s(π(b))) = π(ab) on the left, π(s(π(a))b) = π(ab) on the right;
    # c indexes the element of (a, b) whose counit is taken
    c = 1 if side == PRE else 0
    pi_ab = [bgd.counit_apply(table[i][j]) for i, j in by_total]
    for m, amap, _, role in maps:
        cid = f"pi-mult-{m}"
        rep.add(cid, f"counit product rule through the {role}",
                column_certificates(
                    (bgd.counit_apply(side_product(
                        A, amap.apply(counits[pair[c]]), pair[1 - c], other))
                     for pair in by_total),
                    pi_ab, total_pairs, B.fmt_vec, templates[cid]))
    return rep


def verify_left_bialgebroid(lb):
    """Run every left-bialgebroid axiom on the basis; report per identity."""
    return _verify_bialgebroid(lb, _LEFT, verify_algebra(lb.total))


def verify_right_bialgebroid(rb):
    """Run every right-bialgebroid axiom on the basis; report per identity.

    The axioms are the left ones read through the opposite algebra, stated
    on ``rb`` itself in right-handed notation (see ``_RIGHT``).
    """
    return _verify_bialgebroid(rb, _RIGHT, verify_algebra(rb.total))


# ---------------------------------------------------------------------------
# morphisms


def induced_base_map(src, tgt, phi_total):
    """The base map a left-bialgebroid morphism forces: π' ∘ Φ ∘ s."""
    mat = tgt.counit @ phi_total.matrix @ src.s.matrix
    return AlgebraMap(src.base, tgt.base, mat, HOM, name="φ")


def verify_left_morphism(src, tgt, phi_total, phi_base=None):
    """Check that (Φ, φ) is a morphism of left bialgebroids.

    ``phi_total`` maps totals, ``phi_base`` maps bases; when the base
    component is omitted it is induced as π' ∘ Φ ∘ s.
    """
    rep = Report(f"morphism {src.name} → {tgt.name}")
    if isinstance(phi_total, Matrix):
        phi_total = AlgebraMap(src.total, tgt.total, phi_total, HOM, "Φ")
    if phi_base is None:
        phi_base = induced_base_map(src, tgt, phi_total)
    elif isinstance(phi_base, Matrix):
        phi_base = AlgebraMap(src.base, tgt.base, phi_base, HOM, "φ")

    rep.extend(verify_map(phi_total), prefix="total-")
    rep.extend(verify_map(phi_base), prefix="base-")

    A, L = src.total, src.base
    phi, base = phi_total.matrix, phi_base.matrix

    # (id, label, lhs, rhs, domain, codomain, variable, lhs text, rhs text)
    squares = (
        ("mor-src", "Φ ∘ s = s' ∘ φ", phi @ src.s.matrix,
         tgt.s.matrix @ base, L, tgt.total, "l", "Φ(s(l))", "s'(φ(l))"),
        ("mor-tgt", "Φ ∘ t = t' ∘ φ", phi @ src.t.matrix,
         tgt.t.matrix @ base, L, tgt.total, "l", "Φ(t(l))", "t'(φ(l))"),
        ("mor-counit", "π' ∘ Φ = φ ∘ π", tgt.counit @ phi,
         base @ src.counit, A, tgt.base, "a", "π'(Φ(a))", "φ(π(a))"),
    )
    for cid, label, lhs, rhs, dom, cod, x, ltext, rtext in squares:
        bad = column_certificates(
            lhs.cols, rhs.cols, dom.basis_names, cod.fmt_vec,
            f"{x} = {{}}: {ltext} = {{}} but {rtext} = {{}}")
        rep.add(cid, label, bad)

    tspace = tgt.tensor_space
    bad = column_certificates(
        (tgt.coproduct_lift(col) for col in phi.cols),
        (tensor_apply(phi, phi, w) for w in src.canonical_gamma_lift),
        A.basis_names, tspace.fmt,
        "a = {}: γ'(Φ(a)) = {} but (Φ⊗Φ)γ(a) = {}", tspace.equal)
    rep.add("mor-coproduct", "γ' ∘ Φ = (Φ⊗Φ) ∘ γ in the target quotient",
            bad)
    return rep


def verify_right_morphism(src, tgt, phi_total, phi_base=None):
    """Check a morphism of right bialgebroids by passing to the opposites."""
    src_op, tgt_op = src.shared_op(), tgt.shared_op()
    if isinstance(phi_total, AlgebraMap):
        phi_mat = phi_total.matrix
    else:
        phi_mat = phi_total
    phi_op = AlgebraMap(src_op.total, tgt_op.total, phi_mat, HOM, "Φ")
    if phi_base is not None and isinstance(phi_base, Matrix):
        phi_base = AlgebraMap(src.base, tgt.base, phi_base, HOM, "φ")
    rep = verify_left_morphism(src_op, tgt_op, phi_op, phi_base)
    rep.title = f"morphism {src.name} → {tgt.name} (via opposites)"
    return rep
