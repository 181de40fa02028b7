"""Acceptance gate: seven end-to-end criteria with exact (zero-tolerance)
identities and hard runtime ceilings.

Each criterion is one test named ``test_criterion_N``; the conftest hook
prints one ``ACCEPTANCE N: PASS/FAIL`` line per criterion in the terminal
summary.
"""

import random
import time

from algebroids.exactfield import Matrix, PrimeField, RationalField
from algebroids.algebra import (
    POST,
    PRE,
    Algebra,
    SeparabilityStructure,
    separability_structure,
    verify_algebra,
    verify_separability,
)
from algebroids.bialgebroid import (
    LeftBialgebroid,
    RightBialgebroid,
    verify_left_bialgebroid,
    verify_right_bialgebroid,
)
from algebroids.catalog import (
    Character,
    FiniteGroup,
    all_fixtures,
    character_twisted_hopf,
    group_hopf_algebroid,
    group_weak_hopf,
    pair_groupoid_hopf_algebroid,
    pair_groupoid_weak_hopf,
)
from algebroids.dualspace import dual_lower_star
from algebroids.hopfcore import (
    HopfAlgebroid,
    check_lu_axioms,
    verify_hopf,
    verify_sisom,
)
from algebroids.integrallab import (
    LEFT,
    RIGHT,
    NondegenerateIntegral,
    double_dual_evaluation,
    duality_diagram,
    frobenius_check,
    integral_space,
    intpr_equivalences,
    ls_antipode,
    nondegeneracy,
    weak_dual_iso,
)
from algebroids.twistlab import (
    WeakHopfAlgebra,
    recover_twist,
    separability_from_weak,
    twisted_antipode,
    verify_twist,
    verify_weak_hopf,
    weak_bialgebra_from_sep,
    weak_hopf_to_hopf_algebroid,
    wha_decide,
)
from dense_reference import dense_transpose_action, stacked_integral_kernel

QQ = RationalField()


class Stopwatch:
    def __init__(self, limit):
        self.limit = limit
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, \
            f"runtime {elapsed:.2f}s exceeded the {self.limit}s ceiling"


def _failing_ids(report):
    return [c.check_id for c in report.checks if not c.ok and not c.skipped]


# ---------------------------------------------------------------------------
# 1. counterexample reproduction: the sign-character twist of kZ2 is a Hopf
#    algebroid in the two-sided sense but fails the single-antipode axiom
#    (lu3) with an explicit certificate; the trivial character passes both.


def test_criterion_1():
    watch = Stopwatch(1.0)
    z2 = FiniteGroup.cyclic(2)
    sign = Character(z2, QQ, [QQ.one, -QQ.one])
    twisted = character_twisted_hopf(z2, QQ, sign)

    assert verify_hopf(twisted).passed

    lu = check_lu_axioms(twisted.lb, twisted.S)
    assert not lu.passed
    assert _failing_ids(lu) == ["lu3"]
    lu3 = lu.find("lu3")
    cert = " ".join(lu3.certificates)
    assert "g" in cert and "-1" in cert and "1" in cert

    trivial = character_twisted_hopf(
        z2, QQ, Character(z2, QQ, [QQ.one] * z2.order))
    assert verify_hopf(trivial).passed
    assert check_lu_axioms(trivial.lb, trivial.S).passed
    assert trivial.S == group_hopf_algebroid(z2, QQ).S

    watch.check()


# ---------------------------------------------------------------------------
# 2. weak-Hopf bridge: pair-groupoid weak Hopf algebras become Hopf
#    algebroids, the separability round trip recovers the coproduct and
#    counit bit-exactly, and wha_decide says "exact".


def test_criterion_2():
    watch = Stopwatch(10.0)
    for n in (2, 3):
        w = pair_groupoid_weak_hopf(n, QQ)
        h, rep = weak_hopf_to_hopf_algebroid(w)
        assert h is not None and rep.passed
        assert verify_hopf(h).passed
        assert verify_sisom(h).passed

        sep = separability_from_weak(w, h.lb)
        assert verify_separability(sep).passed
        back = weak_bialgebra_from_sep(h.lb, sep, antipode=w.antipode)
        assert back.delta.rows == w.delta.rows
        assert back.counit.rows == w.counit.rows
        assert verify_weak_hopf(back).passed

        decided = wha_decide(h)
        assert decided["verdict"] == "exact"
        assert decided["report"].passed
    watch.check()


# ---------------------------------------------------------------------------
# 3. twist round trips: randomized characters on cyclic group algebras over
#    mixed fields; recovery inverts twisting exactly in both directions and
#    the twists form a group under convolution.


def _roots_of_unity(field, n):
    if field.name == "rational":
        roots = [field.one]
        if n % 2 == 0:
            roots.append(-field.one)
        return roots
    return [field.of(v) for v in range(1, field.p)
            if field.of(v) ** n == field.one]


def test_criterion_3():
    watch = Stopwatch(5.0)
    rng = random.Random(20260816)
    fields = [QQ, PrimeField(5), PrimeField(7), PrimeField(13)]
    trials = 0
    while trials < 20:
        n = rng.randint(2, 6)
        field = rng.choice(fields)
        roots = _roots_of_unity(field, n)
        root1, root2, root3 = (rng.choice(roots) for _ in range(3))

        zn = FiniteGroup.cyclic(n)
        h = group_hopf_algebroid(zn, field)
        lb, S = h.lb, h.S
        dual = dual_lower_star(lb)
        chars = [Character.cyclic_power(zn, field, r)
                 for r in (root1, root2, root3)]
        g1, g2, g3 = (Matrix.from_rows(field, [c.values], n) for c in chars)

        # recover ∘ twist = id
        s_twisted = twisted_antipode(lb, S, g1)
        got, got_inv = recover_twist(lb, S, s_twisted)
        assert got == g1
        inv_vals = [field.one / v for v in chars[0].values]
        assert got_inv == Matrix.from_rows(field, [inv_vals], n)
        # twist ∘ recover = id
        assert twisted_antipode(lb, S, got) == s_twisted
        assert verify_twist(lb, S, g1, got_inv).passed

        # group laws in the dual ring
        prod12 = dual.module.product(g1, g2)
        pointwise = Matrix.from_rows(
            field, [[a * b for a, b in zip(chars[0].values,
                                           chars[1].values)]], n)
        assert prod12 == pointwise  # closure (still a character)
        left = dual.module.product(prod12, g3)
        right = dual.module.product(g1, dual.module.product(g2, g3))
        assert left == right  # associativity
        assert dual.module.product(g1, got_inv) == dual.module.unit_matrix()
        assert dual.module.product(got_inv, g1) == dual.module.unit_matrix()

        # sequential twisting realizes the product
        assert twisted_antipode(lb, s_twisted, g2) == \
            twisted_antipode(lb, S, prod12)
        # twisting by the inverse undoes the twist
        assert twisted_antipode(lb, s_twisted, got_inv) == S
        trials += 1
    assert trials == 20
    watch.check()


# ---------------------------------------------------------------------------
# 4. integral theory: integral spaces match an independent stacked-kernel
#    oracle, the five one-sided-integral characterisations agree pairwise,
#    and nondegeneracy witnesses satisfy the inverse formula (fsrinv) and
#    the Frobenius quasi-basis identities exactly.


def test_criterion_4():
    watch = Stopwatch(10.0)
    cases = [
        group_hopf_algebroid(FiniteGroup.cyclic(2), QQ),
        group_hopf_algebroid(FiniteGroup.cyclic(3), QQ),
        group_hopf_algebroid(FiniteGroup.symmetric(3), QQ),
        pair_groupoid_hopf_algebroid(2, QQ),
    ]
    for h in cases:
        # the oracle stacks a·(-) - s_L(π_L(a))·(-), or (-)·a -
        # (-)·s_R(π_R(a)), over every a, from dense products
        for side, bgd, mult in ((LEFT, h.lb, PRE), (RIGHT, h.rb, POST)):
            space = integral_space(h, side)
            oracle = stacked_integral_kernel(bgd, mult)
            assert space.dim == len(oracle)
            assert space.basis_vectors() == list(oracle)

        for vec in integral_space(h, LEFT).basis_vectors():
            rep = intpr_equivalences(h, vec)
            assert rep.passed, (h.name, _failing_ids(rep))
            assert rep.find("intpr-agree").ok

        ell = tuple(QQ.one for _ in range(h.total.dim))
        nd = nondegeneracy(h, ell)
        assert isinstance(nd, NondegenerateIntegral) and nd.ok
        assert nd.report.find("fsrinv-upper").ok
        assert nd.report.find("fsrinv-star").ok
        # independent replay of (fsrinv): ℓ_R⁻¹(a) = λ* ↼ S(a), columnwise
        A = h.total
        for j in range(A.dim):
            via_inverse = nd.upper.element(nd.ellR_inv.cols[j])
            via_formula = dense_transpose_action(nd.lambda_star, A,
                                                 h.S.col(j), PRE)
            assert via_inverse.rows == via_formula
        frob = frobenius_check(nd, h)
        assert frob.passed, (h.name, _failing_ids(frob))
    watch.check()


# ---------------------------------------------------------------------------
# 5. antipode from a non-degenerate integral: on group algebras the
#    construction returns S(g) = g⁻¹, on the pair groupoid the transpose,
#    every output is a verified Hopf algebroid, and ℓ re-verifies inside it.


def test_criterion_5():
    watch = Stopwatch(10.0)
    for n in range(2, 6):
        zn = FiniteGroup.cyclic(n)
        h = group_hopf_algebroid(zn, QQ)
        ell = tuple(QQ.one for _ in range(n))
        built = ls_antipode(h.rb, ell)
        for g in range(n):
            assert built.S.col(g) == h.total.basis_vec(zn.inverse(g))
        assert verify_hopf(built).passed
        nd = nondegeneracy(built, ell)
        assert isinstance(nd, NondegenerateIntegral) and nd.ok

    m2 = pair_groupoid_hopf_algebroid(2, QQ)
    ell = tuple(QQ.one for _ in range(4))
    built = ls_antipode(m2.rb, ell)
    names = m2.total.basis_names
    for i in (1, 2):
        for j in (1, 2):
            src = names.index(f"e{i}{j}")
            dst = names.index(f"e{j}{i}")
            assert built.S.col(src) == m2.total.basis_vec(dst)
    assert verify_hopf(built).passed
    nd = nondegeneracy(built, ell)
    assert isinstance(nd, NondegenerateIntegral) and nd.ok
    watch.check()


# ---------------------------------------------------------------------------
# 6. duality: the dual of a group algebra is the function algebra via the
#    counit pairing, the four-isomorphism square commutes on every catalog
#    fixture, and the double dual is isomorphic via evaluation.


def test_criterion_6():
    watch = Stopwatch(20.0)
    for n in (2, 3):
        w = group_weak_hopf(FiniteGroup.cyclic(n), QQ)
        h, rep = weak_hopf_to_hopf_algebroid(w)
        assert h is not None and rep.passed
        nd = nondegeneracy(h, tuple(QQ.one for _ in range(h.total.dim)))
        assert isinstance(nd, NondegenerateIntegral)
        iso = weak_dual_iso(w, h, nd)
        assert iso.passed, _failing_ids(iso)
        assert iso.find("dualiso-bijective").ok
        assert iso.find("dualiso-mor-src").ok
        assert iso.find("dualiso-mor-coproduct").ok

    for fx in all_fixtures():
        h = fx["hopf"]
        nd = nondegeneracy(h, fx["integral"])
        assert isinstance(nd, NondegenerateIntegral), fx["name"]
        square = duality_diagram(h, nd)
        assert square.passed, (fx["name"], _failing_ids(square))
        assert square.find("diagram-commutes").ok

    for n in (2, 3):
        h = group_hopf_algebroid(FiniteGroup.cyclic(n), QQ)
        nd = nondegeneracy(h, tuple(QQ.one for _ in range(n)))
        dd = double_dual_evaluation(h, nd)
        assert dd.passed, _failing_ids(dd)
        assert dd.find("dd-bijective").ok
    watch.check()


# ---------------------------------------------------------------------------
# 7. negative-case discipline: ten single-entry corruptions of passing
#    examples, each caught by the matching verifier with a certificate
#    under a check id naming the violated law.


def _perturb(matrix, i, j, delta):
    rows = [list(r) for r in matrix.rows]
    rows[i][j] = rows[i][j] + delta
    return Matrix.from_rows(matrix.field, rows, matrix.ncols)


def _corruptions():
    one = QQ.one
    z2 = FiniteGroup.cyclic(2)
    z3 = FiniteGroup.cyclic(3)

    # 1. structure constant: in kZ3 scale the g·g2 = 1 product
    def corrupt_struct():
        h = group_hopf_algebroid(z3, QQ)
        A = h.total
        struct = {(i, j, k): c
                  for i in range(3) for j in range(3)
                  for k, c in A.table[i][j].items()}
        struct[(1, 2, 0)] = QQ.of(2)
        bad = Algebra.from_struct(QQ, A.basis_names, struct,
                                  unit=A.unit, name="bad")
        return verify_algebra(bad), ("assoc",)

    # 2. unit vector of kZ2 off by one entry
    def corrupt_unit():
        h = group_hopf_algebroid(z2, QQ)
        A = h.total
        struct = {(i, j, k): c
                  for i in range(2) for j in range(2)
                  for k, c in A.table[i][j].items()}
        bad = Algebra.from_struct(QQ, A.basis_names, struct,
                                  unit=(one, one), name="bad")
        return verify_algebra(bad), ("unit",)

    # 3. left coproduct of kZ2: one lift entry
    def corrupt_gamma_left():
        lb = group_hopf_algebroid(z2, QQ).lb
        bad = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t,
                              _perturb(lb.gamma_lift, 0, 0, one),
                              lb.counit, name="bad")
        return verify_left_bialgebroid(bad), \
            ("coassoc", "gmp", "gmp-unit", "counit-s", "counit-t", "cros")

    # 4. left counit of kZ2: one entry
    def corrupt_counit_left():
        lb = group_hopf_algebroid(z2, QQ).lb
        bad = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t, lb.gamma_lift,
                              _perturb(lb.counit, 0, 1, one), name="bad")
        return verify_left_bialgebroid(bad), \
            ("counit-s", "counit-t", "pi-unit", "pi-mult-s", "pi-mult-t",
             "pi-s-linear", "pi-t-linear")

    # 5. right coproduct of kZ3: one lift entry
    def corrupt_gamma_right():
        rb = group_hopf_algebroid(z3, QQ).rb
        bad = RightBialgebroid(rb.total, rb.base, rb.s, rb.t,
                               _perturb(rb.gamma_lift, 4, 2, one),
                               rb.counit, name="bad")
        return verify_right_bialgebroid(bad), \
            ("coassoc", "gmp", "counit-s", "counit-t", "cros")

    # 6. antipode of kZ2: one entry, against the two-sided axioms
    def corrupt_antipode_hopf():
        h = group_hopf_algebroid(z2, QQ)
        bad_s = _perturb(h.S, 0, 1, one)
        bad = HopfAlgebroid(h.lb, h.rb, bad_s, name="bad")
        return verify_hopf(bad), \
            ("defiii-left", "defiii-right", "defiv-left", "defiv-right")

    # 7. the same corruption against the single-antipode axioms
    def corrupt_antipode_lu():
        h = group_hopf_algebroid(z2, QQ)
        bad_s = _perturb(h.S, 0, 1, one)
        return check_lu_axioms(h.lb, bad_s), \
            ("lu1", "lu1-map-mult", "lu2", "lu3")

    # 8. weak Hopf coproduct: one entry of Δ on the pair groupoid
    def corrupt_weak_delta():
        w = pair_groupoid_weak_hopf(2, QQ)
        bad = WeakHopfAlgebra(w.algebra, _perturb(w.delta, 0, 0, one),
                              w.counit, w.antipode, name="bad")
        return verify_weak_hopf(bad), \
            ("coassoc", "counit", "delta-mult", "weak-unit-left",
             "weak-unit-right", "antipode-l", "antipode-r")

    # 9. non-multiplicative twist functional on kZ2
    def corrupt_twist():
        h = group_hopf_algebroid(z2, QQ)
        g = Matrix.from_rows(QQ, [[one, QQ.of(2)]], 2)
        return verify_twist(h.lb, h.S, g), ("tw2", "tw3")

    # 10. separability idempotent: one entry of δ
    def corrupt_separability():
        base = group_hopf_algebroid(z2, QQ).lb.base
        sep = separability_structure(base)
        bad = SeparabilityStructure(base, _perturb(sep.delta, 0, 0, one),
                                    sep.psi)
        return verify_separability(bad), \
            ("sep-splitting", "sep-bimodule", "sep-counit")

    return [corrupt_struct, corrupt_unit, corrupt_gamma_left,
            corrupt_counit_left, corrupt_gamma_right, corrupt_antipode_hopf,
            corrupt_antipode_lu, corrupt_weak_delta, corrupt_twist,
            corrupt_separability]


def test_criterion_7():
    fixtures = _corruptions()
    assert len(fixtures) == 10
    detected = 0
    for build in fixtures:
        report, expected_ids = build()
        failing = [c for c in report.checks if not c.ok and not c.skipped]
        assert failing, f"{build.__name__}: corruption went undetected"
        named = [c for c in failing if c.check_id in expected_ids]
        assert named, (build.__name__,
                       [c.check_id for c in failing], expected_ids)
        assert any(c.certificates for c in named), \
            f"{build.__name__}: no certificate on the named failure"
        detected += 1
    assert detected == 10
