"""Twists of antipodes, weak Hopf algebras, and the decision procedures."""

import pytest

from algebroids.exactfield import RationalField, Matrix
from algebroids.algebra import (
    SeparabilityStructure,
    opposite,
    separability_structure,
    verify_algebra,
    verify_separability,
)
from algebroids.catalog import (
    FiniteGroup,
    Character,
    group_hopf_algebroid,
    character_twisted_hopf,
    pair_groupoid_hopf_algebroid,
    group_weak_hopf,
    pair_groupoid_weak_hopf,
)
from algebroids.bialgebroid import LeftBialgebroid
from algebroids.dualspace import DualModule, LOWER_STAR
from algebroids.hopfcore import verify_hopf, check_lu_axioms
from algebroids.twistlab import (
    WeakHopfAlgebra,
    ahat_algebra,
    apply_twist,
    convolution_inverse,
    kappa_map,
    recover_twist,
    separability_from_weak,
    twisted_antipode,
    verify_twist,
    verify_weak_hopf,
    weak_bialgebra_from_sep,
    weak_hopf_to_hopf_algebroid,
    wha_decide,
)
from dense_reference import dense_mul_vec
from test_acceptance import _perturb

QQ = RationalField()


# ---------------------------------------------------------------------------
# twists


class TestTwist:
    def test_recovered_twist_is_the_character(self, kz2, kz2_twisted):
        g, g_inv = recover_twist(kz2.lb, kz2.S, kz2_twisted.S)
        one = QQ.one
        assert g.rows == ((one, -one),)
        assert g_inv.rows == ((one, -one),)

    def test_recovered_twist_verifies(self, kz2, kz2_twisted):
        g, g_inv = recover_twist(kz2.lb, kz2.S, kz2_twisted.S)
        rep = verify_twist(kz2.lb, kz2.S, g, g_inv)
        assert rep.passed
        ids = [c.check_id for c in rep.checks]
        assert ids == ["twist-member", "twist-invertible",
                       "twist-base-auto", "tw1", "tw2", "tw3"]

    def test_apply_twist_reproduces_the_twisted_antipode(self, kz2,
                                                         kz2_twisted):
        g, g_inv = recover_twist(kz2.lb, kz2.S, kz2_twisted.S)
        h = apply_twist(kz2.lb, kz2.S, g)
        assert h.S.rows == kz2_twisted.S.rows
        assert h.S_inv.rows == kz2_twisted.S_inv.rows
        assert verify_hopf(h).passed

    def test_twist_works_in_both_directions(self, kz2, kz2_twisted):
        g, g_inv = recover_twist(kz2_twisted.lb, kz2_twisted.S, kz2.S)
        assert verify_twist(kz2_twisted.lb, kz2_twisted.S, g, g_inv).passed
        h = apply_twist(kz2_twisted.lb, kz2_twisted.S, g)
        assert h.S.rows == kz2.S.rows

    def test_counit_is_the_identity_twist(self, kz2):
        pi = kz2.lb.counit
        assert verify_twist(kz2.lb, kz2.S, pi, pi).passed
        assert twisted_antipode(kz2.lb, kz2.S, pi).rows == kz2.S.rows

    def test_twists_compose_in_the_convolution_ring(self, kz2, kz2_twisted):
        # the character twist squares to the identity twist
        module = DualModule(kz2.lb, LOWER_STAR)
        g, _ = recover_twist(kz2.lb, kz2.S, kz2_twisted.S)
        square = module.product(g, g)
        assert square.rows == module.unit_matrix().rows
        assert convolution_inverse(module, g).rows == g.rows

    @pytest.mark.parametrize("entry", ["gamma", "counit"])
    def test_a_broken_dual_has_no_convolution_inverses(self, m2, entry):
        # γ_L raised at (0, 2) takes products out of the lower-star dual,
        # π_L raised there takes the counit, the dual's unit, out of it
        lb = m2.lb
        gamma, counit = lb.gamma_lift, lb.counit
        if entry == "gamma":
            gamma = _perturb(gamma, 0, 2, QQ.one)
        else:
            counit = _perturb(counit, 0, 2, QQ.one)
        bad = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t, gamma, counit)
        module = DualModule(bad, LOWER_STAR)
        assert convolution_inverse(module, module.basis[0]) is None

    def test_apply_twist_refuses_a_singular_reference_antipode(self, kz2):
        with pytest.raises(ValueError,
                           match="^the reference antipode is not bijective$"):
            apply_twist(kz2.lb, Matrix.zeros(QQ, 2, 2), kz2.lb.counit)

    def test_non_multiplicative_functional_is_rejected(self, kz2):
        two = QQ.of(2)
        g = Matrix.from_rows(QQ, [(QQ.one, two)], 2)
        rep = verify_twist(kz2.lb, kz2.S, g)
        assert not rep.passed
        failed = {c.check_id for c in rep.checks if not c.ok}
        assert "tw2" in failed
        assert rep.find("tw2").certificates

    def test_gf7_cube_root_character_twist(self, gf7):
        z3 = FiniteGroup.cyclic(3)
        chi = Character.cyclic_power(z3, gf7, 2)
        h0 = group_hopf_algebroid(z3, gf7)
        h1 = character_twisted_hopf(z3, gf7, chi)
        g, g_inv = recover_twist(h0.lb, h0.S, h1.S)
        assert g.rows == ((gf7.one, gf7.of(2), gf7.of(4)),)
        assert verify_twist(h0.lb, h0.S, g, g_inv).passed

    def test_lu_axiom_three_fails_for_the_character_twist(self, kz2,
                                                          kz2_twisted):
        # cocommutative case: the deformed antipode still satisfies the
        # one-sided axioms but the symmetric third axiom pins S(g)g = 1
        rep = check_lu_axioms(kz2_twisted.lb, kz2_twisted.S)
        failed = {c.check_id for c in rep.checks if not c.ok}
        assert failed == {"lu3"}
        assert check_lu_axioms(kz2.lb, kz2.S).passed


# ---------------------------------------------------------------------------
# weak Hopf algebras


class TestWeakHopf:
    def test_group_algebra_is_weak_hopf(self):
        z3 = FiniteGroup.cyclic(3)
        w = group_weak_hopf(z3, QQ)
        assert verify_weak_hopf(w).passed
        # trivially weak: both projections collapse to ε(x)1
        for j in range(3):
            assert w.cap_l().cols[j] == w.algebra.unit
            assert w.cap_r().cols[j] == w.algebra.unit

    def test_pair_groupoid_is_genuinely_weak(self):
        w = pair_groupoid_weak_hopf(2, QQ)
        assert verify_weak_hopf(w).passed
        # Δ(1) = Σ e_ii ⊗ e_ii ≠ 1 ⊗ 1
        d1 = w.delta1()
        assert d1[0 * 4 + 0] == QQ.one and d1[3 * 4 + 3] == QQ.one
        assert 0 * 4 + 3 not in d1

    def test_pair_groupoid_projections(self):
        w = pair_groupoid_weak_hopf(2, QQ)
        A = w.algebra
        # ⊓^L(e_ij) = e_ii, ⊓^R(e_ij) = e_jj
        for i in range(2):
            for j in range(2):
                idx = 2 * i + j
                assert w.cap_l().col(idx) == A.basis_vec(2 * i + i)
                assert w.cap_r().col(idx) == A.basis_vec(2 * j + j)

    def test_weak_hopf_yields_the_pair_groupoid_hopf_algebroid(self):
        w = pair_groupoid_weak_hopf(2, QQ)
        h, rep = weak_hopf_to_hopf_algebroid(w)
        assert rep.passed
        assert verify_hopf(h).passed
        reference = pair_groupoid_hopf_algebroid(2, QQ)
        assert h.lb.s.matrix.rows == reference.lb.s.matrix.rows
        assert h.lb.t.matrix.rows == reference.lb.t.matrix.rows
        assert h.lb.counit.rows == reference.lb.counit.rows
        assert h.rb.counit.rows == reference.rb.counit.rows
        assert h.lb.gamma_lift.rows == reference.lb.gamma_lift.rows

    def test_three_by_three_weak_hopf_roundtrip(self):
        w = pair_groupoid_weak_hopf(3, QQ)
        assert verify_weak_hopf(w).passed
        h, rep = weak_hopf_to_hopf_algebroid(w)
        assert rep.passed
        assert h.lb.base.dim == 3 and h.rb.base.dim == 3
        assert verify_hopf(h).passed

    def test_singular_antipode_is_refused_before_the_bases(self):
        w = pair_groupoid_weak_hopf(2, QQ)
        bad = WeakHopfAlgebra(w.algebra, w.delta, w.counit,
                              Matrix.zeros(QQ, 4, 4))
        h, rep = weak_hopf_to_hopf_algebroid(bad)
        assert h is None
        assert [c.check_id for c in rep.checks] == ["s-bijective"]

    def test_identity_antipode_fails_exactly_the_antipode_axioms(self):
        w0 = pair_groupoid_weak_hopf(2, QQ)
        w = WeakHopfAlgebra(w0.algebra, w0.delta, w0.counit,
                            Matrix.identity(QQ, 4))
        rep = verify_weak_hopf(w)
        failed = {c.check_id for c in rep.checks if not c.ok}
        assert failed == {"antipode-l", "antipode-r", "antipode-mid"}
        assert rep.find("antipode-l").certificates


# ---------------------------------------------------------------------------
# separability and the induced weak bialgebra


class TestSeparability:
    def test_diagonal_separability_verifies(self, m2):
        sep = separability_structure(m2.lb.base)
        assert verify_separability(sep).passed

    def test_group_basis_base_gets_the_trace_form_idempotent(self):
        # kZ2 in its group basis is not diagonal, and its trace form still
        # gives e = ½(1⊗1 + g⊗g)
        from algebroids.catalog import group_algebra
        sep = separability_structure(group_algebra(FiniteGroup.cyclic(2), QQ))
        half = QQ.of(1) / 2
        assert sep.idempotent() == [(0, {0: half}), (1, {1: half})]
        assert verify_separability(sep).passed

    def test_separability_from_weak_matches_diagonal(self):
        w = pair_groupoid_weak_hopf(2, QQ)
        h, _ = weak_hopf_to_hopf_algebroid(w)
        sep = separability_from_weak(w, h.lb)
        assert verify_separability(sep).passed
        ref = separability_structure(h.lb.base)
        assert sep.delta.rows == ref.delta.rows
        assert sep.psi.rows == ref.psi.rows

    def test_separability_from_weak_refuses_a_foreign_base(self):
        # kZ4's base is k·1, which holds no slice of W(M2)'s Δ(1)
        w = pair_groupoid_weak_hopf(2, QQ)
        lb = group_hopf_algebroid(FiniteGroup.cyclic(4), QQ).lb
        with pytest.raises(ValueError,
                           match="separability data leaves the base"):
            separability_from_weak(w, lb)

    def test_weak_side_and_separability_eliminate_each_base_once(
            self, monkeypatch):
        # one Subspace per base, both in weak_hopf_to_hopf_algebroid; the
        # separability structure reads its base coordinates through π_L
        from algebroids.exactfield import Subspace
        calls = []
        build = Subspace.from_vectors.__func__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(Subspace, "from_vectors", classmethod(counted))
        w = pair_groupoid_weak_hopf(3, QQ)
        h, _ = weak_hopf_to_hopf_algebroid(w)
        sep = separability_from_weak(w, h.lb)
        assert len(calls) == 2
        assert verify_separability(sep).passed

    def test_weak_bialgebra_roundtrip(self):
        w = pair_groupoid_weak_hopf(2, QQ)
        h, _ = weak_hopf_to_hopf_algebroid(w)
        sep = separability_from_weak(w, h.lb)
        back = weak_bialgebra_from_sep(h.lb, sep, antipode=w.antipode)
        assert back.delta.rows == w.delta.rows
        assert back.counit.rows == w.counit.rows
        assert verify_weak_hopf(back).passed

    def test_broken_splitting_is_caught(self, m2):
        sep = separability_structure(m2.lb.base)
        bad = SeparabilityStructure(sep.base, sep.delta.scale(QQ.of(2)),
                                    sep.psi)
        rep = verify_separability(bad)
        failed = {c.check_id for c in rep.checks if not c.ok}
        assert "sep-splitting" in failed

    def test_broken_bimodule_law_is_caught(self, m2):
        # δ(d1) = d1⊗d1 + d1⊗d2: δ(d1)·d1 = d1⊗d1 ≠ δ(d1 d1) and
        # δ(d1)·d2 = d1⊗d2 ≠ δ(d1 d2) = 0
        sep = separability_structure(m2.lb.base)
        cols = [{**sep.delta.cols[0], 1: QQ.one}, sep.delta.cols[1]]
        bad = SeparabilityStructure(
            sep.base, Matrix.from_sparse_cols(QQ, cols, 4), sep.psi)
        rep = verify_separability(bad)
        assert rep.find("sep-bimodule").certificates == [
            "l = d1, l' = d1", "l = d1, l' = d2"]


# ---------------------------------------------------------------------------
# the dual convolution algebra and κ


class TestKappa:
    def test_ahat_of_a_group_algebra_is_the_function_algebra(self, kz2):
        ahat = ahat_algebra(kz2.total, kz2.lb.gamma_lift, kz2.lb.counit)
        assert verify_algebra(ahat).passed
        assert opposite(ahat) == ahat
        # dual basis elements are orthogonal idempotents
        assert ahat.mul_vec({0: QQ.one}, {0: QQ.one}) == {0: QQ.one}
        assert ahat.mul_vec({0: QQ.one}, {1: QQ.one}) == {}
        assert ahat.unit == {0: QQ.one, 1: QQ.one}

    def test_kappa_is_an_algebra_isomorphism(self, fn_s3):
        lb = fn_s3.lb
        sep = separability_structure(lb.base)
        wb = weak_bialgebra_from_sep(lb, sep, antipode=fn_s3.S)
        ahat = ahat_algebra(lb.total, wb.delta, wb.counit)
        assert opposite(ahat) != ahat
        module = DualModule(lb, LOWER_STAR)
        d = lb.total.dim
        rows = [Matrix.from_rows(QQ, [lb.total.basis_vec(i)], d)
                for i in range(d)]
        kappas = [kappa_map(lb, sep, r) for r in rows]
        flat = [tuple(x for row in k.rows for x in row) for k in kappas]
        assert Matrix.from_cols(QQ, flat, len(flat[0])).rank() == d
        for i in range(d):
            assert module.coords(kappas[i]) is not None
            assert (sep.psi @ kappas[i]).rows == rows[i].rows
            for j in range(d):
                prod = dense_mul_vec(ahat, lb.total.basis_vec(i),
                                     lb.total.basis_vec(j))
                expect = kappa_map(lb, sep,
                                   Matrix.from_rows(QQ, [prod], d))
                got = module.product(kappas[i], kappas[j])
                assert got.rows == expect.rows

    def test_kappa_sends_the_counit_to_the_left_counit(self, m2):
        sep = separability_structure(m2.lb.base)
        wb = weak_bialgebra_from_sep(m2.lb, sep, antipode=m2.S)
        assert kappa_map(m2.lb, sep, wb.counit).rows == m2.lb.counit.rows


# ---------------------------------------------------------------------------
# the decision procedures


class TestHopfAlgebraCriterion:
    # over a one-dimensional base the verdict "exact" says the Hopf
    # algebroid is a Hopf algebra, "twistable" that it is a twist of one

    def test_group_algebra_is_a_hopf_algebra(self, kz2):
        out = wha_decide(kz2)
        assert kz2.lb.base.dim == 1
        assert out["verdict"] == "exact"

    def test_character_twist_is_a_twist_but_not_hopf(self, kz2_twisted):
        out = wha_decide(kz2_twisted)
        assert kz2_twisted.lb.base.dim == 1
        assert out["verdict"] == "twistable"
        # π_L∘S ≠ π_L: a twist of a Hopf algebra, not one
        assert out["report"].find("decide-exact").skipped

    def test_function_algebra_is_a_hopf_algebra(self, fn_s3):
        out = wha_decide(fn_s3)
        assert fn_s3.lb.base.dim == 1
        assert out["verdict"] == "exact"

    def test_matrix_algebra_has_no_scalar_base(self, m2):
        # exact, but over a base of dimension 2: no Hopf algebra
        assert m2.lb.base.dim == 2
        assert wha_decide(m2)["verdict"] == "exact"


class TestWhaDecide:
    def test_group_algebra_is_exactly_weak_hopf(self, kz2):
        out = wha_decide(kz2)
        assert out["verdict"] == "exact"
        assert out["report"].passed
        assert verify_weak_hopf(out["weak_hopf"]).passed

    def test_pair_groupoid_is_exactly_weak_hopf(self, m2):
        out = wha_decide(m2)
        assert out["verdict"] == "exact"
        assert out["report"].passed

    def test_function_algebra_is_exactly_weak_hopf(self, fn_s3):
        out = wha_decide(fn_s3)
        assert out["verdict"] == "exact"
        assert out["report"].passed

    def test_character_twist_is_twistable_not_exact(self, kz2, kz2_twisted):
        out = wha_decide(kz2_twisted)
        assert out["verdict"] == "twistable"
        assert out["report"].passed
        g, g_inv = out["twist"]
        assert g.rows == ((QQ.one, -QQ.one),)
        # the repairing twist brings back the standard antipode
        assert out["weak_hopf"].antipode.rows == kz2.S.rows
        assert verify_weak_hopf(out["weak_hopf"]).passed

    def test_singular_antipode_is_not_weak_hopf(self, kz2):
        from algebroids.hopfcore import HopfAlgebroid
        broken = Matrix.from_rows(
            QQ, [(QQ.one, QQ.zero), (QQ.zero, QQ.zero)], 2)
        h = HopfAlgebroid(kz2.lb, kz2.rb, broken, name="broken")
        out = wha_decide(h)
        assert out["verdict"] == "not-weak-hopf"
        assert not out["report"].find("decide-invertible").ok

    def test_bad_separability_input_short_circuits(self, m2):
        sep = separability_structure(m2.lb.base)
        bad = SeparabilityStructure(sep.base, sep.delta.scale(QQ.of(2)),
                                    sep.psi)
        out = wha_decide(m2, sep=bad)
        assert out["verdict"] == "not-weak-hopf"
        assert not out["report"].passed

