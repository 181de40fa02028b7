"""Integral spaces, nondegeneracy witnesses, Frobenius systems, the duality
square, dual Hopf algebroids, and the antipode built from a nondegenerate
integral."""

import random

import pytest

from algebroids.exactfield import Matrix, RationalField, PrimeField
from algebroids.algebra import (AlgebraMap, HOM, separability_structure,
                                sparse, tensor_apply)
from algebroids.catalog import (
    FiniteGroup,
    group_hopf_algebroid,
    function_algebra_hopf,
    group_weak_hopf,
    pair_groupoid_weak_hopf,
    group_sum_integral,
    pair_groupoid_hopf_algebroid,
)
from algebroids.dualspace import DualModule, UPPER_STAR, STAR_UPPER
from algebroids.integrallab import (
    LEFT,
    RIGHT,
    Degenerate,
    IntegralSpace,
    NondegenerateIntegral,
    PreconditionError,
    double_dual_evaluation,
    dual_hopf_algebroid,
    dual_weak_hopf,
    duality_diagram,
    frobenius_check,
    frobenius_system,
    integral_space,
    intpr_equivalences,
    lac_check,
    ls_antipode,
    ls_right,
    nondegeneracy,
    twap,
    verify_bgdnd,
    verify_bgdnd_right,
    weak_dual_iso,
)
from algebroids.twistlab import (weak_bialgebra_from_sep,
                                weak_hopf_to_hopf_algebroid)
from dense_reference import dense, dense_matrix_apply, dense_mul_vec

QQ = RationalField()


def checks_by_id(report):
    return {c.check_id: c for c in report.checks}


# ---------------------------------------------------------------------------
# integral spaces


def test_integral_space_dims(kz2, kz3, m2):
    for h, dim in ((kz2, 1), (kz3, 1), (m2, 2)):
        assert integral_space(h, LEFT).dim == dim
        assert integral_space(h, RIGHT).dim == dim


def test_integral_space_bases_frozen(kz2, kz3, m2):
    one = QQ.one
    zero = QQ.zero
    assert integral_space(kz2, LEFT).space.basis.rows == ((one, one),)
    assert integral_space(kz3, LEFT).space.basis.rows == ((one, one, one),)
    # M2: columns of the matrix units — e11+e21 and e12+e22 on the left,
    # rows e11+e12 and e21+e22 on the right
    assert integral_space(m2, LEFT).space.basis.rows == (
        (one, zero, one, zero), (zero, one, zero, one))
    assert integral_space(m2, RIGHT).space.basis.rows == (
        (one, one, zero, zero), (zero, zero, one, one))


def test_integral_space_contains_and_membership(kz2, m2):
    sp = integral_space(kz2, LEFT)
    assert isinstance(sp, IntegralSpace)
    assert sp.contains((QQ.one, QQ.one))
    assert not sp.contains((QQ.one, QQ.zero))
    spm = integral_space(m2, LEFT)
    assert spm.contains(group_sum_integral(m2))
    assert spm.contains((QQ.one, QQ.zero, QQ.one, QQ.zero))
    assert not spm.contains((QQ.one, QQ.zero, QQ.zero, QQ.zero))


def _stacked_left_kernel(h):
    # independent oracle: one tall matrix whose kernel is the left integral
    # space, stacking a·(-) - s_L(π_L(a))·(-) over every basis element a
    lb = h.lb
    A = lb.total
    rows = []
    for aidx in range(A.dim):
        avec = {aidx: QQ.one}
        block = (A.left_mult_matrix(avec)
                 - A.left_mult_matrix(lb.s.apply(lb.counit.apply(avec))))
        rows.extend(block.rows)
    return Matrix.from_rows(A.field, rows, A.dim).kernel()


def _stacked_right_kernel(h):
    rb = h.rb
    A = rb.total
    rows = []
    for aidx in range(A.dim):
        avec = {aidx: QQ.one}
        block = (A.right_mult_matrix(avec)
                 - A.right_mult_matrix(rb.s.apply(rb.counit.apply(avec))))
        rows.extend(block.rows)
    return Matrix.from_rows(A.field, rows, A.dim).kernel()


def test_integral_space_matches_stacked_kernel(kz2, kz3, m2, ks3):
    for h in (kz2, kz3, m2, ks3):
        assert (integral_space(h, LEFT).space.basis.rows
                == _stacked_left_kernel(h).basis.rows)
        assert (integral_space(h, RIGHT).space.basis.rows
                == _stacked_right_kernel(h).basis.rows)


def test_integral_space_law_directly(kz3, m2):
    # a·ℓ = s_L(π_L(a))·ℓ for every basis a and every basis integral ℓ
    for h in (kz3, m2):
        lb = h.lb
        A = lb.total
        for ell in integral_space(h, LEFT).basis_vectors():
            for aidx in range(A.dim):
                avec = A.basis_vec(aidx)
                lhs = dense_mul_vec(A, avec, ell)
                s_pi = dense_matrix_apply(lb.s.matrix @ lb.counit, avec)
                assert lhs == dense_mul_vec(A, s_pi, ell)


def test_integral_space_random_members(kz3, m2):
    rng = random.Random(20260816)
    for h in (kz3, m2):
        sp = integral_space(h, LEFT)
        A = h.total
        for _ in range(12):
            coeffs = [QQ.of(rng.randint(-4, 4))
                      for _ in range(sp.dim)]
            vec = tuple(sum((c * b[i] for c, b in
                             zip(coeffs, sp.basis_vectors())), QQ.zero)
                        for i in range(A.dim))
            assert sp.contains(vec)


def test_integral_space_sides_reject_bad_argument(kz2):
    with pytest.raises(ValueError):
        integral_space(kz2, "middle")


def test_group_algebra_integral_is_group_sum(ks3):
    sp = integral_space(ks3, LEFT)
    assert sp.dim == 1
    assert sp.contains(group_sum_integral(ks3))


def test_function_algebra_integral_is_delta_identity(fn_s3):
    sp = integral_space(fn_s3, LEFT)
    assert sp.dim == 1
    assert sp.space.basis.rows == (
        tuple(QQ.one if i == 0 else QQ.zero for i in range(6)),)


def test_integral_space_prime_field():
    gf7 = PrimeField(7)
    h = group_hopf_algebroid(FiniteGroup.cyclic(2), gf7)
    sp = integral_space(h, LEFT)
    assert sp.dim == 1
    assert sp.space.basis.rows == ((gf7.one, gf7.one),)


# ---------------------------------------------------------------------------
# the five-way equivalence


def test_intpr_all_pass_on_integrals(kz2, kz3, m2):
    for h, ell in ((kz2, group_sum_integral(kz2)),
                   (kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        rep = intpr_equivalences(h, ell)
        assert rep.passed, [c.check_id for c in rep.failures()]
        ids = [c.check_id for c in rep.checks]
        assert ids == ["intpr-i", "intpr-ii", "intpr-iii", "intpr-iv",
                       "intpr-v", "intpr-agree"]


def test_intpr_m2_partial_integral(m2):
    rep = intpr_equivalences(m2, (QQ.one, QQ.zero, QQ.one, QQ.zero))
    assert rep.passed


def test_intpr_all_fail_together_on_non_integral(kz2, m2):
    # the equivalence survives on non-integrals: all five conditions fail
    # at once, so the agreement check still passes
    for h, vec in ((kz2, (QQ.zero, QQ.one)),
                   (m2, (QQ.one, QQ.zero, QQ.zero, QQ.zero))):
        rep = intpr_equivalences(h, vec)
        assert not rep.passed
        by_id = checks_by_id(rep)
        for cid in ("intpr-i", "intpr-ii", "intpr-iii", "intpr-iv", "intpr-v"):
            assert by_id[cid].verdict == "FAIL"
        assert by_id["intpr-agree"].verdict == "PASS"


def test_intpr_condition_v_matches_hand_computation(kz3):
    # S(a)ℓ_(1) ⊗ ℓ_(2) = ℓ_(1) ⊗ aℓ_(2) in the right tensor square
    rb = kz3.rb
    A = kz3.total
    ell = group_sum_integral(kz3)
    lift = rb.coproduct_lift(sparse(ell))
    space = rb.tensor_space
    for aidx in range(A.dim):
        avec = {aidx: QQ.one}
        lhs = tensor_apply(A.left_mult_matrix(kz3.S.apply(avec)),
                           Matrix.identity(QQ, A.dim), lift)
        rhs = tensor_apply(Matrix.identity(QQ, A.dim),
                           A.left_mult_matrix(avec), lift)
        assert space.equal(lhs, rhs)


# ---------------------------------------------------------------------------
# nondegeneracy


def test_nondegeneracy_kz2(kz2):
    nd = nondegeneracy(kz2, group_sum_integral(kz2))
    assert isinstance(nd, NondegenerateIntegral)
    assert nd.ok
    assert nd.lambda_star.rows == ((QQ.one, QQ.zero),)
    assert nd.star_lambda.rows == ((QQ.one, QQ.zero),)
    assert nd.ellR_inv @ nd.ellR == Matrix.identity(QQ, 2)
    assert nd.Rell_inv @ nd.Rell == Matrix.identity(QQ, 2)


def test_nondegeneracy_kz3_dual_basis(kz3):
    nd = nondegeneracy(kz3, group_sum_integral(kz3))
    assert nd.ok
    # λ* is the dual-basis functional of the unit: δ_e
    assert nd.lambda_star.rows == ((QQ.one, QQ.zero, QQ.zero),)
    assert nd.star_lambda.rows == ((QQ.one, QQ.zero, QQ.zero),)


def test_nondegeneracy_m2(m2):
    nd = nondegeneracy(m2, group_sum_integral(m2))
    assert nd.ok
    one, zero = QQ.one, QQ.zero
    assert nd.lambda_star.rows == ((one, zero, zero, zero),
                                   (zero, zero, zero, one))
    assert nd.kappa.rows == ((one, zero, zero, zero),
                             (zero, zero, zero, one))
    assert nd.upper.kind == UPPER_STAR
    assert nd.star_upper.kind == STAR_UPPER


def test_nondegeneracy_group_and_function_fixtures(ks3, fn_s3):
    nd = nondegeneracy(ks3, group_sum_integral(ks3))
    assert isinstance(nd, NondegenerateIntegral) and nd.ok
    ell = tuple(integral_space(fn_s3, LEFT).space.basis.rows[0])
    nd = nondegeneracy(fn_s3, ell)
    assert isinstance(nd, NondegenerateIntegral) and nd.ok


def test_nondegeneracy_prime_field():
    gf7 = PrimeField(7)
    h = group_hopf_algebroid(FiniteGroup.cyclic(2), gf7)
    nd = nondegeneracy(h, (gf7.one, gf7.one))
    assert isinstance(nd, NondegenerateIntegral) and nd.ok


def test_degenerate_zero_integral(kz2):
    out = nondegeneracy(kz2, (QQ.zero, QQ.zero))
    assert isinstance(out, Degenerate)
    assert not out.ok
    assert out.rank == 0


def test_degenerate_m2_partial_integral(m2):
    # e11 + e21 is a genuine left integral but pairs degenerately
    ell = (QQ.one, QQ.zero, QQ.one, QQ.zero)
    assert integral_space(m2, LEFT).contains(ell)
    out = nondegeneracy(m2, ell)
    assert isinstance(out, Degenerate)
    assert out.rank == 2
    assert "rank" in out.reason


def test_nondegeneracy_certifies_a_degenerate_right_integral(m2):
    # S(e11) = e11 - e21 and S(e12) = e12 - e22, the identity on e21 and
    # e22: bijective, and S(ℓ) = e11 + e12 is a right integral whose
    # left-sided action maps have rank 2, while S⁻¹(ℓ) = ℓ stays good
    from algebroids.hopfcore import HopfAlgebroid
    one = QQ.one
    S = Matrix.from_sparse_cols(
        QQ, [{0: one, 2: -one}, {1: one, 3: -one}, {2: one}, {3: one}], 4)
    h = HopfAlgebroid(m2.lb, m2.rb, S, base_antiiso=m2.chi, name="bad")
    rep = nondegeneracy(h, (one,) * 4).report
    assert [c.check_id for c in rep.failures()] == [
        "fsrinv-upper", "fsrinv-star", "nd-s-ell"]
    assert rep.find("nd-s-ell").certificates == [
        "Υ_L : φ ↦ S(ℓ)↼φ has rank 2 of 4",
        "ₗΥ : φ ↦ S(ℓ)⇂φ has rank 2 of 4"]


def test_nondegeneracy_rejects_non_integral(kz2):
    with pytest.raises(ValueError):
        nondegeneracy(kz2, (QQ.zero, QQ.one))


def test_fsrinv_by_hand(m2):
    # ℓ_R^{-1}(a) = λ* ↼ S(a): check the inverse column-by-column against
    # the transpose action, independently of the report
    from algebroids.dualspace import transpose_right
    nd = nondegeneracy(m2, group_sum_integral(m2))
    A = m2.total
    for aidx in range(A.dim):
        via_inverse = nd.upper.element(nd.ellR_inv.cols[aidx])
        via_formula = transpose_right(nd.lambda_star, A, m2.S.cols[aidx])
        assert via_inverse.rows == via_formula.rows


def test_antipode_images_are_right_integrals(kz3, m2):
    for h, ell in ((kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        right = integral_space(h, RIGHT)
        assert right.contains(dense_matrix_apply(h.S, ell))
        assert right.contains(dense_matrix_apply(h.S_inv, ell))


# ---------------------------------------------------------------------------
# Frobenius systems


def test_frobenius_check_passes(kz2, kz3, m2):
    for h, ell in ((kz2, group_sum_integral(kz2)),
                   (kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        nd = nondegeneracy(h, ell)
        rep = frobenius_check(nd)
        assert rep.passed, [c.check_id for c in rep.failures()]
        ids = [c.check_id for c in rep.checks]
        assert ids == ["frob-bimodule", "frob-left", "frob-right"]


def test_frobenius_system_kz2(kz2):
    nd = nondegeneracy(kz2, group_sum_integral(kz2))
    fs = frobenius_system(nd)
    assert fs.functional.rows == nd.lambda_star.rows
    # quasi-basis 1⊗1 + t⊗t (S fixes the group sum's legs elementwise here)
    assert fs.quasi_basis == {0: QQ.one, 3: QQ.one}


def test_frobenius_system_kz3(kz3):
    nd = nondegeneracy(kz3, group_sum_integral(kz3))
    fs = frobenius_system(nd)
    # Σ_g g ⊗ g^{-1}: slots (e,e), (t,t²), (t²,t)
    assert fs.quasi_basis == {0 * 3 + 0: QQ.one, 1 * 3 + 2: QQ.one,
                              2 * 3 + 1: QQ.one}


def test_frobenius_identity_by_hand(kz3, m2):
    # Σ_k x_k · s_R(λ*(y_k · a)) = a, evaluated with raw algebra ops
    for h, ell in ((kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        nd = nondegeneracy(h, ell)
        fs = frobenius_system(nd)
        A = h.total
        rb = h.rb
        d = A.dim
        quasi = [fs.quasi_basis.get(k, QQ.zero) for k in range(d * d)]
        s_lam = rb.s.matrix @ nd.lambda_star
        for aidx in range(d):
            avec = A.basis_vec(aidx)
            acc = (QQ.zero,) * d
            for k in range(d):
                xk = A.basis_vec(k)
                yk_block = quasi[k * d:(k + 1) * d]
                ya = dense_mul_vec(A, yk_block, avec)
                term = dense_mul_vec(A, xk, dense_matrix_apply(s_lam, ya))
                acc = tuple(p + q for p, q in zip(acc, term))
            assert acc == avec


# ---------------------------------------------------------------------------
# the auxiliary anti-automorphism and the duality square


def test_twap_recovers_antipode(kz2, kz3, m2):
    for h, ell in ((kz2, group_sum_integral(kz2)),
                   (kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        nd = nondegeneracy(h, ell)
        ts = twap(h, nd)
        assert ts.matrix == h.S
        assert ts.kind == "anti"


def test_duality_diagram_passes(kz2, kz3, m2):
    for h, ell in ((kz2, group_sum_integral(kz2)),
                   (kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        nd = nondegeneracy(h, ell)
        rep = duality_diagram(h, nd)
        assert rep.passed, [c.check_id for c in rep.failures()]
        by_id = checks_by_id(rep)
        for label in ("left", "right", "top", "bottom"):
            assert by_id[f"{label}-bijective"].verdict == "PASS"
        assert by_id["diagram-commutes"].verdict == "PASS"


def test_duality_diagram_function_algebra(fn_s3):
    ell = tuple(integral_space(fn_s3, LEFT).space.basis.rows[0])
    nd = nondegeneracy(fn_s3, ell)
    rep = duality_diagram(fn_s3, nd)
    assert rep.passed, [c.check_id for c in rep.failures()]


def test_duality_diagram_stops_where_its_premises_fail(m2):
    # γ_L raised at (0, 2): neither left-sided dual ring closes, so the
    # square stops there and the dual Hopf algebroid is refused; the zero
    # element moves nothing, so both ℓ_L and ₗℓ are singular and the square
    # stops before its corners
    import copy
    from algebroids.bialgebroid import LeftBialgebroid
    from algebroids.hopfcore import HopfAlgebroid
    from test_acceptance import _perturb
    nd = nondegeneracy(m2, group_sum_integral(m2))
    lb = m2.lb
    bad_lb = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t,
                             _perturb(lb.gamma_lift, 0, 2, QQ.one), lb.counit)
    bad = HopfAlgebroid(bad_lb, m2.rb, m2.S, m2.S_inv, base_antiiso=m2.chi)
    rep = duality_diagram(bad, nd)
    assert [c.check_id for c in rep.checks] == ["diagram-duals"]
    assert [c.split(":")[0] for c in rep.checks[0].certificates] == [
        "lower-star dual failed", "star-lower dual failed"]
    with pytest.raises(PreconditionError,
                       match="^the lower-star dual did not assemble: "
                             "dual-closed"):
        dual_hopf_algebroid(bad, nd)
    zero = copy.copy(nd)
    zero.ell = {}
    rep = duality_diagram(m2, zero)
    assert [c.check_id for c in rep.failures()] == [
        "ell-l-bijective", "l-ell-bijective"]
    assert rep.checks[-1].certificates == ["rank 0 of 4"]


# ---------------------------------------------------------------------------
# dual Hopf algebroids


def test_dual_hopf_algebroid_kz2(kz2):
    nd = nondegeneracy(kz2, group_sum_integral(kz2))
    hd = dual_hopf_algebroid(kz2, nd)
    # the dual of kZ2 is the function algebra on Z2; inversion is trivial
    assert hd.S == Matrix.identity(QQ, 2)


def test_dual_hopf_algebroid_kz3(kz3):
    nd = nondegeneracy(kz3, group_sum_integral(kz3))
    hd = dual_hopf_algebroid(kz3, nd)
    # S* permutes the dual basis by group inversion: δ_t ↔ δ_{t²}
    one, zero = QQ.one, QQ.zero
    assert hd.S.rows == ((one, zero, zero),
                         (zero, zero, one),
                         (zero, one, zero))
    assert hd.S @ hd.S == Matrix.identity(QQ, 3)


def test_dual_hopf_algebroid_m2(m2):
    nd = nondegeneracy(m2, group_sum_integral(m2))
    hd = dual_hopf_algebroid(m2, nd)
    one, zero = QQ.one, QQ.zero
    assert hd.S.rows == ((one, zero, zero, zero),
                         (zero, zero, one, zero),
                         (zero, one, zero, zero),
                         (zero, zero, zero, one))


def test_dual_integral_is_two_sided(kz3, m2):
    # κ = π_L ∘ s_R ∘ λ* is a two-sided nondegenerate integral in the dual
    from algebroids.dualspace import dual_lower_star
    for h, ell in ((kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        nd = nondegeneracy(h, ell)
        hd = dual_hopf_algebroid(h, nd)
        dual = dual_lower_star(h.lb)
        kvec = dual.module.coords(nd.kappa)
        assert kvec is not None
        # the public entry points take κ's coordinates densely
        kvec = tuple(kvec.get(k, QQ.zero) for k in range(hd.total.dim))
        assert integral_space(hd, LEFT).contains(kvec)
        assert integral_space(hd, RIGHT).contains(kvec)
        out = nondegeneracy(hd, kvec)
        assert isinstance(out, NondegenerateIntegral)


# ---------------------------------------------------------------------------
# transport of integrals: a Hopf algebroid isomorphism Φ pushes a
# non-degenerate left integral ℓ to the non-degenerate left integral Φ(ℓ)


def test_transport_identity(kz2):
    nd = nondegeneracy(kz2, group_sum_integral(kz2))
    pushed = Matrix.identity(QQ, 2).apply(nd.ell)
    out = nondegeneracy(kz2, dense(QQ, 2, pushed))
    assert isinstance(out, NondegenerateIntegral)
    assert out.ell == nd.ell


def test_transport_group_automorphism(kz3):
    # inversion t ↦ t² is a Hopf algebroid automorphism of kZ3
    nd = nondegeneracy(kz3, group_sum_integral(kz3))
    one, zero = QQ.one, QQ.zero
    auto = AlgebraMap(kz3.total, kz3.total,
                      Matrix.from_cols(QQ, [(one, zero, zero),
                                            (zero, zero, one),
                                            (zero, one, zero)], 3),
                      HOM, "inv")
    out = nondegeneracy(kz3, dense(QQ, 3, auto.apply(nd.ell)))
    assert isinstance(out, NondegenerateIntegral)
    assert out.ell == nd.ell  # the group sum is inversion-invariant


# ---------------------------------------------------------------------------
# weak Hopf duality


def test_dual_weak_hopf_builds(qq):
    W = group_weak_hopf(FiniteGroup.cyclic(2), qq)
    What = dual_weak_hopf(W)
    from algebroids.twistlab import verify_weak_hopf
    assert verify_weak_hopf(What).passed


@pytest.mark.parametrize("make", [
    lambda f: group_weak_hopf(FiniteGroup.cyclic(2), f),
    lambda f: group_weak_hopf(FiniteGroup.cyclic(3), f),
    lambda f: pair_groupoid_weak_hopf(2, f),
], ids=["z2", "z3", "pair2"])
def test_weak_dual_iso(make, qq):
    W = make(qq)
    h, rep = weak_hopf_to_hopf_algebroid(W)
    assert h is not None, rep.render_text()
    ell = tuple(qq.one for _ in range(h.total.dim))
    nd = nondegeneracy(h, ell)
    assert isinstance(nd, NondegenerateIntegral)
    out = weak_dual_iso(W, h, nd)
    assert out.passed, [c.check_id for c in out.failures()]
    by_id = checks_by_id(out)
    assert by_id["dualiso-bijective"].verdict == "PASS"
    assert by_id["dualiso-wha"].verdict == "PASS"


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_weak_dual_iso_on_functions_on_s3(field):
    # Δ(1) = Σ δ_g ⊗ δ_h: no δ_h lies in the base k·1, only the slice
    # Σ_h δ_h = 1 by the first leg does
    fn = function_algebra_hopf(FiniteGroup.symmetric(3), field)
    W = weak_bialgebra_from_sep(fn.lb, separability_structure(fn.lb.base),
                                antipode=fn.S)
    h, rep = weak_hopf_to_hopf_algebroid(W)
    assert h is not None, rep.render_text()
    ell = integral_space(h, LEFT).space.sparse_basis()[0]
    nd = nondegeneracy(h, tuple(ell.get(i, field.zero)
                                for i in range(h.total.dim)))
    assert isinstance(nd, NondegenerateIntegral)
    out = weak_dual_iso(W, h, nd)
    assert out.passed, [c.check_id for c in out.failures()]


def test_weak_dual_iso_stops_where_its_premises_fail():
    # Δ of W(M2) raised at (1, 3) spoils the dual weak Hopf algebra; γ_L
    # raised at (0, 2) leaves no lower-star dual ring; a weak Hopf algebra
    # that is not h's fails the morphism checks; each stops the check
    from algebroids.bialgebroid import LeftBialgebroid
    from algebroids.hopfcore import HopfAlgebroid
    from algebroids.twistlab import WeakHopfAlgebra
    from test_acceptance import _perturb
    W = pair_groupoid_weak_hopf(2, QQ)
    h, _ = weak_hopf_to_hopf_algebroid(W)
    nd = nondegeneracy(h, group_sum_integral(h))
    shifted = WeakHopfAlgebra(W.algebra, _perturb(W.delta, 1, 3, QQ.one),
                              W.counit, W.antipode)
    rep = weak_dual_iso(shifted, h, nd)
    assert rep.checks[-1].check_id == "dual-algebroid"
    _, rep_hat = weak_hopf_to_hopf_algebroid(dual_weak_hopf(shifted))
    assert rep.checks[-1].certificates == [rep_hat.failure_line()] != [""]
    lb = h.lb
    bad_lb = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t,
                             _perturb(lb.gamma_lift, 0, 2, QQ.one), lb.counit)
    bad = HopfAlgebroid(bad_lb, h.rb, h.S, h.S_inv, base_antiiso=h.chi)
    rep = weak_dual_iso(W, bad, nd)
    assert [c.check_id for c in rep.failures()] == ["dual-assembles"]
    assert rep.checks[-1].check_id == "dual-assembles"
    # kS₃'s weak Hopf algebra against the functions on S₃: Φ is bijective
    # and lands in the base, but is no morphism
    s3 = FiniteGroup.symmetric(3)
    fn = function_algebra_hopf(s3, QQ)
    ell = tuple(integral_space(fn, LEFT).space.basis.rows[0])
    rep = weak_dual_iso(group_weak_hopf(s3, QQ), fn, nondegeneracy(fn, ell))
    assert rep.checks[-1].check_id == "dualiso-mor-coproduct"
    assert not rep.find("dualiso-mor-src").ok


def _weak_dual_iso_with_decided(monkeypatch, delta=1, counit=1):
    """``weak_dual_iso`` on k[Z2] with the coproduct and the counit of the
    weak Hopf algebra decided on the dual ring scaled by ``delta`` and
    ``counit``."""
    import algebroids.integrallab as integrallab
    import algebroids.twistlab as twistlab
    decide = twistlab.wha_decide

    def scaled(hd, sep=None):
        out = decide(hd, sep=sep)
        w = out["weak_hopf"]
        out["weak_hopf"] = twistlab.WeakHopfAlgebra(
            w.algebra, w.delta.scale(QQ.of(delta)),
            w.counit.scale(QQ.of(counit)), w.antipode)
        return out

    monkeypatch.setattr(integrallab, "wha_decide", scaled)
    W = group_weak_hopf(FiniteGroup.cyclic(2), QQ)
    h, _ = weak_hopf_to_hopf_algebroid(W)
    return weak_dual_iso(W, h, nondegeneracy(h, (QQ.one, QQ.one)))


def test_weak_dual_iso_counit_certificate_names_the_functionals(
        monkeypatch):
    # the decided weak Hopf algebra with its counit doubled: only the counit
    # square fails, and both functionals are printed in the dual basis
    out = _weak_dual_iso_with_decided(monkeypatch, counit=2)
    assert [c.check_id for c in out.failures()] == ["dualiso-wha-counit"]
    assert out.find("dualiso-wha-counit").certificates == [
        "ε̂∘Φ = f0^ but ε = 2*f0^"]


def test_weak_dual_iso_coproduct_certificate_names_the_functionals(
        monkeypatch):
    # the decided weak Hopf algebra with its coproduct doubled: only the
    # coproduct square fails, on every basis functional
    out = _weak_dual_iso_with_decided(monkeypatch, delta=2)
    assert [c.check_id for c in out.failures()] == ["dualiso-wha-coproduct"]
    assert out.find("dualiso-wha-coproduct").certificates == [
        f"basis functional {j}: Δ̂(Φ(ψ)) ≠ (Φ⊗Φ)Δ(ψ)" for j in (0, 1)]


# ---------------------------------------------------------------------------
# bialgebroid-level nondegeneracy (no antipode assumed)


def test_verify_bgdnd_passes(kz2, m2):
    assert verify_bgdnd(kz2.rb, group_sum_integral(kz2)).passed
    assert verify_bgdnd(m2.rb, group_sum_integral(m2)).passed


def test_verify_bgdnd_detects_rank_defect(kz2):
    rep = verify_bgdnd(kz2.rb, (QQ.one, QQ.zero))
    assert not rep.passed
    by_id = checks_by_id(rep)
    assert by_id["bgdnd-ell-r"].verdict == "FAIL"
    assert "rank" in by_id["bgdnd-ell-r"].certificates[0]
    assert by_id["bgdnd-r-ell"].verdict == "FAIL"
    # the Sweedler-leg identities cannot even be stated without the inverses
    assert by_id["sf"].verdict == "SKIP"
    assert by_id["sb"].verdict == "SKIP"


def test_verify_bgdnd_m2_degenerate_row(m2):
    rep = verify_bgdnd(m2.rb, (QQ.one, QQ.one, QQ.zero, QQ.zero))
    assert not rep.passed
    by_id = checks_by_id(rep)
    assert by_id["bgdnd-ell-r"].verdict == "FAIL"
    assert by_id["bgdnd-r-ell"].verdict == "FAIL"


def test_lac_identities(kz2, kz3, m2):
    for h, ell in ((kz2, group_sum_integral(kz2)),
                   (kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        rep = lac_check(h.rb, ell)
        assert rep.passed, [c.check_id for c in rep.failures()]
        ids = [c.check_id for c in rep.checks]
        assert ids == ["lac-s", "lac-t"]


# ---------------------------------------------------------------------------
# the antipode from a nondegenerate integral


def test_ls_antipode_recovers_catalog_antipodes(kz2, kz3, m2):
    for h, ell in ((kz2, group_sum_integral(kz2)),
                   (kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        out = ls_antipode(h.rb, ell)
        assert out.S == h.S
        assert out.S_inv == h.S_inv


def test_ls_antipode_larger_fixtures(ks3, fn_s3):
    out = ls_antipode(ks3.rb, group_sum_integral(ks3))
    assert out.S == ks3.S
    ell = tuple(integral_space(fn_s3, LEFT).space.basis.rows[0])
    out = ls_antipode(fn_s3.rb, ell)
    assert out.S == fn_s3.S


def test_ls_antipode_rejects_degenerate_input(kz2):
    with pytest.raises(ValueError):
        ls_antipode(kz2.rb, (QQ.one, QQ.zero))


def test_ls_antipode_refusal_carries_its_precondition(kz2):
    with pytest.raises(ValueError) as caught:
        ls_antipode(kz2.rb, (QQ.one, QQ.zero))
    assert type(caught.value) is ValueError
    pre = caught.value.report
    assert not pre.passed
    assert str(caught.value).startswith(
        "not a non-degenerate integral for the right bialgebroid: "
        + pre.failures()[0].check_id)


def test_constructions_keep_what_they_decided(m2):
    out = ls_antipode(m2.rb, group_sum_integral(m2))
    assert sorted(out.decided) == ["hopf", "pre"]
    assert out.decided["pre"].passed and out.decided["hopf"].passed
    assert out.decided["pre"].find("sf").ok
    nd = nondegeneracy(m2, group_sum_integral(m2))
    hd = dual_hopf_algebroid(m2, nd)
    assert sorted(hd.decided) == ["dual", "hopf", "kappa", "kappa_nd"]
    assert hd.decided["dual"].bgd is hd.rb
    assert hd.decided["hopf"].passed
    assert integral_space(hd, LEFT).space.contains(hd.decided["kappa"])
    assert hd.decided["kappa_nd"].ok
    assert hd.decided["kappa_nd"].ell == hd.decided["kappa"]
    assert m2.decided == {}


def test_ls_antipode_output_is_verified_hopf(m2):
    from algebroids.hopfcore import verify_hopf
    out = ls_antipode(m2.rb, group_sum_integral(m2))
    assert verify_hopf(out).passed
    assert out.rb.gamma_lift == m2.rb.gamma_lift


def test_ls_antipode_builds_each_right_dual_once(monkeypatch):
    # the closing non-degeneracy check reuses the precondition's dual
    # modules, action maps and inverses instead of building them again
    h = pair_groupoid_hopf_algebroid(3, QQ)
    builds = []
    init = DualModule.__init__

    def counting(self, bgd, kind, *args, **kwargs):
        builds.append(kind)
        init(self, bgd, kind, *args, **kwargs)

    monkeypatch.setattr(DualModule, "__init__", counting)
    out = ls_antipode(h.rb, group_sum_integral(h))
    assert out.S == h.S
    assert builds.count(UPPER_STAR) == 1
    assert builds.count(STAR_UPPER) == 1


def test_verify_bgdnd_right_passes(kz2, kz3, m2):
    for h, ups in ((kz2, group_sum_integral(kz2)),
                   (kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        rep = verify_bgdnd_right(h.lb, ups)
        assert rep.passed, [c.check_id for c in rep.failures()]


def test_ls_right_mirrors_ls_antipode(kz2, kz3, m2):
    for h, ups in ((kz2, group_sum_integral(kz2)),
                   (kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        out = ls_right(h.lb, ups)
        assert out.S == h.S
        mirror = ls_antipode(h.lb.op(), ups)
        assert out.S == mirror.S
        assert out.S_inv == mirror.S_inv


# ---------------------------------------------------------------------------
# double duals


def test_double_dual_evaluation(kz2, kz3, m2):
    for h, ell in ((kz2, group_sum_integral(kz2)),
                   (kz3, group_sum_integral(kz3)),
                   (m2, group_sum_integral(m2))):
        nd = nondegeneracy(h, ell)
        rep = double_dual_evaluation(h, nd)
        assert rep.passed, [c.check_id for c in rep.failures()]
        by_id = checks_by_id(rep)
        assert by_id["dd-member"].verdict == "PASS"
        assert by_id["dd-bijective"].verdict == "PASS"


def test_double_dual_solves_each_dual_constraint_space_once(monkeypatch,
                                                            m2):
    # both dual constructions hand their lower-star duals back on
    # ``decided``, so the evaluation solves no dual module of its own
    import algebroids.dualspace as dualspace
    nd = nondegeneracy(m2, group_sum_integral(m2))
    solved = []
    original = dualspace.DualModule._solve_constraints

    def counting(module):
        solved.append(module.kind)
        return original(module)

    monkeypatch.setattr(dualspace.DualModule, "_solve_constraints", counting)
    rep = double_dual_evaluation(m2, nd)
    assert rep.passed
    assert len(solved) == 10


def test_double_dual_function_algebra(fn_s3):
    ell = tuple(integral_space(fn_s3, LEFT).space.basis.rows[0])
    nd = nondegeneracy(fn_s3, ell)
    rep = double_dual_evaluation(fn_s3, nd)
    assert rep.passed, [c.check_id for c in rep.failures()]
