"""Base-valued duals: constraint modules, convolution rings, the four dual
bialgebroids, and the action calculus."""

import pytest

from algebroids.exactfield import Matrix, RationalField
from algebroids.algebra import POST, PRE, opposite, sparse
from dense_reference import (dense, dense_matrix_apply, dense_mul_vec,
                             dense_transpose_action)
from algebroids.bialgebroid import (
    LeftBialgebroid,
    verify_left_bialgebroid,
    verify_right_bialgebroid,
)
from algebroids.dualspace import (
    LOWER_STAR,
    STAR_LOWER,
    STAR_UPPER,
    UPPER_STAR,
    DualModule,
    act,
    dual_lower_star,
    dual_star_lower,
    dual_star_upper,
    dual_upper_star,
    transpose_action,
)

QQ = RationalField()


def test_kind_requires_matching_sidedness(kz2):
    with pytest.raises(ValueError):
        DualModule(kz2.lb, UPPER_STAR)
    with pytest.raises(ValueError):
        DualModule(kz2.rb, LOWER_STAR)
    with pytest.raises(ValueError):
        DualModule(kz2.lb, "mystery")


def test_kz2_dual_is_function_algebra(kz2):
    D = dual_lower_star(kz2.lb)
    assert D.report.passed, [c.check_id for c in D.report.failures()]
    assert D.module.dim == 2
    assert opposite(D.ring) == D.ring
    # the echelon basis is the delta basis; products are pointwise
    f0, f1 = D.module.basis
    assert D.module.product(f0, f0).rows == f0.rows
    assert not any(D.module.product(f0, f1).cols)
    # γ̂ dualizes the group multiplication
    assert D.bgd.gamma_lift.col(0) == (QQ.one, QQ.zero, QQ.zero, QQ.one)
    assert D.bgd.gamma_lift.col(1) == (QQ.zero, QQ.one, QQ.one, QQ.zero)
    assert verify_right_bialgebroid(D.bgd).passed


def test_m2_dual_is_groupoid_function_algebra(m2):
    D = dual_lower_star(m2.lb)
    assert D.report.passed, [c.check_id for c in D.report.failures()]
    assert D.module.dim == 4
    assert opposite(D.ring) == D.ring
    assert verify_right_bialgebroid(D.bgd).passed
    # dual tensor square = functions on composable arrow pairs
    assert D.bgd.tensor_space.dim == 8
    # ŝ(d_m) is the column-m indicator, t̂(d_m) the row-m indicator
    assert D.bgd.s.matrix.col(0) == (QQ.one, QQ.zero, QQ.one, QQ.zero)
    assert D.bgd.s.matrix.col(1) == (QQ.zero, QQ.one, QQ.zero, QQ.one)
    assert D.bgd.t.matrix.col(0) == (QQ.one, QQ.one, QQ.zero, QQ.zero)
    assert D.bgd.t.matrix.col(1) == (QQ.zero, QQ.zero, QQ.one, QQ.one)


def test_m2_dual_coproduct_is_matrix_coproduct(m2):
    D = dual_lower_star(m2.lb)
    # module basis order is f11, f12, f21, f22
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for idx, (i, j) in enumerate(pairs):
        lift = sparse(D.bgd.gamma_lift.col(idx))
        expect = {pairs.index((i, k)) * 4 + pairs.index((k, j)): QQ.one
                  for k in (1, 2)}
        assert D.bgd.tensor_space.equal(lift, expect)


def test_pairing_identity_holds(ks3, m2):
    # ⟨γ̂(φ), a⊗b⟩ = φ(ab) with ⟨u⊗v, a⊗b⟩ = u(a t_L(v(b))), re-evaluated
    # from the published lift, independently of the solver
    for h in (ks3, m2):
        lb = h.lb
        A = lb.total
        D = dual_lower_star(lb)
        n = D.module.dim
        for p in range(n):
            lift = D.bgd.gamma_lift.col(p)
            for aidx in range(A.dim):
                for bidx in range(A.dim):
                    acc = (QQ.zero,) * lb.base.dim
                    for u in range(n):
                        for v in range(n):
                            c = lift[u * n + v]
                            if not c:
                                continue
                            moved = dense_mul_vec(
                                A, A.basis_vec(aidx),
                                dense_matrix_apply(
                                    lb.t.matrix,
                                    D.module.basis[v].col(bidx)))
                            val = dense_matrix_apply(D.module.basis[u],
                                                     moved)
                            acc = tuple(x + c * y
                                        for x, y in zip(acc, val))
                    direct = dense_matrix_apply(
                        D.module.basis[p],
                        dense_mul_vec(A, A.basis_vec(aidx),
                                      A.basis_vec(bidx)))
                    assert acc == direct


def test_all_four_duals_verify(kz2, m2):
    for h in (kz2, m2):
        D1 = dual_lower_star(h.lb)
        D2 = dual_star_lower(h.lb)
        D3 = dual_upper_star(h.rb)
        D4 = dual_star_upper(h.rb)
        assert verify_right_bialgebroid(D1.bgd).passed
        assert verify_right_bialgebroid(D2.bgd).passed
        assert verify_left_bialgebroid(D3.bgd).passed
        assert verify_left_bialgebroid(D4.bgd).passed
        assert D2.module.kind == STAR_LOWER
        assert D3.module.kind == UPPER_STAR
        assert D4.module.kind == STAR_UPPER


def test_reduction_ring_matches_direct_formula(kz2, m2):
    # the op/cop route to each dual reproduces the direct convolution
    for h in (kz2, m2):
        for build, kind_source in ((dual_star_lower, h.lb),
                                   (dual_upper_star, h.rb),
                                   (dual_star_upper, h.rb)):
            D = build(kind_source)
            mod = D.module
            ring = D.bgd.total
            for i in range(mod.dim):
                for j in range(mod.dim):
                    direct = mod.product(mod.basis[i], mod.basis[j])
                    via_ring = mod.element(ring.table[i][j])
                    assert direct.rows == via_ring.rows


def test_upper_duals_share_constraint_space(kz2, kz2_twisted, m2, ks3,
                                           fn_s3):
    # the op-reduction builds the same echelon basis as the direct
    # constraint solve
    direct = DualModule(m2.rb, UPPER_STAR)
    via_op = DualModule(m2.rb.op(), LOWER_STAR)
    assert direct.space.basis.rows == via_op.space.basis.rows
    # and each derived dual's module, taken over from its inner lower-star
    # construction, is the direct solve of its own constraints
    for h in (kz2, kz2_twisted, m2, ks3, fn_s3):
        for build, bgd, kind in ((dual_star_lower, h.lb, STAR_LOWER),
                                 (dual_upper_star, h.rb, UPPER_STAR),
                                 (dual_star_upper, h.rb, STAR_UPPER)):
            module = build(bgd).module
            direct = DualModule(bgd, kind)
            assert (module.bgd, module.kind) == (bgd, kind)
            assert module.space == direct.space
            assert module.basis == direct.basis


def test_actions_on_kz2(kz2):
    lb, rb = kz2.lb, kz2.rb
    D = DualModule(lb, LOWER_STAR)
    gstar = D.basis[1]
    g = {1: QQ.one}
    e = {0: QQ.one}
    # a ↼ φ = s_L(φ(a_(1))) a_(2)
    assert act(lb, LOWER_STAR, gstar, g) == g
    assert act(lb, LOWER_STAR, gstar, e) == {}
    # a ⇂ φ via the star-lower dual
    Dsl = DualModule(lb, STAR_LOWER)
    assert act(lb, STAR_LOWER, Dsl.basis[1], g) == g
    # φ ⇀ a and φ ⇁ a on the right-handed side
    Dus = DualModule(rb, UPPER_STAR)
    assert act(rb, UPPER_STAR, Dus.basis[1], g) == g
    assert act(rb, UPPER_STAR, Dus.basis[1], e) == {}
    Dsu = DualModule(rb, STAR_UPPER)
    assert act(rb, STAR_UPPER, Dsu.basis[1], g) == g


def test_transpose_actions_preserve_membership(m2):
    # (a ⇀ φ)(b) = φ(ba) keeps lower-star functionals lower-star
    lb = m2.lb
    A = lb.total
    D = DualModule(lb, LOWER_STAR)
    for aidx in range(A.dim):
        for phi in D.basis:
            moved = transpose_action(phi, A, {aidx: QQ.one}, POST)
            assert D.contains(moved)
    # (φ ↼ a)(b) = φ(ab) keeps upper-star functionals upper-star
    Du = DualModule(m2.rb, UPPER_STAR)
    for aidx in range(A.dim):
        for phi in Du.basis:
            moved = transpose_action(phi, A, {aidx: QQ.one}, PRE)
            assert Du.contains(moved)


def test_derived_unit_identities_m2(m2):
    # (ŝ(l)φ)(y) = φ(y s_L(l)) and (φ t̂(l))(y) = l φ(y)
    lb = m2.lb
    A = lb.total
    L = lb.base
    D = dual_lower_star(lb)
    ring = D.bgd.total
    for lidx in range(L.dim):
        sl_dual = D.bgd.s.matrix.cols[lidx]
        tl_dual = D.bgd.t.matrix.cols[lidx]
        sL = lb.s.apply({lidx: QQ.one})
        for p in range(D.module.dim):
            phi = D.module.basis[p]
            left = D.module.element(ring.mul_vec(sl_dual, {p: QQ.one}))
            assert left.rows == dense_transpose_action(
                phi, A, dense(QQ, A.dim, sL), POST)
            right = D.module.element(ring.mul_vec({p: QQ.one}, tl_dual))
            expect = Matrix.from_rows(
                QQ, [phi.rows[m] if m == lidx
                     else tuple(QQ.zero for _ in range(A.dim))
                     for m in range(L.dim)], A.dim)
            assert right.rows == expect.rows


def test_corrupt_input_fails_cleanly(kz2):
    lb = kz2.lb
    cols = [lb.gamma_lift.col(0), None]
    bad = [QQ.zero] * 4
    bad[1 * 2 + 0] = QQ.one  # γ(g) = g ⊗ 1
    cols[1] = tuple(bad)
    gamma_bad = Matrix.from_cols(QQ, cols, 4)
    lb_bad = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t, gamma_bad,
                             lb.counit, name="kZ2-corrupt")
    D = dual_lower_star(lb_bad)
    assert not D.report.passed
    assert D.bgd is None


def test_fn_s3_dual_recovers_group_algebra(fn_s3):
    # the dual of functions-on-S3 is a 6-dimensional ring with the
    # convolution product: noncommutative
    D = dual_lower_star(fn_s3.lb)
    assert D.report.passed
    assert D.module.dim == 6
    assert opposite(D.ring) != D.ring
    assert verify_right_bialgebroid(D.bgd).passed
