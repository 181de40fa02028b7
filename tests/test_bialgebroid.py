"""Left/right bialgebroid verification and the op/cop symmetries."""

from algebroids.exactfield import Matrix, RationalField
from algebroids.algebra import HOM, AlgebraMap
from algebroids.bialgebroid import (
    LeftBialgebroid,
    verify_left_bialgebroid,
    verify_right_bialgebroid,
    verify_left_morphism,
    verify_right_morphism,
)
from algebroids.catalog import all_fixtures

QQ = RationalField()


def test_kz2_left_right_pass(kz2):
    assert verify_left_bialgebroid(kz2.lb).passed
    assert verify_right_bialgebroid(kz2.rb).passed


def test_m2_left_right_pass(m2):
    assert verify_left_bialgebroid(m2.lb).passed
    assert verify_right_bialgebroid(m2.rb).passed


def test_fn_s3_left_pass(fn_s3):
    assert verify_left_bialgebroid(fn_s3.lb).passed


def test_corrupt_coproduct_fails_exactly_counit_s(kz2):
    lb = kz2.lb
    # redirect γ(g) = g ⊗ 1: still coassociative and Takeuchi-compatible,
    # but the source-side counit law dies
    cols = [lb.gamma_lift.col(0), None]
    bad = [QQ.zero] * 4
    bad[1 * 2 + 0] = QQ.one  # g ⊗ 1
    cols[1] = tuple(bad)
    gamma_bad = Matrix.from_cols(QQ, cols, 4)
    lb_bad = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t, gamma_bad,
                             lb.counit, name="kZ2-corrupt")
    rep = verify_left_bialgebroid(lb_bad)
    assert {c.check_id for c in rep.failures()} == {"counit-s"}
    assert rep.find("counit-s").certificates


FIXTURES = {fx["name"]: fx["hopf"] for fx in all_fixtures()}
CHIRALITIES = [(name, side) for name in FIXTURES for side in ("lb", "rb")]


def _assert_same_structure(back, bgd):
    """``back`` is ``bgd`` again: class, algebras, structure maps, and the
    relations of its balanced tensor square."""
    assert type(back) is type(bgd), bgd
    assert back.total == bgd.total
    assert back.base == bgd.base
    assert back.s.matrix.rows == bgd.s.matrix.rows
    assert back.t.matrix.rows == bgd.t.matrix.rows
    assert back.gamma_lift.rows == bgd.gamma_lift.rows
    assert back.counit.rows == bgd.counit.rows
    for got, want in ((back.junction().right, bgd.junction().right),
                      (back.junction().left, bgd.junction().left)):
        assert got.side == want.side
        assert got.amap.matrix == want.amap.matrix
    assert back.tensor_space.relation_rank == bgd.tensor_space.relation_rank
    assert back.tensor_space.free_cols == bgd.tensor_space.free_cols


def test_op_is_involutive():
    for name, side in CHIRALITIES:
        bgd = getattr(FIXTURES[name], side)
        op = bgd.op()
        assert type(op) is bgd.mirror, (name, side)
        assert type(op) is not type(bgd), (name, side)
        _assert_same_structure(op.op(), bgd)


def test_the_opposite_of_the_opposite_is_the_structure_itself():
    for name, side in CHIRALITIES:
        bgd = getattr(FIXTURES[name], side)
        assert bgd.op() is bgd.op(), (name, side)
        assert bgd.op().op() is bgd, (name, side)


def test_an_opposite_reads_its_sources_quotients():
    """An opposite's tensor square, triple, coproduct coordinates and
    canonical lift are its source's objects, also when the opposite asks
    for them first; the co-opposite builds its own."""
    attrs = ("tensor_space", "coassoc_space", "gamma_q",
             "canonical_gamma_lift")
    for name, side in CHIRALITIES:
        # a co-opposite's co-opposite has nothing built yet
        bgd = getattr(FIXTURES[name], side).cop().cop()
        op, cop = bgd.op(), bgd.cop()
        for attr in attrs:
            assert getattr(op, attr) is getattr(bgd, attr), (name, attr)
            assert getattr(cop, attr) is not getattr(bgd, attr), \
                (name, attr)


def test_cop_is_involutive():
    for name, side in CHIRALITIES:
        bgd = getattr(FIXTURES[name], side)
        assert type(bgd.cop()) is type(bgd), (name, side)
        _assert_same_structure(bgd.cop().cop(), bgd)


def test_op_cop_verify(m2):
    assert verify_right_bialgebroid(m2.lb.op()).passed
    assert verify_left_bialgebroid(m2.lb.cop()).passed
    assert verify_left_bialgebroid(m2.rb.op()).passed
    assert verify_right_bialgebroid(m2.rb.cop()).passed


def test_coassoc_space_dims(kz2, m2):
    assert kz2.lb.coassoc_space.dim == 8    # no relations over k
    assert m2.lb.coassoc_space.dim == 16    # composable triples


def test_identity_is_morphism(kz2):
    lb = kz2.lb
    A = lb.total
    ident = AlgebraMap(A, A, Matrix.identity(QQ, A.dim), HOM, "id")
    rep = verify_left_morphism(lb, lb, ident)
    assert rep.passed


def test_sign_flip_is_not_coalgebra_morphism(kz2):
    lb = kz2.lb
    A = lb.total
    # g ↦ -g is an algebra automorphism but not a coalgebra map
    phi = AlgebraMap(A, A, Matrix.from_cols(
        QQ, [A.basis_vec(0), tuple(-x for x in A.basis_vec(1))], 2),
        "hom", "flip")
    rep = verify_left_morphism(lb, lb, phi)
    failed = {c.check_id for c in rep.failures()}
    assert "mor-coproduct" in failed
    assert "mor-counit" in failed


def test_right_morphism_identity(m2):
    rb = m2.rb
    A = rb.total
    ident = AlgebraMap(A, A, Matrix.identity(QQ, A.dim), HOM, "id")
    assert verify_right_morphism(rb, rb, ident).passed


def test_same_structure_reads_the_coproduct_in_the_quotient(m2):
    lb = m2.lb
    # e21⊗e11 is a relation of the balanced square: the same coproduct
    cols = [dict(col) for col in lb.gamma_lift.cols]
    cols[0][2 * 4 + 0] = QQ.one
    shifted = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t,
                              Matrix.from_sparse_cols(QQ, cols, 16),
                              lb.counit)
    assert lb.same_structure(shifted) and shifted.same_structure(lb)
    # e11⊗e12 is not: a different coproduct
    cols[0][0 * 4 + 1] = QQ.one
    moved = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t,
                            Matrix.from_sparse_cols(QQ, cols, 16), lb.counit)
    assert not lb.same_structure(moved)
    assert not lb.same_structure(LeftBialgebroid(
        lb.total, lb.base, lb.s, lb.t, lb.gamma_lift, lb.counit + lb.counit))
    # the right side of M2 has the same data but the other chirality
    assert not lb.same_structure(m2.rb)
