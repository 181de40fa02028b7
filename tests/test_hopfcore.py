"""Full Hopf-algebroid verification, the antipode calculus, and the
Galois-map bijectivity route."""

import pytest

from algebroids.algebra import sparse
from algebroids.bimodtensor import BalancedTensorSpace
from algebroids.catalog import pair_groupoid_hopf_algebroid
from algebroids.exactfield import RationalField
from algebroids.hopfcore import (
    GaloisMaps,
    HopfAlgebroid,
    antipode_uniqueness,
    check_lu_axioms,
    check_luiiv,
    reconstruct_left,
    reconstruct_right,
    verify_galois,
    verify_hopf,
    verify_sisom,
)
from dense_reference import scaled_matrix, zero_matrix

QQ = RationalField()


def test_kz2_full_pass(kz2):
    rep = verify_hopf(kz2)
    assert rep.passed, [c.check_id for c in rep.failures()]


def test_kz2_twisted_full_pass(kz2_twisted):
    rep = verify_hopf(kz2_twisted)
    assert rep.passed, [c.check_id for c in rep.failures()]


def test_kz2_twisted_right_coproduct_sign(kz2_twisted):
    # the deformed right coproduct carries the character's sign:
    # γ_R(g) = -g ⊗ g
    rb = kz2_twisted.rb
    lift = rb.coproduct_lift({1: QQ.one})
    assert rb.tensor_space.equal(lift, {1 * 2 + 1: -QQ.one})
    # and the right counit sends g to -1
    assert rb.counit.apply({1: QQ.one}) == {0: -QQ.one}


def test_m2_full_pass(m2):
    rep = verify_hopf(m2)
    assert rep.passed, [c.check_id for c in rep.failures()]


def test_m2_right_counit_is_column_projection(m2):
    rb = m2.rb
    # π_R(e_ij) = d_j
    for i in range(2):
        for j in range(2):
            assert rb.counit.apply({2 * i + j: QQ.one}) == {j: QQ.one}


def test_fixture_stock_passes():
    from algebroids.catalog import all_fixtures
    for fx in all_fixtures():
        rep = verify_hopf(fx["hopf"])
        assert rep.passed, (fx["name"],
                            [c.check_id for c in rep.failures()])


def test_antipode_squared_group_case(kz2_twisted):
    # S(g) = χ(g) g⁻¹ has S² = id
    s = kz2_twisted.S
    assert (s @ s).is_identity()


def test_base_antiiso_solved(kz2, m2):
    for h in (kz2, m2):
        chi = h.chi
        # defining property: s_L ∘ χ = t_R
        assert (h.lb.s.matrix @ chi.matrix).rows == h.rb.t.matrix.rows


def test_sisom_all_identities(m2, kz2_twisted):
    for h in (m2, kz2_twisted):
        rep = verify_sisom(h)
        assert rep.passed, [c.check_id for c in rep.failures()]


def test_luiiv(m2, kz2, kz2_twisted):
    for h in (m2, kz2, kz2_twisted):
        rep = check_luiiv(h.lb, h.S)
        assert rep.passed, [c.check_id for c in rep.failures()]


def test_luiiv_builds_the_candidate_square_once(monkeypatch):
    # the candidate right bialgebroid's balanced square is also the space
    # (luiii) is checked in; with lb's own square already built, one
    # two-factor quotient of A ⊗ A is eliminated per check_luiiv
    h = pair_groupoid_hopf_algebroid(3, QQ)
    assert h.lb.tensor_space.dim == 27
    builds = []
    init = BalancedTensorSpace.__init__

    def counting(self, algebras, junctions):
        if not any(isinstance(a, BalancedTensorSpace) for a in algebras) \
                and len(algebras) == 2:
            builds.append(algebras)
        init(self, algebras, junctions)

    monkeypatch.setattr(BalancedTensorSpace, "__init__", counting)
    rep = check_luiiv(h.lb, h.S)
    assert rep.passed, [c.check_id for c in rep.failures()]
    assert len(builds) == 1


def test_verify_hopf_checks_the_shared_total_once(monkeypatch):
    # both sides live on one total algebra: its algebra checks run once and
    # serve both side reports, each base is checked once
    import algebroids.algebra as algebra_module
    import algebroids.bialgebroid as bialgebroid
    import algebroids.hopfcore as hopfcore
    h = pair_groupoid_hopf_algebroid(2, QQ)
    checked = []
    original = algebra_module.verify_algebra

    def counting(algebra):
        checked.append(algebra)
        return original(algebra)

    for module in (algebra_module, bialgebroid, hopfcore):
        if getattr(module, "verify_algebra", None) is original:
            monkeypatch.setattr(module, "verify_algebra", counting)
    rep = verify_hopf(h)
    assert rep.passed, [c.check_id for c in rep.failures()]
    assert rep.find("lb-total-assoc").ok and rep.find("rb-total-assoc").ok
    assert [id(a) for a in checked] == [
        id(h.total), id(h.lb.base), id(h.rb.base)]


def test_lu_axioms_default_and_explicit_section(m2):
    rep = check_lu_axioms(m2.lb, m2.S)
    assert rep.passed, [c.check_id for c in rep.failures()]
    section = m2.lb.tensor_space.section_matrix()
    rep2 = check_lu_axioms(m2.lb, m2.S, section=section)
    assert rep2.passed


def test_lu_axioms_refuse_a_section_of_the_wrong_shape(m2):
    # M2's tensor square has quotient dimension 8, so a 16 x 7 map is no
    # candidate section
    with pytest.raises(ValueError, match="section matrix must map"):
        check_lu_axioms(m2.lb, m2.S, section=zero_matrix(QQ, 16, 7))


def test_galois_maps(m2, kz2_twisted, ks3):
    for h in (m2, kz2_twisted, ks3):
        rep = verify_galois(h)
        assert rep.passed, [c.check_id for c in rep.failures()]


def test_galois_inverse_formula(kz3):
    # α⁻¹(a ⊗ b) = a^(1) ⊗ S(a^(2)) b reproduces the matrix inverse
    g = GaloisMaps(kz3)
    assert g.alpha.inverse() is not None


def test_op_and_cop_remain_hopf(m2, kz2_twisted):
    for h in (m2, kz2_twisted):
        assert verify_hopf(h.op()).passed
        assert verify_hopf(h.cop()).passed


def test_reconstruct_right_roundtrip(kz2, m2):
    for h in (kz2, m2):
        rebuilt = reconstruct_right(h.lb, h.S)
        rep = verify_hopf(rebuilt)
        assert rep.passed
        # same right counit and coproduct classes as the original
        rb0, rb1 = h.rb, rebuilt.rb
        assert rb0.counit.rows == rb1.counit.rows
        for j in range(rb0.total.dim):
            assert rb0.tensor_space.equal(sparse(rb0.gamma_lift.col(j)),
                                          sparse(rb1.gamma_lift.col(j)))


def test_reconstruct_left_roundtrip(kz2_twisted):
    h = kz2_twisted
    rebuilt = reconstruct_left(h.rb, h.S)
    rep = verify_hopf(rebuilt)
    assert rep.passed
    lb0, lb1 = h.lb, rebuilt.lb
    assert lb0.counit.rows == lb1.counit.rows
    for j in range(lb0.total.dim):
        assert lb0.tensor_space.equal(sparse(lb0.gamma_lift.col(j)),
                                      sparse(lb1.gamma_lift.col(j)))


def test_negated_antipode_fails_exactly_defiv(m2):
    bad = HopfAlgebroid(m2.lb, m2.rb, scaled_matrix(m2.S, -QQ.one),
                        base_antiiso=m2.chi)
    rep = verify_hopf(bad)
    assert {c.check_id for c in rep.failures()} == {"defiv-left",
                                                    "defiv-right"}
    assert rep.find("defiv-left").certificates


def test_antipode_uniqueness(m2):
    rep = antipode_uniqueness(m2, m2)
    assert rep.passed
    bad = HopfAlgebroid(m2.lb, m2.rb, scaled_matrix(m2.S, -QQ.one),
                        base_antiiso=m2.chi)
    rep2 = antipode_uniqueness(m2, bad)
    failed = {c.check_id for c in rep2.failures()}
    assert "antipodes-equal" in failed


def test_uniqueness_requires_same_sides(kz2, kz2_twisted):
    # same left structure, different right structure: the precondition
    # check must flag it rather than claim a contradiction
    rep = antipode_uniqueness(kz2, kz2_twisted)
    failed = {c.check_id for c in rep.failures()}
    assert "same-right-structure" in failed
