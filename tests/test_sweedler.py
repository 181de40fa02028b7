"""Sweedler's 4-dimensional Hopf algebra H₄: a fixture whose antipode is
not an involution, so S and S⁻¹ differ wherever a construction reads one
of them, and the right-handed paths through A^op meet a noncommutative
total algebra."""

import pytest

from algebroids.exactfield import Matrix, PrimeField, RationalField
from algebroids.catalog import all_fixtures, sweedler_hopf_algebra
from algebroids.hopfcore import reconstruct_left, verify_hopf
from algebroids.integrallab import (
    LEFT,
    RIGHT,
    dual_hopf_algebroid,
    duality_diagram,
    integral_space,
    ls_antipode,
    ls_right,
    nondegeneracy,
)

FIELDS = [RationalField(), PrimeField(7)]


@pytest.fixture(scope="module", params=FIELDS, ids=["QQ", "GF7"])
def h4(request):
    return sweedler_hopf_algebra(request.param)


def element(h, *coeffs):
    """The dense element with the given coefficients of 1, g, x, gx."""
    return tuple(h.field.of(c) for c in coeffs)


def test_h4_is_a_hopf_algebroid_with_a_non_involutive_antipode(h4):
    rep = verify_hopf(h4)
    assert rep.passed, [c.check_id for c in rep.failures()]
    assert h4.S @ h4.S != Matrix.identity(h4.field, 4)
    assert h4.S != h4.S_inv


def test_h4_multiplies_as_sweedler_wrote_it(h4):
    A = h4.total
    one = h4.field.one
    g, x, gx = ({i: one} for i in (1, 2, 3))
    assert A.mul_vec(g, g) == A.unit
    assert A.mul_vec(x, x) == {}
    assert A.mul_vec(x, g) == {3: -one}
    assert A.mul_vec(g, x) == gx
    assert h4.lb.coproduct_lift(x) == {8: one, 6: one}


def test_h4_refuses_a_field_where_minus_one_is_one():
    with pytest.raises(ValueError):
        sweedler_hopf_algebra(PrimeField(2))


def test_h4_stays_out_of_the_standing_catalog():
    assert all(fx["hopf"].total.name != "H4" for fx in all_fixtures())


def test_h4_left_integrals_are_spanned_by_x_plus_gx(h4):
    space = integral_space(h4, LEFT)
    ell = element(h4, 0, 0, 1, 1)
    assert space.dim == 1 and space.contains(ell)
    nd = nondegeneracy(h4, ell)
    assert nd.ok, [c.check_id for c in nd.report.failures()]


def test_h4_ls_antipode_rebuilds_s(h4):
    out = ls_antipode(h4.rb, element(h4, 0, 0, 1, 1))
    assert out.S == h4.S


def test_h4_reconstruct_left_gives_back_the_left_bialgebroid(h4):
    assert reconstruct_left(h4.rb, h4.S).lb.same_structure(h4.lb)


def test_h4_ls_right_rebuilds_s_and_its_inverse(h4):
    upsilon = element(h4, 0, 0, 1, -1)
    assert integral_space(h4, RIGHT).contains(upsilon)
    out = ls_right(h4.lb, upsilon)
    assert out.S == h4.S and out.S_inv == h4.S_inv


def test_h4_duality_square_and_dual_hopf_algebroid(h4):
    nd = nondegeneracy(h4, element(h4, 0, 0, 1, 1))
    rep = duality_diagram(h4, nd)
    assert rep.passed, [c.check_id for c in rep.failures()]
    dual = dual_hopf_algebroid(h4, nd)
    rep = verify_hopf(dual)
    assert rep.passed, [c.check_id for c in rep.failures()]
