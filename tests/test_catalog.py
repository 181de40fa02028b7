"""Group/character machinery and the fixture stock."""

import pytest

from algebroids.exactfield import PrimeField, RationalField
from algebroids.algebra import opposite
from algebroids.catalog import (
    Character,
    FiniteGroup,
    all_fixtures,
    group_algebra,
    group_sum_integral,
    matrix_algebra,
    pair_groupoid_hopf_algebroid,
    pair_groupoid_weak_hopf,
)
from algebroids.hopfcore import verify_hopf

QQ = RationalField()


def test_cyclic_group():
    z4 = FiniteGroup.cyclic(4)
    assert z4.order == 4
    assert z4.identity == 0
    assert z4.mul(3, 2) == 1
    assert z4.inverse(1) == 3


def test_symmetric_group():
    s3 = FiniteGroup.symmetric(3)
    assert s3.order == 6
    assert "id" in s3.names
    # nonabelian
    assert any(s3.mul(a, b) != s3.mul(b, a)
               for a in range(6) for b in range(6))
    # every element times its inverse is the identity
    for g in range(6):
        assert s3.mul(g, s3.inverse(g)) == s3.identity


def test_from_table_validates():
    # a latin square that is not associative
    names = ["a", "b", "c", "d", "e"]
    table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    table[1][1] = 3  # break it
    with pytest.raises(ValueError):
        FiniteGroup(names, table)


def test_character_validation():
    z2 = FiniteGroup.cyclic(2)
    Character(z2, QQ, [QQ.one, -QQ.one])
    with pytest.raises(ValueError):
        Character(z2, QQ, [QQ.one, QQ.of(2)])
    with pytest.raises(ValueError):
        Character(z2, QQ, [QQ.zero, QQ.one])


def test_sign_character():
    s3 = FiniteGroup.symmetric(3)
    sign = Character.sign(s3, QQ)
    # three transpositions have sign -1, identity and two 3-cycles +1
    assert sorted(v == QQ.one for v in sign.values).count(True) == 3
    for g in range(6):
        for h in range(6):
            assert sign(g) * sign(h) == sign(s3.mul(g, h))


def test_cyclic_power_character_gf7():
    z3 = FiniteGroup.cyclic(3)
    F = PrimeField(7)
    chi = Character.cyclic_power(z3, F, F.of(2))
    assert chi.values == (F.one, F.of(2), F.of(4))
    with pytest.raises(ValueError):
        Character.cyclic_power(z3, F, F.of(3))  # 3 is not a cube root of 1


def test_group_algebra_structure():
    s3 = FiniteGroup.symmetric(3)
    A = group_algebra(s3, QQ)
    assert A.dim == 6
    assert opposite(A) != A
    assert A.unit == {s3.identity: QQ.one}


def test_matrix_algebra_is_the_pair_groupoid_total():
    M3 = matrix_algebra(3, QQ)
    assert M3.name == "M3" and M3.basis_names[5] == "e23"
    # e12 e23 = e13
    assert M3.table[1][5] == {2: QQ.one}
    assert M3.unit == {0: QQ.one, 4: QQ.one, 8: QQ.one}
    assert pair_groupoid_hopf_algebroid(3, QQ).total == M3
    assert pair_groupoid_weak_hopf(3, QQ).algebra == M3


def test_all_fixtures_verify():
    for fx in all_fixtures():
        rep = verify_hopf(fx["hopf"])
        assert rep.passed, (fx["name"],
                            [c.check_id for c in rep.failures()])
        assert fx["integral"] is not None


def test_integral_shape(kz3):
    ell = group_sum_integral(kz3)
    assert ell == (QQ.one,) * 3
