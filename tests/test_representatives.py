"""Representative independence: a coproduct is a class in the balanced
tensor square, so which lift of it is stored must not matter.

Adding any combination of relation-span vectors to the stored lift of
either side leaves every verdict and every canonical certificate of
``verify_hopf`` and ``check_lu_axioms`` unchanged, on passing structures
and on corrupted ones alike.
"""

from hypothesis import Phase, given, settings, strategies as st
import pytest

from algebroids.bialgebroid import LeftBialgebroid, RightBialgebroid
from algebroids.catalog import (
    FiniteGroup,
    group_hopf_algebroid,
    pair_groupoid_hopf_algebroid,
)
from algebroids.exactfield import Matrix, RationalField
from algebroids.hopfcore import HopfAlgebroid, check_lu_axioms, verify_hopf
from test_acceptance import _perturb

QQ = RationalField()


def _with_lifts(h, lb_lift, rb_lift, antipode=None):
    """A fresh copy of ``h`` storing the given coproduct lifts."""
    lb, rb = h.lb, h.rb
    S = antipode if antipode is not None else h.S
    return HopfAlgebroid(
        LeftBialgebroid(lb.total, lb.base, lb.s, lb.t, lb_lift, lb.counit,
                        name=lb.name),
        RightBialgebroid(rb.total, rb.base, rb.s, rb.t, rb_lift, rb.counit,
                         name=rb.name),
        S, base_antiiso=h.chi, name=h.name)


def _pair3_bad_antipode():
    h = pair_groupoid_hopf_algebroid(3, QQ)
    return _with_lifts(h, h.lb.gamma_lift, h.rb.gamma_lift,
                       _perturb(h.S, 0, 1, QQ.one))


def _pair3_bad_coproduct():
    h = pair_groupoid_hopf_algebroid(3, QQ)
    return _with_lifts(h, _perturb(h.lb.gamma_lift, 1, 0, QQ.one),
                       _perturb(h.rb.gamma_lift, 5, 3, QQ.one))


CASES = {
    "pair2": lambda: pair_groupoid_hopf_algebroid(2, QQ),
    "pair3": lambda: pair_groupoid_hopf_algebroid(3, QQ),
    "ks3": lambda: group_hopf_algebroid(FiniteGroup.symmetric(3), QQ),
    "pair3-bad-antipode": _pair3_bad_antipode,
    "pair3-bad-coproduct": _pair3_bad_coproduct,
}

_CANONICAL = {}


def _texts(h):
    return (verify_hopf(h).render_text(),
            check_lu_axioms(h.lb, h.S).render_text())


def canonical(name):
    """The structure and its two reports with the lifts as constructed."""
    if name not in _CANONICAL:
        h = CASES[name]()
        _CANONICAL[name] = h, _texts(h)
    return _CANONICAL[name]


def _shifted(bgd, picks):
    """``bgd.gamma_lift`` plus, in each column, the picked multiples of the
    relation span's echelon rows."""
    echelon = bgd.tensor_space.echelon
    relations = [echelon.rows[p] for p in sorted(echelon.rows)]
    if not relations:
        return bgd.gamma_lift
    cols = []
    for j in range(bgd.gamma_lift.ncols):
        col = list(bgd.gamma_lift.col(j))
        for r, c in picks[j % len(picks)]:
            for k, a in relations[r % len(relations)].items():
                col[k] += bgd.field.of(c) * a
        cols.append(col)
    return Matrix.from_cols(bgd.field, cols, bgd.gamma_lift.nrows)


# positive multiples of distinct echelon rows never cancel, so every column
# of the lift really moves when the span is not zero
combinations = st.lists(
    st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from((1, 2, 3))),
             min_size=1, max_size=3),
    min_size=1, max_size=4)


# a failing example is reported as generated: shrinking and explaining it
# would re-run the verifiers hundreds of times
@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=4, deadline=None, derandomize=True,
          phases=[Phase.generate])
@given(lb_picks=combinations, rb_picks=combinations)
def test_reports_do_not_depend_on_the_stored_lift(name, lb_picks, rb_picks):
    h, texts = canonical(name)
    moved = _with_lifts(h, _shifted(h.lb, lb_picks), _shifted(h.rb, rb_picks))
    for old, new in ((h.lb, moved.lb), (h.rb, moved.rb)):
        # kS3 is balanced over k, where the relation span is zero
        assert (new.gamma_lift != old.gamma_lift) == bool(
            old.tensor_space.relation_rank)
    assert _texts(moved) == texts


def test_corrupted_cases_fail_with_certificates():
    for name in ("pair3-bad-antipode", "pair3-bad-coproduct"):
        hopf_text, lu_text = canonical(name)[1]
        assert "counterexample" in hopf_text and "counterexample" in lu_text
