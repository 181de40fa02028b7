"""Cross-chirality properties: a right-handed verdict is the left-handed
verdict on the opposite structure, read through one fixed renaming of ids.

The opposite of a right bialgebroid is a left bialgebroid on A^op whose
source is the old target and whose target is the old source, so every law
about s becomes the law about t and vice versa.  Random single-entry
corruptions of the coproduct lift or the counit must therefore fail the
same laws on both sides, and a right-integral candidate of a left
bialgebroid must pass or fail each non-degeneracy check exactly as the
candidate does for the opposite right bialgebroid.
"""

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.bialgebroid import (
    RightBialgebroid,
    verify_left_bialgebroid,
    verify_right_bialgebroid,
)
from algebroids.bimodtensor import BalancedTensorSpace
from algebroids.catalog import (
    all_fixtures,
    pair_groupoid_hopf_algebroid,
    sweedler_hopf_algebra,
)
from algebroids.dualspace import (
    dual_lower_star,
    dual_star_lower,
    dual_star_upper,
    dual_upper_star,
)
from algebroids.exactfield import PrimeField, RationalField
from algebroids.hopfcore import reconstruct_left, verify_hopf
from algebroids.integrallab import (
    duality_diagram,
    ls_right,
    nondegeneracy,
    verify_bgdnd,
    verify_bgdnd_right,
)
from test_acceptance import _perturb

FIXTURES = {fx["name"]: fx["hopf"] for fx in all_fixtures()}
SMALL = sorted(name for name, h in FIXTURES.items() if h.total.dim <= 6)

_SWAPPED = {
    "gamma-s-linear": "gamma-t-linear",
    "pi-s-linear": "pi-t-linear",
    "counit-s": "counit-t",
    "pi-mult-s": "pi-mult-t",
}
_SWAPPED.update({v: k for k, v in _SWAPPED.items()})


def left_id_on_opposite(cid):
    """The id under which the left verifier reports, on the opposite, the
    law a right-verifier check id names."""
    if cid == "erbim":
        return "elbim"
    for a, b in (("src-", "tgt-"), ("tgt-", "src-")):
        if cid.startswith(a):
            return b + cid[len(a):]
    return _SWAPPED.get(cid, cid)


BGDND_ON_OPPOSITE = {
    "bgdnd-ups-l": "bgdnd-ell-r",
    "bgdnd-l-ups": "bgdnd-r-ell",
    "sf": "sb",
    "sb": "sf",
}


def _failing(report):
    return {c.check_id for c in report.failures()}


@st.composite
def corrupted_right(draw):
    rb = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))].rb
    which = draw(st.sampled_from(("gamma_lift", "counit")))
    target = getattr(rb, which)
    i = draw(st.integers(0, target.nrows - 1))
    j = draw(st.integers(0, target.ncols - 1))
    delta = rb.field.of(draw(st.sampled_from((1, -1, 2))))
    parts = {"gamma_lift": rb.gamma_lift, "counit": rb.counit}
    parts[which] = _perturb(target, i, j, delta)
    return RightBialgebroid(rb.total, rb.base, rb.s, rb.t,
                            parts["gamma_lift"], parts["counit"], name="bad")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(corrupted_right())
def test_right_verdicts_are_left_verdicts_on_the_opposite(bad):
    right = _failing(verify_right_bialgebroid(bad))
    left = _failing(verify_left_bialgebroid(bad.op()))
    assert {left_id_on_opposite(c) for c in right} == left


def test_id_renaming_covers_every_right_check():
    rb = FIXTURES["m2-groupoid"].rb
    right = [c.check_id for c in verify_right_bialgebroid(rb).checks]
    left = [c.check_id for c in verify_left_bialgebroid(rb.op()).checks]
    assert sorted(left_id_on_opposite(c) for c in right) == sorted(left)


@st.composite
def right_integral_candidate(draw):
    h = FIXTURES[draw(st.sampled_from(SMALL))]
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=h.total.dim,
                           max_size=h.total.dim))
    return h.lb, tuple(h.field.of(c) for c in coeffs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(right_integral_candidate())
def test_right_integral_checks_match_the_opposite(case):
    lb, upsilon = case
    right = verify_bgdnd_right(lb, upsilon)
    left = {c.check_id: c.verdict
            for c in verify_bgdnd(lb.op(), upsilon).checks}
    assert len(right.checks) == len(left)
    for chk in right.checks:
        assert chk.verdict == left[BGDND_ON_OPPOSITE[chk.check_id]], \
            chk.check_id


def test_reconstruct_left_keeps_the_callers_objects():
    for name in ("kz2-twisted", "m2-groupoid"):
        h = FIXTURES[name]
        built = reconstruct_left(h.rb, h.S)
        assert built.rb is h.rb
        assert built.lb.total is h.rb.total
        assert built.total is h.rb.total


# ---------------------------------------------------------------------------
# a structure derived by an opposite is renamed, never rebuilt

# a builder, a left integral and a right integral of each Hopf algebroid
DERIVED = {
    "pair3": (lambda field: pair_groupoid_hopf_algebroid(3, field),
              (1,) * 9, (1,) * 9),
    "H4": (sweedler_hopf_algebra, (0, 0, 1, 1), (0, 0, 1, -1)),
}
FIELDS = {"QQ": RationalField(), "GF7": PrimeField(7)}


@pytest.fixture(params=[(n, f) for n in DERIVED for f in FIELDS],
                ids=lambda p: f"{p[0]}-{p[1]}")
def derived(request):
    """A fresh Hopf algebroid with a left integral ℓ and a right integral
    Υ of it."""
    name, field = request.param
    build, ell, upsilon = DERIVED[name]
    field = FIELDS[field]
    return (build(field), tuple(map(field.of, ell)),
            tuple(map(field.of, upsilon)))


def test_verify_hopf_of_ls_right_builds_no_space(derived, monkeypatch):
    """``ls_right`` verifies what it builds on the opposite; its result
    reads every quotient from there, so verifying it again builds no
    balanced tensor space."""
    h, _, upsilon = derived
    out = ls_right(h.lb, upsilon)
    built = []
    init = BalancedTensorSpace.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(BalancedTensorSpace, "__init__", counted)
    assert verify_hopf(out).passed
    assert built == []


def test_an_opposite_shares_its_sources_junction(derived):
    h = derived[0]
    for bgd in (h.lb, h.rb):
        op = bgd.op()
        assert op.junction() is bgd.junction()


def test_the_opposite_reads_the_swapped_mixed_triples(derived):
    h = derived[0]
    assert verify_hopf(h).passed
    assert h.op().llr_space is h.rrl_space
    assert h.op().rrl_space is h.llr_space


def _names(bgd):
    """The names of a bialgebroid, its structure maps and its opposite's."""
    op = bgd.op()
    return (bgd.name, bgd.s.name, bgd.t.name, op.name, op.s.name, op.t.name)


def test_constructions_name_what_they_build_and_keep_the_callers_names(
        derived):
    h, ell, upsilon = derived
    before = (_names(h.lb), _names(h.rb))
    built = reconstruct_left(h.rb, h.S)
    assert (built.name, built.lb.name) == (f"{h.rb.name}_hopf",
                                           f"{h.rb.name}_left")
    assert (built.lb.s.name, built.lb.t.name, built.chi.name) == \
        ("s_L", "t_L", "χ")
    built = ls_right(h.lb, upsilon)
    assert (built.name, built.rb.name) == (f"{h.lb.name}_hopf",
                                           f"{h.lb.name}_right")
    assert (built.rb.s.name, built.rb.t.name, built.chi.name) == \
        ("s_R", "t_R", "χ")
    assert duality_diagram(h, nondegeneracy(h, ell)).passed
    assert (_names(h.lb), _names(h.rb)) == before


def test_every_dual_carries_the_requested_name(derived):
    h = derived[0]
    assert dual_lower_star(h.lb, name="D").bgd.name == "D"
    for build, bgd, name in (
            (dual_star_lower, h.lb, f"{h.lb.name}_{{*}}"),
            (dual_upper_star, h.rb, f"{h.rb.name}^*"),
            (dual_star_upper, h.rb, f"^*{h.rb.name}")):
        assert build(bgd).bgd.name == name, build.__name__
