"""The report containers: a check fails if and only if it carries a
certificate, a skip is its own verdict, and the text and structured
renderings are pinned."""

import pytest

from algebroids.report import (
    PairNames,
    Report,
    column_certificates,
)


def demo_report():
    rep = Report("demo")
    rep.add("a", "first")
    rep.add("b", "second", ["x = 1", "x = 2", "x = 3"])
    rep.add_skip("c", "third", "not defined")
    rep.add("d", "fourth", note="counted 4")
    return rep


def test_certificates_decide_the_verdict():
    rep = Report("demo")
    rep.add("a", "no certificate")
    rep.add("b", "an empty generator", (c for c in ()))
    assert [c.verdict for c in rep.checks] == ["PASS", "PASS"]
    assert all(c.ok for c in rep.checks) and rep.passed
    assert rep.failures() == []
    rep.add("c", "one certificate", iter(["x"]))
    c = rep.find("c")
    assert (c.verdict, c.ok, c.skipped, c.certificates) == \
        ("FAIL", False, False, ["x"])
    assert not rep.passed and rep.verdict == "FAIL"
    assert rep.failures() == [c]
    assert rep.failure_line() == "c: one certificate"


def test_a_skip_keeps_the_report_passing():
    rep = Report("demo")
    rep.add("a", "first")
    rep.add_skip("b", "second", "not defined")
    b = rep.find("b")
    assert (b.verdict, b.ok, b.skipped, b.certificates, b.note) == \
        ("SKIP", True, True, [], "not defined")
    assert rep.passed and rep.verdict == "PASS"
    assert rep.failures() == []


def test_extend_with_a_prefix_keeps_verdicts_and_certificates():
    inner = demo_report()
    outer = Report("outer")
    outer.add("own", "its own check")
    outer.extend(inner, prefix="in-")
    assert [c.check_id for c in outer.checks] == \
        ["own", "in-a", "in-b", "in-c", "in-d"]
    for mine, theirs in zip(outer.checks[1:], inner.checks):
        assert (mine.label, mine.verdict, mine.certificates, mine.note) == \
            (theirs.label, theirs.verdict, theirs.certificates, theirs.note)
        assert mine.certificates is not theirs.certificates
    assert outer.verdict == "FAIL"
    assert outer.failure_line() == "in-b: second"
    # without a prefix the ids are kept
    assert [c.check_id for c in Report("x").extend(inner).checks] == \
        ["a", "b", "c", "d"]


def test_render_text_is_pinned():
    assert demo_report().render_text(certificate_limit=2) == "\n".join([
        "demo: FAIL",
        "  [PASS] a: first",
        "  [FAIL] b: second",
        "         counterexample: x = 1",
        "         counterexample: x = 2",
        "         ... 1 more",
        "  [SKIP] c: third",
        "         note: not defined",
        "  [PASS] d: fourth",
        "         note: counted 4",
    ])


def test_to_dict_is_pinned():
    assert demo_report().to_dict(certificate_limit=2) == {
        "title": "demo",
        "verdict": "FAIL",
        "checks": [
            {"id": "a", "label": "first", "verdict": "PASS"},
            {"id": "b", "label": "second", "verdict": "FAIL",
             "certificates": ["x = 1", "x = 2"],
             "certificates_truncated": 1},
            {"id": "c", "label": "third", "verdict": "SKIP",
             "note": "not defined"},
            {"id": "d", "label": "fourth", "verdict": "PASS",
             "note": "counted 4"},
        ],
    }
    # within the limit every certificate is shown and nothing is truncated
    assert demo_report().to_dict()["checks"][1] == {
        "id": "b", "label": "second", "verdict": "FAIL",
        "certificates": ["x = 1", "x = 2", "x = 3"]}


@pytest.mark.parametrize("ok", [True, False])
def test_a_verdict_in_place_of_certificates_is_refused(ok):
    with pytest.raises(TypeError):
        Report("demo").add("a", "old style", ok)


def test_a_verdict_with_certificates_is_refused():
    # the old (ok, certificates) call has one positional argument too many
    with pytest.raises(TypeError):
        Report("demo").add("a", "old style", False, ["x = 1"])


def test_pair_names_run_the_second_index_fastest():
    names = PairNames(["e1", "e2"], ["l1", "l2", "l3"], "l")
    assert [names[k] for k in range(6)] == [
        "e1, l = l1", "e1, l = l2", "e1, l = l3",
        "e2, l = l1", "e2, l = l2", "e2, l = l3"]
    # under a template opening with the first letter
    bad = column_certificates(
        [1, 2, 3, 4], [1, 0, 3, 0], PairNames("xy", "uv", "b"), str,
        "a = {}: {} but {}")
    assert bad == ["a = x, b = v: 2 but 0", "a = y, b = v: 4 but 0"]
