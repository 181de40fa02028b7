"""Command-line interface: exit codes, report formats, emitted documents."""

import argparse
import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from algebroids import cli
from algebroids.cli import emit_report, main
from algebroids.exactfield import Matrix, RationalField
from algebroids.integrallab import PreconditionError
from algebroids.report import Report, column_certificates
from algebroids.specfile import SpecBuilder, parse, spec_from_hopf
from algebroids.bialgebroid import LeftBialgebroid
from algebroids.catalog import (
    pair_groupoid_hopf_algebroid,
    pair_groupoid_weak_hopf,
)
from algebroids.hopfcore import HopfAlgebroid, verify_hopf
from algebroids.twistlab import apply_twist, wha_decide
from dense_reference import scaled_matrix, zero_matrix
from spec_mutations import mutated, spec_mutations

QQ = RationalField()
SPECS = Path(__file__).resolve().parent.parent / "specs"

KZ2 = str(SPECS / "kz2.spec")
KZ2_TWISTED = str(SPECS / "kz2-twisted.spec")
KZ3_RB = str(SPECS / "kz3-rb.spec")
M2 = str(SPECS / "m2-groupoid.spec")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# check


def test_check_hopf_kz2(capsys):
    code, out, _ = run(capsys, "check", "--level", "hopf", KZ2)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_check_hopf_m2(capsys):
    code, out, _ = run(capsys, "check", "--level", "hopf", M2)
    assert code == 0


def test_check_lu_twisted_fails_at_lu3(capsys):
    code, out, _ = run(capsys, "check", "--level", "lu", KZ2_TWISTED)
    assert code == 1
    assert "[FAIL]" in out
    fail_lines = [l for l in out.splitlines() if "[FAIL]" in l]
    assert len(fail_lines) == 1
    assert "lu3" in fail_lines[0]
    assert "-1" in out  # the counterexample certificate


def test_check_lu_untwisted_passes(capsys):
    code, out, _ = run(capsys, "check", "--level", "lu", KZ2)
    assert code == 0


def test_check_lu_reads_the_named_section(capsys, tmp_path, m2):
    # the canonical section of M2's tensor square decides as no section
    # does; the zero map is no section; an unknown name is a usage error
    b = SpecBuilder(QQ)
    b.add_hopf(m2)
    lb_name, = b.data["left_bialgebroids"]
    space = m2.lb.tensor_space
    b.add_section("xi", lb_name, space.section_matrix())
    b.add_section("zero", lb_name,
                  zero_matrix(QQ, space.total_dim, space.dim))
    p = tmp_path / "m2-sections.spec"
    p.write_text(b.emit())
    code, plain, _ = run(capsys, "check", "--level", "lu", str(p))
    assert code == 0
    code, out, _ = run(capsys, "check", "--level", "lu", str(p),
                       "--section", "xi")
    assert code == 0
    assert out == plain
    code, out, _ = run(capsys, "check", "--level", "lu", str(p),
                       "--section", "zero")
    assert code == 1
    assert [l.split(":")[0] for l in out.splitlines() if "[FAIL]" in l] \
        == ["  [FAIL] M2-lu3-section", "  [FAIL] M2-lu3"]
    code, out, err = run(capsys, "check", "--level", "lu", str(p),
                         "--section", "nope")
    assert code == 2
    assert out == ""
    assert err == "error: no section named 'nope'\n"


@pytest.fixture()
def m2_kz2_sections(tmp_path, m2, kz2):
    # M2 and kZ2 in one spec, with M2's canonical section and a 16 × 7 zero
    # map (M2's tensor square has quotient dimension 8) on M2's left side
    b = SpecBuilder(QQ)
    m2_name = b.add_hopf(m2, name="m2")
    b.add_hopf(kz2, name="kz2")
    lb_name = b.data["hopf_algebroids"][m2_name]["left"]
    space = m2.lb.tensor_space
    assert (space.total_dim, space.dim) == (16, 8)
    b.add_section("xi", lb_name, space.section_matrix())
    b.add_section("short", lb_name, zero_matrix(QQ, 16, 7))
    p = tmp_path / "m2-kz2-sections.spec"
    p.write_text(b.emit())
    return str(p), lb_name


def test_check_lu_section_checks_only_its_own_side(capsys, m2_kz2_sections):
    path, _ = m2_kz2_sections
    code, plain, _ = run(capsys, "check", "--level", "lu", path,
                         "--name", "m2")
    assert code == 0
    code, out, err = run(capsys, "check", "--level", "lu", path,
                         "--section", "xi")
    assert (code, err) == (0, "")
    assert out == plain
    assert "] kz2-" not in out and "] m2-lu3:" in out


def test_check_lu_section_refuses_another_side(capsys, m2_kz2_sections):
    path, lb_name = m2_kz2_sections
    code, out, err = run(capsys, "check", "--level", "lu", path,
                         "--section", "xi", "--name", "kz2")
    assert (code, out) == (2, "")
    assert err == (f"error: section 'xi' is declared on {lb_name!r}, which "
                   "is not the left side of 'kz2'\n")


def test_check_lu_section_of_the_wrong_shape_exits_two(capsys,
                                                      m2_kz2_sections):
    path, lb_name = m2_kz2_sections
    code, out, err = run(capsys, "check", "--level", "lu", path,
                         "--section", "short", "--name", "m2")
    assert (code, out) == (2, "")
    assert err == (f"error: section 'short' is 16 x 7, but the tensor "
                   f"square of {lb_name!r} needs 16 x 8\n")


@pytest.mark.parametrize("level,path", [
    ("algebra", KZ2),
    ("left-bialgebroid", KZ2),
    ("right-bialgebroid", KZ2),
    ("right-bialgebroid", KZ3_RB),
    ("hopf", KZ2),
])
def test_check_levels_pass(capsys, level, path):
    code, _, _ = run(capsys, "check", "--level", level, path)
    assert code == 0


def test_check_weak_hopf(capsys, tmp_path):
    b = SpecBuilder(QQ)
    b.add_weak_hopf(pair_groupoid_weak_hopf(2, QQ))
    p = tmp_path / "w.spec"
    p.write_text(b.emit())
    code, out, _ = run(capsys, "check", "--level", "weak-hopf", str(p))
    assert code == 0


def test_check_name_selects_assembly(capsys, tmp_path, kz2, kz3):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    b.add_hopf(kz3)
    p = tmp_path / "two.spec"
    p.write_text(b.emit())
    code, out, _ = run(capsys, "check", "--level", "hopf", str(p),
                       "--name", kz3.name)
    assert code == 0
    assert kz3.name in out and kz2.name not in out
    # without --name, check verifies every assembly in the file
    code, out, _ = run(capsys, "check", "--level", "hopf", str(p))
    assert code == 0
    assert kz2.name in out and kz3.name in out
    # single-assembly commands refuse the ambiguity instead
    code, _, err = run(capsys, "integrals", str(p))
    assert code == 2
    assert kz2.name in err and kz3.name in err


def test_check_field_override(capsys):
    code, _, _ = run(capsys, "check", "--level", "hopf", KZ2,
                     "--field", "gf:7")
    assert code == 0


# ---------------------------------------------------------------------------
# integrals


def test_integrals_m2(capsys):
    code, out, _ = run(capsys, "integrals", M2)
    assert code == 0
    assert "dimension 2" in out
    assert "nd-integral" in out


def test_integrals_flags_non_integral_element(capsys, tmp_path, kz2):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    b.add_element("unit", kz2.total, {0: 1})
    p = tmp_path / "bad.spec"
    p.write_text(b.emit())
    code, out, _ = run(capsys, "integrals", str(p))
    assert code == 1
    assert "member-unit" in out and "[FAIL]" in out


def test_integrals_without_elements_lists_basis(capsys, tmp_path, kz2):
    p = tmp_path / "noelem.spec"
    p.write_text(spec_from_hopf(kz2, name="kz2"))
    code, out, _ = run(capsys, "integrals", str(p))
    assert code == 0
    assert "basis-0" in out and "nondegenerate" in out


# ---------------------------------------------------------------------------
# ls-antipode


def test_ls_antipode_emits_inverse_antipode(capsys, tmp_path):
    out_path = tmp_path / "kz3-hopf.spec"
    code, out, _ = run(capsys, "ls-antipode", KZ3_RB,
                       "--out", str(out_path))
    assert code == 0
    assert "PASS" in out
    spec = parse(str(out_path))
    _, h = spec.hopf(None)
    names = h.total.basis_names
    g, g2 = names.index("g"), names.index("g2")
    assert h.S.col(g)[g2] == QQ.one  # S(g) = g^2
    assert h.S.col(g2)[g] == QQ.one  # S(g^2) = g
    assert verify_hopf(h).passed


def test_ls_antipode_output_reverifies_via_cli(capsys, tmp_path):
    out_path = tmp_path / "out.spec"
    run(capsys, "ls-antipode", KZ3_RB, "--out", str(out_path))
    code, _, _ = run(capsys, "check", "--level", "hopf", str(out_path))
    assert code == 0


def test_ls_antipode_stdout_mode(capsys):
    code, out, err = run(capsys, "ls-antipode", KZ3_RB)
    assert code == 0
    doc = json.loads(out)  # the spec document goes to stdout
    assert doc["format"] == "algebroid-spec/1"
    assert "PASS" in err  # the report goes to stderr


def test_ls_antipode_precondition_failure(capsys, tmp_path, kz2):
    b = SpecBuilder(QQ)
    b.add_bialgebroid(kz2.rb)
    b.add_element("unit", kz2.total, {0: 1})
    p = tmp_path / "bad.spec"
    p.write_text(b.emit())
    code, out, _ = run(capsys, "ls-antipode", str(p), "--integral", "unit")
    assert code == 1
    assert "[FAIL]" in out


def test_ls_antipode_decides_each_report_once(capsys, monkeypatch):
    import algebroids.cli as cli_module
    import algebroids.hopfcore as hopfcore
    import algebroids.integrallab as integrallab

    calls = {"verify_hopf": 0, "_right_bgdnd_data": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, owner in (("verify_hopf", hopfcore),
                        ("_right_bgdnd_data", integrallab)):
        original = getattr(owner, name)
        for module in (cli_module, hopfcore, integrallab):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    code, _, report = run(capsys, "ls-antipode", M2)
    assert code == 0
    assert "[PASS] pre-sf" in report and "[PASS] hopf-defii-lr" in report
    assert calls == {"verify_hopf": 1, "_right_bgdnd_data": 1}


def test_dualize_decides_each_report_once(capsys, monkeypatch):
    import algebroids.cli as cli_module
    import algebroids.dualspace as dualspace
    import algebroids.hopfcore as hopfcore
    import algebroids.integrallab as integrallab

    calls = {"verify_hopf": 0, "dual_lower_star": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, owner in (("verify_hopf", hopfcore),
                        ("dual_lower_star", dualspace)):
        original = getattr(owner, name)
        for module in (cli_module, dualspace, hopfcore, integrallab):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    code, _, report = run(capsys, "dualize", M2)
    assert code == 0
    assert "[PASS] nd-nd-ell-r" in report and "[PASS] dual-defii-lr" in report
    assert calls == {"verify_hopf": 1, "dual_lower_star": 1}


# ---------------------------------------------------------------------------
# twist


@pytest.fixture()
def twist_pair(tmp_path, kz2):
    g = Matrix.from_rows(QQ, [[QQ.one, -QQ.one]])
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    twisted = apply_twist(kz2.lb, kz2.S, g)
    twisted.name = "kz2-signed"
    b.add_hopf(twisted)
    lb_name = next(iter(b.data["left_bialgebroids"]))
    b.add_functional("sign", lb_name, g)
    p = tmp_path / "pair.spec"
    p.write_text(b.emit())
    return str(p), kz2.name


def test_twist_verify(capsys, twist_pair):
    path, name = twist_pair
    code, out, _ = run(capsys, "twist", "verify", path,
                       "--name", name, "--functional", "sign")
    assert code == 0
    assert "tw1" in out and "tw2" in out and "tw3" in out


def test_twist_apply_and_reverify(capsys, twist_pair, tmp_path):
    path, name = twist_pair
    out_path = tmp_path / "applied.spec"
    code, out, _ = run(capsys, "twist", "apply", path,
                       "--name", name, "--functional", "sign",
                       "--out", str(out_path))
    assert code == 0
    code, _, _ = run(capsys, "check", "--level", "hopf", str(out_path))
    assert code == 0


def test_twist_recover(capsys, twist_pair):
    path, _ = twist_pair
    code, out, err = run(capsys, "twist", "recover", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["functionals"]["recovered-twist"]["matrix"] == [["1", "-1"]]
    assert "recover-roundtrip" in err


def test_twist_recover_compares_coproducts_in_the_quotient(capsys, tmp_path):
    # the pair groupoid twice, the second storing γ(e11) = e11⊗e11 + e21⊗e11:
    # e21⊗e11 = e21⊗s(d1)e11 - t(d1)e21⊗e11 is a relation of the balanced
    # square, so both assemblies share one left bialgebroid
    h = pair_groupoid_hopf_algebroid(2, QQ)
    lb = h.lb
    cols = [dict(col) for col in lb.gamma_lift.cols]
    cols[0][2 * 4 + 0] = QQ.one
    shifted = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t,
                              Matrix.from_sparse_cols(QQ, cols, 16),
                              lb.counit, name="M2_L-shifted")
    h2 = HopfAlgebroid(shifted, h.rb, h.S, h.S_inv, base_antiiso=h.chi,
                       name="M2-shifted")
    assert verify_hopf(h2).passed
    b = SpecBuilder(QQ)
    b.add_hopf(h)
    b.add_hopf(h2)
    p = tmp_path / "pair.spec"
    p.write_text(b.emit())
    code, out, err = run(capsys, "twist", "recover", str(p))
    assert code == 0, err
    assert "left structures differ" not in err
    # π_L, the unit of the lower-star dual: the antipodes agree
    doc = json.loads(out)
    assert doc["functionals"]["recovered-twist"]["matrix"] == [
        ["1", "1", "0", "0"], ["0", "0", "1", "1"]]


def test_twist_recover_lists_where_the_antipodes_differ(capsys, tmp_path,
                                                       kz2):
    # the second assembly swaps 1 and g: g = π_L∘S⁻¹∘S′ = π_L is the unit
    # of the lower-star dual, so S_g = S, and both basis elements are
    # counterexamples to the roundtrip; a failed report emits no spec, so
    # the report goes to stdout and nothing else is written
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]], 2)
    b = SpecBuilder(QQ)
    b.add_hopf(kz2, name="kz2")
    b.add_hopf(HopfAlgebroid(kz2.lb, kz2.rb, swap), name="swapped")
    p = tmp_path / "swapped.spec"
    p.write_text(b.emit())
    code, out, err = run(capsys, "twist", "recover", str(p))
    assert code == 1 and err == ""
    lines = out.splitlines()
    at = lines.index("  [FAIL] recover-roundtrip: S twisted by g equals the "
                     "second antipode")
    assert lines[at + 1:] == [
        "         counterexample: a = 1: S_g(a) = 1 but S'(a) = g",
        "         counterexample: a = g: S_g(a) = g but S'(a) = 1"]
    assert "recovered-twist" not in out
    target = tmp_path / "recovered.spec"
    code, again, _ = run(capsys, "twist", "recover", str(p),
                         "--out", str(target))
    assert code == 1 and again == out
    assert not target.exists()


# where the spec path goes in a parametrized argv
SPEC = object()


@pytest.fixture()
def kz2_and_kz3(tmp_path, kz2, kz3):
    # two assemblies on different left bialgebroids, the unit of kZ₂ (no
    # left integral), twice the counit of kZ₂ (no twist: g∘s_L = 2 is no
    # base automorphism) and a functional declared on kZ₃'s left side
    b = SpecBuilder(QQ)
    b.add_hopf(kz2, name="kz2")
    b.add_hopf(kz3, name="kz3")
    b.add_element("unit", kz2.total, {0: 1})
    lb2, lb3 = b.data["left_bialgebroids"]
    b.add_functional("double", lb2, scaled_matrix(kz2.lb.counit, QQ.of(2)))
    b.add_functional("foreign", lb3, kz3.lb.counit)
    p = tmp_path / "kz2-kz3.spec"
    p.write_text(b.emit())
    return str(p)


@pytest.mark.parametrize("argv, code, shown", [
    (["twist", "verify", SPEC, "--name", "kz2", "--functional", "foreign"], 2,
     "functional 'foreign' is declared on"),
    (["twist", "apply", SPEC, "--name", "kz2", "--functional", "double"], 1,
     "[FAIL] twist-twist-base-auto"),
    (["twist", "recover", SPEC, "--name", "kz2", "--second", "kz5"], 2,
     "unknown Hopf assembly among 'kz2', 'kz5'"),
    (["twist", "recover", SPEC, "--name", "kz2", "--second", "kz3"], 1,
     "[FAIL] recover-shared-left"),
    (["diagram", SPEC, "--name", "kz2", "--integral", "unit"], 1,
     "[FAIL] diagram-integral"),
])
def test_twist_and_integral_commands_refuse_unfit_input(
        capsys, kz2_and_kz3, argv, code, shown):
    got, out, err = run(capsys, *(kz2_and_kz3 if a is SPEC else a
                                  for a in argv))
    assert got == code, err
    assert shown in out + err


def test_twist_recover_needs_two(capsys, tmp_path, kz2):
    p = tmp_path / "one.spec"
    p.write_text(spec_from_hopf(kz2, name="solo"))
    code, _, err = run(capsys, "twist", "recover", str(p))
    assert code == 2
    assert "two" in err


# ---------------------------------------------------------------------------
# dualize / wha-decide / diagram


def test_dualize_kz2(capsys, tmp_path):
    out_path = tmp_path / "dual.spec"
    code, out, _ = run(capsys, "dualize", KZ2, "--out", str(out_path))
    assert code == 0
    spec = parse(str(out_path))
    _, hd = spec.hopf(None)
    assert verify_hopf(hd).passed
    name, coords = spec.element_for(hd.total, "kappa")
    assert name == "kappa"


def test_dualize_degenerate_integral(capsys, tmp_path, m2):
    b = SpecBuilder(QQ)
    b.add_hopf(m2)
    b.add_element("partial", m2.total, {0: 1, 2: 1})  # rank-deficient
    p = tmp_path / "m2.spec"
    p.write_text(b.emit())
    code, out, _ = run(capsys, "dualize", str(p), "--integral", "partial")
    assert code == 1
    assert "dualize-nondegenerate" in out


def test_wha_decide_kz2(capsys):
    code, out, _ = run(capsys, "wha-decide", KZ2)
    assert code == 0
    assert "decision: exact" in out


def test_wha_decide_not_weak_hopf_names_the_failing_check(capsys, tmp_path):
    # a singular antipode, its inverse given explicitly: ψ∘π_L∘S = (1, 0)
    # is no unit of the dual convolution algebra k × k
    doc = json.loads(Path(KZ2).read_text(encoding="utf-8"))
    doc["hopf_algebroids"]["kz2"]["antipode"] = [["1", "0"], ["0", "0"]]
    p = tmp_path / "singular.spec"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "wha-decide", str(p))
    assert code == 1
    assert out.splitlines()[1:3] == [
        "  [FAIL] wha-verdict: decision: not-weak-hopf",
        "         counterexample: decide-invertible: ψ∘π_L∘S is invertible "
        "in Â"]


def test_wha_decide_rescaled_base_decides_like_kz2(capsys, tmp_path):
    # kZ2 over k' = <u>, u² = 2u, s(u) = 2·1, counits halved: the base is
    # not split diagonal in its basis, and its trace form still gives
    # δ(u) = ½ u⊗u, ψ(u) = 2
    doc = json.loads(Path(KZ2).read_text(encoding="utf-8"))
    doc["algebras"]["k"].update(struct=[[0, 0, 0, "2"]], unit=["1/2"])
    for amap in doc["maps"].values():
        amap["matrix"] = [["2"], ["0"]]
    for table in ("left_bialgebroids", "right_bialgebroids"):
        for bgd in doc[table].values():
            bgd["counit"] = [["1/2", "1/2"]]
    p = tmp_path / "rescaled.spec"
    p.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "check", "--level", "hopf", str(p))
    assert code == 0
    code, out, _ = run(capsys, "wha-decide", str(p))
    assert code == 0
    assert "decision: exact" in out
    assert "FAIL" not in out


def test_wha_decide_degenerate_trace_form_is_a_usage_error(capsys,
                                                         tmp_path):
    # kZ2 over k[x]/x², whose trace form vanishes at x: no separability
    # structure to decide over
    doc = json.loads(Path(KZ2).read_text(encoding="utf-8"))
    doc["algebras"]["k"] = {
        "basis": ["1", "x"], "dim": 2, "unit": ["1", "0"],
        "struct": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]}
    for amap in doc["maps"].values():
        amap["matrix"] = [["1", "0"], ["0", "0"]]
    for table in ("left_bialgebroids", "right_bialgebroids"):
        for bgd in doc[table].values():
            bgd["counit"] = [["1", "1"], ["0", "0"]]
    p = tmp_path / "dual-numbers.spec"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "wha-decide", str(p))
    assert code == 2
    assert out == ""
    assert err == "error: the base k has a degenerate trace form\n"
    _, h = parse(str(p)).hopf(None)
    with pytest.raises(ValueError, match="degenerate trace form"):
        wha_decide(h)


def test_diagram_kz2(capsys):
    code, out, _ = run(capsys, "diagram", KZ2)
    assert code == 0
    assert "diagram-commutes" in out


# ---------------------------------------------------------------------------
# report formats and determinism


def test_structured_report(capsys):
    code, out, _ = run(capsys, "check", "--level", "hopf", KZ2,
                       "--report", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "algebroid-report/1"
    assert doc["verdict"] == "PASS"
    assert all(c["verdict"] in ("PASS", "FAIL", "SKIP") for c in doc["checks"])


def test_structured_output_is_byte_stable(capsys):
    _, one, _ = run(capsys, "check", "--level", "lu", KZ2_TWISTED,
                    "--report", "structured")
    _, two, _ = run(capsys, "check", "--level", "lu", KZ2_TWISTED,
                    "--report", "structured")
    assert one == two
    doc = json.loads(one)
    assert doc["verdict"] == "FAIL"


def test_text_output_is_byte_stable(capsys):
    _, one, _ = run(capsys, "check", "--level", "hopf", M2)
    _, two, _ = run(capsys, "check", "--level", "hopf", M2)
    assert one == two


def test_certificate_limit(capsys, tmp_path, m2):
    b = SpecBuilder(QQ)
    b.add_hopf(m2)
    b.add_element("partial", m2.total, {0: 1, 2: 1})
    p = tmp_path / "m2.spec"
    p.write_text(b.emit())
    _, out, _ = run(capsys, "integrals", str(p),
                    "--report", "structured", "--certificate-limit", "1")
    doc = json.loads(out)
    for check in doc["checks"]:
        if check["verdict"] == "FAIL":
            assert len(check["certificates"]) <= 1


@pytest.mark.parametrize("limit", [0, 1, 5])
def test_certificate_truncation_counts_agree(capsys, limit):
    # the structured count of dropped certificates is the text's "... N more"
    args = ("check", "--level", "lu", KZ2_TWISTED,
            "--certificate-limit", str(limit))
    code, text, _ = run(capsys, *args)
    assert code == 1
    _, out, _ = run(capsys, *args, "--report", "structured")
    failing = [c for c in json.loads(out)["checks"] if c["verdict"] == "FAIL"]
    assert failing
    for check in failing:
        assert len(check["certificates"]) <= limit
        dropped = check.get("certificates_truncated", 0)
        assert dropped == (1 if limit == 0 else 0)
        more = f"... {dropped} more" in text
        assert more == bool(dropped)


@pytest.mark.parametrize("value", ["-1", "-5", "x"])
def test_negative_certificate_limit_is_a_usage_error(capsys, value):
    code, out, err = run(capsys, "check", "--level", "lu", KZ2_TWISTED,
                         "--certificate-limit", value,
                         "--report", "structured")
    assert code == 2
    assert out == ""
    assert "error:" in err and "--certificate-limit" in err


def test_emit_report_matches_to_dict():
    rep = Report("demo")
    rep.add("a", "first")
    rep.add("b", "second", ["bad"])
    doc = json.loads(emit_report(rep, "structured"))
    assert doc["schema"] == "algebroid-report/1"
    assert [c["id"] for c in doc["checks"]] == ["a", "b"]
    text = emit_report(rep, "text")
    assert "demo: FAIL" in text


def test_column_certificates_compare_classes_in_a_quotient(m2):
    # in A ⊗_L A for M2 over k², e11⊗e21 is balanced to zero, so e11⊗e11
    # and e11⊗e11 + e11⊗e21 are two representatives of one class
    space = m2.lb.tensor_space
    one = QQ.one
    e11e11, also_e11e11 = {0: one}, {0: one, 2: one}
    e12e12 = {5: one, 2: one}
    template = "a = {}: {} but {}"

    def columns(*vectors):
        return (v for v in vectors)

    # the default comparison tells the two representatives apart
    assert column_certificates(
        columns(e11e11), columns(also_e11e11), ["x"], space.fmt,
        template) == ["a = x: e11⊗e11 but e11⊗e11"]
    assert column_certificates(
        columns(e11e11), columns(also_e11e11), ["x"], space.fmt, template,
        space.equal) == []
    # a certificate writes both classes by their normal forms
    assert column_certificates(
        columns(e11e11, e11e11), columns(also_e11e11, e12e12), ["x", "y"],
        space.fmt, template, space.equal) == ["a = y: e11⊗e11 but e12⊗e12"]


def test_failed_construction_exits_one(capsys, monkeypatch):
    # a failed construction precondition is a verdict on the input, not a
    # traceback; other arithmetic errors are faults and still propagate
    def refuse(*args, **kwargs):
        raise PreconditionError("~S is not bijective")

    monkeypatch.setattr(cli, "dual_hopf_algebroid", refuse)
    code, out, err = run(capsys, "dualize", M2)
    assert code == 1
    assert out == ""
    assert err == "error: ~S is not bijective\n"

    def divide(*args, **kwargs):
        raise ZeroDivisionError("division by zero in GF(7)")

    monkeypatch.setattr(cli, "dual_hopf_algebroid", divide)
    with pytest.raises(ZeroDivisionError):
        cli.main(["dualize", M2])


def test_ls_antipode_reports_only_a_refused_precondition(capsys,
                                                         monkeypatch):
    # a ValueError without a precondition report is an error, not a verdict
    def broken(*args, **kwargs):
        raise ValueError("the integral has the wrong length")

    monkeypatch.setattr(cli, "ls_antipode", broken)
    code, out, err = run(capsys, "ls-antipode", M2)
    assert (code, out) == (1, "")
    assert err == "error: the integral has the wrong length\n"


# ---------------------------------------------------------------------------
# usage and parse errors exit 2


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate", "x.spec")[0] == 2


def test_missing_level(capsys):
    assert run(capsys, "check", KZ2)[0] == 2


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "--level", "hopf", "/no/such.spec")
    assert code == 2
    assert "error:" in err


def test_bad_field_value(capsys):
    code, _, err = run(capsys, "check", "--level", "hopf", KZ2,
                       "--field", "gf:4")
    assert code == 2
    assert "prime" in err


def test_syntax_error_location(capsys, tmp_path):
    p = tmp_path / "broken.spec"
    p.write_text('{\n  "format": nope\n}')
    code, _, err = run(capsys, "check", "--level", "hopf", str(p))
    assert code == 2
    assert "line 2" in err


def test_a_node_of_the_wrong_type_exits_two(capsys, tmp_path):
    data = json.loads(Path(KZ2).read_text())
    data["left_bialgebroids"]["k[Z2]_L"]["total"] = ["x"]
    p = tmp_path / "typed.spec"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--level", "hopf", str(p))
    assert code == 2 and out == ""
    assert err == ("error: left_bialgebroids.k[Z2]_L.total: unresolved "
                   "algebra reference ['x']\n")


@pytest.mark.parametrize("keys, message", [
    (("k", "unit", 0),
     "algebras.k.unit[0]: bad scalar True (cannot coerce True into QQ)"),
    (("k[Z2]", "struct", 0, 0),
     "algebras.k[Z2].struct[0]: index i=True out of range 0..1"),
], ids=["scalar", "struct-index"])
def test_a_json_boolean_exits_two(capsys, tmp_path, keys, message):
    # true is no scalar and no index, though Python's bool is an int
    data = json.loads(Path(KZ2).read_text())
    *path, last = keys
    node = data["algebras"]
    for key in path:
        node = node[key]
    node[last] = True
    p = tmp_path / "boolean.spec"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--level", "hopf", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_module_runs_as_a_script(capsys, monkeypatch):
    # ``python -m algebroids.cli`` exits with the status ``main`` returns
    # and prints its report; runpy warns that the package already imported
    # the module
    argv = ["check", "--level", "hopf", KZ2]
    _, plain, _ = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["algebroids.cli", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("algebroids.cli", run_name="__main__")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == plain and "PASS" in out and "FAIL" not in out


CHEAP_COMMANDS = (("check", "--level", "algebra"),
                  ("check", "--level", "left-bialgebroid"),
                  ("check", "--level", "right-bialgebroid"),
                  ("check", "--level", "hopf"),
                  ("check", "--level", "lu"),
                  ("integrals",),
                  ("wha-decide",))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mutation=spec_mutations(), command=st.sampled_from(CHEAP_COMMANDS))
def test_a_mutated_node_exits_zero_one_or_two(tmp_path_factory, mutation,
                                              command):
    """A bundled spec with one node set to a value of another JSON type, or
    deleted, through a cheap command: the CLI exits 0, 1 or 2 and prints
    no traceback, so no exception escapes ``main``."""
    p = tmp_path_factory.getbasetemp() / "mutated.spec"
    p.write_text(json.dumps(mutated(*mutation)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, str(p)])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_level_without_structures(capsys, tmp_path):
    p = tmp_path / "empty.spec"
    p.write_text(json.dumps({"format": "algebroid-spec/1",
                             "field": "rational"}))
    code, _, err = run(capsys, "check", "--level", "hopf", str(p))
    assert code == 2
    assert "declares no" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


COMMANDS = ("check", "integrals", "ls-antipode", "twist", "dualize",
            "wha-decide", "diagram")
USAGE_CASES = (
    *((command, flag) for command in COMMANDS for flag in ("--help",
                                                           "--bogus")),
    *((command,) for command in COMMANDS),
    ("--help",), ("-h",), (), ("-x",), ("frobnicate", KZ2),
    ("check", KZ2),
    ("check", "--level", "hopeful", KZ2),
    ("check", "--level", "hopf", KZ2, "--report", "yaml"),
    ("twist", "twirl", KZ2),
    ("check", "--level", "hopf", KZ2, "--certificate-limit", "-1"),
    # an error printed under the top-level usage line, which spells every
    # command however many subparsers were built
    ("check", "--level", "hopf", KZ2, "--frobnicate"),
    ("check", "--level", "hopf", KZ2, "extra"),
    ("check", "--level", "hopf", KZ2, "--rep", "structured"),
)


@pytest.mark.parametrize("columns", ["60", "100", "200"])
def test_the_one_command_parser_prints_what_the_full_one_does(
        capsys, monkeypatch, columns):
    """``main`` builds the parser of the command it runs only; exit code,
    stdout and stderr are those of the parser with every command, at any
    terminal width argparse wraps to."""
    monkeypatch.setenv("COLUMNS", columns)
    one = [run(capsys, *argv) for argv in USAGE_CASES]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    for argv, got in zip(USAGE_CASES, one):
        assert got == run(capsys, *argv), argv


def test_a_missing_or_unknown_command_is_named_command(capsys):
    # the full parser leaves the brace list of commands to its usage line
    _, _, err = run(capsys)
    assert err.endswith(
        "error: the following arguments are required: command\n")
    _, _, err = run(capsys, "frobnicate", KZ2)
    assert "error: argument command: invalid choice: 'frobnicate'" in err


def test_each_call_builds_its_own_command_parser_only(capsys, monkeypatch):
    # every call builds its parser anew, so two runs build one each; help
    # and a missing or unknown command build them all
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    check = ("check", KZ2, "--level", "algebra")
    for argv, names in ((check, ["check"]), (check, ["check"]),
                        (("--help",), list(COMMANDS)),
                        (("frobnicate",), list(COMMANDS)),
                        ((), list(COMMANDS))):
        built.clear()
        run(capsys, *argv)
        assert built == names, argv


# ---------------------------------------------------------------------------
# bundled fixtures stay canonical


@pytest.mark.parametrize("path", [KZ2, KZ2_TWISTED, KZ3_RB, M2])
def test_bundled_specs_parse_and_reemit(path):
    spec = parse(path)
    text = Path(path).read_text()
    doc = json.loads(text)
    assert doc["format"] == "algebroid-spec/1"
    assert text.endswith("\n")
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


def test_bundled_twisted_spec_verifies_as_hopf(capsys):
    code, _, _ = run(capsys, "check", "--level", "hopf", KZ2_TWISTED)
    assert code == 0
