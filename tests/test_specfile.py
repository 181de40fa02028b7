"""Spec-file layer: parsing, validation errors, emission, round trips."""

import copy
import gc
import json
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings

from algebroids.algebra import Algebra
from algebroids.exactfield import GFElement, Matrix, PrimeField, RationalField
from algebroids.bialgebroid import (
    verify_left_bialgebroid,
    verify_right_bialgebroid,
)
from algebroids.catalog import (
    FiniteGroup,
    group_algebra,
    group_hopf_algebroid,
    pair_groupoid_weak_hopf,
)
from algebroids.hopfcore import verify_hopf
from algebroids.specfile import (
    FORMAT,
    SpecBuilder,
    SpecError,
    SpecFile,
    parse,
    parse_data,
    parse_field,
    parse_text,
    spec_from_hopf,
)
from algebroids.twistlab import verify_weak_hopf
from spec_mutations import BUNDLED, DELETE, mutated, spec_mutations

QQ = RationalField()


# ---------------------------------------------------------------------------
# fields


def test_parse_field_rational():
    f = parse_field("rational")
    assert f.name == "rational"
    assert f.of("1/2") + f.of("1/2") == f.one


def test_parse_field_prime():
    f = parse_field("gf:7")
    assert f.name == "gf:7"
    assert f.p == 7


@pytest.mark.parametrize("bad", ["gf:4", "gf:abc", "gf:", "real", "", "GF:7"])
def test_parse_field_rejects(bad):
    with pytest.raises(SpecError):
        parse_field(bad)


# ---------------------------------------------------------------------------
# round trips through emit -> parse


def test_hopf_round_trip_verifies(kz2):
    text = spec_from_hopf(kz2, name="kz2", integral={0: 1, 1: 1})
    spec = parse_text(text, "kz2.spec")
    nm, h = spec.hopf(None)
    assert nm == "kz2"
    assert verify_hopf(h).passed
    assert h.S == kz2.S
    assert h.lb.gamma_lift == kz2.lb.gamma_lift
    assert h.rb.counit == kz2.rb.counit


def test_emit_is_byte_stable(kz2):
    one = spec_from_hopf(kz2, name="kz2", integral={0: 1, 1: 1})
    two = spec_from_hopf(kz2, name="kz2", integral={0: 1, 1: 1})
    assert one == two
    spec = parse_text(one, "kz2.spec")
    _, h = spec.hopf(None)
    again = spec_from_hopf(h, name="kz2", integral={0: 1, 1: 1})
    assert again == one


def test_round_trip_preserves_element(kz3):
    text = spec_from_hopf(kz3, name="kz3", integral={0: 1, 1: 1, 2: 1},
                          integral_name="ell")
    spec = parse_text(text, "kz3.spec")
    name, coords = spec.element_for(spec.hopf(None)[1].total, "ell")
    assert name == "ell"
    assert coords == (QQ.one,) * 3


def test_right_bialgebroid_round_trip(kz3):
    b = SpecBuilder(QQ)
    b.add_bialgebroid(kz3.rb)
    b.add_element("integral", kz3.total, {0: 1, 1: 1, 2: 1})
    spec = parse_text(b.emit(), "kz3-rb.spec")
    nm, rb = spec.right_bialgebroid(None)
    assert verify_right_bialgebroid(rb).passed
    assert rb.gamma_lift == kz3.rb.gamma_lift


def test_the_unit_is_written_densely():
    # the sparse unit 3*c is written at its index, with zeros before it
    A = Algebra.from_struct(QQ, ["a", "b", "c"], {}, unit={2: QQ.of(3)},
                            name="A")
    b = SpecBuilder(QQ)
    b.add_algebra(A)
    assert json.loads(b.emit())["algebras"]["A"]["unit"] == ["0", "0", "3"]


def test_elements_are_written_densely(kz2):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    b.add_element("ell", kz2.total, {1: QQ.of(5)})
    data = json.loads(b.emit())
    assert data["elements"]["ell"]["coords"] == ["0", "5"]
    spec = parse_text(b.emit(), "x.spec")
    _, h = spec.hopf(None)
    assert spec.element_for(h.total, "ell")[1] == (QQ.zero, QQ.of(5))
    # a dense tuple or an index past the basis is not such an element
    for bad in ((0, 5), {2: QQ.one}):
        with pytest.raises(ValueError, match="an element of k\\[Z2\\]"):
            b.add_element("bad", kz2.total, bad)


def test_left_bialgebroid_round_trip(m2):
    b = SpecBuilder(QQ)
    b.add_bialgebroid(m2.lb)
    spec = parse_text(b.emit(), "m2-lb.spec")
    [(_, lb)] = spec.select(spec.left_bialgebroids, "left_bialgebroid",
                            None)
    assert verify_left_bialgebroid(lb).passed
    assert lb.s.matrix == m2.lb.s.matrix
    assert lb.t.matrix == m2.lb.t.matrix


def test_weak_hopf_round_trip(qq):
    w = pair_groupoid_weak_hopf(2, qq)
    b = SpecBuilder(qq)
    b.add_weak_hopf(w)
    spec = parse_text(b.emit(), "w.spec")
    [(nm, w2)] = spec.select(spec.weak_hopf, "weak_hopf", None)
    assert verify_weak_hopf(w2).passed
    assert w2.delta == w.delta
    assert w2.antipode == w.antipode


def test_prime_field_round_trip(gf7):
    z2 = FiniteGroup.cyclic(2)
    h = group_hopf_algebroid(z2, gf7)
    text = spec_from_hopf(h, name="kz2-gf7")
    assert '"field": "gf:7"' in text
    spec = parse_text(text, "kz2-gf7.spec")
    assert spec.field.name == "gf:7"
    assert verify_hopf(spec.hopf(None)[1]).passed


def test_field_override(kz2):
    text = spec_from_hopf(kz2, name="kz2")
    spec = parse_text(text, "kz2.spec", field=PrimeField(5))
    _, h = spec.hopf(None)
    assert h.field.name == "gf:5"
    assert verify_hopf(h).passed


def test_functional_and_section_round_trip(kz2):
    g = Matrix.from_rows(QQ, [[QQ.one, -QQ.one]])
    b = SpecBuilder(QQ)
    lb_name = b.add_bialgebroid(kz2.lb)
    b.add_functional("sign", lb_name, g)
    xi = Matrix.from_rows(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.one]])
    b.add_section("xi", lb_name, xi)
    spec = parse_text(b.emit(), "f.spec")
    fname, ref, mat = spec.functional_for("sign")
    assert fname == "sign" and ref == lb_name and mat == g
    sname, smat = spec.sections["xi"]
    assert smat == xi


# ---------------------------------------------------------------------------
# builder behavior


def test_builder_dedupes_by_identity(kz2):
    b = SpecBuilder(QQ)
    first = b.add_algebra(kz2.total)
    second = b.add_algebra(kz2.total)
    assert first == second
    assert len(b.data["algebras"]) >= 1


def test_builder_freshens_name_collisions(qq):
    z2 = FiniteGroup.cyclic(2)
    a1 = group_algebra(z2, qq)
    a2 = group_algebra(z2, qq)
    b = SpecBuilder(qq)
    n1 = b.add_algebra(a1)
    n2 = b.add_algebra(a2)
    assert n1 == "k[Z2]" and n2 == "k[Z2].2"


def test_builder_keeps_what_it_names(qq):
    # a named algebra stays alive with the builder, so no later object
    # can take its id and be emitted under its name
    b = SpecBuilder(qq)
    algebra = group_algebra(FiniteGroup.cyclic(2), qq)
    b.add_algebra(algebra)
    alive = weakref.ref(algebra)
    del algebra
    gc.collect()
    assert alive() is not None


def test_builder_emits_a_parsable_spec_after_a_temporary():
    # the weak Hopf algebra is a temporary: its M2 is freed once added,
    # and the left bialgebroid's algebras and maps are built after it
    z2 = FiniteGroup.cyclic(2)
    for _ in range(50):
        b = SpecBuilder(QQ)
        b.add_weak_hopf(pair_groupoid_weak_hopf(2, QQ))
        b.add_bialgebroid(group_hopf_algebroid(z2, QQ).lb)
        parse_text(b.emit())


def test_builder_shares_structure_between_assemblies(kz2):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    b.add_bialgebroid(kz2.lb)
    data = json.loads(b.emit())
    assert list(data["hopf_algebroids"])
    # the total algebra appears exactly once
    names = [n for n in data["algebras"] if n == kz2.total.name]
    assert len(names) == 1


# ---------------------------------------------------------------------------
# validation errors carry locations


def _base(extra=None):
    data = {"format": FORMAT, "field": "rational"}
    if extra:
        data.update(extra)
    return json.dumps(data)


def test_missing_format():
    with pytest.raises(SpecError, match="format"):
        parse_text('{"field": "rational"}', "x.spec")


def test_wrong_format_version():
    with pytest.raises(SpecError, match="format"):
        parse_text('{"format": "algebroid-spec/2", "field": "rational"}',
                   "x.spec")


def test_json_syntax_error_has_line_and_column():
    with pytest.raises(SpecError) as err:
        parse_text('{\n  "format": oops\n}', "x.spec")
    msg = str(err.value)
    assert "line 2" in msg and "column" in msg


def test_non_object_document():
    with pytest.raises(SpecError, match="object"):
        parse_text('[1, 2]', "x.spec")


def test_struct_index_out_of_range():
    text = _base({"algebras": {"A": {
        "basis": ["x"], "struct": [[0, 0, 5, "1"]], "unit": ["1"]}}})
    with pytest.raises(SpecError, match=r"algebras\.A\.struct\[0\]"):
        parse_text(text, "x.spec")


def test_bad_scalar_reported_with_path():
    text = _base({"algebras": {"A": {
        "basis": ["x"], "struct": [[0, 0, 0, "1/0"]], "unit": ["1"]}}})
    with pytest.raises(SpecError, match="1/0"):
        parse_text(text, "x.spec")


def test_dim_mismatch():
    text = _base({"algebras": {"A": {
        "basis": ["x"], "dim": 2, "struct": [[0, 0, 0, "1"]]}}})
    with pytest.raises(SpecError, match="dim"):
        parse_text(text, "x.spec")


def test_unit_wrong_length():
    text = _base({"algebras": {"A": {
        "basis": ["x"], "struct": [[0, 0, 0, "1"]], "unit": ["1", "0"]}}})
    with pytest.raises(SpecError, match=r"algebras\.A\.unit"):
        parse_text(text, "x.spec")


def test_no_unit_solvable():
    text = _base({"algebras": {"A": {
        "basis": ["x"], "struct": [], "unit": None}}})
    with pytest.raises(SpecError, match="unit"):
        parse_text(text, "x.spec")


def test_map_with_unknown_algebra():
    text = _base({"maps": {"f": {
        "domain": "A", "codomain": "B", "kind": "hom", "matrix": []}}})
    with pytest.raises(SpecError, match="maps.f"):
        parse_text(text, "x.spec")


def test_map_bad_kind(kz2):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    data = json.loads(b.emit())
    first_map = next(iter(data["maps"]))
    data["maps"][first_map]["kind"] = "linear"
    with pytest.raises(SpecError, match="kind"):
        parse_text(json.dumps(data), "x.spec")


def test_map_matrix_shape_checked(kz2):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    data = json.loads(b.emit())
    first_map = next(iter(data["maps"]))
    data["maps"][first_map]["matrix"] = [["1"]]
    with pytest.raises(SpecError, match="matrix|rows|entries"):
        parse_text(json.dumps(data), "x.spec")


def test_bialgebroid_gamma_shape(kz2):
    b = SpecBuilder(QQ)
    b.add_bialgebroid(kz2.lb)
    data = json.loads(b.emit())
    nm = next(iter(data["left_bialgebroids"]))
    data["left_bialgebroids"][nm]["gamma"] = [["1", "0"]]
    with pytest.raises(SpecError, match="gamma"):
        parse_text(json.dumps(data), "x.spec")


def test_bialgebroid_constructor_refusal_becomes_spec_error(kz2):
    # a base that is not where s and t start: the constructor's ValueError
    # is reported at the bialgebroid's path
    b = SpecBuilder(QQ)
    b.add_bialgebroid(kz2.lb)
    data = json.loads(b.emit())
    nm = next(iter(data["left_bialgebroids"]))
    body = data["left_bialgebroids"][nm]
    body["base"] = body["total"]
    body["counit"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(SpecError,
                       match="source/target maps must start at the base"):
        parse_text(json.dumps(data), "x.spec")


def test_hopf_unknown_bialgebroid(kz2):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    data = json.loads(b.emit())
    nm = next(iter(data["hopf_algebroids"]))
    data["hopf_algebroids"][nm]["left"] = "ghost"
    with pytest.raises(SpecError, match="ghost"):
        parse_text(json.dumps(data), "x.spec")


def test_singular_antipode_rejected(kz2):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    data = json.loads(b.emit())
    nm = next(iter(data["hopf_algebroids"]))
    d = kz2.total.dim
    data["hopf_algebroids"][nm]["antipode"] = [["0"] * d for _ in range(d)]
    data["hopf_algebroids"][nm].pop("antipode_inv", None)
    with pytest.raises(SpecError, match="antipode"):
        parse_text(json.dumps(data), "x.spec")


def test_element_unknown_algebra():
    text = _base({"elements": {"e": {"algebra": "A", "coords": ["1"]}}})
    with pytest.raises(SpecError, match="elements.e"):
        parse_text(text, "x.spec")


def test_element_wrong_length(kz2):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    b.add_element("ell", kz2.total, {0: 1, 1: 1})
    data = json.loads(b.emit())
    data["elements"]["ell"]["coords"] = ["1"]
    with pytest.raises(SpecError, match="elements.ell"):
        parse_text(json.dumps(data), "x.spec")


def test_counit_algebra_error_becomes_spec_error():
    # struct table that is not associative fails inside the constructor
    text = _base({"algebras": {"A": {
        "basis": ["e", "x"],
        "struct": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                   [1, 1, 0, "1"], [1, 1, 1, "1"]],
        "unit": ["1", "0"]}}})
    try:
        parse_text(text, "x.spec")
    except SpecError as exc:
        assert "algebras.A" in str(exc)


@pytest.mark.parametrize("path, value, message", [
    (("left_bialgebroids", "k[Z2]_L", "total"), ["x"],
     "left_bialgebroids.k[Z2]_L.total: unresolved algebra reference "
     "['x']"),
    (("algebras", "k", "struct"), 5,
     "algebras.k.struct: expected a list of quadruples"),
    (("left_bialgebroids", "k[Z2]_L"), 3,
     "left_bialgebroids.k[Z2]_L: expected an object"),
    (("maps",), ["s"], "maps: expected an object"),
    (("algebras", "k", "dim"), "1",
     "algebras.k.dim: dim '1' is not an integer"),
    (("algebras", "k", "basis"), [1],
     "algebras.k.basis: basis names must be distinct strings"),
    (("algebras", "k[Z2]", "basis"), ["g", "g"],
     "algebras.k[Z2].basis: basis names must be distinct strings"),
    (("sections",), {"xi": {"bialgebroid": "k[Z2]_L", "matrix": [5]}},
     "sections.xi: missing matrix"),
], ids=["reference", "struct", "body", "table", "dim", "basis-type",
        "basis-repeat", "section-rows"])
def test_a_node_of_the_wrong_type_is_a_spec_error(path, value, message):
    """A spec whose tables, bodies, references, ``struct``, ``dim`` or
    basis names have the wrong JSON type is refused with its key path, not
    with a Python error."""
    with pytest.raises(SpecError) as err:
        parse_data(mutated("kz2.spec", path, value), "kz2.spec")
    assert str(err.value) == message


GAMMA = ("left_bialgebroids", "M2_L", "gamma")
STRUCT = ("algebras", "M2", "struct")
HOPF = ("hopf_algebroids", "m2-groupoid")
GF7 = PrimeField(7)


@pytest.mark.parametrize("changes, over_qq, over_gf7", [
    ([(GAMMA + (5, 2), "x")],
     "left_bialgebroids.M2_L.gamma[5][2]: bad scalar 'x' "
     "(Invalid literal for Fraction: 'x')",
     "left_bialgebroids.M2_L.gamma[5][2]: bad scalar 'x' "
     "(invalid literal for int() with base 10: 'x')"),
    ([(GAMMA + (5, 2), "1/0")],
     "left_bialgebroids.M2_L.gamma[5][2]: bad scalar '1/0' (Fraction(1, 0))",
     "left_bialgebroids.M2_L.gamma[5][2]: bad scalar '1/0' "
     "(division by zero in GF(p))"),
    ([(GAMMA + (5, 2), 1.5)],
     "left_bialgebroids.M2_L.gamma[5][2]: bad scalar 1.5 "
     "(cannot coerce 1.5 into QQ)",
     "left_bialgebroids.M2_L.gamma[5][2]: bad scalar 1.5 "
     "(cannot coerce 1.5 into GF(7))"),
    ([(GAMMA + (5,), "1")],
     "left_bialgebroids.M2_L.gamma[5]: expected a list of scalars", None),
    ([(GAMMA + (5,), ["1"])],
     "left_bialgebroids.M2_L.gamma[5]: expected 4 entries, got 1", None),
    ([(GAMMA + (15,), DELETE)],
     "left_bialgebroids.M2_L.gamma: expected 16 rows, got 15", None),
    ([(GAMMA + (6, 0), "y"), (GAMMA + (5, 3), "x")],
     "left_bialgebroids.M2_L.gamma[5][3]: bad scalar 'x' "
     "(Invalid literal for Fraction: 'x')",
     "left_bialgebroids.M2_L.gamma[5][3]: bad scalar 'x' "
     "(invalid literal for int() with base 10: 'x')"),
    ([(GAMMA + (5, 0), "x"), (GAMMA + (4,), ["1"])],
     "left_bialgebroids.M2_L.gamma[4]: expected 4 entries, got 1", None),
    ([(STRUCT + (7, 3), "1/0")],
     "algebras.M2.struct[7]: bad scalar '1/0' (Fraction(1, 0))",
     "algebras.M2.struct[7]: bad scalar '1/0' (division by zero in GF(p))"),
    ([(STRUCT + (7, 3), "x"), (STRUCT + (7, 2), 9)],
     "algebras.M2.struct[7]: index k=9 out of range 0..3", None),
    ([(GAMMA + (5, 2), True)],
     "left_bialgebroids.M2_L.gamma[5][2]: bad scalar True "
     "(cannot coerce True into QQ)",
     "left_bialgebroids.M2_L.gamma[5][2]: bad scalar True "
     "(cannot coerce True into GF(7))"),
    ([(STRUCT + (7, 2), True)],
     "algebras.M2.struct[7]: index k=True out of range 0..3", None),
    ([(HOPF + ("antipode",), [["0"] * 4] * 4),
      (HOPF + ("antipode_inv",), DELETE)],
     "hopf_algebroids.m2-groupoid.antipode: antipode matrix is singular",
     None),
], ids=["scalar-text", "scalar-zero-division", "scalar-float", "row-type",
        "row-short", "rows-few", "first-bad-scalar", "first-bad-row",
        "struct-value", "struct-index-first", "scalar-bool",
        "struct-index-bool", "singular-antipode"])
@pytest.mark.parametrize("field", [None, GF7], ids=["QQ", "GF7"])
def test_a_parse_error_names_its_first_fault(changes, over_qq, over_gf7,
                                             field):
    """A bad scalar (a JSON boolean among them), a row that is not a list
    or is short, too few rows, a bad ``struct`` value, a boolean ``struct``
    index and a singular antipode are refused with this exact
    message and key path, over the spec's own field and under a GF(7)
    override; with two faults, the first in row-major order is named."""
    data = copy.deepcopy(BUNDLED["m2-groupoid.spec"])
    for (*keys, last), value in changes:
        parent = data
        for key in keys:
            parent = parent[key]
        if value is DELETE:
            del parent[last]
        else:
            parent[last] = value
    with pytest.raises(SpecError) as err:
        parse_data(data, "m2-groupoid.spec", field=field)
    want = over_gf7 if field is GF7 and over_gf7 is not None else over_qq
    assert str(err.value) == want


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec_mutations())
def test_one_mutated_node_parses_or_is_a_spec_error(mutation):
    """One node of a bundled spec set to a value of another JSON type, or
    deleted: the parser returns a ``SpecFile`` or raises a ``SpecError``,
    and no other exception escapes it."""
    try:
        spec = parse_data(mutated(*mutation))
    except SpecError:
        return
    assert isinstance(spec, SpecFile)


def _weak_hopf_document():
    """A document with a weak Hopf algebra, a functional and a section,
    which no bundled spec declares.  The builder names algebras by
    identity, so both structures stay alive until it emits."""
    w = pair_groupoid_weak_hopf(2, QQ)
    h = group_hopf_algebroid(FiniteGroup.cyclic(2), QQ)
    b = SpecBuilder(QQ)
    b.add_weak_hopf(w)
    lb_name = b.add_bialgebroid(h.lb)
    b.add_functional("sign", lb_name, Matrix.from_rows(
        QQ, [[QQ.one, -QQ.one]]))
    b.add_section("xi", lb_name, Matrix.from_rows(
        QQ, [[QQ.of("1/2"), QQ.zero], [QQ.zero] * 2, [QQ.zero] * 2,
             [QQ.zero, QQ.of(-3)]]))
    return json.loads(b.emit())


@pytest.mark.parametrize("name", sorted(BUNDLED) + ["weak-hopf"])
@pytest.mark.parametrize("field", [None, GF7], ids=["own", "GF7"])
@pytest.mark.parametrize("inverse", ["given", "computed"])
def test_a_parse_equals_an_entrywise_reference_read(name, field, inverse):
    """Every map, coproduct, counit, antipode, weak-Hopf matrix, algebra
    table, unit, element, functional and section equals a read of one
    ``field.of`` per JSON entry, each entry is a scalar of the parse's
    field, and an antipode given without its inverse is inverted."""
    data = (_weak_hopf_document() if name == "weak-hopf"
            else copy.deepcopy(BUNDLED[name]))
    if inverse == "computed":
        for body in data.get("hopf_algebroids", {}).values():
            del body["antipode_inv"]
    spec = parse_data(data, name, field=field)
    f = spec.field
    assert f == (field or parse_field(data["field"]))
    scalar = GFElement if f == GF7 else Fraction

    def ref(rows):
        """One ``field.of`` per JSON entry, through dense rows."""
        return Matrix.from_rows(f, [[f.of(x) for x in row] for row in rows],
                                len(rows[0]))

    def same(got, want):
        assert got == want
        if isinstance(got, Matrix):
            assert got.field == f
            got = [x for col in got.cols for x in col.values()]
        elif isinstance(got, dict):
            got = got.values()
        assert all(type(x) is scalar for x in got)

    for nm, body in data.get("algebras", {}).items():
        A = spec.algebras[nm]
        want = Algebra.from_struct(
            f, body["basis"], {(i, j, k): f.of(v)
                               for i, j, k, v in body["struct"]},
            unit=tuple(f.of(x) for x in body["unit"]))
        same(A.unit, want.unit)
        for i in range(A.dim):
            for j in range(A.dim):
                same(A.table[i][j], want.table[i][j])
    for nm, body in data.get("maps", {}).items():
        same(spec.maps[nm].matrix, ref(body["matrix"]))
    for table in ("left_bialgebroids", "right_bialgebroids"):
        for nm, body in data.get(table, {}).items():
            bgd = getattr(spec, table)[nm]
            same(bgd.gamma_lift, ref(body["gamma"]))
            same(bgd.counit, ref(body["counit"]))
    for nm, body in data.get("hopf_algebroids", {}).items():
        h = spec.hopf_algebroids[nm]
        same(h.S, ref(body["antipode"]))
        same(h.S_inv, ref(body["antipode_inv"]) if "antipode_inv" in body
             else ref(body["antipode"]).inverse())
    for nm, body in data.get("weak_hopf", {}).items():
        w = spec.weak_hopf[nm]
        same(w.delta, ref(body["delta"]))
        same(w.counit, ref(body["counit"]))
        same(w.antipode, ref(body["antipode"]))
    for nm, body in data.get("elements", {}).items():
        same(spec.elements[nm][1], tuple(f.of(x) for x in body["coords"]))
    for table in ("functionals", "sections"):
        for nm, body in data.get(table, {}).items():
            same(getattr(spec, table)[nm][1], ref(body["matrix"]))


def test_parse_missing_file(tmp_path):
    with pytest.raises(SpecError, match="No such file"):
        parse(str(tmp_path / "absent.spec"))


def test_parse_reads_file(tmp_path, kz2):
    p = tmp_path / "kz2.spec"
    p.write_text(spec_from_hopf(kz2, name="kz2"))
    spec = parse(str(p))
    assert spec.source == str(p)
    assert verify_hopf(spec.hopf(None)[1]).passed


# ---------------------------------------------------------------------------
# lookup helpers


def test_pick_sole_default(kz2):
    spec = parse_text(spec_from_hopf(kz2, name="only"), "x.spec")
    assert spec.hopf(None)[0] == "only"


def test_pick_ambiguous_lists_choices(kz2, kz3):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    b.add_hopf(kz3)
    spec = parse_text(b.emit(), "x.spec")
    with pytest.raises(SpecError) as err:
        spec.hopf(None)
    msg = str(err.value)
    assert kz2.name in msg and kz3.name in msg
    assert spec.hopf(kz3.name)[0] == kz3.name


def test_pick_unknown_name(kz2):
    spec = parse_text(spec_from_hopf(kz2, name="only"), "x.spec")
    with pytest.raises(SpecError, match="ghost"):
        spec.hopf("ghost")


def test_right_bialgebroid_falls_back_to_hopf(kz2):
    spec = parse_text(spec_from_hopf(kz2, name="h"), "x.spec")
    nm, rb = spec.right_bialgebroid(None)
    assert rb.gamma_lift == kz2.rb.gamma_lift


def test_element_for_filters_by_algebra(kz2):
    b = SpecBuilder(QQ)
    b.add_hopf(kz2)
    b.add_element("ell", kz2.total, {0: 1, 1: 1})
    b.add_element("scalar", kz2.lb.base, {0: 1})
    spec = parse_text(b.emit(), "x.spec")
    _, h = spec.hopf(None)
    name, coords = spec.element_for(h.total, None)
    assert name == "ell"
    assert coords == (QQ.one, QQ.one)


def test_element_for_none_available(kz2):
    spec = parse_text(spec_from_hopf(kz2, name="h"), "x.spec")
    _, h = spec.hopf(None)
    with pytest.raises(SpecError, match="element"):
        spec.element_for(h.total, None)
