"""Declarative JSON spec files: parse, validate, and emit.

A spec file is a UTF-8 JSON document with the versioned header
``"format": "algebroid-spec/1"``.  Scalars are written as exact strings:
rationals as ``"p/q"`` (or plain integers), prime-field values as canonical
representatives ``0 .. p-1``.  Matrices are dense row lists; structure
constants are sparse quadruples.

Top-level keys (all object-valued maps keyed by name, every key optional
except ``format``):

``field``
    ``"rational"`` (the default) or ``"gf:p"`` with ``p`` prime.
``algebras``
    ``{"dim": n, "basis": [names], "struct": [[i, j, k, val], ...],
    "unit": [vals]}`` — ``e_i e_j = Σ_k struct[i][j][k] e_k``; ``unit`` is
    optional (the unique two-sided unit is solved for when omitted).
``maps``
    ``{"domain": alg, "codomain": alg, "kind": "hom" | "anti",
    "matrix": rows}`` — the matrix sends domain coordinates to codomain
    coordinates (``codomain.dim x domain.dim``).
``left_bialgebroids`` / ``right_bialgebroids``
    ``{"total": alg, "base": alg, "s": map, "t": map, "gamma": rows,
    "counit": rows}`` — ``gamma`` is the ``d^2 x d`` coproduct lift,
    ``counit`` is ``dim(base) x d``.
``hopf_algebroids``
    ``{"left": lb, "right": rb, "antipode": rows,
    "antipode_inv": rows?}``.
``weak_hopf``
    ``{"algebra": alg, "delta": rows (d^2 x d), "counit": [row],
    "antipode": rows}``.
``elements``
    ``{"algebra": alg, "coords": [vals]}`` — named total-ring elements
    (integrals, twist candidates for transport, ...).
``functionals``
    ``{"bialgebroid": lb-name, "matrix": rows (dim(base) x d)}`` — named
    elements of the lower-star dual (twists, characters).
``sections``
    ``{"bialgebroid": lb-name, "matrix": rows}`` — a linear section of the
    balanced-tensor-square projection, for the convolution-axiom check
    (``d^2 x q`` where ``q`` is the quotient dimension).

Parse errors carry a location: JSON syntax errors report line/column,
semantic errors report the offending key path.  A parse reads each
distinct scalar text once and shares its value, builds every matrix as
sparse columns in one row-major pass over its rows (so the first bad row or
entry in that order is the one refused), formats a key path only for a
refusal, and inverts an antipode given without ``antipode_inv`` once.
The emitters take algebra elements (units and named elements) sparse, as
the package holds them, and write them densely.
"""

import json
from collections.abc import Mapping

from .algebra import ANTI, HOM, Algebra, AlgebraMap
from .bialgebroid import LeftBialgebroid, RightBialgebroid
from .exactfield import Matrix, PrimeField, RationalField
from .hopfcore import HopfAlgebroid
from .twistlab import WeakHopfAlgebra

FORMAT = "algebroid-spec/1"


class SpecError(Exception):
    """A spec-file problem, with a human-readable location."""

    def __init__(self, message, location=""):
        self.message = message
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def parse_field(text):
    """``"rational"`` or ``"gf:p"`` to a field object."""
    if text == "rational":
        return RationalField()
    if isinstance(text, str) and text.startswith("gf:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise SpecError(f"bad prime-field modulus {text[3:]!r}", "field")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise SpecError(str(exc), "field")
    raise SpecError(f"unknown field {text!r} (want 'rational' or 'gf:p')",
                    "field")


class SpecFile:
    """A fully resolved spec file."""

    def __init__(self, field, source="<spec>"):
        self.field = field
        self.source = source
        self.algebras = {}
        self.maps = {}
        self.left_bialgebroids = {}
        self.right_bialgebroids = {}
        self.hopf_algebroids = {}
        self.weak_hopf = {}
        self.elements = {}       # name -> (algebra name, coords tuple)
        self.functionals = {}    # name -> (left-bialgebroid name, Matrix)
        self.sections = {}       # name -> (left-bialgebroid name, Matrix)

    # -- lookup helpers ---------------------------------------------------

    def select(self, table, what, name):
        """The (name, entry) pairs of ``table``: the one named ``name``, or
        all of them in name order when ``name`` is None.  A name not in the
        table, or an empty table, is a SpecError naming ``what``."""
        if name is not None:
            if name not in table:
                raise SpecError(f"no {what} named {name!r} in {self.source}")
            return [(name, table[name])]
        if not table:
            raise SpecError(f"{self.source} declares no {what}")
        return sorted(table.items())

    def _pick(self, table, what, name=None):
        pairs = self.select(table, what, name)
        if len(pairs) > 1:
            raise SpecError(
                f"{self.source} declares {len(pairs)} {what}s "
                f"({', '.join(nm for nm, _ in pairs)}); pick one with --name")
        return pairs[0]

    def hopf(self, name=None):
        return self._pick(self.hopf_algebroids, "hopf_algebroid", name)

    def right_bialgebroid(self, name=None):
        return self._pick(self.right_bialgebroids, "right_bialgebroid", name)

    def element_for(self, algebra, name=None):
        """A named element of the given total algebra; sole match default."""
        table = {nm: coords for nm, (alg, coords) in self.elements.items()
                 if self.algebras[alg] is algebra}
        nm, coords = self._pick(table, f"element of {algebra.name}", name)
        return nm, coords

    def functional_for(self, name=None):
        nm, (lbname, mat) = self._pick(self.functionals, "functional", name)
        return nm, lbname, mat


# ---------------------------------------------------------------------------
# parsing


def _expect(cond, message, loc):
    if not cond:
        raise SpecError(message, loc)


class _Scalars:
    """The scalars of one parse over its field.  A JSON string is read
    once per distinct text and its value shared (values are immutable);
    any other JSON value goes to ``field.of`` every time.  Every zero read
    is ``field.zero`` itself, so a matrix drops zeros by identity.  A key
    path is built only for a scalar the field refuses: ``loc`` followed by
    ``[k]`` for each index."""

    def __init__(self, field):
        self.field = field
        self.memo = {}

    def read(self, raw, loc, *index):
        value = self.memo.get(raw) if type(raw) is str else None
        if value is not None:
            return value
        try:
            value = self.field.of(raw)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            path = loc + "".join(f"[{k}]" for k in index)
            raise SpecError(f"bad scalar {raw!r} ({exc})", path)
        if not value:
            value = self.field.zero
        if type(raw) is str:
            self.memo[raw] = value
        return value


def _vector(scalars, raw, length, loc):
    _expect(isinstance(raw, list), "expected a list of scalars", loc)
    _expect(len(raw) == length,
            f"expected {length} entries, got {len(raw)}", loc)
    return tuple(scalars.read(x, loc, i) for i, x in enumerate(raw))


def _matrix(scalars, raw, nrows, ncols, loc):
    """The ``nrows x ncols`` matrix of the JSON rows ``raw``, filled into
    sparse columns in one row-major pass, so the first bad row or entry in
    that order is the one refused.  Every zero read is ``field.zero``, so
    the columns are zero-free and the matrix takes them as they are."""
    _expect(isinstance(raw, list), "expected a list of rows", loc)
    _expect(len(raw) == nrows, f"expected {nrows} rows, got {len(raw)}", loc)
    read, zero = scalars.read, scalars.field.zero
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != ncols:
            _vector(scalars, row, ncols, f"{loc}[{i}]")  # refuses the row
        for j, x in enumerate(row):
            value = read(x, loc, i, j)
            if value is not zero:
                cols[j][i] = value
    return Matrix._of_cols(scalars.field, nrows, cols)


def _parse_algebra(scalars, name, body, loc):
    basis = body.get("basis")
    _expect(isinstance(basis, list) and basis, "missing basis names",
            f"{loc}.basis")
    _expect(all(isinstance(b, str) for b in basis)
            and len(set(basis)) == len(basis),
            "basis names must be distinct strings", f"{loc}.basis")
    dim = body.get("dim", len(basis))
    _expect(type(dim) is int, f"dim {dim!r} is not an integer", f"{loc}.dim")
    _expect(dim == len(basis),
            f"dim {dim} != {len(basis)} basis names", f"{loc}.dim")
    quads = body.get("struct", [])
    sloc = f"{loc}.struct"
    _expect(isinstance(quads, list), "expected a list of quadruples", sloc)
    struct = {}
    for idx, quad in enumerate(quads):
        if not (isinstance(quad, list) and len(quad) == 4):
            raise SpecError("expected a quadruple [i, j, k, value]",
                            f"{sloc}[{idx}]")
        i, j, k, val = quad
        for pos, ix in (("i", i), ("j", j), ("k", k)):
            if not (isinstance(ix, int) and 0 <= ix < dim):
                raise SpecError(f"index {pos}={ix} out of range "
                                f"0..{dim - 1}", f"{sloc}[{idx}]")
        struct[(i, j, k)] = scalars.read(val, sloc, idx)
    unit = body.get("unit")
    if unit is not None:
        unit = _vector(scalars, unit, dim, f"{loc}.unit")
    try:
        return Algebra.from_struct(scalars.field, list(basis), struct,
                                   unit=unit, name=name)
    except ValueError as exc:
        raise SpecError(str(exc), loc)


def _ref(table, body, key, loc, what):
    """The entry of ``table`` that ``body[key]`` names."""
    name = body.get(key)
    _expect(isinstance(name, str) and name in table,
            f"unresolved {what} reference {name!r}", f"{loc}.{key}")
    return table[name]


def _table(data, key):
    """The (name, body) pairs of the top-level object ``key``."""
    table = data.get(key, {})
    _expect(isinstance(table, dict), "expected an object", key)
    for name, body in table.items():
        _expect(isinstance(body, dict), "expected an object", f"{key}.{name}")
    return table.items()


def parse_data(data, source="<spec>", field=None):
    """Validate a decoded JSON object into a :class:`SpecFile`."""
    _expect(isinstance(data, dict), "top level must be a JSON object", source)
    _expect(data.get("format") == FORMAT,
            f"missing or unsupported format (want {FORMAT!r})", "format")
    if field is None:
        field = parse_field(data.get("field", "rational"))
    spec = SpecFile(field, source=source)
    scalars = _Scalars(field)

    for name, body in _table(data, "algebras"):
        spec.algebras[name] = _parse_algebra(scalars, name, body,
                                             f"algebras.{name}")

    for name, body in _table(data, "maps"):
        loc = f"maps.{name}"
        dom = _ref(spec.algebras, body, "domain", loc, "algebra")
        cod = _ref(spec.algebras, body, "codomain", loc, "algebra")
        kind = body.get("kind", HOM)
        _expect(kind in (HOM, ANTI), f"kind must be '{HOM}' or '{ANTI}'",
                f"{loc}.kind")
        mat = _matrix(scalars, body.get("matrix"), cod.dim, dom.dim,
                      f"{loc}.matrix")
        spec.maps[name] = AlgebraMap(dom, cod, mat, kind, name)

    def parse_bgd(cls, name, body, loc):
        total = _ref(spec.algebras, body, "total", loc, "algebra")
        base = _ref(spec.algebras, body, "base", loc, "algebra")
        smap = _ref(spec.maps, body, "s", loc, "map")
        tmap = _ref(spec.maps, body, "t", loc, "map")
        d = total.dim
        gamma = _matrix(scalars, body.get("gamma"), d * d, d, f"{loc}.gamma")
        counit = _matrix(scalars, body.get("counit"), base.dim, d,
                         f"{loc}.counit")
        try:
            return cls(total, base, smap, tmap, gamma, counit, name=name)
        except ValueError as exc:
            raise SpecError(str(exc), loc)

    for name, body in _table(data, "left_bialgebroids"):
        spec.left_bialgebroids[name] = parse_bgd(
            LeftBialgebroid, name, body, f"left_bialgebroids.{name}")

    for name, body in _table(data, "right_bialgebroids"):
        spec.right_bialgebroids[name] = parse_bgd(
            RightBialgebroid, name, body, f"right_bialgebroids.{name}")

    for name, body in _table(data, "hopf_algebroids"):
        loc = f"hopf_algebroids.{name}"
        lb = _ref(spec.left_bialgebroids, body, "left", loc,
                  "left_bialgebroid")
        rb = _ref(spec.right_bialgebroids, body, "right", loc,
                  "right_bialgebroid")
        _expect(lb.total is rb.total,
                "left and right sides must share the total algebra", loc)
        d = lb.total.dim
        anti = _matrix(scalars, body.get("antipode"), d, d, f"{loc}.antipode")
        anti_inv = body.get("antipode_inv")
        if anti_inv is not None:
            anti_inv = _matrix(scalars, anti_inv, d, d, f"{loc}.antipode_inv")
        else:
            # the one inversion of S: HopfAlgebroid takes it as given
            anti_inv = anti.inverse()
            _expect(anti_inv is not None, "antipode matrix is singular",
                    f"{loc}.antipode")
        spec.hopf_algebroids[name] = HopfAlgebroid(
            lb, rb, anti, antipode_inv=anti_inv, name=name)

    for name, body in _table(data, "weak_hopf"):
        loc = f"weak_hopf.{name}"
        alg = _ref(spec.algebras, body, "algebra", loc, "algebra")
        d = alg.dim
        delta = _matrix(scalars, body.get("delta"), d * d, d, f"{loc}.delta")
        counit = _matrix(scalars, body.get("counit"), 1, d, f"{loc}.counit")
        anti = _matrix(scalars, body.get("antipode"), d, d, f"{loc}.antipode")
        spec.weak_hopf[name] = WeakHopfAlgebra(alg, delta, counit, anti,
                                               name=name)

    for name, body in _table(data, "elements"):
        loc = f"elements.{name}"
        alg = _ref(spec.algebras, body, "algebra", loc, "algebra")
        coords = _vector(scalars, body.get("coords"), alg.dim, f"{loc}.coords")
        spec.elements[name] = (body["algebra"], coords)

    def parse_dual_row(table_name, store, shape):
        """Matrices on a left bialgebroid, of the shape that ``shape``
        reads from the bialgebroid, the raw rows and the location."""
        for name, body in _table(data, table_name):
            loc = f"{table_name}.{name}"
            lb = _ref(spec.left_bialgebroids, body, "bialgebroid", loc,
                      "left_bialgebroid")
            raw = body.get("matrix")
            mat = _matrix(scalars, raw, *shape(lb, raw, loc), f"{loc}.matrix")
            store[name] = (body["bialgebroid"], mat)

    def section_shape(lb, raw, loc):
        _expect(isinstance(raw, list) and raw and isinstance(raw[0], list),
                "missing matrix", loc)
        return len(raw), len(raw[0])

    parse_dual_row("functionals", spec.functionals,
                   lambda lb, raw, loc: (lb.base.dim, lb.total.dim))
    parse_dual_row("sections", spec.sections, section_shape)
    return spec


def parse_text(text, source="<spec>", field=None):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"JSON syntax error: {exc.msg} (line {exc.lineno}, "
            f"column {exc.colno})", source)
    return parse_data(data, source=source, field=field)


def parse(path, field=None):
    """Read and resolve a spec file; raises :class:`SpecError` on any
    syntax, reference, or dimension problem."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(str(exc), str(path))
    return parse_text(text, source=str(path), field=field)


# ---------------------------------------------------------------------------
# emission


def _matrix_json(m):
    return [[str(x) for x in row] for row in m.rows]


def _element_json(algebra, vec):
    """The coefficients of the sparse element ``vec`` of ``algebra``,
    written densely; a ValueError if ``vec`` is not such an element."""
    if not isinstance(vec, Mapping) or \
            any(not 0 <= k < algebra.dim for k in vec):
        raise ValueError(f"an element of {algebra.name} is a mapping "
                         f"{{index: coefficient}} on its {algebra.dim} "
                         "basis indices")
    zero = algebra.field.zero
    return [str(vec.get(k, zero)) for k in range(algebra.dim)]


def _algebra_json(A):
    struct = []
    for i in range(A.dim):
        for j in range(A.dim):
            for k in sorted(A.table[i][j]):
                struct.append([i, j, k, str(A.table[i][j][k])])
    return {
        "dim": A.dim,
        "basis": list(A.basis_names),
        "struct": struct,
        "unit": _element_json(A, A.unit),
    }


class SpecBuilder:
    """Accumulates objects into a serializable spec document, deduplicating
    shared algebras and maps by identity.  Each named algebra and map is
    kept with its name, so its ``id`` cannot pass to another object while
    the builder lives."""

    def __init__(self, field):
        self.data = {"format": FORMAT, "field": field.name}
        self._algebra_names = {}
        self._map_names = {}

    def _fresh(self, table, want):
        name = want
        n = 2
        while name in self.data.get(table, {}):
            name = f"{want}.{n}"
            n += 1
        return name

    def add_algebra(self, A):
        if id(A) in self._algebra_names:
            return self._algebra_names[id(A)][1]
        name = self._fresh("algebras", A.name)
        self.data.setdefault("algebras", {})[name] = _algebra_json(A)
        self._algebra_names[id(A)] = A, name
        return name

    def add_map(self, m):
        if id(m) in self._map_names:
            return self._map_names[id(m)][1]
        name = self._fresh("maps", m.name)
        self.data.setdefault("maps", {})[name] = {
            "domain": self.add_algebra(m.source),
            "codomain": self.add_algebra(m.target),
            "kind": m.kind,
            "matrix": _matrix_json(m.matrix),
        }
        self._map_names[id(m)] = m, name
        return name

    def add_bialgebroid(self, bgd):
        table = ("left_bialgebroids" if isinstance(bgd, LeftBialgebroid)
                 else "right_bialgebroids")
        name = self._fresh(table, bgd.name)
        self.data.setdefault(table, {})[name] = {
            "total": self.add_algebra(bgd.total),
            "base": self.add_algebra(bgd.base),
            "s": self.add_map(bgd.s),
            "t": self.add_map(bgd.t),
            "gamma": _matrix_json(bgd.gamma_lift),
            "counit": _matrix_json(bgd.counit),
        }
        return name

    def add_hopf(self, h, name=None):
        name = self._fresh("hopf_algebroids", name or h.name)
        self.data.setdefault("hopf_algebroids", {})[name] = {
            "left": self.add_bialgebroid(h.lb),
            "right": self.add_bialgebroid(h.rb),
            "antipode": _matrix_json(h.S),
            "antipode_inv": _matrix_json(h.S_inv),
        }
        return name

    def add_weak_hopf(self, w, name=None):
        name = self._fresh("weak_hopf", name or w.name)
        self.data.setdefault("weak_hopf", {})[name] = {
            "algebra": self.add_algebra(w.algebra),
            "delta": _matrix_json(w.delta),
            "counit": _matrix_json(w.counit),
            "antipode": _matrix_json(w.antipode),
        }
        return name

    def add_element(self, name, algebra, element):
        """Declare the sparse element ``element`` of ``algebra`` under
        ``name``."""
        name = self._fresh("elements", name)
        self.data.setdefault("elements", {})[name] = {
            "algebra": self.add_algebra(algebra),
            "coords": _element_json(algebra, element),
        }
        return name

    def _add_dual_row(self, table, name, lb_name, matrix):
        name = self._fresh(table, name)
        self.data.setdefault(table, {})[name] = {
            "bialgebroid": lb_name,
            "matrix": _matrix_json(matrix),
        }
        return name

    def add_functional(self, name, lb_name, matrix):
        return self._add_dual_row("functionals", name, lb_name, matrix)

    def add_section(self, name, lb_name, matrix):
        return self._add_dual_row("sections", name, lb_name, matrix)

    def emit(self):
        """Canonical deterministic text (sorted keys, trailing newline)."""
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"


def spec_from_hopf(h, name=None, integral=None, integral_name="integral"):
    """A complete spec document for one Hopf algebroid, optionally with a
    named integral, a sparse element of the total algebra."""
    b = SpecBuilder(h.field)
    b.add_hopf(h, name=name)
    if integral is not None:
        b.add_element(integral_name, h.total, integral)
    return b.emit()
