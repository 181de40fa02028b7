"""The structure-constant kernels against dense unit-vector references.

``verify_algebra``, ``verify_map``, ``Algebra.mul_vec``, the multiplication
matrices, ``opposite``, ``mult_at_factor`` and ``on_leg`` read
``Algebra.table`` directly.  Each is compared here with a dense evaluation that builds unit
vectors and multiplies coefficient by coefficient, on random structure
constants over ℚ and GF(7): associative algebras in a random basis, the
same with a corrupted structure constant, and arbitrary constants.  The
sparse tensor-vector kernels of the bialgebroid verifiers, (γ⊗id),
(id⊗γ), ``tensor_square_product``, ``project`` and ``equal``, are compared
with dense definitions on pair-groupoid and group bialgebroids whose
coproduct lifts are shifted by relation-span vectors.  The weakened counit
and unit laws and the antipode-l/r laws of ``verify_weak_hopf`` are
compared with brute-force sums on corrupted weak Hopf algebras, and the
checks of ``frobenius_check`` with dense sums on the catalog witnesses and
on witnesses whose λ* is raised at one entry.  A passing
``verify_algebra`` is held to one ``combine`` per basis pair, so a
per-triple loop cannot come back unseen, and the leg products of the
integral, separability, twist, uniqueness and Galois checks to no
multiplication or identity matrix.  The unit-aware paths of
``mul_vec``, ``side_product``, ``map_at_factor`` and
``tensor_square_product`` meet the dense references on one-entry operands,
on coefficients 0, 1, -1, 2 and 1/2 and on sums built to cancel, and each
result must be a new, zero-free dict.
"""

from itertools import product
from math import prod

from hypothesis import given, settings, strategies as st

from algebroids import algebra
from algebroids.algebra import (
    ANTI,
    HOM,
    POST,
    PRE,
    Algebra,
    AlgebraMap,
    map_at_factor,
    mult_at_factor,
    on_leg,
    opposite,
    separability_structure,
    side_product,
    sparse,
    tensor_square_product,
    verify_algebra,
    verify_map,
    verify_separability,
)
from algebroids.catalog import (
    FiniteGroup,
    all_fixtures,
    group_algebra,
    group_hopf_algebroid,
    function_algebra_hopf,
    group_weak_hopf,
    pair_groupoid_hopf_algebroid,
    pair_groupoid_weak_hopf,
)
from algebroids.exactfield import (
    Matrix,
    PrimeField,
    RationalField,
    combine,
    unit_vector,
)
from algebroids.hopfcore import GaloisMaps, antipode_uniqueness
from algebroids.integrallab import (frobenius_check, intpr_equivalences,
                                    nondegeneracy)
from algebroids.report import Report
from algebroids.twistlab import (
    WeakHopfAlgebra,
    verify_twist,
    verify_weak_hopf,
    weak_bialgebra_from_sep,
)
from dense_reference import (
    dense,
    dense_matrix_apply,
    dense_rref,
    kernel_scalars,
)

QQ = RationalField()
F7 = PrimeField(7)
ALL = 10 ** 6  # certificate limit that shows every certificate


# ---------------------------------------------------------------------------
# dense references


def dense_mul(A, u, v):
    """u * v by a double loop over all coefficient pairs."""
    out = [A.field.zero] * A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            for k, c in A.table[i][j].items():
                out[k] = out[k] + u[i] * v[j] * c
    return tuple(out)


def dense_at_factor(dims, p, m, vec):
    """m applied to tensor factor p, entry by entry over all multi-indices."""
    out_dims = list(dims)
    out_dims[p] = m.nrows
    out = {idx: m.field.zero for idx in product(*map(range, out_dims))}
    for idx, x in zip(product(*map(range, dims)), vec):
        for k in range(m.nrows):
            at = idx[:p] + (k,) + idx[p + 1:]
            out[at] = out[at] + m.rows[k][idx[p]] * x
    return tuple(out.values())


def unit_vector_verify_algebra(A):
    """The unit-vector loop ``verify_algebra`` ran before it read ``table``."""
    rep = Report(f"algebra {A.name}")
    d = A.dim
    e = [unit_vector(A.field, d, i) for i in range(d)]
    unit = dense(A.field, d, A.unit)
    bad = []
    for i in range(d):
        if dense_mul(A, unit, e[i]) != e[i]:
            bad.append(f"1*{A.basis_names[i]} != {A.basis_names[i]}")
        if dense_mul(A, e[i], unit) != e[i]:
            bad.append(f"{A.basis_names[i]}*1 != {A.basis_names[i]}")
    rep.add("unit", "two-sided unit law on basis", bad)
    bad = []
    for i in range(d):
        for j in range(d):
            ij = dense_mul(A, e[i], e[j])
            for k in range(d):
                lhs = dense_mul(A, ij, e[k])
                rhs = dense_mul(A, e[i], dense_mul(A, e[j], e[k]))
                if lhs != rhs:
                    ni, nj, nk = (A.basis_names[x] for x in (i, j, k))
                    bad.append(
                        f"({ni}*{nj})*{nk} = {A.fmt_vec(sparse(lhs))} but "
                        f"{ni}*({nj}*{nk}) = {A.fmt_vec(sparse(rhs))}")
    rep.add("assoc", "associativity on basis triples", bad)
    return rep


def unit_vector_verify_map(f):
    """The unit-vector loop ``verify_map`` ran before it read ``table``."""
    rep = Report(f"map {f.name}")
    src, tgt = f.source, f.target
    def apply(vec):
        return dense_matrix_apply(f.matrix, vec)

    img_one = apply(dense(src.field, src.dim, src.unit))
    ok = img_one == dense(tgt.field, tgt.dim, tgt.unit)
    rep.add("map-unit", f"{f.name}(1) = 1",
            [] if ok else [f"{f.name}(1) = {tgt.fmt_vec(sparse(img_one))}"])
    e = [unit_vector(src.field, src.dim, i) for i in range(src.dim)]
    bad = []
    for i in range(src.dim):
        for j in range(src.dim):
            fi, fj = apply(e[i]), apply(e[j])
            lhs = apply(dense_mul(src, e[i], e[j]))
            rhs = dense_mul(tgt, fi, fj) if f.kind == HOM else dense_mul(tgt, fj, fi)
            if lhs != rhs:
                ni, nj = src.basis_names[i], src.basis_names[j]
                bad.append(
                    f"{f.name}({ni}*{nj}) = {tgt.fmt_vec(sparse(lhs))} but "
                    f"expected {tgt.fmt_vec(sparse(rhs))}")
    word = "multiplicative" if f.kind == HOM else "anti-multiplicative"
    rep.add("map-mult", f"{f.name} is {word} on basis pairs", bad)
    return rep


# ---------------------------------------------------------------------------
# random algebras


def matrix_units(n, field):
    """M_n(k) on the matrix units e_ij e_jl = e_il."""
    struct = {(i * n + j, j * n + l, i * n + l): field.one
              for i in range(n) for j in range(n) for l in range(n)}
    unit = [field.one if i % (n + 1) == 0 else field.zero for i in range(n * n)]
    return Algebra.from_struct(field, [f"e{i}{j}" for i in range(n)
                                       for j in range(n)],
                               struct, unit=unit, name=f"M{n}")


def upper_triangular(field):
    """The 2×2 upper-triangular matrices: noncommutative, not semisimple."""
    struct = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1}
    return Algebra.from_struct(field, ["p", "n", "q"], struct,
                               unit=[1, 0, 1], name="T2")


BASES = {
    "kz2": lambda f: group_algebra(FiniteGroup.cyclic(2), f),
    "kz3": lambda f: group_algebra(FiniteGroup.cyclic(3), f),
    "m2": lambda f: matrix_units(2, f),
    "t2": upper_triangular,
}


def rebased(A, upper):
    """A in the basis b_i = e_i + sum_(k<i) upper[k][i] e_k."""
    field, d = A.field, A.dim
    rows = [[field.of(upper.get((k, i), 0)) if k < i else
             (field.one if k == i else field.zero) for i in range(d)]
            for k in range(d)]
    P = Matrix(field, d, d, rows)
    P_inv = P.inverse()
    struct = {}
    for i in range(d):
        for j in range(d):
            coords = dense_matrix_apply(P_inv,
                                        dense_mul(A, P.col(i), P.col(j)))
            for k, c in enumerate(coords):
                if c:
                    struct[i, j, k] = c
    return Algebra.from_struct(field, [f"b{i}" for i in range(d)], struct,
                               unit=dense_matrix_apply(
                                   P_inv, dense(field, d, A.unit)),
                               name=f"{A.name}'")


@st.composite
def algebras(draw, field=None):
    """Associative algebras in a random basis, optionally with one or two
    corrupted structure constants, and arbitrary structure constants."""
    if field is None:
        field = draw(st.sampled_from((QQ, F7)))
    kind = draw(st.sampled_from(sorted(BASES) + ["arbitrary"]))
    if kind == "arbitrary":
        d = draw(st.integers(1, 3))
        struct = draw(st.dictionaries(
            st.tuples(*[st.integers(0, d - 1)] * 3), st.integers(-2, 2),
            max_size=d ** 3))
        unit = draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d))
        return Algebra.from_struct(field, [f"x{i}" for i in range(d)],
                                   struct, unit=unit, name="X")
    A = BASES[kind](field)
    d = A.dim
    upper = draw(st.dictionaries(
        st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)),
        st.integers(-2, 2), max_size=4))
    A = rebased(A, upper)
    corruptions = draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, d - 1)] * 3),
        st.integers(-2, 2).filter(bool)), max_size=2))
    if not corruptions:
        return A
    struct = {(i, j, k): c for i in range(d) for j in range(d)
              for k, c in A.table[i][j].items()}
    for key, delta in corruptions:
        struct[key] = struct.get(key, field.zero) + field.of(delta)
    return Algebra.from_struct(field, A.basis_names, struct, unit=A.unit,
                               name=f"{A.name}~")


def vectors(A, count):
    return st.lists(st.lists(st.integers(-2, 2), min_size=A.dim,
                             max_size=A.dim).map(
        lambda xs: tuple(A.field.of(x) for x in xs)),
        min_size=count, max_size=count)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=150, deadline=None, derandomize=True)
@given(algebras())
def test_verify_algebra_renders_the_unit_vector_report(A):
    assert (verify_algebra(A).render_text(ALL)
            == unit_vector_verify_algebra(A).render_text(ALL))


def test_verify_algebra_combines_once_per_basis_pair(monkeypatch):
    # associativity is one combine per pair (i, j), the unit law two per i
    A = pair_groupoid_hopf_algebroid(4, QQ).total
    calls = []

    def counting(terms):
        calls.append(None)
        return combine(terms)

    monkeypatch.setattr(algebra, "combine", counting)
    assert verify_algebra(A).passed
    assert len(calls) <= A.dim ** 2 + 2 * A.dim == 288


def test_leg_products_build_no_throwaway_matrix(monkeypatch):
    # a product on one leg or from one side goes through its kernel: no
    # multiplication or identity matrix is built only to be applied once
    m2 = pair_groupoid_hopf_algebroid(2, QQ)
    kz3 = group_hopf_algebroid(FiniteGroup.cyclic(3), QQ)
    sep = separability_structure(pair_groupoid_hopf_algebroid(3, QQ).lb.base)
    built = []
    mult_matrix = Algebra._mult_matrix
    identity = Matrix.identity.__func__

    def counting_mult(self, u, side):
        built.append("multiplication")
        return mult_matrix(self, u, side)

    def counting_identity(cls, field, n):
        built.append("identity")
        return identity(cls, field, n)

    monkeypatch.setattr(Algebra, "_mult_matrix", counting_mult)
    monkeypatch.setattr(Matrix, "identity", classmethod(counting_identity))
    assert intpr_equivalences(m2, (QQ.one,) * m2.total.dim).passed
    assert verify_separability(sep).passed
    assert "multiplication" not in built
    counit = kz3.lb.counit
    assert verify_twist(kz3.lb, kz3.S, counit, counit).passed
    assert antipode_uniqueness(m2, m2).passed
    GaloisMaps(m2)
    assert "identity" not in built


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_products_match_the_dense_double_loop(data):
    A = data.draw(algebras())
    u, v = data.draw(vectors(A, 2))
    assert A.mul_vec(sparse(u), sparse(v)) == sparse(dense_mul(A, u, v))
    left, right = (A.left_mult_matrix(sparse(u)),
                   A.right_mult_matrix(sparse(u)))
    for j in range(A.dim):
        e = unit_vector(A.field, A.dim, j)
        assert left.col(j) == dense_mul(A, u, e)
        assert right.col(j) == dense_mul(A, e, u)
    basis = [unit_vector(A.field, A.dim, i) for i in range(A.dim)]
    commutative = all(dense_mul(A, x, y) == dense_mul(A, y, x)
                      for x in basis for y in basis)
    assert (opposite(A) == A) == commutative


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_verify_map_renders_the_unit_vector_report(data):
    A = data.draw(algebras())
    if data.draw(st.booleans()):
        B, cols = A, [unit_vector(A.field, A.dim, i) for i in range(A.dim)]
    else:
        B = data.draw(algebras(A.field))
        cols = data.draw(vectors(B, A.dim))
    kind = data.draw(st.sampled_from((HOM, ANTI)))
    f = AlgebraMap(A, B, Matrix.from_cols(B.field, cols, B.dim), kind, "f")
    assert (verify_map(f).render_text(ALL)
            == unit_vector_verify_map(f).render_text(ALL))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_mult_at_factor_matches_the_multiplication_matrices(data):
    A = data.draw(algebras())
    (u,) = data.draw(vectors(A, 1))
    n = data.draw(st.sampled_from((2, 3)))
    p = data.draw(st.integers(0, n - 1))
    dims = [data.draw(st.integers(1, 3)) if q != p else A.dim
            for q in range(n)]
    vec = data.draw(st.lists(st.sampled_from((0, 0, 1, -1, 2)),
                             min_size=prod(dims), max_size=prod(dims)))
    vec = tuple(A.field.of(x) for x in vec)
    left, right = (A.left_mult_matrix(sparse(u)),
                   A.right_mult_matrix(sparse(u)))
    assert (mult_at_factor(A, dims, p, sparse(vec), sparse(u), PRE)
            == sparse(dense_at_factor(dims, p, left, vec)))
    assert (mult_at_factor(A, dims, p, sparse(vec), sparse(u), POST)
            == sparse(dense_at_factor(dims, p, right, vec)))
    # n = 2: the same matrices on one leg of a tensor square
    square = (A.dim, A.dim)
    vec = data.draw(st.lists(st.sampled_from((0, 0, 1, -1, 2)),
                             min_size=A.dim ** 2, max_size=A.dim ** 2))
    vec = tuple(A.field.of(x) for x in vec)
    leg = data.draw(st.integers(0, 1))
    for m in (left, right):
        assert (on_leg(m, leg, sparse(vec))
                == sparse(dense_at_factor(square, leg, m, vec)))


# ---------------------------------------------------------------------------
# the unit-aware fast paths: one-entry operands, coefficients 0 (explicit),
# 1, -1, 2 and 1/2, and sums that cancel; every result is zero-free and a
# new dict, so writing into it changes no input vector and no table entry


def snapshot(A):
    return [[dict(entry) for entry in row] for row in A.table]


def sparse_vectors(field, size, count, max_entries, min_entries=0):
    """Sparse vectors of length ``size`` with ``min_entries`` to
    ``max_entries`` entries drawn from 0 (kept as an explicit entry), 1,
    -1, 2 and 1/2."""
    return st.lists(st.dictionaries(st.integers(0, size - 1),
                                    st.sampled_from(kernel_scalars(field)),
                                    min_size=min_entries,
                                    max_size=max_entries),
                    min_size=count, max_size=count)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_one_entry_products_match_the_dense_double_loop(data):
    A = data.draw(algebras())
    field, d = A.field, A.dim
    u, v = ({k: x} for k, x in data.draw(st.lists(
        st.tuples(st.integers(0, d - 1),
                  st.sampled_from(kernel_scalars(field))),
        min_size=2, max_size=2)))
    du, dv = dense(field, d, u), dense(field, d, v)
    table = snapshot(A)
    pairs = [(A.mul_vec(u, v), dense_mul(A, du, dv))]
    for i in range(d):
        e = unit_vector(field, d, i)
        pairs += [(side_product(A, u, i, PRE), dense_mul(A, du, e)),
                  (side_product(A, u, i, POST), dense_mul(A, e, du))]
    for got, want in pairs:
        assert got == sparse(want) and all(got.values())
        got[d] = field.one
    assert snapshot(A) == table


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_map_at_factor_matches_the_dense_factor_map(data):
    # the images repeat, so entries of ``vec`` that differ only at factor p
    # cancel
    field = data.draw(st.sampled_from((QQ, F7)))
    n = data.draw(st.sampled_from((2, 3)))
    p = data.draw(st.integers(0, n - 1))
    dims = [data.draw(st.integers(2 if q == p else 1, 3)) for q in range(n)]
    out_dim = data.draw(st.integers(1, 3))
    images = data.draw(sparse_vectors(field, out_dim, 2, out_dim))
    which = [data.draw(st.integers(0, 1)) for _ in range(dims[p])]
    m = Matrix.from_sparse_cols(field, [images[w] for w in which], out_dim)
    cols = [dict(col) for col in m.cols]
    size, stride = prod(dims), prod(dims[p + 1:])
    (vec,) = data.draw(sparse_vectors(field, size, 1, size, 1))
    # some entries are followed by their negative at an index of factor p
    # with the same image
    for pos, x in list(vec.items()):
        i = pos // stride % dims[p]
        twins = [j for j in range(dims[p]) if j != i and which[j] == which[i]]
        if twins and data.draw(st.booleans()):
            vec[pos + (data.draw(st.sampled_from(twins)) - i) * stride] = -x
    before = dict(vec)
    got = map_at_factor(dims, p, vec, out_dim, m.cols.__getitem__)
    assert got == sparse(dense_at_factor(dims, p, m, dense(field, size,
                                                           vec)))
    assert all(got.values())
    got[-1] = field.one
    assert [dict(col) for col in m.cols] == cols and vec == before


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_tensor_square_product_matches_the_dense_product(data):
    A = data.draw(algebras())
    field, d = A.field, A.dim
    w1, w2 = data.draw(sparse_vectors(field, d * d, 2, 4, 1))
    if d > 1 and data.draw(st.booleans()):
        # a w2 of two terms whose products with w1 cancel at a shared index
        r, s = data.draw(st.lists(st.integers(0, d * d - 1), min_size=2,
                                  max_size=2, unique=True))
        pr, ps = (dense_product(A, dense(field, d * d, w1),
                                dense(field, d * d, {q: field.one}))
                  for q in (r, s))
        shared = [k for k, (a, b) in enumerate(zip(pr, ps)) if a and b]
        if shared:
            k = data.draw(st.sampled_from(shared))
            w2 = {r: field.one, s: -pr[k] / ps[k]}
    before, table = (dict(w1), dict(w2)), snapshot(A)
    got = tensor_square_product(A, A, w1, w2)
    assert got == sparse(dense_product(A, dense(field, d * d, w1),
                                       dense(field, d * d, w2)))
    assert all(got.values())
    got[-1] = field.one
    assert (w1, w2) == before and snapshot(A) == table


# ---------------------------------------------------------------------------
# sparse tensor vectors of the bialgebroid verifiers against dense
# definitions: relations from unit-vector products, normal forms from the
# dense reduced echelon form, composites entry by entry


def dense_relations(A, junctions):
    """Every junction relation of A^{⊗m}, m = len(junctions) + 1, as dense
    vectors: (e_i·l) ⊗ e_j − e_i ⊗ (l·e_j) at each pair of adjacent factors
    and every index of the other factors."""
    d, field = A.dim, A.field
    m = len(junctions) + 1
    e = [unit_vector(field, d, i) for i in range(d)]

    def act(action, b, x):
        img = dense_matrix_apply(action.amap.matrix,
                                 unit_vector(field, action.base.dim, b))
        return dense_mul(A, img, x) if action.side == PRE else dense_mul(A, x, img)

    rels = []
    for p, junc in enumerate(junctions):
        for b in range(junc.base.dim):
            for i in range(d):
                for j in range(d):
                    left, right = act(junc.right, b, e[i]), act(junc.left, b, e[j])
                    for idx in product(range(d), repeat=m - 2):
                        rel = [field.zero] * d ** m
                        for k in range(d):
                            for (x, y), c in (((k, j), left[k]),
                                              ((i, k), -right[k])):
                                at = idx[:p] + (x, y) + idx[p:]
                                pos = sum(a * d ** (m - 1 - q)
                                          for q, a in enumerate(at))
                                rel[pos] = rel[pos] + c
                        rels.append(tuple(rel))
    return rels


class DenseQuotient:
    """A^{⊗m} modulo the junction relations, by the dense reduced echelon
    form of all of them."""

    def __init__(self, A, junctions):
        self.field = A.field
        self.rels = dense_relations(A, junctions)
        self.size = A.dim ** (len(junctions) + 1)
        red, pivots = dense_rref(Matrix.from_rows(self.field, self.rels,
                                                  self.size))
        self.rows = dict(zip(pivots, red.rows))
        self.free = [c for c in range(self.size) if c not in self.rows]

    def normal_form(self, vec):
        out = list(vec)
        for p, row in self.rows.items():
            c = out[p]
            if c:
                out = [a - c * b for a, b in zip(out, row)]
        return tuple(out)

    def project(self, vec):
        nf = self.normal_form(vec)
        return tuple(nf[c] for c in self.free)

    def equal(self, v, w):
        return not any(self.normal_form(tuple(a - b for a, b in zip(v, w))))


def dense_product(A, w1, w2):
    """(a⊗b)(a'⊗b') = aa' ⊗ bb' on dense vectors, over all index pairs."""
    d, zero = A.dim, A.field.zero
    out = [zero] * (d * d)
    for p1, c1 in enumerate(w1):
        for p2, c2 in enumerate(w2):
            i1, j1 = divmod(p1, d)
            i2, j2 = divmod(p2, d)
            for ka, ca in A.table[i1][i2].items():
                for kb, cb in A.table[j1][j2].items():
                    out[ka * d + kb] = out[ka * d + kb] + c1 * c2 * ca * cb
    return tuple(out)


def dense_coproduct_on_leg(gamma, w, leg):
    """(γ⊗id)(w) for leg 0 and (id⊗γ)(w) for leg 1, from the columns of a
    dense lift ``gamma``, entry by entry."""
    d = gamma.ncols
    out = [gamma.field.zero] * d ** 3
    for pos, c in enumerate(w):
        i, j = divmod(pos, d)
        for k, g in enumerate(gamma.col(j if leg else i)):
            at = i * d * d + k if leg else k * d + j
            out[at] = out[at] + c * g
    return tuple(out)


SPARSE_FIXTURES = {
    "pair2-left": lambda f: pair_groupoid_hopf_algebroid(2, f).lb,
    "pair2-right": lambda f: pair_groupoid_hopf_algebroid(2, f).rb,
    "kz3-left": lambda f: group_hopf_algebroid(FiniteGroup.cyclic(3), f).lb,
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_sparse_tensor_kernels_match_the_dense_definitions(data):
    field = data.draw(st.sampled_from((QQ, F7)))
    bgd = SPARSE_FIXTURES[data.draw(st.sampled_from(sorted(SPARSE_FIXTURES)))](field)
    A, d = bgd.total, bgd.total.dim
    pair = DenseQuotient(A, [bgd.junction()])
    triple = DenseQuotient(A, [bgd.junction(), bgd.junction()])
    coeffs = st.sampled_from((0, 0, 0, 1, -1, 2))

    def dense_vec(size):
        return tuple(field.of(x) for x in data.draw(
            st.lists(coeffs, min_size=size, max_size=size)))

    def relation(q):
        # a random combination of a few relation vectors of ``q``
        out = (field.zero,) * q.size
        for _ in range(data.draw(st.integers(0, 3))):
            c = field.of(data.draw(st.integers(1, 3)))
            rel = q.rels[data.draw(st.integers(0, len(q.rels) - 1))]
            out = tuple(a + c * b for a, b in zip(out, rel))
        return out

    # the same coproduct through a lift shifted by relation-span vectors
    shifted = Matrix.from_cols(field, [
        tuple(a + b for a, b in zip(col, relation(pair)))
        for col in bgd.gamma_lift.columns()], d * d)
    bgd = type(bgd)(A, bgd.base, bgd.s, bgd.t, shifted, bgd.counit)
    space, cube = bgd.tensor_space, bgd.coassoc_space
    canonical = Matrix.from_cols(field, [pair.normal_form(col)
                                         for col in shifted.columns()], d * d)
    assert [sparse(col) for col in canonical.columns()] == \
        list(bgd.canonical_gamma_lift)

    w1, w2 = dense_vec(d * d), dense_vec(d * d)
    moved = tuple(a + b for a, b in zip(w1, relation(pair)))
    assert space.coords(sparse(w1)) == sparse(pair.project(w1))
    assert space.normal_form(sparse(w1)) == sparse(pair.normal_form(w1))
    assert space.equal(sparse(w1), sparse(moved))
    assert space.equal(sparse(w1), sparse(w2)) == pair.equal(w1, w2)
    assert (tensor_square_product(A, A, sparse(w1), sparse(w2))
            == sparse(dense_product(A, w1, w2)))
    for leg in (0, 1):
        got = bgd.coproduct_on_leg(sparse(w1), leg)
        assert got == sparse(dense_coproduct_on_leg(canonical, w1, leg))
        # any representative of γ gives the same class in the triple
        other = dense_coproduct_on_leg(shifted, w1, leg)
        assert cube.equal(got, sparse(other))
        assert cube.coords(got) == sparse(triple.project(other))
        assert cube.equal(got, sparse(tuple(
            a + b for a, b in zip(other, relation(triple)))))


# ---------------------------------------------------------------------------
# weak Hopf algebras under single-entry corruptions of ε and Δ


def function_weak_hopf(field):
    """k^S₃ as the weak bialgebra of its scalar base, with its antipode:
    every column of Δ has six terms."""
    h = function_algebra_hopf(FiniteGroup.symmetric(3), field)
    return weak_bialgebra_from_sep(h.lb, separability_structure(h.lb.base),
                                   antipode=h.S)


WEAK = {
    "pair2": lambda f: pair_groupoid_weak_hopf(2, f),
    "kz3": lambda f: group_weak_hopf(FiniteGroup.cyclic(3), f),
    "fn-s3": function_weak_hopf,
}


def brute_force_weak_counit(w):
    """Certificates of ε(xy_(1))ε(y_(2)z) = ε(xyz) = ε(xy_(2))ε(y_(1)z),
    with every product a dense product of unit vectors."""
    A, d = w.algebra, w.dim
    e = [unit_vector(A.field, d, i) for i in range(d)]

    def eps(vec):
        return dense_matrix_apply(w.counit, vec)[0]

    pair = [[eps(dense_mul(A, e[a], e[b])) for b in range(d)]
            for a in range(d)]
    bad_l, bad_r = [], []
    for x in range(d):
        for y in range(d):
            dy = w.delta.col(y)
            xy = dense_mul(A, e[x], e[y])
            for z in range(d):
                target = eps(dense_mul(A, xy, e[z]))
                acc_l = acc_r = A.field.zero
                for i in range(d):
                    for j in range(d):
                        c = dy[i * d + j]
                        if c:
                            acc_l += c * pair[x][i] * pair[j][z]
                            acc_r += c * pair[x][j] * pair[i][z]
                names = ", ".join(A.basis_names[k] for k in (x, y, z))
                if acc_l != target:
                    bad_l.append(f"x,y,z = {names}")
                if acc_r != target:
                    bad_r.append(f"x,y,z = {names}")
    return bad_l, bad_r


def brute_force_weak_unit(w):
    """Whether (Δ(1)⊗1)(1⊗Δ(1)) and (1⊗Δ(1))(Δ(1)⊗1) equal (Δ⊗id)Δ(1),
    with every product of legs a dense product of unit vectors."""
    A, d = w.algebra, w.dim
    zero = A.field.zero
    e = [unit_vector(A.field, d, i) for i in range(d)]
    one = tuple(A.unit.get(i, zero) for i in range(d))
    u = dense_matrix_apply(w.delta, one)
    # (Δ⊗id)Δ(1) = Σ u_ij Δ(e_i) ⊗ e_j
    u2 = [zero] * d ** 3
    for i, j in product(range(d), repeat=2):
        if u[i * d + j]:
            for km, x in enumerate(w.delta.col(i)):
                u2[km * d + j] += u[i * d + j] * x
    ee = [[dense_mul(A, a, b) for b in e] for a in e]
    lhs, rhs = [zero] * d ** 3, [zero] * d ** 3
    for i, j, p, q in product(range(d), repeat=4):
        c = u[i * d + j] * u[p * d + q]
        if not c:
            continue
        for m, x in enumerate(ee[j][p]):
            lhs[(i * d + m) * d + q] += c * x
        for m, x in enumerate(ee[i][q]):
            rhs[(p * d + m) * d + j] += c * x
    return lhs == u2, rhs == u2


def brute_force_antipode_lr(w):
    """Certificates of x_(1) S(x_(2)) = ⊓^L(x) and S(x_(1)) x_(2) = ⊓^R(x),
    with ⊓^L(x) = ε(1_[1] x) 1_[2] and ⊓^R(x) = 1_[1] ε(x 1_[2]) read off
    dense products of unit vectors."""
    A, d = w.algebra, w.dim
    zero = A.field.zero
    e = [unit_vector(A.field, d, i) for i in range(d)]
    one = tuple(A.unit.get(i, zero) for i in range(d))
    u = dense_matrix_apply(w.delta, one)
    s = [w.antipode.col(j) for j in range(d)]
    # eps2[a][b] = ε(e_a e_b)
    eps2 = [[dense_matrix_apply(w.counit, dense_mul(A, a, b))[0] for b in e]
            for a in e]

    def scaled_sum(terms):
        out = [zero] * d
        for c, vec in terms:
            for k, x in enumerate(vec):
                out[k] += c * x
        return tuple(out)

    units = [(i, j) for i, j in product(range(d), repeat=2) if u[i * d + j]]
    bad_l, bad_r = [], []
    for x in range(d):
        dx = w.delta.col(x)
        terms = [(i, j) for i, j in product(range(d), repeat=2)
                 if dx[i * d + j]]
        capl = scaled_sum((u[i * d + j] * eps2[i][x], e[j]) for i, j in units)
        capr = scaled_sum((u[i * d + j] * eps2[x][j], e[i]) for i, j in units)
        left = scaled_sum((dx[i * d + j], dense_mul(A, e[i], s[j]))
                          for i, j in terms)
        right = scaled_sum((dx[i * d + j], dense_mul(A, s[i], e[j]))
                           for i, j in terms)
        if left != capl:
            bad_l.append(A.basis_names[x])
        if right != capr:
            bad_r.append(A.basis_names[x])
    return bad_l, bad_r


def corrupted(w, target, row, col, delta):
    m = w.delta if target == "delta" else w.counit
    rows = [list(r) for r in m.rows]
    rows[row][col] += w.field.of(delta)
    m = Matrix(w.field, m.nrows, m.ncols, rows)
    if target == "delta":
        return WeakHopfAlgebra(w.algebra, m, w.counit, w.antipode)
    return WeakHopfAlgebra(w.algebra, w.delta, m, w.antipode)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_weak_hopf_corruptions_fail_with_certificates(data):
    field = data.draw(st.sampled_from((QQ, F7)))
    w = WEAK[data.draw(st.sampled_from(sorted(WEAK)))](field)
    target = data.draw(st.sampled_from(("delta", "counit")))
    m = w.delta if target == "delta" else w.counit
    bad = corrupted(w, target, data.draw(st.integers(0, m.nrows - 1)),
                    data.draw(st.integers(0, m.ncols - 1)),
                    data.draw(st.sampled_from((-2, -1, 1, 2))))
    rep = verify_weak_hopf(bad)
    bad_l, bad_r = brute_force_weak_counit(bad)
    assert rep.find("weak-counit-left").certificates == bad_l
    assert rep.find("weak-counit-right").certificates == bad_r
    assert rep.find("weak-counit-left").ok == (not bad_l)
    assert rep.find("weak-counit-right").ok == (not bad_r)
    ok_l, ok_r = brute_force_weak_unit(bad)
    assert rep.find("weak-unit-left").ok == ok_l
    assert rep.find("weak-unit-right").ok == ok_r
    bad_l, bad_r = brute_force_antipode_lr(bad)
    assert rep.find("antipode-l").certificates == bad_l
    assert rep.find("antipode-r").certificates == bad_r
    assert rep.find("antipode-l").ok == (not bad_l)
    assert rep.find("antipode-r").ok == (not bad_r)
    failures = rep.failures()
    assert failures
    assert all(c.certificates for c in failures)


def test_weak_hopf_fixtures_pass_the_brute_force_counit_law():
    for make in WEAK.values():
        for field in (QQ, F7):
            w = make(field)
            assert brute_force_weak_counit(w) == ([], [])
            assert brute_force_weak_unit(w) == (True, True)
            assert brute_force_antipode_lr(w) == ([], [])
            assert verify_weak_hopf(w).passed


# ---------------------------------------------------------------------------
# the Frobenius system of a non-degenerate integral


def brute_force_frobenius(nd):
    """Certificates of frob-bimodule (both halves, and the two in the
    check's order), frob-left and frob-right, with every product a dense
    product of unit vectors and x ⊗ y = ℓ⁽¹⁾ ⊗ S(ℓ⁽²⁾) summed term by term
    over the coproduct lift of ℓ."""
    h = nd.parent
    rb, A, R = h.rb, h.total, h.rb.base
    d, field = A.dim, A.field
    e = [unit_vector(field, d, i) for i in range(d)]
    er = [unit_vector(field, R.dim, r) for r in range(R.dim)]

    def lam(vec):
        return dense_matrix_apply(nd.lambda_star, vec)

    def s_r(vec):
        return dense_matrix_apply(rb.s.matrix, vec)

    def fmt(algebra, vec):
        return algebra.fmt_vec(sparse(vec))

    pre, post, both = [], [], []
    for r in range(R.dim):
        for i in range(d):
            at = f"r = {R.basis_names[r]}, a = {A.basis_names[i]}: "
            lhs = lam(dense_mul(A, s_r(er[r]), e[i]))
            rhs = dense_mul(R, er[r], lam(e[i]))
            if lhs != rhs:
                pre.append(at + f"λ*(s_R(r)a) = {fmt(R, lhs)} ≠ "
                                f"rλ*(a) = {fmt(R, rhs)}")
                both.append(pre[-1])
            lhs = lam(dense_mul(A, e[i], s_r(er[r])))
            rhs = dense_mul(R, lam(e[i]), er[r])
            if lhs != rhs:
                post.append(at + f"λ*(a s_R(r)) = {fmt(R, lhs)} ≠ "
                                 f"λ*(a)r = {fmt(R, rhs)}")
                both.append(post[-1])

    # x ⊗ y = Σ c e_k ⊗ S(e_j) over the terms c e_k ⊗ e_j of the lift
    legs = [(c, e[idx // d], h.S.col(idx % d))
            for idx, c in rb.coproduct_lift(nd.ell).items()]
    left, right = [], []
    for i in range(d):
        acc_l, acc_r = [field.zero] * d, [field.zero] * d
        for c, x, y in legs:
            terms = (dense_mul(A, x, s_r(lam(dense_mul(A, y, e[i])))),
                     dense_mul(A, s_r(lam(dense_mul(A, e[i], x))), y))
            for acc, term in zip((acc_l, acc_r), terms):
                for k, t in enumerate(term):
                    acc[k] += c * t
        name = A.basis_names[i]
        if tuple(acc_l) != e[i]:
            left.append(f"a = {name}: Σ x·s_R(λ*(y a)) = {fmt(A, acc_l)}")
        if tuple(acc_r) != e[i]:
            right.append(f"a = {name}: Σ s_R(λ*(a x))·y = {fmt(A, acc_r)}")
    return pre, post, both, left, right


def m2_witness_raised_at(row, col):
    """The M2 witness at ℓ = Σ e_ij with λ* entry (row, col) raised by 1."""
    h = pair_groupoid_hopf_algebroid(2, QQ)
    nd = nondegeneracy(h, (QQ.one,) * 4)
    rows = [list(r) for r in nd.lambda_star.rows]
    rows[row][col] += QQ.one
    nd.lambda_star = Matrix(QQ, len(rows), 4, rows)
    return nd


def assert_frobenius_matches(nd):
    rep = frobenius_check(nd)
    pre, post, both, left, right = brute_force_frobenius(nd)
    for cid, certificates in (("frob-bimodule", both), ("frob-left", left),
                              ("frob-right", right)):
        assert rep.find(cid).certificates == certificates, cid
        assert rep.find(cid).ok == (not certificates), cid
    return pre, post, left, right


def test_frobenius_check_matches_the_dense_sums_on_raised_witnesses():
    # λ*(d1, e12) breaks the right half and frob-left, λ*(d2, e12) the left
    # half and frob-right
    pre, post, left, right = assert_frobenius_matches(
        m2_witness_raised_at(0, 1))
    assert not pre and post and left and not right
    pre, post, left, right = assert_frobenius_matches(
        m2_witness_raised_at(1, 1))
    assert pre and not post and not left and right


def test_frobenius_check_matches_the_dense_sums_on_the_catalog():
    for fx in all_fixtures():
        nd = nondegeneracy(fx["hopf"], fx["integral"])
        assert assert_frobenius_matches(nd) == ([], [], [], []), fx["name"]
