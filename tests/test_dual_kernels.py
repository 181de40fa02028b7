"""The dual-space kernels against unit-vector references.

``DualModule.product`` composes one factor with an action matrix read from
the canonical coproduct lift and ``Algebra.table``; ``acting_on`` builds the
same action as a matrix in the functional, for one fixed element;
``pairing_system``
reads the pairing and right-hand side of the coproduct equations from
``table``; ``Matrix.solve_matrix_kernel`` takes the pairing kernel from the
elimination that solves them.  Each is compared here with the evaluation
that builds unit vectors and multiplies them, on catalog bialgebroids over
ℚ and GF(7), with and without a corrupted coproduct lift.
"""

from hypothesis import given, settings, strategies as st

from algebroids.bialgebroid import LeftBialgebroid, RightBialgebroid
from algebroids.catalog import (
    Character,
    FiniteGroup,
    character_twisted_hopf,
    group_hopf_algebroid,
    pair_groupoid_hopf_algebroid,
)
from algebroids.dualspace import (
    LOWER_STAR,
    STAR_LOWER,
    STAR_UPPER,
    UPPER_STAR,
    DualModule,
    act,
    acting_on,
    action_matrix,
    flatten,
    pairing_system,
)
from algebroids.exactfield import Matrix, PrimeField, RationalField, sparse
from dense_reference import dense_matrix_apply as apply, dense_mul_vec

QQ = RationalField()
F7 = PrimeField(7)

FIXTURES = {
    "kz2": lambda f: group_hopf_algebroid(FiniteGroup.cyclic(2), f),
    "kz2-twisted": lambda f: character_twisted_hopf(
        FiniteGroup.cyclic(2), f,
        Character(FiniteGroup.cyclic(2), f, [f.one, -f.one])),
    "kz3": lambda f: group_hopf_algebroid(FiniteGroup.cyclic(3), f),
    "pair2": lambda f: pair_groupoid_hopf_algebroid(2, f),
}
# the fixtures whose coproduct lifts are also drawn corrupted
CORRUPTIBLE = ("kz3", "pair2")


# ---------------------------------------------------------------------------
# unit-vector references


def unit_vector_product(module, phi, psi):
    """The convolution product as the four hand-written formulas evaluate
    it, one unit vector and one coproduct lift per basis element."""
    bgd, kind = module.bgd, module.kind
    A = bgd.total
    d = A.dim
    s, t = bgd.s.matrix, bgd.t.matrix

    def mul(u, v):
        return dense_mul_vec(A, u, v)

    cols = []
    for aidx in range(d):
        lift = bgd.coproduct_lift({aidx: A.field.one})
        w = [lift.get(k, A.field.zero) for k in range(d * d)]
        acc = (A.field.zero,) * bgd.base.dim
        for k in range(d):
            block = w[k * d:(k + 1) * d]
            if not any(block):
                continue
            if kind == LOWER_STAR:
                # (φψ)(a) = ψ(s_L(φ(a_(1))) a_(2))
                val = apply(psi, mul(apply(s, phi.col(k)), block))
            elif kind == STAR_LOWER:
                # (φψ)(a) = ψ(t_L(φ(a_(2))) a_(1))
                val = apply(psi, mul(apply(t, apply(phi, block)),
                                     A.basis_vec(k)))
            elif kind == UPPER_STAR:
                # (φψ)(a) = φ(a^(2) t_R(ψ(a^(1))))
                val = apply(phi, mul(block, apply(t, psi.col(k))))
            else:
                # (φψ)(a) = φ(a^(1) s_R(ψ(a^(2))))
                val = apply(phi, mul(A.basis_vec(k),
                                     apply(s, apply(psi, block))))
            acc = tuple(x + y for x, y in zip(acc, val))
        cols.append(acc)
    return Matrix.from_cols(bgd.field, cols, bgd.base.dim)


def unit_vector_pairing(lb, module):
    """Pairing and right-hand side of ⟨γ̂(φ), a⊗b⟩ = φ(ab), by multiplying
    unit vectors once per (u, v, a, b) and per (w, a, b)."""
    A = lb.total
    d, dl, n = A.dim, lb.base.dim, module.dim
    basis = module.basis
    pairing_cols = []
    for u in range(n):
        for v in range(n):
            col = []
            for a in range(d):
                for b in range(d):
                    tv = apply(lb.t.matrix, basis[v].col(b))
                    col.extend(apply(basis[u], dense_mul_vec(
                        A, A.basis_vec(a), tv)))
            pairing_cols.append(col)
    rhs_cols = []
    for w in range(n):
        col = []
        for a in range(d):
            for b in range(d):
                col.extend(apply(basis[w], dense_mul_vec(
                    A, A.basis_vec(a), A.basis_vec(b))))
        rhs_cols.append(col)
    return (Matrix.from_cols(lb.field, pairing_cols, d * d * dl),
            Matrix.from_cols(lb.field, rhs_cols, d * d * dl))


# ---------------------------------------------------------------------------
# inputs


def with_lift(bgd, gamma):
    return type(bgd)(bgd.total, bgd.base, bgd.s, bgd.t, gamma, bgd.counit,
                     name=bgd.name)


@st.composite
def bialgebroids(draw, sides=(LeftBialgebroid, RightBialgebroid)):
    """A catalog left or right bialgebroid over ℚ or GF(7), possibly with
    one or two entries of its coproduct lift shifted."""
    field = draw(st.sampled_from((QQ, F7)))
    name = draw(st.sampled_from(sorted(FIXTURES)))
    h = FIXTURES[name](field)
    side = draw(st.sampled_from(sides))
    bgd = h.lb if side is LeftBialgebroid else h.rb
    if name in CORRUPTIBLE and draw(st.booleans()):
        rows = [list(r) for r in bgd.gamma_lift.rows]
        for _ in range(draw(st.integers(1, 2))):
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, bgd.total.dim - 1))
            shift = draw(st.sampled_from((-1, 1, 2)))
            rows[i][j] = rows[i][j] + field.of(shift)
        bgd = with_lift(bgd, Matrix.from_rows(field, rows, bgd.total.dim))
    return bgd


def functional(draw, module):
    """A member of the module, or any base-valued matrix."""
    field = module.field
    coeffs = st.sampled_from((0, 0, 1, -1, 2))
    if module.dim and draw(st.booleans()):
        return module.element(sparse(field.of(draw(coeffs))
                                     for _ in range(module.dim)))
    rows = [[field.of(draw(coeffs)) for _ in range(module.total.dim)]
            for _ in range(module.base.dim)]
    return Matrix.from_rows(field, rows, module.total.dim)


def assert_null_space(m, kern):
    """``kern`` is all of {x : m x = 0}: m kills it and it has the
    dimension ncols - rank."""
    assert all(not m.apply(x) for x in kern.sparse_basis())
    assert kern.dim == m.ncols - m.rank()


def kinds_of(bgd):
    if isinstance(bgd, LeftBialgebroid):
        return (LOWER_STAR, STAR_LOWER)
    return (UPPER_STAR, STAR_UPPER)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_product_is_the_unit_vector_convolution(data):
    bgd = data.draw(bialgebroids())
    module = DualModule(bgd, data.draw(st.sampled_from(kinds_of(bgd))))
    phi = functional(data.draw, module)
    psis = [functional(data.draw, module) for _ in range(2)]
    want = [unit_vector_product(module, phi, psi) for psi in psis]
    assert [module.product(phi, psi) for psi in psis] == want
    assert module.products(phi, psis) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_action_matrix_columns_are_the_actions(data):
    bgd = data.draw(bialgebroids())
    kind = data.draw(st.sampled_from(kinds_of(bgd)))
    module = DualModule(bgd, kind)
    phi = functional(data.draw, module)
    A = bgd.total
    matrix = action_matrix(bgd, kind, phi)
    field = bgd.field
    for a in range(A.dim):
        assert matrix.cols[a] == act(bgd, kind, phi, {a: field.one})
    # the same action with the element fixed and the functional running
    avec = sparse(field.of(data.draw(st.sampled_from((0, 0, 1, -1, 2))))
                  for _ in range(A.dim))
    assert (acting_on(bgd, kind, avec).apply(flatten(phi))
            == act(bgd, kind, phi, avec))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bialgebroids(sides=(LeftBialgebroid,)))
def test_pairing_system_is_the_unit_vector_pairing(lb):
    module = DualModule(lb, LOWER_STAR)
    pairing, rhs = pairing_system(lb, module)
    want_pairing, want_rhs = unit_vector_pairing(lb, module)
    assert pairing == want_pairing
    assert rhs == want_rhs
    # the kernel comes from the elimination that solves the system
    sol, kern = pairing.solve_matrix_kernel(rhs)
    twin = Matrix(pairing.field, pairing.nrows, pairing.ncols, pairing.rows)
    if sol is None:
        assert kern is None
        joined = Matrix.from_sparse_cols(pairing.field, pairing.cols + rhs.cols,
                                         pairing.nrows)
        assert joined.rank() > twin.rank()
    else:
        assert twin @ sol == rhs
        assert kern == twin.kernel()
        assert_null_space(twin, kern)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_solve_matrix_kernel_matches_solve_and_kernel(data):
    field = data.draw(st.sampled_from((QQ, F7)))
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 4))
    entries = st.sampled_from((0, 0, 1, -1, 3))

    def matrix(width):
        return Matrix.from_rows(field, [
            [field.of(data.draw(entries)) for _ in range(width)]
            for _ in range(nrows)], width)

    m = matrix(ncols)
    rhs = matrix(data.draw(st.integers(1, 3)))
    if data.draw(st.booleans()):
        # a solvable right-hand side
        rhs = m @ Matrix.from_rows(field, [
            [field.of(data.draw(entries)) for _ in range(rhs.ncols)]
            for _ in range(ncols)], rhs.ncols)
    sol, kern = m.solve_matrix_kernel(rhs)
    twin = Matrix(field, m.nrows, m.ncols, m.rows)
    if sol is None:
        assert kern is None
        joined = Matrix.from_sparse_cols(m.field, m.cols + rhs.cols,
                                         m.nrows)
        assert joined.rank() > twin.rank()
    else:
        assert m @ sol == rhs
        assert kern == twin.kernel()
        assert_null_space(twin, kern)


def test_solve_matrix_builds_no_kernel(monkeypatch):
    """``solve_matrix`` reads X from the elimination of [M | rhs] and leaves
    the kernel unbuilt; only ``solve_matrix_kernel`` builds it."""
    built = []
    kernel_from = Matrix._kernel_from

    def counted(self, ech):
        built.append(ech)
        return kernel_from(self, ech)

    monkeypatch.setattr(Matrix, "_kernel_from", counted)
    m = Matrix.from_rows(QQ, [[QQ.one, QQ.of(2)], [QQ.zero, QQ.zero]], 2)
    rhs = Matrix.from_rows(QQ, [[QQ.of(3)], [QQ.zero]], 1)
    assert m @ m.solve_matrix(rhs) == rhs
    assert not built
    sol, kern = m.solve_matrix_kernel(rhs)
    assert sol == m.solve_matrix(rhs) and kern.dim == 1
    assert len(built) == 1
