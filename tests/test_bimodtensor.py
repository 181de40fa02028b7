"""Balanced tensor products over declared base actions."""

import functools
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from algebroids.algebra import (ANTI, HOM, Algebra, AlgebraMap, combine,
                                opposite, sparse)
from algebroids.bialgebroid import LeftBialgebroid, verify_left_bialgebroid
from algebroids.catalog import (FiniteGroup, all_fixtures,
                                group_hopf_algebroid,
                                pair_groupoid_hopf_algebroid)
from algebroids.exactfield import Matrix, PrimeField, RationalField, SparseEchelon
from algebroids.bimodtensor import (
    PRE,
    POST,
    ActionSpec,
    BalancedTensorSpace,
    Junction,
)
from algebroids.algebra import separability_structure, tensor_vec
from algebroids.hopfcore import HopfAlgebroid, verify_hopf
from dense_reference import dense_matrix_apply, dense_mul_vec

import pytest

QQ = RationalField()


def test_junction_kind_validation(m2):
    lb = m2.lb
    # the left-bialgebroid junction: right action by t (PRE, needs ANTI),
    # left action by s (PRE, needs HOM)
    Junction(ActionSpec(lb.t, PRE), ActionSpec(lb.s, PRE))
    # wrong kinds in either slot must be rejected
    with pytest.raises(ValueError):
        Junction(ActionSpec(lb.s, PRE), ActionSpec(lb.s, PRE))
    with pytest.raises(ValueError):
        Junction(ActionSpec(lb.t, PRE), ActionSpec(lb.t, PRE))
    # right-bialgebroid junction: right action by s (POST, HOM), left by t
    rb = m2.rb
    Junction(ActionSpec(rb.s, POST), ActionSpec(rb.t, POST))
    with pytest.raises(ValueError):
        Junction(ActionSpec(rb.t, POST), ActionSpec(rb.s, POST))


def test_m2_tensor_square_dimension(m2):
    space = m2.lb.tensor_space
    assert space.dim == 8
    assert space.relation_rank == 16 - 8


def test_m2_triple_dimension(m2):
    space = m2.lb.coassoc_space
    # A ⊗_L A ⊗_L A for the pair groupoid: composable triples
    assert space.dim == 16


def test_coords_section_roundtrip(m2):
    space = m2.lb.tensor_space
    section = space.section_matrix()
    rng = random.Random(21)
    for _ in range(20):
        w = sparse(QQ.of(rng.randrange(-3, 4)) for _ in range(16))
        q = space.coords(w)
        assert space.projection_matrix().apply(w) == q
        # the section of the class is equal to w modulo relations
        assert space.equal(section.apply(q), w)
        # taking coordinates again is stable
        assert space.coords(section.apply(q)) == q


def test_normal_form_idempotent(m2):
    space = m2.lb.tensor_space
    rng = random.Random(22)
    for _ in range(10):
        w = sparse(QQ.of(rng.randrange(-3, 4)) for _ in range(16))
        nf = space.normal_form(w)
        assert space.normal_form(nf) == nf
        assert space.equal(nf, w)


def test_projection_section_matrices(m2):
    space = m2.lb.tensor_space
    p = space.projection_matrix()
    s = space.section_matrix()
    assert (p @ s).is_identity()


def test_relations_die_in_quotient(m2):
    lb = m2.lb
    A = lb.total
    L = lb.base
    space = lb.tensor_space
    rng = random.Random(23)
    for _ in range(20):
        a = sparse(QQ.of(rng.randrange(-2, 3)) for _ in range(A.dim))
        b = sparse(QQ.of(rng.randrange(-2, 3)) for _ in range(A.dim))
        lidx = rng.randrange(L.dim)
        tl = lb.t.apply({lidx: QQ.one})
        sl = lb.s.apply({lidx: QQ.one})
        # (t(l) a) ⊗ b  ~  a ⊗ (s(l) b)
        left = tensor_vec(A.dim, A.mul_vec(tl, a), b)
        right = tensor_vec(A.dim, a, A.mul_vec(sl, b))
        assert space.is_zero_class(combine(((QQ.one, left),
                                            (-QQ.one, right))))
        assert space.equal(left, right)


def test_permuted_basis_same_dimension(qq):
    # rebuild M3's tensor square with a shuffled basis order: the quotient
    # dimension is basis independent
    from algebroids.catalog import pair_groupoid_hopf_algebroid
    import random as _r

    h = pair_groupoid_hopf_algebroid(3, qq)
    base_dim = h.lb.tensor_space.dim
    assert base_dim == 27

    from algebroids.exactfield import Matrix
    from algebroids.algebra import Algebra, AlgebraMap, HOM, ANTI
    
    A = h.total
    perm = list(range(A.dim))
    _r.Random(99).shuffle(perm)
    inv = [perm.index(i) for i in range(A.dim)]
    names = [A.basis_names[perm[i]] for i in range(A.dim)]
    struct = {}
    for i in range(A.dim):
        for j in range(A.dim):
            for k, val in A.table[perm[i]][perm[j]].items():
                struct[(i, j, inv[k])] = val
    A2 = Algebra.from_struct(qq, names, struct, name="M3-shuffled")
    s_cols = [tuple(h.lb.s.matrix.col(j)[perm[i]] for i in range(A.dim))
              for j in range(h.lb.base.dim)]
    s2 = AlgebraMap(h.lb.base, A2,
                    Matrix.from_cols(qq, s_cols, A.dim), HOM, "s")
    t2 = s2.with_kind(ANTI)
    junction = Junction(ActionSpec(t2, PRE), ActionSpec(s2, PRE))
    space = BalancedTensorSpace([A2, A2], [junction])
    assert space.dim == base_dim


# ---------------------------------------------------------------------------
# triples are built on a pair quotient; they must agree with one elimination
# of every relation of both junctions over the full cube


def reference_echelon(A, junctions):
    """Every relation of both junctions of A ⊗ A ⊗ A, eliminated in d³."""
    d = A.dim
    zero = A.field.zero
    ech = SparseEchelon(A.field, d ** 3)

    def act(action, b, i):
        # the base basis element b acting on e_i by multiplying unit vectors
        img = dense_matrix_apply(action.amap.matrix,
                                 action.base.basis_vec(b))
        if action.side == PRE:
            return dense_mul_vec(A, img, A.basis_vec(i))
        return dense_mul_vec(A, A.basis_vec(i), img)

    for p, junc in enumerate(junctions):
        for b in range(junc.base.dim):
            acted_r = [act(junc.left, b, j) for j in range(d)]
            for i in range(d):
                acted_l = act(junc.right, b, i)
                for j in range(d):
                    pair = {}
                    for k in range(d):
                        pair[k, j] = pair.get((k, j), zero) + acted_l[k]
                        pair[i, k] = pair.get((i, k), zero) - acted_r[j][k]
                    for other in range(d):
                        ech.insert({(other * d * d + x * d + y if p else
                                     x * d * d + y * d + other): c
                                    for (x, y), c in pair.items() if c})
    return ech


def candidate_junction(s_l, S):
    """The candidate right-handed junction ``check_luiiv`` builds from s_L
    and S."""
    A = s_l.target
    R = opposite(s_l.source)
    s_r = AlgebraMap(R, A, S @ s_l.matrix, HOM, "s_R")
    t_r = AlgebraMap(R, A, s_l.matrix, ANTI, "t_R")
    return Junction(ActionSpec(s_r, POST), ActionSpec(t_r, POST))


def verifier_triples(h):
    """name -> (staged space, its two junctions), as the verifiers build them."""
    lb, rb, A = h.lb, h.rb, h.total
    cand = candidate_junction(lb.s, h.S)
    return {
        "coassoc": (lb.coassoc_space, [lb.junction(), lb.junction()]),
        "llr": (h.llr_space, [lb.junction(), rb.junction()]),
        "rrl": (h.rrl_space, [rb.junction(), lb.junction()]),
        "luiv-llr": (BalancedTensorSpace([lb.tensor_space, A], [cand]),
                   [lb.junction(), cand]),
        "luiv-rrl": (BalancedTensorSpace(
            [BalancedTensorSpace([A, A], [cand]), A], [lb.junction()]),
            [cand, lb.junction()]),
    }


def rebased_triples(h):
    """The same five junction pairs on h's algebra in the basis
    b_i = e_i + e_(i+1), where the pair quotients' echelon rows carry
    several free entries instead of one."""
    A, field, d = h.total, h.field, h.total.dim
    P = Matrix.from_cols(field, [tuple(field.one if k in (i, i + 1)
                                       else field.zero for k in range(d))
                                 for i in range(d)], d)
    back = P.inverse()
    struct = {}
    for i in range(d):
        for j in range(d):
            prod = back.apply(A.mul_vec(P.cols[i], P.cols[j]))
            struct.update({(i, j, k): c for k, c in prod.items()})
    B = Algebra.from_struct(field, A.basis_names, struct, name="rebased")

    def moved(m):
        return AlgebraMap(m.source, B, back @ m.matrix, m.kind, m.name)

    s_l = moved(h.lb.s)
    lj = Junction(ActionSpec(moved(h.lb.t), PRE), ActionSpec(s_l, PRE))
    rj = Junction(ActionSpec(moved(h.rb.s), POST),
                  ActionSpec(moved(h.rb.t), POST))
    cand = candidate_junction(s_l, back @ h.S @ P)
    pairs = {"coassoc": [lj, lj], "llr": [lj, rj], "rrl": [rj, lj],
             "luiv-llr": [lj, cand], "luiv-rrl": [cand, lj]}
    return {name: (BalancedTensorSpace(
        [BalancedTensorSpace([B, B], js[:1]), B], js[1:]), js)
        for name, js in pairs.items()}


@pytest.mark.parametrize("n,field,rebase", [
    (2, QQ, False), (3, QQ, False), (2, PrimeField(101), False),
    (2, QQ, True), (3, PrimeField(101), True)],
    ids=["pair2", "pair3", "pair2-gf101", "pair2-rebased",
         "pair3-rebased-gf101"])
def test_staged_triples_match_the_cube_elimination(n, field, rebase):
    h = pair_groupoid_hopf_algebroid(n, field)
    triples = rebased_triples(h) if rebase else verifier_triples(h)
    d = h.total.dim
    rng = random.Random(31 + n)

    for name, (space, junctions) in triples.items():
        A = space.algebras[0]
        ref = reference_echelon(A, junctions)
        unshared = BalancedTensorSpace([A, A, A], junctions)
        if rebase:
            assert max(len(r) for r in space.head.echelon.rows.values()) > 2
        for sp in (space, unshared):
            assert sp.total_dim == d ** 3, name
            assert sp.free_cols == tuple(c for c in range(d ** 3)
                                         if c not in ref.rows), name
            assert sp.relation_rank == ref.rank == d ** 3 - sp.dim, name
        pivots = sorted(ref.rows)
        for _ in range(6):
            v = {rng.randrange(d ** 3): field.of(rng.randrange(-3, 4))
                 for _ in range(rng.randrange(1, 3 * d))}
            v = {i: a for i, a in v.items() if a}
            rel = combine((field.of(rng.randrange(1, 4)), ref.rows[p])
                          for p in rng.sample(pivots, min(4, len(pivots))))
            w = combine(((field.one, v), (field.one, rel)))
            nf = ref.reduce(v)
            for sp in (space, unshared):
                assert sp.normal_form(v) == sp.normal_form(w) == nf, name
                assert sp.equal(v, w) and sp.is_zero_class(rel), name
                assert sp.is_zero_class(v) == (not nf), name
                assert sp.equal(v, nf) and sp.coords(w) == sp.coords(nf)
                bumped = combine(((field.one, v),
                                  (field.one, {sp.free_cols[0]: field.one})))
                assert not sp.equal(v, bumped), name


def test_triples_share_the_pair_quotient(m2):
    h = m2
    assert h.lb.coassoc_space.head is h.lb.tensor_space
    assert h.llr_space.head is h.lb.tensor_space
    assert h.rrl_space.head is h.rb.tensor_space
    assert h.lb.tensor_space.head is None


# ---------------------------------------------------------------------------
# a triple decides equality by the separability projection P and builds its
# echelon only on demand; P must agree with one elimination over the cube

F7 = PrimeField(7)


@functools.cache
def catalog_triples(field):
    """(fixture/triple name, staged space, reference echelon) for the five
    verifier triples of every catalog fixture over ``field`` and their
    rebased twins."""
    out = []
    for fx in all_fixtures(field):
        h = fx["hopf"]
        for tag, triples in (("", verifier_triples(h)),
                             ("rebased ", rebased_triples(h))):
            for name, (space, junctions) in triples.items():
                out.append((f"{fx['name']} {tag}{name}", space,
                            reference_echelon(space.algebras[0], junctions)))
    return tuple(out)


def fresh_twin(space):
    """A new staged triple on the same head and last junction: nothing has
    read its echelon yet."""
    return BalancedTensorSpace([space.head, space.algebras[-1]],
                               space.junctions[-1:])


def sparse_vectors(field, n):
    """Sparse vectors of length ``n`` with a few small entries."""
    return st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3),
                           max_size=6).map(
        lambda v: {i: field.of(a) for i, a in v.items() if field.of(a)})


def check_against_reference(data, field, sp, ref):
    """``equal`` and ``is_zero_class`` of ``sp`` on drawn vectors, each
    shifted by a drawn relation, against the reference echelon."""
    n = sp.total_dim
    pivots = sorted(ref.rows)
    free = [c for c in range(n) if c not in ref.rows]
    for _ in range(3):
        v = data.draw(sparse_vectors(field, n))
        picks = data.draw(st.lists(st.tuples(
            st.sampled_from(pivots), st.integers(1, 3)),
            max_size=4)) if pivots else []
        rel = combine((field.of(c), ref.rows[p]) for p, c in picks
                      if field.of(c))
        w = combine(((field.one, v), (field.one, rel)))
        nf = ref.reduce(v)
        assert sp.is_zero_class(rel)
        assert sp.equal(v, w) and sp.equal(w, nf)
        assert sp.is_zero_class(v) == (not nf)
        assert sp.is_zero_class(w) == (not nf)
        if free:
            c = data.draw(st.sampled_from(free))
            assert not sp.equal(v, combine(((field.one, v),
                                            (field.one, {c: field.one}))))


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "GF7"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_projection_decides_like_the_echelon(field, data):
    """On a fresh triple of every catalog fixture, before anything builds
    its echelon, P decides ``equal`` and ``is_zero_class`` as the
    elimination of every relation over the cube does; P∘P = P and v − P(v)
    is a relation.  Deciding leaves the echelon unbuilt."""
    for name, space, ref in catalog_triples(field):
        sp = fresh_twin(space)
        k = sp.field
        check_against_reference(data, k, sp, ref)
        v = data.draw(sparse_vectors(k, sp.total_dim))
        pv = sp.separability_projection(v)
        assert pv is not None, name
        assert sp.separability_projection(pv) == pv, name
        moved = combine(((k.one, v), (-k.one, pv)))
        assert sp.is_zero_class(moved) and not ref.reduce(moved), name
        assert sp._echelon is None, name


# the fallback: where P does not decide, the echelon does


def upper_triangular(field):
    """T₂, the upper-triangular 2×2 matrices: not separable."""
    struct = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1}
    return Algebra.from_struct(field, ("e11", "e12", "e22"), struct,
                               name="T2")


def matrix_algebra(field):
    """M₂ on e11, e12, e21, e22 and its diagonal k², with the inclusion."""
    struct = {(2 * i + j, 2 * j + k, 2 * i + k): 1
              for i in range(2) for j in range(2) for k in range(2)}
    A = Algebra.from_struct(field, ("e11", "e12", "e21", "e22"), struct,
                            name="M2")
    L = Algebra.from_struct(field, ("d1", "d2"),
                            {(0, 0, 0): 1, (1, 1, 1): 1}, name="k2")
    return A, L


def images(field, L, A, cols, kind):
    return AlgebraMap(L, A, Matrix.from_cols(
        field, [[field.of(x) for x in c] for c in cols], A.dim), kind)


def fallback_triples(field):
    """name -> (triple over [A, A, A], its junctions) where P does not
    decide:
    - ``T2``: A ⊗_A A ⊗_A A over T₂, which has no separability idempotent;
    - ``non-multiplicative``: the left-bialgebroid junction of M₂ over k²
      with s(d1) = 2·e11, s(d2) = e22 − e11, unital but not
      multiplicative;
    - ``non-commuting``: that junction with s(dᵢ) = eᵢᵢ and
      t(d1) = e11 + e12, t(d2) = e22 − e12, both algebra maps, whose
      images do not commute;
    - ``M2``, over a field of characteristic 2 only: A ⊗_A A ⊗_A A over
      M₂, which is separable but has a degenerate trace form (2·tr)."""
    T = upper_triangular(field)
    ident = AlgebraMap(T, T, Matrix.identity(field, 3), HOM)
    tj = Junction(ActionSpec(ident, POST), ActionSpec(ident, PRE))
    A, L = matrix_algebra(field)
    diag = [(1, 0, 0, 0), (0, 0, 0, 1)]
    s_bad = images(field, L, A, [(2, 0, 0, 0), (-1, 0, 0, 1)], HOM)
    t_bad = images(field, L, A, [(1, 1, 0, 0), (0, -1, 0, 1)], ANTI)
    bad_s = Junction(ActionSpec(images(field, L, A, diag, ANTI), PRE),
                     ActionSpec(s_bad, PRE))
    bad_t = Junction(ActionSpec(t_bad, PRE),
                     ActionSpec(images(field, L, A, diag, HOM), PRE))
    cases = [("T2", T, tj), ("non-multiplicative", A, bad_s),
             ("non-commuting", A, bad_t)]
    if field.characteristic == 2:
        ident = AlgebraMap(A, A, Matrix.identity(field, 4), HOM)
        cases.append(("M2", A, Junction(ActionSpec(ident, POST),
                                        ActionSpec(ident, PRE))))
    return {name: (BalancedTensorSpace([B, B, B], [j, j]), [j, j])
            for name, B, j in cases}


F2 = PrimeField(2)


def test_fallback_inputs_fail_the_guard():
    assert separability_structure(upper_triangular(QQ)) is None
    assert separability_structure(matrix_algebra(QQ)[1]) is not None
    assert separability_structure(matrix_algebra(F2)[0]) is None
    for name, (space, _) in fallback_triples(QQ).items():
        assert space.separability_projection({0: QQ.one}) is None, name
    space, _ = fallback_triples(F2)["M2"]
    assert space.separability_projection({0: F2.one}) is None


@pytest.mark.parametrize("name,field", [
    pytest.param(name, field, id=f"{name}-{fid}")
    for name in ("T2", "non-multiplicative", "non-commuting")
    for field, fid in ((QQ, "QQ"), (F7, "GF7"))]
    + [pytest.param("M2", F2, id="M2-GF2")])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_fallback_decides_by_the_echelon(field, name, data):
    """Where P does not decide, a triple matches the reference echelon on
    every relation of the cube and on drawn vectors."""
    space, junctions = fallback_triples(field)[name]
    ref = reference_echelon(space.algebras[0], junctions)
    sp = BalancedTensorSpace(space.algebras, junctions)
    for row in ref.rows.values():
        assert sp.is_zero_class(row)
    check_against_reference(data, field, sp, ref)
    assert sp.free_cols == tuple(c for c in range(sp.total_dim)
                                 if c not in ref.rows)


# the echelon of a triple is built only for a certificate

GOLDEN_LIB = Path(__file__).resolve().parent / "golden" / "lib"


def rendered(rep):
    """A report as the golden corpus renders it."""
    return rep.render_text(10 ** 6) + "\n"


def with_left_lift(h, lift):
    """``h`` with the left coproduct lift replaced."""
    lb = h.lb
    bad = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t, lift, lb.counit,
                          name="bad")
    return HopfAlgebroid(bad, h.rb, h.S, h.S_inv, base_antiiso=h.chi,
                         name=h.name)


def test_passing_verify_hopf_leaves_the_triple_echelons_unbuilt():
    h = pair_groupoid_hopf_algebroid(3, QQ)
    assert verify_hopf(h).passed
    triples = (h.lb._triple, h.rb._triple, h._llr, h._rrl)
    assert all(t is not None and t._echelon is None for t in triples)


def test_a_failing_coassociativity_builds_its_echelon_for_the_certificate():
    """γ_L of the 2×2 pair groupoid with entry (0, 1) plus one fails
    lb-coassoc and defii: their triples eliminate to print canonical
    certificates, and the report is the golden one byte for byte.  The
    corrupted left coproduct of kZ2 passes coassoc over the base k, so its
    triple stays unbuilt, and its report is unchanged too."""
    h = pair_groupoid_hopf_algebroid(2, QQ)
    one = QQ.one
    rows = [list(r) for r in h.lb.gamma_lift.rows]
    rows[0][1] += one
    bad = with_left_lift(h, Matrix.from_rows(QQ, rows, h.total.dim))
    text = rendered(verify_hopf(bad))
    assert text.encode() == \
        (GOLDEN_LIB / "hopf-corrupt-m2-gamma-lb-01.txt").read_bytes()
    assert bad.lb._triple._echelon is not None
    assert bad._llr._echelon is not None and bad._rrl._echelon is not None
    assert bad.rb._triple._echelon is None

    lb = group_hopf_algebroid(FiniteGroup.cyclic(2), QQ).lb
    rows = [list(r) for r in lb.gamma_lift.rows]
    rows[0][0] += one
    bad = LeftBialgebroid(lb.total, lb.base, lb.s, lb.t,
                          Matrix.from_rows(QQ, rows, lb.total.dim),
                          lb.counit, name="bad")
    rep = verify_left_bialgebroid(bad)
    assert rep.find("coassoc").ok
    assert rendered(rep).encode() == \
        (GOLDEN_LIB / "corruption-03-corrupt_gamma_left.txt").read_bytes()
    assert bad._triple._echelon is None
