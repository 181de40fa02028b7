"""Balanced tensor products over declared base actions."""

import random

from algebroids.algebra import (ANTI, HOM, Algebra, AlgebraMap, combine,
                                opposite, sparse)
from algebroids.catalog import pair_groupoid_hopf_algebroid
from algebroids.exactfield import Matrix, PrimeField, RationalField, SparseEchelon
from algebroids.bimodtensor import (
    PRE,
    POST,
    ActionSpec,
    BalancedTensorSpace,
    Junction,
    plain_tensor_space,
)
from algebroids.algebra import tensor_vec
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


def test_plain_tensor_space(kz2):
    A = kz2.total
    sp = plain_tensor_space([A, A])
    assert sp.dim == 4
    assert sp.relation_rank == 0


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
            for i in range(d):
                for j in range(d):
                    acted_l = act(junc.right, b, i)
                    acted_r = act(junc.left, b, j)
                    pair = {}
                    for k in range(d):
                        pair[k, j] = pair.get((k, j), zero) + acted_l[k]
                        pair[i, k] = pair.get((i, k), zero) - acted_r[k]
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
