"""duality: integral spaces, non-degeneracy, Frobenius systems, the duality
square, dual Hopf algebroids, antipodes from integrals, the weak Hopf
decision and seeded antipode twists, on ks3, fn-s3, pair2 and pair3 over ℚ
and GF(101) and on gf7-kz3-twisted over GF(7) (its character needs a cube
root of unity).

Known answers, by hand:

* the integral spaces are spanned by Σ_g g (group algebras), δ_e (function
  algebra) and, for M_n over k^n, by the n column sums (left) and row sums
  (right) of matrix units, so dim = 1, 1, n; a character twist S(x) =
  χ(x)x⁻¹ makes the right counit χ, so its right integrals are spanned by
  Σ_x χ(x)⁻¹x instead.  The canonical left integral is non-degenerate,
  gives a Frobenius system and a commuting duality square, its dual Hopf
  algebroid has the same dimension, and ``ls_antipode`` rebuilds the
  classical antipode;
* ``wha_decide`` answers exact for untwisted antipodes (k[Z2] included) and
  twistable for character-twisted ones (k[Z2] sign, gf7-kz3-twisted);
* a twist g deforms S to S_g(a) = S(a ↼ g): for a character χ of a group,
  S_g(x) = χ(x) S(x); for the evaluation at x on functions on S3,
  S_g(δ_y) = δ_{y⁻¹x}; for the pair groupoid with scalars c,
  g(e_kl) = (c_k/c_l) d_k and S_g(e_kl) = (c_k/c_l) e_lk.  The convolution
  inverse is the same formula for χ⁻¹, x⁻¹ and 1/c, and ``recover_twist``
  returns exactly (g, g⁻¹).  The seed picks x and c; the S3 sign character
  and the GF(7) cube roots 2 and 4 are the only non-trivial characters.
"""

from common import (Mismatch, Op, Workload, copy_matrix, expect_pass,
                    fresh_hopf)

HEAVY = "duality_diagram pair3 QQ"


class Fixture:
    """A Hopf algebroid factory with its hand-derived answers."""

    def __init__(self, name, make, ell, dim, verdict, twist, right_ell=None):
        self.name = name
        self.make = make
        self.ell = ell
        self.right_ell = right_ell or ell
        self.dim = dim                # of both integral spaces
        self.verdict = verdict        # of wha_decide
        self.g, self.g_inv, self.s_g = twist


def _character_twist(alg, field, group, chi, base_chi=None):
    n = group.order
    g = alg.Matrix.from_rows(field, [chi], n)
    g_inv = alg.Matrix.from_rows(field, [[field.one / v for v in chi]], n)
    base_chi = base_chi or [field.one] * n
    cols = [tuple(chi[x] * base_chi[x] if i == group.inverse(x)
                  else field.zero for i in range(n)) for x in range(n)]
    return g, g_inv, alg.Matrix.from_cols(field, cols, n)


def _evaluation_twist(alg, field, group, x):
    n = group.order

    def delta(y):
        return [field.one if z == y else field.zero for z in range(n)]

    cols = [delta(group.mul(group.inverse(y), x)) for y in range(n)]
    return (alg.Matrix.from_rows(field, [delta(x)], n),
            alg.Matrix.from_rows(field, [delta(group.inverse(x))], n),
            alg.Matrix.from_cols(field, cols, n))


def _coboundary_twist(alg, field, n, c):
    d = n * n
    zero = field.zero

    def functional(ratio):
        rows = [[ratio(k, l) if k == i else zero
                 for k in range(n) for l in range(n)] for i in range(n)]
        return alg.Matrix.from_rows(field, rows, d)

    cols = []
    for k in range(n):
        for l in range(n):
            v = [zero] * d
            v[n * l + k] = c[k] / c[l]
            cols.append(v)
    return (functional(lambda k, l: c[k] / c[l]),
            functional(lambda k, l: c[l] / c[k]),
            alg.Matrix.from_cols(field, cols, d))


def _fixtures(alg, rng):
    cat = alg.catalog
    s3, z3 = cat.FiniteGroup.symmetric(3), cat.FiniteGroup.cyclic(3)
    out = []
    for fname, field in (("QQ", alg.QQ), ("GF101", alg.PrimeField(101))):
        ones = lambda h: tuple(h.field.one for _ in range(h.total.dim))
        sign = cat.Character.sign(s3, field).values
        out.append(Fixture(
            f"ks3 {fname}",
            lambda f=field: cat.group_hopf_algebroid(s3, f), ones, 1, "exact",
            _character_twist(alg, field, s3, sign)))
        x = rng.choice([y for y in range(s3.order) if y != s3.identity])
        out.append(Fixture(
            f"fn-s3 {fname}",
            lambda f=field: cat.function_algebra_hopf(s3, f),
            lambda h: h.total.basis_vec(s3.identity), 1, "exact",
            _evaluation_twist(alg, field, s3, x)))
        for n in (2, 3):
            c = [field.of(rng.randint(1, 100)) for _ in range(n)]
            out.append(Fixture(
                f"pair{n} {fname}",
                lambda f=field, n=n: cat.pair_groupoid_hopf_algebroid(n, f),
                ones, n, "exact", _coboundary_twist(alg, field, n, c)))
    gf7 = alg.PrimeField(7)
    base_chi = cat.Character.cyclic_power(z3, gf7, gf7.of(2))
    base = base_chi.values
    root = gf7.of(rng.choice((2, 4)))
    chi = cat.Character.cyclic_power(z3, gf7, root).values
    out.append(Fixture(
        "gf7-kz3-twisted GF7",
        lambda: cat.character_twisted_hopf(z3, gf7, base_chi),
        lambda h: tuple(gf7.one for _ in range(3)), 1, "twistable",
        _character_twist(alg, gf7, z3, chi, base),
        right_ell=lambda h: tuple(gf7.one / v for v in base)))
    return out


def _wha_check(want):
    def check(out, memo):
        if out["verdict"] != want or not out["report"].passed:
            raise Mismatch(f"wha_decide said {out['verdict']}, want {want}")
        return want
    return check


def _fixture_ops(alg, fx):
    def hopf():
        return fresh_hopf(alg, fx.make())

    def with_integral():
        h = hopf()
        return h, fx.ell(h)

    def with_witness():
        # the witness is built on a twin, so the op's input stays cold
        return alg.nondegeneracy(*with_integral()), hopf()

    def check_space(space, memo):
        h = fx.make()
        ell = fx.ell(h) if space.side == "left" else fx.right_ell(h)
        if space.dim != fx.dim or not space.contains(ell):
            raise Mismatch(f"{space.side} integral space has dim {space.dim}, "
                           f"want {fx.dim} containing the canonical integral")
        return f"dim {space.dim}"

    def check_nd(nd, memo):
        if not isinstance(nd, alg.NondegenerateIntegral) or not nd.ok:
            raise Mismatch(f"canonical integral is degenerate: {nd!r}")
        return expect_pass(nd.report)

    def check_square(rep, memo):
        out = expect_pass(rep)
        if not rep.find("diagram-commutes").ok:
            raise Mismatch("the duality square does not commute")
        return out

    def check_dual(hd, memo):
        d = fx.make().total.dim
        if hd.total.dim != d:
            raise Mismatch(f"dual has dim {hd.total.dim}, want {d}")
        return f"dim {d}"

    def check_ls(built, memo):
        if built.S != fx.make().S:
            raise Mismatch("ls_antipode did not rebuild S")
        return "S rebuilt"

    def twist_inputs(third):
        def prepare():
            h = hopf()
            return h.lb, h.S, copy_matrix(alg, third)
        return prepare

    def check_applied(h, memo):
        if h.S != fx.s_g:
            raise Mismatch("twisted antipode differs from S_g")
        return "S_g"

    def check_recovered(pair, memo):
        if pair != (fx.g, fx.g_inv):
            raise Mismatch("recover_twist did not return the applied twist")
        return "g recovered"

    n = fx.name
    return [
        Op(f"integral_space left {n}", lambda: (hopf(),),
           lambda h: alg.integral_space(h, "left"), check_space),
        Op(f"integral_space right {n}", lambda: (hopf(),),
           lambda h: alg.integral_space(h, "right"), check_space),
        Op(f"nondegeneracy {n}", with_integral,
           lambda h, ell: alg.nondegeneracy(h, ell), check_nd),
        Op(f"frobenius_check {n}", with_witness,
           lambda nd, h: alg.frobenius_check(nd, h),
           lambda rep, memo: expect_pass(rep)),
        Op(f"duality_diagram {n}", with_witness,
           lambda nd, h: alg.duality_diagram(h, nd), check_square),
        Op(f"dual_hopf_algebroid {n}", with_witness,
           lambda nd, h: alg.dual_hopf_algebroid(h, nd), check_dual),
        Op(f"ls_antipode {n}", with_integral,
           lambda h, ell: alg.ls_antipode(h.rb, ell), check_ls),
        Op(f"wha_decide {n}", lambda: (hopf(),),
           lambda h: alg.wha_decide(h), _wha_check(fx.verdict)),
        Op(f"verify_twist {n}", twist_inputs(fx.g),
           lambda lb, s, g: alg.verify_twist(lb, s, g),
           lambda rep, memo: expect_pass(rep)),
        Op(f"apply_twist {n}", twist_inputs(fx.g),
           lambda lb, s, g: alg.apply_twist(lb, s, g), check_applied),
        Op(f"recover_twist {n}", twist_inputs(fx.s_g),
           lambda lb, s, s2: alg.recover_twist(lb, s, s2), check_recovered),
    ]


def build(alg, rng):
    cat = alg.catalog
    ops = []
    for fx in _fixtures(alg, rng):
        ops.extend(_fixture_ops(alg, fx))
    z2 = cat.FiniteGroup.cyclic(2)
    for fname, field in (("QQ", alg.QQ), ("GF101", alg.PrimeField(101))):
        sign = cat.Character(z2, field, [field.one, -field.one])
        for name, make, want in (
                ("kz2", lambda f=field: cat.group_hopf_algebroid(z2, f),
                 "exact"),
                ("kz2-twisted", lambda f=field, s=sign:
                 cat.character_twisted_hopf(z2, f, s), "twistable")):
            ops.append(Op(f"wha_decide {name} {fname}",
                          lambda mk=make: (fresh_hopf(alg, mk()),),
                          lambda h: alg.wha_decide(h), _wha_check(want)))
    return Workload(ops, HEAVY)
