"""verify-ladder: ``verify_hopf``, ``check_lu_axioms`` and
``verify_weak_hopf`` on a fixed size ladder over ℚ and GF(101), then
seeded non-canonical coproduct representatives, then failing inputs.

Known answers, by hand:

* every rung is a Hopf algebra or the pair-groupoid Hopf algebroid with its
  classical antipode, so all three verifiers PASS; the weak Hopf input of
  the function algebra is the weak bialgebra over the diagonal
  separability structure of k, which is the Hopf algebra itself;
* a coproduct representative changed by relation-span vectors denotes the
  same coproduct, so its reports render the same text as its canonical
  twin (the scalar base of ks3 has no relations, so its variant is the
  canonical lift itself);
* each single-entry corruption FAILs with a certificate under a check id
  naming the law it breaks; the sign twist of k[Z2] FAILs exactly ``lu3``
  with the certificate at ``g``; a perturbed pair3 antipode breaks
  (defiii)/(defiv).
"""

from common import (Mismatch, Op, Workload, expect_failure_named,
                    expect_pass, failing_ids, fresh_hopf, noncanonical_lift)

HEAVY = "verify_hopf pair4 QQ"
VARIANT_RUNGS = ("pair2", "pair3", "ks3")


def _fields(alg):
    return (("QQ", alg.QQ), ("GF101", alg.PrimeField(101)))


def _rungs(alg, field):
    """(name, Hopf factory, weak Hopf factory) for the ladder."""
    cat = alg.catalog
    z2, z3, z12 = (cat.FiniteGroup.cyclic(n) for n in (2, 3, 12))
    s3 = cat.FiniteGroup.symmetric(3)

    def fn_s3_weak():
        h = cat.function_algebra_hopf(s3, field)
        sep = alg.diagonal_separability(h.lb.base)
        return alg.weak_bialgebra_from_sep(h.lb, sep, antipode=h.S)

    def group(g):
        return (lambda: cat.group_hopf_algebroid(g, field),
                lambda: cat.group_weak_hopf(g, field))

    def pair(n):
        return (lambda: cat.pair_groupoid_hopf_algebroid(n, field),
                lambda: cat.pair_groupoid_weak_hopf(n, field))

    return (("kz2",) + group(z2), ("kz3",) + group(z3), ("ks3",) + group(s3),
            ("fn-s3", lambda: cat.function_algebra_hopf(s3, field),
             fn_s3_weak),
            ("kz12",) + group(z12),
            ("pair2",) + pair(2), ("pair3",) + pair(3), ("pair4",) + pair(4))


def _passing(text_key=None, twin=None):
    """Check: PASS; remember the text report under ``text_key``, or demand
    that it equals the text stored under ``twin``."""
    def check(rep, memo):
        out = expect_pass(rep)
        if text_key is not None:
            memo[text_key] = rep.render_text()
        if twin is not None and memo.get(twin) != rep.render_text():
            raise Mismatch(f"text report differs from its twin {twin!r}")
        return out
    return check


def _perturb(alg, m, i, j, delta):
    rows = [list(r) for r in m.rows]
    rows[i][j] = rows[i][j] + delta
    return alg.Matrix.from_rows(m.field, rows, m.ncols)


def _corruptions(alg):
    """(label, prepare, run, named check ids) for the ten single-entry
    corruptions of passing examples."""
    cat, QQ = alg.catalog, alg.QQ
    one = QQ.one
    z2, z3 = cat.FiniteGroup.cyclic(2), cat.FiniteGroup.cyclic(3)

    def struct_of(A):
        return {(i, j, k): c for i in range(A.dim) for j in range(A.dim)
                for k, c in A.table[i][j].items()}

    def bad_struct():
        A = cat.group_hopf_algebroid(z3, QQ).total
        struct = struct_of(A)
        struct[(1, 2, 0)] = QQ.of(2)
        return (alg.Algebra.from_struct(QQ, A.basis_names, struct,
                                        unit=A.unit, name="bad"),)

    def bad_unit():
        A = cat.group_hopf_algebroid(z2, QQ).total
        return (alg.Algebra.from_struct(QQ, A.basis_names, struct_of(A),
                                        unit=(one, one), name="bad"),)

    def bad_gamma_left():
        lb = cat.group_hopf_algebroid(z2, QQ).lb
        return (alg.LeftBialgebroid(lb.total, lb.base, lb.s, lb.t,
                                    _perturb(alg, lb.gamma_lift, 0, 0, one),
                                    lb.counit, name="bad"),)

    def bad_counit_left():
        lb = cat.group_hopf_algebroid(z2, QQ).lb
        return (alg.LeftBialgebroid(lb.total, lb.base, lb.s, lb.t,
                                    lb.gamma_lift,
                                    _perturb(alg, lb.counit, 0, 1, one),
                                    name="bad"),)

    def bad_gamma_right():
        rb = cat.group_hopf_algebroid(z3, QQ).rb
        return (alg.RightBialgebroid(rb.total, rb.base, rb.s, rb.t,
                                     _perturb(alg, rb.gamma_lift, 4, 2, one),
                                     rb.counit, name="bad"),)

    def bad_antipode_hopf():
        h = cat.group_hopf_algebroid(z2, QQ)
        return (alg.HopfAlgebroid(h.lb, h.rb, _perturb(alg, h.S, 0, 1, one),
                                  name="bad"),)

    def bad_antipode_lu():
        h = cat.group_hopf_algebroid(z2, QQ)
        return (h.lb, _perturb(alg, h.S, 0, 1, one))

    def bad_weak_delta():
        w = cat.pair_groupoid_weak_hopf(2, QQ)
        return (alg.WeakHopfAlgebra(w.algebra,
                                    _perturb(alg, w.delta, 0, 0, one),
                                    w.counit, w.antipode, name="bad"),)

    def bad_twist():
        h = cat.group_hopf_algebroid(z2, QQ)
        return (h.lb, h.S, alg.Matrix.from_rows(QQ, [[one, QQ.of(2)]], 2))

    def bad_separability():
        base = cat.group_hopf_algebroid(z2, QQ).lb.base
        sep = alg.diagonal_separability(base)
        return (alg.SeparabilityStructure(
            base, _perturb(alg, sep.delta, 0, 0, one), sep.psi),)

    return (
        ("struct", bad_struct, lambda A: alg.verify_algebra(A), ("assoc",)),
        ("unit", bad_unit, lambda A: alg.verify_algebra(A), ("unit",)),
        ("gamma-left", bad_gamma_left,
         lambda lb: alg.verify_left_bialgebroid(lb),
         ("coassoc", "gmp", "gmp-unit", "counit-s", "counit-t", "cros")),
        ("counit-left", bad_counit_left,
         lambda lb: alg.verify_left_bialgebroid(lb),
         ("counit-s", "counit-t", "pi-unit", "pi-mult-s", "pi-mult-t",
          "pi-s-linear", "pi-t-linear")),
        ("gamma-right", bad_gamma_right,
         lambda rb: alg.verify_right_bialgebroid(rb),
         ("coassoc", "gmp", "counit-s", "counit-t", "cros")),
        ("antipode-hopf", bad_antipode_hopf, lambda h: alg.verify_hopf(h),
         ("defiii-left", "defiii-right", "defiv-left", "defiv-right")),
        ("antipode-lu", bad_antipode_lu,
         lambda lb, s: alg.check_lu_axioms(lb, s),
         ("lu1", "lu1-map-mult", "lu2", "lu3")),
        ("weak-delta", bad_weak_delta, lambda w: alg.verify_weak_hopf(w),
         ("coassoc", "counit", "delta-mult", "weak-unit-left",
          "weak-unit-right", "antipode-l", "antipode-r")),
        ("twist", bad_twist, lambda lb, s, g: alg.verify_twist(lb, s, g),
         ("tw2", "tw3")),
        ("separability", bad_separability,
         lambda sep: alg.verify_separability(sep),
         ("sep-splitting", "sep-bimodule", "sep-counit")),
    )


def _twisted_lu_check(rep, memo):
    if failing_ids(rep) != ["lu3"]:
        raise Mismatch(f"expected exactly lu3 to fail, got {failing_ids(rep)}")
    cert = " ".join(rep.find("lu3").certificates)
    if not ("g" in cert and "-1" in cert):
        raise Mismatch(f"lu3 certificate does not show g ↦ -1: {cert!r}")
    return "FAIL [lu3]"


def build(alg, rng):
    cat = alg.catalog
    ops = []
    variants = {}
    for fname, field in _fields(alg):
        for name, make_hopf, make_weak in _rungs(alg, field):
            key = f"{name} {fname}"
            ops.append(Op(f"verify_hopf {key}",
                          lambda mk=make_hopf: (fresh_hopf(alg, mk()),),
                          lambda h: alg.verify_hopf(h),
                          _passing(text_key=f"hopf {key}")))
            ops.append(Op(f"check_lu {key}",
                          lambda mk=make_hopf: _lb_and_s(alg, mk()),
                          lambda lb, s: alg.check_lu_axioms(lb, s),
                          _passing(text_key=f"lu {key}")))
            ops.append(Op(f"verify_weak_hopf {key}",
                          lambda mk=make_weak: (mk(),),
                          lambda w: alg.verify_weak_hopf(w),
                          _passing()))
            if name in VARIANT_RUNGS:
                probe = make_hopf()
                variants[key] = (make_hopf,
                                 (noncanonical_lift(alg, rng, probe.lb),
                                  noncanonical_lift(alg, rng, probe.rb)))

    for key, (make_hopf, gammas) in variants.items():
        def prepare(mk=make_hopf, gammas=gammas):
            return (fresh_hopf(alg, mk(), gammas),)
        ops.append(Op(f"verify_hopf {key} noncanonical", prepare,
                      lambda h: alg.verify_hopf(h),
                      _passing(twin=f"hopf {key}")))
        ops.append(Op(f"check_lu {key} noncanonical",
                      lambda prep=prepare: _lb_and_s(alg, prep()[0]),
                      lambda lb, s: alg.check_lu_axioms(lb, s),
                      _passing(twin=f"lu {key}")))

    for label, prepare, run, named in _corruptions(alg):
        ops.append(Op(f"corrupt {label}", prepare, run,
                      lambda rep, memo, named=named:
                      expect_failure_named(rep, named)))

    z2 = cat.FiniteGroup.cyclic(2)
    sign = cat.Character(z2, alg.QQ, [alg.QQ.one, -alg.QQ.one])
    ops.append(Op("check_lu kz2-twisted QQ",
                  lambda: _lb_and_s(alg, cat.character_twisted_hopf(
                      z2, alg.QQ, sign)),
                  lambda lb, s: alg.check_lu_axioms(lb, s),
                  _twisted_lu_check))
    for fname, field in _fields(alg):
        def bad_pair3(field=field):
            h = fresh_hopf(alg, cat.pair_groupoid_hopf_algebroid(3, field))
            return (alg.HopfAlgebroid(h.lb, h.rb,
                                      _perturb(alg, h.S, 0, 1, field.one),
                                      name=h.name),)
        ops.append(Op(f"verify_hopf pair3 {fname} bad-antipode", bad_pair3,
                      lambda h: alg.verify_hopf(h),
                      lambda rep, memo: expect_failure_named(
                          rep, ("defiii-left", "defiii-right", "defiv-left",
                                "defiv-right"))))
    return Workload(ops, HEAVY)


def _lb_and_s(alg, h):
    h = fresh_hopf(alg, h)
    return (h.lb, h.S)
