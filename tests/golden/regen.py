"""Golden report corpus: the case list, the renderer, and the writer.

Every case renders to one text file under ``tests/golden/``.  The CLI cases
run ``algebroids.cli.main`` in-process on every command, every bundled spec
and three report modes (``text``, ``structured``, ``text`` under
``--field gf:7``), recording the argv, the exit code, stdout, stderr and any
``--out`` document.  The library cases pin reports and constructions the
bundled specs never reach: corrupted inputs, the right-handed verifiers on
every catalog fixture, degenerate right-integral candidates, the names
and matrices of reconstructed Hopf algebroids, the lower-star dual
bialgebroid (report, ring table, solved coproduct) of every catalog fixture
and of corrupted inputs that fail each of its ring and membership checks,
the integral layer's action maps (the ~S matrix, the (lac) identities
with and without κ*, and singular ℓ_R witnesses), and ``verify_hopf`` and
``check_luiiv`` on pair-groupoid coproducts shifted at one entry, which
fail the balanced-tensor checks (gamma-s/t-linear, cros, coassoc, defii,
luiv).  The exact-elimination layer is pinned through its consumers: the
left and right integral spaces (echelon bases) of every catalog fixture, a
pair-groupoid antipode of rank 3 (``verify_hopf`` s-bijective and defiv,
``check_lu_axioms`` lu1-bijective), and a target map for which
s_L∘χ = t_R has no solution (defi-chi).  Two cyclic permutations of kZ₃
fail the left and right bialgebroid morphism checks (mor-src, mor-tgt,
mor-counit).  The mirrored left/right checks fail on shifted inputs too: a
shifted pair-groupoid antipode fails every sisom identity and lui, luii
and luiii; shifted coproducts fail the α and β Galois checks; a shifted
left target fails defi-t and defiii-left; a shifted weak coproduct is
refused at left-base or right-base, and fails weak-unit-left or
weak-unit-right but not both; and skewed right structure maps leave
ℓ_R bijective but make ᵣℓ degenerate.  A pair-groupoid antipode rescaled
at e11 keeps ℓ_R and ᵣℓ bijective but fails (fsrinv), nd-s-ell,
nd-s-inv-ell and intpr-iii, iv and v; the pair-groupoid λ* raised at one
entry fails one half of frob-bimodule and one of frob-left, frob-right.
The twist verifier fails at each of its early stops (a g outside the
lower-star dual, the zero functional, twice the counit), and the
constructions that need an invertible antipode or twist refuse; so do
``check_luiiv`` on the zero antipode, ``antipode_uniqueness`` across two
fixtures and ``verify_hopf`` on sides over different total algebras.

``tests/test_golden.py`` compares every file byte for byte.  This script is
the only way to rewrite them; run it from the repository root after a change
that is meant to alter reports, and review the diff:

    PYTHONPATH=src python3 tests/golden/regen.py
"""

import copy
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
for _p in (ROOT / "src", ROOT / "tests"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

SPECS = ("kz2", "kz2-twisted", "kz3-rb", "m2-groupoid")
OUT = "{out}"

# (case name, argv before the spec path, argv after it)
COMMANDS = (
    ("check-algebra", ["check"], ["--level", "algebra"]),
    ("check-left-bialgebroid", ["check"], ["--level", "left-bialgebroid"]),
    ("check-right-bialgebroid", ["check"], ["--level", "right-bialgebroid"]),
    ("check-hopf", ["check"], ["--level", "hopf"]),
    ("check-weak-hopf", ["check"], ["--level", "weak-hopf"]),
    ("check-lu", ["check"], ["--level", "lu"]),
    ("integrals", ["integrals"], []),
    ("ls-antipode", ["ls-antipode"], ["--out", OUT]),
    ("twist-verify", ["twist", "verify"], []),
    ("twist-apply", ["twist", "apply"], ["--out", OUT]),
    ("twist-recover", ["twist", "recover"], ["--out", OUT]),
    ("dualize", ["dualize"], ["--out", OUT]),
    ("wha-decide", ["wha-decide"], []),
    ("diagram", ["diagram"], []),
)

MODES = (
    ("text", ["--report", "text"]),
    ("structured", ["--report", "structured"]),
    ("gf7", ["--report", "text", "--field", "gf:7"]),
)

# certificates are pinned in full, not only the first few per check
NO_LIMIT = 10 ** 6


def run_cli(argv):
    """Run the CLI in-process from the repository root; return the record."""
    from algebroids.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.spec")
        argv = [out_path if a == OUT else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    status = f"exit: {main(argv)}"
                except Exception as exc:  # pinned like any other outcome
                    status = f"raised: {type(exc).__name__}: {exc}"
        finally:
            os.chdir(cwd)
        parts = [f"argv: {' '.join(a if a != out_path else OUT for a in argv)}",
                 status, "--- stdout", stdout.getvalue(),
                 "--- stderr", stderr.getvalue()]
        if OUT in [a if a != out_path else OUT for a in argv]:
            doc = Path(out_path)
            parts += ["--- out",
                      doc.read_text(encoding="utf-8") if doc.exists()
                      else "(not written)\n"]
    return "\n".join(parts)


def _cli_case(spec, pre, post, mode_args):
    argv = pre + [f"specs/{spec}.spec"] + post + mode_args
    return lambda: run_cli(argv)


# ---------------------------------------------------------------------------
# library cases


def fmt_matrix(m):
    rows = [" ".join(m.field.fmt(x) for x in row) for row in m.rows]
    return f"{m.nrows}x{m.ncols}\n" + "\n".join(rows)


def render(report):
    return report.render_text(NO_LIMIT) + "\n"


def describe_hopf(h):
    """Names and structure matrices of a Hopf algebroid, one block each."""
    lines = [f"hopf: {h.name}"]
    for side, bgd in (("lb", h.lb), ("rb", h.rb)):
        lines += [f"{side}: {bgd.name} ({type(bgd).__name__})",
                  f"{side}.total: {bgd.total.name}",
                  f"{side}.base: {bgd.base.name}"]
        for label, amap in (("s", bgd.s), ("t", bgd.t)):
            lines += [f"{side}.{label}: {amap.name} {amap.kind} "
                      f"{amap.source.name} -> {amap.target.name}",
                      fmt_matrix(amap.matrix)]
        lines += [f"{side}.gamma_lift:", fmt_matrix(bgd.gamma_lift),
                  f"{side}.counit:", fmt_matrix(bgd.counit)]
    lines += ["S:", fmt_matrix(h.S), "S_inv:", fmt_matrix(h.S_inv)]
    if h.chi is None:
        lines.append("chi: None")
    else:
        lines += [f"chi: {h.chi.name} {h.chi.kind} {h.chi.source.name} -> "
                  f"{h.chi.target.name}", fmt_matrix(h.chi.matrix)]
    return "\n".join(lines) + "\n"


def describe_dual(dual):
    """Report, ring table and solved coproduct of one dual construction."""
    lines = [render(dual.report) +
             f"module: {dual.module.kind}, dim {dual.module.dim}"]
    ring = dual.ring
    if ring is None:
        lines.append("ring: None")
    else:
        lines.append(f"ring: {ring.name}, unit "
                     f"{ring.fmt_vec(ring.unit)}")
        names = ring.basis_names
        for i in range(ring.dim):
            for j in range(ring.dim):
                lines.append(f"{names[i]} * {names[j]} = "
                             f"{ring.fmt_vec(ring.table[i][j])}")
    if dual.bgd is None:
        lines.append("gamma_lift: None")
    else:
        lines += ["gamma_lift:", fmt_matrix(dual.bgd.gamma_lift)]
    return "\n".join(lines) + "\n"


def _raises(fn):
    try:
        fn()
    except Exception as exc:
        return f"raised: {type(exc).__name__}: {exc}\n"
    return "returned without raising\n"


def _library_cases():
    from algebroids import QQ
    from algebroids.exactfield import Matrix
    from algebroids.bialgebroid import (
        LeftBialgebroid,
        RightBialgebroid,
        verify_left_morphism,
        verify_right_bialgebroid,
        verify_right_morphism,
    )
    from algebroids.catalog import (
        FiniteGroup,
        all_fixtures,
        group_hopf_algebroid,
        group_sum_integral,
        pair_groupoid_hopf_algebroid,
        pair_groupoid_weak_hopf,
    )
    from algebroids.dualspace import dual_lower_star
    from algebroids.hopfcore import (
        HopfAlgebroid,
        antipode_uniqueness,
        check_lu_axioms,
        check_luiiv,
        reconstruct_left,
        reconstruct_right,
        verify_galois,
        verify_hopf,
        verify_sisom,
    )
    from algebroids.integrallab import (
        LEFT,
        RIGHT,
        frobenius_check,
        integral_space,
        intpr_equivalences,
        lac_check,
        ls_right,
        nondegeneracy,
        twap,
        verify_bgdnd,
        verify_bgdnd_right,
    )
    from algebroids.twistlab import (
        WeakHopfAlgebra,
        apply_twist,
        recover_twist,
        verify_twist,
        verify_weak_hopf,
        weak_hopf_to_hopf_algebroid,
    )
    from test_acceptance import _corruptions, _perturb

    cases = {}
    for n, build in enumerate(_corruptions(), 1):
        cases[f"corruption-{n:02d}-{build.__name__}"] = \
            lambda build=build: render(build()[0])

    one = QQ.one

    def kz2_rb():
        return group_hopf_algebroid(FiniteGroup.cyclic(2), QQ).rb

    def m2():
        return pair_groupoid_hopf_algebroid(2, QQ)

    def corrupt(rb, gamma=None, counit=None, s=None, t=None):
        return RightBialgebroid(
            rb.total, rb.base, rb.s if s is None else s,
            rb.t if t is None else t,
            rb.gamma_lift if gamma is None else gamma,
            rb.counit if counit is None else counit, name="bad")

    def with_matrix(amap, matrix):
        return type(amap)(amap.source, amap.target, matrix, amap.kind,
                          amap.name)

    right = {
        # the mirror of acceptance fixture 4
        "kz2-counit": lambda: corrupt(
            kz2_rb(), counit=_perturb(kz2_rb().counit, 0, 1, one)),
        "m2-gamma": lambda: corrupt(
            m2().rb, gamma=_perturb(m2().rb.gamma_lift, 5, 1, one)),
        "m2-counit": lambda: corrupt(
            m2().rb, counit=_perturb(m2().rb.counit, 1, 2, one)),
        "m2-source": lambda: corrupt(
            m2().rb, s=with_matrix(m2().rb.s, _perturb(m2().rb.s.matrix,
                                                       0, 1, one))),
        "m2-target": lambda: corrupt(
            m2().rb, t=with_matrix(m2().rb.t, _perturb(m2().rb.t.matrix,
                                                       3, 0, one))),
    }
    for name, build in right.items():
        cases[f"right-corrupt-{name}"] = \
            lambda build=build: render(verify_right_bialgebroid(build()))

    for fx in all_fixtures():
        cases[f"right-fixture-{fx['name']}"] = \
            lambda fx=fx: render(verify_right_bialgebroid(fx["hopf"].rb))

    def hopf(name):
        return {fx["name"]: fx["hopf"] for fx in all_fixtures()}[name]

    def vec(*xs):
        return tuple(QQ.of(x) for x in xs)

    candidates = {
        "kz2-zero": ("kz2", vec(0, 0)),
        "kz2-unit": ("kz2", vec(1, 0)),
        "kz2-skew": ("kz2", vec(1, 2)),
        "kz2-sum": ("kz2", None),
        "kz2-twisted-skew": ("kz2-twisted", vec(1, 2)),
        "kz3-rank2": ("kz3", vec(1, 2, 0)),
        "kz3-skew": ("kz3", vec(1, 1, 2)),
        "kz3-sum": ("kz3", None),
        "m2-e11": ("m2-groupoid", vec(1, 0, 0, 0)),
        "m2-diagonal": ("m2-groupoid", vec(1, 0, 0, 1)),
        "m2-skew": ("m2-groupoid", vec(1, 1, 1, 2)),
        "m2-sum": ("m2-groupoid", None),
    }

    def upsilon(h, given):
        if given is not None:
            return given
        return group_sum_integral(h)

    for name, (fx, given) in candidates.items():
        cases[f"bgdnd-right-{name}"] = lambda fx=fx, given=given: render(
            verify_bgdnd_right(hopf(fx).lb, upsilon(hopf(fx), given)))

    for name in ("kz2-zero", "kz2-unit", "kz2-skew", "m2-e11", "m2-skew"):
        fx, given = candidates[name]
        cases[f"ls-right-{name}"] = lambda fx=fx, given=given: _raises(
            lambda: ls_right(hopf(fx).lb, given))
    for name in ("kz2-sum", "kz3-sum", "m2-sum"):
        fx, given = candidates[name]
        cases[f"ls-right-{name}"] = lambda fx=fx, given=given: describe_hopf(
            ls_right(hopf(fx).lb, upsilon(hopf(fx), given)))

    for fx in all_fixtures():
        cases[f"reconstruct-left-{fx['name']}"] = lambda fx=fx: describe_hopf(
            reconstruct_left(fx["hopf"].rb, fx["hopf"].S))

    for fx in all_fixtures():
        cases[f"dual-lower-star-{fx['name']}"] = lambda fx=fx: describe_dual(
            dual_lower_star(fx["hopf"].lb))

    def corrupt_left(gamma=(), counit=()):
        # one entry of the pair groupoid's coproduct lift or counit, plus one
        lb = m2().lb
        return LeftBialgebroid(
            lb.total, lb.base, lb.s, lb.t,
            _perturb(lb.gamma_lift, *gamma, one) if gamma else lb.gamma_lift,
            _perturb(lb.counit, *counit, one) if counit else lb.counit,
            name="bad")

    # the checks they fail, in order: ring-unit; ring-unit and ring-assoc;
    # dual-closed; dual-unit-member
    dual_corrupt = {
        "m2-gamma-00": lambda: corrupt_left(gamma=(0, 0)),
        "m2-gamma-01": lambda: corrupt_left(gamma=(0, 1)),
        "m2-gamma-02": lambda: corrupt_left(gamma=(0, 2)),
        "m2-counit-02": lambda: corrupt_left(counit=(0, 2)),
    }
    for name, build in dual_corrupt.items():
        cases[f"dual-lower-star-corrupt-{name}"] = \
            lambda build=build: describe_dual(dual_lower_star(build()))

    def shifted_hopf(side, at):
        # the pair groupoid with one entry of one coproduct lift plus one
        h = m2()
        bgd = getattr(h, side)
        bad = type(bgd)(bgd.total, bgd.base, bgd.s, bgd.t,
                        _perturb(bgd.gamma_lift, *at, one), bgd.counit,
                        name="bad")
        lb, rb = (bad, h.rb) if side == "lb" else (h.lb, bad)
        return HopfAlgebroid(lb, rb, h.S, h.S_inv, base_antiiso=h.chi,
                             name=h.name)

    # the checks they fail: coassoc and defii; cros; gamma-s/t-linear; on
    # the right side rb-cros; rb-coassoc; rb-gamma-s/t-linear and defii
    hopf_corrupt = {
        "lb-01": ("lb", (0, 1)), "lb-10": ("lb", (1, 0)),
        "lb-02": ("lb", (0, 2)), "rb-20": ("rb", (2, 0)),
        "rb-02": ("rb", (0, 2)), "rb-01": ("rb", (0, 1)),
    }
    for name, (side, at) in hopf_corrupt.items():
        cases[f"hopf-corrupt-m2-gamma-{name}"] = \
            lambda side=side, at=at: render(verify_hopf(shifted_hopf(side, at)))
    # fails luiv-lr and luiv-rl
    cases["luiiv-corrupt-m2-gamma-lb-01"] = lambda: render(check_luiiv(
        shifted_hopf("lb", (0, 1)).lb, m2().S))

    # alpha-wd and beta-wd; schinvun-alpha and schinvun-beta
    for at in ((0, 1), (0, 0)):
        cases[f"galois-corrupt-m2-gamma-lb-{at[0]}{at[1]}"] = \
            lambda at=at: render(verify_galois(shifted_hopf("lb", at)))

    def shifted_antipode(at):
        return _perturb(m2().S, *at, one)

    # every sisom identity and both morphisms
    cases["sisom-corrupt-m2-antipode-00"] = lambda: render(verify_sisom(
        HopfAlgebroid(m2().lb, m2().rb, shifted_antipode((0, 0)),
                      base_antiiso=m2().chi, name="bad")))
    # lui, luii, luiii and luiv-wd
    cases["luiiv-corrupt-m2-antipode-10"] = lambda: render(check_luiiv(
        m2().lb, shifted_antipode((1, 0))))

    def shifted_left_target():
        # t_L(d1) = e11 + e21: fails defi-t and defiii-left
        h = m2()
        lb = h.lb
        t = with_matrix(lb.t, _perturb(lb.t.matrix, 2, 0, one))
        bad = LeftBialgebroid(lb.total, lb.base, lb.s, t, lb.gamma_lift,
                              lb.counit, name="bad")
        return HopfAlgebroid(bad, h.rb, h.S, h.S_inv, base_antiiso=h.chi,
                             name="bad")

    cases["hopf-corrupt-m2-target-lb-20"] = lambda: render(
        verify_hopf(shifted_left_target()))

    def shifted_weak(at):
        # Δ of the weak pair groupoid shifted at one entry
        w = pair_groupoid_weak_hopf(2, QQ)
        return WeakHopfAlgebra(w.algebra, _perturb(w.delta, *at, one),
                               w.counit, w.antipode, name="bad")

    def weak_to_hopf(at):
        h, rep = weak_hopf_to_hopf_algebroid(shifted_weak(at))
        return render(rep) + f"hopf: {h}\n"

    # refused at left-base; at right-base
    for at in ((1, 0), (4, 0)):
        cases[f"weak-to-hopf-corrupt-pair2-delta-{at[0]}{at[1]}"] = \
            lambda at=at: weak_to_hopf(at)
    # fails weak-unit-left but not weak-unit-right; the other way round
    for at in ((1, 0), (1, 3)):
        cases[f"weak-hopf-corrupt-pair2-delta-{at[0]}{at[1]}"] = \
            lambda at=at: render(verify_weak_hopf(shifted_weak(at)))

    def describe_twap(fx):
        h = hopf(fx)
        amap = twap(h, nondegeneracy(h, upsilon(h, None)))
        return f"{amap.name} {amap.kind}\n{fmt_matrix(amap.matrix)}\n"

    for fx in ("kz3", "m2-groupoid", "m3-groupoid"):
        cases[f"twap-{fx}"] = lambda fx=fx: describe_twap(fx)

    # κ* and *κ exist for the sums; on the zero element both action maps
    # are singular and both identities are skipped
    for name in ("kz2-sum", "m2-sum", "kz2-zero"):
        fx, given = candidates[name]
        cases[f"lac-{name}"] = lambda fx=fx, given=given: render(
            lac_check(hopf(fx).rb, upsilon(hopf(fx), given)))

    def describe_degenerate(h, ell):
        out = nondegeneracy(h, ell)
        lines = [type(out).__name__, f"reason: {out.reason}",
                 f"rank: {out.rank}"]
        if out.matrix is not None:
            lines.append(fmt_matrix(out.matrix))
        return "\n".join(lines) + "\n"

    # e11 + e21 is a left integral of M2 whose ℓ_R is singular
    cases["nondegeneracy-m2-partial"] = lambda: describe_degenerate(
        hopf("m2-groupoid"), vec(1, 0, 1, 0))

    def skewed_right_maps():
        # s_R(d1) = e11 + e21, s_R(d2) = e22 - e21 and t_R(d1) = e11 + e21:
        # 𝒜* keeps dimension 4 and ℓ_R stays bijective, *𝒜 drops to 2
        h = m2()
        s = Matrix.from_sparse_cols(QQ, [{0: one, 2: one}, {3: one, 2: -one}],
                                    4)
        t = _perturb(h.rb.t.matrix, 2, 0, one)
        bad = corrupt(h.rb, s=with_matrix(h.rb.s, s),
                      t=with_matrix(h.rb.t, t))
        return HopfAlgebroid(h.lb, bad, h.S, h.S_inv, name="bad")

    # the second map, ᵣℓ, is the one that fails
    cases["nondegeneracy-m2-skewed-right"] = lambda: describe_degenerate(
        skewed_right_maps(), vec(1, 1, 1, 1))

    def rescaled_antipode():
        # S(e11) = 2·e11: ℓ = Σ e_ij stays a left integral with bijective
        # ℓ_R and ᵣℓ, but S(ℓ) and S⁻¹(ℓ) are no right integrals
        return HopfAlgebroid(m2().lb, m2().rb, shifted_antipode((0, 0)),
                             base_antiiso=m2().chi, name="bad")

    # fails fsrinv-upper, fsrinv-star, nd-s-ell and nd-s-inv-ell
    cases["nondegeneracy-m2-rescaled-antipode"] = lambda: render(
        nondegeneracy(rescaled_antipode(), vec(1, 1, 1, 1)).report)
    # fails intpr-iii, intpr-iv, intpr-v and intpr-agree
    cases["intpr-m2-rescaled-antipode"] = lambda: render(
        intpr_equivalences(rescaled_antipode(), vec(1, 1, 1, 1)))

    def shifted_frobenius(at):
        # the M2 witness with one entry of λ* raised by 1
        h = m2()
        nd = copy.copy(nondegeneracy(h, vec(1, 1, 1, 1)))
        nd.lambda_star = _perturb(nd.lambda_star, *at, one)
        return render(frobenius_check(nd))

    # λ*(d1, e12): fails frob-left and the λ*(a s_R(r)) half of
    # frob-bimodule; λ*(d2, e12): frob-right and the λ*(s_R(r)a) half
    for at in ((0, 1), (1, 1)):
        cases[f"frobenius-corrupt-m2-lambda-{at[0]}{at[1]}"] = \
            lambda at=at: shifted_frobenius(at)

    cases["bgdnd-m2-degenerate-row"] = lambda: render(
        verify_bgdnd(hopf("m2-groupoid").rb, vec(1, 1, 0, 0)))

    def describe_integrals(h):
        lines = []
        for side in (LEFT, RIGHT):
            space = integral_space(h, side)
            lines += [f"{side}: dim {space.dim}",
                      fmt_matrix(space.space.basis)]
        return "\n".join(lines) + "\n"

    # the CLI reaches only the four bundled specs
    for fx in all_fixtures():
        cases[f"integral-space-{fx['name']}"] = \
            lambda fx=fx: describe_integrals(fx["hopf"])

    def singular_antipode():
        # the pair groupoid's antipode with column 1 zeroed: rank 3 of 4
        S = m2().S
        rows = [list(r) for r in S.rows]
        for r in rows:
            r[1] = QQ.zero
        return Matrix.from_rows(QQ, rows, S.ncols)

    # fails s-bijective and defiv
    cases["hopf-singular-antipode-m2"] = lambda: render(verify_hopf(
        HopfAlgebroid(m2().lb, m2().rb, singular_antipode(),
                      base_antiiso=m2().chi, name="bad")))
    # fails lu1-bijective
    cases["lu-singular-antipode-m2"] = lambda: render(check_lu_axioms(
        m2().lb, singular_antipode()))

    def unsolvable_chi():
        # t_R with entry (1, 0) set to 1: s_L∘χ = t_R has no solution
        h = m2()
        rows = [list(r) for r in h.rb.t.matrix.rows]
        rows[1][0] = one
        bad_t = with_matrix(h.rb.t, Matrix.from_rows(QQ, rows,
                                                     h.rb.t.matrix.ncols))
        return HopfAlgebroid(h.lb, corrupt(h.rb, t=bad_t), h.S, h.S_inv,
                             name="bad")

    # fails defi-chi with no linear solution
    cases["hopf-unsolvable-chi-m2"] = lambda: render(
        verify_hopf(unsolvable_chi()))

    def kz3():
        return group_hopf_algebroid(FiniteGroup.cyclic(3), QQ)

    def cycle():
        # e -> g -> g² -> e on the basis of kZ₃
        return Matrix.from_sparse_cols(QQ, [{1: one}, {2: one}, {0: one}], 3)

    # fails total-map-unit, base-map-unit, mor-src, mor-tgt and mor-counit
    cases["morphism-left-kz3-cycle"] = lambda: render(verify_left_morphism(
        kz3().lb, kz3().lb, cycle(), Matrix.from_rows(QQ, [[QQ.of(2)]], 1)))
    # the induced base map is the identity: fails total-map-unit, mor-src
    # and mor-tgt
    cases["morphism-right-kz3-cycle"] = lambda: render(verify_right_morphism(
        kz3().rb, kz3().rb, cycle()))

    def kz2():
        return group_hopf_algebroid(FiniteGroup.cyclic(2), QQ)

    def nonmember():
        # g(e11) = d2 violates the lower-star constraint of M2
        return Matrix.from_sparse_cols(QQ, [{1: one}, {}, {}, {}], 2)

    def zero_antipode():
        return Matrix.from_sparse_cols(QQ, [{}] * 4, 4)

    # fails twist-member; twist-invertible (no convolution inverse);
    # twist-base-auto, tw1 and tw2, with tw3 skipped
    cases["twist-verify-m2-nonmember"] = lambda: render(verify_twist(
        m2().lb, m2().S, nonmember()))
    cases["twist-verify-m2-zero"] = lambda: render(verify_twist(
        m2().lb, m2().S, Matrix.from_sparse_cols(QQ, [{}] * 4, 2)))
    cases["twist-verify-kz2-double-counit"] = lambda: render(verify_twist(
        kz2().lb, kz2().S, Matrix.from_sparse_cols(
            QQ, [{i: 2 * x for i, x in col.items()}
                 for col in kz2().lb.counit.cols], 1)))
    cases["twist-apply-m2-nonmember"] = lambda: _raises(
        lambda: apply_twist(m2().lb, m2().S, nonmember()))
    cases["twist-recover-m2-zero-antipode"] = lambda: _raises(
        lambda: recover_twist(m2().lb, zero_antipode(), m2().S))
    cases["reconstruct-right-m2-zero-antipode"] = lambda: _raises(
        lambda: reconstruct_right(m2().lb, zero_antipode()))
    cases["reconstruct-left-m2-zero-antipode"] = lambda: _raises(
        lambda: reconstruct_left(m2().rb, zero_antipode()))
    # fails lui-map-unit and lui-bijective, and stops
    cases["luiiv-m2-zero-antipode"] = lambda: render(check_luiiv(
        m2().lb, zero_antipode()))
    cases["uniqueness-kz2-m2"] = lambda: render(antipode_uniqueness(
        kz2(), m2()))
    # both sides pass and same-total fails
    cases["hopf-mixed-totals-kz2-kz3"] = lambda: render(verify_hopf(
        HopfAlgebroid(kz2().lb, kz3().rb, kz2().S, base_antiiso=kz2().chi,
                      name="bad")))
    return cases


def cases():
    """Map each golden file name (relative to this directory) to the
    function that renders its content."""
    out = {}
    for spec in SPECS:
        for cmd, pre, post in COMMANDS:
            for mode, mode_args in MODES:
                out[f"cli/{spec}/{cmd}.{mode}.txt"] = \
                    _cli_case(spec, pre, post, mode_args)
    for name, fn in _library_cases().items():
        out[f"lib/{name}.txt"] = fn
    return out


def existing_files():
    return sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*.txt"))


def main():
    table = cases()
    for stale in set(existing_files()) - set(table):
        (GOLDEN / stale).unlink()
        print(f"removed {stale}")
    for rel, fn in sorted(table.items()):
        path = GOLDEN / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        text = fn()
        old = path.read_bytes() if path.exists() else None
        new = text.encode("utf-8")
        if old != new:
            path.write_bytes(new)
            print(f"{'wrote' if old is None else 'changed'} {rel}")
    print(f"{len(table)} golden files")


if __name__ == "__main__":
    main()
