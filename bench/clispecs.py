"""cli-specs: in-process ``cli.main(argv)`` for every command on every
bundled spec under ``--report text`` and ``--report structured``, the same
in text under ``--field gf:7``, and small specs generated at set-up through
``SpecBuilder``.  Emitting commands write to ``--out`` and the op re-parses
the file.

Known exit codes, by hand from what each spec declares (README: 0 pass,
1 a check failed, 2 usage or reference error):

* ``kz2``, ``kz2-twisted`` and ``m2-groupoid`` declare one Hopf assembly
  with its two bialgebroids and an integral element; ``kz3-rb`` declares
  only a right bialgebroid and an integral element.  No bundled spec
  declares a weak Hopf algebra, a functional or a second Hopf assembly.
* So every command that needs a Hopf assembly (or a left bialgebroid)
  exits 2 on ``kz3-rb``; ``check --level weak-hopf``, ``twist verify`` and
  ``twist apply`` (no functional) and ``twist recover`` (not two
  assemblies) exit 2 everywhere; ``check --level lu`` exits 1 on
  ``kz2-twisted`` (the sign twist fails lu3); everything else exits 0.
  Reducing the rational data mod 7 changes none of this.
* Generated: ks3 with the sign functional and its twisted assembly passes
  ``check --level hopf``, ``twist verify``/``apply``/``recover`` and
  ``wha-decide`` (twistable), and its twisted side fails lu3 (exit 1);
  the pair2 weak Hopf algebra passes; pair2 with a seeded non-canonical
  coproduct passes ``check --level hopf`` and ``check --level lu`` with its
  declared canonical section; a missing section and a truncated JSON file
  exit 2.
"""

import contextlib
import io
import json
import os

from common import Mismatch, Op, Workload, fresh_hopf, noncanonical_lift

HEAVY = "dualize m2-groupoid text"
BUNDLED = ("kz2", "kz2-twisted", "kz3-rb", "m2-groupoid")
COMMANDS = (
    ("check", "--level", "algebra"),
    ("check", "--level", "left-bialgebroid"),
    ("check", "--level", "right-bialgebroid"),
    ("check", "--level", "hopf"),
    ("check", "--level", "weak-hopf"),
    ("check", "--level", "lu"),
    ("integrals",),
    ("ls-antipode",),
    ("twist", "verify"),
    ("twist", "apply"),
    ("twist", "recover"),
    ("dualize",),
    ("wha-decide",),
    ("diagram",),
)
EMITS = {("ls-antipode",): "hopf_algebroids",
         ("twist", "apply"): "hopf_algebroids",
         ("twist", "recover"): "functionals",
         ("dualize",): "hopf_algebroids"}
NEEDS_HOPF = {("check", "--level", "left-bialgebroid"),
              ("check", "--level", "hopf"), ("check", "--level", "lu"),
              ("integrals",), ("dualize",), ("wha-decide",), ("diagram",)}
ALWAYS_2 = {("check", "--level", "weak-hopf"), ("twist", "verify"),
            ("twist", "apply"), ("twist", "recover")}


def bundled_exit_code(command, spec):
    if command in ALWAYS_2 or (spec == "kz3-rb" and command in NEEDS_HOPF):
        return 2
    if spec == "kz2-twisted" and command == ("check", "--level", "lu"):
        return 1
    return 0


def _argv(command, path, extra):
    if command[0] == "twist":
        return [command[0], command[1], path, *extra]
    return [command[0], path, *command[1:], *extra]


def _generate(alg, rng, workdir, root):
    """Write the generated specs; returns their paths by short name."""
    cat, QQ = alg.catalog, alg.QQ
    paths = {}

    def write(name, text):
        paths[name] = os.path.join(workdir, f"{name}.spec")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)

    s3 = cat.FiniteGroup.symmetric(3)
    h = cat.group_hopf_algebroid(s3, QQ)
    sign = alg.Matrix.from_rows(QQ, [cat.Character.sign(s3, QQ).values], 6)
    b = alg.SpecBuilder(QQ)
    b.add_hopf(h, name="ks3")
    b.add_hopf(alg.apply_twist(h.lb, h.S, sign), name="ks3-sign")
    b.add_functional("sign", b.data["hopf_algebroids"]["ks3"]["left"], sign)
    write("ks3-twist", b.emit())

    b = alg.SpecBuilder(QQ)
    b.add_weak_hopf(cat.pair_groupoid_weak_hopf(2, QQ), name="pair2-weak")
    write("pair2-weak", b.emit())

    h = cat.pair_groupoid_hopf_algebroid(2, QQ)
    h = fresh_hopf(alg, h, (noncanonical_lift(alg, rng, h.lb),
                            noncanonical_lift(alg, rng, h.rb)))
    b = alg.SpecBuilder(QQ)
    b.add_hopf(h, name="pair2")
    b.add_section("xi", b.data["hopf_algebroids"]["pair2"]["left"],
                  h.lb.tensor_space.section_matrix())
    write("pair2-section", b.emit())

    with open(os.path.join(root, "specs", "kz2.spec"), encoding="utf-8") as fh:
        text = fh.read()
    write("truncated", text[:len(text) // 2])
    return paths


def build(alg, rng, workdir, root):
    generated = _generate(alg, rng, workdir, root)
    out_path = os.path.join(workdir, "out.spec")

    def run(argv, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = alg.cli.main(argv)
        parsed = alg.specfile.parse(out) if out else None
        return code, stdout.getvalue(), stderr.getvalue(), parsed

    def op(label, argv, want, fmt="text", emits=None):
        argv = list(argv) + ["--report", fmt]
        out = None
        if emits is not None:
            argv += ["--out", out_path]
            out = out_path if want == 0 else None

        def prepare():
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path)
            return argv, out

        def check(result, memo):
            code, stdout, stderr, parsed = result
            if code != want:
                raise Mismatch(f"exit {code}, want {want}: "
                               f"{stderr.strip()[:200]}")
            if code == 2:
                if stdout or not stderr.startswith("error:"):
                    raise Mismatch("exit 2 without an error line")
                return "exit 2"
            verdict = "PASS" if code == 0 else "FAIL"
            if fmt == "structured":
                body = json.loads(stdout)
                ok = (body["schema"] == "algebroid-report/1"
                      and body["verdict"] == verdict)
            else:
                ok = stdout.split("\n", 1)[0].endswith(f": {verdict}")
            if not ok:
                raise Mismatch(f"report does not say {verdict}")
            if emits is not None and not getattr(parsed, emits):
                raise Mismatch(f"emitted spec declares no {emits}")
            return f"exit {code}"

        return Op(label, prepare, run, check)

    ops = []
    for extra, fmts, tag in (((), ("text", "structured"), ""),
                             (("--field", "gf:7"), ("text",), " gf7")):
        for command in COMMANDS:
            for spec in BUNDLED:
                path = os.path.join(root, "specs", f"{spec}.spec")
                for fmt in fmts:
                    label = f"{' '.join(command)} {spec} {fmt}{tag}"
                    ops.append(op(label, _argv(command, path, extra),
                                  bundled_exit_code(command, spec), fmt,
                                  EMITS.get(command)))

    ks3, weak, pair2, broken = (generated[k] for k in (
        "ks3-twist", "pair2-weak", "pair2-section", "truncated"))
    for label, argv, want, emits in (
            ("check hopf ks3-twist", ["check", ks3, "--level", "hopf"], 0,
             None),
            ("check lu ks3-sign", ["check", ks3, "--level", "lu",
                                   "--name", "ks3-sign"], 1, None),
            ("twist verify ks3-twist", ["twist", "verify", ks3, "--name", "ks3",
                                        "--functional", "sign"], 0, None),
            ("twist apply ks3-twist", ["twist", "apply", ks3, "--name", "ks3",
                                       "--functional", "sign"], 0,
             "hopf_algebroids"),
            ("twist recover ks3-twist", ["twist", "recover", ks3], 0,
             "functionals"),
            ("wha-decide ks3-sign", ["wha-decide", ks3, "--name", "ks3-sign"],
             0, None),
            ("check weak-hopf pair2-weak", ["check", weak, "--level",
                                            "weak-hopf"], 0, None),
            ("check hopf pair2-section", ["check", pair2, "--level", "hopf"],
             0, None),
            ("check lu pair2-section xi", ["check", pair2, "--level", "lu",
                                           "--section", "xi"], 0, None),
            ("check lu pair2-section missing", ["check", pair2, "--level",
                                                "lu", "--section", "nope"],
             2, None),
            ("check hopf truncated", ["check", broken, "--level", "hopf"], 2,
             None)):
        ops.append(op(label, argv, want, emits=emits))
    return Workload(ops, HEAVY)
