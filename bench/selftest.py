"""Self-test of the benchmark's own bookkeeping.

    python3 bench/selftest.py

Plants faults the runner must count and checks that each one is counted
as a failed op: a wrong known answer, an op that raises, and an input whose
lazy quotient cache was filled before the op.  It then runs the same ops
traced and checks that the tracer reached ``verify_hopf`` through every
binding (the CLI calls it through its own import) and that traced and
untraced outcomes agree.  Exits 0 when all of that holds.
"""

import contextlib
import io
import sys

import run
from common import Mismatch, Op, Workload, expect_pass, fresh_hopf
from layers import Tracer

PLANTED = {"planted wrong answer", "planted raise", "planted stale input"}


def build(alg):
    cat = alg.catalog
    z2 = cat.FiniteGroup.cyclic(2)

    def kz2():
        return (fresh_hopf(alg, cat.group_hopf_algebroid(z2, alg.QQ)),)

    def warmed():
        h = kz2()[0]
        h.lb.tensor_space  # fills the lazy quotient cache
        return (h,)

    def wrong_answer(rep, memo):
        if rep.passed:  # k[Z2] passes: expecting a failure is wrong
            raise Mismatch("planted wrong expectation")
        return "FAIL"

    def cli_check():
        with contextlib.redirect_stdout(io.StringIO()):
            return alg.cli.main(["check", str(run.ROOT / "specs" / "kz2.spec"),
                                 "--level", "hopf"])

    ops = [
        Op("right answer", kz2, lambda h: alg.verify_hopf(h),
           lambda rep, memo: expect_pass(rep)),
        Op("planted wrong answer", kz2, lambda h: alg.verify_hopf(h),
           wrong_answer),
        # 0 is a degenerate integral, so ls_antipode raises
        Op("planted raise", kz2,
           lambda h: alg.ls_antipode(h.rb, (alg.QQ.zero, alg.QQ.zero)),
           lambda built, memo: "built"),
        Op("planted stale input", warmed, lambda h: alg.verify_hopf(h),
           lambda rep, memo: expect_pass(rep)),
        Op("cli check", lambda: (), cli_check,
           lambda code, memo: f"exit {code}"),
    ]
    return Workload(ops, "right answer")


def main():
    alg = run.import_package()
    workload = build(alg)
    problems = []

    speed = run.HostSpeed()
    speed.install()
    try:
        plain = run.run_pass(workload, speed, run.PlainClock())
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.run_pass(workload, speed, tracer, tracer)
        finally:
            tracer.uninstall()
    finally:
        speed.uninstall()
    counted = {label for label, _ in plain.failures}
    if counted != PLANTED:
        problems.append(f"counted failures {sorted(counted)}, "
                        f"planted {sorted(PLANTED)}")

    calls = tracer.stats["hopfcore.verify_hopf"].calls
    if calls != 4:
        problems.append(f"traced verify_hopf calls {calls}, want 4 "
                        "(three direct, one through the CLI)")
    if traced.fingerprints != plain.fingerprints:
        problems.append("traced and untraced outcomes differ")
    op_s, deltas = traced.heavy_breakdown
    total = sum(v for k, v in deltas.items() if k != "<quotient incl>")
    if abs(op_s - total) > 1e-6:
        problems.append(f"attribution {total} s does not add up to {op_s} s")

    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else
          f"PASS ({len(PLANTED)} planted faults counted)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
