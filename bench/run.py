"""Benchmark runner for the algebroids workbench.

    python3 bench/run.py --workload duality --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  One process, one
op at a time, closed loop: the next op starts when the previous one has
returned.  Every op gets freshly built inputs (built outside the timed
region, with every lazy cache unset), and every outcome is compared with a
known answer written by hand.

On a shared virtual machine the speed of one core can swing by close to a
factor of two within seconds (neighbouring tenants, hyper-thread
contention), which would bury real changes.  So every time is rescaled by
a fixed stdlib-only reference loop (see ``HostSpeed``): a reported time is
in seconds on a host where the reference loop takes ``REF_NOMINAL_S``.
The raw wall-time medians and the median reference time are kept in the
context line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes, then traced passes with every layer of ``layers.LAYERS`` wrapped,
and prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run context.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

from common import Mismatch, median, percentile, stale_caches, tail_level
from layers import EXTRA_STATS, PACKAGE, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 9
MIN_PASSES = 2
REF_NOMINAL_S = 1e-3
TICK_S = 0.1

# layers that must read at least one call on each workload (traced run)
EXPECTED_LAYERS = {
    "verify-ladder": (
        "exactfield.matrix_apply", "exactfield.matmul", "exactfield.rref",
        "exactfield.echelon_insert", "exactfield.echelon_reduce",
        "algebra.mul_vec", "algebra.verify_algebra",
        "bimodtensor.quotient_build", "bimodtensor.projection_matrix",
        "bialgebroid.verify_left", "bialgebroid.verify_right",
        "bialgebroid.coproduct_lift", "hopfcore.verify_hopf",
        "hopfcore.check_lu", "twistlab.verify_weak_hopf"),
    "duality": (
        "exactfield.matrix_apply", "exactfield.matmul", "exactfield.rref",
        "exactfield.echelon_insert", "algebra.mul_vec",
        "algebra.verify_algebra", "bimodtensor.quotient_build",
        "bialgebroid.coproduct_lift", "hopfcore.verify_hopf",
        "dualspace.dual_module", "dualspace.product",
        "dualspace.dual_bialgebroid", "integrallab.integral_space",
        "integrallab.nondegeneracy", "integrallab.duality_diagram",
        "integrallab.dual_hopf", "integrallab.ls_antipode",
        "twistlab.verify_twist", "twistlab.wha_decide",
        "twistlab.verify_weak_hopf"),
    "cli-specs": (
        "exactfield.matrix_apply", "exactfield.rref", "algebra.mul_vec",
        "algebra.verify_algebra", "bialgebroid.verify_left",
        "bialgebroid.verify_right", "hopfcore.verify_hopf",
        "hopfcore.check_lu", "integrallab.integral_space",
        "integrallab.nondegeneracy", "integrallab.duality_diagram",
        "integrallab.dual_hopf", "integrallab.ls_antipode",
        "twistlab.verify_twist", "twistlab.wha_decide",
        "twistlab.verify_weak_hopf", "specfile.parse", "specfile.emit",
        "report.render", "cli.main"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no source tree)."""


def reference_loop():
    """Seconds taken by a fixed exact-arithmetic loop that uses nothing of
    the program under test, so it measures only the host's current speed."""
    start = time.perf_counter()
    acc = Fraction(0)
    row = {}
    for i in range(1, 200):
        c = Fraction(i % 7 + 1, i % 11 + 1)
        acc += c * Fraction(3, i % 5 + 1)
        row[i % 31] = row.get(i % 31, 0) + c
    return time.perf_counter() - start


class HostSpeed:
    """Rescales timed regions to a host of fixed speed.

    The reference loop runs right before and right after a timed region and,
    from an interval-timer signal, every ``TICK_S`` seconds inside it, so a
    long op sees the speed changes that happen while it runs.  Between two
    samples the op is taken to progress at the mean of their speeds; the
    time spent in the signal handler is taken out of the op's time.
    """

    def __init__(self):
        self._ticks = []

    def install(self):
        signal.signal(signal.SIGALRM, self._tick)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        ref = reference_loop()
        self._ticks.append((start, ref, time.perf_counter() - start))

    def timed(self, clock, fn, args):
        """Run ``fn(*args)`` under ``clock``.  Returns the outcome (or the
        exception it raised), the wall seconds without the handler time,
        the rescaled seconds and the reference samples."""
        self._ticks.clear()
        ref_before = reference_loop()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            outcome = clock.run(fn, args)
        except Exception as exc:  # the caller decides what a raise means
            outcome = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ref_after = reference_loop()
        start, end = clock.last_start, clock.last_start + clock.last_span
        inside = [t for t in self._ticks if start <= t[0] < end]
        points = [(start, ref_before, 0.0), *inside, (end, ref_after, 0.0)]
        seconds = sum((b[0] - a[0] - a[2]) * (1 / a[1] + 1 / b[1]) / 2
                      for a, b in zip(points, points[1:])) * REF_NOMINAL_S
        raw = clock.last_span - sum(t[2] for t in inside)
        return outcome, raw, seconds, [p[1] for p in points]


class PlainClock:
    """Times one op with no spans; same interface as ``layers.Tracer``."""

    last_start = last_span = 0.0

    def run(self, fn, args):
        self.last_start = start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.last_span = time.perf_counter() - start


class PassResult:
    def __init__(self):
        self.op_s = {}           # label -> rescaled seconds
        self.raw_s = {}          # label -> wall seconds
        self.refs = []           # reference-loop seconds
        self.fingerprints = {}   # label -> outcome summary
        self.failures = []       # (label, reason)
        self.wall_s = 0.0
        self.heavy_breakdown = None

    @property
    def pass_s(self):
        return sum(self.op_s.values())

    @property
    def raw_pass_s(self):
        return sum(self.raw_s.values())

    @property
    def failed_ops(self):
        return len({label for label, _ in self.failures})


# ---------------------------------------------------------------------------
# set-up


def source_dir():
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} source tree under {src}")
    return src


def import_package():
    """Import (or re-import) the package from this checkout's ``src``."""
    src = source_dir()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    alg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(alg.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise BenchError(f"{PACKAGE} was imported from {alg.__file__}")
    return alg


def build_workload(name, alg, rng, workdir):
    if name == "verify-ladder":
        import ladder
        return ladder.build(alg, rng)
    if name == "duality":
        import duality
        return duality.build(alg, rng)
    import clispecs
    return clispecs.build(alg, rng, str(workdir), str(ROOT))


def setup(name, seed, workdir, speed):
    """Import plus input generation, ``SETUP_REPS`` times; the last
    repetition's package and workload are the ones measured."""
    def once():
        alg = import_package()
        return alg, build_workload(name, alg, random.Random(seed), workdir)

    times = []
    for _ in range(SETUP_REPS):
        out, raw, seconds, _ = speed.timed(PlainClock(), once, ())
        if isinstance(out, Exception):
            raise out
        times.append((seconds, raw))
    return out + (times,)


# ---------------------------------------------------------------------------
# passes


def run_pass(workload, speed, clock, tracer=None):
    """One pass over the op list; checks every outcome."""
    result = PassResult()
    memo = {}
    gc.collect()
    start = time.perf_counter()
    for op in workload.ops:
        args = op.prepare()
        stale = stale_caches(args)
        if stale:
            result.failures.append((op.label, "input caches already set: "
                                    + ", ".join(stale)))
        before = tracer.snapshot() if tracer and op.label == workload.heavy \
            else None
        outcome, raw, seconds, refs = speed.timed(clock, op.run, args)
        if before is not None:
            after = tracer.snapshot()
            result.heavy_breakdown = (clock.last_span, {
                k: after[k] - before[k] for k in after})
        result.refs += refs
        result.raw_s[op.label] = raw
        result.op_s[op.label] = seconds
        if isinstance(outcome, Exception):  # an op that raises has failed
            result.fingerprints[op.label] = f"raised {type(outcome).__name__}"
            result.failures.append((op.label, f"raised {outcome!r}"))
            continue
        try:
            result.fingerprints[op.label] = op.check(outcome, memo)
        except Mismatch as exc:
            result.fingerprints[op.label] = "mismatch"
            result.failures.append((op.label, str(exc)))
    result.wall_s = time.perf_counter() - start
    return result


def measure(workload, speed, clock, budget, min_passes, tracer=None):
    """Whole passes until the next one would overrun ``budget`` seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, speed, clock, tracer))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + passes[-1].wall_s > budget:
            return passes


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, passes, setup_times):
    """The per-op statistics run over the op list, each op represented by
    its median over the passes."""
    per_op = [median([p.op_s[op.label] for p in passes])
              for op in workload.ops]
    level = tail_level(len(per_op))
    return {
        "setup_s": (median([t for t, _ in setup_times]), "s"),
        "pass_s": (median([p.pass_s for p in passes]), "s"),
        "op_p50_ms": (median(per_op) * 1e3, "ms"),
        "op_tail_ms": (percentile(per_op, level) * 1e3, "ms"),
        "heavy_s": (median([p.op_s[workload.heavy] for p in passes]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {"percentile": level, "ops": len(per_op), "passes": len(passes)}


def raw_medians(workload, passes, setup_times):
    """Wall-time medians before rescaling, and the host's reference time."""
    return {
        "setup_s": median([raw for _, raw in setup_times]),
        "pass_s": median([p.raw_pass_s for p in passes]),
        "heavy_s": median([p.raw_s[workload.heavy] for p in passes]),
        "reference_loop_s": median([r for p in passes for r in p.refs]),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(tracer, traced, untraced, errors):
    n = len(traced)
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = (st.calls / n, "count")
        out[f"{name}.self_s"] = (st.self_s / n, "s")
        for stat, counter, unit in EXTRA_STATS.get(name, ()):
            value = st.counters[counter]
            if unit == "ratio":
                value = value / st.calls if st.calls else 0.0
            else:
                value /= n
            out[f"{name}.{stat}"] = (value, unit)
    out["trace.unattributed_s"] = (tracer.unattributed_s / n, "s")
    traced_s = median([p.pass_s for p in traced])
    out["trace.overhead_ratio"] = (
        traced_s / median([p.pass_s for p in untraced]), "ratio")

    op_s, deltas = traced[-1].heavy_breakdown
    layers_s = sum(v for k, v in deltas.items() if not k.startswith("<"))
    unattributed = deltas["<unattributed>"]
    if abs(op_s - layers_s - unattributed) > 1e-6 * max(1.0, op_s):
        errors.append(f"heavy op attribution does not add up: {op_s} s vs "
                      f"{layers_s} + {unattributed} s")
    out["trace.heavy_op_s"] = (op_s, "s")
    out["trace.heavy_layers_self_s"] = (layers_s, "s")
    out["trace.heavy_unattributed_s"] = (unattributed, "s")
    out["trace.heavy_quotient_share"] = (deltas["<quotient incl>"] / op_s,
                                         "ratio")
    return out, deltas


# ---------------------------------------------------------------------------
# run context


def commit_id():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def context(args, workload, passes, extra):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "loop": "closed, 1 client, 1 op in flight",
        "ops_per_pass": len(workload.ops),
        "passes": {k: len(v) for k, v in passes.items()},
        **extra,
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(EXPECTED_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source_dir()
    workdir = ROOT / ".bench_build" / f"{args.workload}-{os.getpid()}"
    speed = HostSpeed()
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        speed.install()
        alg, workload, setup_times = setup(args.workload, args.seed, workdir,
                                           speed)
        errors = []
        if args.trace == 0:
            passes = {"untraced": measure(workload, speed, PlainClock(),
                                          args.seconds, MIN_PASSES)}
        else:
            passes = {"untraced": measure(workload, speed, PlainClock(),
                                          args.seconds * 0.4, 1)}
            tracer = Tracer()
            tracer.install()
            try:
                passes["traced"] = measure(workload, speed, tracer,
                                           args.seconds * 0.6, 1, tracer)
            finally:
                tracer.uninstall()
    finally:
        speed.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    all_passes = [p for group in passes.values() for p in group]
    attempted = sum(len(p.op_s) for p in all_passes)
    failed = sum(p.failed_ops for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    first = all_passes[0].fingerprints
    for p in all_passes[1:]:
        if p.fingerprints != first:
            diff = sorted(k for k in first
                          if p.fingerprints.get(k) != first[k])
            errors.append(f"outcomes differ between passes: {diff[:5]}")
            break

    if args.trace == 0:
        metrics, tail = end_to_end(workload, passes["untraced"], setup_times)
        extra = {"op_tail": tail, "fail_ratio": failed / attempted,
                 "raw_wall": raw_medians(workload, passes["untraced"],
                                         setup_times)}
        line = " | ".join(f"{k} {v:.4g} {u}" for k, (v, u) in metrics.items())
        print(f"{args.workload} seed {args.seed}: {line} | fail_ratio "
              f"{failed}/{attempted} ratio | op_tail is p{tail['percentile']}"
              f" of {tail['ops']} ops x {tail['passes']} passes")
    else:
        metrics, deltas = per_layer(tracer, passes["traced"],
                                    passes["untraced"], errors)
        for name in EXPECTED_LAYERS[args.workload]:
            if tracer.stats[name].calls == 0:
                errors.append(f"layer {name} read zero calls")
        print(f"heavy op {workload.heavy!r}: layer self times")
        for k, v in sorted(deltas.items(), key=lambda kv: -kv[1]):
            if v and k != "<quotient incl>":
                print(f"  {k:34s} {v:10.4f} s")
        op_s = metrics["trace.heavy_op_s"][0]
        share = metrics["trace.heavy_quotient_share"][0]
        print(f"  {'= traced op time':34s} {op_s:10.4f} s"
              f"  (quotient share {share:.3f})")
        extra = {}

    for label, reason in failures[:20]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    for err in errors:
        print(f"ERROR {err}", file=sys.stderr)
    extra["errors"] = errors
    print(json.dumps({"context": context(args, workload, passes, extra)}))
    print(json.dumps({
        "correct": not failed and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
