"""Slices of the benchmark's op lists, run through their own checks.

``bench/duality.py`` and ``bench/ladder.py`` compare every op's outcome
with an answer derived by hand.  The cheap ones are the pair2,
gf7-kz3-twisted and kZ2 ops of ``duality`` and the ten single-entry
``corrupt …`` ops of ``verify-ladder``; running them here once makes a
construction, or an interface the harness calls, that stops reaching those
answers fail the suite, not only a benchmark run.  The modules are imported
as ``bench/run.py`` imports them, with ``bench/`` on the path.
"""

import importlib
import random
import sys
from pathlib import Path

import pytest

import algebroids
import algebroids.catalog  # noqa: F401  (the workload reads alg.catalog)

BENCH = Path(__file__).resolve().parent.parent / "bench"
FIXTURES = ("pair2", "gf7-kz3-twisted", "kz2", "kz2-twisted")


@pytest.fixture(scope="module")
def bench_modules():
    """``duality``, ``common`` and ``ladder``; the modules they add are
    dropped again afterwards."""
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        yield tuple(importlib.import_module(name)
                    for name in ("duality", "common", "ladder"))
    finally:
        sys.path.remove(str(BENCH))
        for name in set(sys.modules) - before:
            if not name.startswith("algebroids"):
                del sys.modules[name]


def _run_through_checks(common, ops):
    """The labels and mismatches of the ops that miss their answers."""
    memo = {}
    failed = []
    for op in ops:
        args = op.prepare()
        assert not common.stale_caches(args), op.label
        try:
            op.check(op.run(*args), memo)
        except common.Mismatch as exc:
            failed.append(f"{op.label}: {exc}")
    return failed


def test_duality_ops_reach_their_known_answers(bench_modules):
    duality, common, _ = bench_modules
    workload = duality.build(algebroids, random.Random(1))
    ops = [op for op in workload.ops if op.label.split()[-2] in FIXTURES]
    assert len(ops) == 3 * 11 + 4
    assert not _run_through_checks(common, ops)


def test_ladder_corruptions_reach_their_known_answers(bench_modules):
    # among them ``corrupt struct``, which hands ``Algebra.from_struct`` the
    # sparse unit of an algebra, and ``corrupt unit``, a dense one
    _, common, ladder = bench_modules
    workload = ladder.build(algebroids, random.Random(1))
    ops = [op for op in workload.ops if op.label.startswith("corrupt ")]
    assert len(ops) == 10
    assert not _run_through_checks(common, ops)
