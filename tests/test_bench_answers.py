"""A slice of the benchmark's ``duality`` op list, run through its own checks.

``bench/duality.py`` compares every op's outcome with an answer derived by
hand.  Its pair2, gf7-kz3-twisted and kZ2 ops are the cheap ones; running
them here once makes a construction that stops reaching those answers fail
the suite, not only a benchmark run.  The modules are imported as
``bench/run.py`` imports them, with ``bench/`` on the path.
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
    """``duality`` and ``common``; the modules they add are dropped again
    afterwards."""
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("duality"), importlib.import_module(
            "common")
    finally:
        sys.path.remove(str(BENCH))
        for name in set(sys.modules) - before:
            if not name.startswith("algebroids"):
                del sys.modules[name]


def test_duality_ops_reach_their_known_answers(bench_modules):
    duality, common = bench_modules
    workload = duality.build(algebroids, random.Random(1))
    ops = [op for op in workload.ops if op.label.split()[-2] in FIXTURES]
    assert len(ops) == 3 * 11 + 4
    memo = {}
    failed = []
    for op in ops:
        args = op.prepare()
        assert not common.stale_caches(args), op.label
        try:
            op.check(op.run(*args), memo)
        except common.Mismatch as exc:
            failed.append(f"{op.label}: {exc}")
    assert not failed
