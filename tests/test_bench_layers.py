"""The traced benchmark's layer table still names the package's kernels.

``bench/layers.py`` wraps each layer by its attribute path, and
``bench/run.py`` demands calls on named layers per workload.  A renamed or
removed kernel would only show when a traced benchmark run fails; here it
fails the suite.  The two modules are imported; only the last test runs
ops: one traced pass of each workload, to see that every layer the
workload expects is still called.
"""

import importlib
import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    """``layers`` and ``run`` as ``run.py`` imports them, with ``bench/`` on
    the path; the modules they add are dropped again afterwards."""
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("layers"), importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCH))
        for name in set(sys.modules) - before:
            if not name.startswith("algebroids"):
                del sys.modules[name]


def test_every_layer_path_resolves(bench_modules):
    layers, _ = bench_modules
    for name, (modname, paths, *_) in layers.LAYERS.items():
        module = importlib.import_module(f"{layers.PACKAGE}.{modname}")
        for path in paths:
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            # the tracer patches the attribute where it is defined
            assert callable(vars(owner).get(attr)), f"{name}: {path}"


def test_expected_layers_are_traced_layers(bench_modules):
    layers, run = bench_modules
    for workload, names in run.EXPECTED_LAYERS.items():
        missing = set(names) - set(layers.LAYERS)
        assert not missing, (workload, sorted(missing))


def test_stale_caches_sees_the_lazy_slots(bench_modules):
    """``common.stale_caches`` is the benchmark's check that every op starts
    from inputs with no lazy cache filled.  It finds caches by their slot
    names, so a renamed slot would let it pass without checking anything:
    a fresh pair groupoid has none filled, and one ``verify_hopf`` fills
    every slot it names."""
    import algebroids
    from algebroids.catalog import pair_groupoid_hopf_algebroid
    from algebroids.hopfcore import verify_hopf

    common = importlib.import_module("common")
    h = common.fresh_hopf(algebroids,
                          pair_groupoid_hopf_algebroid(2, algebroids.QQ))
    assert common.stale_caches((h,)) == []
    verify_hopf(h)
    found = common.stale_caches((h,))
    slots = {path.rsplit(".", 1)[1] for path in found}
    assert {"_space", "_triple", "_gamma_q", "_canon_lift", "_llr",
            "_rrl"} <= slots, found
    assert any(path.endswith("._rref") for path in found), found


def test_copy_matrix_keeps_the_matrix_and_drops_its_cache(bench_modules):
    """``common.copy_matrix`` rebuilds a matrix from its shape and its
    ``rows`` to give every op inputs with no elimination cached.  The copy
    must equal the original, with ``_rref`` unset, and ``stale_caches``
    must still report the original's filled ``_rref``."""
    import algebroids
    from algebroids.exactfield import Matrix, PrimeField

    common = importlib.import_module("common")
    qq, f7 = algebroids.QQ, PrimeField(7)
    cases = [
        Matrix.from_rows(qq, [[qq.of(1), qq.zero, qq.of(2)],
                              [qq.zero, qq.zero, qq.zero]]),
        Matrix.from_cols(f7, [[f7.of(3), f7.of(5)], [f7.zero, f7.one]]),
        Matrix(qq, 0, 3, []),
        Matrix(f7, 2, 0, [(), ()]),
    ]
    for m in cases:
        assert common.stale_caches((m,)) == []
        m.rank()
        assert common.stale_caches((m,)) == ["arg0._rref"]
        copy = common.copy_matrix(algebroids, m)
        assert copy == m and hash(copy) == hash(m)
        assert copy._rref is None
        assert common.stale_caches((copy,)) == []
        assert copy.rref_pivots() == m.rref_pivots()


@pytest.mark.parametrize("workload", ["verify-ladder", "duality",
                                      "cli-specs"])
def test_every_expected_layer_reads_calls(bench_modules, workload, tmp_path):
    """A kernel that still exists but is no longer called passes the path
    checks above, yet reads zero calls in a traced run, and that run is then
    not ``correct``.  One traced pass of the workload at seed 1, every op
    checked against its answer, must call every layer ``run.py`` expects
    on it."""
    import algebroids
    import algebroids.cli  # noqa: F401  (the tracer wraps ``cli.main``)

    layers, run = bench_modules
    ops = run.build_workload(workload, algebroids, random.Random(1),
                             tmp_path).ops
    memo = {}
    tracer = layers.Tracer()
    tracer.install()
    try:
        for op in ops:
            args = op.prepare()
            with redirect_stdout(io.StringIO()):
                outcome = tracer.run(op.run, args)
            op.check(outcome, memo)
    finally:
        tracer.uninstall()
    silent = [name for name in run.EXPECTED_LAYERS[workload]
              if not tracer.stats[name].calls]
    assert not silent, f"layers that read zero calls: {silent}"
