"""Per-layer spans for the traced benchmark run.

Each layer is one public function or method of an ``algebroids`` module.
The tracer wraps it where it is defined and, for module-level functions, in
every ``algebroids`` module that imported it by name, so a call cannot
bypass the wrapper through a second binding.  While an op runs, every call
opens a span; spans are folded into per-layer totals as they close instead
of being stored, because the hot layers see hundreds of thousands of calls
per pass.

A layer's self time is its span time minus the time covered by its child
spans; ``unattributed`` is op time covered by no span.  Both come from the
same clock readings, so an op's layer self times plus its unattributed
time add up to the op time exactly.  A call made directly inside a span of
the same layer (for example ``dual_star_lower`` delegating to
``dual_lower_star``) is folded into that span and not counted again.
"""

import functools
import sys
import time


def _entries(stat, args, result, token):
    m = args[0]
    stat.counters["entries"] += m.nrows * m.ncols


def _rref_before(args):
    return args[0]._rref is not None


def _rref_hit(stat, args, result, token):
    stat.counters["hits"] += token


def _useful(stat, args, result, token):
    stat.counters["useful"] += bool(result)


def _quotient_dims(stat, args, result, token):
    space = args[0]
    stat.counters["ambient_dim"] += space.total_dim
    stat.counters["relation_rank"] += space.relation_rank
    stat.counters["quotient_dim"] += space.dim


def _text_bytes(stat, args, result, token):
    stat.counters["bytes"] += len(args[0].encode("utf-8"))


def _result_bytes(stat, args, result, token):
    stat.counters["bytes"] += len(result.encode("utf-8"))


# name -> (module, attribute paths, counters, before hook, after hook)
LAYERS = {
    "exactfield.matrix_apply": ("exactfield", ("Matrix.apply",),
                                ("entries",), None, _entries),
    "exactfield.matmul": ("exactfield", ("Matrix.__matmul__",), (), None, None),
    "exactfield.rref": ("exactfield", ("Matrix.rref_pivots",),
                        ("hits",), _rref_before, _rref_hit),
    "exactfield.echelon_insert": ("exactfield", ("SparseEchelon.insert",),
                                  ("useful",), None, _useful),
    "exactfield.echelon_reduce": ("exactfield", ("SparseEchelon.reduce",),
                                  (), None, None),
    "algebra.mul_vec": ("algebra", ("Algebra.mul_vec",), (), None, None),
    "algebra.verify_algebra": ("algebra", ("verify_algebra",), (), None, None),
    "bimodtensor.quotient_build": (
        "bimodtensor", ("BalancedTensorSpace.__init__",),
        ("ambient_dim", "relation_rank", "quotient_dim"), None,
        _quotient_dims),
    "bimodtensor.projection_matrix": (
        "bimodtensor", ("BalancedTensorSpace.projection_matrix",), (),
        None, None),
    "bialgebroid.verify_left": ("bialgebroid", ("verify_left_bialgebroid",),
                                (), None, None),
    "bialgebroid.verify_right": ("bialgebroid", ("verify_right_bialgebroid",),
                                 (), None, None),
    "bialgebroid.coproduct_lift": (
        "bialgebroid", ("_BialgebroidBase.coproduct_lift",), (), None, None),
    "hopfcore.verify_hopf": ("hopfcore", ("verify_hopf",), (), None, None),
    "hopfcore.check_lu": ("hopfcore", ("check_lu_axioms",), (), None, None),
    "dualspace.dual_module": ("dualspace", ("DualModule.__init__",),
                              (), None, None),
    "dualspace.product": ("dualspace", ("DualModule.product",), (), None, None),
    "dualspace.dual_bialgebroid": (
        "dualspace", ("dual_lower_star", "dual_star_lower", "dual_upper_star",
                      "dual_star_upper"), (), None, None),
    "integrallab.integral_space": ("integrallab", ("integral_space",),
                                   (), None, None),
    "integrallab.nondegeneracy": ("integrallab", ("nondegeneracy",),
                                  (), None, None),
    "integrallab.duality_diagram": ("integrallab", ("duality_diagram",),
                                    (), None, None),
    "integrallab.dual_hopf": ("integrallab", ("dual_hopf_algebroid",),
                              (), None, None),
    "integrallab.ls_antipode": ("integrallab", ("ls_antipode",), (), None, None),
    "twistlab.verify_twist": ("twistlab", ("verify_twist",), (), None, None),
    "twistlab.wha_decide": ("twistlab", ("wha_decide",), (), None, None),
    "twistlab.verify_weak_hopf": ("twistlab", ("verify_weak_hopf",),
                                  (), None, None),
    "specfile.parse": ("specfile", ("parse_text",), ("bytes",), None,
                       _text_bytes),
    "specfile.emit": ("specfile", ("SpecBuilder.emit",), ("bytes",), None,
                      _result_bytes),
    "report.render": ("report", ("Report.render_text", "Report.to_dict"),
                      (), None, None),
    "cli.main": ("cli", ("main",), (), None, None),
}

# (reported stat, counter, unit); a ratio is per call, the rest per pass
EXTRA_STATS = {
    "exactfield.matrix_apply": (("entries", "entries", "count"),),
    "exactfield.rref": (("cache_hit_ratio", "hits", "ratio"),),
    "exactfield.echelon_insert": (("useful_ratio", "useful", "ratio"),),
    "bimodtensor.quotient_build": (
        ("ambient_dim", "ambient_dim", "count"),
        ("relation_rank", "relation_rank", "count"),
        ("quotient_dim", "quotient_dim", "count")),
    "specfile.parse": (("bytes", "bytes", "bytes"),),
    "specfile.emit": (("bytes", "bytes", "bytes"),),
}

PACKAGE = "algebroids"
QUOTIENT_LAYER = "bimodtensor.quotient_build"


class LayerError(RuntimeError):
    """A layer could not be wrapped, so its numbers would silently read 0."""


class LayerStat:
    """Running totals of one layer."""

    __slots__ = ("calls", "self_s", "incl_s", "counters")

    def __init__(self, counter_names):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.counters = dict.fromkeys(counter_names, 0)


class Tracer:
    """Wraps the layers of one imported ``algebroids`` package.

    ``install`` patches, ``uninstall`` restores the originals.  Spans are
    recorded only inside ``run``; outside it a wrapper is a plain
    pass-through, so result checks made by the benchmark are not traced.
    """

    def __init__(self):
        self.stats = {name: LayerStat(spec[2])
                      for name, spec in LAYERS.items()}
        self.unattributed_s = 0.0
        self.last_start = self.last_span = 0.0
        self._stack = []
        self._patches = []

    # -- patching -------------------------------------------------------------

    def _package_modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        if self._patches:
            raise LayerError("tracer already installed")
        modules = self._package_modules()
        for name, (modname, paths, _, before, after) in LAYERS.items():
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            if module is None:
                raise LayerError(f"{name}: module {modname} is not imported")
            for path in paths:
                self._patch_one(name, module, path, modules, before, after)

    def _patch_one(self, name, module, path, modules, before, after):
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                raise LayerError(f"{name}: {module.__name__}.{path} is gone")
        original = vars(owner).get(attr)
        if not callable(original):
            raise LayerError(f"{name}: {module.__name__}.{path} is gone")
        wrapped = self._wrap(name, original, before, after)
        if owner is module:
            sites = [(m, key) for m in modules
                     for key, value in vars(m).items() if value is original]
        else:
            sites = [(owner, attr)]
        for site, key in sites:
            setattr(site, key, wrapped)
            self._patches.append((site, key, original))

    def uninstall(self):
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, before, after):
        stack = self._stack
        stat = self.stats[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                parent[1] += span
                stat.self_s += span - frame[1]
                if parent[0] != name:
                    stat.calls += 1
                    stat.incl_s += span
            if after is not None:
                after(stat, args, result, token)
            return result

        return traced

    # -- ops ------------------------------------------------------------------

    def run(self, fn, args):
        """Run one op under a root span; its time is left in ``last_span``."""
        frame = ["<op>", 0.0]
        self._stack.append(frame)
        self.last_start = start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span = time.perf_counter() - start
            self._stack.pop()
            self.unattributed_s += span - frame[1]
            self.last_span = span

    def snapshot(self):
        """Self time per layer plus unattributed time, for differencing."""
        snap = {name: st.self_s for name, st in self.stats.items()}
        snap["<unattributed>"] = self.unattributed_s
        snap["<quotient incl>"] = self.stats[QUOTIENT_LAYER].incl_s
        return snap
