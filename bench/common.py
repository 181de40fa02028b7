"""Ops, fresh-input checks and known-answer helpers shared by the workloads."""

import math


class Mismatch(Exception):
    """An op's outcome differs from its known answer."""


class Op:
    """One timed call of a workload.

    ``prepare()`` builds the inputs outside the timed region and returns the
    argument tuple; ``run(*args)`` is the timed call; ``check(result, memo)``
    compares the outcome with the known answer, raises :class:`Mismatch` when
    it differs, and otherwise returns a short fingerprint of the outcome.
    ``memo`` is shared by the ops of one pass, for answers that refer to an
    earlier op of the same pass.
    """

    __slots__ = ("label", "prepare", "run", "check")

    def __init__(self, label, prepare, run, check):
        self.label = label
        self.prepare = prepare
        self.run = run
        self.check = check


class Workload:
    """A fixed op list plus the label of its named heaviest op."""

    def __init__(self, ops, heavy):
        labels = [op.label for op in ops]
        if len(set(labels)) != len(labels):
            raise ValueError("op labels must be unique")
        if heavy not in labels:
            raise ValueError(f"heavy op {heavy!r} is not in the op list")
        self.ops = ops
        self.heavy = heavy


# ---------------------------------------------------------------------------
# fresh inputs: every op pays the lazy quotient set-up a CLI invocation pays

CACHE_ATTRS = ("_space", "_triple", "_gamma_q", "_canon_lift", "_llr", "_rrl",
               "_capl", "_capr")
_WALK = ("lb", "rb", "S", "S_inv", "chi", "s", "t", "matrix", "gamma_lift",
         "counit", "delta", "antipode")


def stale_caches(args):
    """Paths of lazy caches that are already filled in an op's inputs."""
    found = []
    seen = set()

    def walk(obj, path):
        if id(obj) in seen or \
                not type(obj).__module__.startswith("algebroids."):
            return
        seen.add(id(obj))
        if hasattr(type(obj), "rref_pivots"):
            if obj._rref is not None:
                found.append(f"{path}._rref")
            return
        attrs = vars(obj)
        found.extend(f"{path}.{a}" for a in CACHE_ATTRS
                     if attrs.get(a) is not None)
        for a in _WALK:
            if attrs.get(a) is not None:
                walk(attrs[a], f"{path}.{a}")

    for i, arg in enumerate(args):
        walk(arg, f"arg{i}")
    return found


def copy_matrix(alg, m):
    return alg.Matrix(m.field, m.nrows, m.ncols, m.rows)


def fresh_hopf(alg, h, gammas=None):
    """An equal Hopf algebroid built from ``h``'s data with every lazy cache
    unset; ``gammas`` optionally replaces the (left, right) coproduct lifts."""
    maps = {}

    def fresh_map(f):
        if id(f) not in maps:
            maps[id(f)] = alg.AlgebraMap(f.source, f.target,
                                         copy_matrix(alg, f.matrix), f.kind,
                                         f.name)
        return maps[id(f)]

    def fresh_bgd(b, gamma):
        return type(b)(b.total, b.base, fresh_map(b.s), fresh_map(b.t),
                       copy_matrix(alg, gamma), copy_matrix(alg, b.counit),
                       name=b.name)

    gl, gr = gammas or (h.lb.gamma_lift, h.rb.gamma_lift)
    chi = fresh_map(h.chi) if h.chi is not None else None
    return alg.HopfAlgebroid(fresh_bgd(h.lb, gl), fresh_bgd(h.rb, gr),
                             copy_matrix(alg, h.S),
                             antipode_inv=copy_matrix(alg, h.S_inv),
                             base_antiiso=chi, name=h.name)


def noncanonical_lift(alg, rng, bgd):
    """The coproduct lift of ``bgd`` with a random combination of
    relation-span vectors added to every column."""
    relations = [bgd.tensor_space.echelon.rows[p]
                 for p in sorted(bgd.tensor_space.echelon.rows)]
    field = bgd.field
    cols = []
    for j in range(bgd.gamma_lift.ncols):
        col = list(bgd.gamma_lift.col(j))
        for row in rng.sample(relations, min(3, len(relations))):
            c = field.of(rng.choice((-2, -1, 1, 2, 3)))
            for k, a in row.items():
                col[k] = col[k] + c * a
        cols.append(col)
    return alg.Matrix.from_cols(field, cols, bgd.gamma_lift.nrows)


# ---------------------------------------------------------------------------
# known answers on reports


def failing_ids(rep):
    return [c.check_id for c in rep.checks if not c.ok and not c.skipped]


def summary(rep):
    return f"{rep.verdict} [{','.join(failing_ids(rep))}]"


def expect_pass(rep):
    if not rep.passed:
        raise Mismatch(f"expected PASS, got {summary(rep)}")
    return summary(rep)


def expect_failure_named(rep, named):
    """FAIL with a certificate on at least one check whose id is in
    ``named`` (the law the corruption breaks)."""
    bad = [c for c in rep.checks if not c.ok and not c.skipped]
    if not bad:
        raise Mismatch("corruption went undetected")
    hits = [c for c in bad if c.check_id in named]
    if not any(c.certificates for c in hits):
        raise Mismatch(f"no certificate under {sorted(named)}; "
                       f"failing: {[c.check_id for c in bad]}")
    return summary(rep)


# ---------------------------------------------------------------------------
# statistics


def median(values):
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def tail_level(n):
    """The highest whole percentile with at least ten of ``n`` samples
    beyond it."""
    if n < 11:
        raise ValueError("a tail needs at least eleven samples")
    return (100 * (n - 10)) // n


def percentile(values, level):
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, math.ceil(level / 100 * len(s)))
    return s[rank - 1]
