"""Worked examples: groups, characters, and the stock of verified fixtures.

Everything here is plain constructive data — multiplication tables, group
characters, matrix units — assembled into the structures the rest of the
package analyzes.  The fixtures double as regression anchors: each one is
expected to pass its full verification report.
"""

import itertools

from .exactfield import Matrix, PrimeField, RationalField
from .algebra import HOM, ANTI, Algebra, AlgebraMap
from .bialgebroid import LeftBialgebroid, RightBialgebroid
from .hopfcore import HopfAlgebroid, reconstruct_right
from .twistlab import WeakHopfAlgebra


class FiniteGroup:
    """A finite group given by its multiplication table."""

    def __init__(self, names, table, name="G"):
        self.names = list(names)
        self.table = [list(row) for row in table]
        self.name = name
        n = len(self.names)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("multiplication table has wrong shape")
        self.identity = None
        for e in range(n):
            if all(self.table[e][g] == g == self.table[g][e]
                   for g in range(n)):
                self.identity = e
                break
        if self.identity is None:
            raise ValueError("no identity element")
        self.inv = [None] * n
        for g in range(n):
            for h in range(n):
                if self.table[g][h] == self.identity:
                    self.inv[g] = h
                    break
            if self.inv[g] is None or \
                    self.table[self.inv[g]][g] != self.identity:
                raise ValueError(f"element {self.names[g]} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != \
                            self.table[a][self.table[b][c]]:
                        raise ValueError("multiplication is not associative")

    @property
    def order(self):
        return len(self.names)

    def mul(self, g, h):
        return self.table[g][h]

    def inverse(self, g):
        return self.inv[g]

    @classmethod
    def cyclic(cls, n):
        names = ["1"] + [f"g{'' if k == 1 else k}" for k in range(1, n)]
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(names, table, name=f"Z{n}")

    @classmethod
    def symmetric(cls, n):
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[k]] for k in range(n))] for q in perms]
                 for p in perms]
        names = [_cycle_notation(p) for p in perms]
        return cls(names, table, name=f"S{n}")

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"


def _cycle_notation(perm):
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        k = perm[start]
        while k != start:
            cyc.append(k)
            seen[k] = True
            k = perm[k]
        cycles.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(cycles) if cycles else "id"


class Character:
    """A group character with values in the multiplicative group of a field."""

    def __init__(self, group, field, values):
        self.group = group
        self.field = field
        self.values = tuple(values)
        if len(self.values) != group.order:
            raise ValueError("one value per group element required")
        for g in range(group.order):
            for h in range(group.order):
                if self.values[g] * self.values[h] != \
                        self.values[group.mul(g, h)]:
                    raise ValueError("values do not define a character")
        if not self.values[group.identity]:
            raise ValueError("character vanishes at the identity")

    @classmethod
    def sign(cls, group, field):
        """The parity character of a symmetric group built by
        ``FiniteGroup.symmetric`` (order of an element decides nothing; we
        recover parity from the cycle structure encoded in the names)."""
        vals = []
        for nm in group.names:
            if nm == "id":
                vals.append(field.one)
                continue
            parity = 0
            for chunk in nm[1:-1].split(")("):
                parity += len(chunk.split()) - 1
            vals.append(field.one if parity % 2 == 0 else -field.one)
        return cls(group, field, vals)

    @classmethod
    def cyclic_power(cls, group, field, root):
        """χ(g^k) = root^k on a cyclic group listed in power order."""
        vals = [field.one]
        for _ in range(1, group.order):
            vals.append(vals[-1] * root)
        if vals[-1] * root != field.one:
            raise ValueError("root is not an n-th root of unity")
        return cls(group, field, vals)

    def __call__(self, g):
        return self.values[g]


# ---------------------------------------------------------------------------
# algebras and Hopf algebroids from groups


def group_algebra(group, field):
    n = group.order
    struct = {(i, j, group.mul(i, j)): field.one
              for i in range(n) for j in range(n)}
    return Algebra.from_struct(field, group.names, struct,
                               unit={group.identity: field.one},
                               name=f"k[{group.name}]")


def scalar_base(field):
    """The one-dimensional base ring."""
    return Algebra.from_struct(field, ["1"], {(0, 0, 0): field.one},
                               name="k")


def matrix_algebra(n, field):
    """The full matrix algebra M_n on the matrix units e_ij e_jl = e_il."""
    struct = {(n * i + j, n * j + l, n * i + l): field.one
              for i in range(n) for j in range(n) for l in range(n)}
    names = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return Algebra.from_struct(field, names, struct, name=f"M{n}")


def _scalar_base_hopf(A, gamma, counit, antipode):
    """The Hopf algebroid on A over the scalar base: source and target the
    unit map, and one coproduct and counit on both sides."""
    field = A.field
    k = scalar_base(field)
    inc = AlgebraMap(k, A, Matrix.from_sparse_cols(field, [A.unit], A.dim),
                     HOM, "s")
    inct = inc.with_kind(ANTI, "t")
    lb = LeftBialgebroid(A, k, inc, inct, gamma, counit, name=f"{A.name}_L")
    rb = RightBialgebroid(A, k, inc, inct, gamma, counit, name=f"{A.name}_R")
    return HopfAlgebroid(lb, rb, antipode, name=A.name)


def group_hopf_algebroid(group, field):
    """The group algebra as a Hopf algebroid over the scalar base:
    grouplike coproduct, augmentation counit, inversion antipode."""
    A = group_algebra(group, field)
    n = group.order
    counit = Matrix.from_rows(field, [tuple(field.one for _ in range(n))], n)
    return _scalar_base_hopf(A, _diagonal_coproduct(field, n), counit,
                             _inversion(group, field))


def _diagonal_coproduct(field, n):
    """The matrix of e_i ↦ e_i ⊗ e_i on an n-dimensional algebra."""
    return Matrix.from_sparse_cols(
        field, [{i * n + i: field.one} for i in range(n)], n * n)


def _inversion(group, field, values=None):
    """The matrix of g ↦ χ(g) g⁻¹ on a group algebra, χ = 1 by default."""
    n = group.order
    values = values or (field.one,) * n
    return Matrix.from_sparse_cols(
        field, [{group.inverse(g): values[g]} for g in range(n)], n)


def _transposition(field, n):
    """The matrix of e_ij ↦ e_ji on the n × n matrix units."""
    return Matrix.from_sparse_cols(
        field, [{n * (idx % n) + idx // n: field.one}
                for idx in range(n * n)], n * n)


def character_twisted_hopf(group, field, chi):
    """The group algebra with the character-deformed antipode
    S(g) = χ(g) g⁻¹; the right-handed structure is reconstructed from it."""
    h0 = group_hopf_algebroid(group, field)
    h = reconstruct_right(h0.lb, _inversion(group, field, chi.values))
    h.name = f"{h0.lb.total.name}_χ"
    return h


def pair_groupoid_hopf_algebroid(n, field):
    """The full matrix algebra as the pair-groupoid Hopf algebroid over the
    diagonal base: γ(e_ij) = e_ij ⊗ e_ij, π_L(e_ij) = d_i, S = transpose."""
    A = matrix_algebra(n, field)
    L = Algebra.from_struct(
        field, [f"d{i + 1}" for i in range(n)],
        {(i, i, i): field.one for i in range(n)}, name=f"k^{n}")
    d = n * n
    s_cols = [{n * i + i: field.one} for i in range(n)]
    smap = AlgebraMap(L, A, Matrix.from_sparse_cols(field, s_cols, d), HOM,
                      "s")
    tmap = smap.with_kind(ANTI, "t")
    gamma = _diagonal_coproduct(field, d)
    piL_rows = [tuple(field.one if idx // n == i else field.zero
                      for idx in range(d)) for i in range(n)]
    piL = Matrix.from_rows(field, piL_rows, d)
    lb = LeftBialgebroid(A, L, smap, tmap, gamma, piL, name=f"{A.name}_L")
    piR_rows = [tuple(field.one if idx % n == j else field.zero
                      for idx in range(d)) for j in range(n)]
    piR = Matrix.from_rows(field, piR_rows, d)
    rb = RightBialgebroid(A, L, smap, tmap, gamma, piR, name=f"{A.name}_R")
    return HopfAlgebroid(lb, rb, _transposition(field, n), name=A.name)


def function_algebra_hopf(group, field):
    """Functions on a finite group: pointwise product, convolution-dual
    coproduct γ(δ_g) = Σ_{hk=g} δ_h ⊗ δ_k, counit = evaluation at the
    identity, antipode δ_g ↦ δ_{g⁻¹}."""
    n = group.order
    names = [f"δ_{group.names[g]}" for g in range(n)]
    struct = {(g, g, g): field.one for g in range(n)}
    A = Algebra.from_struct(field, names, struct,
                            name=f"k^{group.name}")
    cols = [{} for _ in range(n)]
    for h in range(n):
        for k2 in range(n):
            cols[group.mul(h, k2)][h * n + k2] = field.one
    gamma = Matrix.from_sparse_cols(field, cols, n * n)
    counit = Matrix.from_rows(
        field, [tuple(field.one if g == group.identity else field.zero
                      for g in range(n))], n)
    return _scalar_base_hopf(A, gamma, counit, _inversion(group, field))


def sweedler_hopf_algebra(field):
    """Sweedler's 4-dimensional Hopf algebra on the basis 1, g, x, gx:
    g² = 1, x² = 0, xg = −gx, Δg = g⊗g, Δx = x⊗1 + g⊗x, ε(g) = 1,
    ε(x) = 0, and the antipode S(x) = −gx, S(gx) = x, which is not an
    involution.  The right-handed structure is reconstructed from S.
    A field with −1 = 1 is refused: there x would be central and S
    involutive."""
    one, zero = field.one, field.zero
    if one + one == zero:
        raise ValueError("Sweedler's Hopf algebra needs a field with -1 != 1")
    # e_0 = 1, e_1 = g, e_2 = x, e_3 = gx
    struct = {(0, j, j): one for j in range(4)}
    struct.update({(1, 0, 1): one, (1, 1, 0): one, (1, 2, 3): one,
                   (1, 3, 2): one, (2, 0, 2): one, (2, 1, 3): -one,
                   (3, 0, 3): one, (3, 1, 2): -one})
    A = Algebra.from_struct(field, ["1", "g", "x", "gx"], struct,
                            unit={0: one}, name="H4")
    # Δ(gx) = ΔgΔx = gx⊗g + 1⊗gx; the index of e_i ⊗ e_j is 4i + j
    gamma = Matrix.from_sparse_cols(
        field, [{0: one}, {5: one}, {8: one, 6: one}, {13: one, 3: one}],
        16)
    counit = Matrix.from_rows(field, [(one, one, zero, zero)], 4)
    S = Matrix.from_sparse_cols(
        field, [{0: one}, {1: one}, {3: -one}, {2: one}], 4)
    h = reconstruct_right(_scalar_base_hopf(A, gamma, counit, S).lb, S)
    h.name = "H4"
    return h


# ---------------------------------------------------------------------------
# weak Hopf algebras


def group_weak_hopf(group, field):
    """The group algebra as a (trivially weak) Hopf algebra over k:
    Δ(g) = g ⊗ g, ε = 1, S(g) = g⁻¹."""
    A = group_algebra(group, field)
    n = group.order
    eps = Matrix.from_rows(field, [tuple(field.one for _ in range(n))], n)
    return WeakHopfAlgebra(A, _diagonal_coproduct(field, n), eps,
                           _inversion(group, field), name=f"W({A.name})")


def pair_groupoid_weak_hopf(n, field):
    """The full matrix algebra as a genuinely weak Hopf algebra:
    Δ(e_ij) = e_ij ⊗ e_ij, ε ≡ 1, S = transpose.  Δ(1) ≠ 1 ⊗ 1 for
    n > 1, so this is not a Hopf algebra."""
    A = matrix_algebra(n, field)
    d = n * n
    eps = Matrix.from_rows(field, [tuple(field.one for _ in range(d))], d)
    return WeakHopfAlgebra(A, _diagonal_coproduct(field, d), eps,
                           _transposition(field, n), name=f"W(M{n})")


# ---------------------------------------------------------------------------
# canonical nondegenerate integrals


def group_sum_integral(h):
    """ℓ = Σ_g g, the canonical two-sided integral of a group algebra; for
    the pair groupoid, whose basis is its arrows, this is ℓ = Σ_ij e_ij."""
    A = h.total
    return tuple(h.field.one for _ in range(A.dim))


def delta_identity_integral(group, h):
    """ℓ = δ_e for the function-algebra fixture."""
    A = h.total
    return A.basis_vec(group.identity)


# ---------------------------------------------------------------------------
# the fixture stock


def all_fixtures(field=None):
    """The standing catalog: name, Hopf algebroid, and — where the canonical
    one is on file — a nondegenerate left integral."""
    field = field or RationalField()
    out = []
    z2 = FiniteGroup.cyclic(2)
    z3 = FiniteGroup.cyclic(3)
    s3 = FiniteGroup.symmetric(3)
    h = group_hopf_algebroid(z2, field)
    out.append({"name": "kz2", "hopf": h,
                "integral": group_sum_integral(h)})
    sign2 = Character(z2, field, [field.one, -field.one])
    ht = character_twisted_hopf(z2, field, sign2)
    out.append({"name": "kz2-twisted", "hopf": ht,
                "integral": group_sum_integral(ht)})
    h = group_hopf_algebroid(z3, field)
    out.append({"name": "kz3", "hopf": h,
                "integral": group_sum_integral(h)})
    h = group_hopf_algebroid(s3, field)
    out.append({"name": "ks3", "hopf": h,
                "integral": group_sum_integral(h)})
    h = pair_groupoid_hopf_algebroid(2, field)
    out.append({"name": "m2-groupoid", "hopf": h,
                "integral": group_sum_integral(h)})
    h = pair_groupoid_hopf_algebroid(3, field)
    out.append({"name": "m3-groupoid", "hopf": h,
                "integral": group_sum_integral(h)})
    h = function_algebra_hopf(s3, field)
    out.append({"name": "fn-s3", "hopf": h,
                "integral": delta_identity_integral(s3, h)})
    gf7 = PrimeField(7)
    ht = character_twisted_hopf(z3, gf7,
                                Character.cyclic_power(z3, gf7, gf7.of(2)))
    out.append({"name": "gf7-kz3-twisted", "hopf": ht,
                "integral": group_sum_integral(ht)})
    return out
