"""Finite groups as immutable multiplication tables over 0-based indices.

A :class:`Group` stores an ``order x order`` table with ``table[a][b]``
the index of ``a*b``; element 0 is always the identity.  Constructors
for the built-in families (cyclic, dihedral, symmetric, quaternion,
modular p-groups, direct products, quotients) normalize to that
convention.  A :class:`Subgroup` is a bitmask over its group's element
indices and holds that group, so the functions of subgroups read the
group from them.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterable, Sequence

from latdeg import _kernels as kernels
from latdeg._kernels import bit_positions
from latdeg.arith import is_prime

DEFAULT_ORDER_CAP = 200
ORDER_CAP_ENV = "LATDEG_ORDER_CAP"


class OrderCapExceeded(ValueError):
    """Raised when a constructor would build a group above the order cap."""


def order_cap(cap: int | None = None) -> int:
    """Effective order cap: explicit value, else LATDEG_ORDER_CAP, else 200.

    An explicit value is the CLI's ``--order-cap``; it and the variable
    must be integers of at least 1, else ValueError names the one at
    fault.
    """
    if cap is not None:
        if cap < 1:
            raise ValueError(f"--order-cap must be at least 1, got {cap}")
        return cap
    env = os.environ.get(ORDER_CAP_ENV)
    if not env:
        return DEFAULT_ORDER_CAP
    try:
        value = int(env)
    except ValueError:
        raise ValueError(
            f"{ORDER_CAP_ENV} must be an integer, got {env!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{ORDER_CAP_ENV} must be at least 1, got {env!r}")
    return value


def _check_cap(order: int, cap: int | None, what: str) -> None:
    limit = order_cap(cap)
    if order > limit:
        raise OrderCapExceeded(f"{what} has order {order}, above the cap {limit}")


class Subgroup:
    """Membership bitmask over the element indices of ``group``.

    Immutable; two subgroups are equal when they have the same mask in
    the same group.
    """

    __slots__ = ("mask", "group", "size")

    def __init__(self, mask: int, group: Group):
        if not mask & 1:
            raise ValueError("subgroup mask must contain the identity (bit 0)")
        if mask >> group.order:
            raise ValueError("subgroup mask has bits outside its group")
        init = object.__setattr__
        init(self, "mask", mask)
        init(self, "group", group)
        init(self, "size", mask.bit_count())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Subgroup")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Subgroup")

    def __eq__(self, other):
        if other.__class__ is not Subgroup:
            return NotImplemented
        return self.mask == other.mask and self.group is other.group

    def __hash__(self) -> int:
        return hash((self.mask, self.group))

    def __repr__(self) -> str:
        return f"Subgroup(mask={self.mask!r}, group={self.group!r})"

    def members(self) -> list[int]:
        return bit_positions(self.mask)

    def __contains__(self, element: int) -> bool:
        return 0 <= element < self.group.order and bool(self.mask >> element & 1)

    def is_subset_of(self, other: "Subgroup") -> bool:
        same_group(self, other)
        return self.mask & ~other.mask == 0

    @property
    def is_trivial(self) -> bool:
        return self.size == 1

    def bitstring(self) -> str:
        """Membership as a '01' string, element 0 first."""
        return format(self.mask, f"0{self.group.order}b")[::-1]


def same_group(h: Subgroup, k: Subgroup) -> Group:
    """The group of ``h`` and ``k``; ValueError if they belong to two."""
    if h.group is not k.group:
        raise ValueError("subgroups belong to different groups")
    return h.group


class Group:
    """Immutable finite group given by its multiplication table."""

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        label: str,
        *,
        family: tuple | None = None,
        factors: tuple | None = None,
    ):
        rows = tuple(tuple(int(x) for x in row) for row in table)
        n = len(rows)
        if n == 0:
            raise ValueError("a group has at least the identity element")
        full = (1 << n) - 1
        for a, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"table row {a} has length {len(row)}, expected {n}")
            seen = 0
            for v in row:
                if not 0 <= v < n:
                    raise ValueError(f"table entry {v} out of range 0..{n - 1}")
                seen |= 1 << v
            if seen != full:
                raise ValueError(f"table row {a} is not a permutation")
        for b in range(n):
            seen = 0
            for a in range(n):
                seen |= 1 << rows[a][b]
            if seen != full:
                raise ValueError(f"table column {b} is not a permutation")
        for a in range(n):
            if rows[0][a] != a or rows[a][0] != a:
                raise ValueError("element 0 is not a two-sided identity")
        self.order = n
        self.table = rows
        self.label = label
        self.family = family
        self.factors = factors
        self._inv = tuple(row.index(0) for row in rows)
        self._ktab = None
        self._abelian: bool | None = None
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._derived: tuple[int, ...] | None = None  # masks, see derived_series

    def __repr__(self) -> str:
        return f"Group({self.label!r}, order={self.order})"

    @property
    def ktab(self):
        """Kernel-prepared table, built once on first use."""
        if self._ktab is None:
            self._ktab = kernels.prepare_table(self.table)
        return self._ktab

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def commutator(self, x: int, y: int) -> int:
        """x^-1 * y^-1 * x * y."""
        t = self.table
        return t[t[t[self._inv[x]][self._inv[y]]][x]][y]

    def order_of(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            n = self.order
            self._abelian = kernels.count_commuting_pairs(self.ktab) == n * n
        return self._abelian

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition of element indices into conjugation orbits."""
        if self._classes is None:
            ids = kernels.conjugacy_class_ids(self.ktab)
            buckets: list[list[int]] = [[] for _ in range(max(ids) + 1)]
            for g, c in enumerate(ids):
                buckets[c].append(g)
            self._classes = tuple(tuple(b) for b in buckets)
        return self._classes

    def closure(self, gens: Iterable[int]) -> Subgroup:
        """Smallest subgroup containing ``gens``; empty gens give the
        trivial subgroup."""
        mask = 1
        for g in gens:
            if not 0 <= g < self.order:
                raise ValueError(f"element index {g} out of range")
            mask |= 1 << g
        return Subgroup(kernels.closure_mask(self.ktab, mask), self)

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(1, self)

    def full_subgroup(self) -> Subgroup:
        return Subgroup((1 << self.order) - 1, self)

    def derived_series(self) -> tuple[Subgroup, ...]:
        """G >= G' >= G'' >= ... until the series stabilizes.

        The group caches the masks, not the subgroups: a subgroup refers
        to its group, and the cycle would keep both alive until a full
        garbage collection.
        """
        if self._derived is None:
            series = [(1 << self.order) - 1]
            while True:
                cur = series[-1]
                nxt = kernels.commutator_closure_mask(self.ktab, cur, cur)
                if nxt == cur:
                    break
                series.append(nxt)
                if nxt == 1:
                    break
            self._derived = tuple(series)
        return tuple(Subgroup(m, self) for m in self._derived)

    @property
    def is_solvable(self) -> bool:
        return self.derived_series()[-1].is_trivial

    @property
    def is_metabelian(self) -> bool:
        series = self.derived_series()
        return len(series) <= 3 and series[-1].is_trivial

    def validate(self) -> None:
        """Assert the full table axioms, associativity included.

        The constructor already enforces the Latin-square and identity
        laws; this adds the exhaustive associativity check and inverse
        uniqueness, so it is intended for tests and desk-scale audits.
        """
        if not kernels.is_associative(self.ktab):
            raise ValueError(f"{self.label}: table is not associative")
        for a in range(self.order):
            if self.table[a][self._inv[a]] != 0 or self.table[self._inv[a]][a] != 0:
                raise ValueError(f"{self.label}: inverse of {a} is wrong")


def make_cyclic(n: int, *, cap: int | None = None) -> Group:
    """Cyclic group C_n with table (a+b) mod n."""
    if n < 1:
        raise ValueError(f"cyclic order must be positive, got {n}")
    _check_cap(n, cap, f"C({n})")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return Group(table, f"C({n})", family=("C", n))


def make_dihedral(n: int, *, cap: int | None = None) -> Group:
    """Dihedral group of order 2n: <x,y | x^2 = y^n = 1, x^-1 y x = y^-1>.

    Element s*n + r stands for x^s y^r.  n = 1 gives C2, n = 2 the
    Klein four-group; the group is nonabelian for n >= 3.
    """
    if n < 1:
        raise ValueError(f"dihedral parameter must be positive, got {n}")
    _check_cap(2 * n, cap, f"D({n})")
    size = 2 * n
    table = [[0] * size for _ in range(size)]
    for s1 in (0, 1):
        for r1 in range(n):
            for s2 in (0, 1):
                for r2 in range(n):
                    s = (s1 + s2) % 2
                    r = (r1 * (-1 if s2 else 1) + r2) % n
                    table[s1 * n + r1][s2 * n + r2] = s * n + r
    return Group(table, f"D({n})", family=("D", n))


def make_modular(p: int, m: int, *, cap: int | None = None) -> Group:
    """Modular p-group presentation of order p^m:
    <x,y | x^(p^(m-1)) = y^p = 1, y^-1 x y = x^(p^(m-2)+1)>.

    For p = 2, m = 3 the presentation collapses to the order-8 dihedral
    group (x^(2+1) = x^-1); it is accepted because the construction is
    well defined there.
    """
    if not is_prime(p):
        raise ValueError(f"modular group parameter p must be prime, got {p}")
    if m < 3:
        raise ValueError(f"modular group parameter m must be at least 3, got {m}")
    order = p**m
    _check_cap(order, cap, f"M({p},{m})")
    q = p ** (m - 1)
    t = p ** (m - 2) + 1
    tpow = [1] * p
    for i in range(1, p):
        tpow[i] = tpow[i - 1] * t % q
    table = [[0] * order for _ in range(order)]
    for i1 in range(p):
        for j1 in range(q):
            row = table[i1 * q + j1]
            for i2 in range(p):
                shifted = j1 * tpow[i2] % q
                base = (i1 + i2) % p * q
                for j2 in range(q):
                    row[i2 * q + j2] = base + (shifted + j2) % q
    return Group(table, f"M({p},{m})", family=("M", p, m))


def make_quaternion(*, cap: int | None = None) -> Group:
    """Quaternion group Q8: <a,b | a^4 = 1, b^2 = a^2, b^-1 a b = a^-1>."""
    _check_cap(8, cap, "Q8")
    table = [[0] * 8 for _ in range(8)]
    for s1 in (0, 1):
        for r1 in range(4):
            for s2 in (0, 1):
                for r2 in range(4):
                    r = (r1 + (-r2 if s1 else r2)) % 4
                    if s1 and s2:
                        r = (r + 2) % 4
                    s = (s1 + s2) % 2
                    table[s1 * 4 + r1][s2 * 4 + r2] = s * 4 + r
    return Group(table, "Q8", family=("Q8",))


def make_symmetric(n: int, *, cap: int | None = None) -> Group:
    """Symmetric group S_n on permutation tuples, 1 <= n <= 5."""
    if not 1 <= n <= 5:
        raise ValueError(f"symmetric group parameter must be in 1..5, got {n}")
    import math

    order = math.factorial(n)
    _check_cap(order, cap, f"S({n})")
    perms = list(itertools.permutations(range(n)))  # identity is first
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[i]] for i in range(n))] for b in perms] for a in perms
    ]
    return Group(table, f"S({n})", family=("S", n))


def direct_product(g1: Group, g2: Group, *, cap: int | None = None) -> Group:
    """Componentwise product; element a*|G2| + b stands for (a, b)."""
    order = g1.order * g2.order
    label = f"{g1.label} x {g2.label}"
    _check_cap(order, cap, label)
    n2 = g2.order
    t1, t2 = g1.table, g2.table
    table = [[0] * order for _ in range(order)]
    for a1 in range(g1.order):
        for b1 in range(n2):
            row = table[a1 * n2 + b1]
            r1 = t1[a1]
            r2 = t2[b1]
            for a2 in range(g1.order):
                base = r1[a2] * n2
                for b2 in range(n2):
                    row[a2 * n2 + b2] = base + r2[b2]
    factors = (g1.factors or (g1,)) + (g2.factors or (g2,))
    return Group(table, label, factors=factors)


def quotient(n_sub: Subgroup) -> Group:
    """Group on the cosets of a normal subgroup, identity coset first.

    The claim runners do not build quotients: they read L(G/N) and its
    commuting pairs off the parent lattice (see ``claims``).  This stays
    as public API and as the tests' reference for that reading.
    """
    g = n_sub.group
    if not kernels.is_normal_mask(g.ktab, n_sub.mask):
        raise ValueError(f"subgroup of size {n_sub.size} is not normal in {g.label}")
    members = n_sub.members()
    coset_of = [-1] * g.order
    reps: list[int] = []
    for a in range(g.order):
        if coset_of[a] >= 0:
            continue
        idx = len(reps)
        reps.append(a)
        for h in members:
            coset_of[g.table[a][h]] = idx
    table = [[coset_of[g.table[a][b]] for b in reps] for a in reps]
    return Group(table, f"{g.label}/N{n_sub.size}")
