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
import math
import operator
from functools import cached_property
from typing import Sequence

from latdeg import _kernels as kernels
from latdeg._kernels import bit_positions
from latdeg.arith import is_prime

DEFAULT_ORDER_CAP = 200
# an M(p, m) whose bit lengths show p^m >= 2^_POWER_BITS (about 10^5178) is
# refused without forming p^m (seconds for a large m); its order reads p^m
_POWER_BITS = 17_200


class OrderCapExceeded(ValueError):
    """Raised when a constructor would build a group above the order cap."""


def order_cap(cap: int | None = None) -> int:
    """Effective order cap: explicit value, else 200.

    An explicit value is the CLI's ``--order-cap`` or a ``cap=`` or
    ``order_cap=`` keyword; it must be an integer of at least 1 (bools
    are refused), else ValueError.
    """
    if cap is None:
        return DEFAULT_ORDER_CAP
    return _parameter(cap, "--order-cap", 1)


def _decimal(value: int) -> str:
    """``value`` in decimal, or its sign and bit length in angle brackets
    if it has more digits than int-to-str conversion allows."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()} bits>"


def check_cap(order: int, cap: int | None, what: str) -> None:
    """OrderCapExceeded, naming ``what``, if ``order`` is above the
    effective cap (see :func:`order_cap`)."""
    limit = order_cap(cap)
    if order > limit:
        raise OrderCapExceeded(
            f"{what} has order {_decimal(order)}, above the cap {_decimal(limit)}"
        )


def _parameter(value, what: str, least=None, most=None, over=ValueError) -> int:
    """``value`` as an int, by ``operator.index``: the one check of an
    integer input.  ValueError naming ``what`` if it is a bool or not an
    integer, or is below ``least``; ``over`` if it is above ``most``.  The
    value is written by :func:`_decimal`, so a huge one prints."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {_decimal(value)}")
    if most is not None and value > most:
        raise over(f"{what} must be at most {most}, got {_decimal(value)}")
    return value


def _builder(family: tuple):
    """The constructor of ``family``; ValueError for an unknown family or
    parameter count."""
    kind, *params = family
    arity, make = FAMILIES.get(kind, (None, None))
    if arity != len(params):
        raise ValueError(f"unknown group family {family!r}")
    return make


def _family(family: tuple, limit: int) -> tuple[tuple, int]:
    """(``family`` with its parameters converted to ints, its order), for
    the built-in family instance ``family`` given as a group's ``family``
    holds it: ("C", n), ("D", n), ("S", n), ("Q8",) or ("M", p, m).
    ValueError for an unknown family or parameter count, or, naming the
    parameter, if a parameter is not an integer (bools included) or is
    outside the family; every family constructor checks its parameters
    here.  An M(p, m) far above the cap ``limit`` is refused here, without
    forming p^m."""
    _builder(family)
    kind, *params = family
    if kind == "C":
        n = _parameter(params[0], "cyclic order", 1)
        return ("C", n), n
    if kind == "D":
        n = _parameter(params[0], "dihedral parameter", 1)
        return ("D", n), 2 * n
    if kind == "S":
        n = _parameter(params[0], "symmetric group parameter", 1, 5)
        return ("S", n), math.factorial(n)
    if kind == "M":
        p = _parameter(params[0], "modular group parameter p")
        m = _parameter(params[1], "modular group parameter m")
        # for m >= 3 the order p^m is at least p^3, so a p whose cube is
        # above the cap is refused by the cap, prime or not: trial division
        # of a large p would not end (p is compared first, so no huge cube
        # is formed)
        if p <= limit and p**3 <= limit and not is_prime(p):
            raise ValueError(
                f"modular group parameter p must be prime, got {_decimal(p)}"
            )
        _parameter(m, "modular group parameter m", 3)  # after p: M(4,2) names p
        if (p.bit_length() - 1) * m >= max(_POWER_BITS, limit.bit_length()):
            raise OrderCapExceeded(
                f"{family_label(('M', p, m))} has order {_decimal(p)}^{_decimal(m)}, "
                f"above the cap {_decimal(limit)}"
            )
        return ("M", p, m), p**m
    return ("Q8",), 8


def family_label(family: tuple) -> str:
    """Label of the built-in family instance ``family``: C(6), M(3,3), Q8."""
    kind, *params = family
    return f"{kind}({','.join(map(_decimal, params))})" if params else kind


def check_family(family: tuple, cap: int | None = None) -> tuple[tuple, int]:
    """(``family`` with its parameters converted to ints, its order),
    after the checks its constructor makes before it builds a table:
    ValueError for an unknown family or a parameter outside it (see
    :func:`_family`), OrderCapExceeded above the cap.  Each family
    constructor builds, labels and records its group from the ints."""
    limit = order_cap(cap)
    family, order = _family(family, limit)
    check_cap(order, limit, family_label(family))
    return family, order


def make_family(family: tuple, *, cap: int | None = None) -> Group:
    """The built-in family instance ``family`` (see :func:`check_family`)."""
    return _builder(family)(*family[1:], cap=cap)


def builtin_families_up_to(max_order: int, *, cap: int | None = None) -> list[tuple]:
    """The ``family`` of every built-in instance of order <= max_order,
    sorted by (order, label).

    Above the order cap it raises what building them in that order
    raises first: every order has its cyclic group, and C sorts first
    among the labels of an order, so that is C(cap + 1).  Nothing is
    listed before, so a huge max_order costs nothing.  A max_order that
    is not an integer raises ValueError; one below 1 lists nothing.
    """
    max_order = _parameter(max_order, "max_order")
    limit = order_cap(cap)
    if max_order > limit:
        check_cap(limit + 1, cap, f"C({limit + 1})")
    families: list[tuple] = [("C", n) for n in range(1, max_order + 1)]
    families += [("D", n) for n in range(1, max_order // 2 + 1)]
    fact = 1
    for n in range(1, 6):
        fact *= n
        if fact > max_order:
            break
        families.append(("S", n))
    if max_order >= 8:
        families.append(("Q8",))
    p = 2
    while p**3 <= max_order:
        if is_prime(p):
            m = 3
            while p**m <= max_order:
                families.append(("M", p, m))
                m += 1
        p += 1
    families.sort(key=lambda f: (_family(f, max_order)[1], family_label(f)))
    return families


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
    """Immutable finite group given by its multiplication table.

    ``table[a][b]`` is the index of a*b.  The constructor checks that
    every entry is an integer, converted as a list index is (so 1.9 and
    "1" are refused), that each row and each column is a permutation of
    the indices, and that element 0 is a two-sided identity; ValueError
    names the first fault.  Associativity is left to :meth:`validate`.
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        label: str,
        *,
        family: tuple | None = None,
        factors: tuple | None = None,
    ):
        # one pass, faults in this order: every entry converted as a list
        # index is (a failing row is read again to name its column), then
        # each row and column compared as a set, row and column 0 with ids
        rows = list(map(tuple, table))
        for a, row in enumerate(rows):
            try:
                rows[a] = tuple(map(operator.index, row))
            except TypeError:
                try:
                    for b, x in enumerate(row):
                        operator.index(x)
                except TypeError:
                    raise ValueError(
                        f"table entry {x!r} in row {a}, column {b} is not an integer"
                    ) from None
                raise
        n = len(rows)
        if not n:
            raise ValueError("a group has at least the identity element")
        ids = tuple(range(n))
        full = set(ids)
        for a, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"table row {a} has length {len(row)}, expected {n}")
            if set(row) != full:
                for v in row:
                    if not 0 <= v < n:
                        raise ValueError(f"table entry {v} out of range 0..{n - 1}")
                raise ValueError(f"table row {a} is not a permutation")
        cols = list(zip(*rows))
        for b, col in enumerate(cols):
            if set(col) != full:
                raise ValueError(f"table column {b} is not a permutation")
        if rows[0] != ids or cols[0] != ids:
            raise ValueError("element 0 is not a two-sided identity")
        self.order = n
        self.table = tuple(rows)
        self.label = label
        self.family = family
        self.factors = factors

    def __repr__(self) -> str:
        return f"Group({self.label!r}, order={self.order})"

    @cached_property
    def ktab(self):
        """Kernel-prepared table, built once on first use; it shares the
        rows of ``table`` and holds the group's one list of inverses."""
        return kernels.prepare_table(self.table)

    @cached_property
    def is_abelian(self) -> bool:
        n = self.order
        return kernels.count_commuting_pairs(self.ktab) == n * n

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], ...]:
        ids = kernels.conjugacy_class_ids(self.ktab)
        buckets: list[list[int]] = [[] for _ in range(max(ids) + 1)]
        for g, c in enumerate(ids):
            buckets[c].append(g)
        return tuple(tuple(b) for b in buckets)

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition of element indices into conjugation orbits."""
        return self._classes

    def full_subgroup(self) -> Subgroup:
        return Subgroup((1 << self.order) - 1, self)

    @cached_property
    def _derived(self) -> tuple[int, ...]:
        # the masks of derived_series
        series = [(1 << self.order) - 1]
        while True:
            cur = series[-1]
            nxt = kernels.commutator_closure_mask(self.ktab, cur, cur)
            if nxt == cur:
                break
            series.append(nxt)
            if nxt == 1:
                break
        return tuple(series)

    def derived_series(self) -> tuple[Subgroup, ...]:
        """G >= G' >= G'' >= ... until the series stabilizes.

        The group caches the masks, not the subgroups: a subgroup refers
        to its group, and the cycle would keep both alive until a full
        garbage collection.
        """
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
        laws; this adds the exhaustive associativity check, so it is
        intended for tests and desk-scale audits.  With those laws,
        associativity makes each right inverse a left inverse too.
        """
        if not kernels.is_associative(self.ktab):
            raise ValueError(f"{self.label}: table is not associative")


def _rotated(block: tuple[int, ...], k: int) -> tuple[int, ...]:
    """``block`` rotated left by ``k``, 0 <= k < len(block)."""
    return block[k:] + block[:k]


def make_cyclic(n: int, *, cap: int | None = None) -> Group:
    """Cyclic group C_n with table (a+b) mod n."""
    (_, n), _ = check_family(("C", n), cap)
    ids = tuple(range(n))
    table = [ids[a:] + ids[:a] for a in ids]
    return Group(table, f"C({n})", family=("C", n))


def make_dihedral(n: int, *, cap: int | None = None) -> Group:
    """Dihedral group of order 2n: <x,y | x^2 = y^n = 1, x^-1 y x = y^-1>.

    Element s*n + r stands for x^s y^r.  n = 1 gives C2, n = 2 the
    Klein four-group; the group is nonabelian for n >= 3.
    """
    (_, n), _ = check_family(("D", n), cap)
    # x^s y^r times y^r2 is x^s y^(r + r2), times x y^r2 is x^(1-s) y^(r2 - r):
    # row s*n + r is block s rotated by r, then block 1-s rotated by -r
    blocks = (tuple(range(n)), tuple(range(n, 2 * n)))
    table = [
        _rotated(blocks[s], r) + _rotated(blocks[1 - s], -r % n)
        for s in (0, 1)
        for r in range(n)
    ]
    return Group(table, f"D({n})", family=("D", n))


def make_modular(p: int, m: int, *, cap: int | None = None) -> Group:
    """Modular p-group presentation of order p^m:
    <x,y | x^(p^(m-1)) = y^p = 1, y^-1 x y = x^(p^(m-2)+1)>.

    For p = 2, m = 3 the presentation collapses to the order-8 dihedral
    group (x^(2+1) = x^-1); it is accepted because the construction is
    well defined there.
    """
    (_, p, m), _ = check_family(("M", p, m), cap)
    q = p ** (m - 1)
    t = p ** (m - 2) + 1
    tpow = [1] * p
    for i in range(1, p):
        tpow[i] = tpow[i - 1] * t % q
    # element i*q + j is y^i x^j; row i1*q + j1 is, for each i2, block
    # i1 + i2 (mod p) rotated by j1 * t^i2 (mod q)
    blocks = [tuple(range(i * q, i * q + q)) for i in range(p)]
    table = [
        tuple(
            itertools.chain.from_iterable(
                _rotated(blocks[(i1 + i2) % p], j1 * tpow[i2] % q) for i2 in range(p)
            )
        )
        for i1 in range(p)
        for j1 in range(q)
    ]
    return Group(table, f"M({p},{m})", family=("M", p, m))


def make_quaternion(*, cap: int | None = None) -> Group:
    """Quaternion group Q8: <a,b | a^4 = 1, b^2 = a^2, b^-1 a b = a^-1>."""
    check_family(("Q8",), cap)
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
    (_, n), order = check_family(("S", n), cap)
    perms = list(itertools.permutations(range(n)))  # identity is first
    index = {p: i for i, p in enumerate(perms)}
    # a row per adjacent transposition s, with (a b)(i) = a(b(i)); every
    # other row is that of some s a with row a known, which is row s read
    # at the entries of row a
    swaps = []
    for i in range(n - 1):
        s = list(range(n))
        s[i], s[i + 1] = i + 1, i
        swaps.append([index[tuple(map(s.__getitem__, b))] for b in perms])
    table: list = [None] * order
    table[0] = tuple(range(order))
    reached = [0]
    for a in reached:  # reached grows while it is scanned
        for row_s in swaps:
            c = row_s[a]
            if table[c] is None:
                table[c] = tuple(map(row_s.__getitem__, table[a]))
                reached.append(c)
    return Group(table, f"S({n})", family=("S", n))


# name -> (number of parameters, constructor) of each built-in family; the
# CLI parser reads the names and counts here, and make_family dispatches
FAMILIES = {
    "C": (1, make_cyclic),
    "D": (1, make_dihedral),
    "S": (1, make_symmetric),
    "Q8": (0, make_quaternion),
    "M": (2, make_modular),
}


def direct_product(g1: Group, g2: Group, *, cap: int | None = None) -> Group:
    """Componentwise product; element a*|G2| + b stands for (a, b)."""
    order = g1.order * g2.order
    label = f"{g1.label} x {g2.label}"
    check_cap(order, cap, label)
    n2 = g2.order
    # row b of G2 moved to the block of each element c of G1: row
    # a*n2 + b is those blocks in the order of row a of G1
    blocks = [
        [tuple(map((c * n2).__add__, r2)) for c in range(g1.order)] for r2 in g2.table
    ]
    table = [
        tuple(itertools.chain.from_iterable(map(moved.__getitem__, r1)))
        for r1 in g1.table
        for moved in blocks
    ]
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
