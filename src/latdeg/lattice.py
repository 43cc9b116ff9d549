"""Complete subgroup lattices and subgroup-level primitives.

Enumeration is by cyclic extension: the seeds are the cyclic subgroups,
and every member found is joined with each cyclic seed it does not
contain.  The canonical order is ascending size with ties broken by
the lexicographic order of the membership bit sequence (element 0
first), so lattice positions and every derived report are stable.

A :class:`Lattice` owns the data derived from its group and order
relation: the up-set and down-set of every member, the position of each
cyclic subgroup <e>, joins, the conjugacy class of every member (as the
position of the lowest member in it), the normal members (those alone
in their class), and the permutability, commuting and bracket tables,
each a ``cached_property``: built on first use, then held as an
instance attribute.  It is the one handle on a group's subgroups:
the degree, character and claim code takes a lattice and reads its
group from ``lat.group``.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from latdeg import _kernels as kernels
from latdeg.groups import Group, Subgroup, bit_positions, check_cap, same_group


def _lex_key(mask: int, n: int) -> int:
    # integer whose magnitude orders masks like their bitstrings
    return int(format(mask, f"0{n}b")[::-1], 2)


class Lattice:
    """All subgroups of a group in canonical order, with index lookup.

    Rows and sets over members are bitmasks over lattice positions.
    """

    def __init__(self, group: Group, subgroups: list[Subgroup]):
        if any(s.group is not group for s in subgroups):
            raise ValueError("lattice members must be subgroups of its group")
        n = group.order
        ordered = sorted(subgroups, key=lambda s: (s.size, _lex_key(s.mask, n)))
        self.group = group
        self.subgroups: tuple[Subgroup, ...] = tuple(ordered)
        self.index_of: dict[int, int] = {s.mask: i for i, s in enumerate(ordered)}
        if len(self.index_of) != len(ordered):
            raise ValueError("duplicate subgroups in lattice")
        if not ordered or ordered[0].size != 1 or ordered[-1].size != n:
            raise ValueError("lattice must contain the trivial and full subgroups")

    def __len__(self) -> int:
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def __getitem__(self, i: int) -> Subgroup:
        return self.subgroups[i]

    def index(self, sub: Subgroup) -> int:
        """The position of ``sub``; ValueError if it is not a member, also
        when it is a subgroup of another group."""
        if sub.group is not self.group:
            raise ValueError("subgroup belongs to another group")
        try:
            return self.index_of[sub.mask]
        except KeyError:
            raise ValueError("subgroup is not a member of this lattice") from None

    @cached_property
    def _order_relation(self) -> tuple[tuple[int, ...], ...]:
        """(up, down, cyclic), from one pass over (member, element)."""
        # holders[e] is the set of members containing element e; L_j >= L_i
        # iff L_j holds every element of L_i, and L_j <= L_i iff it holds
        # no element outside L_i
        holders = [0] * self.group.order
        for i, s in enumerate(self.subgroups):
            for e in s.members():
                holders[e] |= 1 << i
        everyone = (1 << len(self.subgroups)) - 1
        up, down = [], []
        for s in self.subgroups:
            above, outside = everyone, 0
            for e, holding in enumerate(holders):
                if s.mask >> e & 1:
                    above &= holding
                else:
                    outside |= holding
            up.append(above)
            down.append(everyone & ~outside)
        cyclic = tuple((h & -h).bit_length() - 1 for h in holders)
        return tuple(up), tuple(down), cyclic

    @cached_property
    def up(self) -> tuple[int, ...]:
        """up[i]: the members containing L_i."""
        return self._order_relation[0]

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[i]: the members contained in L_i."""
        return self._order_relation[1]

    @cached_property
    def cyclic(self) -> tuple[int, ...]:
        """cyclic[e]: the position of <e>.  Every member holding the
        element e contains <e>, and positions ascend with size, so it is
        the lowest member holding e."""
        return self._order_relation[2]

    def join(self, i: int, j: int) -> int:
        """Position of L_i v L_j: the smallest, hence lowest, common upper
        bound."""
        common = self.up[i] & self.up[j]
        return (common & -common).bit_length() - 1

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """class_of[i]: the position of the lowest member conjugate to L_i.

        The classes are the orbits of the members under conjugation by
        the generators recorded for G, since every element of G is a
        word in them.  Members are taken in ascending order, and each
        one not yet reached starts the orbit it is the lowest member of.
        """
        ktab = self.group.ktab
        gens = ktab.generators((1 << self.group.order) - 1)
        masks = [s.mask for s in self.subgroups]
        index_of = self.index_of
        class_of = [-1] * len(masks)
        for i in range(len(masks)):
            if class_of[i] >= 0:
                continue
            class_of[i] = i
            orbit = [i]
            for j in orbit:  # orbit grows while it is scanned
                for g in gens:
                    k = index_of[kernels.conjugate_mask(ktab, masks[j], g)]
                    if class_of[k] < 0:
                        class_of[k] = i
                        orbit.append(k)
        return tuple(class_of)

    @cached_property
    def normal(self) -> tuple[int, ...]:
        """The positions of the normal members, ascending: the members
        alone in their conjugacy class."""
        sizes = Counter(self.class_of)
        return tuple(i for i, c in enumerate(self.class_of) if sizes[c] == 1)

    @cached_property
    def perm_rows(self) -> tuple[int, ...]:
        """Row i: the members L_j with L_i L_j = L_j L_i.

        Comparable and commuting pairs permute.  For the rest, HK is a
        subgroup, hence H v K, exactly when |HK| = |H||K|/|H n K| equals
        |H v K|, so a pair permutes iff |H||K| = |H n K||H v K|.
        """
        up, down, phi = self.up, self.down, self.phi_rows
        masks = [s.mask for s in self.subgroups]
        sizes = [s.size for s in self.subgroups]
        everyone = (1 << len(masks)) - 1
        rows = [0] * len(masks)
        for i, (mi, si) in enumerate(zip(masks, sizes)):
            # known is symmetric in (i, j); only pairs j > i are tested
            known = up[i] | down[i] | phi[i]
            rows[i] |= known
            later = everyone & ~((2 << i) - 1)
            for j in bit_positions(later & ~known):
                common = (mi & masks[j]).bit_count()
                if si * sizes[j] == common * sizes[self.join(i, j)]:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        return tuple(rows)

    @cached_property
    def phi_rows(self) -> tuple[int, ...]:
        """Row i: the members L_j with [L_i, L_j] = 1, that is the members
        contained in C_G(L_i)."""
        ktab = self.group.ktab
        full = (1 << self.group.order) - 1
        return tuple(
            self.down[self.index_of[kernels.centralizer_mask(ktab, full, s.mask)]]
            for s in self.subgroups
        )

    @cached_property
    def brackets(self) -> tuple[tuple[int, ...], ...]:
        """brackets[i][j]: the position of [L_i, L_j], each entry computed
        as written, without assuming symmetry: the normal closure in
        <L_i, L_j> of the generator commutators [x, y] with x from the
        generators recorded for L_i and y from those for L_j, one kernel
        call per ordered pair."""
        ktab = self.group.ktab
        bracket = kernels.commutator_closure_mask
        masks = [s.mask for s in self.subgroups]
        index_of = self.index_of
        return tuple(
            tuple([index_of[bracket(ktab, hm, km)] for km in masks]) for hm in masks
        )


def enumerate_subgroups(g: Group, *, cap: int | None = None) -> Lattice:
    """Every subgroup of ``g`` by cyclic extension.

    The seeds are the cyclic subgroups <a>.  Every subgroup is a join of
    cyclic ones, so joining each member with each cyclic seed reaches
    the whole lattice.  A seed is joined with the seeds found before it
    only, so each pair of seeds is closed once; later members are joined
    with every seed that neither contains nor lies in them.  A join
    H v <a> extends the closure of the member H by a, so H is never
    rebuilt, and the first join reaching a member records its generators
    (those of H, then a: at most log2 of its order) for the bracket
    table to read.
    """
    check_cap(g.order, cap, g.label)
    ktab = g.ktab
    masks: list[int] = [1]
    seen = {1}
    seeds: list[tuple[int, int]] = []  # (mask of <a>, a)
    for a in range(1, g.order):
        m = kernels.closure_mask(ktab, 1 << a)
        if m not in seen:
            seen.add(m)
            masks.append(m)
            seeds.append((m, a))
    # masks[k] for 1 <= k <= len(seeds) is seeds[k - 1]
    k = 1
    while k < len(masks):
        h = masks[k]
        for c, a in seeds[: min(k - 1, len(seeds))]:
            if h | c in (h, c):
                continue
            joined = kernels.closure_mask(ktab, 1 << a, h)
            if joined not in seen:
                seen.add(joined)
                masks.append(joined)
        k += 1
    return Lattice(g, [Subgroup(m, g) for m in masks])


def permutes(h: Subgroup, k: Subgroup) -> bool:
    """True iff the element sets HK and KH coincide."""
    g = same_group(h, k)
    hk = kernels.product_mask(g.ktab, h.mask, k.mask)
    kh = kernels.product_mask(g.ktab, k.mask, h.mask)
    return hk == kh


def commutator_subgroup(h: Subgroup, k: Subgroup) -> Subgroup:
    """[H, K]: subgroup generated by all commutators [h, k].

    The kernel works from generators of H and K, so both must be
    subgroups; any other element set raises ValueError.
    """
    g = same_group(h, k)
    for s in (h, k):
        if kernels.closure_mask(g.ktab, s.mask) != s.mask:
            raise ValueError("element set is not a subgroup")
    return Subgroup(kernels.commutator_closure_mask(g.ktab, h.mask, k.mask), g)


def normal_subgroups(lat: Lattice) -> list[Subgroup]:
    """Lattice members invariant under conjugation by every element."""
    return [lat[i] for i in lat.normal]
