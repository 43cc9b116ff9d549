"""Pure-Python kernels over multiplication tables and element bitmasks.

Element sets are arbitrary-precision ints with bit ``i`` standing for
element ``i``.  Every kernel takes a prepared table handle as returned
by :func:`prepare_table`.

The rest of latdeg calls the kernels through this module
(``kernels.closure_mask(...)``), so a name rebound here, as
perfbench/layertrace.py does for the length of a traced run, reaches
every call.  No kernel calls another kernel by its module-level name,
so such a rebinding counts only the calls made from outside.
"""

from __future__ import annotations


def bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Table:
    """Prepared multiplication table: rows, inverses, order, and what the
    kernels learn about it as they run: the per-element centralizers,
    C_G(H) per subgroup, the generators and elements recorded for every
    subgroup a closure returned, and the closures the commutator kernel
    asked for, keyed by their generating mask."""

    __slots__ = (
        "n", "rows", "inv",
        "_centralizers", "_group_centralizer", "_subgroups", "_closures",
    )

    def __init__(self, rows):
        self.n = len(rows)
        self.rows = [list(r) for r in rows]
        inv = [0] * self.n
        for a, row in enumerate(self.rows):
            inv[a] = row.index(0)
        self.inv = inv
        self._centralizers: list[int] | None = None
        self._group_centralizer: dict[int, int] = {}
        self._subgroups: dict[int, tuple[list[int], list[int]]] = {1: ([], [0])}
        self._closures: dict[int, int] = {}

    def centralizers(self) -> list[int]:
        """Mask of C_G(a) for every element a."""
        if self._centralizers is None:
            rows = self.rows
            cent = []
            for a, ra in enumerate(rows):
                m = 0
                for b, rb in enumerate(rows):
                    if ra[b] == rb[a]:
                        m |= 1 << b
                cent.append(m)
            self._centralizers = cent
        return self._centralizers

    def group_centralizer(self, hmask: int) -> int:
        """Mask of C_G(H) for the element set ``hmask``, memoized."""
        out = self._group_centralizer.get(hmask)
        if out is None:
            cent = self.centralizers()
            out = (1 << self.n) - 1
            for h in bit_positions(hmask):
                out &= cent[h]
            self._group_centralizer[hmask] = out
        return out

    def record(self, hmask: int) -> tuple[list[int], list[int]]:
        """Generators and elements of the subgroup ``hmask``, as recorded
        by the closure that first returned it: at most log2 |H|
        generators, and the elements in the order the closure reached
        them.  A subgroup no closure returned yet is closed once here;
        any other element set raises ValueError.  The lists are shared;
        do not mutate them."""
        out = self._subgroups.get(hmask)
        if out is None:
            if _dimino(self, hmask)[0] != hmask:
                raise ValueError("element set is not a subgroup")
            out = self._subgroups[hmask]
        return out

    def generators(self, hmask: int) -> list[int]:
        """Generators recorded for the subgroup ``hmask``; see
        :meth:`record`."""
        return self.record(hmask)[0]


def prepare_table(rows) -> Table:
    return Table(rows)


def _dimino(tab: Table, mask: int, base: int = 1) -> tuple[int, list[int]]:
    """The subgroup generated by the subgroup ``base`` and the elements of
    ``mask``, and the generators picked for it.

    Reached so far, Dimino style, extended from a known subgroup
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 3):
    the group starts as ``base`` with the generators recorded for it,
    and the lowest pending element not yet in the group becomes a
    generator.  The group H reached before it grows by right cosets H r:
    a coset representative times a generator that lands outside the
    group starts a new coset.  Only generators are multiplied, so the
    cost is O(|J| + [J:H] * #gens) per generator, and the elements of
    ``base`` are never rebuilt.

    The result is always the subgroup the returned generators generate.
    They and its elements are recorded for it, unless a closure recorded
    it before, so :meth:`Table.generators` reads them, and a later
    closure extends the result, without closing it again.
    """
    rows = tab.rows
    gens, elems = tab.record(base)
    gens, elems = gens[:], elems[:]
    members = base
    pending = mask & ~members
    while pending:
        s = (pending & -pending).bit_length() - 1
        gens.append(s)
        prev = elems[:]  # the subgroup reached so far
        reps = [0]
        for r in reps:  # reps grows while it is scanned
            rr = rows[r]
            for t in gens:
                x = rr[t]
                if not members >> x & 1:
                    reps.append(x)
                    for h in prev:
                        y = rows[h][x]
                        members |= 1 << y
                        elems.append(y)
        pending &= ~members
    tab._subgroups.setdefault(members, (gens, elems))
    return members, gens


def closure_mask(tab: Table, mask: int, base: int = 1) -> int:
    """Smallest subgroup containing the subgroup ``base`` and the elements
    of ``mask``.  The closure extends ``base`` rather than rebuilding
    it, so a join with a known member costs only the new cosets.  A
    ``base`` that is not a subgroup raises ValueError."""
    return _dimino(tab, mask, base)[0]


def product_mask(tab: Table, amask: int, bmask: int) -> int:
    rows = tab.rows
    out = 0
    bs = bit_positions(bmask)
    for a in bit_positions(amask):
        ra = rows[a]
        for b in bs:
            out |= 1 << ra[b]
    return out


def commutator_closure_mask(tab: Table, hmask: int, kmask: int) -> int:
    """[H, K] for the subgroups ``hmask`` and ``kmask``, from generators.

    Both masks must be subgroups.  With X and Y generating H and K and
    S = {[x, y] : x in X, y in Y}, where [x, y] = x^-1 y^-1 x y,

        <S> <= [H, K] = <S>^<H, K>,

    the normal closure in <H, K> of the generator commutators (Robinson,
    A Course in the Theory of Groups, 5.1.7).  X and Y are the
    generators recorded for H and K, at most log2 of the order each, so
    no element pair of H x K is formed.  Trivial at once when K lies in
    C_G(H).  Otherwise the normal closure grows from N = <S>: while some
    conjugate of a generator of N by X u Y lies outside N, N becomes the
    closure of N and those conjugates, extended from N.  Every such N
    lies in [H, K], which <H, K> normalizes, and the last is normalized
    by X u Y, hence by <H, K>, so it is [H, K].  Each closure comes from
    a per-table memo keyed by its generating mask, since many pairs
    share their seeds S and the steps after them.
    """
    cent = tab._group_centralizer.get(hmask)
    if cent is None:
        cent = tab.group_centralizer(hmask)
    if kmask & ~cent == 0:
        return 1
    rows = tab.rows
    inv = tab.inv
    hgens = tab.generators(hmask)
    kgens = tab.generators(kmask)
    pending = 0
    for x in hgens:
        rx = rows[inv[x]]
        for y in kgens:
            pending |= 1 << rows[rows[rx[inv[y]]][x]][y]
    conjugators = hgens + kgens
    closures = tab._closures
    group = 1
    pending &= ~1  # a commuting generator pair gives the identity
    while pending:
        key = group | pending
        grown = closures.get(key)
        if grown is None:
            grown = closures[key] = _dimino(tab, pending, group)[0]
        group = grown
        pending = 0
        for s in tab._subgroups[group][0]:
            for c in conjugators:
                pending |= 1 << rows[rows[inv[c]][s]][c]
        pending &= ~group
    return group


def conjugate_mask(tab: Table, mask: int, g: int) -> int:
    """The image of the element set ``mask`` under x -> g^-1 x g."""
    rows = tab.rows
    rg = rows[tab.inv[g]]
    out = 0
    for x in bit_positions(mask):
        out |= 1 << rows[rg[x]][g]
    return out


def centralizer_mask(tab: Table, kmask: int, hmask: int) -> int:
    """Elements of K commuting with every element of H."""
    return kmask & tab.group_centralizer(hmask)


def conjugacy_class_ids(tab: Table) -> list:
    """Class label per element; labels increase in first-seen order."""
    rows = tab.rows
    inv = tab.inv
    n = tab.n
    ids = [-1] * n
    next_id = 0
    for g in range(n):
        if ids[g] >= 0:
            continue
        for a in range(n):
            ids[rows[rows[a][g]][inv[a]]] = next_id
        next_id += 1
    return ids


def count_commuting_pairs(tab: Table) -> int:
    return sum(c.bit_count() for c in tab.centralizers())


def sum_centralizer_orders(tab: Table, hmask: int, kmask: int) -> int:
    """Sum over h in H of |C_K(h)|."""
    cent = tab.centralizers()
    return sum((cent[h] & kmask).bit_count() for h in bit_positions(hmask))


def count_trivial_iterated_commutators(tab: Table, brackets: int, mask: int) -> int:
    """Tuples (x_1..x_{brackets+1}) from ``mask`` whose left-normed
    iterated commutator is the identity.

    Folds over commutator values rather than tuples: ``counts`` maps each
    value of [x_1, ..., x_i] to the number of prefixes reaching it, and
    the last entry is counted at once, since [a, x] = 1 iff x is in
    C_G(a).
    """
    if brackets == 0:
        return 1 if mask & 1 else 0
    rows = tab.rows
    inv = tab.inv
    cent = tab.centralizers()
    elems = bit_positions(mask)
    counts = {e: 1 for e in elems}
    for _ in range(brackets - 1):
        folded: dict[int, int] = {}
        for a, c in counts.items():
            ria = rows[inv[a]]
            for e in elems:
                t = rows[rows[ria[inv[e]]][a]][e]
                folded[t] = folded.get(t, 0) + c
        counts = folded
    return sum(c * (cent[a] & mask).bit_count() for a, c in counts.items())


def is_associative(tab: Table) -> bool:
    rows = tab.rows
    n = tab.n
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rab = rows[ra[b]]
            rb = rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    return False
    return True


def is_normal_mask(tab: Table, mask: int) -> bool:
    rows = tab.rows
    inv = tab.inv
    hs = bit_positions(mask)
    for a in range(tab.n):
        ra = rows[a]
        ia = inv[a]
        for h in hs:
            if not mask >> rows[ra[h]][ia] & 1:
                return False
    return True
