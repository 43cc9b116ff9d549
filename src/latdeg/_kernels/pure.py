"""Pure-Python kernels over multiplication tables and element bitmasks.

Element sets are arbitrary-precision ints with bit ``i`` standing for
element ``i``.  Every function takes a prepared table handle as returned
by :func:`prepare_table`.
"""

from __future__ import annotations


class Table:
    """Prepared multiplication table: rows, inverses, order, and the
    per-element centralizers, built on first use."""

    __slots__ = ("n", "rows", "inv", "_centralizers", "_group_centralizer")

    def __init__(self, rows):
        self.n = len(rows)
        self.rows = [list(r) for r in rows]
        inv = [0] * self.n
        for a, row in enumerate(self.rows):
            inv[a] = row.index(0)
        self.inv = inv
        self._centralizers: list[int] | None = None
        self._group_centralizer: dict[int, int] = {}

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
            out = centralizer_mask(self, (1 << self.n) - 1, hmask)
            self._group_centralizer[hmask] = out
        return out


def prepare_table(rows) -> Table:
    return Table(rows)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure_mask(tab: Table, mask: int) -> int:
    """Smallest subgroup containing the elements of ``mask``.

    Reached so far, Dimino style: each element of ``mask`` not yet in the
    group becomes a generator.  The group H reached before it grows by
    right cosets H r: a coset representative times a generator that
    lands outside the group starts a new coset.  Only generators are
    multiplied, so the cost is O(|J| + [J:H] * #gens) per generator.
    """
    rows = tab.rows
    members = 1  # identity
    elems = [0]
    gens: list[int] = []
    rest = mask & ~1
    while rest:
        s = (rest & -rest).bit_length() - 1
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
        rest &= ~members
    return members


def product_mask(tab: Table, amask: int, bmask: int) -> int:
    rows = tab.rows
    out = 0
    bs = list(_bits(bmask))
    for a in _bits(amask):
        ra = rows[a]
        for b in bs:
            out |= 1 << ra[b]
    return out


def commutator_closure_mask(tab: Table, hmask: int, kmask: int) -> int:
    """Subgroup generated by all commutators h^-1 k^-1 h k.

    Trivial at once when K lies in C_G(H); otherwise only the pairs that
    do not commute contribute generators to the closure.
    """
    if kmask & ~tab.group_centralizer(hmask) == 0:
        return 1
    rows = tab.rows
    inv = tab.inv
    cent = tab.centralizers()
    gens = 1
    for h in _bits(hmask):
        ih = inv[h]
        for k in _bits(kmask & ~cent[h]):
            gens |= 1 << rows[rows[rows[ih][inv[k]]][h]][k]
    return closure_mask(tab, gens)


def centralizer_mask(tab: Table, kmask: int, hmask: int) -> int:
    """Elements of K commuting with every element of H."""
    cent = tab.centralizers()
    out = kmask
    for h in _bits(hmask):
        out &= cent[h]
    return out


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
    return sum((cent[h] & kmask).bit_count() for h in _bits(hmask))


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
    elems = list(_bits(mask))
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
    hs = list(_bits(mask))
    for a in range(tab.n):
        ra = rows[a]
        ia = inv[a]
        for h in hs:
            if not mask >> rows[ra[h]][ia] & 1:
                return False
    return True
