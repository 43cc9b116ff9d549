"""Pure-Python kernels over multiplication tables and element bitmasks.

Element sets are arbitrary-precision ints with bit ``i`` standing for
element ``i``.  Every kernel but one takes a prepared table handle as
returned by :func:`prepare_table`; the fold
:func:`count_trivial_iterated_commutators` takes a bracket table of
either elements or lattice members, with 0 the trivial value, and
weights over the domain's values.

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
    kernels learn about it as they run:

    - the element commutators and the per-element centralizers;
    - the generators and elements recorded for every subgroup a closure
      returned;
    - the closures the commutator kernel asked for, keyed by their
      generating mask, and N_G(N) for every subgroup N they returned.

    ``rows`` is kept as given, not copied: a group's table is shared
    with its kernels, so callers must not mutate it."""

    __slots__ = (
        "n", "rows", "inv", "_commutators", "_centralizers", "_subgroups",
        "_closures", "_normalizers",
    )

    def __init__(self, rows):
        self.n = len(rows)
        self.rows = rows
        self.inv = [row.index(0) for row in rows]
        self._commutators: list[list[int]] | None = None
        self._centralizers: list[int] | None = None
        self._subgroups: dict[int, tuple[list[int], list[int]]] = {1: ([], [0])}
        self._closures: dict[int, int] = {}
        self._normalizers: dict[int, int] = {}

    def commutators(self) -> list[list[int]]:
        """commutators()[a][b] is the element [a, b] = a^-1 b^-1 a b."""
        if self._commutators is None:
            rows = self.rows
            inv = self.inv
            out = []
            for a in range(self.n):
                ria = rows[inv[a]]
                out.append([rows[rows[ria[inv[b]]][a]][b] for b in range(self.n)])
            self._commutators = out
        return self._commutators

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

    def record(self, hmask: int) -> tuple[list[int], list[int]]:
        """Generators and elements of the subgroup ``hmask``, as recorded
        by the closure that first returned it: at most log2 |H|
        generators, and the elements in the order the closure reached
        them.  A subgroup no closure returned yet is closed once here;
        any other element set raises ValueError.  The lists are shared;
        do not mutate them."""
        out = self._subgroups.get(hmask)
        if out is None:
            if _dimino(self, hmask) != hmask:
                raise ValueError("element set is not a subgroup")
            out = self._subgroups[hmask]
        return out

    def generators(self, hmask: int) -> list[int]:
        """Generators recorded for the subgroup ``hmask``; see
        :meth:`record`."""
        return self.record(hmask)[0]


def prepare_table(rows) -> Table:
    """The kernels' handle on the table ``rows``: ``rows[a][b]`` is the
    index of a*b, element 0 the identity.  The rows are kept, not copied;
    do not mutate them."""
    return Table(rows)


def _dimino(tab: Table, mask: int, base: int = 1) -> int:
    """The subgroup generated by the subgroup ``base`` and the elements of
    ``mask``.

    Reached so far, Dimino style, extended from a known subgroup
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 3):
    the group starts as ``base`` with the generators recorded for it,
    and the lowest pending element not yet in the group becomes a
    generator.  The group H reached before it grows by right cosets H r:
    a coset representative times a generator that lands outside the
    group starts a new coset.  Only generators are multiplied, so the
    cost is O(|J| + [J:H] * #gens) per generator, and the elements of
    ``base`` are never rebuilt.

    The result is always the subgroup the picked generators generate:
    those recorded for ``base``, then each new one.  They and its
    elements are recorded for it, unless a closure recorded it before,
    so :meth:`Table.generators` reads them, and a later closure extends
    the result, without closing it again.
    """
    rows = tab.rows
    gens, elems = tab.record(base)
    members = base
    pending = mask & ~members
    while pending:
        s = (pending & -pending).bit_length() - 1
        gens = gens + [s]  # new lists: recorded ones are never mutated
        prev = elems  # the subgroup reached so far
        elems = prev[:]
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
    if members not in tab._subgroups:
        tab._subgroups[members] = (gens, elems)
    return members


def closure_mask(tab: Table, mask: int, base: int = 1) -> int:
    """Smallest subgroup containing the subgroup ``base`` and the elements
    of ``mask``.  The closure extends ``base`` rather than rebuilding
    it, so a join with a known member costs only the new cosets.  A
    ``base`` that is not a subgroup raises ValueError."""
    return _dimino(tab, mask, base)


def product_mask(tab: Table, amask: int, bmask: int) -> int:
    """The element set AB.  Nothing in latdeg calls it: the lattice
    answers HK = KH from the orders of H n K and H v K
    (``Lattice.perm_rows``).  It stays while perfbench/layertrace.py
    wraps it as a counted kernel, whose absence a traced run reports."""
    rows = tab.rows
    out = 0
    bs = bit_positions(bmask)
    for a in bit_positions(amask):
        ra = rows[a]
        for b in bs:
            out |= 1 << ra[b]
    return out


def _normalizer(tab: Table, nmask: int) -> int:
    """Mask of N_G(N) for the subgroup ``nmask``, memoized: g normalizes N
    iff it maps the generators s recorded for N into N, that is iff
    every [s, g] = s^-1 s^g lies in N."""
    out = tab._normalizers.get(nmask)
    if out is None:
        comm = tab.commutators()
        outside = 0
        for s in tab._subgroups[nmask][0]:
            for g, c in enumerate(comm[s]):
                if not nmask >> c & 1:
                    outside |= 1 << g
        out = tab._normalizers[nmask] = ((1 << tab.n) - 1) & ~outside
    return out


def commutator_closure_mask(tab: Table, hmask: int, kmask: int) -> int:
    """[H, K] for the subgroups ``hmask`` and ``kmask``, from generators.

    Both masks must be subgroups; any other element set raises
    ValueError.  With X and Y generating H and K and
    S = {[x, y] : x in X, y in Y}, where [x, y] = x^-1 y^-1 x y,

        <S> <= [H, K] = <S>^<H, K>,

    the normal closure in <H, K> of the generator commutators (Robinson,
    A Course in the Theory of Groups, 5.1.7).  X and Y are the
    generators recorded for H and K, at most log2 of the order each, so
    no element pair of H x K is formed.

    One loop grows the normal closure.  N starts as <S>.  While H or K
    lies outside N_G(N), N becomes the closure of N and the conjugates
    of its generators by the elements of X u Y outside N_G(N), extended
    from N.  Every such N lies in [H, K], which <H, K> normalizes, so
    the first N that H and K normalize is [H, K].  A commuting pair has
    S = {1}, so its first N is 1.  The table memoizes each closure,
    keyed by its generating mask, and N_G(N) once per closure, so the
    pairs of a lattice that share a seed set close it once.
    """
    hgens = tab.generators(hmask)
    kgens = tab.generators(kmask)
    comm = tab.commutators()
    seeds = 1
    for x in hgens:
        row = comm[x]
        for y in kgens:
            seeds |= 1 << row[y]
    rows = tab.rows
    inv = tab.inv
    closures = tab._closures
    conjugators = hgens + kgens
    group = 1
    pending = seeds
    while True:
        key = group | pending
        grown = closures.get(key)
        if grown is None:
            grown = closures[key] = _dimino(tab, pending, group)
        group = grown
        normalizer = _normalizer(tab, group)
        if not (hmask | kmask) & ~normalizer:
            return group
        pending = 0
        for c in conjugators:
            if not normalizer >> c & 1:
                rc = rows[inv[c]]
                for s in tab._subgroups[group][0]:
                    pending |= 1 << rows[rc[s]][c]


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
    cent = tab.centralizers()
    for h in bit_positions(hmask):
        kmask &= cent[h]
    return kmask


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


def count_trivial_iterated_commutators(
    table, rows, jz, weights: dict[int, int], cod_mask: int, n: int
) -> int:
    """Tuples (x_1, ..., x_n, y), x_i from a domain and y from
    ``cod_mask``, whose left-normed bracket [x_1, ..., x_n, y] is
    trivial; n >= 1.

    The values are positions in a bracket table: ``table[a][b]`` is the
    position of [a, b], ``rows[a]`` the mask of the b with [a, b]
    trivial, and 0 is the trivial value.  The elements of a group with
    their commutators, and the members of a lattice with their
    commutator subgroups, are both such tables.  ``jz`` reduces a value
    to one that brackets like it: [a, b] = [jz[a], jz[b]], and ``rows``
    and ``table`` are only read at reduced values.  ``weights[t]`` is
    the number of domain entries x with jz[x] = t.  The lattice reduces
    a member H to HZ, its join with the centre; the elements are their
    own reductions, each of weight 1.

    Folds over reduced bracket values rather than tuples: ``counts``
    maps each value of [x_1, ..., x_i], reduced, to the number of
    prefixes reaching it, and the last entry is counted at once from
    the value's row.  The domain values commuting with a value bracket
    to jz[0]; where they are most of the domain, they are counted at
    once from the row and only the rest are looked up in the table.
    """
    dom_mask = sum(1 << t for t in weights)
    total = sum(weights.values())
    trivial = jz[0]
    counts = weights
    for _ in range(n - 1):
        folded: dict[int, int] = {}
        for state, c in counts.items():
            row = table[state]
            others = dom_mask & ~rows[state]
            # listing the other values costs more than a table lookup per
            # value, so it only pays when most of the domain commutes
            if 2 * others.bit_count() < len(weights):
                rest = 0
                for t in bit_positions(others):
                    w = weights[t]
                    rest += w
                    v = jz[row[t]]
                    folded[v] = folded.get(v, 0) + c * w
                folded[trivial] = folded.get(trivial, 0) + c * (total - rest)
            else:
                for t, w in weights.items():
                    v = jz[row[t]]
                    folded[v] = folded.get(v, 0) + c * w
        counts = folded
    return sum(c * (rows[state] & cod_mask).bit_count() for state, c in counts.items())


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
