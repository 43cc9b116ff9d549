"""Every probabilistic degree, computed as an exact Fraction.

No floating point touches any value here: the degrees are ratios of
tuple counts and all comparisons downstream are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from latdeg import _kernels as kernels
from latdeg.groups import Group, Subgroup, bit_positions
from latdeg.lattice import Lattice, _check_parent

DEFAULT_TUPLE_BUDGET = 10_000_000
MULTI_N_CAP = 4


class BudgetExceeded(ValueError):
    """Raised when a degree ranges over more tuples, or a deeper bracket,
    than its budget allows."""


def d_group(g: Group) -> Fraction:
    """Probability that an ordered pair of elements commutes."""
    n = g.order
    return Fraction(kernels.count_commuting_pairs(g.ktab), n * n)


def d_pair(g: Group, h: Subgroup, k: Subgroup) -> Fraction:
    """Probability that a pair from H x K commutes; d(G, G) = d(G)."""
    _check_parent(g, h, k)
    good = kernels.sum_centralizer_orders(g.ktab, h.mask, k.mask)
    return Fraction(good, h.size * k.size)


def d_multi(
    g: Group,
    n: int,
    *,
    within: Subgroup | None = None,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> Fraction:
    """Probability that the left-normed commutator of an (n+1)-tuple of
    elements is trivial.

    The count folds over commutator values (as :func:`ssd_multi` folds
    over subgroups), so it costs about |values| * |K| per bracket rather
    than |K|^(n+1).  ``budget`` still bounds the |K|^(n+1) tuples the
    degree ranges over, so the inputs that raise ``BudgetExceeded`` are
    the same as under direct enumeration.

    ``within`` restricts the tuple entries to a subgroup (the commutator
    values then stay inside it).
    """
    if n < 1:
        raise ValueError(f"tuple degree needs n >= 1, got {n}")
    if within is not None:
        _check_parent(g, within)
    size = within.size if within is not None else g.order
    tuples = size ** (n + 1)
    if tuples > budget:
        raise BudgetExceeded(
            f"{tuples} tuple evaluations exceed the budget of {budget}"
        )
    mask = within.mask if within is not None else (1 << g.order) - 1
    good = kernels.count_trivial_iterated_commutators(g.ktab, n, mask)
    return Fraction(good, tuples)


def phi(g: Group, x: Subgroup, y: Subgroup) -> int:
    """1 if [X, Y] = 1 else 0; symmetric in its arguments."""
    _check_parent(g, x, y)
    good = kernels.sum_centralizer_orders(g.ktab, x.mask, y.mask)
    return 1 if good == x.size * y.size else 0


def phi_rows(g: Group, lat: Lattice) -> tuple[int, ...]:
    """Row i is a bitmask over lattice positions j with [L_i, L_j] = 1.

    Built once per lattice from the centralizers; every ssd-style count
    reads it.
    """
    return lat.phi_rows


def perm_rows(g: Group, lat: Lattice) -> tuple[int, ...]:
    """Row i is a bitmask over lattice positions j with L_i L_j = L_j L_i."""
    return lat.perm_rows


def sd_group(g: Group, lat: Lattice) -> Fraction:
    """Probability that an ordered pair of subgroups permutes."""
    rows = perm_rows(g, lat)
    size = len(lat)
    return Fraction(sum(r.bit_count() for r in rows), size * size)


def ssd_group(g: Group, lat: Lattice) -> Fraction:
    """Probability that an ordered pair of subgroups has trivial
    commutator subgroup."""
    rows = phi_rows(g, lat)
    size = len(lat)
    return Fraction(sum(r.bit_count() for r in rows), size * size)


@dataclass(frozen=True)
class BracketTable:
    """entries[i][j] is the lattice position of [L_i, L_j]."""

    entries: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    @property
    def size(self) -> int:
        return len(self.entries)


def bracket_table(g: Group, lat: Lattice) -> BracketTable:
    """All pairwise commutator subgroups as lattice positions.

    Each entry is computed as written (the normal closure of the
    generator commutators [x, y] with x from the row subgroup), without
    assuming symmetry; [A,B] = [B,A] holds group-theoretically and is
    asserted by the test suite instead.
    """
    return BracketTable(lat.brackets)


def ssd_multi(
    g: Group,
    lat: Lattice,
    h: Subgroup,
    n: int,
    *,
    codomain: Subgroup | None = None,
    n_cap: int = MULTI_N_CAP,
) -> Fraction:
    """Probability that [L_1, ..., L_n, K] = 1 for L_i drawn from the
    subgroups of H and K from the subgroups of ``codomain`` (the whole
    group by default).

    The left-normed bracket is folded through the lattice bracket table
    by dynamic programming over intermediate subgroup values, which
    matches direct tuple enumeration exactly.  The members commuting
    with a value bracket to the trivial member 0; where they are most
    of the domain, they are counted at once from the value's
    ``phi_rows`` row and only the rest are looked up in the table.
    """
    if n < 1:
        raise ValueError(f"iterated degree needs n >= 1, got {n}")
    if n > n_cap:
        raise BudgetExceeded(f"n = {n} exceeds the configured cap {n_cap}")
    _check_parent(g, h)
    dom_mask = lat.down[lat.index(h)]
    dom = bit_positions(dom_mask)
    if codomain is None:
        cod_mask = (1 << len(lat)) - 1
    else:
        _check_parent(g, codomain)
        cod_mask = lat.down[lat.index(codomain)]
    table = bracket_table(g, lat).entries
    rows = phi_rows(g, lat)
    counts = {i: 1 for i in dom}
    for _ in range(n - 1):
        folded: dict[int, int] = {}
        for state, c in counts.items():
            commuting = rows[state] & dom_mask
            n_commuting = commuting.bit_count()
            # listing the other j costs more than a table lookup per j, so
            # it only pays when most of the domain commutes with the state
            if 2 * n_commuting > len(dom):
                folded[0] = folded.get(0, 0) + c * n_commuting
                js = bit_positions(dom_mask & ~commuting)
            else:
                js = dom
            row = table[state]
            for j in js:
                t = row[j]
                folded[t] = folded.get(t, 0) + c
        counts = folded
    numerator = sum(
        c * (rows[state] & cod_mask).bit_count() for state, c in counts.items()
    )
    return Fraction(numerator, len(dom) ** n * cod_mask.bit_count())
