"""Every probabilistic degree, computed as an exact Fraction.

No floating point touches any value here: the degrees are ratios of
tuple counts and all comparisons downstream are exact.

The degrees of subgroups read their group from the subgroups, or from
the lattice they are taken in.  The one function that takes a group
beside a subgroup is ``d_multi(g, n, within=K)``, whose ``within`` is
optional; it refuses a ``K`` of another group.

d_n and ssd_n count the same thing, tuples whose left-normed bracket
is trivial, over elements and over lattice members.  Both hand their
bracket table to the one fold,
``_kernels.count_trivial_iterated_commutators``.
"""

from __future__ import annotations

from fractions import Fraction

from latdeg import _kernels as kernels
from latdeg.groups import Group, Subgroup, same_group
from latdeg.lattice import Lattice

TUPLE_BUDGET = 10_000_000  # d_multi refuses, and C13 skips, more tuples
MULTI_N_CAP = 4


class BudgetExceeded(ValueError):
    """Raised when a degree ranges over more tuples, or a deeper bracket,
    than its budget allows."""


def check_n_max(n_max: int, name: str) -> None:
    """ValueError for a negative depth setting ``n_max``, BudgetExceeded
    above MULTI_N_CAP; ``name`` is the setting the message names."""
    if n_max < 0:
        raise ValueError(f"{name} must be at least 0, got {n_max}")
    if n_max > MULTI_N_CAP:
        raise BudgetExceeded(f"{name} must be at most {MULTI_N_CAP}, got {n_max}")


def d_group(g: Group) -> Fraction:
    """Probability that an ordered pair of elements commutes."""
    n = g.order
    return Fraction(kernels.count_commuting_pairs(g.ktab), n * n)


def d_pair(h: Subgroup, k: Subgroup) -> Fraction:
    """Probability that a pair from H x K commutes; d(G, G) = d(G)."""
    good = kernels.sum_centralizer_orders(same_group(h, k).ktab, h.mask, k.mask)
    return Fraction(good, h.size * k.size)


def d_multi(g: Group, n: int, *, within: Subgroup | None = None) -> Fraction:
    """Probability that the left-normed commutator of an (n+1)-tuple of
    elements is trivial.

    The count is the fold :func:`ssd_multi` runs over subgroups, here
    over commutator values, so it costs about |values| * |K| per bracket
    rather than |K|^(n+1).  ``TUPLE_BUDGET``, read at call time, still
    bounds the |K|^(n+1) tuples the degree ranges over, so the inputs
    that raise ``BudgetExceeded`` are the same as under direct
    enumeration.

    ``within`` restricts the tuple entries to a subgroup of ``g`` (the
    commutator values then stay inside it).
    """
    if n < 1:
        raise ValueError(f"tuple degree needs n >= 1, got {n}")
    if within is not None and within.group is not g:
        raise ValueError("within is a subgroup of another group")
    size = within.size if within is not None else g.order
    tuples = size ** (n + 1)
    if tuples > TUPLE_BUDGET:
        raise BudgetExceeded(
            f"{tuples} tuple evaluations exceed the budget of {TUPLE_BUDGET}"
        )
    mask = within.mask if within is not None else (1 << g.order) - 1
    ktab = g.ktab
    good = kernels.count_trivial_iterated_commutators(
        ktab.commutators(), ktab.centralizers(), mask, mask, n
    )
    return Fraction(good, tuples)


# phi_rows and perm_rows only pass the lattice's rows on; they stay as
# named functions because perfbench/layertrace.py times them by name
def phi_rows(lat: Lattice) -> tuple[int, ...]:
    """``lat.phi_rows``: row i holds the members L_j with [L_i, L_j] = 1."""
    return lat.phi_rows


def perm_rows(lat: Lattice) -> tuple[int, ...]:
    """``lat.perm_rows``: row i holds the members L_j with L_i L_j = L_j L_i."""
    return lat.perm_rows


def sd_group(lat: Lattice) -> Fraction:
    """Probability that an ordered pair of subgroups permutes."""
    rows = perm_rows(lat)
    return Fraction(sum(r.bit_count() for r in rows), len(lat) ** 2)


def ssd_group(lat: Lattice) -> Fraction:
    """Probability that an ordered pair of subgroups has trivial
    commutator subgroup."""
    rows = phi_rows(lat)
    return Fraction(sum(r.bit_count() for r in rows), len(lat) ** 2)


def bracket_table(lat: Lattice) -> tuple[tuple[int, ...], ...]:
    """All pairwise commutator subgroups as lattice positions:
    ``lat.brackets``, whose entry [i][j] is the position of [L_i, L_j].

    Each entry is computed as written (the normal closure of the
    generator commutators [x, y] with x from the row subgroup), without
    assuming symmetry; [A,B] = [B,A] holds group-theoretically and is
    asserted by the test suite instead.
    """
    return lat.brackets


def ssd_multi(
    lat: Lattice,
    h: Subgroup,
    n: int,
    *,
    codomain: Subgroup | None = None,
) -> Fraction:
    """Probability that [L_1, ..., L_n, K] = 1 for L_i drawn from the
    subgroups of H and K from the subgroups of ``codomain`` (the whole
    group by default).

    The left-normed bracket is folded through the lattice bracket table
    over intermediate subgroup values, which matches direct tuple
    enumeration exactly; the trivial member is position 0.

    The fold's counts grow to about n log2 |L| bits, so depths above
    MULTI_N_CAP raise BudgetExceeded.
    """
    if n < 1:
        raise ValueError(f"iterated degree needs n >= 1, got {n}")
    if n > MULTI_N_CAP:
        raise BudgetExceeded(f"n = {n} exceeds the cap {MULTI_N_CAP}")
    dom_mask = lat.down[lat.index(h)]
    if codomain is None:
        cod_mask = (1 << len(lat)) - 1
    else:
        cod_mask = lat.down[lat.index(codomain)]
    numerator = kernels.count_trivial_iterated_commutators(
        bracket_table(lat), phi_rows(lat), dom_mask, cod_mask, n
    )
    return Fraction(numerator, dom_mask.bit_count() ** n * cod_mask.bit_count())
