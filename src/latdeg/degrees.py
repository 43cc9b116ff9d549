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
``_kernels.count_trivial_iterated_commutators``, with weights over the
domain's values: d_n weighs each element 1, and ssd_n folds through the
centre Z(G), over the block of :func:`bracket_table`, weighing each
member above Z(G) by the number of domain members whose join with Z(G)
it is.

The depth n and the depth settings pass the one check of an integer
input, ``groups._parameter``: a bool or a non-integer raises ValueError,
as does a depth below its least ("n must be at least 1, got 0"); a
depth above MULTI_N_CAP raises BudgetExceeded ("n must be at most 4,
got 5").
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from latdeg import _kernels as kernels
from latdeg.groups import Group, Subgroup, _parameter, bit_positions, same_group
from latdeg.lattice import Lattice

MULTI_N_CAP = 4
DEFAULT_N_MAX = 3  # the depth of `--n-max` and of the claim runners


class BudgetExceeded(ValueError):
    """Raised when an iterated degree, or a depth setting, is deeper than
    MULTI_N_CAP."""


def check_n_max(n_max: int, name: str) -> int:
    """``n_max`` as an int; ValueError for a depth setting that is not an
    integer (bools included) or is negative, BudgetExceeded above
    MULTI_N_CAP; ``name`` is the setting the message names."""
    return _parameter(n_max, name, 0, MULTI_N_CAP, BudgetExceeded)


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
    over commutator values: at most n |K|^2 lookups in the element
    commutator table, rather than |K|^(n+1) tuples, and the order cap
    bounds that table's |G|^2 entries.  It shares the depth cap of
    :func:`ssd_multi`: n above MULTI_N_CAP raises ``BudgetExceeded``
    before any count is formed.

    ``within`` restricts the tuple entries to a subgroup of ``g`` (the
    commutator values then stay inside it).  An ``n`` that is not an
    integer, a bool included, raises ValueError.
    """
    n = _parameter(n, "n", 1, MULTI_N_CAP, BudgetExceeded)
    if within is not None and within.group is not g:
        raise ValueError("within is a subgroup of another group")
    size = within.size if within is not None else g.order
    mask = within.mask if within is not None else (1 << g.order) - 1
    ktab = g.ktab
    good = kernels.count_trivial_iterated_commutators(
        ktab.commutators(),
        ktab.centralizers(),
        tuple(range(g.order)),
        dict.fromkeys(bit_positions(mask), 1),
        mask,
        n,
    )
    return Fraction(good, size ** (n + 1))


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


def bracket_table(lat: Lattice) -> tuple[tuple[int, ...], tuple]:
    """``lat.bracket_block``: (jz, block), with jz[i] the position of
    L_i v Z(G) and block[a][b] the position of [L_a, L_b] for every a
    above Z(G) and every b; [L_i, L_j] is block[jz[i]][jz[j]].

    Each entry over the members above Z(G) is computed as written (the
    normal closure of the generator commutators [x, y] with x from the
    row subgroup), without assuming symmetry; [A,B] = [B,A] holds
    group-theoretically and is asserted by the test suite instead.  The
    dense table is ``lat.brackets``, built from the block on request.
    """
    return lat.bracket_block


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

    The left-normed bracket is folded through the block of
    :func:`bracket_table` over intermediate subgroup values, which
    matches direct tuple enumeration exactly.  A bracket reads only the
    joins of its entries with Z(G), so the fold runs over the members
    above Z(G), the subgroups L of H weighted by how many share L v Z(G).

    The fold's counts grow to about n log2 |L| bits, so depths above
    MULTI_N_CAP raise BudgetExceeded; an ``n`` that is not an integer, a
    bool included, raises ValueError.
    """
    n = _parameter(n, "n", 1, MULTI_N_CAP, BudgetExceeded)
    dom_mask = lat.down[lat.index(h)]
    if codomain is None:
        cod_mask = (1 << len(lat)) - 1
    else:
        cod_mask = lat.down[lat.index(codomain)]
    jz, block = bracket_table(lat)
    weights = Counter(jz[i] for i in bit_positions(dom_mask))
    numerator = kernels.count_trivial_iterated_commutators(
        block, phi_rows(lat), jz, weights, cod_mask, n
    )
    return Fraction(numerator, dom_mask.bit_count() ** n * cod_mask.bit_count())
