"""Registry of verifiable claims about the degrees, and a runner that
checks each claim on concrete groups with exact arithmetic.

Claims C1..C20 are mathematical statements over a group, its subgroup
lattice, and the degree functions.  Free variables (a normal subgroup, a
fixed subgroup K or M, the depth n) are universally quantified over all
admissible values, one result per instantiation.  A failing instance is
reported with exact both sides and witnesses, never silently corrected:
several registered statements are genuinely false on small groups and
the runner's job is to document exactly where.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from latdeg import characters, degrees
from latdeg.arith import is_prime, sigma, tau
from latdeg.degrees import BudgetExceeded
from latdeg.groups import (
    Group,
    OrderCapExceeded,
    Subgroup,
    bit_positions,
    make_cyclic,
    make_dihedral,
    make_modular,
    make_quaternion,
    make_symmetric,
)
from latdeg.lattice import Lattice, enumerate_subgroups

DEFAULT_N_MAX = 3


class Claim(NamedTuple):
    id: str
    kind: str  # equality | non-strict-inequality | strict-inequality | iff
    description: str
    applicability: str


class ClaimResult(NamedTuple):
    claim_id: str
    group_label: str
    instance: str
    applicable: bool
    holds: bool | None
    lhs: Fraction | int | None
    rhs: Fraction | int | None
    strict_observed: bool | None = None
    witnesses: tuple[str, ...] = ()
    note: str | None = None


class SuiteReport(NamedTuple):
    results: tuple[ClaimResult, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.results if r.applicable)


class _Context:
    """Per-group caches shared by all claim runners.

    Conjugation by an element of G is an automorphism of the lattice that
    fixes G, so a degree of a member that reads only the lattice below
    it, or below G, is the same for every conjugate.  Those caches key by
    the member's conjugacy class, ``lattice.class_of``.
    """

    def __init__(self, group: Group, n_max: int, cap: int | None):
        self.group = group
        self.n_max = n_max
        self.cap = cap
        self.lattice = enumerate_subgroups(group, cap=cap)
        self._quotients: dict[int, tuple[int, Fraction]] = {}
        self._ssd_multi: dict[tuple[int, int, bool], Fraction] = {}
        self._d_multi: dict[tuple[int, int], Fraction] = {}
        self._sub_degrees: dict[int, Fraction] = {}
        self._factors: tuple[list | None, str | None] | None = None

    def sd_below(self, i: int) -> Fraction:
        """sd(L_i): the density of the permuting pairs in the sublattice
        below L_i, keyed by the class of L_i.  ssd(L_i) is
        ``ssd_multi(i, 1, diagonal=True)``."""
        key = self.lattice.class_of[i]
        if key not in self._sub_degrees:
            lat = self.lattice
            rows = lat.perm_rows
            below = lat.down[i]
            count = sum((rows[j] & below).bit_count() for j in bit_positions(below))
            self._sub_degrees[key] = Fraction(count, below.bit_count() ** 2)
        return self._sub_degrees[key]

    def commuting_sum(self, weight: list[int]) -> int:
        """Sum of weight[h] weight[k] over the commuting element pairs
        (h, k).  C_G(h) is the highest member of phi_rows[cyclic[h]]."""
        lat = self.lattice
        rows = lat.phi_rows
        inner: dict[int, int] = {}  # by the position of C_G(h)
        total = 0
        for h, c in enumerate(lat.cyclic):
            top = rows[c].bit_length() - 1
            if top not in inner:
                inner[top] = sum(weight[k] for k in lat[top].members())
            total += weight[h] * inner[top]
        return total

    def d_pair_sum(self) -> Fraction:
        """Sum of d(H, K) over all ordered lattice pairs.  A commuting
        element pair (h, k) adds 1/(|H||K|) for every H holding h and K
        holding k, so with w[e] the sum of |G|/|H| over the members H
        holding e, the sum is that of w[h] w[k] over |G|^2."""
        lat = self.lattice
        n = self.group.order
        w = [
            sum(n // lat[i].size for i in bit_positions(lat.up[c])) for c in lat.cyclic
        ]
        return Fraction(self.commuting_sum(w), n * n)

    def quotient_stats(self, n_idx: int) -> tuple[int, Fraction]:
        """(lattice size, ssd) of the quotient by a normal member N, read
        off the parent lattice: by the correspondence theorem L(G/N) is
        the up-set of N, and [H/N, K/N] = 1 iff [H, K] <= N."""
        if n_idx not in self._quotients:
            lat = self.lattice
            brackets = degrees.bracket_table(lat)
            above = bit_positions(lat.up[n_idx])
            inside = lat.down[n_idx]
            count = sum(inside >> brackets[i][j] & 1 for i in above for j in above)
            self._quotients[n_idx] = (len(above), Fraction(count, len(above) ** 2))
        return self._quotients[n_idx]

    def ssd_multi(self, i: int, n: int, *, diagonal: bool = False) -> Fraction:
        """ssd_n(L_i, G), or ssd_n(L_i, L_i) when ``diagonal``, keyed by
        the class of L_i."""
        key = (self.lattice.class_of[i], n, diagonal)
        if key not in self._ssd_multi:
            h = self.lattice[i]
            self._ssd_multi[key] = degrees.ssd_multi(
                self.lattice, h, n, codomain=h if diagonal else None
            )
        return self._ssd_multi[key]

    def d_multi_diag(self, k_idx: int, n: int) -> Fraction:
        """d_n(K, K) for K = L_k, keyed by the class of K."""
        key = (self.lattice.class_of[k_idx], n)
        if key not in self._d_multi:
            self._d_multi[key] = degrees.d_multi(
                self.group, n, within=self.lattice[k_idx]
            )
        return self._d_multi[key]

    def coprime_factors(self) -> tuple[list[Lattice] | None, str | None]:
        """(factor lattices, None) when the group is a direct product of
        pairwise coprime factors, else (None, reason).  Each factor
        lattice is enumerated once per context."""
        if self._factors is None:
            factors, reason = _coprime_factors(self.group)
            if factors is not None:
                factors = [enumerate_subgroups(f, cap=self.cap) for f in factors]
            self._factors = (factors, reason)
        return self._factors


CLAIMS: dict[str, Claim] = {}
_RUNNERS: dict[str, object] = {}


def _claim(id: str, kind: str, description: str, applicability: str):
    def wrap(fn):
        CLAIMS[id] = Claim(id, kind, description, applicability)
        _RUNNERS[id] = fn
        return fn

    return wrap


def _res(
    ctx: _Context,
    claim_id: str,
    instance: str,
    holds: bool,
    lhs,
    rhs,
    *,
    strict: bool | None = None,
    witnesses: tuple[str, ...] = (),
    note: str | None = None,
) -> ClaimResult:
    return ClaimResult(
        claim_id=claim_id,
        group_label=ctx.group.label,
        instance=instance,
        applicable=True,
        holds=holds,
        lhs=lhs,
        rhs=rhs,
        strict_observed=strict,
        witnesses=witnesses,
        note=note,
    )


def _not_applicable(
    ctx: _Context, claim_id: str, note: str, *, instance: str = ""
) -> ClaimResult:
    return ClaimResult(
        claim_id=claim_id,
        group_label=ctx.group.label,
        instance=instance,
        applicable=False,
        holds=None,
        lhs=None,
        rhs=None,
        note=note,
    )


@_claim("C1", "iff", "ssd(G) = 1 exactly when G is abelian", "every group")
def _c1(ctx: _Context):
    value = degrees.ssd_group(ctx.lattice)
    abelian = ctx.group.is_abelian
    holds = (value == 1) == abelian
    yield _res(ctx, "C1", "", holds, value, Fraction(1),
               note=f"abelian={abelian}")


@_claim(
    "C2",
    "strict-inequality",
    "ssd(G) < (|G|^2/|L|^2) * sum over pairs of d(H,K)",
    "nontrivial groups (a one-element lattice forces equality)",
)
def _c2(ctx: _Context):
    if ctx.group.order == 1:
        yield _not_applicable(ctx, "C2", "trivial group: both sides equal 1")
        return
    n = ctx.group.order
    rhs = Fraction(n * n, len(ctx.lattice) ** 2) * ctx.d_pair_sum()
    lhs = degrees.ssd_group(ctx.lattice)
    yield _res(ctx, "C2", "", lhs < rhs, lhs, rhs, strict=lhs < rhs)


@_claim(
    "C3",
    "non-strict-inequality",
    "sd(G) >= sum over H of |C_K(H)| / |L|^2 for every subgroup K; "
    "and sum of d(H,K)|H||K| >= sum of |C_K(H)| over all pairs",
    "every group, K universally quantified",
)
def _c3(ctx: _Context):
    # sum over H of |C_K(H)| counts each x in K once per member H inside
    # C_G(x); d(H, K)|H||K| counts the commuting pairs of H x K.  With
    # c = cyclic[x], up[c] holds the members holding x and phi_rows[c]
    # the members inside C_G(x)
    lat = ctx.lattice
    sd_value = degrees.sd_group(lat)
    size = len(lat)
    rows = lat.phi_rows
    holding = [lat.up[c].bit_count() for c in lat.cyclic]
    centralizing = [rows[c].bit_count() for c in lat.cyclic]
    for k_idx, k in enumerate(lat.subgroups):
        bound = Fraction(sum(centralizing[x] for x in k.members()), size * size)
        yield _res(
            ctx, "C3", f"K=#{k_idx}", sd_value >= bound, sd_value, bound,
            witnesses=() if sd_value >= bound else (f"K={k.bitstring()}",),
        )
    lhs = ctx.commuting_sum(holding)
    rhs = sum(h * c for h, c in zip(holding, centralizing))
    yield _res(ctx, "C3", "sum", lhs >= rhs, lhs, rhs)


def _c4_bound(ctx: _Context, n_idx: int, middle_from_quotient: bool) -> Fraction:
    lat = ctx.lattice
    l_n = lat.down[n_idx].bit_count()
    ssd_n = ctx.ssd_multi(n_idx, 1, diagonal=True)
    l_q, ssd_q = ctx.quotient_stats(n_idx)
    middle = ssd_q if middle_from_quotient else ssd_n
    return (
        Fraction(1, len(lat) ** 2)
        * (
            Fraction((l_n + l_q - 1) ** 2)
            + (middle - 1) * l_n**2
            + (ssd_q - 1) * l_q**2
        )
    )


@_claim(
    "C4",
    "non-strict-inequality",
    "for normal N: ssd(G) >= ((|L(N)|+|L(G/N)|-1)^2 + (ssd(N)-1)|L(N)|^2 "
    "+ (ssd(G/N)-1)|L(G/N)|^2) / |L(G)|^2",
    "every normal subgroup",
)
def _c4(ctx: _Context):
    value = degrees.ssd_group(ctx.lattice)
    for n_idx in ctx.lattice.normal:
        rhs = _c4_bound(ctx, n_idx, middle_from_quotient=False)
        variant = _c4_bound(ctx, n_idx, middle_from_quotient=True)
        yield _res(
            ctx, "C4", f"N=#{n_idx}", value >= rhs, value, rhs,
            witnesses=()
            if value >= rhs
            else (f"N={ctx.lattice[n_idx].bitstring()}",),
            note=f"variant with quotient ssd in the middle term "
            f"{'holds' if value >= variant else 'fails'}",
        )


@_claim(
    "C5",
    "non-strict-inequality",
    "for normal N with N and G/N abelian: "
    "ssd(G) >= (|L(N)|+|L(G/N)|-1)^2 / |L(G)|^2",
    "normal subgroups with abelian N and abelian quotient",
)
def _c5(ctx: _Context):
    lat = ctx.lattice
    value = degrees.ssd_group(lat)
    produced = False
    for n_idx in lat.normal:
        sub = lat[n_idx]
        if ctx.ssd_multi(n_idx, 1, diagonal=True) != 1:
            continue
        l_q, ssd_q = ctx.quotient_stats(n_idx)
        if ssd_q != 1:
            continue
        produced = True
        l_n = lat.down[n_idx].bit_count()
        rhs = Fraction((l_n + l_q - 1) ** 2, len(lat) ** 2)
        unsquared = Fraction((l_n + l_q - 1) ** 2, len(lat))
        yield _res(
            ctx, "C5", f"N=#{n_idx}", value >= rhs, value, rhs,
            witnesses=() if value >= rhs else (f"N={sub.bitstring()}",),
            note=f"single-power denominator variant "
            f"{'holds' if value >= unsquared else 'fails'}",
        )
    if not produced:
        yield _not_applicable(
            ctx, "C5", "no normal subgroup with abelian N and abelian quotient"
        )


@_claim(
    "C6",
    "non-strict-inequality",
    "for normal N of prime index: "
    "ssd(G) >= (ssd(N)|L(N)|^2 + 2|L(N)| + 1) / |L(G)|^2",
    "normal subgroups of prime index",
)
def _c6(ctx: _Context):
    lat = ctx.lattice
    value = degrees.ssd_group(lat)
    produced = False
    for n_idx in lat.normal:
        sub = lat[n_idx]
        index = ctx.group.order // sub.size
        if not is_prime(index):
            continue
        produced = True
        l_n = lat.down[n_idx].bit_count()
        ssd_n = ctx.ssd_multi(n_idx, 1, diagonal=True)
        rhs = (ssd_n * l_n**2 + 2 * l_n + 1) / len(lat) ** 2
        yield _res(
            ctx, "C6", f"N=#{n_idx}", value >= rhs, value, rhs,
            witnesses=() if value >= rhs else (f"N={sub.bitstring()}",),
        )
    if not produced:
        yield _not_applicable(ctx, "C6", "no normal subgroup of prime index")


@_claim(
    "C7",
    "non-strict-inequality",
    "nonabelian solvable: ssd(G) >= (ssd(G')|L(G')|^2 + 2|L(G')| + 1) / |L(G)|^2; "
    "for metabelian G the ssd(G') factor is 1",
    "nonabelian solvable groups",
)
def _c7(ctx: _Context):
    g = ctx.group
    if g.is_abelian or not g.is_solvable:
        yield _not_applicable(ctx, "C7", "applies to nonabelian solvable groups")
        return
    lat = ctx.lattice
    value = degrees.ssd_group(lat)
    derived = g.derived_series()[1]
    d_idx = lat.index(derived)
    l_d = lat.down[d_idx].bit_count()
    ssd_d = ctx.ssd_multi(d_idx, 1, diagonal=True)
    rhs = (ssd_d * l_d**2 + 2 * l_d + 1) / len(lat) ** 2
    yield _res(ctx, "C7", f"G'=#{d_idx}", value >= rhs, value, rhs)
    if g.is_metabelian:
        rhs2 = Fraction(l_d**2 + 2 * l_d + 1, len(lat) ** 2)
        yield _res(ctx, "C7", "metabelian", value >= rhs2, value, rhs2)


@_claim(
    "C8",
    "non-strict-inequality",
    "(|L(H)|^2/|L(G)|^2) ssd(H) <= ssd(G); and for every M <= H: "
    "sum over L <= H of |C_M(L)| / |L(G)|^2 <= sd(H) <= sd(G)",
    "every subgroup H, M universally quantified over subgroups of H",
)
def _c8(ctx: _Context):
    lat = ctx.lattice
    ssd_g = degrees.ssd_group(lat)
    sd_g = degrees.sd_group(lat)
    size = len(lat)
    rows = lat.phi_rows
    for h_idx, h in enumerate(lat.subgroups):
        below = lat.down[h_idx]
        dom = bit_positions(below)
        l_h = len(dom)
        lhs = Fraction(l_h**2, size**2) * ctx.ssd_multi(h_idx, 1, diagonal=True)
        yield _res(ctx, "C8", f"H=#{h_idx}", lhs <= ssd_g, lhs, ssd_g)
        sd_h = ctx.sd_below(h_idx)
        yield _res(
            ctx, "C8", f"H=#{h_idx}|sd-chain", sd_h <= sd_g, sd_h, sd_g,
            witnesses=() if sd_h <= sd_g else (f"H={h.bitstring()}",),
        )
        # sum over L <= H of |C_M(L)| counts each x in M once per member
        # L <= H inside C_G(x)
        inside = {x: (rows[lat.cyclic[x]] & below).bit_count() for x in h.members()}
        for m_idx in dom:
            bound = Fraction(sum(inside[x] for x in lat[m_idx].members()), size**2)
            yield _res(
                ctx, "C8", f"H=#{h_idx},M=#{m_idx}", bound <= sd_h, bound, sd_h
            )


def _coprime_factors(g: Group) -> tuple[list[Group] | None, str | None]:
    if not g.factors or len(g.factors) < 2:
        return None, "group was not built as a direct product"
    factors = list(g.factors)
    for i, a in enumerate(factors):
        for b in factors[i + 1 :]:
            if gcd(a.order, b.order) != 1:
                return None, f"factor orders |{a.label}|, |{b.label}| share a divisor"
    return factors, None


@_claim(
    "C9",
    "equality",
    "for pairwise coprime factors: ssd of the product equals the product "
    "of the factor ssd values",
    "direct products with pairwise coprime factor orders",
)
def _c9(ctx: _Context):
    factors, reason = ctx.coprime_factors()
    if factors is None:
        yield _not_applicable(ctx, "C9", reason)
        return
    lhs = degrees.ssd_group(ctx.lattice)
    rhs = Fraction(1)
    for flat in factors:
        rhs *= degrees.ssd_group(flat)
    yield _res(ctx, "C9", f"factors={len(factors)}", lhs == rhs, lhs, rhs)


@_claim(
    "C10",
    "non-strict-inequality",
    "the iterated degree is non-increasing in the depth n "
    "(strictness recorded per step)",
    "every subgroup H, consecutive depths up to n_max",
)
def _c10(ctx: _Context):
    for h_idx, h in enumerate(ctx.lattice.subgroups):
        values = [ctx.ssd_multi(h_idx, n) for n in range(1, ctx.n_max + 1)]
        for n in range(1, ctx.n_max):
            lhs, rhs = values[n - 1], values[n]
            yield _res(
                ctx, "C10", f"H=#{h_idx},n={n}->{n + 1}",
                lhs >= rhs, lhs, rhs, strict=lhs > rhs,
                witnesses=() if lhs >= rhs else (f"H={h.bitstring()}",),
            )


@_claim(
    "C11",
    "non-strict-inequality",
    "ssd_n(H,G) <= ssd_n(G,G) <= ssd(G) <= sd(G)",
    "every subgroup H, depths up to n_max",
)
def _c11(ctx: _Context):
    full = len(ctx.lattice) - 1
    ssd_g = degrees.ssd_group(ctx.lattice)
    sd_g = degrees.sd_group(ctx.lattice)
    diag = {n: ctx.ssd_multi(full, n) for n in range(1, ctx.n_max + 1)}
    for h_idx, h in enumerate(ctx.lattice.subgroups):
        for n in range(1, ctx.n_max + 1):
            lhs = ctx.ssd_multi(h_idx, n)
            rhs = diag[n]
            yield _res(
                ctx, "C11", f"H=#{h_idx},n={n}", lhs <= rhs, lhs, rhs,
                witnesses=() if lhs <= rhs else (f"H={h.bitstring()}",),
            )
    for n in range(1, ctx.n_max + 1):
        yield _res(ctx, "C11", f"diag,n={n}", diag[n] <= ssd_g, diag[n], ssd_g)
    yield _res(ctx, "C11", "ssd<=sd", ssd_g <= sd_g, ssd_g, sd_g)


@_claim(
    "C12",
    "equality",
    "for coprime C, D and subgroups A <= C, B <= D: "
    "ssd_n(AxB, CxD) = ssd_n(A,C) * ssd_n(B,D)",
    "direct products with pairwise coprime factor orders",
)
def _c12(ctx: _Context):
    factors, reason = ctx.coprime_factors()
    if factors is None:
        yield _not_applicable(ctx, "C12", reason)
        return
    depths = range(1, ctx.n_max + 1)

    def factor_degrees(flat: Lattice, s: Subgroup) -> list[Fraction]:
        return [degrees.ssd_multi(flat, s, n) for n in depths]

    if len(factors) == 2:
        lat1, lat2 = factors
        order2 = lat2.group.order
        values2 = [factor_degrees(lat2, b) for b in lat2]
        for i1, a in enumerate(lat1.subgroups):
            values1 = factor_degrees(lat1, a)
            for i2, b in enumerate(lat2.subgroups):
                mask = 0
                for x in a.members():
                    for y in b.members():
                        mask |= 1 << (x * order2 + y)
                ab = ctx.lattice.index_of[mask]
                for n in depths:
                    lhs = ctx.ssd_multi(ab, n)
                    rhs = values1[n - 1] * values2[i2][n - 1]
                    yield _res(
                        ctx, "C12", f"A=#{i1},B=#{i2},n={n}", lhs == rhs, lhs, rhs
                    )
    else:
        # with more than two factors, check the full product per depth
        full = len(ctx.lattice) - 1
        values = [factor_degrees(flat, flat.group.full_subgroup()) for flat in factors]
        for n in depths:
            lhs = ctx.ssd_multi(full, n)
            rhs = Fraction(1)
            for per_depth in values:
                rhs *= per_depth[n - 1]
            yield _res(ctx, "C12", f"full,n={n}", lhs == rhs, lhs, rhs)


@_claim(
    "C13",
    "strict-inequality",
    "ssd_n(H,H) < (|H|^(n+1)/|L(H)|^(n+1)) * sum over K <= H of d_n(K,K)",
    "nontrivial subgroups H (a one-member lattice forces equality)",
)
def _c13(ctx: _Context):
    lat = ctx.lattice
    for h_idx, h in enumerate(lat.subgroups):
        if h.size == 1:
            continue
        dom = bit_positions(lat.down[h_idx])
        l_h = len(dom)
        for n in range(1, ctx.n_max + 1):
            e = n + 1
            cost = sum(lat[k].size ** e for k in dom)
            if cost > degrees.TUPLE_BUDGET:
                yield _not_applicable(
                    ctx, "C13",
                    f"skipped: {cost} tuple evaluations exceed the budget",
                    instance=f"H=#{h_idx},n={n}",
                )
                continue
            lhs = ctx.ssd_multi(h_idx, n, diagonal=True)
            # d_n(K, K) = good_K / |K|^e with good_K an integer, so
            # |H|^e times the sum of d_n(K, K) is the sum of good_K
            # (|H|/|K|)^e, |K| dividing |H|
            total = 0
            for k in dom:
                d, size = ctx.d_multi_diag(k, n), lat[k].size
                good = d.numerator * (size**e // d.denominator)
                total += good * (h.size // size) ** e
            rhs = Fraction(total, l_h**e)
            yield _res(
                ctx, "C13", f"H=#{h_idx},n={n}", lhs < rhs, lhs, rhs,
                strict=lhs < rhs,
                witnesses=() if lhs < rhs else (f"H={h.bitstring()}",),
            )


@_claim(
    "C14",
    "non-strict-inequality",
    "(|L(H)|^(n+1)/|L(G)|^(n+1)) * ssd_n(H,H) <= ssd_n(G,G)",
    "every subgroup H, depths up to n_max",
)
def _c14(ctx: _Context):
    full = len(ctx.lattice) - 1
    size = len(ctx.lattice)
    diag = {n: ctx.ssd_multi(full, n) for n in range(1, ctx.n_max + 1)}
    for h_idx, h in enumerate(ctx.lattice.subgroups):
        l_h = ctx.lattice.down[h_idx].bit_count()
        for n in range(1, ctx.n_max + 1):
            lhs = Fraction(l_h ** (n + 1), size ** (n + 1)) * ctx.ssd_multi(
                h_idx, n, diagonal=True
            )
            yield _res(
                ctx, "C14", f"H=#{h_idx},n={n}", lhs <= diag[n], lhs, diag[n]
            )


@_claim(
    "C15",
    "equality",
    "the dihedral group of order 2n has sigma(n) + tau(n) subgroups",
    "dihedral family instances",
)
def _c15(ctx: _Context):
    family = ctx.group.family
    if not family or family[0] != "D":
        yield _not_applicable(ctx, "C15", "not a dihedral family instance")
        return
    n = family[1]
    rhs = sigma(n) + tau(n)
    size = len(ctx.lattice)
    yield _res(ctx, "C15", f"n={n}", size == rhs, size, rhs)


@_claim(
    "C16",
    "non-strict-inequality",
    "metabelian, even order, cyclic G', |L| = sigma(|G|/2) + tau(|G|/2): "
    "(tau(|G'|)+1)^2/|L|^2 <= sum of phi(H,K) <= (|G|^2/|L|^2) * sum of d(H,K)",
    "metabelian even-order groups with cyclic G' and dihedral-sized lattice",
)
def _c16(ctx: _Context):
    g, lat = ctx.group, ctx.lattice
    size = len(lat)
    if g.order % 2 or not g.is_metabelian:
        yield _not_applicable(ctx, "C16", "needs even order and a metabelian group")
        return
    if size != sigma(g.order // 2) + tau(g.order // 2):
        yield _not_applicable(ctx, "C16", "lattice size is not sigma+tau of |G|/2")
        return
    derived = g.derived_series()[1]
    if lat.index(derived) not in lat.cyclic:
        yield _not_applicable(ctx, "C16", "derived subgroup is not cyclic")
        return
    mid = sum(r.bit_count() for r in lat.phi_rows)
    lower = Fraction((tau(derived.size) + 1) ** 2, size**2)
    upper = Fraction(g.order**2, size**2) * ctx.d_pair_sum()
    yield _res(ctx, "C16", "lower", lower <= mid, lower, mid)
    yield _res(ctx, "C16", "upper", mid <= upper, mid, upper)


@_claim("C17", "equality", "xi is constant on conjugacy classes", "every group")
def _c17(ctx: _Context):
    # xi(a) depends on a only through <a>, which C18 checks, so it is
    # computed once per cyclic member; keyed by conjugacy class it would
    # assume what this claim checks
    lat = ctx.lattice
    by_cyclic: dict[int, int] = {}
    values = []
    for a, c in enumerate(lat.cyclic):
        if c not in by_cyclic:
            by_cyclic[c] = characters.xi(lat, a)
        values.append(by_cyclic[c])
    witnesses = []
    for cls in ctx.group.conjugacy_classes():
        first = values[cls[0]]
        witnesses.extend(
            f"x={cls[0]},y={other}" for other in cls[1:] if values[other] != first
        )
    yield _res(
        ctx, "C17", "", not witnesses, len(witnesses), 0,
        witnesses=tuple(witnesses),
    )


@_claim(
    "C18",
    "equality",
    "elements generating the same cyclic subgroup share their xi value",
    "every group",
)
def _c18(ctx: _Context):
    violations = characters.equal_generator_invariance(ctx.lattice)
    yield _res(
        ctx, "C18", "", not violations, len(violations), 0,
        witnesses=tuple(f"x={x},y={y}" for x, y in violations),
    )


@_claim(
    "C19",
    "equality",
    "the conjugacy class count equals |G| * d(G)",
    "every group",
)
def _c19(ctx: _Context):
    lhs = characters.class_count(ctx.group)
    rhs = ctx.group.order * degrees.d_group(ctx.group)
    yield _res(ctx, "C19", "", lhs == rhs, lhs, rhs)


@_claim(
    "C20",
    "equality",
    "modular p-group presentations have sd = 1 and ssd < 1",
    "modular family instances",
)
def _c20(ctx: _Context):
    family = ctx.group.family
    if not family or family[0] != "M":
        yield _not_applicable(ctx, "C20", "not a modular family instance")
        return
    note = None
    if family[1] == 2 and family[2] == 3:
        note = (
            "at (p,m)=(2,3) the presentation is the order-8 dihedral group, "
            "whose subgroup lattice is not modular"
        )
    sd_value = degrees.sd_group(ctx.lattice)
    ssd_value = degrees.ssd_group(ctx.lattice)
    yield _res(ctx, "C20", "sd", sd_value == 1, sd_value, Fraction(1), note=note)
    yield _res(
        ctx, "C20", "ssd", ssd_value < 1, ssd_value, Fraction(1),
        strict=ssd_value < 1,
    )


def _run_one(claim_id: str, ctx: _Context) -> list[ClaimResult]:
    try:
        return list(_RUNNERS[claim_id](ctx))
    except (BudgetExceeded, OrderCapExceeded) as exc:
        return [_not_applicable(ctx, claim_id, f"skipped: {exc}")]


def run_claim(
    claim_id: str,
    group: Group,
    *,
    n_max: int = DEFAULT_N_MAX,
    order_cap: int | None = None,
) -> list[ClaimResult]:
    """Check one claim on one group, one result per instantiation, at
    depths 1..``n_max``, with lattices enumerated under ``order_cap``."""
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim id {claim_id!r}")
    degrees.check_n_max(n_max, "n_max")
    return _run_one(claim_id, _Context(group, n_max, order_cap))


def run_suite(
    groups: Iterable[Group],
    claim_filter: list[str] | None = None,
    *,
    n_max: int = DEFAULT_N_MAX,
    order_cap: int | None = None,
) -> SuiteReport:
    """Run every (selected) claim on every group, in registry-then-group
    order, with the settings of :func:`run_claim`.  An unknown or
    repeated id in ``claim_filter`` raises ValueError before any group
    runs.  ``groups`` is iterated once: an iterator that hands out each
    group on its turn, as the CLI's does, lets a finished group and its
    kernel table be freed before the next group runs."""
    ids = list(CLAIMS) if claim_filter is None else list(claim_filter)
    for k, cid in enumerate(ids):
        if cid not in CLAIMS:
            raise ValueError(f"unknown claim id {cid!r}")
        if cid in ids[:k]:
            raise ValueError(f"claim id {cid!r} is selected twice")
    degrees.check_n_max(n_max, "n_max")
    if not ids:  # no group's lattice is needed
        return SuiteReport(results=())
    # one context (lattice and caches) alive at a time; results are
    # collected per claim, so the report keeps registry-then-group order
    per_claim: list[list[ClaimResult]] = [[] for _ in ids]
    for g in groups:
        ctx = _Context(g, n_max, order_cap)
        for found, cid in zip(per_claim, ids):
            found.extend(_run_one(cid, ctx))
        del ctx  # before the next group's lattice is enumerated
    return SuiteReport(results=tuple(r for found in per_claim for r in found))


def builtin_groups_up_to(max_order: int, *, cap: int | None = None) -> list[Group]:
    """All built-in family instances of order <= max_order, sorted by
    (order, label)."""
    groups: list[Group] = []
    for n in range(1, max_order + 1):
        groups.append(make_cyclic(n, cap=cap))
    for n in range(1, max_order // 2 + 1):
        groups.append(make_dihedral(n, cap=cap))
    fact = 1
    for n in range(1, 6):
        fact *= n
        if fact > max_order:
            break
        groups.append(make_symmetric(n, cap=cap))
    if max_order >= 8:
        groups.append(make_quaternion(cap=cap))
    p = 2
    while p**3 <= max_order:
        if is_prime(p):
            m = 3
            while p**m <= max_order:
                groups.append(make_modular(p, m, cap=cap))
                m += 1
        p += 1
    groups.sort(key=lambda g: (g.order, g.label))
    return groups
