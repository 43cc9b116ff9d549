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
from functools import cached_property
from math import gcd, prod
from typing import NamedTuple

from latdeg import characters, degrees
from latdeg.arith import is_prime, sigma, tau
from latdeg.degrees import DEFAULT_N_MAX
from latdeg.groups import (
    Group,
    Subgroup,
    bit_positions,
    builtin_families_up_to,
    make_family,
)
from latdeg.lattice import Lattice, enumerate_subgroups


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

    def __init__(self, lattice: Lattice, n_max: int):
        self.group = lattice.group
        self.n_max = n_max
        self.lattice = lattice
        self._quotients: dict[int, tuple[int, Fraction]] = {}
        self._ssd_multi: dict[tuple[int, int, bool], Fraction] = {}
        self._d_multi: dict[tuple[int, int], Fraction] = {}
        self._sub_degrees: dict[int, Fraction] = {}

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
        the up-set of N, and [H/N, K/N] = 1 iff [H, K] <= N.  [H, K] is
        read off the bracket block at HZ, with Z = Z(G)."""
        if n_idx not in self._quotients:
            lat = self.lattice
            jz, block = degrees.bracket_table(lat)
            above = bit_positions(lat.up[n_idx])
            inside = lat.down[n_idx]
            count = sum(inside >> block[jz[i]][j] & 1 for i in above for j in above)
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

    @cached_property
    def coprime_factors(self) -> tuple[list[int] | None, str | None]:
        """(factor positions, None) when the group is a direct product of
        pairwise coprime factors, else (None, reason).  Every subgroup of
        such a product is a product of subgroups of the factors, so factor
        C is the one member of order |C|; C's element x is x * stride in
        the product, so the members below C are L(C) in canonical order."""
        factors = self.group.factors
        if not factors or len(factors) < 2:
            return None, "group was not built as a direct product"
        for i, a in enumerate(factors):
            for b in factors[i + 1 :]:
                if gcd(a.order, b.order) != 1:
                    reason = f"factor orders |{a.label}|, |{b.label}| share a divisor"
                    return None, reason
        sizes = [s.size for s in self.lattice]
        return [sizes.index(f.order) for f in factors], None


CLAIMS: dict[str, Claim] = {}
_RUNNERS: dict[str, object] = {}


def _claim(id: str, kind: str, description: str, applicability: str):
    def wrap(fn):
        CLAIMS[id] = Claim(id, kind, description, applicability)
        _RUNNERS[id] = fn
        return fn

    return wrap


def _res(
    instance: str,
    holds: bool,
    lhs,
    rhs,
    *,
    strict: bool | None = None,
    witness: tuple[str, Subgroup] | None = None,
    witnesses: tuple[str, ...] = (),
    note: str | None = None,
) -> tuple:
    """The fields of an applicable result after its claim id and group;
    ``witness``, a (name, subgroup) pair, is reported only if the instance
    fails."""
    if witness is not None and not holds:
        name, sub = witness
        witnesses = (f"{name}={sub.bitstring()}",)
    return instance, True, holds, lhs, rhs, strict, witnesses, note


def _not_applicable(note: str) -> tuple:
    return "", False, None, None, None, None, (), note


@_claim("C1", "iff", "ssd(G) = 1 exactly when G is abelian", "every group")
def _c1(ctx: _Context):
    value = degrees.ssd_group(ctx.lattice)
    abelian = ctx.group.is_abelian
    holds = (value == 1) == abelian
    yield _res("", holds, value, Fraction(1), note=f"abelian={abelian}")


@_claim(
    "C2",
    "strict-inequality",
    "ssd(G) < (|G|^2/|L|^2) * sum over pairs of d(H,K)",
    "nontrivial groups (a one-element lattice forces equality)",
)
def _c2(ctx: _Context):
    if ctx.group.order == 1:
        yield _not_applicable("trivial group: both sides equal 1")
        return
    n = ctx.group.order
    rhs = Fraction(n * n, len(ctx.lattice) ** 2) * ctx.d_pair_sum()
    lhs = degrees.ssd_group(ctx.lattice)
    yield _res("", lhs < rhs, lhs, rhs, strict=lhs < rhs)


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
            f"K=#{k_idx}", sd_value >= bound, sd_value, bound, witness=("K", k)
        )
    lhs = ctx.commuting_sum(holding)
    rhs = sum(h * c for h, c in zip(holding, centralizing))
    yield _res("sum", lhs >= rhs, lhs, rhs)


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
            f"N=#{n_idx}", value >= rhs, value, rhs,
            witness=("N", ctx.lattice[n_idx]),
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
            f"N=#{n_idx}", value >= rhs, value, rhs, witness=("N", sub),
            note=f"single-power denominator variant "
            f"{'holds' if value >= unsquared else 'fails'}",
        )
    if not produced:
        yield _not_applicable("no normal subgroup with abelian N and abelian quotient")


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
        yield _res(f"N=#{n_idx}", value >= rhs, value, rhs, witness=("N", sub))
    if not produced:
        yield _not_applicable("no normal subgroup of prime index")


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
        yield _not_applicable("applies to nonabelian solvable groups")
        return
    lat = ctx.lattice
    value = degrees.ssd_group(lat)
    derived = g.derived_series()[1]
    d_idx = lat.index(derived)
    l_d = lat.down[d_idx].bit_count()
    ssd_d = ctx.ssd_multi(d_idx, 1, diagonal=True)
    rhs = (ssd_d * l_d**2 + 2 * l_d + 1) / len(lat) ** 2
    yield _res(f"G'=#{d_idx}", value >= rhs, value, rhs)
    if g.is_metabelian:
        rhs2 = Fraction(l_d**2 + 2 * l_d + 1, len(lat) ** 2)
        yield _res("metabelian", value >= rhs2, value, rhs2)


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
        yield _res(f"H=#{h_idx}", lhs <= ssd_g, lhs, ssd_g)
        sd_h = ctx.sd_below(h_idx)
        yield _res(
            f"H=#{h_idx}|sd-chain", sd_h <= sd_g, sd_h, sd_g, witness=("H", h)
        )
        # sum over L <= H of |C_M(L)| counts each x in M once per member
        # L <= H inside C_G(x)
        inside = {x: (rows[lat.cyclic[x]] & below).bit_count() for x in h.members()}
        for m_idx in dom:
            bound = Fraction(sum(inside[x] for x in lat[m_idx].members()), size**2)
            yield _res(f"H=#{h_idx},M=#{m_idx}", bound <= sd_h, bound, sd_h)


@_claim(
    "C9",
    "equality",
    "for pairwise coprime factors: ssd of the product equals the product "
    "of the factor ssd values",
    "direct products with pairwise coprime factor orders",
)
def _c9(ctx: _Context):
    factors, reason = ctx.coprime_factors
    if factors is None:
        yield _not_applicable(reason)
        return
    lhs = degrees.ssd_group(ctx.lattice)
    rhs = prod(ctx.ssd_multi(c, 1, diagonal=True) for c in factors)
    yield _res(f"factors={len(factors)}", lhs == rhs, lhs, rhs)


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
                f"H=#{h_idx},n={n}->{n + 1}", lhs >= rhs, lhs, rhs,
                strict=lhs > rhs, witness=("H", h),
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
    for h_idx, h in enumerate(ctx.lattice.subgroups):
        for n in range(1, ctx.n_max + 1):
            lhs, rhs = ctx.ssd_multi(h_idx, n), ctx.ssd_multi(full, n)
            yield _res(f"H=#{h_idx},n={n}", lhs <= rhs, lhs, rhs, witness=("H", h))
    for n in range(1, ctx.n_max + 1):
        diag = ctx.ssd_multi(full, n)
        yield _res(f"diag,n={n}", diag <= ssd_g, diag, ssd_g)
    yield _res("ssd<=sd", ssd_g <= sd_g, ssd_g, sd_g)


@_claim(
    "C12",
    "equality",
    "for coprime C, D and subgroups A <= C, B <= D: "
    "ssd_n(AxB, CxD) = ssd_n(A,C) * ssd_n(B,D)",
    "direct products with pairwise coprime factor orders",
)
def _c12(ctx: _Context):
    factors, reason = ctx.coprime_factors
    if factors is None:
        yield _not_applicable(reason)
        return
    lat = ctx.lattice
    depths = range(1, ctx.n_max + 1)

    def factor_degrees(a: int, c: int) -> list[Fraction]:
        return [degrees.ssd_multi(lat, lat[a], n, codomain=lat[c]) for n in depths]

    if len(factors) == 2:
        # a member's position below factor C is its position in L(C), and
        # A x B is the join of A and B
        below = [bit_positions(lat.down[c]) for c in factors]
        values = [[factor_degrees(a, c) for a in m] for c, m in zip(factors, below)]
        for i1, a in enumerate(below[0]):
            for i2, b in enumerate(below[1]):
                ab = lat.join(a, b)
                for n in depths:
                    lhs = ctx.ssd_multi(ab, n)
                    rhs = values[0][i1][n - 1] * values[1][i2][n - 1]
                    yield _res(f"A=#{i1},B=#{i2},n={n}", lhs == rhs, lhs, rhs)
    else:
        # with more than two factors, check the full product per depth
        full = len(lat) - 1
        for n in depths:
            lhs = ctx.ssd_multi(full, n)
            rhs = prod(ctx.ssd_multi(c, n, diagonal=True) for c in factors)
            yield _res(f"full,n={n}", lhs == rhs, lhs, rhs)


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
                f"H=#{h_idx},n={n}", lhs < rhs, lhs, rhs,
                strict=lhs < rhs, witness=("H", h),
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
    for h_idx, h in enumerate(ctx.lattice.subgroups):
        l_h = ctx.lattice.down[h_idx].bit_count()
        for n in range(1, ctx.n_max + 1):
            lhs = Fraction(l_h ** (n + 1), size ** (n + 1)) * ctx.ssd_multi(
                h_idx, n, diagonal=True
            )
            rhs = ctx.ssd_multi(full, n)
            yield _res(f"H=#{h_idx},n={n}", lhs <= rhs, lhs, rhs)


@_claim(
    "C15",
    "equality",
    "the dihedral group of order 2n has sigma(n) + tau(n) subgroups",
    "dihedral family instances",
)
def _c15(ctx: _Context):
    family = ctx.group.family
    if not family or family[0] != "D":
        yield _not_applicable("not a dihedral family instance")
        return
    n = family[1]
    rhs = sigma(n) + tau(n)
    size = len(ctx.lattice)
    yield _res(f"n={n}", size == rhs, size, rhs)


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
        yield _not_applicable("needs even order and a metabelian group")
        return
    if size != sigma(g.order // 2) + tau(g.order // 2):
        yield _not_applicable("lattice size is not sigma+tau of |G|/2")
        return
    derived = g.derived_series()[1]
    if lat.index(derived) not in lat.cyclic:
        yield _not_applicable("derived subgroup is not cyclic")
        return
    mid = sum(r.bit_count() for r in lat.phi_rows)
    lower = Fraction((tau(derived.size) + 1) ** 2, size**2)
    upper = Fraction(g.order**2, size**2) * ctx.d_pair_sum()
    yield _res("lower", lower <= mid, lower, mid)
    yield _res("upper", mid <= upper, mid, upper)


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
    yield _res("", not witnesses, len(witnesses), 0, witnesses=tuple(witnesses))


@_claim(
    "C18",
    "equality",
    "elements generating the same cyclic subgroup share their xi value",
    "every group",
)
def _c18(ctx: _Context):
    violations = characters.equal_generator_invariance(ctx.lattice)
    yield _res(
        "", not violations, len(violations), 0,
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
    yield _res("", lhs == rhs, lhs, rhs)


@_claim(
    "C20",
    "equality",
    "modular p-group presentations have sd = 1 and ssd < 1",
    "modular family instances",
)
def _c20(ctx: _Context):
    family = ctx.group.family
    if not family or family[0] != "M":
        yield _not_applicable("not a modular family instance")
        return
    note = None
    if family[1] == 2 and family[2] == 3:
        note = (
            "at (p,m)=(2,3) the presentation is the order-8 dihedral group, "
            "whose subgroup lattice is not modular"
        )
    sd_value = degrees.sd_group(ctx.lattice)
    ssd_value = degrees.ssd_group(ctx.lattice)
    yield _res("sd", sd_value == 1, sd_value, Fraction(1), note=note)
    yield _res("ssd", ssd_value < 1, ssd_value, Fraction(1), strict=ssd_value < 1)


def _run_one(claim_id: str, ctx: _Context) -> list[ClaimResult]:
    """The results of one claim on the context's group: its runner yields
    the fields of each (see :func:`_res`), and the id and label go first."""
    label = ctx.group.label
    return [ClaimResult(claim_id, label, *fields) for fields in _RUNNERS[claim_id](ctx)]


def run_claim(
    claim_id: str,
    group: Group,
    *,
    n_max: int = DEFAULT_N_MAX,
    order_cap: int | None = None,
) -> list[ClaimResult]:
    """Check one claim on one group, one result per instantiation, at
    depths 1..``n_max``, with lattices enumerated under ``order_cap``."""
    report = run_suite([group], [claim_id], n_max=n_max, order_cap=order_cap)
    return list(report.results)


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
    n_max = degrees.check_n_max(n_max, "n_max")
    if not ids:  # no group's lattice is needed
        return SuiteReport(results=())
    # one context (lattice and caches) alive at a time; results are
    # collected per claim, so the report keeps registry-then-group order
    per_claim: list[list[ClaimResult]] = [[] for _ in ids]
    for g in groups:
        ctx = _Context(enumerate_subgroups(g, cap=order_cap), n_max)
        for found, cid in zip(per_claim, ids):
            found.extend(_run_one(cid, ctx))
        del ctx  # before the next group's lattice is enumerated
    return SuiteReport(results=tuple(r for found in per_claim for r in found))


def builtin_groups_up_to(max_order: int, *, cap: int | None = None) -> list[Group]:
    """All built-in family instances of order <= max_order, sorted by
    (order, label)."""
    return [make_family(f, cap=cap) for f in builtin_families_up_to(max_order, cap=cap)]
