"""Property tests of the lattice core against the brute-force oracles,
and of the report writers against ``json.dumps`` and the ``csv`` module.

Groups are random direct products of built-in instances, of order at
most 48.  Examples are derandomized and few, so the suite stays fast and
repeatable.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import oracles
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latdeg import _kernels as kernels
from latdeg import (
    characters,
    claims,
    cli,
    degrees,
    direct_product,
    enumerate_subgroups,
    make_cyclic,
    make_symmetric,
    normal_subgroups,
    quotient,
)

MAX_ORDER = 48
ORACLE_TUPLES = 200_000
ORACLE_BRACKETS = 3_000
FACTORS = {g.label: g for g in claims.builtin_groups_up_to(24) if g.order > 1}
FACTORS_AND_TRIVIAL = {"C(1)": make_cyclic(1), **FACTORS}
# on abelian groups every bracket is trivial
NONABELIAN = sorted(label for label, g in FACTORS.items() if not g.is_abelian)

few = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def group_labels(
    draw, max_order: int = MAX_ORDER, firsts: list[str] | None = None
) -> tuple[str, ...]:
    first = draw(st.sampled_from(firsts or sorted(FACTORS)))
    partners = sorted(
        label
        for label, g in FACTORS.items()
        if FACTORS[first].order * g.order <= max_order
    )
    if partners and draw(st.booleans()):
        return (first, draw(st.sampled_from(partners)))
    return (first,)


@lru_cache(maxsize=None)
def group_and_lattice(labels: tuple[str, ...]):
    group = FACTORS[labels[0]]
    for label in labels[1:]:
        group = direct_product(group, FACTORS[label])
    return group, enumerate_subgroups(group)


def _set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _mask(elements) -> int:
    return sum(1 << e for e in elements)


@few
@given(labels=group_labels(), data=st.data())
def test_closure_mask_matches_oracle_on_any_mask(labels, data):
    group, _ = group_and_lattice(labels)
    tab = kernels.prepare_table(group.table)
    assert kernels.closure_mask(tab, 0) == 1
    assert kernels.closure_mask(tab, 1) == 1
    for _ in range(5):
        mask = data.draw(st.integers(0, (1 << group.order) - 1))
        expected = _mask(oracles.closure(group.table, _set(mask)))
        assert kernels.closure_mask(tab, mask) == expected


@few
@given(labels=group_labels(), data=st.data())
def test_closure_mask_from_a_member_matches_oracle(labels, data):
    group, lat = group_and_lattice(labels)
    tab = kernels.prepare_table(group.table)
    for _ in range(5):
        base = lat[data.draw(st.integers(0, len(lat) - 1))].mask
        mask = data.draw(st.integers(0, (1 << group.order) - 1))
        expected = _mask(oracles.closure(group.table, _set(mask | base)))
        assert kernels.closure_mask(tab, mask, base) == expected


@few
@given(labels=group_labels())
def test_recorded_generators_generate_their_member(labels):
    group, lat = group_and_lattice(labels)
    for sub in lat:
        gens = group.ktab.generators(sub.mask)
        # each generator at least doubles the group reached before it
        assert 2 ** len(gens) <= sub.size
        assert _mask(oracles.closure(group.table, gens)) == sub.mask


@few
@given(labels=group_labels())
def test_cyclic_positions_match_oracle(labels):
    group, lat = group_and_lattice(labels)
    for e in range(group.order):
        assert lat[lat.cyclic[e]].mask == _mask(oracles.closure(group.table, {e}))


@few
@given(labels=group_labels())
def test_lattice_and_order_relation_match_oracle(labels):
    group, lat = group_and_lattice(labels)
    assert set(lat.index_of) == {_mask(s) for s in oracles.subgroups(group.table)}
    masks = [s.mask for s in lat]
    for i, a in enumerate(masks):
        assert lat.up[i] == _mask(j for j, b in enumerate(masks) if a & ~b == 0)
        assert lat.down[i] == _mask(j for j, b in enumerate(masks) if b & ~a == 0)
    for i in range(0, len(lat), 3):
        for j in range(len(lat)):
            joined = oracles.closure(group.table, _set(masks[i] | masks[j]))
            assert masks[lat.join(i, j)] == _mask(joined)


@few
@given(labels=group_labels(max_order=32))
def test_perm_rows_match_oracle_product_sets(labels):
    group, lat = group_and_lattice(labels)
    rows = degrees.perm_rows(lat)
    sets = [_set(s.mask) for s in lat]
    for i, h in enumerate(sets):
        for j, k in enumerate(sets):
            permute = oracles.product_set(group.table, h, k) == oracles.product_set(
                group.table, k, h
            )
            assert bool(rows[i] >> j & 1) == permute


@few
@given(labels=group_labels())
def test_phi_rows_match_oracle(labels):
    group, lat = group_and_lattice(labels)
    rows = degrees.phi_rows(lat)
    sets = [_set(s.mask) for s in lat]
    for i, h in enumerate(sets):
        commuting = _mask(
            j for j, k in enumerate(sets) if oracles.d_pair(group.table, h, k) == 1
        )
        assert rows[i] == commuting


@few
@given(labels=group_labels(max_order=32))
def test_bracket_table_matches_oracle_and_is_symmetric(labels):
    group, lat = group_and_lattice(labels)
    table = lat.brackets
    sets = [_set(s.mask) for s in lat]
    for i, h in enumerate(sets):
        for j, k in enumerate(sets):
            assert table[i][j] == table[j][i]
            expected = oracles.commutator_subgroup(group.table, h, k)
            assert lat[table[i][j]].mask == _mask(expected)


# products whose centre is not trivial, so that some members lie above it
# and others do not
CENTRED = [("D(4)", "C(2)"), ("Q8", "C(3)"), ("D(12)", "C(2)")]


@few
@given(labels=st.sampled_from(CENTRED), data=st.data())
def test_bracket_block_fixes_every_bracket_through_the_centre(labels, data):
    # [H, K] = [HZ, KZ] with Z = Z(G), so the dense table is the block of
    # the members above Z read through jz, and jz[i] is L_i v Z
    group, lat = group_and_lattice(labels)
    jz, block = degrees.bracket_table(lat)
    everything = frozenset(range(group.order))
    centre = _mask(oracles.centralizer(group.table, everything, everything))
    assert centre != 1
    masks = [s.mask for s in lat]
    for i, m in enumerate(masks):
        assert masks[jz[i]] == _mask(oracles.closure(group.table, _set(m | centre)))
        assert (block[i] is not None) == (m & centre == centre)
    for i, row in enumerate(lat.brackets):
        assert row == tuple(block[jz[i]][jz[j]] for j in range(len(lat)))
    top = len(lat) - 1
    for _ in range(10):
        i, j = data.draw(st.integers(0, top)), data.draw(st.integers(0, top))
        h, k = _set(masks[i]), _set(masks[j])
        expected = oracles.commutator_subgroup(group.table, h, k)
        assert masks[lat.brackets[i][j]] == _mask(expected)


@few
@given(labels=group_labels(firsts=NONABELIAN), data=st.data())
def test_commutator_closure_matches_oracle_on_subgroup_pairs(labels, data):
    group, lat = group_and_lattice(labels)
    tab = kernels.prepare_table(group.table)
    top = len(lat) - 1
    # (G, G) as derived_series asks for it, then random member pairs
    pairs = [(top, top)] + [
        (data.draw(st.integers(0, top)), data.draw(st.integers(0, top)))
        for _ in range(10)
    ]
    for i, j in pairs:
        h, k = lat[i].mask, lat[j].mask
        expected = oracles.commutator_subgroup(group.table, _set(h), _set(k))
        assert kernels.commutator_closure_mask(tab, h, k) == _mask(expected)


@few
@given(labels=group_labels(firsts=NONABELIAN))
def test_memoized_normalizers_match_oracle(labels):
    group, lat = group_and_lattice(labels)
    lat.brackets
    memo = group.ktab._normalizers
    # a non-abelian group has a pair that does not commute
    assert memo
    for nmask, norm in memo.items():
        assert norm == _mask(oracles.normalizer(group.table, _set(nmask)))


def test_s5_memoized_normalizers_match_oracle():
    # in S(5) some <S> with two generators is an S3 whose normalizer is
    # not the set of elements mapping its first generator into it
    group = make_symmetric(5)
    lat = enumerate_subgroups(group)
    lat.brackets
    memo = group.ktab._normalizers
    assert any(len(group.ktab.generators(n)) > 1 for n in memo)
    for nmask, norm in memo.items():
        assert norm == _mask(oracles.normalizer(group.table, _set(nmask)))


def test_s4_pairs_sharing_a_seed_set_match_oracle():
    # [H, K] is the normal closure in <H, K> of the seed set S, the
    # commutators of the generators of H and K, and <S> is memoized per
    # table by S.  Find two pairs with one S: <S> is normal in <H, K> for
    # the first, and the second needs the normal closure grown from <S>.
    s4 = make_symmetric(4)
    table = s4.table
    lat = enumerate_subgroups(s4)
    tab = kernels.prepare_table(table)
    by_seeds: dict[frozenset, dict[bool, tuple[int, int]]] = {}
    for h in lat:
        for k in lat:
            seeds = frozenset(
                oracles.commutator(table, x, y)
                for x in tab.generators(h.mask)
                for y in tab.generators(k.mask)
            )
            bracket = oracles.commutator_subgroup(table, _set(h.mask), _set(k.mask))
            normal = bracket == oracles.closure(table, seeds)
            by_seeds.setdefault(seeds, {}).setdefault(normal, (h.mask, k.mask))
    pairs = next(kinds for kinds in by_seeds.values() if len(kinds) == 2)
    # on one table, so the second pair reads <S> from the first's memo
    for normal in (True, False):
        h, k = pairs[normal]
        expected = oracles.commutator_subgroup(table, _set(h), _set(k))
        assert kernels.commutator_closure_mask(tab, h, k) == _mask(expected)


@few
@given(labels=group_labels())
def test_d_group_matches_oracle(labels):
    group, _ = group_and_lattice(labels)
    assert degrees.d_group(group) == oracles.d(group.table)


@few
@given(labels=group_labels(), data=st.data())
def test_d_multi_matches_oracle_on_group_and_member(labels, data):
    group, lat = group_and_lattice(labels)
    member = lat[data.draw(st.integers(0, len(lat) - 1))]
    for n in (1, 2, 3):
        # the oracle enumerates |K|^(n+1) tuples; n = 3 only for |K| <= 21
        if group.order ** (n + 1) <= ORACLE_TUPLES:
            assert degrees.d_multi(group, n) == oracles.d_multi(group.table, n)
        if member.size ** (n + 1) <= ORACLE_TUPLES:
            assert degrees.d_multi(group, n, within=member) == oracles.d_multi(
                group.table, n, _set(member.mask)
            )


@few
@given(labels=group_labels(max_order=32))
def test_quotient_stats_match_oracle_on_built_quotients(labels):
    group, lat = group_and_lattice(labels)
    ctx = claims._Context(lat, claims.DEFAULT_N_MAX)
    for sub in normal_subgroups(lat):
        q = quotient(sub)
        expected = (len(oracles.subgroups(q.table)), oracles.ssd(q.table))
        assert ctx.quotient_stats(lat.index(sub)) == expected


@st.composite
def coprime_factor_labels(draw) -> tuple[str, ...]:
    # two or three factors of pairwise coprime orders, C(1) among them
    labels = [draw(st.sampled_from(sorted(FACTORS_AND_TRIVIAL)))]
    order = FACTORS_AND_TRIVIAL[labels[0]].order
    for _ in range(draw(st.integers(1, 2))):
        partners = sorted(
            label
            for label, g in FACTORS_AND_TRIVIAL.items()
            if gcd(order, g.order) == 1 and order * g.order <= MAX_ORDER
        )
        labels.append(draw(st.sampled_from(partners)))
        order *= FACTORS_AND_TRIVIAL[labels[-1]].order
    return tuple(labels)


@few
@given(labels=coprime_factor_labels())
@example(labels=("C(3)", "C(1)", "C(5)"))
@example(labels=("S(3)", "C(7)"))
def test_coprime_factor_lattices_are_down_sets_of_the_product_lattice(labels):
    # C9 and C12 read each factor C off the product's lattice: C is the one
    # member of order |C|, the members below it are L(C) in its canonical
    # order under x -> x * stride, and A x B is the join of A and B
    factors = [FACTORS_AND_TRIVIAL[label] for label in labels]
    group = factors[0]
    for f in factors[1:]:
        group = direct_product(group, f)
    lat = enumerate_subgroups(group)
    positions, below = [], []
    for k, f in enumerate(factors):
        stride = prod(g.order for g in factors[k + 1 :])
        [c] = [i for i, s in enumerate(lat) if s.size == f.order]
        assert lat[c].mask == _mask(x * stride for x in range(f.order))
        members = sorted(_set(lat.down[c]))
        own = [_mask(x * stride for x in _set(s.mask)) for s in enumerate_subgroups(f)]
        assert [lat[i].mask for i in members] == own
        positions.append(c)
        below.append(members)
    ctx = claims._Context(lat, claims.DEFAULT_N_MAX)
    assert ctx.coprime_factors == (positions, None)
    table = group.table
    for k, first in enumerate(below):
        for second in below[k + 1 :]:
            for a in first:
                for b in second:
                    product = _mask(
                        table[x][y] for x in lat[a].members() for y in lat[b].members()
                    )
                    assert lat[lat.join(a, b)].mask == product


@few
@given(labels=group_labels(max_order=32))
@example(labels=("D(6)",))  # C16 applies: |L| = sigma(6) + tau(6), G' cyclic
@example(labels=("S(4)",))  # nonabelian, 30 members
def test_centralizer_sums_of_claims_match_oracle(labels):
    # C2, C3, C8 and C16 count centralizers off per-element lattice rows;
    # every centralizer-side value is recomputed here pair by pair
    group, lat = group_and_lattice(labels)
    table = group.table
    sets = [_set(s.mask) for s in lat]
    assert set(sets) == oracles.subgroups(table)
    size = len(sets)
    # cent[k][h] = |C_K(H)| for the members K = L_k and H = L_h
    cent = [[len(oracles.centralizer(table, k, h)) for h in sets] for k in sets]
    d_sum = sum(oracles.d_pair(table, h, k) for h in sets for k in sets)
    d_scaled = Fraction(group.order**2, size**2) * d_sum
    records = {
        (r.claim_id, r.instance): r
        for cid in ("C2", "C3", "C8", "C16")
        for r in claims.run_claim(cid, group)
    }
    if group.order > 1:
        assert records["C2", ""].rhs == d_scaled
    for k in range(size):
        assert records["C3", f"K=#{k}"].rhs == Fraction(sum(cent[k]), size**2)
    weighted = sum(
        oracles.d_pair(table, h, k) * len(h) * len(k) for h in sets for k in sets
    )
    assert (records["C3", "sum"].lhs, records["C3", "sum"].rhs) == (
        weighted,
        sum(map(sum, cent)),
    )
    for h, top in enumerate(sets):
        below = [m for m, sub in enumerate(sets) if sub <= top]
        for m in below:
            expected = Fraction(sum(cent[m][l] for l in below), size**2)
            assert records["C8", f"H=#{h},M=#{m}"].lhs == expected
    derived = oracles.commutator_subgroup(table, set(table[0]), set(table[0]))
    cyclic = any(oracles.closure(table, {e}) == derived for e in derived)
    if ("C16", "upper") in records:
        assert cyclic
        commuting = sum(
            1 for h in range(size) for k in range(size) if cent[h][k] == len(sets[h])
        )
        assert records["C16", "lower"].rhs == commuting
        assert records["C16", "upper"].lhs == commuting
        assert records["C16", "upper"].rhs == d_scaled
    elif records["C16", ""].note == "derived subgroup is not cyclic":
        assert not cyclic


@few
@given(
    labels=group_labels(max_order=32),
    h_at=st.integers(0, 1 << 16),
    k_at=st.integers(0, 1 << 16),
)
# in D(4) x C(2), whose centre has order 4, H = L_27 is a D(4) not above
# the centre, whose ten members have five joins with it, of weights 2, 3,
# 3, 1 and 1; the codomain L_12 is a Klein four-group that is not normal
@example(labels=("D(4)", "C(2)"), h_at=27, k_at=12)
def test_ssd_multi_matches_oracle_with_and_without_codomain(labels, h_at, k_at):
    group, lat = group_and_lattice(labels)
    h, k = lat[h_at % len(lat)], lat[k_at % len(lat)]
    below_h, below_k = (lat.down[lat.index(s)].bit_count() for s in (h, k))
    for n in (1, 2, 3):
        # the oracle forms |L(H)|^n (n - 1 + |L(K)|) commutator subgroups
        if below_h**n * (n - 1 + len(lat)) <= ORACLE_BRACKETS:
            assert degrees.ssd_multi(lat, h, n) == oracles.ssd_multi(
                group.table, _set(h.mask), n
            )
        if below_h**n * (n - 1 + below_k) <= ORACLE_BRACKETS:
            assert degrees.ssd_multi(lat, h, n, codomain=k) == oracles.ssd_multi(
                group.table, _set(h.mask), n, _set(k.mask)
            )


@few
@given(labels=group_labels(max_order=32), data=st.data())
def test_xi_matches_oracle(labels, data):
    group, lat = group_and_lattice(labels)
    for _ in range(3):
        element = data.draw(st.integers(0, group.order - 1))
        assert characters.xi(lat, element) == oracles.xi(group.table, element)


# report strings with what JSON must escape: quotes, backslashes, control
# characters, and non-ASCII text inside and outside the BMP; and what CSV
# must quote: commas, quotes and line feeds
TRICKY = '"\\/\n\r\t,;\x00\x1f\x7f \u00e9\u20ac\u2028\U0001f600a'
texts = st.text(st.sampled_from(TRICKY), max_size=6) | st.text(max_size=6)
rationals = st.integers(-(10**15), 10**15) | st.fractions()
flags = st.none() | st.booleans()
claim_results = st.builds(
    claims.ClaimResult,
    claim_id=texts,
    group_label=texts,
    instance=texts,
    applicable=st.booleans(),
    holds=flags,
    lhs=st.none() | rationals,
    rhs=st.none() | rationals,
    strict_observed=flags,
    witnesses=st.lists(texts, max_size=3).map(tuple),
    note=st.none() | texts,
)


def _old_rational_obj(value) -> dict:
    f = Fraction(value)
    return {
        "num": str(f.numerator),
        "den": str(f.denominator),
        "approx": cli._approx12(f),
    }


def _old_result_obj(r: claims.ClaimResult) -> dict:
    # the record shape the reports were written from before the writer
    return {
        "claim": r.claim_id,
        "group": r.group_label,
        "instance": r.instance,
        "applicable": r.applicable,
        "holds": r.holds,
        "strict": r.strict_observed,
        "lhs": None if r.lhs is None else _old_rational_obj(r.lhs),
        "rhs": None if r.rhs is None else _old_rational_obj(r.rhs),
        "witnesses": list(r.witnesses),
        "note": r.note,
    }


@few
@given(results=st.lists(claim_results, max_size=4))
@example(results=[])
@example(
    results=[claims.ClaimResult("C1", "S(3)", "", False, None, None, None)]
)
def test_verify_writer_matches_json_dumps(results):
    text = "".join(cli._verify_json(results))
    expected = json.dumps([_old_result_obj(r) for r in results], indent=2)
    assert text == expected + "\n"


def _old_csv(header: list[str], rows: list[list]) -> str:
    # the CSV the reports were written with before the writer, the same on
    # every Python version: each row is written with "\r\n" line ends, so
    # that a field with a CR or an LF is quoted, and ended with "\n"
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


@few
@given(results=st.lists(claim_results, max_size=4))
@example(results=[])
@example(results=[claims.ClaimResult("C1", "S(3)", "", False, None, None, None)])
@example(
    results=[
        claims.ClaimResult(
            'C"1', "M(2,3)", "a\nb", True, False, Fraction(-1, 3), 2,
            witnesses=("x,y", 'q"'), note="\r,",
        )
    ]
)
@example(
    results=[claims.ClaimResult("C1", "S(3)", "a\rb", True, True, None, None)]
)
def test_verify_csv_writer_matches_csv_module(results):
    text = "".join(cli._verify_csv(results))
    flag = {None: "", True: "true", False: "false"}
    expected = _old_csv(
        [
            "claim", "group", "instance", "applicable", "holds", "strict",
            "lhs_num", "lhs_den", "lhs_approx",
            "rhs_num", "rhs_den", "rhs_approx",
            "witnesses", "note",
        ],
        [
            [
                claim, group, instance, flag[applicable], flag[holds], flag[strict],
                *(cli._rational(lhs) or ("", "", "")),
                *(cli._rational(rhs) or ("", "", "")),
                ";".join(witnesses), note or "",
            ]
            for claim, group, instance, applicable, holds, lhs, rhs, strict,
            witnesses, note in results
        ],
    )
    assert text == expected


@st.composite
def degrees_entries(draw):
    n_max = draw(st.integers(0, 3))
    values = st.integers(0, 10**6) | st.fractions(min_value=0)
    sizes = st.integers(1, 10**4)
    entry = st.tuples(
        texts, sizes, sizes, sizes, values, values, values,
        st.lists(values, min_size=n_max, max_size=n_max),
    )
    return draw(st.lists(entry, max_size=3))


@few
@given(entries=degrees_entries())
@example(entries=[])
@example(entries=[("S(3)", 6, 6, 3, Fraction(1, 2), Fraction(5, 6), 1, [])])
@example(entries=[("S(3)", 6, 6, 3, 1, 1, 1, [Fraction(5, 12), 1])])
def test_degrees_writer_matches_json_dumps(entries):
    old = [
        {
            "group": label,
            "order": order,
            "lattice_size": size,
            "class_count": classes,
            "d": _old_rational_obj(d),
            "sd": _old_rational_obj(sd),
            "ssd": _old_rational_obj(ssd),
            "ssd_n": [_old_rational_obj(v) for v in ssd_n],
        }
        for label, order, size, classes, d, sd, ssd, ssd_n in entries
    ]
    assert "".join(cli._degrees_json(entries)) == json.dumps(old, indent=2) + "\n"


@few
@given(entries=degrees_entries())
@example(entries=[])
@example(entries=[("D(4) x C(2)", 16, 35, 10, 1, 1, 1, [Fraction(-1, 3)])])
@example(entries=[('M(2,3)"\n', 8, 6, 5, 1, 1, 1, [])])
@example(entries=[("C(2)\r", 2, 2, 2, 1, 1, 1, [])])
def test_degrees_csv_writer_matches_csv_module(entries):
    flat = [
        (label, order, size, classes, *map(cli._rational, (d, sd, ssd)),
         [cli._rational(v) for v in ssd_n])
        for label, order, size, classes, d, sd, ssd, ssd_n in entries
    ]
    n_max = len(flat[0][7]) if flat else 2
    header = ["group", "order", "lattice_size", "class_count"]
    for name in ("d", "sd", "ssd"):
        header += [f"{name}_num", f"{name}_den", f"{name}_approx"]
    for n in range(1, n_max + 1):
        header += [f"ssd{n}_num", f"ssd{n}_den", f"ssd{n}_approx"]
    expected = _old_csv(
        header,
        [
            [label, order, size, classes, *d, *sd, *ssd, *(x for r in ssd_n for x in r)]
            for label, order, size, classes, d, sd, ssd, ssd_n in flat
        ],
    )
    assert "".join(cli._degrees_csv(entries, n_max)) == expected


# exact ties at the twelfth place, m / (2 * 10**12) with m odd
ties = st.integers(-(10**15), 10**15).map(lambda m: Fraction(2 * m + 1, 2 * 10**12))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    value=st.integers(-(10**15), 10**15)
    | st.fractions(-(10**15), 10**15, max_denominator=10**15)
    | ties
)
@example(value=Fraction(-1, 3))
@example(value=Fraction(-1, 2))
@example(value=Fraction(-5, 2 * 10**12))
@example(value=Fraction(-1, 2 * 10**12))  # a tie that rounds to -0
@example(value=Fraction(-1, 10**13))
def test_approx12_matches_decimal_half_even(value):
    # at 60 digits the quotient of values this size is never rounded onto
    # a tie it is not
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(value.numerator) / Decimal(value.denominator)
        expected = exact.quantize(Decimal(1).scaleb(-12), rounding=ROUND_HALF_EVEN)
    assert cli._approx12(value) == f"{expected:f}"


# text over the spec grammar's alphabet: family letters, digits in short
# and long runs (int() converts at most 4,300), parentheses, commas, x and
# spaces; as well-formed specs, as token soup, and as a spec with a tail
spec_digits = (
    st.integers(0, 20).map(str)
    | st.integers(0, 10**40).map(str)
    | st.sampled_from([4299, 4300, 4301, 5000]).map("9".__mul__)
)
spec_atoms = (
    st.sampled_from(["Q8", "q8"])
    | st.builds("{}({})".format, st.sampled_from("CDScds"), spec_digits)
    | st.builds("{}({},{})".format, st.sampled_from("Mm"), spec_digits, spec_digits)
)
spec_tokens = st.sampled_from(
    ["C", "D", "S", "M", "Q", "Q8", "c", "(", ",", ")", "x", "X", " "]
) | spec_digits
well_formed = st.lists(spec_atoms, min_size=1, max_size=3).map(" x ".join)
soup = st.lists(spec_tokens, max_size=10).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=well_formed | soup | st.builds("{}{}".format, well_formed, soup))
@example(text="M(2,100000)")
@example(text="M(3,10000000)")
@example(text="C(" + "9" * 5000 + ")")
@example(text="D(" + "9" * 4300 + ")")
@example(text="M(618970019642690137449562111,3)")  # a prime, 2^89 - 1
def test_any_spec_text_exits_cleanly(text):
    # a spec the grammar refuses, or with a parameter outside its family,
    # exits 2 and one above the cap 3, with one error line saying which
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["degrees", "-g", text, "--order-cap", "16"])
    error = err.getvalue()
    if code == 0:
        assert error == "" and json.loads(out.getvalue())
        return
    assert out.getvalue() == ""
    assert error.startswith("error: ") and error.count("\n") == 1, error
    if code == 2:
        assert "(at position " in error or " must be " in error, error
    else:
        assert code == 3 and error.endswith(", above the cap 16\n"), error
