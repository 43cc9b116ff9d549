"""Property tests of the lattice core against the brute-force oracles.

Groups are random direct products of built-in instances, of order at
most 48.  Examples are derandomized and few, so the suite stays fast and
repeatable.
"""

from __future__ import annotations

from functools import lru_cache

import oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from latdeg import _kernels as kernels
from latdeg import claims, degrees, direct_product, enumerate_subgroups

MAX_ORDER = 48
ORACLE_TUPLES = 200_000
FACTORS = {g.label: g for g in claims.builtin_groups_up_to(24) if g.order > 1}

few = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def group_labels(draw, max_order: int = MAX_ORDER) -> tuple[str, ...]:
    first = draw(st.sampled_from(sorted(FACTORS)))
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
    rows = degrees.perm_rows(group, lat)
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
    rows = degrees.phi_rows(group, lat)
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
    table = degrees.bracket_table(group, lat)
    sets = [_set(s.mask) for s in lat]
    for i, h in enumerate(sets):
        for j, k in enumerate(sets):
            assert table.entry(i, j) == table.entry(j, i)
            expected = oracles.commutator_subgroup(group.table, h, k)
            assert lat[table.entry(i, j)].mask == _mask(expected)


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
