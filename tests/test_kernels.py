"""Kernel edge cases and named commutator-kernel cases on small tables."""

from __future__ import annotations

import itertools

import oracles
from latdeg import _kernels as kernels
from latdeg.groups import make_symmetric


def _mask(elements) -> int:
    return sum(1 << e for e in elements)


def _s4_subgroup(tab, *perms) -> int:
    # make_symmetric lists the permutation tuples in itertools order
    index = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
    return kernels.closure_mask(tab, _mask(index[p] for p in perms))


def _seed_closure(tab, hmask: int, kmask: int) -> frozenset:
    # <S>, S the commutators of the generators recorded for H and K
    return oracles.closure(
        tab.rows,
        {
            oracles.commutator(tab.rows, x, y)
            for x in tab.generators(hmask)
            for y in tab.generators(kmask)
        },
    )


def _members(mask: int) -> set[int]:
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def test_closure_from_empty_mask_is_trivial():
    s3 = make_symmetric(3)
    t = kernels.prepare_table(s3.table)
    assert kernels.closure_mask(t, 0) == 1
    assert kernels.closure_mask(t, 1) == 1


def test_bracket_of_d8_with_itself_is_its_seed_closure():
    # [D8, D8] = Z(D8) in S(4): D8 normalizes <S> = Z(D8), which is not
    # normal in S(4), so the answer is <S> without growing it
    table = make_symmetric(4).table
    tab = kernels.prepare_table(table)
    d8 = _s4_subgroup(tab, (1, 0, 2, 3), (2, 3, 0, 1))
    assert d8.bit_count() == 8
    expected = oracles.commutator_subgroup(table, _members(d8), _members(d8))
    seeds = _seed_closure(tab, d8, d8)
    assert seeds == expected and len(expected) == 2
    assert _members(d8) <= oracles.normalizer(table, seeds)
    assert oracles.normalizer(table, seeds) != set(range(24))
    closures = len(tab._closures)
    assert kernels.commutator_closure_mask(tab, d8, d8) == _mask(expected)
    # <S> was the one closure asked for
    assert len(tab._closures) == closures + 1


def test_bracket_of_a_transposition_and_a_3_cycle_grows_its_seed_closure():
    # <(1 2), (2 3 4)> = S(4), and the normal closure of the one seed
    # commutator, a 3-cycle, in S(4) is A4
    table = make_symmetric(4).table
    tab = kernels.prepare_table(table)
    h = _s4_subgroup(tab, (1, 0, 2, 3))
    k = _s4_subgroup(tab, (0, 2, 3, 1))
    expected = oracles.commutator_subgroup(table, _members(h), _members(k))
    assert len(expected) == 12
    assert len(_seed_closure(tab, h, k)) == 3
    assert kernels.commutator_closure_mask(tab, h, k) == _mask(expected)
    assert kernels.commutator_closure_mask(tab, k, h) == _mask(expected)


def test_bracket_row_gives_one_answer_before_and_after_it_is_filled():
    table = make_symmetric(4).table
    tab = kernels.prepare_table(table)
    d8 = _s4_subgroup(tab, (1, 0, 2, 3), (2, 3, 0, 1))
    k = _s4_subgroup(tab, (0, 2, 3, 1))
    expected = oracles.commutator_subgroup(table, _members(d8), _members(k))
    assert d8 not in tab._seed_columns
    assert kernels.commutator_closure_mask(tab, d8, k) == _mask(expected)
    # the row now holds its seed columns; fill the memos from every other
    # pair of the row, then ask again
    assert tab._seed_columns[d8]
    for a in range(24):
        kernels.commutator_closure_mask(tab, d8, kernels.closure_mask(tab, 1 << a))
    assert kernels.commutator_closure_mask(tab, d8, k) == _mask(expected)
