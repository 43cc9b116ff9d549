from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
from latdeg import _kernels as kernels
from latdeg import (
    BudgetExceeded,
    bracket_table,
    d_group,
    d_multi,
    d_pair,
    direct_product,
    enumerate_subgroups,
    make_cyclic,
    make_dihedral,
    make_modular,
    make_quaternion,
    make_symmetric,
    sd_group,
    ssd_group,
    ssd_multi,
)
from latdeg.degrees import check_n_max
from latdeg.groups import bit_positions


def test_d_group_values():
    assert d_group(make_cyclic(12)) == 1
    assert d_group(make_symmetric(3)) == Fraction(1, 2)
    assert d_group(make_dihedral(4)) == Fraction(5, 8)


def test_d_group_matches_oracle(builtin16):
    for g, _ in builtin16:
        assert d_group(g) == oracles.d(g.table)


def test_d_pair():
    s3 = make_symmetric(3)
    full = s3.full_subgroup()
    assert d_pair(full, full) == d_group(s3)
    lat = enumerate_subgroups(s3)
    a3 = next(s for s in lat.subgroups if s.size == 3)
    t = next(s for s in lat.subgroups if s.size == 2)
    assert d_pair(t, a3) == Fraction(2, 3)
    c2, c3 = [s for s in enumerate_subgroups(make_cyclic(6)).subgroups if s.size in (2, 3)]
    assert d_pair(c2, c3) == 1


def test_d_pair_matches_oracle():
    for g in (make_symmetric(3), make_quaternion(), make_dihedral(4)):
        lat = enumerate_subgroups(g)
        for h in lat.subgroups:
            for k in lat.subgroups:
                assert d_pair(h, k) == oracles.d_pair(
                    g.table, h.members(), k.members()
                )


def test_d_multi():
    s3 = make_symmetric(3)
    assert d_multi(s3, 1) == d_group(s3)
    assert d_multi(make_cyclic(9), 3) == 1
    # frozen from the exhaustive triple loop
    assert d_multi(s3, 2) == Fraction(3, 4)
    assert d_multi(s3, 2) == oracles.d_multi(s3.table, 2)


def test_d_multi_within_subgroup():
    s4 = make_symmetric(4)
    a4 = s4.derived_series()[1]
    assert d_multi(s4, 2, within=a4) == oracles.d_multi(
        s4.table, 2, elements=a4.members()
    )


def test_d_multi_of_a_product_with_many_tuples():
    # 66^4 = 18,974,736 tuples, but the fold makes at most n |K|^2 lookups;
    # C(11) is central, so d_n is that of S(3)
    s3 = make_symmetric(3)
    value = d_multi(direct_product(s3, make_cyclic(11)), 3)
    assert value == oracles.d_multi(s3.table, 3) == Fraction(7, 8)


def test_sd_values():
    assert sd_group(enumerate_subgroups(make_cyclic(8))) == 1
    s3 = make_symmetric(3)
    assert sd_group(enumerate_subgroups(s3)) == Fraction(5, 6)
    m27 = make_modular(3, 3)
    assert sd_group(enumerate_subgroups(m27)) == 1
    q8 = make_quaternion()
    assert sd_group(enumerate_subgroups(q8)) == 1


def test_ssd_values():
    assert ssd_group(enumerate_subgroups(make_cyclic(8))) == 1
    s3 = make_symmetric(3)
    assert ssd_group(enumerate_subgroups(s3)) == Fraction(5, 12)
    q8 = make_quaternion()
    assert ssd_group(enumerate_subgroups(q8)) == Fraction(23, 36)
    m27 = make_modular(3, 3)
    assert ssd_group(enumerate_subgroups(m27)) < 1


def test_sd_ssd_match_oracle():
    for g in (make_symmetric(3), make_quaternion(), make_dihedral(4), make_cyclic(12)):
        lat = enumerate_subgroups(g)
        assert sd_group(lat) == oracles.sd(g.table)
        assert ssd_group(lat) == oracles.ssd(g.table)


def test_ssd_at_most_sd(builtin24):
    for g, lat in builtin24:
        assert ssd_group(lat) <= sd_group(lat)


def test_phi():
    # phi(X, Y) = 1 iff [X, Y] = 1: bit j of lat.phi_rows[i] for X = L_i,
    # Y = L_j
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    t1, t2 = [i for i, s in enumerate(lat) if s.size == 2][:2]
    assert lat.phi_rows[0] >> t1 & 1
    assert not lat.phi_rows[t1] >> t2 & 1
    d8 = make_dihedral(4)
    latd = enumerate_subgroups(d8)
    rows = latd.phi_rows
    for i, x in enumerate(latd):
        for j, y in enumerate(latd):
            assert rows[i] >> j & 1 == rows[j] >> i & 1
            bracket = oracles.commutator_subgroup(d8.table, x.members(), y.members())
            assert rows[i] >> j & 1 == (bracket == {0})


def test_bracket_table_properties(builtin16):
    for g, lat in builtin16:
        table = bracket_table(lat)
        assert len(table) == len(lat)
        for j in range(len(lat)):
            assert table[0][j] == 0
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert table[i][j] == table[j][i]
                # [L_i, L_j] lies inside the join of L_i and L_j
                join = kernels.closure_mask(g.ktab, lat[i].mask | lat[j].mask)
                assert lat[table[i][j]].mask & ~join == 0


def test_bracket_entries_match_commutator_subgroup(builtin16):
    # every entry of the table against the commutator subgroup formed
    # element by element
    for g, lat in builtin16:
        if g.order > 12:
            continue
        table = bracket_table(lat)
        for i, h in enumerate(lat):
            for j, k in enumerate(lat):
                expected = oracles.commutator_subgroup(
                    g.table, h.members(), k.members()
                )
                assert set(lat[table[i][j]].members()) == expected


def test_s4_bracket_table_matches_oracle():
    # S(4) is the built-in of order <= 48 on which the commutators of
    # generators alone generate too little: [H, K] needs their normal
    # closure in <H, K>
    s4 = make_symmetric(4)
    lat = enumerate_subgroups(s4)
    table = bracket_table(lat)
    sets = [set(s.members()) for s in lat]
    for i, h in enumerate(sets):
        for j, k in enumerate(sets):
            expected = oracles.commutator_subgroup(s4.table, h, k)
            assert set(lat[table[i][j]].members()) == expected


def test_ssd_multi_base_cases():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    assert ssd_multi(lat, s3.full_subgroup(), 1) == ssd_group(lat)
    c8 = make_cyclic(8)
    lat8 = enumerate_subgroups(c8)
    for sub in lat8.subgroups:
        for n in (1, 2, 3):
            assert ssd_multi(lat8, sub, n) == 1


def test_ssd_multi_s3_depth_2():
    # frozen from the exhaustive enumeration over all lattice triples
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    value = ssd_multi(lat, s3.full_subgroup(), 2)
    assert value == Fraction(11, 18)
    assert value == oracles.ssd_multi(s3.table, frozenset(range(6)), 2)


def test_ssd_multi_dp_matches_enumeration(builtin16):
    for g, lat in builtin16:
        if len(lat) > 10:
            continue
        for h in lat.subgroups:
            h_set = frozenset(h.members())
            for n in (1, 2, 3):
                assert ssd_multi(lat, h, n) == oracles.ssd_multi(
                    g.table, h_set, n
                ), (g.label, h.members(), n)


def test_ssd_multi_codomain():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    a3 = s3.derived_series()[1]
    value = ssd_multi(lat, a3, 2, codomain=a3)
    assert value == oracles.ssd_multi(
        s3.table, frozenset(a3.members()), 2, codomain=frozenset(a3.members())
    )


def test_ssd_multi_n_cap():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    with pytest.raises(BudgetExceeded):
        ssd_multi(lat, s3.full_subgroup(), 5)


def test_d_multi_shares_the_depth_cap():
    # refused before |G|^(n+1) is formed (10^5 would not print) or the fold
    # runs n times
    for group, n in ((make_cyclic(2), 10**5), (make_cyclic(1), 10**6)):
        with pytest.raises(BudgetExceeded) as e:
            d_multi(group, n)
        assert str(e.value) == f"n must be at most 4, got {n}"
    assert d_multi(make_cyclic(2), 4) == 1


@pytest.mark.parametrize("n", [2.0, True, "2"])
def test_a_depth_that_is_not_an_integer_is_refused(n):
    # True would run at depth 1, 2.0 would reach range() with a float
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    for call, name in (
        (lambda: ssd_multi(lat, s3.full_subgroup(), n), "n"),
        (lambda: d_multi(s3, n), "n"),
        (lambda: check_n_max(n, "--n-max"), "--n-max"),
    ):
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == f"{name} must be an integer, got {n!r}"


def test_ssd_multi_rejects_non_member():
    from latdeg import Subgroup

    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    # S(3) has no element of order above 3
    rot = next(a for a in range(1, 6) if s3.table[a][a] != 0)
    not_closed = Subgroup(1 | 1 << rot, s3)
    with pytest.raises(ValueError):
        ssd_multi(lat, not_closed, 1)


def test_degrees_are_reduced_probabilities(builtin24):
    from math import gcd

    for g, lat in builtin24:
        for value in (
            d_group(g),
            sd_group(lat),
            ssd_group(lat),
            ssd_multi(lat, g.full_subgroup(), 2),
        ):
            assert 0 < value <= 1
            assert gcd(value.numerator, value.denominator) == 1


@pytest.mark.parametrize(
    "group",
    [
        make_symmetric(4),
        make_dihedral(6),
        direct_product(make_dihedral(4), make_cyclic(2)),
    ],
    ids=["S(4)", "D(6)", "D(4) x C(2)"],
)
def test_degrees_are_equal_on_conjugate_members(group):
    # conjugation by g is a lattice automorphism fixing G, so every degree
    # of H that reads only the lattice below H or below G is that of H^g;
    # the claim caches key these values by conjugacy class on that ground
    lat = enumerate_subgroups(group)
    index_of = {frozenset(s.members()): i for i, s in enumerate(lat)}
    depths = (1, 2, 3)

    def density(rows, below):
        count = sum((rows[j] & below).bit_count() for j in bit_positions(below))
        return Fraction(count, below.bit_count() ** 2)

    def values(i):
        h, below = lat[i], lat.down[i]
        return (
            [ssd_multi(lat, h, n) for n in depths],
            [ssd_multi(lat, h, n, codomain=h) for n in depths],
            [d_multi(group, n, within=h) for n in depths],
            density(lat.phi_rows, below),
            density(lat.perm_rows, below),
        )

    per_member = [values(i) for i in range(len(lat))]
    moved = 0
    for i, s in enumerate(lat):
        for conjugate in oracles.conjugates(group.table, s.members()):
            j = index_of[conjugate]
            moved += j != i
            assert per_member[j] == per_member[i], (i, j)
    assert moved > 0
