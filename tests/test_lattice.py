from __future__ import annotations

import pytest

import oracles
from latdeg import (
    Subgroup,
    c_set,
    centralizer_in,
    comm_set,
    commutator_subgroup,
    enumerate_subgroups,
    make_cyclic,
    make_dihedral,
    make_modular,
    make_quaternion,
    make_symmetric,
    normal_subgroups,
    permutes,
)
from latdeg.arith import sigma, tau


def _sub(g, members):
    return g.closure(members)


def test_cyclic_lattice():
    assert len(enumerate_subgroups(make_cyclic(6))) == 4


def test_s3_lattice():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    assert [s.size for s in lat.subgroups] == [1, 2, 2, 2, 3, 6]


def test_dihedral_lattice_sizes():
    for n in range(1, 21):
        lat = enumerate_subgroups(make_dihedral(n))
        assert len(lat) == sigma(n) + tau(n)


def test_canonical_order(builtin24):
    for g, lat in builtin24:
        assert lat[0].size == 1
        assert lat[len(lat) - 1].size == g.order
        keys = [(s.size, s.bitstring()) for s in lat.subgroups]
        assert keys == sorted(keys)
        assert len({s.mask for s in lat.subgroups}) == len(lat)
        assert all(g.order % s.size == 0 for s in lat.subgroups)


def test_join_completeness(builtin16):
    # closure of the union of any two members is again a member
    for g, lat in builtin16:
        masks = set(lat.index_of)
        for i, a in enumerate(lat.subgroups):
            for b in lat.subgroups[i:]:
                assert g.closure(set(a.members()) | set(b.members())).mask in masks


def test_enumeration_matches_generator_oracle(builtin24):
    for g, lat in builtin24:
        expected = {frozenset(s) for s in oracles.subgroups(g.table)}
        ours = {frozenset(s.members()) for s in lat.subgroups}
        assert ours == expected, g.label


def test_enumeration_matches_subset_filter_on_tiny_groups():
    for g in (make_cyclic(8), make_symmetric(3), make_dihedral(5)):
        expected = oracles.subgroups_by_subset_filter(g.table)
        ours = {
            frozenset(s.members())
            for s in enumerate_subgroups(g).subgroups
        }
        assert ours == expected


def test_permutes_examples():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    a3 = next(s for s in lat.subgroups if s.size == 3)
    t1, t2 = [s for s in lat.subgroups if s.size == 2][:2]
    assert permutes(s3, t1, a3)
    assert not permutes(s3, t1, t2)
    assert permutes(s3, t1, t1)


def test_permutes_iff_product_is_subgroup(builtin16):
    for g, lat in builtin16:
        masks = set(lat.index_of)
        for h in lat.subgroups:
            for k in lat.subgroups:
                hk = oracles.product_set(g.table, h.members(), k.members())
                is_sub = sum(1 << x for x in hk) in masks
                assert permutes(g, h, k) == is_sub
                # size cross-check |HK| = |H||K|/|H n K|
                inter = (h.mask & k.mask).bit_count()
                assert len(hk) * inter == h.size * k.size


def test_commutator_subgroup_examples():
    s3 = make_symmetric(3)
    assert commutator_subgroup(s3, s3.full_subgroup(), s3.full_subgroup()).size == 3
    assert commutator_subgroup(s3, s3.full_subgroup(), s3.trivial_subgroup()).size == 1
    q8 = make_quaternion()
    i_sub = _sub(q8, [1])
    j_sub = _sub(q8, [4])
    center = commutator_subgroup(q8, i_sub, j_sub)
    assert center.size == 2
    assert set(center.members()) == {0, 2}


def test_commutator_subgroup_rejects_element_sets():
    s3 = make_symmetric(3)
    five = Subgroup.from_mask(0b011111, s3.order)  # 5 does not divide 6
    with pytest.raises(ValueError):
        commutator_subgroup(s3, five, s3.full_subgroup())
    with pytest.raises(ValueError):
        commutator_subgroup(s3, s3.full_subgroup(), five)


def test_commutator_subgroup_matches_oracle(builtin16):
    for g, lat in builtin16:
        if g.order > 12:
            continue
        for h in lat.subgroups:
            for k in lat.subgroups:
                expected = oracles.commutator_subgroup(
                    g.table, h.members(), k.members()
                )
                assert set(commutator_subgroup(g, h, k).members()) == set(expected)


def test_commutator_symmetric_as_subgroup(builtin16):
    for g, lat in builtin16:
        for h in lat.subgroups:
            for k in lat.subgroups:
                assert commutator_subgroup(g, h, k) == commutator_subgroup(g, k, h)


def test_trivial_bracket_implies_permutes(builtin16):
    for g, lat in builtin16:
        for h in lat.subgroups:
            for k in lat.subgroups:
                if commutator_subgroup(g, h, k).size == 1:
                    assert permutes(g, h, k)


def test_permutes_without_trivial_bracket_in_modular_27():
    m27 = make_modular(3, 3)
    lat = enumerate_subgroups(m27)
    witnesses = [
        (h, k)
        for h in lat.subgroups
        for k in lat.subgroups
        if permutes(m27, h, k) and commutator_subgroup(m27, h, k).size > 1
    ]
    assert witnesses
    # the two presentation generators are such a pair
    x = m27.closure([1])
    y = m27.closure([9])
    assert x.size == 9 and y.size == 3
    assert permutes(m27, x, y)
    assert commutator_subgroup(m27, x, y).size > 1


def test_centralizer_examples():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    a3 = next(s for s in lat.subgroups if s.size == 3)
    assert centralizer_in(s3, s3.full_subgroup(), s3.trivial_subgroup()) == s3.full_subgroup()
    assert centralizer_in(s3, s3.full_subgroup(), a3) == a3
    q8 = make_quaternion()
    i_sub = _sub(q8, [1])
    assert centralizer_in(q8, q8.full_subgroup(), i_sub) == i_sub


def test_centralizer_is_intersection_of_element_centralizers(builtin16):
    for g, lat in builtin16:
        if g.order > 12:
            continue
        for k in lat.subgroups:
            for h in lat.subgroups:
                whole = centralizer_in(g, k, h)
                inter = k.mask
                for a in h.members():
                    inter &= centralizer_in(g, k, g.closure([a])).mask
                assert whole.mask == inter


def test_union_of_centralizers_is_full_centralizer(builtin16):
    # union over all lattice members K of C_K(H), as element sets,
    # equals C_G(H)
    for g, lat in builtin16:
        for h in lat.subgroups:
            union = 0
            for k in lat.subgroups:
                union |= centralizer_in(g, k, h).mask
            assert union == centralizer_in(g, g.full_subgroup(), h).mask


def test_comm_set_examples():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    assert len(comm_set(s3, lat, s3.trivial_subgroup())) == len(lat)
    assert [s.size for s in comm_set(s3, lat, s3.full_subgroup())] == [1]
    q8 = make_quaternion()
    latq = enumerate_subgroups(q8)
    i_sub = _sub(q8, [1])
    assert [s.size for s in comm_set(q8, latq, i_sub)] == [1, 2, 4]


def test_c_set_examples():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    assert len(c_set(s3, lat, s3.full_subgroup())) == len(lat)
    t1 = next(s for s in lat.subgroups if s.size == 2)
    assert sorted(s.size for s in c_set(s3, lat, t1)) == [1, 2, 3, 6]
    a3 = next(s for s in lat.subgroups if s.size == 3)
    assert len(c_set(s3, lat, a3)) == len(lat)  # normal subgroups permute with all


def test_comm_set_subset_of_c_set(builtin16):
    for g, lat in builtin16:
        for h in lat.subgroups:
            commuting = {s.mask for s in comm_set(g, lat, h)}
            permuting = {s.mask for s in c_set(g, lat, h)}
            assert commuting <= permuting


def test_normal_subgroups():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    assert [s.size for s in normal_subgroups(s3, lat)] == [1, 3, 6]
    c8 = make_cyclic(8)
    lat8 = enumerate_subgroups(c8)
    assert len(normal_subgroups(c8, lat8)) == len(lat8)


def test_membership_errors():
    s3 = make_symmetric(3)
    d4 = make_dihedral(4)
    lat = enumerate_subgroups(s3)
    with pytest.raises(ValueError):
        comm_set(s3, lat, d4.trivial_subgroup())
    with pytest.raises(ValueError):
        permutes(s3, s3.trivial_subgroup(), d4.full_subgroup())
