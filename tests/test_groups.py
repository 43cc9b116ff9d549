from __future__ import annotations

import pytest

import oracles
from latdeg import (
    OrderCapExceeded,
    Subgroup,
    class_count,
    d_group,
    direct_product,
    enumerate_subgroups,
    make_cyclic,
    make_dihedral,
    make_modular,
    make_quaternion,
    make_symmetric,
    normal_subgroups,
    quotient,
    sd_group,
    ssd_group,
)
from latdeg.arith import tau


def test_cyclic_basics():
    assert make_cyclic(1).order == 1
    c6 = make_cyclic(6)
    assert c6.is_abelian
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_cyclic_lattice_counts_divisors():
    c12 = make_cyclic(12)
    assert len(enumerate_subgroups(c12)) == tau(12) == 6


def test_dihedral_families():
    d3 = make_dihedral(3)
    assert d3.order == 6 and not d3.is_abelian
    assert len(d3.conjugacy_classes()) == 3
    assert make_dihedral(1).order == 2
    assert make_dihedral(2).is_abelian
    assert len(enumerate_subgroups(make_dihedral(4))) == 10
    with pytest.raises(ValueError):
        make_dihedral(0)


def test_modular_group():
    m27 = make_modular(3, 3)
    assert m27.order == 27 and not m27.is_abelian
    lat = enumerate_subgroups(m27)
    assert sd_group(lat) == 1
    with pytest.raises(ValueError):
        make_modular(4, 3)
    with pytest.raises(ValueError):
        make_modular(3, 2)
    with pytest.raises(OrderCapExceeded):
        make_modular(7, 3, cap=300)


def test_modular_2_3_matches_dihedral_4():
    m = make_modular(2, 3)
    d = make_dihedral(4)
    lm, ld = enumerate_subgroups(m), enumerate_subgroups(d)
    assert (d_group(m), sd_group(lm), ssd_group(lm)) == (
        d_group(d), sd_group(ld), ssd_group(ld)
    )
    assert len(lm) == len(ld)
    assert class_count(m) == class_count(d)


def test_quaternion():
    q8 = make_quaternion()
    assert q8.order == 8 and not q8.is_abelian
    lat = enumerate_subgroups(q8)
    assert len(normal_subgroups(lat)) == len(lat) == 6
    assert class_count(q8) == 5


def test_symmetric():
    assert make_symmetric(1).order == 1
    s3 = make_symmetric(3)
    assert s3.order == 6 and not s3.is_abelian
    series = make_symmetric(4).derived_series()
    assert [s.size for s in series] == [24, 12, 4, 1]
    with pytest.raises(ValueError):
        make_symmetric(6)


def test_direct_product():
    c2, c3 = make_cyclic(2), make_cyclic(3)
    p = direct_product(c2, c3)
    assert p.order == 6 and p.is_abelian
    lat = enumerate_subgroups(p)
    c6 = make_cyclic(6)
    lat6 = enumerate_subgroups(c6)
    assert (d_group(p), sd_group(lat), ssd_group(lat)) == (
        d_group(c6), sd_group(lat6), ssd_group(lat6)
    )
    s3c2 = direct_product(make_symmetric(3), c2)
    assert s3c2.order == 12
    with pytest.raises(OrderCapExceeded):
        direct_product(make_cyclic(20), make_cyclic(20), cap=100)


def test_quotient():
    s3 = make_symmetric(3)
    a3 = s3.derived_series()[1]
    q = quotient(a3)
    assert q.order == 2 and q.is_abelian
    q.validate()
    assert quotient(s3.full_subgroup()).order == 1
    reflection = next(a for a in range(6) if s3.order_of(a) == 2)
    with pytest.raises(ValueError):
        quotient(s3.closure([reflection]))


def test_commutator_examples():
    s3 = make_symmetric(3)
    for x in range(6):
        assert s3.commutator(x, x) == 0
        assert s3.commutator(x, 0) == 0 and s3.commutator(0, x) == 0
    # a transposition and a 3-cycle have commutator equal to the
    # 3-cycle squared
    x = next(a for a in range(6) if s3.order_of(a) == 2)
    y = next(a for a in range(6) if s3.order_of(a) == 3)
    assert s3.commutator(x, y) == s3.mul(y, y) != 0


def test_commutator_iff_table_symmetric():
    d8 = make_dihedral(4)
    for x in range(8):
        for y in range(8):
            assert (d8.commutator(x, y) == 0) == (d8.mul(x, y) == d8.mul(y, x))


def test_conjugacy_classes():
    c5 = make_cyclic(5)
    assert len(c5.conjugacy_classes()) == 5
    s3 = make_symmetric(3)
    assert sorted(len(c) for c in s3.conjugacy_classes()) == [1, 2, 3]
    assert len(make_dihedral(4).conjugacy_classes()) == 5


def test_closure():
    d8 = make_dihedral(4)
    assert d8.closure([]).size == 1
    rot = next(a for a in range(8) if d8.order_of(a) == 4)
    assert d8.closure([rot]).size == 4
    s3 = make_symmetric(3)
    comms = {s3.commutator(x, y) for x in range(6) for y in range(6)}
    derived = s3.closure(comms)
    assert derived.size == 3
    assert derived == s3.derived_series()[1]


def test_derived_series():
    c6 = make_cyclic(6)
    assert [s.size for s in c6.derived_series()] == [6, 1]
    s3 = make_symmetric(3)
    assert [s.size for s in s3.derived_series()] == [6, 3, 1]
    assert s3.is_metabelian
    s4 = make_symmetric(4)
    assert s4.is_solvable and not s4.is_metabelian


def test_all_builtins_satisfy_table_axioms(builtin24):
    for g, _ in builtin24:
        g.validate()


def test_element_orders_divide_group_order(builtin24):
    for g, _ in builtin24:
        if g.order > 16:
            continue
        for a in range(g.order):
            assert g.order % g.closure([a]).size == 0
            assert g.order_of(a) == g.closure([a]).size


def test_class_sizes_divide_order(builtin24):
    for g, _ in builtin24:
        classes = g.conjugacy_classes()
        assert sum(len(c) for c in classes) == g.order
        assert all(g.order % len(c) == 0 for c in classes)
        assert classes[0] == (0,)


def test_closure_idempotent(builtin16):
    for g, lat in builtin16:
        for sub in lat.subgroups:
            assert g.closure(sub.members()).mask == sub.mask


def test_closure_matches_oracle():
    for g in (make_symmetric(3), make_dihedral(4), make_quaternion()):
        for a in range(g.order):
            for b in range(g.order):
                expected = oracles.closure(g.table, {a, b})
                assert set(g.closure([a, b]).members()) == set(expected)


def test_conjugacy_matches_oracle():
    for g in (make_symmetric(4), make_modular(3, 3)):
        ours = {frozenset(c) for c in g.conjugacy_classes()}
        assert ours == set(oracles.conjugacy_classes(g.table))


def test_subgroups_are_equal_by_mask_and_group_and_immutable():
    # C(6) and D(3) have the same order, so one mask names a subset of
    # each; only the group tells the two subgroups apart
    c6, d3 = make_cyclic(6), make_dihedral(3)
    h = c6.closure([3])
    assert (h.mask, h.group, h.size) == (0b1001, c6, 2)
    assert h == Subgroup(0b1001, c6) and hash(h) == hash(Subgroup(0b1001, c6))
    assert h != Subgroup(0b1001, d3) and h != c6.full_subgroup()
    assert h != 0b1001
    assert len({h, Subgroup(0b1001, c6), Subgroup(0b1001, d3)}) == 2
    for name, value in (("mask", 1), ("group", d3), ("size", 1), ("label", "")):
        with pytest.raises(AttributeError):
            setattr(h, name, value)
    with pytest.raises(AttributeError):
        del h.mask
    assert (h.mask, h.group, h.size) == (0b1001, c6, 2)
    with pytest.raises(ValueError, match="identity"):
        Subgroup(0b1000, c6)
    with pytest.raises(ValueError, match="outside its group"):
        Subgroup(1 | 1 << 6, c6)
