from __future__ import annotations

import inspect
import re
from collections import Counter

import pytest

import latdeg
import oracles
from latdeg import _kernels as kernels
from latdeg import (
    Group,
    Lattice,
    OrderCapExceeded,
    Subgroup,
    characters,
    claims,
    cli,
    d_multi,
    d_pair,
    degrees,
    enumerate_subgroups,
    groups,
    lattice,
    make_cyclic,
    make_dihedral,
    make_modular,
    make_quaternion,
    make_symmetric,
    normal_subgroups,
    quotient,
    ssd_multi,
    xi,
)
from latdeg.arith import sigma, tau
from latdeg.groups import bit_positions, direct_product

PUBLIC_API = [
    "BACKEND",
    "BudgetExceeded",
    "Claim",
    "ClaimResult",
    "Group",
    "Lattice",
    "OrderCapExceeded",
    "Subgroup",
    "SuiteReport",
    "bracket_table",
    "builtin_groups_up_to",
    "class_count",
    "d_group",
    "d_multi",
    "d_pair",
    "direct_product",
    "enumerate_subgroups",
    "equal_generator_invariance",
    "make_cyclic",
    "make_dihedral",
    "make_modular",
    "make_quaternion",
    "make_symmetric",
    "normal_subgroups",
    "order_cap",
    "quotient",
    "run_claim",
    "run_suite",
    "sd_group",
    "ssd_group",
    "ssd_multi",
    "xi",
]


def _sub(g, members):
    """<members>, by the kernel the lattice enumeration runs."""
    return Subgroup(kernels.closure_mask(g.ktab, sum(1 << e for e in set(members))), g)


def _centralizer(k, h):
    """C_K(H), the elements of K commuting with every element of H."""
    return Subgroup(kernels.centralizer_mask(k.group.ktab, k.mask, h.mask), k.group)


def _sizes(lat, row):
    return [lat[j].size for j in bit_positions(row)]


def test_public_api_names():
    # a name leaves the public surface only by changing this list
    assert sorted(latdeg.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(latdeg, name)


# the public members of the core classes, with the special methods each
# defines itself
CLASS_MEMBERS = {
    Group: [
        "__init__", "__repr__", "conjugacy_classes", "derived_series",
        "full_subgroup", "is_abelian", "is_metabelian", "is_solvable", "ktab",
        "validate",
    ],
    Subgroup: [
        "__delattr__", "__eq__", "__hash__", "__init__", "__repr__",
        "__setattr__", "bitstring", "group", "is_trivial", "mask", "members",
        "size",
    ],
    Lattice: [
        "__getitem__", "__init__", "__iter__", "__len__", "brackets",
        "class_of", "cyclic", "down", "index", "join", "normal", "perm_rows",
        "phi_rows", "up",
    ],
}


def test_public_members_of_the_core_classes():
    # a member joins these classes only by changing this list, so a helper
    # that only the tests call does not come back unnoticed
    for cls, names in CLASS_MEMBERS.items():
        own = [n for n, v in vars(cls).items() if n.startswith("__") and callable(v)]
        public = [n for n in dir(cls) if not n.startswith("_")]
        assert sorted(own + public) == names, cls.__name__


@pytest.mark.parametrize(
    "members, message",
    [
        ([], "lattice must contain the trivial and full subgroups"),
        ([1], "lattice must contain the trivial and full subgroups"),
        ([0b111111], "lattice must contain the trivial and full subgroups"),
        ([1, 1, 0b111111], "duplicate subgroups in lattice"),
    ],
    ids=["empty", "no-full", "no-trivial", "duplicate"],
)
def test_lattice_constructor_refuses_an_incomplete_member_list(members, message):
    s3 = make_symmetric(3)
    with pytest.raises(ValueError) as e:
        Lattice(s3, [Subgroup(mask, s3) for mask in members])
    assert str(e.value) == message


def test_no_function_takes_both_a_group_and_a_lattice():
    # a lattice names its group (lat.group) and a subgroup its own
    # (sub.group), so a function given a group beside either could be
    # handed one of another group.  d_multi(g, n, within=K) is the one
    # exception: it keeps the group argument, which perfbench's tuple
    # counter reads as args[0], and refuses a K of another group
    both = []
    for module in (groups, lattice, degrees, characters, claims, cli):
        for name, fn in vars(module).items():
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            kinds = {
                word
                for p in inspect.signature(fn).parameters.values()
                for word in re.findall(
                    r"\b(Group|Lattice|Subgroup)\b", str(p.annotation)
                )
            }
            if "Group" in kinds and len(kinds) > 1:
                both.append(f"{module.__name__}.{name}")
    assert both == ["latdeg.degrees.d_multi"]


def test_cyclic_lattice():
    assert len(enumerate_subgroups(make_cyclic(6))) == 4


def test_s3_lattice():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    assert [s.size for s in lat.subgroups] == [1, 2, 2, 2, 3, 6]


def test_enumeration_above_the_cap_is_refused():
    with pytest.raises(OrderCapExceeded) as e:
        enumerate_subgroups(make_cyclic(12), cap=10)
    assert str(e.value) == "C(12) has order 12, above the cap 10"
    with pytest.raises(ValueError, match="--order-cap"):
        enumerate_subgroups(make_cyclic(12), cap=0)


LATTICE_DERIVED = (
    "_order_relation", "up", "down", "cyclic", "class_of", "normal",
    "perm_rows", "phi_rows", "brackets",
)
COUNTED_KERNELS = (
    "prepare_table", "count_commuting_pairs", "conjugacy_class_ids",
    "commutator_closure_mask", "centralizer_mask", "conjugate_mask",
)


def test_derived_data_is_computed_once_and_only_on_use(monkeypatch):
    calls = Counter()
    for name in COUNTED_KERNELS:
        def counted(*args, _name=name, _kernel=getattr(kernels, name)):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(kernels, name, counted)

    def twice(read):
        # the kernel calls of the first read; the second makes none and
        # gives an equal value
        before = calls.copy()
        value = read()
        made = calls - before
        after = calls.copy()
        assert read() == value and calls == after
        return made

    g = make_symmetric(3)
    assert set(vars(g)) == {"order", "table", "label", "family", "factors"}
    assert twice(lambda: g.ktab) == {"prepare_table": 1}
    assert twice(lambda: g.is_abelian) == {"count_commuting_pairs": 1}
    assert twice(g.conjugacy_classes) == {"conjugacy_class_ids": 1}
    assert twice(g.derived_series) == {"commutator_closure_mask": 2}  # S3 > A3 > 1
    lat = enumerate_subgroups(g)
    assert set(vars(lat)).isdisjoint(LATTICE_DERIVED)
    assert twice(lambda: lat.brackets) == {"commutator_closure_mask": 36}
    assert twice(lambda: lat.phi_rows) == {"centralizer_mask": 6}
    assert twice(lambda: lat.class_of) == {"conjugate_mask": 12}  # 6 members, 2 gens
    for name in ("up", "down", "cyclic", "normal", "perm_rows"):
        assert twice(lambda: getattr(lat, name)) == {}
    # up, down and cyclic come from one pass over (member, element)
    relation = vars(lat)["_order_relation"]
    assert all(a is b for a, b in zip(relation, (lat.up, lat.down, lat.cyclic)))
    assert set(LATTICE_DERIVED) <= set(vars(lat))
    assert calls["prepare_table"] == 1  # enumeration reused the group's table


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
                assert kernels.closure_mask(g.ktab, a.mask | b.mask) in masks


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
    # bit j of lat.perm_rows[i] is set iff L_i L_j = L_j L_i
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    a3 = next(i for i, s in enumerate(lat) if s.size == 3)
    t1, t2 = [i for i, s in enumerate(lat) if s.size == 2][:2]
    assert lat.perm_rows[t1] >> a3 & 1
    assert not lat.perm_rows[t1] >> t2 & 1
    assert lat.perm_rows[t1] >> t1 & 1


def test_permutes_iff_product_is_subgroup(builtin16):
    # the permuting rows against the product sets formed element by
    # element: HK = KH exactly when HK is a subgroup
    for g, lat in builtin16:
        masks = set(lat.index_of)
        for i, h in enumerate(lat):
            for j, k in enumerate(lat):
                hk = oracles.product_set(g.table, h.members(), k.members())
                kh = oracles.product_set(g.table, k.members(), h.members())
                is_sub = sum(1 << x for x in hk) in masks
                assert (hk == kh) == is_sub
                assert lat.perm_rows[i] >> j & 1 == is_sub
                # size cross-check |HK| = |H||K|/|H n K|
                inter = (h.mask & k.mask).bit_count()
                assert len(hk) * inter == h.size * k.size


def test_commutator_subgroup_examples():
    # [L_i, L_j] is the member at lat.brackets[i][j]
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    full = len(lat) - 1
    assert lat[lat.brackets[full][full]].size == 3
    assert lat[lat.brackets[full][0]].size == 1
    q8 = make_quaternion()
    latq = enumerate_subgroups(q8)
    i, j = latq.index(_sub(q8, [1])), latq.index(_sub(q8, [4]))
    center = latq[latq.brackets[i][j]]
    assert center.size == 2
    assert set(center.members()) == {0, 2}


def test_commutator_subgroup_matches_oracle(builtin16):
    # the commuting rows hold the pairs whose commutator subgroup, formed
    # element by element, is trivial
    for g, lat in builtin16:
        for i, h in enumerate(lat):
            for j, k in enumerate(lat):
                expected = oracles.commutator_subgroup(
                    g.table, h.members(), k.members()
                )
                assert lat.phi_rows[i] >> j & 1 == (expected == {0})


def test_permutes_without_trivial_bracket_in_modular_27():
    m27 = make_modular(3, 3)
    lat = enumerate_subgroups(m27)
    witnesses = [
        (i, j)
        for i in range(len(lat))
        for j in range(len(lat))
        if lat.perm_rows[i] >> j & 1 and lat.brackets[i][j] != 0
    ]
    assert witnesses
    # the two presentation generators are such a pair
    x, y = lat.index(_sub(m27, [1])), lat.index(_sub(m27, [9]))
    assert lat[x].size == 9 and lat[y].size == 3
    assert (x, y) in witnesses
    xs, ys = lat[x].members(), lat[y].members()
    assert oracles.product_set(m27.table, xs, ys) == oracles.product_set(
        m27.table, ys, xs
    )
    assert oracles.commutator_subgroup(m27.table, xs, ys) != {0}


def test_centralizer_examples():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    a3 = next(s for s in lat.subgroups if s.size == 3)
    full = s3.full_subgroup()
    assert _centralizer(full, Subgroup(1, s3)) == full
    assert _centralizer(full, a3) == a3
    q8 = make_quaternion()
    i_sub = _sub(q8, [1])
    assert _centralizer(q8.full_subgroup(), i_sub) == i_sub
    for k, h in ((full, a3), (q8.full_subgroup(), i_sub)):
        expected = oracles.centralizer(k.group.table, k.members(), h.members())
        assert set(_centralizer(k, h).members()) == expected


def test_centralizer_is_intersection_of_element_centralizers(builtin16):
    for g, lat in builtin16:
        if g.order > 12:
            continue
        for k in lat.subgroups:
            for h in lat.subgroups:
                whole = _centralizer(k, h)
                assert set(whole.members()) == oracles.centralizer(
                    g.table, k.members(), h.members()
                )
                inter = k.mask
                for a in h.members():
                    inter &= _centralizer(k, _sub(g, [a])).mask
                assert whole.mask == inter


def test_union_of_centralizers_is_full_centralizer(builtin16):
    # union over all lattice members K of C_K(H), as element sets,
    # equals C_G(H)
    for g, lat in builtin16:
        for h in lat.subgroups:
            union = 0
            for k in lat.subgroups:
                union |= _centralizer(k, h).mask
            assert union == _centralizer(g.full_subgroup(), h).mask


def test_comm_set_examples():
    # Comm(H), the members K with [H, K] = 1, is the row lat.phi_rows[H]
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    assert lat.phi_rows[0] == (1 << len(lat)) - 1
    assert _sizes(lat, lat.phi_rows[len(lat) - 1]) == [1]
    q8 = make_quaternion()
    latq = enumerate_subgroups(q8)
    i_sub = _sub(q8, [1])
    assert _sizes(latq, latq.phi_rows[latq.index(i_sub)]) == [1, 2, 4]
    for g, sub in ((s3, lat), (q8, latq)):
        for i, h in enumerate(sub):
            commuting = {
                j
                for j, k in enumerate(sub)
                if oracles.commutator_subgroup(g.table, h.members(), k.members())
                == {0}
            }
            assert set(bit_positions(sub.phi_rows[i])) == commuting


def test_c_set_examples():
    # C(H), the members K with HK = KH, is the row lat.perm_rows[H]
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    everyone = (1 << len(lat)) - 1
    assert lat.perm_rows[len(lat) - 1] == everyone
    t1 = next(i for i, s in enumerate(lat) if s.size == 2)
    assert _sizes(lat, lat.perm_rows[t1]) == [1, 2, 3, 6]
    a3 = next(i for i, s in enumerate(lat) if s.size == 3)
    assert lat.perm_rows[a3] == everyone  # normal subgroups permute with all
    for i, h in enumerate(lat):
        permuting = {
            j
            for j, k in enumerate(lat)
            if oracles.product_set(s3.table, h.members(), k.members())
            == oracles.product_set(s3.table, k.members(), h.members())
        }
        assert set(bit_positions(lat.perm_rows[i])) == permuting


def test_comm_set_subset_of_c_set(builtin16):
    # members with a trivial bracket permute: each phi row lies in its
    # perm row
    for g, lat in builtin16:
        for commuting, permuting in zip(lat.phi_rows, lat.perm_rows):
            assert commuting & ~permuting == 0


def test_normal_subgroups(builtin16):
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    assert [s.size for s in normal_subgroups(lat)] == [1, 3, 6]
    assert lat.normal == (0, 4, 5)
    c8 = make_cyclic(8)
    lat8 = enumerate_subgroups(c8)
    assert len(normal_subgroups(lat8)) == len(lat8)
    # H is normal iff every conjugate a h a^-1 of its elements lies in H
    for g, lat in builtin16:
        table = g.table
        normal = tuple(
            i
            for i, s in enumerate(lat)
            if all(
                s.mask >> table[table[a][h]][oracles.inverse(table, a)] & 1
                for a in range(g.order)
                for h in s.members()
            )
        )
        assert lat.normal == normal
        assert normal_subgroups(lat) == [lat[i] for i in normal]


def test_class_of_matches_brute_force_conjugation(builtin24):
    # class_of[i] is the lowest member conjugate to L_i, found here by
    # conjugating every member by every element; the normal members are
    # those alone in their class, and an abelian group has no other
    products = [
        direct_product(
            direct_product(make_dihedral(4), make_cyclic(2)), make_cyclic(2)
        ),
        direct_product(make_quaternion(), make_cyclic(3)),
    ]
    lats = [lat for _, lat in builtin24] + [enumerate_subgroups(g) for g in products]
    for lat in lats:
        index_of = {frozenset(s.members()): i for i, s in enumerate(lat)}
        classes = [
            {index_of[c] for c in oracles.conjugates(lat.group.table, s.members())}
            for s in lat
        ]
        assert lat.class_of == tuple(min(c) for c in classes)
        assert lat.normal == tuple(i for i, c in enumerate(classes) if len(c) == 1)
        if lat.group.is_abelian:
            assert lat.class_of == tuple(range(len(lat)))


def test_subgroups_of_another_group_are_refused():
    # C(6) and D(3) have the same order, and <3> in C(6) has the mask of
    # a member of L(D(3)), so only the subgroup's group tells them apart
    d3, c6 = make_dihedral(3), make_cyclic(6)
    c = _sub(c6, [3])
    lat = enumerate_subgroups(d3)
    own = lat[lat.index_of[c.mask]]
    calls = {
        "ssd_multi": lambda: ssd_multi(lat, c, 1),
        "ssd_multi codomain": lambda: ssd_multi(lat, own, 1, codomain=c),
        "d_pair": lambda: d_pair(own, c),
        "d_multi": lambda: d_multi(d3, 1, within=c6.full_subgroup()),
        "Lattice.index": lambda: lat.index(c),
        "Lattice": lambda: Lattice(d3, list(enumerate_subgroups(c6))),
    }
    answered = []
    for name, call in calls.items():
        try:
            call()
        except ValueError as exc:
            assert "group" in str(exc), name
        else:
            answered.append(name)
    assert answered == []
    # quotient takes the subgroup alone, so it answers for C(6)
    assert quotient(c6.full_subgroup()).label == "C(6)/N6"
    assert d_pair(c, c) == 1 and ssd_multi(enumerate_subgroups(c6), c, 1) == 1


def test_membership_errors():
    s3 = make_symmetric(3)
    d4 = make_dihedral(4)
    lat = enumerate_subgroups(s3)
    with pytest.raises(ValueError):
        ssd_multi(lat, Subgroup(1, d4), 1)
    with pytest.raises(ValueError):
        ssd_multi(lat, s3.full_subgroup(), 1, codomain=d4.full_subgroup())
    # element indices are checked against the lattice's own group
    for element in (-1, s3.order, 7):
        with pytest.raises(ValueError):
            xi(lat, element)
    with pytest.raises(ValueError):
        xi(enumerate_subgroups(make_cyclic(4)), 6)
