from __future__ import annotations

import pytest

import oracles
from latdeg import _kernels as kernels
from latdeg import (
    BudgetExceeded,
    Group,
    OrderCapExceeded,
    Subgroup,
    builtin_groups_up_to,
    class_count,
    d_group,
    d_multi,
    direct_product,
    enumerate_subgroups,
    make_cyclic,
    make_dihedral,
    make_modular,
    make_quaternion,
    make_symmetric,
    normal_subgroups,
    order_cap,
    quotient,
    sd_group,
    ssd_cyclic,
    ssd_group,
    ssd_multi,
    xi,
)
from latdeg.arith import tau
from latdeg.degrees import check_n_max
from latdeg.groups import (
    builtin_families_up_to,
    check_cap,
    check_family,
    make_family,
)


def _closure(g, elements) -> Subgroup:
    """<elements>, by the kernel the lattice enumeration runs."""
    return Subgroup(kernels.closure_mask(g.ktab, sum(1 << e for e in set(elements))), g)


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


@pytest.mark.parametrize(
    ("make", "args", "name"),
    [
        (make_cyclic, (2.5,), "cyclic order"),
        (make_cyclic, (True,), "cyclic order"),
        (make_dihedral, ("3",), "dihedral parameter"),
        (make_dihedral, (False,), "dihedral parameter"),
        (make_symmetric, (True,), "symmetric group parameter"),
        (make_symmetric, (3.0,), "symmetric group parameter"),
        (make_modular, (3.0, 3), "modular group parameter p"),
        (make_modular, (3, True), "modular group parameter m"),
    ],
)
def test_family_parameters_must_be_integers(make, args, name):
    # bools are ints to operator.index, but S(True) is no group label
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        make(*args)


class _Index:
    """An integer-like parameter: not an int, but ``__index__`` gives one."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    ("make", "args"),
    [
        (make_cyclic, (4,)),
        (make_dihedral, (3,)),
        (make_symmetric, (3,)),
        (make_modular, (3, 3)),
    ],
)
def test_family_constructors_build_from_the_converted_parameters(make, args):
    # label, family and table are those of the group built from the ints
    g, plain = make(*map(_Index, args)), make(*args)
    assert (g.label, g.family, g.table) == (plain.label, plain.family, plain.table)
    assert all(type(p) is int for p in g.family[1:])


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
    reflection = next(a for a in range(1, 6) if s3.table[a][a] == 0)
    with pytest.raises(ValueError):
        quotient(_closure(s3, [reflection]))


def test_commutator_examples():
    s3 = make_symmetric(3)
    comm = s3.ktab.commutators()
    for x in range(6):
        assert comm[x][x] == 0
        assert comm[x][0] == 0 and comm[0][x] == 0
    # a transposition and a 3-cycle have commutator equal to the
    # 3-cycle squared; S(3) has no element of order above 3
    x = next(a for a in range(1, 6) if s3.table[a][a] == 0)
    y = next(a for a in range(1, 6) if s3.table[a][a] != 0)
    assert comm[x][y] == s3.table[y][y] != 0


def test_commutator_iff_table_symmetric():
    d8 = make_dihedral(4)
    comm, t = d8.ktab.commutators(), d8.table
    for x in range(8):
        for y in range(8):
            assert comm[x][y] == oracles.commutator(t, x, y)
            assert (comm[x][y] == 0) == (t[x][y] == t[y][x])


def test_conjugacy_classes():
    c5 = make_cyclic(5)
    assert len(c5.conjugacy_classes()) == 5
    s3 = make_symmetric(3)
    assert sorted(len(c) for c in s3.conjugacy_classes()) == [1, 2, 3]
    assert len(make_dihedral(4).conjugacy_classes()) == 5


def test_closure():
    d8 = make_dihedral(4)
    assert _closure(d8, []).size == 1
    # element 1 is the rotation y, of order 4
    assert _closure(d8, [1]).size == 4
    s3 = make_symmetric(3)
    derived = _closure(s3, set().union(*s3.ktab.commutators()))
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
    for g, lat in builtin24:
        if g.order > 16:
            continue
        for a in range(g.order):
            size = lat[lat.cyclic[a]].size
            assert g.order % size == 0
            # the order of a: the first k with a^k the identity
            k, x = 1, a
            while x != 0:
                k, x = k + 1, g.table[x][a]
            assert k == size == _closure(g, [a]).size


def test_class_sizes_divide_order(builtin24):
    for g, _ in builtin24:
        classes = g.conjugacy_classes()
        assert sum(len(c) for c in classes) == g.order
        assert all(g.order % len(c) == 0 for c in classes)
        assert classes[0] == (0,)


def test_closure_idempotent(builtin16):
    for g, lat in builtin16:
        for sub in lat.subgroups:
            assert kernels.closure_mask(g.ktab, sub.mask) == sub.mask


def test_closure_matches_oracle():
    for g in (make_symmetric(3), make_dihedral(4), make_quaternion()):
        for a in range(g.order):
            for b in range(g.order):
                expected = oracles.closure(g.table, {a, b})
                assert set(_closure(g, [a, b]).members()) == set(expected)


def test_conjugacy_matches_oracle():
    for g in (make_symmetric(4), make_modular(3, 3)):
        ours = {frozenset(c) for c in g.conjugacy_classes()}
        assert ours == set(oracles.conjugacy_classes(g.table))


def test_subgroups_are_equal_by_mask_and_group_and_immutable():
    # C(6) and D(3) have the same order, so one mask names a subset of
    # each; only the group tells the two subgroups apart
    c6, d3 = make_cyclic(6), make_dihedral(3)
    h = _closure(c6, [3])
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


@pytest.mark.parametrize(
    "table, message",
    [
        ([], "a group has at least the identity element"),
        ([[0, 1], [1]], "table row 1 has length 1, expected 2"),
        ([[0, 1], [1, 0, 1]], "table row 1 has length 3, expected 2"),
        ([[0, 2], [1, 0]], "table entry 2 out of range 0..1"),
        ([[0, 1], [-1, 0]], "table entry -1 out of range 0..1"),
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "table row 1 is not a permutation"),
        ([[0, 1, 2], [1, 2, 0], [1, 0, 2]], "table column 0 is not a permutation"),
        ([[1, 0], [0, 1]], "element 0 is not a two-sided identity"),
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "element 0 is not a two-sided identity"),
    ],
    ids=[
        "empty", "short-row", "long-row", "entry-above-range", "entry-below-range",
        "repeat-in-row", "repeat-in-column", "no-identity", "identity-on-one-side",
    ],
)
def test_table_checks_name_the_fault(table, message):
    with pytest.raises(ValueError) as e:
        Group(table, "x")
    assert str(e.value) == message


@pytest.mark.parametrize(
    "table, message",
    [
        # a whole row is checked before the next row's length
        ([[0, 0, 1], [1, 2], [2, 0, 1]], "table row 0 is not a permutation"),
        # out of range is found entry by entry, before the row's repeat
        ([[0, 1, 1], [1, 2, 9], [2, 0, 1]], "table row 0 is not a permutation"),
        ([[0, 1, 7], [1, 1, 0], [2, 0, 1]], "table entry 7 out of range 0..2"),
        # every row before any column, every column before the identity
        ([[0, 1, 2], [1, 2, 0], [0, 2, 1]], "table column 0 is not a permutation"),
        ([[1, 0, 2], [0, 2, 1], [2, 1, 1]], "table row 2 is not a permutation"),
        # every entry is converted before any Latin-square check
        ([[0, 1, 2], [1, 2], [2, 0, 1.5]],
         "table entry 1.5 in row 2, column 2 is not an integer"),
        # the range check wins over a repeat earlier in the row
        ([[0, 0, 7], [1, 2, 0], [2, 0, 1]], "table entry 7 out of range 0..2"),
    ],
    ids=["row-before-short-row", "repeat-before-range", "range-before-repeat",
         "column-before-identity", "row-before-identity",
         "integer-before-short-row", "range-before-earlier-repeat"],
)
def test_a_table_with_two_faults_reports_the_first(table, message):
    with pytest.raises(ValueError) as e:
        Group(table, "x")
    assert str(e.value) == message


@pytest.mark.parametrize(
    "table, entry",
    [
        ([[0, 1.9], [1.9, 0]], "1.9 in row 0, column 1"),
        ([["0", "1"], ["1", "0"]], "'0' in row 0, column 0"),
        ([[0, 1], [1, 0.0]], "0.0 in row 1, column 1"),
        ([(0, 1), iter([1, None])], "None in row 1, column 1"),
    ],
    ids=["float", "str", "integral-float", "none-in-an-iterator"],
)
def test_a_table_entry_that_is_not_an_integer_is_refused(table, entry):
    # entries convert as list indices do, so 1.9 no longer passes as 1
    with pytest.raises(ValueError) as e:
        Group(table, "x")
    assert str(e.value) == f"table entry {entry} is not an integer"


def test_integer_like_entries_convert_to_int():
    g = Group([[0, _Index(1)], (x for x in (True, False))], "x")
    assert g.table == ((0, 1), (1, 0))
    assert all(type(x) is int for row in g.table for x in row)


def test_validate_refuses_a_latin_square_that_is_not_associative():
    # a loop of order 5: every row and column a permutation, element 0 a
    # two-sided identity, so only associativity fails
    table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    loop = Group(table, "L5")
    with pytest.raises(ValueError) as e:
        loop.validate()
    assert str(e.value) == "L5: table is not associative"


# every family instance the benchmark and the golden reports build above
# order 60, and the direct products among them
LARGER_BUILTINS = [("D", 48), ("S", 5), ("M", 3, 4), ("M", 2, 6)]
PRODUCTS = [
    (("C", 2),) * 5,
    (("D", 12), ("C", 2)),
    (("D", 4), ("C", 2), ("C", 2)),
    (("S", 4), ("C", 5)),
    (("Q8",), ("C", 3), ("C", 5)),
    (("S", 3), ("C", 5)),
    (("Q8",), ("C", 3)),
    (("C", 1), ("S", 3), ("C", 1)),
]


def _rows(table) -> tuple:
    return tuple(map(tuple, table))


@pytest.mark.parametrize(
    "family",
    builtin_families_up_to(60) + LARGER_BUILTINS,
    ids=lambda family: "".join(map(str, family)),
)
def test_each_constructor_builds_its_textbook_table(family):
    g = make_family(family)
    assert g.family == family
    assert g.table == _rows(oracles.family_table(family))
    g.validate()


@pytest.mark.parametrize(
    "atoms", PRODUCTS, ids=lambda atoms: "x".join("".join(map(str, a)) for a in atoms)
)
def test_direct_products_build_the_componentwise_table(atoms):
    group, expected = make_family(atoms[0]), oracles.family_table(atoms[0])
    for atom in atoms[1:]:
        group = direct_product(group, make_family(atom))
        expected = oracles.product_table(expected, oracles.family_table(atom))
        assert group.table == _rows(expected)
    group.validate()


def test_builtin_families_above_the_cap_fail_at_the_first_cyclic_group():
    # as when the families are built one by one, C(cap + 1) fails first,
    # and the instances above it are never listed
    for max_order, cap, first in ((300, None, 201), (10**9, None, 201), (13, 12, 13)):
        with pytest.raises(OrderCapExceeded) as e:
            builtin_families_up_to(max_order, cap=cap)
        limit = cap or 200
        assert str(e.value) == f"C({first}) has order {first}, above the cap {limit}"


@pytest.mark.parametrize(
    "family",
    [("C",), ("C", 1, 2), ("Q8", 1), ("M", 3), ("S", 3, 3), ("X", 3), ("c", 3)],
    ids=repr,
)
def test_an_unknown_family_or_parameter_count_is_refused(family):
    # every family and its parameter count come from one table, so a wrong
    # count is refused as an unknown family, not by the constructor's call
    for call in (make_family, check_family):
        with pytest.raises(ValueError) as e:
            call(family)
        assert str(e.value) == f"unknown group family {family!r}"


@pytest.mark.parametrize(
    "family, message",
    [
        (("M", 3, 10**7), "M(3,10000000) has order 3^10000000, above the cap 200"),
        (("M", 2, 10**5), "M(2,100000) has order 2^100000, above the cap 200"),
        # prime or not, a p above the cap is not tested by trial division
        (("M", 2**89 - 1, 3), f"M({2**89 - 1},3) has order {(2**89 - 1) ** 3}, "
         "above the cap 200"),
        (("M", 4000, 3), "M(4000,3) has order 64000000000, above the cap 200"),
        # 2n has 4,301 digits, more than str() writes out
        (("D", 10**4300 - 1), f"D({10**4300 - 1}) has order <14286 bits>, "
         "above the cap 200"),
        # a parameter too long to print is written by its bit length
        (("M", 3, 10**5000), "M(3,<16610 bits>) has order 3^<16610 bits>, "
         "above the cap 200"),
        (("C", 10**5000), "C(<16610 bits>) has order <16610 bits>, above the cap 200"),
    ],
    ids=["M-3-huge", "M-2-huge", "M-mersenne-89", "M-composite-p", "D-4300-nines",
         "M-5001-digit-m", "C-5001-digits"],
)
def test_an_order_far_above_the_cap_is_refused_at_once(family, message):
    with pytest.raises(OrderCapExceeded) as e:
        check_family(family)
    assert str(e.value) == message


def test_a_family_constructor_refuses_a_parameter_too_long_to_print():
    with pytest.raises(OrderCapExceeded, match="above the cap 200"):
        make_cyclic(10**5000)
    huge = 10**5000
    bits = huge.bit_length()
    for build, message in [
        (
            lambda: make_cyclic(-huge),
            f"cyclic order must be at least 1, got -<{bits} bits>",
        ),
        (
            lambda: make_dihedral(-huge),
            f"dihedral parameter must be at least 1, got -<{bits} bits>",
        ),
        (
            lambda: make_symmetric(huge),
            f"symmetric group parameter must be at most 5, got <{bits} bits>",
        ),
        (
            lambda: make_modular(3, -huge),
            f"modular group parameter m must be at least 3, got -<{bits} bits>",
        ),
        (
            lambda: make_modular(-huge, 3),
            f"modular group parameter p must be prime, got -<{bits} bits>",
        ),
    ]:
        with pytest.raises(ValueError) as e:
            build()
        assert str(e.value) == message


@pytest.mark.parametrize("cap", [2.5, True, "200"])
def test_a_cap_that_is_not_an_integer_is_refused(cap):
    # the cap is checked as an integer setting, not compared as it is
    for build in (
        lambda: enumerate_subgroups(make_cyclic(3), cap=cap),
        lambda: make_cyclic(3, cap=cap),
    ):
        with pytest.raises(ValueError) as e:
            build()
        assert not isinstance(e.value, OrderCapExceeded)
        assert str(e.value) == f"--order-cap must be an integer, got {cap!r}"


def test_a_huge_cap_is_written_by_its_bit_length():
    # the cap is written as the order is, never by str()
    with pytest.raises(OrderCapExceeded) as e:
        check_cap(10**5001, 10**5000, "x")
    assert str(e.value) == "x has order <16613 bits>, above the cap <16610 bits>"
    with pytest.raises(OrderCapExceeded) as e:
        make_modular(2, 10**5, cap=10**5000)
    assert str(e.value) == (
        "M(2,100000) has order 2^100000, above the cap <16610 bits>"
    )


def test_primality_is_tested_only_for_a_p_whose_cube_is_under_the_cap():
    # 2^89 - 1 is prime and far below this cap, but its cube is above it,
    # so the cap refuses M(2^89 - 1, 3) without trial division
    p = 2**89 - 1
    with pytest.raises(OrderCapExceeded) as e:
        check_family(("M", p, 3), cap=10**40)
    assert str(e.value) == f"M({p},3) has order {p**3}, above the cap {10**40}"
    with pytest.raises(ValueError, match="p must be prime, got 4"):
        check_family(("M", 4, 3))


_HUGE = 10**5000  # more digits than int-to-str conversion allows
_S3 = make_symmetric(3)
_S3_LATTICE = enumerate_subgroups(_S3)

# input -> (call, the name its messages start with, outcome at -_HUGE, outcome
# at _HUGE); an outcome is an exception class or ("ok", the value returned)
_INTEGER_INPUTS = {
    "order_cap": (order_cap, "--order-cap", ValueError, ("ok", _HUGE)),
    "C": (make_cyclic, "cyclic order", ValueError, OrderCapExceeded),
    "D": (make_dihedral, "dihedral parameter", ValueError, OrderCapExceeded),
    "S": (make_symmetric, "symmetric group parameter", ValueError, ValueError),
    "M-p": (
        lambda v: make_modular(v, 3), "modular group parameter p",
        ValueError, OrderCapExceeded,
    ),
    "M-m": (
        lambda v: make_modular(3, v), "modular group parameter m",
        ValueError, OrderCapExceeded,
    ),
    "check_n_max": (
        lambda v: check_n_max(v, "n_max"), "n_max", ValueError, BudgetExceeded
    ),
    "d_multi": (lambda v: d_multi(make_cyclic(2), v), "n", ValueError, BudgetExceeded),
    "ssd_multi": (
        lambda v: ssd_multi(_S3_LATTICE, _S3.full_subgroup(), v), "n",
        ValueError, BudgetExceeded,
    ),
    "xi": (lambda v: xi(_S3_LATTICE, v), "element index", ValueError, ValueError),
    "ssd_cyclic": (
        lambda v: ssd_cyclic(_S3_LATTICE, v), "element index", ValueError, ValueError
    ),
    "builtin_groups_up_to": (
        builtin_groups_up_to, "max_order", ("ok", []), OrderCapExceeded
    ),
}


@pytest.mark.parametrize("name", list(_INTEGER_INPUTS))
@pytest.mark.parametrize(
    "value", [True, 2.5, "3", -_HUGE, _HUGE],
    ids=["True", "2.5", "'3'", "-10**5000", "10**5000"],
)
def test_every_integer_input_gets_an_answer_or_its_error(name, value):
    # one check serves them all: a bool or a non-integer is refused by name,
    # and a huge value is written by its bit length, never by str()
    call, what, below, above = _INTEGER_INPUTS[name]
    expected = ValueError if type(value) is not int else below if value < 0 else above
    if isinstance(expected, tuple):
        assert call(value) == expected[1]
        return
    with pytest.raises(ValueError) as e:
        call(value)
    assert type(e.value) is expected
    message = str(e.value)
    assert "Exceeds the limit" not in message
    if expected is not OrderCapExceeded:
        assert message.startswith(f"{what} must be ")
