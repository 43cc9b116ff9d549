from __future__ import annotations

import gc
import weakref
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from latdeg import (
    BudgetExceeded,
    Group,
    characters,
    claims,
    cli,
    degrees,
    enumerate_subgroups,
    make_cyclic,
    make_dihedral,
    make_modular,
    make_quaternion,
    make_symmetric,
)
from latdeg.groups import direct_product


def _holds(results):
    return [r for r in results if r.applicable and r.holds]


def _fails(results):
    return [r for r in results if r.applicable and not r.holds]


def test_registry_is_complete():
    assert list(claims.CLAIMS) == [f"C{i}" for i in range(1, 21)]


def test_unknown_claim():
    with pytest.raises(ValueError):
        claims.run_claim("C99", make_cyclic(4))
    with pytest.raises(ValueError):
        claims.run_suite([make_cyclic(4)], claim_filter=["C99"])


def test_empty_suite():
    report = claims.run_suite([])
    assert report.results == ()
    assert report.all_hold


def test_c1_iff():
    res = claims.run_claim("C1", make_cyclic(12))
    assert len(res) == 1 and res[0].holds and res[0].lhs == 1
    res = claims.run_claim("C1", make_symmetric(3))
    assert res[0].holds and res[0].lhs < 1


def test_c2_strict_on_s3():
    res = claims.run_claim("C2", make_symmetric(3))
    assert res[0].holds and res[0].strict_observed
    assert res[0].lhs == Fraction(5, 12) and res[0].rhs > 1


def test_c9_exact_product():
    g = direct_product(make_symmetric(3), make_cyclic(5))
    res = claims.run_claim("C9", g)
    assert len(res) == 1
    assert res[0].holds
    assert res[0].lhs == res[0].rhs == Fraction(5, 12)


def test_c12_holds_per_factor_pair_and_per_depth():
    g = direct_product(make_symmetric(4), make_cyclic(5))
    res = claims.run_claim("C12", g)
    # |L(S4)| * |L(C5)| subgroup pairs A x B, each at depths 1..n_max
    assert len(_holds(res)) == len(res) == 30 * 2 * claims.DEFAULT_N_MAX
    q8_c3 = direct_product(make_quaternion(), make_cyclic(3))
    g = direct_product(q8_c3, make_cyclic(5))
    res = claims.run_claim("C12", g)
    assert [r.instance for r in _holds(res)] == [r.instance for r in res] == [
        f"full,n={n}" for n in range(1, claims.DEFAULT_N_MAX + 1)
    ]


def test_c9_not_applicable_without_coprimality():
    g = direct_product(make_symmetric(3), make_cyclic(2))
    res = claims.run_claim("C9", g)
    assert len(res) == 1 and not res[0].applicable


def test_c15_dihedral_12():
    res = claims.run_claim("C15", make_dihedral(6))
    assert res[0].holds and res[0].lhs == 16 and res[0].rhs == 16
    res = claims.run_claim("C15", make_cyclic(6))
    assert not res[0].applicable


def test_c16_applies_to_odd_dihedrals():
    for n in (3, 5, 7, 9):
        res = claims.run_claim("C16", make_dihedral(n))
        assert [r.instance for r in res] == ["lower", "upper"]
        assert all(r.applicable and r.holds for r in res)
    res = claims.run_claim("C16", make_cyclic(12))
    assert not res[0].applicable


def _alternating_4() -> Group:
    """A4 as the even permutations of {0, 1, 2, 3}, composed right to
    left; the identity comes first."""
    even = [
        p
        for p in permutations(range(4))
        if sum(p[i] > p[j] for i, j in combinations(range(4), 2)) % 2 == 0
    ]
    index = {p: i for i, p in enumerate(even)}
    table = [[index[tuple(a[b[x]] for x in range(4))] for b in even] for a in even]
    return Group(table, "A(4)")


def test_c16_reports_a_derived_subgroup_that_is_not_cyclic(monkeypatch):
    a4 = _alternating_4()
    derived = a4.derived_series()[1]
    assert a4.is_metabelian and derived.size == 4
    assert all(a4.order_of(x) <= 2 for x in derived.members())  # V4
    assert len(enumerate_subgroups(a4)) == 10
    res = claims.run_claim("C16", a4)
    assert [r.note for r in res] == ["lattice size is not sigma+tau of |G|/2"]
    # No group we tried is metabelian, of even order, has a non-cyclic G'
    # and |L| = sigma(|G|/2) + tau(|G|/2).  |L| against that target:
    # A4 10/16, A4 x C(2) 26/34, A4 x C(3) 30/45, A4 x C(4) 42/68,
    # A4 x C(2) x C(2) 92/68, Dih(C3^2) 28/16, Dih(C3^2) x C(2) 78/45,
    # C3^2:C4 38/45.  So sigma is patched to put A4's 10 members on
    # target, and the cyclic test is the one that decides.
    monkeypatch.setattr(claims, "sigma", lambda n: 10 - claims.tau(n))
    res = claims.run_claim("C16", a4)
    assert [(r.instance, r.applicable, r.holds, r.note) for r in res] == [
        ("", False, None, "derived subgroup is not cyclic")
    ]


def test_c17_reports_xi_that_is_not_a_class_function(monkeypatch):
    # xi patched to the position of <a>: constant on each cyclic member,
    # but the three transpositions of S(3), one class, lie in three of
    # them.  C17 must compare xi across each class; keyed by class it
    # would see one value per class and hold
    monkeypatch.setattr(characters, "xi", lambda lat, a: lat.cyclic[a])
    [result] = claims.run_claim("C17", make_symmetric(3))
    assert result.applicable and result.holds is False
    assert result.lhs == len(result.witnesses) == 2


def test_claim_caches_hold_one_entry_per_class_and_depth():
    # S(4) has 30 subgroups in 11 conjugacy classes; after every claim
    # has run, each class-keyed cache holds one value per class and depth
    ctx = claims._Context(make_symmetric(4), claims.DEFAULT_N_MAX, None)
    for cid in claims.CLAIMS:
        claims._run_one(cid, ctx)
    lat = ctx.lattice
    classes = set(lat.class_of)
    depths = range(1, claims.DEFAULT_N_MAX + 1)
    assert (len(classes), len(lat)) == (11, 30)
    assert set(ctx._ssd_multi) == {
        (c, n, diagonal) for c in classes for n in depths for diagonal in (False, True)
    }
    assert set(ctx._d_multi) == {(c, n) for c in classes for n in depths}
    # ssd(L_i) is ssd_1(L_i, L_i), held under the (c, 1, True) keys above
    assert set(ctx._sub_degrees) == classes


def test_every_group_is_freed_by_reference_counting():
    # run_suite lets each group go as it moves on to the next; a cycle
    # between a group and its subgroups would keep the group, with its
    # kernel table, alive until a full collection, switched off here
    groups = claims.builtin_groups_up_to(24)
    refs = [weakref.ref(g) for g in groups]
    gc.disable()
    try:
        claims.run_suite(cli._handed_out(groups))
        kept = [r().label for r in refs if r() is not None]
    finally:
        gc.enable()
    assert (len(refs), kept) == (43, [])


def _no_context(*args):
    raise AssertionError("a group ran")


def test_n_max_above_the_depth_cap_is_refused_before_any_group_runs(monkeypatch):
    monkeypatch.setattr(claims, "_Context", _no_context)
    with pytest.raises(BudgetExceeded, match="n_max must be at most 4, got 5"):
        claims.run_suite([make_cyclic(4)], n_max=5)
    with pytest.raises(BudgetExceeded, match="n_max must be at most 4, got 5"):
        claims.run_claim("C10", make_cyclic(4), n_max=5)


def test_a_claim_selected_twice_is_refused_before_any_group_runs(monkeypatch):
    # a repeated id would report each of its results twice
    monkeypatch.setattr(claims, "_Context", _no_context)
    with pytest.raises(ValueError, match="'C1' is selected twice"):
        claims.run_suite([make_cyclic(4)], ["C1", "C2", "C1"])


def test_claim_results_are_immutable_values():
    r = claims.ClaimResult(
        claim_id="C1", group_label="S(3)", instance="", applicable=True,
        holds=True, lhs=Fraction(1, 2), rhs=1,
    )
    assert (r.strict_observed, r.witnesses, r.note) == (None, (), None)
    same = claims.ClaimResult("C1", "S(3)", "", True, True, Fraction(1, 2), 1)
    assert r == same and hash(r) == hash(same)
    other = claims.ClaimResult("C1", "S(3)", "", True, True, Fraction(1, 2), 1, note="")
    assert r != other
    with pytest.raises(AttributeError):
        r.holds = False
    with pytest.raises(TypeError):
        claims.ClaimResult("C1", "S(3)", "", True, True, Fraction(1, 2))


def test_claim_settings_are_checked_keywords(monkeypatch):
    # a misspelt setting, or one passed positionally, is an error rather
    # than a silent default; a negative depth is refused before any
    # group runs, as a depth above the cap is
    monkeypatch.setattr(claims, "_Context", _no_context)
    with pytest.raises(TypeError):
        claims.run_claim("C10", make_cyclic(4), nmax=1)
    with pytest.raises(TypeError):
        claims.run_claim("C10", make_cyclic(4), {"nmax": 1})
    with pytest.raises(TypeError):
        claims.run_suite([make_cyclic(4)], None, {"n_max": 1})
    with pytest.raises(ValueError, match="at least 0"):
        claims.run_claim("C10", make_cyclic(4), n_max=-2)
    with pytest.raises(ValueError, match="at least 0"):
        claims.run_suite([make_cyclic(4)], n_max=-2)


def test_n_max_sets_the_depths_checked():
    # C10 on C(4), 3 subgroups: one result per subgroup and depth step
    assert len(claims.run_claim("C10", make_cyclic(4), n_max=1)) == 0
    assert len(claims.run_claim("C10", make_cyclic(4))) == 3 * 2
    assert len(claims.run_claim("C10", make_cyclic(4), n_max=4)) == 3 * 3


def test_c20_odd_modular():
    report = claims.run_suite(
        [make_modular(3, 3), make_modular(5, 3)], claim_filter=["C20"]
    )
    assert report.all_hold
    sd_results = [r for r in report.results if r.instance == "sd"]
    assert all(r.lhs == 1 for r in sd_results)
    ssd_results = [r for r in report.results if r.instance == "ssd"]
    assert all(r.lhs < 1 and r.strict_observed for r in ssd_results)


def test_c20_reports_the_dihedral_coincidence():
    res = claims.run_claim("C20", make_modular(2, 3))
    sd_result = next(r for r in res if r.instance == "sd")
    assert not sd_result.holds  # sd(M(2,3)) = sd of the order-8 dihedral < 1
    assert "dihedral" in sd_result.note


def test_c4_q8_counterexample_is_reported():
    res = claims.run_claim("C4", make_quaternion())
    bad = _fails(res)
    assert len(bad) == 1
    assert bad[0].lhs == Fraction(23, 36) and bad[0].rhs == 1
    assert bad[0].witnesses


def test_budget_skip_entries(monkeypatch):
    monkeypatch.setattr(degrees, "TUPLE_BUDGET", 100)
    res = claims.run_claim("C13", make_symmetric(4))
    skipped = [r for r in res if not r.applicable]
    assert skipped and all("skipped" in r.note for r in skipped)


def test_results_carry_exact_sides(builtin16):
    for g, _ in builtin16[:6]:
        for cid in ("C1", "C2", "C19"):
            for r in claims.run_claim(cid, g):
                if r.applicable:
                    assert r.lhs is not None and r.rhs is not None


def test_suite_determinism():
    groups = claims.builtin_groups_up_to(10)
    a = claims.run_suite(groups)
    b = claims.run_suite(claims.builtin_groups_up_to(10))
    assert a.results == b.results


def test_suite_order_is_registry_then_group():
    report = claims.run_suite([make_cyclic(2), make_cyclic(3)], claim_filter=["C1", "C19"])
    seen = [(r.claim_id, r.group_label) for r in report.results]
    assert seen == [
        ("C1", "C(2)"), ("C1", "C(3)"), ("C19", "C(2)"), ("C19", "C(3)"),
    ]


def test_builtin_groups_up_to_24():
    groups = claims.builtin_groups_up_to(24)
    labels = [g.label for g in groups]
    assert len(labels) == len(set(labels)) == 43
    assert "Q8" in labels and "M(2,4)" in labels and "S(4)" in labels
    assert "M(3,3)" not in labels  # order 27
    orders = [g.order for g in groups]
    assert orders == sorted(orders)
    assert max(orders) <= 24


def test_violation_inventory_on_builtins():
    """The registry contains statements that are false on small groups;
    this pins exactly which ones, as verified with exact arithmetic."""
    report = claims.run_suite(claims.builtin_groups_up_to(24))
    failing = {}
    for r in _fails(report.results):
        failing.setdefault(r.claim_id, set()).add(r.group_label)
    assert set(failing) == {"C3", "C4", "C5", "C8", "C10", "C11", "C16", "C20"}
    # the normal-subgroup lower bound and its abelian corollary fail on
    # the quaternion group at its center, and nowhere else
    assert failing["C4"] == {"Q8"}
    assert failing["C5"] == {"Q8"}
    # the centralizer-sum bounds fail only on abelian groups, where
    # element counts outgrow lattice counts
    assert all(
        label.startswith("C(") or label in ("D(1)", "D(2)", "S(1)", "S(2)")
        for label in failing["C3"]
    )
    assert failing["C16"] == {"D(2)"}
    assert failing["C20"] == {"M(2,3)"}
    # monotonicity in the depth and in the subgroup fails on every
    # nonabelian instance; the iterated degree grows with the depth
    assert "D(3)" in failing["C10"] and "S(4)" in failing["C11"]
    clean = set(claims.CLAIMS) - set(failing)
    assert clean == {
        "C1", "C2", "C6", "C7", "C9", "C12", "C13", "C14", "C15",
        "C17", "C18", "C19",
    }
