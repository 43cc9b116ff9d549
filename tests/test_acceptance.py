"""Acceptance suite: one test per criterion clause, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them all).

Every clause asserts its statement exactly.  Some registered claims are
false on concrete small groups.  A clause that checks such a claim
asserts three things: every true part of the claim on every instance;
the false part at its smallest counterexample, with both sides stated as
exact fractions; and the proven correct direction, where there is one.
Each counterexample is recomputed from the multiplication table by the
brute-force code in ``oracles``, which shares no code with the engine:

* criterion 6, C4/C5: the normal-subgroup lower bounds fail only at the
  center of the quaternion group, bound 1 against ssd(Q8) = 23/36;
* criterion 6, C8: the unscaled chain sd(H) <= sd(G) fails at H = A3 in
  S(3), 1 > 5/6; the other two parts of C8 hold everywhere;
* criterion 6, C11, and criterion 7's chain clause: ssd_n(H,G) <=
  ssd_n(G,G) fails at H = A3 in S(3), 2/3 > 5/12 at n = 1, and
  ssd_n(G,G) <= ssd(G) fails for n >= 2, 11/18 and 20/27 > 5/12; the
  reverse ssd(G) <= ssd_n(G,G) and ssd(G) <= sd(G) hold everywhere;
* criterion 7's depth clause: ssd_n(G,G) grows with the depth n,
  5/12 -> 11/18 -> 20/27 on S(3);
* criterion 9: ``verify --all-up-to 24`` exits 1 on exactly the claims
  the README lists, at the README's counterexamples.
"""

from __future__ import annotations

import functools
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import oracles
from latdeg import (
    claims,
    class_count,
    cli,
    d_group,
    direct_product,
    enumerate_subgroups,
    equal_generator_invariance,
    make_cyclic,
    make_dihedral,
    make_modular,
    make_quaternion,
    make_symmetric,
    sd_group,
    ssd_group,
    ssd_multi,
    xi,
)
from latdeg.arith import sigma, tau


def _report(name: str, failures: list, detail: str = ""):
    ok = not failures
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    if failures:
        line += f" - {len(failures)} violations, first: {failures[0]}"
    print(line)
    assert ok, line


def _check(failures: list, name: str, got, want):
    if got != want:
        failures.append((name, str(got), str(want)))


def _mask(members) -> int:
    return sum(1 << x for x in members)


def _bits(members, order: int) -> str:
    """Membership as the engine prints it: a '01' string, element 0 first."""
    return "".join("1" if x in members else "0" for x in range(order))


def _by_label(pairs, label: str):
    return next((g, lat) for g, lat in pairs if g.label == label)


# The order-6 counterexamples live in S(3) and its subgroup A3.
SD_S3 = Fraction(5, 6)
SD_A3 = Fraction(1)
SSD_1_A3_IN_S3 = Fraction(2, 3)  # ssd_1(A3, S3)
# ssd_n(S3, S3) for n = 1, 2, 3
SSD_N_S3 = (Fraction(5, 12), Fraction(11, 18), Fraction(20, 27))
# The quaternion counterexample: C4's and C5's bound at N = Z(Q8).
SSD_Q8 = Fraction(23, 36)
BOUND_AT_Z_Q8 = Fraction(1)


@functools.cache
def _s3_oracle(table) -> dict:
    """Both sides of the order-6 counterexamples, by brute force."""
    subs = oracles.subgroups(table)
    a3 = next(s for s in subs if len(s) == 3)
    below = [s for s in subs if s <= a3]
    permuting = sum(
        oracles.product_set(table, h, k) == oracles.product_set(table, k, h)
        for h in below
        for k in below
    )
    full = frozenset(range(len(table)))
    return {
        "A3": a3,
        "sd(S3)": oracles.sd(table),
        "sd(A3)": Fraction(permuting, len(below) ** 2),
        "ssd_1(A3,S3)": oracles.ssd_multi(table, a3, 1),
        "ssd_n(S3,S3)": tuple(oracles.ssd_multi(table, full, n) for n in (1, 2, 3)),
    }


def _q8_center_oracle(table) -> tuple[frozenset, Fraction, dict]:
    """Z(Q8), ssd(Q8), and the C4 and C5 bounds at N = Z(Q8), by brute
    force.  By the correspondence theorem L(G/N) is the set of subgroups
    containing N, and [H/N, K/N] = 1 iff [H, K] <= N, so no quotient
    table is built."""
    subs = oracles.subgroups(table)
    full = frozenset(range(len(table)))
    center = frozenset(oracles.centralizer(table, full, full))
    below = [s for s in subs if s <= center]
    above = [s for s in subs if center <= s]
    bracket = oracles.commutator_subgroup
    ssd_n = Fraction(
        sum(bracket(table, h, k) == {0} for h in below for k in below),
        len(below) ** 2,
    )
    ssd_q = Fraction(
        sum(bracket(table, h, k) <= center for h in above for k in above),
        len(above) ** 2,
    )
    l_n, l_q, l_g = len(below), len(above), len(subs)
    c5 = Fraction((l_n + l_q - 1) ** 2, l_g**2)
    c4 = c5 + ((ssd_n - 1) * l_n**2 + (ssd_q - 1) * l_q**2) / l_g**2
    return center, oracles.ssd(table), {"C4": c4, "C5": c5}


def test_criterion_1_abelian_law(builtin24):
    failures = []
    for g in claims.builtin_groups_up_to(64):
        if not g.is_abelian:
            continue
        lat = enumerate_subgroups(g)
        values = [d_group(g), sd_group(lat), ssd_group(lat)] + [
            ssd_multi(lat, g.full_subgroup(), n) for n in (1, 2, 3)
        ]
        if any(v != 1 for v in values):
            failures.append((g.label, values))
    for g, lat in builtin24:
        if g.is_abelian:
            continue
        if not ssd_group(lat) < 1:
            failures.append((g.label, "ssd not below 1"))
    _report("1 abelian law", failures)


def test_criterion_2_lattice_completeness(builtin24):
    failures = []
    for g, lat in builtin24:
        expected = {frozenset(s) for s in oracles.subgroups(g.table)}
        ours = {frozenset(s.members()) for s in lat.subgroups}
        if ours != expected:
            failures.append((g.label, len(ours), len(expected)))
    _report("2 lattice completeness", failures)


def test_criterion_3_dihedral_lattice_formula():
    failures = []
    for n in range(1, 21):
        size = len(enumerate_subgroups(make_dihedral(n)))
        if size != sigma(n) + tau(n):
            failures.append((n, size, sigma(n) + tau(n)))
    _report("3 dihedral lattice formula", failures)


def test_criterion_4_exact_values():
    s3 = make_symmetric(3)
    d8 = make_dihedral(4)
    q8 = make_quaternion()
    m27 = make_modular(3, 3)
    lat_s3 = enumerate_subgroups(s3)
    lat_q8 = enumerate_subgroups(q8)
    lat_m = enumerate_subgroups(m27)
    checks = [
        ("d(S3)", d_group(s3), Fraction(1, 2)),
        ("d(D8)", d_group(d8), Fraction(5, 8)),
        ("sd(S3)", sd_group(lat_s3), Fraction(5, 6)),
        ("ssd(S3)", ssd_group(lat_s3), Fraction(5, 12)),
        ("ssd(Q8)", ssd_group(lat_q8), Fraction(23, 36)),
        ("sd(Q8)", sd_group(lat_q8), Fraction(1)),
        ("sd(M(3,3))", sd_group(lat_m), Fraction(1)),
    ]
    failures = [(name, str(got), str(want)) for name, got, want in checks if got != want]
    if not ssd_group(lat_m) < 1:
        failures.append(("ssd(M(3,3))", "not below 1", "<1"))
    _report("4 exact derived values", failures)


def test_criterion_5_multiplicativity():
    failures = []
    s3, c3, c5, c7 = (
        make_symmetric(3), make_cyclic(3), make_cyclic(5), make_cyclic(7),
    )
    d8, q8 = make_dihedral(4), make_quaternion()
    products = [
        direct_product(s3, c5),
        direct_product(d8, c3),
        direct_product(q8, c5),
        direct_product(direct_product(s3, c5, cap=210), c7, cap=210),
    ]
    for g in products:
        lat = enumerate_subgroups(g, cap=210)
        lhs = ssd_group(lat)
        rhs = Fraction(1)
        for f in g.factors:
            rhs *= ssd_group(enumerate_subgroups(f))
        if lhs != rhs:
            failures.append((g.label, str(lhs), str(rhs)))
    # iterated-degree multiplicativity on S3 x C5 with A = <transposition>
    prod = direct_product(s3, c5)
    lat_p = enumerate_subgroups(prod)
    lat_s3 = enumerate_subgroups(s3)
    lat_c5 = enumerate_subgroups(c5)
    t = next(a for a in range(6) if s3.order_of(a) == 2)
    a_sub = s3.closure([t])
    b_sub = c5.full_subgroup()
    mask = 0
    for x in a_sub.members():
        for y in b_sub.members():
            mask |= 1 << (x * 5 + y)
    ab = prod.closure([i for i in range(prod.order) if mask >> i & 1])
    if ab.mask != mask:
        failures.append(("A x B", "product set is not a subgroup"))
    for n in (1, 2):
        lhs = ssd_multi(lat_p, ab, n)
        rhs = ssd_multi(lat_s3, a_sub, n) * ssd_multi(lat_c5, b_sub, n)
        if lhs != rhs:
            failures.append((f"ssd_{n}(AxB)", str(lhs), str(rhs)))
    _report("5 multiplicativity", failures)


INEQUALITY_CLAIMS = [
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C11", "C13", "C14", "C16",
]


def _normal_bound_counterexample(claim_id, groups, report):
    """C4 and C5 hold everywhere except at N = Z(Q8)."""
    g, lat = groups["Q8"]
    center, ssd_q8, bounds = _q8_center_oracle(g.table)
    failures = []
    _check(failures, "oracle ssd(Q8)", ssd_q8, SSD_Q8)
    _check(failures, f"oracle {claim_id} bound at Z(Q8)", bounds[claim_id], BOUND_AT_Z_Q8)
    key = ("Q8", f"N=#{lat.index_of[_mask(center)]}")
    witness = (SSD_Q8, BOUND_AT_Z_Q8, (f"N={_bits(center, g.order)}",))
    detail = "false only at N = Z(Q8): ssd(Q8) = 23/36 < bound 1"
    return {key: witness}, lambda instance: False, failures, detail


def _s3_oracle_failures(table) -> list:
    oracle = _s3_oracle(table)
    failures = []
    _check(failures, "oracle sd(S3)", oracle["sd(S3)"], SD_S3)
    _check(failures, "oracle sd(A3)", oracle["sd(A3)"], SD_A3)
    _check(failures, "oracle ssd_1(A3,S3)", oracle["ssd_1(A3,S3)"], SSD_1_A3_IN_S3)
    _check(failures, "oracle ssd_n(S3,S3)", oracle["ssd_n(S3,S3)"], SSD_N_S3)
    return failures


def _sd_chain_counterexample(claim_id, groups, report):
    """C8's scaled-ssd and centralizer-sum parts hold everywhere; its
    unscaled chain sd(H) <= sd(G) is false, e.g. at H = A3 in S(3)."""
    g, lat = groups["S(3)"]
    a3 = _s3_oracle(g.table)["A3"]
    key = ("S(3)", f"H=#{lat.index_of[_mask(a3)]}|sd-chain")
    witness = (SD_A3, SD_S3, (f"H={_bits(a3, g.order)}",))
    detail = "sd(H) <= sd(G) false, e.g. sd(A3) = 1 > 5/6 = sd(S3)"
    return (
        {key: witness},
        lambda instance: instance.endswith("|sd-chain"),
        _s3_oracle_failures(g.table),
        detail,
    )


def _chain_counterexample(claim_id, groups, report):
    """In C11's chain ssd_n(H,G) <= ssd_n(G,G) <= ssd(G) <= sd(G) the last
    link holds, the first two are false, and the reverse of the middle
    one holds (see the depth clause of criterion 7)."""
    g, lat = groups["S(3)"]
    a3 = _s3_oracle(g.table)["A3"]
    first = f"H=#{lat.index_of[_mask(a3)]},n=1"
    witnesses = {
        ("S(3)", first): (SSD_1_A3_IN_S3, SSD_N_S3[0], (f"H={_bits(a3, g.order)}",)),
        ("S(3)", "diag,n=2"): (SSD_N_S3[1], SSD_N_S3[0], ()),
        ("S(3)", "diag,n=3"): (SSD_N_S3[2], SSD_N_S3[0], ()),
    }
    failures = _s3_oracle_failures(g.table)
    for r in report.results:
        if r.instance.startswith("diag,n="):
            # lhs = ssd_n(G,G), rhs = ssd(G)
            if not r.rhs <= r.lhs or (r.instance == "diag,n=1" and r.lhs != r.rhs):
                failures.append((r.group_label, r.instance, "proven direction",
                                 str(r.lhs), str(r.rhs)))
    detail = (
        "ssd <= sd and ssd(G) = ssd_1(G,G) <= ssd_n(G,G); first and middle "
        "links false, e.g. 2/3 > 5/12 and 11/18, 20/27 > 5/12 on S(3)"
    )
    return (
        witnesses,
        lambda instance: instance.startswith(("H=", "diag")),
        failures,
        detail,
    )


# claim -> the false part of the claim, its exact witnesses, and the
# true and proven parts that still hold
COUNTEREXAMPLES = {
    "C4": _normal_bound_counterexample,
    "C5": _normal_bound_counterexample,
    "C8": _sd_chain_counterexample,
    "C11": _chain_counterexample,
}


@pytest.mark.parametrize("claim_id", INEQUALITY_CLAIMS)
def test_criterion_6_inequality_suite(claim_id, builtin24):
    nonabelian = {g.label: (g, lat) for g, lat in builtin24 if not g.is_abelian}
    report = claims.run_suite(
        [g for g, _ in nonabelian.values()], claim_filter=[claim_id]
    )
    witnesses, refuted, failures, detail = {}, lambda instance: False, [], ""
    if claim_id in COUNTEREXAMPLES:
        witnesses, refuted, failures, detail = COUNTEREXAMPLES[claim_id](
            claim_id, nonabelian, report
        )
    unseen = set(witnesses)
    for r in report.results:
        if not r.applicable:
            continue
        key = (r.group_label, r.instance)
        if key in witnesses:
            unseen.discard(key)
            got = (r.holds, r.lhs, r.rhs, r.witnesses)
            if got != (False, *witnesses[key]):
                failures.append((*key, "witness", *map(str, got)))
        elif not r.holds and not refuted(r.instance):
            failures.append((*key, str(r.lhs), str(r.rhs)))
    failures += [(*key, "witness not reported") for key in sorted(unseen)]
    if claim_id in ("C2", "C13"):
        failures += [
            (r.group_label, r.instance, "not strict")
            for r in report.results
            if r.applicable and r.holds and not r.strict_observed
        ]
    _report(f"6 inequality suite [{claim_id}]", failures, detail)


def test_criterion_7_depth_monotonicity(builtin16):
    # ssd_n(G,G) <= ssd_{n+1}(G,G): with every entry uniform on L(G),
    # [L_1, ..., L_{n+1}] = 1 forces [L_1, ..., L_{n+1}, K] = 1, and
    # L_{n+1} is distributed like K.  Claim C10 states the reverse, which
    # S(3) refutes.  For H != G no direction is proven, so none is asserted.
    failures = []
    for g, lat in builtin16:
        values = [ssd_multi(lat, g.full_subgroup(), n) for n in (1, 2, 3)]
        if not values[0] <= values[1] <= values[2]:
            failures.append((g.label, [str(v) for v in values]))
    s3, lat = _by_label(builtin16, "S(3)")
    values = tuple(ssd_multi(lat, s3.full_subgroup(), n) for n in (1, 2, 3))
    _check(failures, "ssd_n(S3,S3), n=1,2,3", values, SSD_N_S3)
    failures += _s3_oracle_failures(s3.table)
    _report(
        "7 depth ssd_1(G,G) <= ssd_2(G,G) <= ssd_3(G,G), 5/12 -> 11/18 -> 20/27 on S(3)",
        failures,
    )


def test_criterion_7_subgroup_monotonicity_chain(builtin16):
    failures = []
    for g, lat in builtin16:
        ssd_g = ssd_group(lat)
        sd_g = sd_group(lat)
        diag = [ssd_multi(lat, g.full_subgroup(), n) for n in (1, 2, 3)]
        if not ssd_g <= sd_g:
            failures.append((g.label, "ssd > sd", str(ssd_g), str(sd_g)))
        if diag[0] != ssd_g:
            failures.append((g.label, "ssd_1(G,G) != ssd(G)", str(diag[0]), str(ssd_g)))
        for n, value in enumerate(diag, start=1):
            if not ssd_g <= value:
                failures.append(
                    (g.label, f"ssd(G) > ssd_{n}(G,G)", str(ssd_g), str(value))
                )
    # the first and the middle link are false on S(3)
    s3, lat = _by_label(builtin16, "S(3)")
    a3 = lat[lat.index_of[_mask(_s3_oracle(s3.table)["A3"])]]
    first = ssd_multi(lat, a3, 1)
    diag = tuple(ssd_multi(lat, s3.full_subgroup(), n) for n in (1, 2, 3))
    _check(failures, "ssd_1(A3,S3)", first, SSD_1_A3_IN_S3)
    _check(failures, "ssd_n(S3,S3), n=1,2,3", diag, SSD_N_S3)
    if not first > diag[0]:
        failures.append(("first link not refuted", str(first), str(diag[0])))
    if not min(diag[1:]) > ssd_group(lat):
        failures.append(("middle link not refuted", *map(str, diag)))
    failures += _s3_oracle_failures(s3.table)
    _report(
        "7 chain ssd(G) = ssd_1(G,G) <= ssd_n(G,G), ssd <= sd; "
        "ssd_n(H,G) <= ssd_n(G,G) <= ssd(G) refuted on S(3)",
        failures,
    )


def test_criterion_7_ssd_below_sd(builtin16):
    failures = []
    for g, lat in builtin16:
        if not ssd_group(lat) <= sd_group(lat):
            failures.append(g.label)
    _report("7 ssd <= sd", failures)


def test_criterion_7_dp_matches_enumeration(builtin16):
    failures = []
    for g, lat in builtin16:
        if len(lat) > 10:
            continue
        for h in lat.subgroups:
            for n in (1, 2, 3):
                dp = ssd_multi(lat, h, n)
                brute = oracles.ssd_multi(g.table, frozenset(h.members()), n)
                if dp != brute:
                    failures.append((g.label, h.bitstring(), n, str(dp), str(brute)))
    _report("7 lattice DP equals tuple enumeration", failures)


def test_criterion_8_character_shadows(builtin24):
    failures = []
    for g, lat in builtin24:
        values = [xi(lat, a) for a in range(g.order)]
        for cls in g.conjugacy_classes():
            if len({values[a] for a in cls}) != 1:
                failures.append((g.label, "xi not constant on a class", cls))
        if equal_generator_invariance(lat):
            failures.append((g.label, "equal-generator invariance"))
        if class_count(g) != g.order * d_group(g):
            failures.append((g.label, "class count vs |G| d(G)"))
    _report("8 character shadows", failures)


def _run_verify_24():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify", "--all-up-to", "24"])
    return code, buf.getvalue()


def test_criterion_9_determinism():
    code1, out1 = _run_verify_24()
    code2, out2 = _run_verify_24()
    failures = []
    if code1 != code2:
        failures.append(("exit codes differ", code1, code2))
    if out1 != out2:
        failures.append(("reports differ",))
    json.loads(out1)  # the report is well-formed JSON
    _report("9 byte-identical verify reports", failures)


# Claims that verify --all-up-to 24 reports as failing (README table).
DOCUMENTED_FAILING = ["C3", "C4", "C5", "C8", "C10", "C11", "C16", "C20"]


def _other_readme_rows() -> tuple[dict, dict]:
    """The README counterexamples that no earlier clause covers, as two
    maps {(claim, group, instance): (lhs, rhs)}: the stated sides, and the
    oracle's."""
    c3 = make_cyclic(3).table
    subs = oracles.subgroups(c3)
    full = frozenset(range(3))
    # K = G (and H = M = G for C8), the last lattice position
    cent_bound = Fraction(
        sum(len(oracles.centralizer(c3, full, h)) for h in subs), len(subs) ** 2
    )
    top = len(subs) - 1
    v4 = make_dihedral(2).table
    subs4 = oracles.subgroups(v4)
    phi_sum = sum(
        oracles.commutator_subgroup(v4, h, k) == {0} for h in subs4 for k in subs4
    )
    d_sum = sum(oracles.d_pair(v4, h, k) for h in subs4 for k in subs4)
    upper = Fraction(len(v4) ** 2, len(subs4) ** 2) * d_sum
    stated = {
        ("C3", "C(3)", f"K=#{top}"): (Fraction(1), Fraction(3, 2)),
        ("C8", "C(3)", f"H=#{top},M=#{top}"): (Fraction(3, 2), Fraction(1)),
        ("C16", "D(2)", "upper"): (Fraction(25), Fraction(16)),
        ("C20", "M(2,3)", "sd"): (Fraction(23, 25), Fraction(1)),
    }
    oracle = {
        ("C3", "C(3)", f"K=#{top}"): (oracles.sd(c3), cent_bound),
        ("C8", "C(3)", f"H=#{top},M=#{top}"): (cent_bound, oracles.sd(c3)),
        ("C16", "D(2)", "upper"): (Fraction(phi_sum), upper),
        ("C20", "M(2,3)", "sd"): (oracles.sd(make_modular(2, 3).table), Fraction(1)),
    }
    return stated, oracle


def _side(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def test_criterion_9_exit_zero():
    code, out = _run_verify_24()
    records = json.loads(out)
    failing = [r for r in records if r["applicable"] and not r["holds"]]
    failures = []
    # exit 1 means "some verified claim failed", and only that
    _check(failures, "exit code", code, 1)
    if not failing:
        failures.append(("exit code", code, "no applicable failing record"))
    by_claim = sorted({r["claim"] for r in failing}, key=lambda c: int(c[1:]))
    _check(failures, "failing claims", by_claim, DOCUMENTED_FAILING)
    stated, oracle = _other_readme_rows()
    records_by_key = {(r["claim"], r["group"], r["instance"]): r for r in records}
    for key, (lhs, rhs) in stated.items():
        _check(failures, f"oracle {key}", oracle[key], (lhs, rhs))
        r = records_by_key.get(key)
        if r is None:
            failures.append((key, "not reported"))
            continue
        got = (r["applicable"], r["holds"], _side(r["lhs"]), _side(r["rhs"]))
        _check(failures, str(key), got, (True, False, lhs, rhs))
    _report("9 verify --all-up-to 24 exits 1 on exactly the documented claims", failures)
