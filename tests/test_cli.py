from __future__ import annotations

import codecs
import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout

import pytest

import latdeg
from latdeg import claims, cli
from latdeg._kernels import Table


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _no_group(*args):
    raise AssertionError("a group ran")


def test_parse_atoms():
    assert cli.parse_group_spec("C(6)").label == "C(6)"
    assert cli.parse_group_spec("  d(3)x C(5) ").label == "D(3) x C(5)"
    assert cli.parse_group_spec("q8 X M(3,3)").label == "Q8 x M(3,3)"


def test_parse_errors_carry_positions():
    with pytest.raises(cli.GroupSpecError) as e:
        cli.parse_group_spec("C(6) y D(3)")
    assert e.value.position == 5
    with pytest.raises(cli.GroupSpecError):
        cli.parse_group_spec("C(")
    with pytest.raises(cli.GroupSpecError):
        cli.parse_group_spec("W(3)")


def test_a_long_spec_parses_in_linear_time():
    # each pattern matches at its position in the text, never on a copy of
    # the rest, so 64,000 atoms take a fraction of a second
    text = " x ".join(["C(1)"] * 64_000)
    start = time.process_time()
    spec = cli.parse_group_spec(text)
    assert time.process_time() - start < 1.0
    assert spec.atoms == (("C", 1),) * 64_000


def test_parse_domain_errors_surface_on_build():
    spec = cli.parse_group_spec("M(4,3)")
    with pytest.raises(ValueError):
        spec.build()


def test_degrees_json_values():
    code, out = run_cli(["degrees", "-g", "D(3)", "--n-max", "2"])
    assert code == 0
    (entry,) = json.loads(out)
    assert entry["group"] == "D(3)"
    assert entry["order"] == 6
    assert entry["lattice_size"] == 6
    assert entry["class_count"] == 3
    assert (entry["d"]["num"], entry["d"]["den"]) == ("1", "2")
    assert (entry["sd"]["num"], entry["sd"]["den"]) == ("5", "6")
    assert (entry["ssd"]["num"], entry["ssd"]["den"]) == ("5", "12")
    assert [x["num"] for x in entry["ssd_n"]] == ["5", "11"]
    assert entry["ssd"]["approx"] == "0.416666666667"


def test_degrees_abelian_all_ones():
    code, out = run_cli(["degrees", "-g", "C(8)"])
    assert code == 0
    (entry,) = json.loads(out)
    for key in ("d", "sd", "ssd"):
        assert entry[key]["num"] == "1" and entry[key]["den"] == "1"
    assert all(x["num"] == "1" for x in entry["ssd_n"])


def test_degrees_modular_27():
    code, out = run_cli(["degrees", "-g", "M(3,3)"])
    assert code == 0
    (entry,) = json.loads(out)
    assert entry["sd"] == {"num": "1", "den": "1", "approx": "1.000000000000"}
    assert entry["ssd"]["num"] != entry["ssd"]["den"]


def test_degrees_csv_round_trip():
    code_j, out_j = run_cli(["degrees", "-g", "D(3)", "-g", "C(4)", "--n-max", "2"])
    code_c, out_c = run_cli(
        ["degrees", "-g", "D(3)", "-g", "C(4)", "--n-max", "2", "--format", "csv"]
    )
    assert code_j == code_c == 0
    entries = json.loads(out_j)
    rows = list(csv.DictReader(io.StringIO(out_c)))
    assert len(rows) == len(entries) == 2
    for entry, row in zip(entries, rows):
        assert row["group"] == entry["group"]
        assert row["order"] == str(entry["order"])
        assert row["lattice_size"] == str(entry["lattice_size"])
        for name in ("d", "sd", "ssd"):
            assert row[f"{name}_num"] == entry[name]["num"]
            assert row[f"{name}_den"] == entry[name]["den"]
            assert row[f"{name}_approx"] == entry[name]["approx"]
        for n, item in enumerate(entry["ssd_n"], start=1):
            assert row[f"ssd{n}_num"] == item["num"]


def test_exit_codes():
    assert run_cli(["degrees", "-g", "C(6"])[0] == 2
    assert run_cli(["degrees", "-g", "M(4,3)"])[0] == 2
    assert run_cli(["degrees", "-g", "C(999)"])[0] == 3
    assert run_cli(["verify", "-g", "C(4)", "--claims", "C99"])[0] == 2
    assert run_cli(["verify", "-g", "C(4)", "--claims", "C1"])[0] == 0


def test_order_cap_flag_and_env(monkeypatch):
    # the flag raises the cap; an environment variable neither lowers nor
    # raises it
    assert run_cli(["degrees", "-g", "C(300)", "--order-cap", "400"])[0] == 0
    monkeypatch.setenv("LATDEG_ORDER_CAP", "32")
    assert run_cli(["degrees", "-g", "C(64)"])[0] == 0


def test_verify_c15_on_dihedrals():
    argv = ["verify", "--claims", "C15"]
    for n in range(1, 21):
        argv += ["-g", f"D({n})"]
    code, out = run_cli(argv)
    assert code == 0
    results = json.loads(out)
    assert len(results) == 20
    assert all(r["holds"] for r in results)


def test_verify_reports_violations_with_exit_1():
    code, out = run_cli(["verify", "-g", "D(3)", "--claims", "C10"])
    assert code == 1
    results = json.loads(out)
    assert any(r["applicable"] and not r["holds"] for r in results)


def test_verify_csv_matches_json():
    code_j, out_j = run_cli(["verify", "-g", "Q8", "--claims", "C4"])
    code_c, out_c = run_cli(["verify", "-g", "Q8", "--claims", "C4", "--format", "csv"])
    assert code_j == code_c == 1
    results = json.loads(out_j)
    rows = list(csv.DictReader(io.StringIO(out_c)))
    assert len(rows) == len(results)
    for res, row in zip(results, rows):
        assert row["claim"] == res["claim"]
        assert row["holds"] == ("" if res["holds"] is None else str(res["holds"]).lower())
        if res["lhs"] is not None:
            assert row["lhs_num"] == res["lhs"]["num"]
            assert row["rhs_num"] == res["rhs"]["num"]
        assert row["witnesses"] == ";".join(res["witnesses"])


def test_verify_all_up_to_is_deterministic():
    code1, out1 = run_cli(["verify", "--all-up-to", "12"])
    code2, out2 = run_cli(["verify", "--all-up-to", "12"])
    assert code1 == code2
    assert out1 == out2


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "3347985c6c10861d969a3b29c023c15a4adb6c21a5c190f7a3d74462b95c9165"),
        ("csv", "cf1c314b205afd91c8ff5d92480462d23bb022daa3407b9b9d365c4e829af1e2"),
    ],
    ids=["json", "csv"],
)
def test_verify_report_is_byte_identical_to_the_golden_report(fmt, digest):
    # a refactor keeps every report byte for byte; these are the sha256
    # digests of verify --all-up-to 24, which exits 1 on its known violations
    code, out = run_cli(["verify", "--all-up-to", "24", "--format", fmt])
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_48_report_is_byte_identical_to_the_golden_report():
    # every built-in instance up to order 48, as the benchmark's verify-48
    # workload runs it; the JSON digest is the one that workload checks
    # against, and the CSV one pins the other writer over the same values
    code, out = run_cli(["verify", "--all-up-to", "48"])
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "544823e7c16fec9ec7ce564775d4229f07d29d9c5a449cdfab304613072e3cc8"
    )
    code, out = run_cli(["verify", "--all-up-to", "48", "--format", "csv"])
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "7807f66128f9f5b10e93a16d2143612937b65ccedbbc4b54d1145e1a1f7b0f7c"
    )


def test_verify_product_report_is_byte_identical_to_the_golden_report():
    # direct products, where C9 and C12 apply on the coprime ones and the
    # centralizer sums of C2, C3, C8 and C16 run over the most members
    code, out = run_cli(
        [
            "verify",
            "-g", "S(3) x C(5)",
            "-g", "Q8 x C(3)",
            "-g", "D(4) x C(2) x C(2)",
        ]
    )
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5c08912431c54d5cc78fdb645731075376fcbdd66b9bd7629f1e80f450a5bf90"
    )


def test_coprime_product_claims_are_byte_identical_to_the_golden_report():
    # C9 and C12 on coprime products no other golden covers: two factors
    # with 30 x 2 members, three factors, and a trivial factor
    code, out = run_cli(
        [
            "verify",
            "-g", "S(4) x C(5)",
            "-g", "Q8 x C(3) x C(5)",
            "-g", "C(3) x C(1) x C(5)",
            "--claims", "C9,C12",
        ]
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "77fdb575e5bf2baa981605631da29994af6b6467e97769b9f3f1efdadf1ad15f"
    )


def test_degrees_report_is_byte_identical_to_the_golden_report():
    # a refactor keeps every report byte for byte; S(5) is the group
    # where the non-commuting brackets weigh most
    code, out = run_cli(
        ["degrees", "-g", "S(4)", "-g", "D(12) x C(2)", "-g", "S(5)"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "2a109afce957fc614eb963136fdf19c34f16afb2dd872b29582c9c42510dd519"
    )


def test_wide_degrees_report_is_byte_identical_to_the_golden_report():
    # the groups with the most subgroups among the benchmarked ones, where
    # joins and brackets reuse memoized closures most; the digest is the
    # one the benchmark checks its degrees-wide runs against
    code, out = run_cli(
        [
            "degrees",
            "-g", "C(2) x C(2) x C(2) x C(2) x C(2)",
            "-g", "D(12) x C(2)",
            "-g", "D(4) x C(2) x C(2)",
        ]
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "2e340a1666fe68c645292d0e122d0710e2ee9a1027c5c0bf5cb7c80df5cdd3d8"
    )


def test_tall_degrees_report_is_byte_identical_to_the_golden_report():
    # the order-96 and order-120 groups of the benchmark's degrees-tall
    # workload, the largest tables any benchmark invocation builds; the
    # digest is the one that workload checks against
    code, out = run_cli(
        ["degrees", "-g", "D(48)", "-g", "S(4) x C(5)", "-g", "Q8 x C(3) x C(5)"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "fd46875c49b38c992c1bdaf516698556a8ba6cc87623795d80cec40bf34bb25e"
    )


@pytest.mark.parametrize(
    "factors, digest",
    [
        (["D(4)", "C(2)", "C(2)", "C(2)"],
         "7a4a4e5ef982054d6942d7cb0fcc698a7434d838e8d3cb5d5385be2e6ad89b11"),
        (["C(2)"] * 6,
         "255d7b7a572d267eb1e3511bbc735d03f7f6682f58e6f89f8c4ebd926109bdb8"),
    ],
    ids=["D(4)xC(2)^3", "C(2)^6"],
)
def test_large_degrees_reports_are_byte_identical_to_the_golden_reports(
    factors, digest
):
    # the ladder's groups with the largest bracket tables: 937 members, 36 %
    # of their pairs commuting, and 2,825 members, all of them commuting
    code, out = run_cli(["degrees", "-g", " x ".join(factors)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_degrees_csv_report_is_byte_identical_to_the_golden_report():
    # the CSV writer's golden report, with a quoted label (M(3,3)) and
    # four ssd_n columns
    code, out = run_cli(
        [
            "degrees", "--format", "csv", "--n-max", "4",
            "-g", "S(4)", "-g", "D(12) x C(2)", "-g", "Q8 x C(3)", "-g", "M(3,3)",
        ]
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "790274328961a9d7401ca069d9494a5613d55a0d5572331c66455abef547d477"
    )


def test_degrees_report_with_an_empty_ssd_n_is_byte_identical():
    code, out = run_cli(["degrees", "-g", "S(3)", "--n-max", "0"])
    assert code == 0
    assert '"ssd_n": []\n' in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "3c29c2b92b9337941c5a857e055b8fda45df808b9b8709fd2718ce038e9dcb24"
    )


def test_empty_verify_report_is_an_empty_list():
    # a claim filter naming no claim runs nothing and reports nothing
    assert run_cli(["verify", "-g", "C(2)", "--claims", ","]) == (0, "[]\n")


@pytest.mark.parametrize("selected", ["", ","])
def test_empty_claims_option_runs_no_claim(selected, monkeypatch):
    # an empty filter selects nothing, not every claim, and so needs no
    # group's lattice
    monkeypatch.setattr(claims, "_Context", _no_group)
    argv = ["verify", "-g", "S(3)", "--claims", selected]
    assert run_cli(argv) == (0, "[]\n")


def test_claim_named_twice_exits_2(capsys):
    assert run_cli(["verify", "-g", "C(4)", "--claims", "C1, C1"]) == (2, "")
    assert "'C1' is selected twice" in _one_line_error(capsys)


@pytest.mark.parametrize("order", ["0", "-5"])
def test_all_up_to_below_1_exits_2(order, monkeypatch, capsys):
    monkeypatch.setattr(claims, "_Context", _no_group)
    assert run_cli(["verify", "--all-up-to", order]) == (2, "")
    assert f"--all-up-to must be at least 1, got {order}" in _one_line_error(capsys)


def _counting_group_builds(monkeypatch) -> list:
    built = []
    init = cli.Group.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.Group, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "argv, result",
    [
        (["--all-up-to", "48", "--claims", ","], (0, "[]\n")),
        (["--all-up-to", "48", "--claims", ""], (0, "[]\n")),
        (["-g", "S(4) x C(5)", "--claims", ","], (0, "[]\n")),
        (["--all-up-to", "48", "--claims", "C1,C99"], (2, "")),
        (["--all-up-to", "48", "--claims", "C1,C1"], (2, "")),
        (["--all-up-to", "300", "--claims", ","], (3, "")),
        (["--all-up-to", "1000000000", "--claims", "C1"], (3, "")),
        (["-g", "C(4)", "-g", "S(6)", "--claims", ","], (2, "")),
    ],
    ids=["empty-all", "blank-all", "empty-product", "unknown-id", "repeated-id",
         "above-cap", "far-above-cap", "bad-parameter"],
)
def test_verify_builds_no_group_it_does_not_run(argv, result, monkeypatch):
    # the claim selection and every group's parameters and order are
    # checked before any group table is built
    built = _counting_group_builds(monkeypatch)
    assert run_cli(["verify", *argv]) == result
    assert built == []


def test_verify_builds_each_group_once_on_its_turn(monkeypatch):
    labels = [g.label for g in claims.builtin_groups_up_to(12)]
    built = _counting_group_builds(monkeypatch)
    code, out = run_cli(["verify", "--all-up-to", "12", "--claims", "C1"])
    assert code == 0 and out
    assert built == labels


@pytest.mark.parametrize(
    "text",
    ["C(0)", "D(0)", "S(6)", "S(0)", "M(4,3)", "M(2,2)", "C(201)", "S(4) x S(4)",
     "S(4) x C(5) x C(2)", "C(2) x S(6)", "Q8 x Q8 x Q8 x Q8", "C(1) x C(300)",
     "D(3) x C(5)", "M(3,3)", "Q8"],
)
def test_a_spec_check_raises_what_its_build_raises(text, monkeypatch):
    spec = cli.parse_group_spec(text)
    try:
        spec.build()
        expected = None
    except ValueError as exc:
        expected = (type(exc), str(exc))
    built = _counting_group_builds(monkeypatch)
    try:
        assert spec.check() is spec
        found = None
    except ValueError as exc:
        found = (type(exc), str(exc))
    assert (found, built) == (expected, [])


def test_equal_specs_compare_equal():
    spec = cli.parse_group_spec("d(3)x C(5)")
    same = cli.parse_group_spec(" D( 3 ) X c(5) ")
    assert spec == same and hash(spec) == hash(same)
    # an atom is the family tuple that the group it builds records
    assert spec.atoms == (("D", 3), ("C", 5))
    assert [g.family for g in spec.build().factors] == list(spec.atoms)
    assert spec != cli.parse_group_spec("C(5) x D(3)")
    assert cli.parse_group_spec("M(3,3)") != cli.parse_group_spec("M(3,4)")
    with pytest.raises(AttributeError):
        spec.atoms = ()
    with pytest.raises(TypeError):
        spec.atoms[0][0] = "C"


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(["degrees", "-g", "C(6)", "--out", str(target)])
    assert code == 0 and out == ""
    entry = json.loads(target.read_text())[0]
    assert entry["group"] == "C(6)"


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["degrees", "-g", "C(3)", "--n-max"],
        ["degrees", "-g", "C(3)", "--order-cap"],
        ["verify", "-g", "C(3)", "--claims", "C1", "--n-max"],
        ["verify", "-g", "C(3)", "--claims", "C1", "--order-cap"],
        ["verify", "--all-up-to"],
    ],
    ids=lambda argv: f"{argv[0]}_{argv[-1]}",
)
def test_an_integer_flag_too_long_to_convert_exits_2(argv, capsys):
    # refused as a spec literal of that many digits is, by one short line
    # that names the digit count instead of echoing every digit
    assert run_cli([*argv, "9" * 5000]) == (2, "")
    assert _one_line_error(capsys) == f"error: {argv[-1]} of 5000 digits is too long\n"


@pytest.mark.parametrize(
    "argv", [["degrees", "-g", "S(3)"], ["verify", "-g", "S(3)", "--claims", "C1"]]
)
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_order_cap_flag_below_1_exits_2(argv, cap, capsys):
    # a usage error, not a group above the cap (exit 3)
    assert run_cli([*argv, "--order-cap", cap]) == (2, "")
    assert "--order-cap" in _one_line_error(capsys)
    assert run_cli([*argv, "--order-cap", "6"])[0] == 0


@pytest.mark.parametrize(
    "argv", [["degrees", "-g", "C(4)"], ["verify", "-g", "C(4)", "--claims", "C1"]]
)
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert run_cli([*argv, "--out", str(target)]) == (2, "")
    assert str(target) in _one_line_error(capsys)
    assert not target.exists()


@pytest.mark.parametrize("command", [["degrees"], ["verify", "--claims", "C1"]])
@pytest.mark.parametrize(
    "text, error",
    [
        ("M(2,100000)", "M(2,100000) has order 2^100000, above the cap 200"),
        ("M(3,10000000)", "M(3,10000000) has order 3^10000000, above the cap 200"),
        ("C(" + "9" * 5000 + ")", "integer literal of 5000 digits is too long "
         "(at position 2)"),
    ],
    ids=["M-2-huge", "M-3-huge", "5000-digits"],
)
def test_a_huge_family_parameter_gets_one_error_line(command, text, error, capsys):
    # the order is not formed (M), and a literal int() refuses is a parse error
    code = 2 if text.startswith("C(") else 3
    assert run_cli([*command, "-g", text]) == (code, "")
    assert _one_line_error(capsys) == f"error: {error}\n"


def test_verify_above_the_cap_fails_before_any_group_runs(monkeypatch, capsys):
    monkeypatch.setattr(claims, "_Context", _no_group)
    assert run_cli(["verify", "--all-up-to", "300"]) == (3, "")
    assert "above the cap 200" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "argv", [["degrees", "-g", "C(4)"], ["verify", "-g", "C(4)", "--claims", "C1"]]
)
def test_negative_n_max_exits_2(argv, capsys):
    assert run_cli([*argv, "--n-max", "-1"]) == (2, "")
    assert "--n-max" in _one_line_error(capsys)
    assert run_cli([*argv, "--n-max", "0"])[0] == 0


@pytest.mark.parametrize(
    "argv", [["degrees", "-g", "C(4)"], ["verify", "-g", "C(4)", "--claims", "C1"]]
)
def test_n_max_above_the_depth_cap_exits_3(argv, monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("a group was built")

    with monkeypatch.context() as patch:
        patch.setattr(cli.GroupSpec, "build", no_build)
        assert run_cli([*argv, "--n-max", "5"]) == (3, "")
    assert "--n-max must be at most 4" in _one_line_error(capsys)
    assert run_cli([*argv, "--n-max", "4"])[0] == 0


@pytest.mark.parametrize(
    "last, code, error",
    [
        ("C(500)", 3, "C(500) has order 500, above the cap 200"),
        ("S(6)", 2, "symmetric group parameter must be at most 5, got 6"),
    ],
)
def test_degrees_checks_every_spec_before_it_builds_any(
    last, code, error, monkeypatch, capsys
):
    enumerated = []
    enumerate_subgroups = cli.enumerate_subgroups

    def counting(*args, **kwargs):
        enumerated.append(args)
        return enumerate_subgroups(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_subgroups", counting)
    argv = ["degrees", "-g", "D(4) x C(2) x C(2) x C(2)", "-g", last]
    assert run_cli(argv) == (code, "")
    assert _one_line_error(capsys) == f"error: {error}\n"
    assert enumerated == []


# (arguments after the subcommand, exit code, error line)
_REFUSALS = [
    (["-g", "C(6"], 2, "expected ')' (at position 3)"),
    (["-g", "C(0)"], 2, "cyclic order must be at least 1, got 0"),
    (["-g", "S(6)"], 2, "symmetric group parameter must be at most 5, got 6"),
    (["-g", "M(4,3)"], 2, "modular group parameter p must be prime, got 4"),
    (["-g", "M(4,2)"], 2, "modular group parameter p must be prime, got 4"),
    (["-g", "M(2,2)"], 2, "modular group parameter m must be at least 3, got 2"),
    (["-g", "C(999)"], 3, "C(999) has order 999, above the cap 200"),
    (["-g", "C(4)", "--n-max", "-1"], 2, "--n-max must be at least 0, got -1"),
    (["-g", "C(4)", "--n-max", "5"], 3, "--n-max must be at most 4, got 5"),
    (["-g", "C(4)", "--n-max", "abc"], 2, "--n-max must be an integer, got 'abc'"),
    (["-g", "C(4)", "--order-cap", "0"], 2, "--order-cap must be at least 1, got 0"),
    (["-g", "C(4)", "--order-cap", "2.5"], 2,
     "--order-cap must be an integer, got '2.5'"),
]
_VERIFY_REFUSALS = [
    (["--all-up-to", "0"], 2, "--all-up-to must be at least 1, got 0"),
    (["--all-up-to", "x"], 2, "--all-up-to must be an integer, got 'x'"),
    (["-g", "C(4)", "--claims", "C99"], 2, "unknown claim id 'C99'"),
    (["-g", "C(4)", "--claims", "C1,C1"], 2, "claim id 'C1' is selected twice"),
]


_REFUSAL_CASES = [
    (command, *case) for command in ("degrees", "verify") for case in _REFUSALS
] + [("verify", *case) for case in _VERIFY_REFUSALS]


@pytest.mark.parametrize(
    "command, args, code, line",
    _REFUSAL_CASES,
    ids=["_".join([command, *args]) for command, args, _, _ in _REFUSAL_CASES],
)
def test_each_refusal_prints_its_pinned_error_line(command, args, code, line, capsys):
    # the exact wording of every refusal, so that a change of one shows here
    assert run_cli([command, *args]) == (code, "")
    assert _one_line_error(capsys) == f"error: {line}\n"


@pytest.mark.parametrize(
    "argv", [["degrees", "-g", "C(4)"], ["verify", "-g", "C(4)"]]
)
def test_default_n_max_is_the_claims_default(argv):
    # one default depth, defined in degrees, for the CLI and the claims
    args = cli._build_parser().parse_args(argv)
    assert cli._settings(args)[0] == claims.DEFAULT_N_MAX


def test_stale_backend_variable_is_ignored():
    # there is one kernel backend, and the cap is --order-cap or 200; an old
    # LATDEG_BACKEND or LATDEG_ORDER_CAP setting must not change or break a run
    stale = {"LATDEG_BACKEND": "bogus", "LATDEG_ORDER_CAP": "2"}
    env = {k: v for k, v in os.environ.items() if k not in stale}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(latdeg.__file__))

    def run(group, **variable):
        argv = [sys.executable, "-m", "latdeg.cli", "degrees", "-g", group]
        variables = {**env, **variable}
        return subprocess.run(argv, capture_output=True, text=True, env=variables)

    plain = run("S(3)")
    assert plain.returncode == 0 and json.loads(plain.stdout)[0]["group"] == "S(3)"
    for name, value in stale.items():
        with_stale = run("S(3)", **{name: value})
        assert (with_stale.returncode, with_stale.stderr) == (0, ""), name
        assert with_stale.stdout == plain.stdout, name
    high = run("C(250)", LATDEG_ORDER_CAP="1000")
    assert (high.returncode, high.stdout, high.stderr) == (
        3, "", "error: C(250) has order 250, above the cap 200\n"
    )


class _ShortWrites(io.BufferedIOBase):
    """A binary stream that takes at most 100 bytes per write, as a pipe
    write cut short by a stop signal does."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        n = min(len(b), 100)
        self.data += bytes(b[:n])
        return n


def test_report_survives_short_writes(monkeypatch):
    # reports longer than one slice, each slice cut into 100-byte writes
    for fmt in ("json", "csv"):
        argv = ["verify", "--all-up-to", "8", "--format", fmt]
        code, expected = run_cli(argv)
        sink = _ShortWrites()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(sink, encoding="utf-8"))
        assert cli.main(argv) == code
        sys.stdout.flush()
        assert len(expected) > cli.REPORT_SLICE
        assert sink.data.decode("utf-8") == expected


def test_report_in_a_stateful_encoding_is_encoded_once(monkeypatch):
    # UTF-16 starts with a byte-order mark: slices encoded one by one,
    # each from scratch, would repeat it
    argv = ["degrees", "-g", "S(4)"]
    expected = run_cli(argv)[1]
    monkeypatch.setattr(cli, "REPORT_SLICE", 100)
    sink = _ShortWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(sink, encoding="utf-16"))
    assert cli.main(argv) == 0
    sys.stdout.flush()
    assert len(expected) > cli.REPORT_SLICE
    assert sink.data.decode("utf-16") == expected
    assert sink.data.count(codecs.BOM_UTF16) == 1


class _HashSink(io.RawIOBase):
    """A binary stream that keeps only the length and sha256 of what is
    written to it, so that it holds nothing of a report itself."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.size = 0

    def writable(self):
        return True

    def write(self, b):
        self.digest.update(b)
        self.size += len(b)
        return len(b)


@pytest.fixture(scope="module")
def results24():
    return claims.run_suite(claims.builtin_groups_up_to(24)).results


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_writer_holds_a_slice_not_the_report(fmt, results24, monkeypatch):
    # verify --all-up-to 24 streamed to stdout: the writer's peak stays
    # below a quarter of the report.  At the default slice, one slice and
    # its encoding are already 128 KiB, a quarter of the CSV report, so
    # the slice is made smaller here.
    writer = cli._verify_json if fmt == "json" else cli._verify_csv
    report = "".join(writer(results24)).encode("utf-8")
    monkeypatch.setattr(cli, "REPORT_SLICE", 1 << 14)
    sink = _HashSink()
    stream = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stream)
    tracemalloc.start()
    try:
        code = cli._emit(writer(results24), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (sink.size, sink.digest.digest()) == (
        len(report), hashlib.sha256(report).digest()
    )
    assert peak < len(report) / 4, (peak, len(report))


def test_verify_holds_one_kernel_table_at_a_time(monkeypatch):
    # a finished group's kernel table (with its centralizers, records and
    # closures) is released before the next group's context is built
    def live_tables():
        gc.collect()
        return sum(isinstance(o, Table) for o in gc.get_objects())

    baseline = live_tables()
    seen = []
    build = claims._Context.__init__

    def counting_init(self, *args):
        seen.append(live_tables() - baseline)
        build(self, *args)

    monkeypatch.setattr(claims._Context, "__init__", counting_init)
    code, out = run_cli(["verify", "--all-up-to", "12", "--claims", "C1"])
    assert code == 0 and out
    assert len(seen) == len(claims.builtin_groups_up_to(12))
    assert max(seen) <= 1, seen


def _cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "latdeg.cli", *argv]


def _cli_env() -> dict[str, str]:
    # stdout buffered, as when run from a shell
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(latdeg.__file__))
    return env


def _assert_cannot_write_stdout(code: int, err: bytes) -> None:
    # exit 2 with one error line: no traceback, and no "Exception
    # ignored" from the interpreter's last flush of stdout
    text = err.decode()
    assert code == 2, text
    assert text.startswith("error: cannot write stdout: "), text
    assert text.count("\n") == 1, text


def test_stdout_pipe_closed_after_10_bytes_exits_2():
    # as `latdeg verify --all-up-to 24 | head -c 10`: the reader goes away
    # after 10 bytes of a report far longer than a pipe holds
    with subprocess.Popen(
        _cli_command(["verify", "--all-up-to", "24"]),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
    _assert_cannot_write_stdout(code, err)
    assert head == b"[\n  {\n    "


def test_stdout_pipe_closed_before_a_short_report_exits_2():
    # a report shorter than stdout's buffer is still buffered when the
    # write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            _cli_command(["degrees", "-g", "S(3)"]),
            stdout=write,
            stderr=subprocess.PIPE,
            env=_cli_env(),
            timeout=120,
        )
    finally:
        os.close(write)
    _assert_cannot_write_stdout(proc.returncode, proc.stderr)


def test_closed_stdout_exits_2():
    # as `latdeg degrees -g 'S(3)' >&-`
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" >&-', *_cli_command(["degrees", "-g", "S(3)"])],
        stderr=subprocess.PIPE,
        env=_cli_env(),
        timeout=120,
    )
    _assert_cannot_write_stdout(proc.returncode, proc.stderr)


# run in a fresh interpreter: the modules that one CLI call adds
_IMPORTS_OF_ONE_RUN = """
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
from latdeg import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


@pytest.mark.parametrize(
    "argv, loads_claims",
    [
        (["degrees", "-g", "S(3)"], False),
        (["verify", "-g", "S(3)", "--claims", "C1"], True),
    ],
)
def test_only_verify_loads_the_claim_harness(argv, loads_claims):
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTS_OF_ONE_RUN, *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=120,
    )
    code, added = json.loads(done.stdout)
    assert code == 0
    assert ("latdeg.claims" in added) is loads_claims
    assert "dataclasses" not in added


_STAR_IMPORT = """
import sys
import latdeg
assert "latdeg.claims" not in sys.modules
names = {}
exec("from latdeg import *", names)
unbound = [n for n in latdeg.__all__ if names.get(n) is not getattr(latdeg, n)]
unlisted = sorted(set(latdeg.__all__) - set(dir(latdeg)))
print(unbound, unlisted, hasattr(latdeg, "no_such_name"))
"""


def test_every_public_name_resolves_on_first_use():
    # the claim names are bound on first access; a star import binds them
    done = subprocess.run(
        [sys.executable, "-c", _STAR_IMPORT],
        capture_output=True, text=True, env=_cli_env(), timeout=120,
    )
    assert done.stdout == "[] [] False\n", done.stderr
