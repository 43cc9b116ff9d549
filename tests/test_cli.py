from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import latdeg
from latdeg import cli


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


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
    assert run_cli(["degrees", "-g", "C(300)", "--order-cap", "400"])[0] == 0
    monkeypatch.setenv("LATDEG_ORDER_CAP", "32")
    assert run_cli(["degrees", "-g", "C(64)"])[0] == 3
    monkeypatch.delenv("LATDEG_ORDER_CAP")
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
    "argv", [["degrees", "-g", "C(4)"], ["verify", "-g", "C(4)", "--claims", "C1"]]
)
def test_bad_order_cap_setting_exits_2(argv, monkeypatch, capsys):
    monkeypatch.setenv("LATDEG_ORDER_CAP", "abc")
    assert run_cli(argv) == (2, "")
    assert "LATDEG_ORDER_CAP" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "argv", [["degrees", "-g", "C(4)"], ["verify", "-g", "C(4)", "--claims", "C1"]]
)
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert run_cli([*argv, "--out", str(target)]) == (2, "")
    assert str(target) in _one_line_error(capsys)
    assert not target.exists()


@pytest.mark.parametrize(
    "argv", [["degrees", "-g", "C(4)"], ["verify", "-g", "C(4)", "--claims", "C1"]]
)
def test_negative_n_max_exits_2(argv, capsys):
    assert run_cli([*argv, "--n-max", "-1"]) == (2, "")
    assert "--n-max" in _one_line_error(capsys)
    assert run_cli([*argv, "--n-max", "0"])[0] == 0


def test_stale_backend_variable_is_ignored():
    # there is one kernel backend; an old LATDEG_BACKEND setting must not
    # change or break a run
    env = {k: v for k, v in os.environ.items() if k != "LATDEG_BACKEND"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(latdeg.__file__))
    argv = [sys.executable, "-m", "latdeg.cli", "degrees", "-g", "S(3)"]
    plain = subprocess.run(argv, capture_output=True, text=True, env=env)
    stale = subprocess.run(
        argv, capture_output=True, text=True, env={**env, "LATDEG_BACKEND": "bogus"}
    )
    assert (stale.returncode, stale.stderr) == (0, "")
    assert stale.stdout == plain.stdout
    assert plain.returncode == 0 and json.loads(plain.stdout)[0]["group"] == "S(3)"


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
    argv = ["degrees", "-g", "S(4)"]
    expected = run_cli(argv)[1]
    sink = _ShortWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(sink, encoding="utf-8"))
    assert cli.main(argv) == 0
    sys.stdout.flush()
    assert len(expected) > 100
    assert sink.data.decode("utf-8") == expected
