"""Seconds-long tests of the benchmark's own code, on ``degrees -g "S(3)"``.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layertrace

HERE = Path(__file__).resolve().parent
SMOKE_ARGV = ["degrees", "-g", "S(3)"]


def _run(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _result(*args: str) -> dict:
    done = _run("--workload", "smoke", *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> set[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result("--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_by_the_reference_timings_around_them():
    import run

    nominal = run.HOST_NOMINAL_S
    assert run.at_nominal_speed([3.0], [nominal, nominal]) == pytest.approx(3.0)
    # 2 s at twice the nominal loop time, then 1 s at four times it
    refs = [2 * nominal, 2 * nominal, 6 * nominal]
    assert run.at_nominal_speed([2.0, 1.0], refs) == pytest.approx(1.0 + 0.25)
    with pytest.raises(ValueError):
        run.at_nominal_speed([2.0, 1.0], refs[:2])


def test_sliced_child_runs_to_the_same_report(monkeypatch):
    import run

    monkeypatch.setattr(run, "SLICE_S", 0.05)
    wl = run.WORKLOADS["smoke"]
    cmd = [sys.executable, "-c", "print(sum(i & 1 for i in range(8_000_000)))"]
    plain = run.run_child(cmd, time.perf_counter() + 60, keep=True)
    sliced = run.run_child(cmd, time.perf_counter() + 60, keep=True, sliced=True)
    assert plain.stdout == sliced.stdout == b"4000000\n"
    assert sliced.exit_code == plain.exit_code == 0
    assert len(sliced.segments) == len(sliced.refs) + 1 >= 3
    assert sliced.wall_s == pytest.approx(sum(sliced.segments))
    sample = run.run_child(run.cli_cmd(wl), time.perf_counter() + 60, sliced=True)
    assert run.sample_ok(wl, sample)
    # a child still running at the deadline is killed, stopped or not
    cmd = [sys.executable, "-c", "while True: pass"]
    began = time.perf_counter()
    late = run.run_child(cmd, began + 0.5, sliced=True)
    assert late.exit_code is None and time.perf_counter() - began < 10


def test_traced_run_reports_every_per_layer_metric():
    result = _result("--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3  # one untraced and at least two traced calls
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(values) == _declared("per_layer")
    assert values["lattice.subgroups"] == 6
    assert values["degrees.bracket_entries"] == 36
    assert values["claims.results"] == 0


def test_self_times_add_up_and_counts_repeat():
    from latdeg import _kernels, cli

    kernel, main = _kernels.closure_mask, cli.main
    plain = layertrace.run_main(SMOKE_ARGV, traced=False)
    first = layertrace.run_main(SMOKE_ARGV)
    second = layertrace.run_main(SMOKE_ARGV)
    assert _kernels.closure_mask is kernel and cli.main is main
    assert first.sha256 == second.sha256 == plain.sha256
    assert first.counts == second.counts
    assert first.counts["kernels.closure_mask.calls"] == 11
    layers = sum(v for k, v in first.times.items() if not k.startswith("trace."))
    assert layers + first.times["trace.unattributed_s"] == pytest.approx(first.wall_s)
    assert first.absent == []


def test_missing_function_is_reported_absent(monkeypatch):
    # as after a refactor that removes a public function the tracer wraps
    monkeypatch.delattr("latdeg.degrees.d_pair")
    run = layertrace.run_main(SMOKE_ARGV)
    assert run.exit_code == 0
    assert run.absent == ["degrees.d_pair_calls", "degrees.d_pair_s"]
    assert run.times["degrees.d_pair_s"] == 0 and run.counts["degrees.d_pair_calls"] == 0
    assert run.counts["lattice.subgroups"] == 6


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "degrees-tall", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
