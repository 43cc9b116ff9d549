#!/usr/bin/env python3
"""Benchmark of the latdeg CLI on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify-48 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60

``--trace 0`` times real CLI invocations (``python3 -m latdeg.cli``) in
child processes, one at a time: a closed loop with one client, started
again while the next invocation still fits in ``--seconds``.  It reports
the end-to-end metrics of BENCHMARK.json: the wall time and the median
peak RSS of an invocation, and the time a fresh interpreter takes to
import latdeg and build the workload's group tables (``setup_s``).

The shared host's speed drifts by up to a factor of two within minutes
and swings by a tenth within seconds, more than a regression bound can
absorb.  So every time in ``wall_s`` and ``setup_s`` is expressed on a
host where a fixed pure-Python reference loop takes ``HOST_NOMINAL_S``.
The loop is timed before the first slot and after each slot (set-up
probes, then one invocation), and an invocation is stopped every
``SLICE_S`` seconds it runs while the loop is timed again; each stretch
it ran is scaled by ``HOST_NOMINAL_S`` over the mean of the loop timings
on either side of it, and each probe by the timing before its slot.
``setup_s`` is the median of the scaled probe times and ``wall_s`` the
mean of the scaled invocation times, since a run holds only two to five
invocations, too few for their median to be steadier than their mean.
The loop never calls latdeg, so a change to the package cannot move it.
The measured times and every reference timing are kept in the results
file.

``--trace 1`` calls ``latdeg.cli.main`` in this process, once untraced
and then with spans around each layer's public functions (see
layertrace.py) while another traced call fits in ``--seconds``, at most
three times.  It reports the per-layer metrics, the traced minus the
untraced wall time as the tracing overhead, and checks that the traced
report equals the untraced one and that traced runs repeat every count.

Every report is checked against the sha256 and exit code captured at the
seed commit; a mismatch counts as a failed invocation and makes the run
incorrect, it is never dropped.  Children import latdeg from this
checkout's ``src/`` with the default backend, with LATDEG_BACKEND and
LATDEG_ORDER_CAP cleared and a fixed PYTHONHASHSEED.  The workloads are
fixed invocations, so every ``--seed`` gives the same inputs; the seed is
only recorded.

The last line of stdout is one JSON object; the lines before it are a
readable summary.  Each run appends one record, with the host reference
timing and where latdeg was imported from, to perfbench/out/results.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HARD_LIMIT_S = 170.0  # one workload's run must end within 180 s
SETUP_REPEATS = 3  # set-up probes per invocation slot
HOST_REF_REPEATS = 4  # timings of the reference loop before and after a slot
SLICE_S = 2.0  # an invocation runs this long between two stops
SLICE_REF_REPEATS = 2  # timings of the reference loop at each stop
HOST_NOMINAL_S = 0.1  # reference loop time that scaled timings refer to
MAX_TRACED_RUNS = 3
PINNED_ENV = ("LATDEG_BACKEND", "LATDEG_ORDER_CAP")


class Workload(NamedTuple):
    argv: tuple[str, ...]
    exit_code: int
    sha256: str  # of the report on stdout, captured at the seed commit


WORKLOADS = {
    # the whole claim registry on 81 built-in groups; exits 1 by design
    "verify-48": Workload(
        ("verify", "--all-up-to", "48"),
        1,
        "544823e7c16fec9ec7ce564775d4229f07d29d9c5a449cdfab304613072e3cc8",
    ),
    # few large groups: lattice enumeration over big tables dominates.  Not
    # in BENCHMARK.json: at ~15 s an invocation, three workloads leave each
    # run room for only two invocations, and host speed drift then spreads
    # the run medians past the bound.  Add it back once invocations are short.
    "degrees-tall": Workload(
        ("degrees", "-g", "D(48)", "-g", "S(4) x C(5)", "-g", "Q8 x C(3) x C(5)"),
        0,
        "fd46875c49b38c992c1bdaf516698556a8ba6cc87623795d80cec40bf34bb25e",
    ),
    # small groups with large lattices: quadratic pair stages
    "degrees-wide": Workload(
        (
            "degrees",
            "-g", "C(2) x C(2) x C(2) x C(2) x C(2)",
            "-g", "D(12) x C(2)",
            "-g", "D(4) x C(2) x C(2)",
        ),
        0,
        "2e340a1666fe68c645292d0e122d0710e2ee9a1027c5c0bf5cb7c80df5cdd3d8",
    ),
    # seconds-long case for the benchmark's own tests; not in BENCHMARK.json
    "smoke": Workload(
        ("degrees", "-g", "S(3)"),
        0,
        "572b3091ac8109b628c100a59ba4f9f065aa01a6b492d7ec0b443cbfddc0b0ec",
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Sample(NamedTuple):
    wall_s: float  # the time the child ran, without its stops
    rss_mb: float
    exit_code: int | None  # None: killed at the deadline
    sha256: str
    stdout: bytes  # kept only when asked for
    segments: list[float]  # the stretches the child ran between stops
    refs: list[float]  # mean reference loop time at each stop


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = str(SRC)
    # every invocation then lays out str-keyed dicts and sets alike
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(
    cmd: list[str], deadline: float, keep: bool = False, sliced: bool = False
) -> Sample:
    """Run ``cmd`` to completion, hashing its stdout; the child's peak
    RSS comes from ``os.wait4``.  A child still running at ``deadline``
    is killed.

    When ``sliced``, the child is stopped after every ``SLICE_S`` seconds
    it runs, the reference loop is timed while it stands still, and then
    it is continued, so that the host's speed is known all through a long
    invocation; one process runs at any time."""
    OUT.mkdir(exist_ok=True)
    digest = hashlib.sha256()
    kept, segments, refs = [], [], []
    start = running_since = time.perf_counter()
    with open(OUT / "child.stderr", "wb") as err:
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
    timed_out = False
    reaped = None  # (status, usage) when the child ended as it was stopped
    try:
        fd = proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                now = time.perf_counter()
                wake = deadline
                if sliced and reaped is None:
                    wake = min(deadline, running_since + SLICE_S)
                if now >= deadline:
                    timed_out = True
                    proc.kill()  # also ends a stopped child
                    break
                if sel.select(wake - now):
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        break
                    digest.update(chunk)
                    if keep:
                        kept.append(chunk)
                elif wake < deadline:
                    os.kill(proc.pid, signal.SIGSTOP)
                    segments.append(time.perf_counter() - running_since)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):
                        reaped = status, usage
                        continue  # read what is left in the pipe
                    refs.append(statistics.mean(host_reference_s(SLICE_REF_REPEATS)))
                    os.kill(proc.pid, signal.SIGCONT)
                    running_since = time.perf_counter()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        if reaped is None:
            _, status, usage = os.wait4(proc.pid, 0)
            segments.append(time.perf_counter() - running_since)
        else:
            status, usage = reaped
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        time.perf_counter() - start if timed_out else sum(segments),
        usage.ru_maxrss / 1024,  # KiB on Linux
        None if timed_out else proc.returncode,
        digest.hexdigest(),
        b"".join(kept),
        segments,
        refs,
    )


def host_reference_s(repeats: int = HOST_REF_REPEATS) -> list[float]:
    """Timings of a fixed pure-Python loop: the host's current speed,
    recorded with every run so drift shows."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        timings.append(time.perf_counter() - start)
    return timings


def at_nominal_speed(segments: list[float], refs: list[float]) -> float:
    """The time of ``segments`` on a host where the reference loop takes
    ``HOST_NOMINAL_S``, where segment k ran between the reference loop
    timings ``refs[k]`` and ``refs[k + 1]``."""
    if len(refs) != len(segments) + 1:
        raise ValueError("each segment needs a reference timing on both sides")
    return sum(
        t * HOST_NOMINAL_S / ((before + after) / 2)
        for t, before, after in zip(segments, refs, refs[1:])
    )


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "latdeg").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def probe(wl: Workload, deadline: float) -> tuple[Sample, dict]:
    """One fresh-interpreter set-up; fails loudly unless latdeg came from
    this checkout's src/."""
    sample = run_child(
        [sys.executable, str(HERE / "setup_probe.py"), *wl.argv], deadline, keep=True
    )
    if sample.exit_code != 0:
        raise BenchError(
            f"set-up probe exited {sample.exit_code}; see {OUT / 'child.stderr'}"
        )
    info = json.loads(sample.stdout.decode().strip().splitlines()[-1])
    expected = SRC / "latdeg"
    if Path(info["latdeg_file"]).resolve().parent != expected.resolve():
        raise BenchError(
            f"latdeg was imported from {info['latdeg_file']}, not from {expected}"
        )
    return sample, info


def cli_cmd(wl: Workload) -> list[str]:
    return [sys.executable, "-m", "latdeg.cli", *wl.argv]


def sample_ok(wl: Workload, sample: Sample) -> bool:
    return sample.exit_code == wl.exit_code and sample.sha256 == wl.sha256


def fits(start: float, seconds: float, spans: list[float], deadline: float) -> bool:
    """Whether one more step, as long as the median so far, ends in time."""
    now = time.perf_counter()
    need = statistics.median(spans)
    return now - start + need <= seconds and now + 1.5 * need <= deadline


def measure(wl: Workload, seconds: float, deadline: float) -> dict:
    # slot i is set-up probes and one sliced invocation, between the
    # reference timings refs[i] and refs[i + 1]
    refs = [host_reference_s()]
    setups, samples, slot_s = [], [], []
    start = time.perf_counter()
    while not samples or fits(start, seconds, slot_s, deadline):
        began = time.perf_counter()
        probes = [probe(wl, deadline) for _ in range(SETUP_REPEATS)]
        setups.append([sample.wall_s for sample, _ in probes])
        samples.append(run_child(cli_cmd(wl), deadline, sliced=True))
        refs.append(host_reference_s())
        slot_s.append(time.perf_counter() - began)
    info = probes[-1][1]
    walls, scaled_walls, scaled_setups = [], [], []
    for i, (sample, times) in enumerate(zip(samples, setups)):
        before, after = statistics.median(refs[i]), statistics.median(refs[i + 1])
        walls.append(sample.wall_s)
        stops = [before, *sample.refs, after]
        scaled_walls.append(at_nominal_speed(sample.segments, stops))
        scaled_setups += [at_nominal_speed([t], [before, before]) for t in times]
    return {
        "info": info,
        "attempted": len(samples),
        "failed": sum(not sample_ok(wl, s) for s in samples),
        "checks": {},
        "metrics": {
            "wall_s": statistics.mean(scaled_walls),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            "setup_s": statistics.median(scaled_setups),
        },
        "samples": {
            "wall_s": scaled_walls,
            "measured_wall_s": walls,
            "peak_rss_mb": [s.rss_mb for s in samples],
            "measured_setup_s": [t for ts in setups for t in ts],
        },
        "host_ref_s": refs,
        "stop_ref_s": [s.refs for s in samples],
        "absent": [],
    }


def measure_traced(wl: Workload, seconds: float, deadline: float) -> dict:
    refs = [host_reference_s()]
    _, info = probe(wl, deadline)
    layertrace = _import_in_process()
    start = time.perf_counter()
    untraced = layertrace.run_main(list(wl.argv), traced=False)
    runs = []
    while not runs or (
        len(runs) < MAX_TRACED_RUNS
        and fits(start, seconds, [untraced.wall_s, *(r.wall_s for r in runs)], deadline)
    ):
        runs.append(layertrace.run_main(list(wl.argv)))
    first = runs[0]
    checks = {
        "traced stdout equals untraced": all(r.sha256 == untraced.sha256 for r in runs),
        "counts repeat between traced runs": all(r.counts == first.counts for r in runs),
    }
    metrics = dict(first.counts)
    for name in first.times:
        metrics[name] = statistics.median(r.times[name] for r in runs)
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced.wall_s
    return {
        "info": info,
        "attempted": 1 + len(runs),
        "failed": sum(not sample_ok(wl, r) for r in [untraced, *runs]),
        "checks": checks,
        "metrics": metrics,
        "samples": {"trace.wall_s": [r.wall_s for r in runs]},
        "host_ref_s": [*refs, host_reference_s()],
        "stop_ref_s": [],
        "absent": first.absent,
    }


def _import_in_process():
    """Import latdeg in this process from the checkout, as the children do."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import latdeg
    import layertrace

    if Path(latdeg.__file__).resolve().parent != (SRC / "latdeg").resolve():
        raise BenchError(f"latdeg was imported from {latdeg.__file__}, not from {SRC}")
    return layertrace


def declared(key: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    deadline = time.perf_counter() + HARD_LIMIT_S
    result = (measure_traced if trace else measure)(wl, seconds, deadline)
    metrics = result["metrics"]
    metrics["host.ref_s"] = statistics.median(t for ts in result["host_ref_s"] for t in ts)
    units = {m["name"]: m["unit"] for m in declared("per_layer" if trace else "end_to_end")}
    missing = [m for m in units if m not in metrics]
    if missing:
        raise BenchError(f"BENCHMARK.json declares metrics this run does not make: {missing}")
    correct = result["failed"] == 0 and all(result["checks"].values())
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": name,
        "argv": list(wl.argv),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "latdeg_file": result["info"]["latdeg_file"],
        "backend": result["info"]["backend"],
        "python": result["info"]["python"],
        "platform": platform.platform(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "host_ref_s": result["host_ref_s"],
        "stop_ref_s": result["stop_ref_s"],
        "host_nominal_s": HOST_NOMINAL_S,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "checks": result["checks"],
        "absent": result["absent"],
        "samples": result["samples"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    _print_summary(record, units)
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def _print_summary(record: dict, units: dict[str, str]) -> None:
    print(
        f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"backend {record['backend']}  python {record['python']}  "
        f"nproc {record['nproc']}  commit {record['commit'][:12]}  "
        f"src {record['src_sha256'][:12]}"
    )
    print(f"   latdeg imported from {record['latdeg_file']}")
    refs = [t for ts in record["host_ref_s"] for t in ts]
    print(
        f"   host reference loop over {len(refs)} timings: min {min(refs):.4f}, "
        f"median {statistics.median(refs):.4f}, max {max(refs):.4f} s"
    )
    if not record["trace"]:
        print(
            f"   wall_s (mean) and setup_s (median) come from measured_*, each "
            f"scaled to a host where the loop takes {HOST_NOMINAL_S} s"
        )
    for name, unit in units.items():
        value = record["metrics"][name]
        tag = "  (absent)" if name in record["absent"] else ""
        print(f"   {name:<40} {value:>14.6g} {unit}{tag}")
    for name, values in record["samples"].items():
        print(
            f"   {name} over {len(values)} runs: min {min(values):.4f}, "
            f"median {statistics.median(values):.4f}, max {max(values):.4f}"
        )
    print(
        f"   failed_frac {record['failed_frac']:.3f} "
        f"({record['failed']} of {record['attempted']} runs failed)"
    )
    for check, ok in record["checks"].items():
        print(f"   check {check}: {'ok' if ok else 'FAILED'}")
    print(f"   correct: {'yes' if record['correct'] else 'NO'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latdeg" / "__init__.py").is_file():
        print(f"error: no latdeg sources at {SRC}", file=sys.stderr)
        return 2
    names = (
        [w["name"] for w in declared("workloads")] if args.workload == "all" else [args.workload]
    )
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
