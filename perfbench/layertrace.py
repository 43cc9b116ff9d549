"""Per-layer spans and counters for one in-process run of the latdeg CLI.

Nothing under ``src/`` knows about this tracer.  It replaces public
functions of each module, for the length of one run, by wrappers that
record a span (name, duration, the span that called it) and a call count.
Every wrapped function comes from the single ``SPANS`` table.  A row whose
module or function no longer exists is reported as absent, with its
metrics at 0, so a later refactor that moves or deletes a function loses
that layer's numbers but does not break the benchmark.

Every time metric is a self time: the layer's spans' total duration minus
the time covered by the spans they called, so ``lattice.enumerate_s`` is
the enumeration loop without the ``kernels.closure_mask.s`` it calls.
``cli.main`` is itself a span, so the self times add up to the traced
wall time; the rest is ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import io
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from typing import Callable, NamedTuple

KERNELS = (
    "closure_mask",
    "product_mask",
    "commutator_closure_mask",
    "centralizer_mask",
    "sum_centralizer_orders",
    "count_trivial_iterated_commutators",
    "count_commuting_pairs",
    "conjugacy_class_ids",
    "is_normal_mask",
    "prepare_table",
)

CLAIM_IDS = tuple(f"C{i}" for i in range(1, 21))


def _count_subgroups(counters, args, kwargs, lattice) -> None:
    counters["lattice.subgroups"] += len(lattice)


def _count_tuples(counters, args, kwargs, value) -> None:
    # d_multi(g, n, *, within=None): |within|^(n+1) tuples are enumerated
    group, n = args[0], args[1]
    within = kwargs.get("within")
    size = within.size if within is not None else group.order
    counters["degrees.d_multi_tuples"] += size ** (n + 1)


def _count_results(counters, args, kwargs, results) -> None:
    counters["claims.results"] += len(results)
    counters["claims.skipped"] += sum(
        1 for r in results if (r.note or "").startswith("skipped")
    )


class Span(NamedTuple):
    module: str
    attr: str
    time_metric: str  # self time; "{}" is filled with the first argument
    calls_metric: str | None = None
    on_return: Callable | None = None


SPANS: tuple[Span, ...] = (
    Span("latdeg.cli", "main", "cli.report_s"),
    *(
        Span("latdeg.groups", attr, "groups.build_s")
        for attr in (
            "make_cyclic",
            "make_dihedral",
            "make_symmetric",
            "make_quaternion",
            "make_modular",
            "direct_product",
        )
    ),
    Span("latdeg.groups", "quotient", "groups.quotient_s", "groups.quotient_calls"),
    Span(
        "latdeg.lattice",
        "enumerate_subgroups",
        "lattice.enumerate_s",
        "lattice.enumerate_calls",
        _count_subgroups,
    ),
    Span("latdeg.lattice", "normal_subgroups", "lattice.normal_s"),
    Span("latdeg.degrees", "perm_rows", "degrees.perm_rows_s"),
    Span("latdeg.degrees", "phi_rows", "degrees.phi_rows_s"),
    Span("latdeg.degrees", "bracket_table", "degrees.bracket_table_s"),
    Span("latdeg.degrees", "ssd_multi", "degrees.ssd_multi_s", "degrees.ssd_multi_calls"),
    Span("latdeg.degrees", "d_multi", "degrees.d_multi_s", None, _count_tuples),
    Span("latdeg.degrees", "d_pair", "degrees.d_pair_s", "degrees.d_pair_calls"),
    Span("latdeg.degrees", "d_group", "degrees.d_group_s"),
    Span("latdeg.characters", "xi", "characters.xi_s", "characters.xi_calls"),
    Span("latdeg.characters", "class_count", "characters.class_count_s"),
    # one span per (claim, group) runner call, named by its claim id
    Span("latdeg.claims", "_run_one", "claims.{}.self_s", None, _count_results),
    *(
        Span("latdeg._kernels", k, f"kernels.{k}.s", f"kernels.{k}.calls")
        for k in KERNELS
    ),
)

# metrics computed from counters, with the spans they need
DERIVED: dict[str, tuple[str, ...]] = {
    "lattice.subgroups": ("lattice.enumerate_s",),
    "lattice.closure_calls": ("lattice.enumerate_s", "kernels.closure_mask.s"),
    "lattice.closure_yield": ("lattice.enumerate_s", "kernels.closure_mask.s"),
    "degrees.bracket_entries": (
        "degrees.bracket_table_s",
        "kernels.commutator_closure_mask.s",
    ),
    "degrees.d_multi_tuples": ("degrees.d_multi_s",),
    "claims.results": ("claims.C1.self_s",),
    "claims.skipped": ("claims.C1.self_s",),
    "claims.skip_ratio": ("claims.C1.self_s",),
}


def _span_metrics(span: Span) -> list[str]:
    names = (
        [span.time_metric.format(c) for c in CLAIM_IDS]
        if "{}" in span.time_metric
        else [span.time_metric]
    )
    return names + ([span.calls_metric] if span.calls_metric else [])


def _is_wrappable_home(name: str) -> bool:
    # calls inside a backend module are that kernel's own business; only
    # calls through the package's modules are layer boundaries
    return name == "latdeg" or (
        name.startswith("latdeg.") and not name.startswith("latdeg._kernels.")
    )


class Tracer:
    """Spans and counters of one traced run; install, run, remove."""

    def __init__(self):
        self.stack: list[list] = []  # [span name, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.under: Counter[tuple[str, str | None]] = Counter()
        self.counters: Counter[str] = Counter()
        self.absent: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for span in SPANS:
            try:
                module = importlib.import_module(span.module)
            except ImportError:
                self.absent.append(span)
                continue
            original = getattr(module, span.attr, None)
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(original, span)
            # rebind every module-level name that refers to the function,
            # including ``from ... import`` copies in other modules
            for modname, mod in list(sys.modules.items()):
                if mod is None or not _is_wrappable_home(modname):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, span: Span):
        stack, self_s, calls, under = self.stack, self.self_s, self.calls, self.under
        counters = self.counters
        templated = "{}" in span.time_metric
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span.time_metric.format(args[0]) if templated else span.time_metric
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[1]
                calls[name] += 1
                under[name, parent] += 1
                if stack:
                    stack[-1][1] += duration
            if span.on_return is not None:
                span.on_return(counters, args, kwargs, result)
            return result

        return traced

    def metrics(self, wall_s: float) -> tuple[dict[str, float], dict[str, float], list[str]]:
        """(time metrics, count metrics, absent metric names)."""
        times: dict[str, float] = {}
        counts: dict[str, float] = {}
        for span in SPANS:
            for name in _span_metrics(span):
                if name == span.calls_metric:
                    counts[name] = self.calls[span.time_metric]
                else:
                    times[name] = self.self_s[name]
        counts["lattice.subgroups"] = self.counters["lattice.subgroups"]
        closures = self.under["kernels.closure_mask.s", "lattice.enumerate_s"]
        counts["lattice.closure_calls"] = closures
        counts["lattice.closure_yield"] = (
            counts["lattice.subgroups"] / closures if closures else 0.0
        )
        counts["degrees.bracket_entries"] = self.under[
            "kernels.commutator_closure_mask.s", "degrees.bracket_table_s"
        ]
        counts["degrees.d_multi_tuples"] = self.counters["degrees.d_multi_tuples"]
        results = self.counters["claims.results"]
        counts["claims.results"] = results
        counts["claims.skipped"] = self.counters["claims.skipped"]
        counts["claims.skip_ratio"] = (
            self.counters["claims.skipped"] / results if results else 0.0
        )
        times["trace.wall_s"] = wall_s
        times["trace.unattributed_s"] = wall_s - sum(self.self_s.values())

        present = {
            name
            for span in SPANS
            if span not in self.absent
            for name in _span_metrics(span)
        }
        absent = sorted(
            {n for span in self.absent for n in _span_metrics(span)} - present
        )
        absent += [d for d, needs in DERIVED.items() if not present.issuperset(needs)]
        for name in absent:
            (times if name in times else counts)[name] = 0
        return times, counts, absent


class CliRun(NamedTuple):
    exit_code: int
    sha256: str
    wall_s: float
    times: dict[str, float]
    counts: dict[str, float]
    absent: list[str]


def run_main(argv: list[str], traced: bool = True) -> CliRun:
    """Run ``latdeg.cli.main(argv)`` in this process, with every span in
    ``SPANS`` installed when ``traced``; stdout is captured and hashed,
    not printed."""
    from latdeg import cli

    tracer = Tracer()
    if traced:
        tracer.install()
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            start = time.perf_counter()
            code = cli.main(list(argv))
            wall = time.perf_counter() - start
    finally:
        tracer.remove()
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    times, counts, absent = tracer.metrics(wall) if traced else ({}, {}, [])
    return CliRun(code, digest, wall, times, counts, absent)
