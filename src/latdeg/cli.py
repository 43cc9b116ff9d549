"""Command-line front end.

Two subcommands:

* ``degrees`` computes the degree vector of each requested group and
  emits a JSON or CSV report.
* ``verify`` runs the claim registry over the requested groups (or all
  built-in instances up to an order) and emits the result table.

Group specs follow the grammar ``atom ("x" atom)*`` with atoms
``C(n)``, ``D(n)``, ``S(n)``, ``Q8``, ``M(p,m)``; family letters are
case-insensitive and whitespace is ignored.  Exit codes: 0 success,
1 a verified claim failed, 2 usage/parse/domain error, 3 order cap or
budget exceeded.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from latdeg import characters, claims, degrees
from latdeg.degrees import BudgetExceeded
from latdeg.groups import (
    Group,
    OrderCapExceeded,
    direct_product,
    make_cyclic,
    make_dihedral,
    make_modular,
    make_quaternion,
    make_symmetric,
    order_cap,
)
from latdeg.lattice import enumerate_subgroups

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class GroupSpecError(ValueError):
    """Parse or domain error in a group spec; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Atom:
    family: str
    params: tuple[int, ...]

    @property
    def label(self) -> str:
        if self.family == "Q8":
            return "Q8"
        return f"{self.family}({','.join(str(p) for p in self.params)})"


@dataclass(frozen=True)
class GroupSpec:
    atoms: tuple[Atom, ...]

    @property
    def label(self) -> str:
        return " x ".join(a.label for a in self.atoms)

    def build(self, cap: int | None = None) -> Group:
        built = [_build_atom(a, cap) for a in self.atoms]
        group = built[0]
        for extra in built[1:]:
            group = direct_product(group, extra, cap=cap)
        return group


def _build_atom(atom: Atom, cap: int | None) -> Group:
    if atom.family == "C":
        return make_cyclic(atom.params[0], cap=cap)
    if atom.family == "D":
        return make_dihedral(atom.params[0], cap=cap)
    if atom.family == "S":
        return make_symmetric(atom.params[0], cap=cap)
    if atom.family == "M":
        return make_modular(atom.params[0], atom.params[1], cap=cap)
    return make_quaternion(cap=cap)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``atom ('x' atom)*`` with positions in error messages."""
    pos = 0
    atoms: list[Atom] = []

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch: str):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            raise GroupSpecError(f"expected {ch!r}", pos)
        pos += 1

    def read_int() -> int:
        nonlocal pos
        skip_ws()
        m = re.match(r"\d+", text[pos:])
        if not m:
            raise GroupSpecError("expected an integer", pos)
        pos += m.end()
        return int(m.group())

    def read_atom() -> Atom:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise GroupSpecError("expected a group atom", pos)
        m = re.match(r"[A-Za-z]+\d*", text[pos:])
        if not m:
            raise GroupSpecError(f"unexpected character {text[pos]!r}", pos)
        name = m.group().upper()
        start = pos
        pos += m.end()
        if name == "Q8":
            return Atom("Q8", ())
        if name not in ("C", "D", "S", "M"):
            raise GroupSpecError(f"unknown group family {m.group()!r}", start)
        expect("(")
        first = read_int()
        if name == "M":
            expect(",")
            second = read_int()
            expect(")")
            return Atom("M", (first, second))
        expect(")")
        return Atom(name, (first,))

    atoms.append(read_atom())
    while True:
        skip_ws()
        if pos >= len(text):
            break
        if text[pos] in ("x", "X"):
            pos += 1
            atoms.append(read_atom())
        else:
            raise GroupSpecError(f"unexpected character {text[pos]!r}", pos)
    return GroupSpec(tuple(atoms))


def _approx12(value: Fraction) -> str:
    """Round-half-even decimal expansion with exactly 12 places."""
    scale = 10**12
    q, r = divmod(value.numerator * scale, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q % 2):
        q += 1
    return f"{q // scale}.{q % scale:012d}"


def _rational_obj(value: Fraction | int) -> dict:
    f = Fraction(value)
    return {
        "num": str(f.numerator),
        "den": str(f.denominator),
        "approx": _approx12(f),
    }


def _degrees_entry(spec: GroupSpec, n_max: int, cap: int | None) -> dict:
    group = spec.build(cap)
    lat = enumerate_subgroups(group, cap=cap)
    full = group.full_subgroup()
    return {
        "group": spec.label,
        "order": group.order,
        "lattice_size": len(lat),
        "class_count": characters.class_count(group),
        "d": _rational_obj(degrees.d_group(group)),
        "sd": _rational_obj(degrees.sd_group(group, lat)),
        "ssd": _rational_obj(degrees.ssd_group(group, lat)),
        "ssd_n": [
            _rational_obj(
                degrees.ssd_multi(group, lat, full, n, n_cap=max(4, n_max))
            )
            for n in range(1, n_max + 1)
        ],
    }


def _degrees_csv(entries: list[dict], n_max: int) -> str:
    buf = io.StringIO()
    fields = ["group", "order", "lattice_size", "class_count"]
    for name in ("d", "sd", "ssd"):
        fields += [f"{name}_num", f"{name}_den", f"{name}_approx"]
    for n in range(1, n_max + 1):
        fields += [f"ssd{n}_num", f"ssd{n}_den", f"ssd{n}_approx"]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for e in entries:
        row = [e["group"], e["order"], e["lattice_size"], e["class_count"]]
        for name in ("d", "sd", "ssd"):
            row += [e[name]["num"], e[name]["den"], e[name]["approx"]]
        for item in e["ssd_n"]:
            row += [item["num"], item["den"], item["approx"]]
        writer.writerow(row)
    return buf.getvalue()


def _result_obj(r: claims.ClaimResult) -> dict:
    return {
        "claim": r.claim_id,
        "group": r.group_label,
        "instance": r.instance,
        "applicable": r.applicable,
        "holds": r.holds,
        "strict": r.strict_observed,
        "lhs": None if r.lhs is None else _rational_obj(r.lhs),
        "rhs": None if r.rhs is None else _rational_obj(r.rhs),
        "witnesses": list(r.witnesses),
        "note": r.note,
    }


def _verify_csv(results: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "claim", "group", "instance", "applicable", "holds", "strict",
            "lhs_num", "lhs_den", "lhs_approx",
            "rhs_num", "rhs_den", "rhs_approx",
            "witnesses", "note",
        ]
    )

    def flag(v):
        return "" if v is None else ("true" if v else "false")

    for r in results:
        lhs = r["lhs"] or {"num": "", "den": "", "approx": ""}
        rhs = r["rhs"] or {"num": "", "den": "", "approx": ""}
        writer.writerow(
            [
                r["claim"], r["group"], r["instance"],
                flag(r["applicable"]), flag(r["holds"]), flag(r["strict"]),
                lhs["num"], lhs["den"], lhs["approx"],
                rhs["num"], rhs["den"], rhs["approx"],
                ";".join(r["witnesses"]), r["note"] or "",
            ]
        )
    return buf.getvalue()


def _error(message: object, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _failure(exc: ValueError) -> int:
    if isinstance(exc, (OrderCapExceeded, BudgetExceeded)):
        return _error(exc, EXIT_BUDGET)
    return _error(exc, EXIT_USAGE)


def _settings(args: argparse.Namespace) -> int:
    """Effective order cap; ValueError on a bad --n-max or cap setting."""
    if args.n_max < 0:
        raise ValueError(f"--n-max must be at least 0, got {args.n_max}")
    return order_cap(args.order_cap)


def _emit(text: str, out_path: str | None) -> int:
    if not out_path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        return _error(f"cannot write {out_path}: {exc.strerror or exc}", EXIT_USAGE)
    return EXIT_OK


def cmd_degrees(args: argparse.Namespace) -> int:
    try:
        cap = _settings(args)
        specs = [parse_group_spec(text) for text in args.group]
        entries = [_degrees_entry(spec, args.n_max, cap) for spec in specs]
    except ValueError as exc:
        return _failure(exc)
    if args.format == "json":
        return _emit(json.dumps(entries, indent=2) + "\n", args.out)
    return _emit(_degrees_csv(entries, args.n_max), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    claim_filter = None
    if args.claims:
        claim_filter = [c.strip() for c in args.claims.split(",") if c.strip()]
    try:
        cap = _settings(args)
        if args.all_up_to is not None:
            groups = claims.builtin_groups_up_to(args.all_up_to, cap=cap)
        else:
            groups = [parse_group_spec(text).build(cap) for text in args.group]
        report = claims.run_suite(
            groups,
            claim_filter=claim_filter,
            params={"n_max": args.n_max, "order_cap": cap},
        )
    except ValueError as exc:
        return _failure(exc)
    results = [_result_obj(r) for r in report.results]
    if args.format == "json":
        code = _emit(json.dumps(results, indent=2) + "\n", args.out)
    else:
        code = _emit(_verify_csv(results), args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if report.all_hold else EXIT_CLAIM_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latdeg",
        description="Exact subgroup-lattice commutativity degrees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--n-max", type=int, default=3, help="depth for the iterated degrees"
    )
    common.add_argument(
        "--order-cap", type=int, default=None,
        help="group order cap (default 200, or LATDEG_ORDER_CAP)",
    )
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    common.add_argument("--out", default=None, help="write the report to a file")

    p_deg = sub.add_parser(
        "degrees", parents=[common], help="compute degree vectors"
    )
    p_deg.add_argument(
        "--group", "-g", action="append", required=True,
        help="group spec, e.g. 'D(3) x C(5)' (repeatable)",
    )
    p_deg.set_defaults(func=cmd_degrees)

    p_ver = sub.add_parser(
        "verify", parents=[common], help="run the claim registry"
    )
    target = p_ver.add_mutually_exclusive_group(required=True)
    target.add_argument("--group", "-g", action="append", help="group spec (repeatable)")
    target.add_argument(
        "--all-up-to", type=int, metavar="ORDER",
        help="verify every built-in family instance of order <= ORDER",
    )
    p_ver.add_argument("--claims", default=None, help="comma-separated claim ids")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
