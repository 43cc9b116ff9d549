"""Command-line front end.

Two subcommands:

* ``degrees`` computes the degree vector of each requested group and
  emits a JSON or CSV report.
* ``verify`` runs the claim registry over the requested groups (or all
  built-in instances up to an order) and emits the result table.

Group specs follow the grammar ``atom ("x" atom)*`` with atoms
``C(n)``, ``D(n)``, ``S(n)``, ``Q8``, ``M(p,m)``; family letters are
case-insensitive and whitespace is ignored.  Exit codes: 0 success,
1 a verified claim failed, 2 usage/parse/domain error, 3 order cap
exceeded or ``--n-max`` above the depth cap of 4.  Identical
invocations produce byte-identical output.

Every integer typed on the command line, a flag's value or a spec
literal, is read by one reader, so each refusal is one ``error:`` line
that names a value too long for ``int()`` by its digit count.

Reports are written by one formatter.  The JSON and CSV writers of both
subcommands read the claim results and degree entries as they are, and
each writer flattens every rational through the memo to its
num/den/approx strings.  The writers are
generators of text chunks, and a report is streamed: only the current
slice of its text is held, never the whole.  They format the text
directly.  JSON strings are escaped by the C function that
``json.dumps`` uses and CSV fields are quoted as ``csv.writer`` quotes
them, so the output stays byte-identical to the earlier
``json.dumps(records, indent=2)`` and ``csv.writer`` layouts.  A CSV
field that holds a carriage return is quoted too, as every Python
version's ``csv.writer`` quotes it with "\\r\\n" line ends; rows end
with "\\n".
"""

from __future__ import annotations

import argparse
import codecs
import errno
import functools
import os
import re
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING, NamedTuple

from latdeg import characters, degrees
from latdeg.degrees import BudgetExceeded
from latdeg.groups import (
    FAMILIES,
    Group,
    OrderCapExceeded,
    _parameter,
    builtin_families_up_to,
    check_cap,
    check_family,
    direct_product,
    family_label,
    make_family,
    order_cap,
)
from latdeg.lattice import enumerate_subgroups

if TYPE_CHECKING:
    from latdeg.claims import ClaimResult

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

REPORT_SLICE = 1 << 15  # least characters per write; a slice fits a 64 KiB pipe buffer
REPORT_MEMO = 128  # flattened rationals kept for reuse, the most recently used


class GroupSpecError(ValueError):
    """Parse or domain error in a group spec; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GroupSpec(NamedTuple):
    atoms: tuple[tuple, ...]  # family tuples, as a group's ``family`` holds them

    @property
    def label(self) -> str:
        return " x ".join(map(family_label, self.atoms))

    def build(self, cap: int | None = None) -> Group:
        built = [make_family(family, cap=cap) for family in self.atoms]
        group = built[0]
        for extra in built[1:]:
            group = direct_product(group, extra, cap=cap)
        return group

    def check(self, cap: int | None = None) -> GroupSpec:
        """This spec, once it has raised what :meth:`build` would raise
        (a parameter outside its family, an order above the cap), in the
        same order; no table is built."""
        orders = [check_family(family, cap)[1] for family in self.atoms]
        order = orders[0]
        for k in range(1, len(orders)):
            order *= orders[k]
            check_cap(order, cap, " x ".join(map(family_label, self.atoms[: k + 1])))
        return self


_INTEGER = re.compile(r"\d+")
_FAMILY_NAME = re.compile(r"[A-Za-z]+\d*")


def _integer(text: str, what: str) -> int:
    """``text`` read as ``int()`` reads it; ValueError naming ``what`` if it
    is not an integer, or, by its digit count without ``_`` separators, if
    it has more digits than ``int()`` converts."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        groups = digits.split("_")  # int() reads one "_" between two digits
        if all(map(str.isdecimal, groups)):  # more digits than int() converts
            count = sum(map(len, groups))
            raise ValueError(f"{what} of {count} digits is too long") from None
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``atom ('x' atom)*`` with positions in error messages."""
    pos = 0
    atoms: list[tuple] = []

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
        m = _INTEGER.match(text, pos)
        if not m:
            raise GroupSpecError("expected an integer", pos)
        try:
            value = _integer(m.group(), "integer literal")
        except ValueError as exc:
            raise GroupSpecError(str(exc), pos) from None
        pos = m.end()
        return value

    def read_atom() -> tuple:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise GroupSpecError("expected a group atom", pos)
        m = _FAMILY_NAME.match(text, pos)
        if not m:
            raise GroupSpecError(f"unexpected character {text[pos]!r}", pos)
        name = m.group().upper()
        if name not in FAMILIES:
            raise GroupSpecError(f"unknown group family {m.group()!r}", pos)
        pos = m.end()
        params = []
        for k in range(FAMILIES[name][0]):
            expect("," if k else "(")
            params.append(read_int())
        if params:
            expect(")")
        return (name, *params)

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


def _approx12(value: Fraction | int) -> str:
    """Decimal expansion with exactly 12 places: the magnitude rounded
    half to even, then the sign of ``value``."""
    scale = 10**12
    num, den = value.numerator, value.denominator
    q, r = divmod(abs(num) * scale, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    sign = "-" if num < 0 else ""
    return f"{sign}{q // scale}.{q % scale:012d}"


Rational = tuple[str, str, str]
_JSON_FLAG = {None: "null", True: "true", False: "false"}
_CSV_FLAG = {None: "", True: "true", False: "false"}
_NO_RATIONAL: Rational = ("", "", "")


def _rational(value: Fraction | int | None) -> Rational | None:
    """``value`` flattened to its report strings: num, den, approx; None
    stays None.

    A report repeats few values many times (verify-48: 34,400 sides,
    1,388 distinct), mostly close together, so the strings come from a
    memo of the REPORT_MEMO most recently used values.  It is keyed by
    the integer pair, which hashes far faster than a Fraction.
    """
    if value is None:
        return None
    return _flattened(value.numerator, value.denominator)


@functools.lru_cache(maxsize=REPORT_MEMO)
def _flattened(num: int, den: int) -> Rational:
    return str(num), str(den), _approx12(Fraction(num, den))


def _rational_json(value: Fraction | int | None, pad: str) -> str:
    """``value`` flattened as a JSON object closed at indentation ``pad``,
    or null.

    Its strings hold only digits, ``-`` and ``.``, which JSON does not
    escape.
    """
    r = _rational(value)
    if r is None:
        return "null"
    return (
        f'{{\n{pad}  "num": "{r[0]}",\n{pad}  "den": "{r[1]}",\n'
        f'{pad}  "approx": "{r[2]}"\n{pad}}}'
    )


def _json_list(items: list[str], pad: str) -> str:
    """JSON ``items`` as a list closed at indentation ``pad``."""
    if not items:
        return "[]"
    return "[\n" + pad + "  " + (",\n" + pad + "  ").join(items) + "\n" + pad + "]"


def _json_report(records: Iterable[str]) -> Iterator[str]:
    """A report's JSON text from its formatted ``records``: ``[``, the
    separators and ``]`` are emitted around each record, which is never
    joined to the others."""
    sep = "[\n  "
    for record in records:
        yield sep
        yield record
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _csv_str(text: str) -> str:
    """``text`` as a CSV field: quoted, its quotes doubled, if it holds a
    comma, a quote, a line feed or a carriage return, as ``csv.writer``
    quotes it with "\\r\\n" line ends (an unquoted CR would split the
    record when it is read back)."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _degrees_entry(spec: GroupSpec, n_max: int, cap: int | None) -> tuple:
    """One group's report entry: label, order, lattice size, class
    count, then d, sd, ssd and the list ssd_1..ssd_n_max."""
    group = spec.build(cap)
    lat = enumerate_subgroups(group, cap=cap)
    full = group.full_subgroup()
    return (
        spec.label,
        group.order,
        len(lat),
        characters.class_count(group),
        degrees.d_group(group),
        degrees.sd_group(lat),
        degrees.ssd_group(lat),
        [degrees.ssd_multi(lat, full, n) for n in range(1, n_max + 1)],
    )


def _degrees_json(entries: Iterable[tuple]) -> Iterator[str]:
    return _json_report(
        f'{{\n    "group": {_json_str(label)},\n    "order": {order},\n'
        f'    "lattice_size": {size},\n    "class_count": {classes},\n'
        f'    "d": {_rational_json(d, "    ")},\n'
        f'    "sd": {_rational_json(sd, "    ")},\n'
        f'    "ssd": {_rational_json(ssd, "    ")},\n'
        f'    "ssd_n": '
        f'{_json_list([_rational_json(r, "      ") for r in ssd_n], "    ")}'
        f"\n  }}"
        for label, order, size, classes, d, sd, ssd, ssd_n in entries
    )


def _degrees_csv(entries: Iterable[tuple], n_max: int) -> Iterator[str]:
    fields = ["group", "order", "lattice_size", "class_count"]
    for name in ("d", "sd", "ssd"):
        fields += [f"{name}_num", f"{name}_den", f"{name}_approx"]
    for n in range(1, n_max + 1):
        fields += [f"ssd{n}_num", f"ssd{n}_den", f"ssd{n}_approx"]
    yield ",".join(fields) + "\n"
    yield from (
        ",".join(
            [
                _csv_str(label), str(order), str(size), str(classes),
                *_rational(d), *_rational(sd), *_rational(ssd),
                *chain.from_iterable(map(_rational, ssd_n)),
            ]
        )
        + "\n"
        for label, order, size, classes, d, sd, ssd, ssd_n in entries
    )


def _verify_json(results: Iterable[ClaimResult]) -> Iterator[str]:
    return _json_report(
        f'{{\n    "claim": {_json_str(claim)},\n'
        f'    "group": {_json_str(group)},\n'
        f'    "instance": {_json_str(instance)},\n'
        f'    "applicable": {_JSON_FLAG[applicable]},\n'
        f'    "holds": {_JSON_FLAG[holds]},\n'
        f'    "strict": {_JSON_FLAG[strict]},\n'
        f'    "lhs": {_rational_json(lhs, "    ")},\n'
        f'    "rhs": {_rational_json(rhs, "    ")},\n'
        f'    "witnesses": '
        f'{_json_list([_json_str(w) for w in witnesses], "    ")},\n'
        f'    "note": {"null" if note is None else _json_str(note)}\n  }}'
        for claim, group, instance, applicable, holds, lhs, rhs, strict,
        witnesses, note in results
    )


def _verify_csv(results: Iterable[ClaimResult]) -> Iterator[str]:
    yield (
        "claim,group,instance,applicable,holds,strict,"
        "lhs_num,lhs_den,lhs_approx,rhs_num,rhs_den,rhs_approx,witnesses,note\n"
    )
    yield from (
        ",".join(
            [
                _csv_str(claim), _csv_str(group), _csv_str(instance),
                _CSV_FLAG[applicable], _CSV_FLAG[holds], _CSV_FLAG[strict],
                *(_rational(lhs) or _NO_RATIONAL), *(_rational(rhs) or _NO_RATIONAL),
                _csv_str(";".join(witnesses)), _csv_str(note or ""),
            ]
        )
        + "\n"
        for claim, group, instance, applicable, holds, lhs, rhs, strict,
        witnesses, note in results
    )


def _error(message: object, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _failure(exc: ValueError) -> int:
    if isinstance(exc, (OrderCapExceeded, BudgetExceeded)):
        return _error(exc, EXIT_BUDGET)
    return _error(exc, EXIT_USAGE)


def _settings(args: argparse.Namespace) -> tuple[int, int]:
    """(depth, effective order cap) read from the text of --n-max and
    --order-cap; ValueError on a bad one, before any group is built."""
    n_max = _integer(args.n_max, "--n-max")
    cap = None if args.order_cap is None else _integer(args.order_cap, "--order-cap")
    return degrees.check_n_max(n_max, "--n-max"), order_cap(cap)


def _slices(chunks: Iterable[str]) -> Iterator[str]:
    """The text of ``chunks`` in slices: the chunks joined once they hold
    at least REPORT_SLICE characters, so a slice is longer by less than
    one chunk (a record); the last is shorter and may be empty."""
    held: list[str] = []
    count = 0
    for chunk in chunks:
        held.append(chunk)
        count += len(chunk)
        if count >= REPORT_SLICE:
            yield "".join(held)
            held.clear()
            count = 0
    yield "".join(held)


def _write_stdout(chunks: Iterable[str]) -> None:
    """Write the text of ``chunks`` to stdout in full; OSError if it
    cannot be written, also when stdout is closed.

    A pipe write cut short by a stop signal (SIGSTOP or job control,
    then SIGCONT) makes ``BufferedWriter.write`` return a short count,
    which ``TextIOWrapper.write`` ignores, so a long report would lose
    its tail.  The report therefore goes to the binary buffer in a loop
    that resumes after each short write.  It is encoded one slice (see
    :func:`_slices`) at a time, by one incremental encoder so that a
    stateful encoding stays correct, and only the current slice is held,
    as text and encoded.
    """
    stream = sys.stdout
    if stream is None:  # started with its file descriptor closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    buffer = getattr(stream, "buffer", None)
    if buffer is None:  # an in-memory stream, as under redirect_stdout
        stream.writelines(chunks)
        return
    stream.flush()
    encode = codecs.getincrementalencoder(stream.encoding)(stream.errors).encode

    def put(data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[buffer.write(view) :]

    for text in _slices(chunks):
        put(encode(text))
    put(encode("", True))
    buffer.flush()


def _drop_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the
    interpreter's last flush of what a failed write left buffered does
    not fail again at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _emit(chunks: Iterable[str], out_path: str | None) -> int:
    """Write a report's text, given as ``chunks``, to ``out_path`` or
    stdout; exit 2 with one error line if it cannot be written."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        else:
            _write_stdout(chunks)
    except OSError as exc:
        if not out_path:
            _drop_stdout()
        target = out_path or "stdout"
        return _error(f"cannot write {target}: {exc.strerror or exc}", EXIT_USAGE)
    return EXIT_OK


def cmd_degrees(args: argparse.Namespace) -> int:
    try:
        n_max, cap = _settings(args)
        # every spec is checked before any group is built, as in verify
        specs = [parse_group_spec(text).check(cap) for text in args.group]
        entries = [_degrees_entry(spec, n_max, cap) for spec in specs]
    except ValueError as exc:
        return _failure(exc)
    if args.format == "json":
        return _emit(_degrees_json(entries), args.out)
    return _emit(_degrees_csv(entries, n_max), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    # the claim registry loads here only, so a degrees run never compiles it
    from latdeg import claims

    claim_filter = None
    if args.claims is not None:
        claim_filter = [c.strip() for c in args.claims.split(",") if c.strip()]
    try:
        n_max, cap = _settings(args)
        if args.all_up_to is not None:
            max_order = _integer(args.all_up_to, "--all-up-to")
            max_order = _parameter(max_order, "--all-up-to", 1)
            specs = [
                GroupSpec((family,))
                for family in builtin_families_up_to(max_order, cap=cap)
            ]
        else:
            specs = [parse_group_spec(text).check(cap) for text in args.group]
        # every group is checked before any is built; each is built on its
        # turn, after run_suite has checked the claim ids, and is freed
        # after it, so an empty selection builds no table
        report = claims.run_suite(
            (spec.build(cap) for spec in specs),
            claim_filter=claim_filter,
            n_max=n_max,
            order_cap=cap,
        )
    except ValueError as exc:
        return _failure(exc)
    writer = _verify_json if args.format == "json" else _verify_csv
    code = _emit(writer(report.results), args.out)
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
        "--n-max", default=str(degrees.DEFAULT_N_MAX),
        help="depth for the iterated degrees",
    )
    common.add_argument("--order-cap", help="group order cap (default 200)")
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
        "--all-up-to", metavar="ORDER",
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
