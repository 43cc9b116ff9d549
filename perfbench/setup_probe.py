"""Set-up step of one workload, run in a fresh interpreter.

Takes the workload's CLI arguments, imports latdeg, builds every group
the CLI would build (``--all-up-to N`` or each ``-g SPEC``), including
its kernel table, and builds no lattice.  Prints one JSON line naming
where latdeg was imported from, its backend and the Python version.

    python3 perfbench/setup_probe.py degrees -g "S(3)" -g "Q8"
"""

from __future__ import annotations

import json
import platform
import sys


def main(argv: list[str]) -> int:
    import latdeg
    from latdeg.cli import parse_group_spec

    if "--all-up-to" in argv:
        groups = latdeg.builtin_groups_up_to(int(argv[argv.index("--all-up-to") + 1]))
    else:
        specs = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("-g", "--group")]
        groups = [parse_group_spec(spec).build() for spec in specs]
    for group in groups:
        group.ktab
    print(
        json.dumps(
            {
                "latdeg_file": latdeg.__file__,
                "backend": latdeg.BACKEND,
                "python": platform.python_version(),
                "groups": len(groups),
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
