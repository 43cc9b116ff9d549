"""latdeg: exact commutativity degrees over subgroup lattices of small
finite groups, with a claim-verification harness and CLI.

The claim harness, ``latdeg.claims``, is imported on first use of one
of its names here, so a run that computes degrees only never loads it.
"""

from latdeg.characters import class_count, equal_generator_invariance, xi
from latdeg.degrees import (
    BudgetExceeded,
    bracket_table,
    d_group,
    d_multi,
    d_pair,
    sd_group,
    ssd_group,
    ssd_multi,
)
from latdeg.groups import (
    Group,
    OrderCapExceeded,
    Subgroup,
    direct_product,
    make_cyclic,
    make_dihedral,
    make_modular,
    make_quaternion,
    make_symmetric,
    order_cap,
    quotient,
)
from latdeg.lattice import Lattice, enumerate_subgroups, normal_subgroups

__version__ = "0.1.0"

BACKEND = "pure"  # the one kernel backend, latdeg._kernels

__all__ = [
    "BACKEND",
    "BudgetExceeded",
    "Claim",
    "ClaimResult",
    "Group",
    "Lattice",
    "OrderCapExceeded",
    "Subgroup",
    "SuiteReport",
    "bracket_table",
    "builtin_groups_up_to",
    "class_count",
    "d_group",
    "d_multi",
    "d_pair",
    "direct_product",
    "enumerate_subgroups",
    "equal_generator_invariance",
    "make_cyclic",
    "make_dihedral",
    "make_modular",
    "make_quaternion",
    "make_symmetric",
    "normal_subgroups",
    "order_cap",
    "quotient",
    "run_claim",
    "run_suite",
    "sd_group",
    "ssd_group",
    "ssd_multi",
    "xi",
]

# names of latdeg.claims, bound here on first access (PEP 562)
_CLAIM_NAMES = frozenset(
    {
        "Claim",
        "ClaimResult",
        "SuiteReport",
        "builtin_groups_up_to",
        "run_claim",
        "run_suite",
    }
)


def __getattr__(name: str):
    if name not in _CLAIM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from latdeg import claims

    value = globals()[name] = getattr(claims, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _CLAIM_NAMES)
