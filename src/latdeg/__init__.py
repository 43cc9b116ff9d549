"""latdeg: exact commutativity degrees over subgroup lattices of small
finite groups, with a claim-verification harness and CLI."""

from latdeg.characters import class_count, equal_generator_invariance, ssd_cyclic, xi
from latdeg.claims import (
    Claim,
    ClaimResult,
    SuiteReport,
    builtin_groups_up_to,
    run_claim,
    run_suite,
)
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
from latdeg.lattice import (
    Lattice,
    commutator_subgroup,
    enumerate_subgroups,
    normal_subgroups,
    permutes,
)

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
    "commutator_subgroup",
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
    "permutes",
    "quotient",
    "run_claim",
    "run_suite",
    "sd_group",
    "ssd_cyclic",
    "ssd_group",
    "ssd_multi",
    "xi",
]
