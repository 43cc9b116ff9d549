"""Kernels over multiplication tables and element bitmasks.

The kernels live in :mod:`latdeg._kernels.pure`.  The rest of latdeg calls
them through this package (``kernels.closure_mask(...)``), so a name
rebound here, as perfbench/layertrace.py does for the length of a traced
run, reaches every call; calls made inside ``pure`` are not rebound.
"""

from __future__ import annotations

from latdeg._kernels.pure import (
    centralizer_mask,
    closure_mask,
    commutator_closure_mask,
    conjugacy_class_ids,
    count_commuting_pairs,
    count_trivial_iterated_commutators,
    is_associative,
    is_normal_mask,
    prepare_table,
    product_mask,
    sum_centralizer_orders,
)

BACKEND = "pure"
