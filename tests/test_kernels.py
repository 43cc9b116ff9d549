"""Kernel edge cases on a small table."""

from __future__ import annotations

from latdeg import _kernels as kernels
from latdeg.groups import make_symmetric


def test_closure_from_empty_mask_is_trivial():
    s3 = make_symmetric(3)
    t = kernels.prepare_table(s3.table)
    assert kernels.closure_mask(t, 0) == 1
    assert kernels.closure_mask(t, 1) == 1
