"""The CSR scatter kernels of the allocator hot loop.

The allocator bottoms out in four gather/scatter kernels over the
uniform-slot CSR route index (`price_sums`, `link_totals`,
`link_totals2`, `max_link_value`) plus the churn-apply bottleneck
gather (`min_link_value`).  Each is one vectorized numpy pass per
canonical chunk (see :mod:`._base`).

**Bitwise-equality contract.**  Float addition is not associative, so
the scatter order is fixed once: rows are cut into ``BLOCK_ROWS``-
aligned chunks whose boundaries depend only on ``n``, each chunk
produces its partial in strict row/hop order, and partials are
combined in ascending chunk order.  The result is the same on any
machine and in any process; for ``n <= BLOCK_ROWS`` the reduction is
the single historical ``bincount``/column pass.
"""

from __future__ import annotations

from ._base import (chunk_spans, link_totals, link_totals2,
                    max_link_value, min_link_value, price_sums)

__all__ = [
    "chunk_spans", "describe", "price_sums", "max_link_value",
    "link_totals", "link_totals2", "min_link_value",
]


def describe():
    """Implementation tag recorded in benchmark environment metadata."""
    return "numpy"
