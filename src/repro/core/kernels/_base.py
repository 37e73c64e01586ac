"""The canonical chunked reduction behind the CSR kernels.

Every kernel walks one chunk grid, so the bitwise contract lives here:

* chunk boundaries depend only on ``n`` and :data:`BLOCK_ROWS`;
* within a chunk, accumulation is strict row-major/hop order
  (``bincount`` element order for scatters, left-to-right column
  folds for per-row reductions);
* scatter partials are combined in ascending chunk order.

``BLOCK_ROWS`` is read dynamically by :func:`chunk_spans` so tests can
monkeypatch it small to exercise multi-chunk reductions on tiny
tables.

Inputs follow the FlowTable CSR conventions: ``indices`` is flat with
a uniform ``width`` slots per row, ``buf`` a caller-owned float64
scratch with one entry per slot, and ``padded`` carries the pad-link
entry last.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

#: Canonical reduction chunk size (rows).  Part of the bitwise
#: contract: results at n > BLOCK_ROWS depend on it (at the 1-ulp
#: level, well inside every cross-backend 1e-9 tolerance).
BLOCK_ROWS = 16384


def chunk_spans(n: int) -> list[tuple[int, int]]:
    """The canonical chunk grid for ``n`` rows: ``[(r0, r1), ...]``.

    Depends only on ``n`` and :data:`BLOCK_ROWS`, so every caller folds
    partials identically.
    """
    block = BLOCK_ROWS
    return [(r0, min(n, r0 + block)) for r0 in range(0, n, block)]


# ----------------------------------------------------------------------
# per-chunk primitives (rows [r0, r1) of a width-uniform CSR index)
# ----------------------------------------------------------------------

def price_sums_chunk(padded: FloatArray, indices: IntArray,
                     buf: FloatArray, out: FloatArray,
                     r0: int, r1: int, width: int) -> None:
    """out[r0:r1] = left-to-right sum of padded[indices] per row.

    Column-wise adds over the gathered ``(rows, width)`` block: the
    fold starts from hop 0's value and adds hops in order, which is
    bit-identical to the per-row ``bincount`` accumulation it replaced
    (prices are non-negative, so the 0.0-seed difference on ``-0.0``
    cannot arise) while releasing the GIL and vectorizing cleanly.
    """
    lo = r0 * width
    seg = buf[lo: r1 * width]
    np.take(padded, indices[lo: r1 * width], out=seg)
    mat = seg.reshape(r1 - r0, width)
    dst = out[r0:r1]
    dst[:] = mat[:, 0]
    for hop in range(1, width):
        dst += mat[:, hop]


def max_chunk(padded: FloatArray, indices: IntArray, buf: FloatArray,
              out: FloatArray, r0: int, r1: int, width: int) -> None:
    """out[r0:r1] = per-row max of padded[indices] (pad slots -inf)."""
    lo = r0 * width
    seg = buf[lo: r1 * width]
    np.take(padded, indices[lo: r1 * width], out=seg)
    mat = seg.reshape(r1 - r0, width)
    dst = out[r0:r1]
    dst[:] = mat[:, 0]
    for hop in range(1, width):
        np.maximum(dst, mat[:, hop], out=dst)


def totals_chunk(values: FloatArray, indices: IntArray,
                 buf: FloatArray, r0: int, r1: int, width: int,
                 minlength: int) -> FloatArray:
    """Partial link scatter for one chunk (fresh ``minlength`` array).

    The per-flow value is expanded to its slots by a broadcast store
    (same element order as the old ``np.take(values, rows)`` gather,
    without needing the per-slot row-id array), then scattered by one
    ``bincount`` — element order is global row-major/hop order, so the
    partial is bit-identical to the historical single-bincount pass
    restricted to these rows.
    """
    lo = r0 * width
    seg = buf[lo: r1 * width]
    seg.reshape(r1 - r0, width)[:] = values[r0:r1, None]
    return np.asarray(np.bincount(indices[lo: r1 * width], weights=seg,
                                  minlength=minlength), dtype=np.float64)


def totals2_chunk(a: FloatArray, b: FloatArray, indices: IntArray,
                  buf: FloatArray, r0: int, r1: int, width: int,
                  minlength: int) -> tuple[FloatArray, FloatArray]:
    """Fused pair of :func:`totals_chunk` sharing one index slice."""
    lo = r0 * width
    idx = indices[lo: r1 * width]
    seg = buf[lo: r1 * width]
    mat = seg.reshape(r1 - r0, width)
    mat[:] = a[r0:r1, None]
    totals_a = np.asarray(np.bincount(idx, weights=seg,
                                      minlength=minlength), dtype=np.float64)
    mat[:] = b[r0:r1, None]
    totals_b = np.asarray(np.bincount(idx, weights=seg,
                                      minlength=minlength), dtype=np.float64)
    return totals_a, totals_b


def min_rows_chunk(padded: FloatArray, rows_mat: IntArray,
                   buf2d: FloatArray, out: FloatArray,
                   r0: int, r1: int) -> None:
    """out[r0:r1] = per-row min of padded[rows_mat] (pad slots +inf).

    The churn-apply bottleneck gather: ``rows_mat`` is a slice of the
    padded storage matrix, ``buf2d`` a same-shape gather scratch.
    """
    seg = buf2d[r0:r1]
    np.take(padded, rows_mat[r0:r1], out=seg)
    dst = out[r0:r1]
    dst[:] = seg[:, 0]
    for hop in range(1, seg.shape[1]):
        np.minimum(dst, seg[:, hop], out=dst)


def reduce_parts(parts: list[FloatArray]) -> FloatArray:
    """Fold per-chunk partials in ascending chunk order (canonical)."""
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


# ----------------------------------------------------------------------
# kernels (rows [0, n) of a width-uniform CSR index)
# ----------------------------------------------------------------------

def price_sums(padded: FloatArray, indices: IntArray, n: int, width: int,
               buf: FloatArray) -> FloatArray:
    """Per-row left-to-right sum of ``padded[indices]`` (fresh array)."""
    out = np.empty(n)
    for r0, r1 in chunk_spans(n):
        price_sums_chunk(padded, indices, buf, out, r0, r1, width)
    return out


def max_link_value(padded: FloatArray, indices: IntArray, n: int,
                   width: int, buf: FloatArray,
                   out: FloatArray) -> FloatArray:
    """Per-row max of ``padded[indices]`` into ``out`` (returned)."""
    for r0, r1 in chunk_spans(n):
        max_chunk(padded, indices, buf, out, r0, r1, width)
    return out


def link_totals(values: FloatArray, indices: IntArray, n: int,
                width: int, minlength: int, buf: FloatArray) -> FloatArray:
    """Scatter per-row ``values`` onto ``minlength`` link bins."""
    return reduce_parts([totals_chunk(values, indices, buf, r0, r1,
                                      width, minlength)
                         for r0, r1 in chunk_spans(n)])


def link_totals2(a: FloatArray, b: FloatArray, indices: IntArray, n: int,
                 width: int, minlength: int,
                 buf: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Fused pair of :func:`link_totals` sharing one index pass."""
    parts = [totals2_chunk(a, b, indices, buf, r0, r1, width, minlength)
             for r0, r1 in chunk_spans(n)]
    return (reduce_parts([p[0] for p in parts]),
            reduce_parts([p[1] for p in parts]))


def min_link_value(padded: FloatArray, rows_mat: IntArray,
                   buf2d: FloatArray, out: FloatArray) -> FloatArray:
    """Per-row min of ``padded[rows_mat]`` into ``out`` (returned)."""
    for r0, r1 in chunk_spans(len(rows_mat)):
        min_rows_chunk(padded, rows_mat, buf2d, out, r0, r1)
    return out
