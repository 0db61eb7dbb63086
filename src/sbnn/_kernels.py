"""The hot bit-kernels of the inference engine, on np.bitwise_count.

The packed popcount reductions dominate inference runtime. Bits are packed
LSB-first with zero padding bits, in words of any unsigned dtype (the engine
packs each pixel's channels into the narrowest of uint8/16/32/64).
`and_popcount_matmat` accumulates in place into a caller-owned int32 array, so
a stage sums its taps with no temporary per tap (exact while fan-in < 2**31).
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only backend; perfbench records it with each run


def popcount_rows(words):
    """Set bits per row of a (rows, nwords) word array -> int64 (rows,)."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def and_popcount_matmat(a, b, out=None):
    """out[r, p] += sum_k popcount(a[r, k] & b[p, k]) for a (R, K), b (P, K) of
    one unsigned word dtype, in place into `out` (an int32 (R, P) array or view;
    a new zeroed one when None), which it returns. One word column at a time;
    exact while the fan-in, all bits summed into a row of `out`, is < 2**31."""
    if out is None:
        out = np.zeros((a.shape[0], b.shape[0]), dtype=np.int32)
    if a.dtype == np.uint16:
        # np.bitwise_count is ~2x slower per uint16 than per uint32 word;
        # the operands are small next to the (R, P) result
        a, b = a.astype(np.uint32), b.astype(np.uint32)
    both = np.empty(out.shape, dtype=np.result_type(a, b))
    counts = np.empty(out.shape, dtype=np.uint8)
    for k in range(a.shape[1]):
        np.bitwise_and(a[:, k, None], b[None, :, k], out=both)
        np.bitwise_count(both, out=counts)
        np.add(out, counts, out=out)
    return out
