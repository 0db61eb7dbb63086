"""The hot kernels of the inference engine's binary stages (see
`engine.BinStage`): AND+popcount on np.bitwise_count, whose cost is rows x
windows x words, and sums of shifted planes, one add per weight one.

Bits are packed LSB-first with zero padding bits into uint64 words, each
holding several taps' channel words side by side. np.bitwise_count costs
about the same per word at any width, so whole uint64 words make each
popcount count the most bits.

Counts accumulate in a dtype the caller picks. A count never exceeds its
row's weight ones, so the dtype need only hold the most ones any row has: a
binary stage passes its threshold table's dtype, the narrowest unsigned one
that holds its most weight ones plus one (uint8 up to 254 ones in a row).
The operands of `and_popcount_matmat` stay its two positional arguments.
"""

from __future__ import annotations

import numpy as np

# always "numpy", the only backend; kept only because perfbench/run.py
# records it with each run
BACKEND = "numpy"


def popcount_rows(words):
    """Set bits per row of a (rows, nwords) word array -> int64 (rows,)."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def and_popcount_matmat(a, b, *, dtype=np.int32):
    """(R, P) counts sum_k popcount(a[r, k] & b[p, k]) for a (R, K), b (P, K)
    of one unsigned word dtype, accumulated in `dtype`. One word column at a
    time, so b[:, k] is best contiguous (b a transposed (K, P) array). The
    counts are exact while `dtype` holds the most bits any row of a has set:
    each count is at most its row's popcount."""
    out = np.zeros((a.shape[0], b.shape[0]), dtype=dtype)
    both = np.empty(out.shape, dtype=np.result_type(a, b))
    counts = np.empty(out.shape, dtype=np.uint8)
    for k in range(a.shape[1]):
        np.bitwise_and(a[:, k, None], b[None, :, k], out=both)
        np.bitwise_count(both, out=counts)
        np.add(out, counts, out=out)
    return out


def shifted_sums(flat, starts, out):
    """Add into each row out[r] the slices flat[s : s + width] for every
    start s in starts[r], where width = out.shape[1]: one contiguous add per
    start. Each row of `out` must be contiguous, and every slice inside
    `flat`. The sums are exact while out's dtype holds the largest."""
    width = out.shape[1]
    for acc, row in zip(out, starts):
        for s in row:
            np.add(acc, flat[s : s + width], out=acc)
    return out
