"""The hot bit-kernels of the inference engine, on np.bitwise_count.

The packed popcount reductions dominate inference runtime. Bits are packed
LSB-first with zero padding bits; a binary stage hands the kernels uint64
words, each holding several taps' channel words side by side (see
`engine.BinStage`). np.bitwise_count costs about the same per word at any
width, so whole uint64 words make each popcount count the most bits.

Counts accumulate in a dtype the caller picks. A count never exceeds its
row's popcount, so the dtype need only hold the most bits any row of the
first operand has set: a binary stage passes its threshold table's dtype,
the narrowest unsigned one that holds its most weight ones plus one (uint8
up to 254 ones in a row). The operands stay the two positional arguments.
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
