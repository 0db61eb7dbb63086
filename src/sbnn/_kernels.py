"""Hot bit-kernels with two interchangeable backends.

The packed popcount reductions dominate inference runtime, so they are
compiled with numba when available. Set SBNN_BACKEND=numpy to force the
pure-numpy path (np.bitwise_count), SBNN_BACKEND=numba to require the
compiled path. Bits are packed LSB-first with zero padding bits, in words of
any unsigned dtype (the engine packs each pixel's channels into the
narrowest of uint8/16/32/64). Both backends are exact and interchangeable
(`python -m sbnn.bench` compares their throughput).
"""

from __future__ import annotations

import os

import numpy as np

_FLAG = os.environ.get("SBNN_BACKEND", "").strip().lower()
if _FLAG not in ("", "numba", "numpy"):
    raise RuntimeError(f"SBNN_BACKEND must be 'numba' or 'numpy', got {_FLAG!r}")

_HAS_NUMBA = False
if _FLAG != "numpy":
    try:
        from numba import njit

        _HAS_NUMBA = True
    except ImportError:
        if _FLAG == "numba":
            raise
BACKEND = "numba" if _HAS_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# pure-numpy backend
# ---------------------------------------------------------------------------

def _popcount_words_numpy(words):
    """Total set bits in a uint64 array."""
    if words.size == 0:
        return 0
    return int(np.bitwise_count(words).sum())


def _popcount_rows_numpy(words):
    """Set bits per row of a (rows, nwords) word array -> int64 (rows,)."""
    if words.shape[1] == 0:
        return np.zeros(words.shape[0], dtype=np.int64)
    return np.bitwise_count(words).sum(axis=1).astype(np.int64)


def _and_popcount_matmat_numpy(a, b):
    """out[r, p] = sum_k popcount(a[r, k] & b[p, k]); a (R, K), b (P, K) of
    one unsigned word dtype. One word column at a time, accumulated in int32
    (exact while 64 * K < 2**31)."""
    if a.dtype == np.uint16:
        # np.bitwise_count is ~2x slower per uint16 than per uint32 word;
        # the operands are small next to the (R, P) result
        a, b = a.astype(np.uint32), b.astype(np.uint32)
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.int32)
    both = np.empty(out.shape, dtype=np.result_type(a, b))
    counts = np.empty(out.shape, dtype=np.uint8)
    for k in range(a.shape[1]):
        np.bitwise_and(a[:, k, None], b[None, :, k], out=both)
        np.bitwise_count(both, out=counts)
        if k:
            np.add(out, counts, out=out)
        else:  # a cast copy: half the memory traffic of an add
            np.copyto(out, counts)
    return out


# ---------------------------------------------------------------------------
# numba backend (SWAR popcount; numba has no np.bitwise_count)
# ---------------------------------------------------------------------------

if _HAS_NUMBA:
    _M1 = np.uint64(0x5555555555555555)
    _M2 = np.uint64(0x3333333333333333)
    _M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    _H01 = np.uint64(0x0101010101010101)
    _S1 = np.uint64(1)
    _S2 = np.uint64(2)
    _S4 = np.uint64(4)
    _S56 = np.uint64(56)

    @njit(cache=True, inline="always")
    def _pc64(x):
        x = x - ((x >> _S1) & _M1)
        x = (x & _M2) + ((x >> _S2) & _M2)
        x = (x + (x >> _S4)) & _M4
        return (x * _H01) >> _S56

    @njit(cache=True)
    def _popcount_words_numba(words):
        total = 0
        for i in range(words.size):
            total += int(_pc64(words[i]))
        return total

    @njit(cache=True)
    def _popcount_rows_numba(words):
        rows, nw = words.shape
        out = np.zeros(rows, dtype=np.int64)
        for i in range(rows):
            acc = 0
            for k in range(nw):
                acc += int(_pc64(words[i, k]))
            out[i] = acc
        return out

    @njit(cache=True)
    def _and_popcount_matmat_numba(a, b):
        r, nw = a.shape
        p = b.shape[0]
        out = np.empty((r, p), dtype=np.int64)
        for i in range(r):
            for j in range(p):
                acc = 0
                for k in range(nw):
                    acc += int(_pc64(a[i, k] & b[j, k]))
                out[i, j] = acc
        return out

    def _popcount_words_numba_wrap(words):
        return _popcount_words_numba(np.ascontiguousarray(words))

    popcount_words = _popcount_words_numba_wrap
    popcount_rows = _popcount_rows_numba
    and_popcount_matmat = _and_popcount_matmat_numba
else:
    popcount_words = _popcount_words_numpy
    popcount_rows = _popcount_rows_numpy
    and_popcount_matmat = _and_popcount_matmat_numpy


def backend_pairs():
    """(name, kernels) per available backend, for parity tests and the
    benchmark. Each kernels dict has popcount_words / popcount_rows /
    and_popcount_matmat."""
    out = [
        (
            "numpy",
            {
                "popcount_words": _popcount_words_numpy,
                "popcount_rows": _popcount_rows_numpy,
                "and_popcount_matmat": _and_popcount_matmat_numpy,
            },
        )
    ]
    if _HAS_NUMBA:
        out.append(
            (
                "numba",
                {
                    "popcount_words": _popcount_words_numba_wrap,
                    "popcount_rows": _popcount_rows_numba,
                    "and_popcount_matmat": _and_popcount_matmat_numba,
                },
            )
        )
    return out
