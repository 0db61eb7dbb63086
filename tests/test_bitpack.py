"""Bit packing: `engine.pack` puts {0,1} entries into the narrowest words that
hold them, LSB-first, with zero padding bits."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sbnn import _kernels, engine


class TestPack:
    def test_small_vector(self):
        words = engine.pack(np.array([[1, 0, 1]], dtype=np.uint8), axis=1)
        assert words.dtype == np.uint8
        assert words.tolist() == [[0b101]]

    def test_65_ones_spans_two_words(self):
        words = engine.pack(np.ones((1, 65), dtype=np.uint8), axis=1)
        assert words.dtype == np.uint64
        assert words.shape == (1, 2)
        assert _kernels.popcount_rows(words).tolist() == [65]

    def test_padding_bits_zero(self):
        words = engine.pack(np.ones((1, 65), dtype=np.uint8), axis=1)
        assert words.tolist() == [[2**64 - 1, 1]]  # only bit 0 of the second word

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_round_trip(self, rows, nbits, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=(rows, nbits), dtype=np.uint8)
        unpacked = np.unpackbits(engine.pack(bits, axis=1).view(np.uint8), axis=1, bitorder="little")
        assert np.array_equal(unpacked[:, :nbits], bits)
        assert not unpacked[:, nbits:].any()  # padding bits are zero

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=400))
    def test_popcount_matches_sum(self, bits):
        arr = np.array([bits], dtype=np.uint8)
        assert _kernels.popcount_rows(engine.pack(arr, axis=1)).tolist() == [sum(bits)]
