import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbnn import bitpack as bp
from sbnn._kernels import backend_pairs
from sbnn.binquant import ValidationError

from helpers import dense_sign_dot


class TestPack:
    def test_small_vector(self):
        pb = bp.pack([1, 0, 1])
        assert pb.length == 3
        assert pb.words.tolist() == [0b101]
        assert pb.unpack().tolist() == [1, 0, 1]

    def test_empty(self):
        pb = bp.pack(np.zeros(0, dtype=np.uint8))
        assert pb.length == 0
        assert pb.words.size == 0
        assert pb.unpack().size == 0

    def test_65_ones_spans_two_words(self):
        pb = bp.pack(np.ones(65, dtype=np.uint8))
        assert pb.words.shape == (2,)
        assert pb.popcount() == 65

    def test_padding_bits_zero(self):
        pb = bp.pack(np.ones(65, dtype=np.uint8))
        assert pb.words[1] == 1  # only bit 0 of the second word

    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            bp.pack([0, 2, 1])

    def test_rows(self):
        bits = np.array([[1, 0, 1, 1], [0, 0, 0, 1]], dtype=np.uint8)
        pb = bp.pack(bits)
        assert pb.rows == 2
        assert np.array_equal(pb.unpack(), bits)
        assert pb.popcount().tolist() == [3, 1]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0, 1]), min_size=0, max_size=400))
    def test_round_trip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        assert np.array_equal(bp.pack(arr).unpack(), arr)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=400))
    def test_popcount_matches_sum(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        assert bp.pack(arr).popcount() == int(arr.sum())


class TestPopcountDot:
    def test_spec_example(self):
        w = bp.pack([1, 0, 1, 0])
        x = bp.pack_signs([1, -1, -1, 1])
        assert bp.popcount_dot(x, w) == 0

    def test_zero_weights(self):
        w = bp.pack(np.zeros(10, dtype=np.uint8))
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = bp.pack_signs(rng.choice([-1, 1], size=10))
            assert bp.popcount_dot(x, w) == 0

    def test_all_ones(self):
        n = 70
        w = bp.pack(np.ones(n, dtype=np.uint8))
        x = bp.pack_signs(np.ones(n))
        assert bp.popcount_dot(x, w) == n

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            bp.popcount_dot(bp.pack([1, 0]), bp.pack([1, 0, 1]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
    def test_matches_dense_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        wbits = rng.integers(0, 2, size=n).astype(np.uint8)
        xsigns = rng.choice([-1, 1], size=n)
        got = bp.popcount_dot(bp.pack_signs(xsigns), bp.pack(wbits))
        assert got == dense_sign_dot(wbits, xsigns)


class TestQCompute:
    def test_spec_examples(self):
        assert bp.q_compute(bp.pack_signs([1, -1, 1, 1])) == 2
        assert bp.q_compute(bp.pack_signs(np.full(8, -1))) == -8
        assert bp.q_compute(bp.pack_signs(np.full(8, 1))) == 8

    def test_rows(self):
        x = bp.pack(np.array([[1, 1, 0], [0, 0, 0]], dtype=np.uint8))
        assert bp.q_compute(x).tolist() == [1, -3]


class TestBenchmark:
    def test_bench_runs_and_verifies(self, capsys):
        from sbnn import bench

        times = bench.run(rows=8, cols=64, words=2, repeat=1)
        out = capsys.readouterr().out
        assert "and_popcount_matmat" in out
        assert "numpy" in times


def _child_env(backend):
    """The parent's environment with SBNN_BACKEND set and, at the front of
    PYTHONPATH, the absolute directory the parent imported sbnn from, so a
    child interpreter imports the same source tree whatever its cwd."""
    import os

    import sbnn

    root = os.path.dirname(os.path.dirname(os.path.abspath(sbnn.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "SBNN_BACKEND": backend,
        "PYTHONPATH": root + (os.pathsep + path if path else ""),
    }


class TestBackendParity:
    def test_env_flag_selects_numpy(self):
        import subprocess
        import sys

        code = (
            "from sbnn._kernels import BACKEND; print(BACKEND)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=_child_env("numpy"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "numpy"

    def test_env_flag_rejects_unknown(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c", "import sbnn._kernels"],
            env=_child_env("sse9000"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode != 0
        assert "SBNN_BACKEND" in out.stderr
        assert "sse9000" in out.stderr
        assert "ModuleNotFoundError" not in out.stderr

    def test_kernels_agree(self):
        rng = np.random.default_rng(42)
        pairs = backend_pairs()
        a = rng.integers(0, 2**63, size=(17, 5)).astype(np.uint64)
        b = rng.integers(0, 2**63, size=(23, 5)).astype(np.uint64)
        x = rng.integers(0, 2**63, size=5).astype(np.uint64)
        ref = None
        for name, k in pairs:
            got = (
                k["popcount_words"](x),
                k["popcount_rows"](a).tolist(),
                k["and_popcount_matmat"](a, b).tolist(),
            )
            if ref is None:
                ref = got
            else:
                assert got == ref, f"backend {name} disagrees"

    def test_matmat_matches_bit_arithmetic(self):
        rng = np.random.default_rng(9)
        abits = rng.integers(0, 2, size=(6, 130)).astype(np.uint8)
        bbits = rng.integers(0, 2, size=(4, 130)).astype(np.uint8)
        aw = bp.pack(abits).words
        bw = bp.pack(bbits).words
        expect = (abits[:, None, :] & bbits[None, :, :]).sum(axis=2)
        for name, k in backend_pairs():
            assert np.array_equal(k["and_popcount_matmat"](aw, bw), expect)
