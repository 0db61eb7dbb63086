import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import write_cifar10_binary, write_idx_images, write_idx_labels
from sbnn import dataio
from sbnn.binquant import DataError, ValidationError


class TestCifarBinary:
    def test_single_zero_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes(3073))
        ds = dataio.load_cifar10_binary(path)
        assert ds.count == 1
        assert ds.labels[0] == 0
        # all-black image: constant per channel after normalization
        for c in range(3):
            assert np.allclose(ds.images[0, c], ds.images[0, c, 0, 0])
            assert ds.images[0, c, 0, 0] == pytest.approx(
                -dataio.CIFAR_MEAN[c] / dataio.CIFAR_STD[c]
            )

    def test_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))
        with pytest.raises(dataio.SizeMismatch):
            dataio.load_cifar10_binary(path)

    def test_label_out_of_range(self, tmp_path):
        rec = bytearray(3073)
        rec[0] = 11
        path = tmp_path / "bad_label.bin"
        path.write_bytes(bytes(rec))
        with pytest.raises(dataio.LabelOutOfRange):
            dataio.load_cifar10_binary(path)

    def test_writer_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(10, 3, 32, 32)).astype(np.uint8)
        labels = rng.integers(0, 10, size=10).astype(np.uint8)
        path = tmp_path / "rt.bin"
        write_cifar10_binary(path, imgs, labels)
        ds = dataio.load_cifar10_binary(path)
        assert ds.count == 10
        assert np.array_equal(ds.labels, labels)
        # un-normalize and compare pixel-exactly
        raw = ds.images * dataio.CIFAR_STD[:, None, None] + dataio.CIFAR_MEAN[:, None, None]
        assert np.allclose(raw * 255.0, imgs, atol=1e-9)

    def test_deterministic_loading(self, tmp_path):
        rng = np.random.default_rng(1)
        imgs = rng.integers(0, 256, size=(4, 3, 32, 32)).astype(np.uint8)
        labels = rng.integers(0, 10, size=4).astype(np.uint8)
        path = tmp_path / "det.bin"
        write_cifar10_binary(path, imgs, labels)
        a = dataio.load_cifar10_binary(path)
        b = dataio.load_cifar10_binary(path)
        assert np.array_equal(a.images, b.images)


class TestIdx:
    def test_minimal_file(self, tmp_path):
        ipath, lpath = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_images(ipath, np.array([[[7]]], dtype=np.uint8))
        write_idx_labels(lpath, np.array([0], dtype=np.uint8))
        ds = dataio.load_idx(ipath, lpath)
        assert ds.count == 1
        assert ds.images.shape == (1, 1, 1, 1)

    def test_wrong_magic(self, tmp_path):
        ipath, lpath = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_labels(ipath, np.array([0], dtype=np.uint8))  # labels magic
        write_idx_labels(lpath, np.array([0], dtype=np.uint8))
        with pytest.raises(dataio.BadMagic):
            dataio.load_idx(ipath, lpath)

    def test_count_mismatch(self, tmp_path):
        ipath, lpath = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_images(ipath, np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(lpath, np.zeros(2, dtype=np.uint8))
        with pytest.raises(dataio.CountMismatch):
            dataio.load_idx(ipath, lpath)

    def test_no_images_is_one_data_error(self, tmp_path):
        # checked before standardizing, which would warn on an empty mean
        ipath, lpath = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_images(ipath, np.zeros((0, 2, 2), dtype=np.uint8))
        write_idx_labels(lpath, np.zeros(0, dtype=np.uint8))
        with pytest.raises(DataError, match="empty dataset"):
            dataio.load_idx(ipath, lpath)

    def test_truncated_payload(self, tmp_path):
        ipath = tmp_path / "img.idx"
        write_idx_images(ipath, np.zeros((2, 2, 2), dtype=np.uint8))
        data = ipath.read_bytes()
        ipath.write_bytes(data[:-3])
        lpath = tmp_path / "lab.idx"
        write_idx_labels(lpath, np.zeros(2, dtype=np.uint8))
        with pytest.raises(dataio.SizeMismatch):
            dataio.load_idx(ipath, lpath)

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(0, 8) | st.integers(0, 2**32 - 1)] * 3),
        body=st.binary(max_size=64),
        labels=st.lists(st.integers(0, 255), max_size=8),
    )
    # dims whose product wraps to 0 in uint64
    @example(dims=(2**31, 2**31, 4), body=b"", labels=[])
    # no images, but numpy's size check multiplies the other two dims past 2**63
    @example(dims=(0, 3_036_988_439, 3_037_012_561), body=b"", labels=[])
    # images without pixels: standardizing them took the mean of an empty array
    @example(dims=(1, 0, 5), body=b"", labels=[0])
    @example(dims=(2, 3, 0), body=b"", labels=[0, 1])
    def test_any_header_gives_a_dataset_or_a_data_error(self, tmp_path_factory, dims, body, labels):
        """Whatever the dims, body and labels: a Dataset, or one DataError
        (and no warning, which the test settings turn into an error)."""
        tmp = tmp_path_factory.mktemp("idx")
        ipath, lpath = tmp / "img.idx", tmp / "lab.idx"
        ipath.write_bytes(struct.pack(">IIII", dataio.IDX_IMAGES_MAGIC, *dims) + body)
        lpath.write_bytes(struct.pack(">II", dataio.IDX_LABELS_MAGIC, len(labels)) + bytes(labels))
        try:
            ds = dataio.load_idx(ipath, lpath)
        except DataError:
            return
        assert ds.images.shape == (len(labels), 1, *dims[1:])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        imgs = rng.integers(0, 256, size=(6, 4, 4)).astype(np.uint8)
        labels = rng.integers(0, 3, size=6).astype(np.uint8)
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, imgs)
        write_idx_labels(lpath, labels)
        ds = dataio.load_idx(ipath, lpath)
        assert np.array_equal(ds.labels, labels)
        raw = (ds.images * ds.std + ds.mean) * 255.0
        assert np.allclose(raw[:, 0], imgs, atol=1e-9)


class TestSynthetic:
    def test_same_seed_identical(self):
        a = dataio.synthetic_classification(seed=5, n=64, classes=3)
        b = dataio.synthetic_classification(seed=5, n=64, classes=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = dataio.synthetic_classification(seed=5, n=64)
        b = dataio.synthetic_classification(seed=6, n=64)
        assert not np.array_equal(a.images, b.images)

    def test_difficulty_zero_linearly_separable(self):
        ds = dataio.synthetic_classification(seed=1, n=200, classes=2, difficulty=0.0)
        x = ds.images.reshape(ds.count, -1)
        y = ds.labels
        # linear probe oracle: least-squares on {-1,+1} targets
        t = 2.0 * y - 1.0
        xb = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        w, *_ = np.linalg.lstsq(xb, t, rcond=None)
        pred = (xb @ w) >= 0
        assert (pred == (y == 1)).mean() >= 0.99

    def test_n_zero_rejected(self):
        with pytest.raises(Exception):
            dataio.synthetic_classification(seed=0, n=0)

    def test_needs_sample_per_class(self):
        with pytest.raises(Exception):
            dataio.synthetic_classification(seed=0, n=2, classes=3)

    @pytest.mark.parametrize(
        "kwargs",
        [{"classes": 0}, {"classes": -1}, {"image_hw": 0}, {"image_hw": -1},
         {"difficulty": np.nan}, {"difficulty": np.inf}, {"difficulty": -0.5},
         {"difficulty": 2 * dataio.MAX_DIFFICULTY}],
    )
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValidationError) as exc:
            dataio.synthetic_classification(seed=0, n=8, **kwargs)
        assert not isinstance(exc.value, DataError)

    def test_largest_difficulty_gives_finite_images(self):
        ds = dataio.synthetic_classification(seed=0, n=64, difficulty=dataio.MAX_DIFFICULTY)
        assert np.isfinite(ds.images).all()

    def test_peak_stays_near_two_copies(self):
        """The images are drawn, patterned and standardized in one array, so
        the peak is that array plus one temporary (the standard deviation's,
        then the permuted copy). Built from separate noise, pattern, sum and
        standardized arrays, it was about 4x the returned bytes."""
        tracemalloc.start()
        try:
            ds = dataio.synthetic_classification(seed=1, n=1024, classes=2, image_hw=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * ds.images.nbytes
