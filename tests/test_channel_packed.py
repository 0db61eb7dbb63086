"""Binary stages across every word width, stride and padding, on both
counting paths: AND+popcount over channel-packed words and sums of shifted
input planes.

Each model is a float stem (1 -> in_ch channels), a binary 3x3 conv whose
kernels mix Zero, Single and Dense, a binary linear stage and the head. The
engine must match the dense float reference bit for bit with skipping on and
off and with every stride-1 conv counting by planes, and its counters must
match the static ops report.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from sbnn import _kernels, engine, metrics
from sbnn.binquant import OmegaParams

from helpers import (
    captured_preacts,
    forward_preacts,
    int_preacts,
    planes_wherever_allowed,
    reference_pack,
)

IMAGE_HW = 7
CONV_OUT = 12
LINEAR_OUT = 9
CLASSES = 4
# in_ch -> (bytes per word, words per pixel) of the channel-packed layout
WORDS = {
    1: (1, 1), 6: (1, 1), 8: (1, 1), 12: (2, 1), 16: (2, 1), 32: (4, 1),
    63: (8, 1), 64: (8, 1), 65: (8, 2), 128: (8, 2),
}


def _threshold(rng, n):
    return engine.FusedThreshold.from_batchnorm(
        rng.normal(1.0, 0.5, n), rng.normal(0, 0.5, n), rng.normal(0, 1.0, n),
        rng.uniform(0.05, 2.0, n),
    )


def _mixed_kernels(rng, out_ch, in_ch):
    """(out_ch, in_ch * 9) bits whose kernels are Zero, Single or Dense, with
    each class present."""
    tags = rng.choice(3, size=out_ch * in_ch, p=[0.5, 0.3, 0.2])
    tags[:3] = [engine.KERNEL_ZERO, engine.KERNEL_SINGLE, engine.KERNEL_DENSE]
    kernels = np.zeros((tags.size, 9), dtype=np.uint8)
    for k, tag in enumerate(tags):
        if tag == engine.KERNEL_SINGLE:
            kernels[k, rng.integers(9)] = 1
        elif tag == engine.KERNEL_DENSE:
            kernels[k, rng.choice(9, size=rng.integers(2, 10), replace=False)] = 1
    return kernels.reshape(out_ch, in_ch * 9)


def _model(rng, in_ch, stride, padding, conv_bits):
    stem = engine.FloatStage(
        kind="conv3x3", in_ch=1, out_ch=in_ch, stride=1, padding=1,
        weight=rng.normal(size=(in_ch, 1, 3, 3)), threshold=_threshold(rng, in_ch),
    )
    conv = engine.PackedLayer(
        kind="conv3x3", in_ch=in_ch, out_ch=CONV_OUT, stride=stride, padding=padding,
        bits=conv_bits, omega=OmegaParams(tau=0.5, phi=-0.1),
    )
    hw = (IMAGE_HW + 2 * padding - 3) // stride + 1
    features = CONV_OUT * hw * hw
    linear = engine.PackedLayer(
        kind="linear", in_ch=features, out_ch=LINEAR_OUT, stride=1, padding=0,
        bits=(rng.random((LINEAR_OUT, features)) < 0.3).astype(np.uint8),
        omega=OmegaParams(tau=0.3, phi=0.05),
    )
    head = engine.Head(weight=rng.normal(size=(CLASSES, LINEAR_OUT)), bias=rng.normal(size=CLASSES))
    stages = [
        stem,
        engine.BinStage(packed=conv, threshold=_threshold(rng, CONV_OUT)),
        engine.BinStage(packed=linear, threshold=_threshold(rng, LINEAR_OUT)),
        head,
    ]
    return engine.QuantizedModel(stages=stages, input_shape=(1, IMAGE_HW, IMAGE_HW), classes=CLASSES)


def _check_preactivations(model, images):
    """Every binary stage's (z', q) from forward, skip on and off and with
    every stride-1 conv counting by planes, against int64 arithmetic over
    the reference's unpacked windows."""
    x = images
    for stage in model.stages:
        if not isinstance(stage, engine.BinStage):
            x = stage.forward(x, engine.OpsCounters())
            continue
        windows, _ = stage.window_bits(x)
        zprime_oracle, q_oracle = int_preacts(stage.packed.bits, windows)
        outs = []
        for skip, forced in ((True, False), (False, False), (True, True)):
            forcing = planes_wherever_allowed() if forced else contextlib.nullcontext()
            with forcing:
                bits, zprime, q, q_ret = forward_preacts(stage, x, engine.OpsCounters(), skip)
            assert zprime.dtype == np.int64
            assert np.array_equal(zprime, zprime_oracle)
            assert np.array_equal(q, q_oracle)
            assert np.array_equal(q_ret, q_oracle)
            outs.append(bits)
        assert all(np.array_equal(bits, o) for o in outs)
        x = bits


def _check_against_reference(model, images):
    _check_preactivations(model, images)
    ref = engine.reference_forward(model, images)
    report = metrics.build_ops_report(model)
    on, c_on = engine.infer(model, images, skip=True)
    off, c_off = engine.infer(model, images, skip=False)
    with planes_wherever_allowed():
        planes, c_planes = engine.infer(model, images, skip=True)
    assert on.tobytes() == ref.tobytes()
    assert off.tobytes() == ref.tobytes()
    assert planes.tobytes() == ref.tobytes()
    assert metrics.counters_match_report(c_on, report)
    assert metrics.counters_match_report(c_planes, report)
    n = images.shape[0]
    assert c_on.flops == c_off.flops == report.totals["flops"] * n
    assert c_off.position_ops == report.totals["bops_bnn"] * n
    # skip on runs the same word pairs as skip off, except none on a stage
    # that counts by planes
    assert [e.get("path") for e in c_off.per_layer].count("planes") == 0
    for e_on, e_off in zip(c_on.per_layer, c_off.per_layer, strict=True):
        planes = e_on.get("path") == "planes"
        assert e_on.get("word_popcounts") == (0 if planes else e_off.get("word_popcounts"))
    assert c_on.gather_ops == c_off.gather_ops == 0
    return c_on, c_off


@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("in_ch", sorted(WORDS))
def test_mixed_kernels_match_reference(in_ch, stride, padding):
    rng = np.random.default_rng([in_ch, stride, padding])
    model = _model(rng, in_ch, stride, padding, _mixed_kernels(rng, CONV_OUT, in_ch))
    images = rng.normal(size=(5, 1, IMAGE_HW, IMAGE_HW))
    _check_against_reference(model, images)
    # the 9 taps' channel words side by side, padded to whole uint64 words
    nbytes, nwords = WORDS[in_ch]
    words = model.stages[1]._words
    assert words.dtype == np.uint64
    assert words.shape == (CONV_OUT, -(-9 * nbytes * nwords // 8))


@pytest.mark.parametrize("in_ch", [1, 16, 65])
def test_all_zero_layer_matches_reference(in_ch):
    rng = np.random.default_rng(in_ch)
    bits = np.zeros((CONV_OUT, in_ch * 9), dtype=np.uint8)
    model = _model(rng, in_ch, 1, 1, bits)
    images = rng.normal(size=(4, 1, IMAGE_HW, IMAGE_HW))
    c_on, c_off = _check_against_reference(model, images)
    # skip on counts by planes: no weight one, no add and no word pair
    conv = c_on.per_layer[1]
    assert conv["path"] == "planes"
    assert conv["word_popcounts"] == 0 and conv["position_ops"] == 0
    # skip off runs all K words of each of the 4 * 7 * 7 windows in every row
    nbytes, nwords = WORDS[in_ch]
    k = -(-9 * nbytes * nwords // 8)
    assert c_off.per_layer[1]["word_popcounts"] == CONV_OUT * 4 * 7 * 7 * k


def _counts(counters):
    """The counters without the stages' wall times, which differ per call."""
    per_layer = [{k: v for k, v in e.items() if k != "seconds"} for e in counters.per_layer]
    return (counters.images, counters.position_ops, counters.word_popcounts,
            counters.flops, per_layer)


# STAGE_SLICE_VALUES -> windows per slice of the conv (12 rows, 245 windows)
# and of the linear stage (9 rows, 5 windows): 1-window slices, slices with a
# ragged last one, and one slice larger than the batch
SLICINGS = {1: (1, 1), 3 * CONV_OUT: (3, 4), 1 << 30: (245, 5)}


@pytest.mark.parametrize("budget", sorted(SLICINGS))
@pytest.mark.parametrize("in_ch", [6, 16, 65])
def test_slice_boundaries_match_reference(monkeypatch, in_ch, budget):
    rng = np.random.default_rng([in_ch, 7])
    model = _model(rng, in_ch, 1, 1, _mixed_kernels(rng, CONV_OUT, in_ch))
    images = rng.normal(size=(5, 1, IMAGE_HW, IMAGE_HW))
    whole = [_counts(engine.infer(model, images, skip=skip)[1]) for skip in (True, False)]

    monkeypatch.setattr(engine, "STAGE_SLICE_VALUES", budget)
    with captured_preacts() as slices:  # skip off: every stage counts by popcount
        engine.infer(model, images, skip=False)
    conv_step, linear_step = SLICINGS[budget]
    want = [(CONV_OUT, min(conv_step, 245 - lo)) for lo in range(0, 245, conv_step)]
    want += [(LINEAR_OUT, min(linear_step, 5 - lo)) for lo in range(0, 5, linear_step)]
    assert [z.shape for z, _ in slices] == want

    c_on, c_off = _check_against_reference(model, images)
    assert [_counts(c_on), _counts(c_off)] == whole


def test_stage_forward_peak_memory_below_one_int64_zprime():
    """A sparse16-sized stage (256 images, 16 -> 32 channels, 14x14 input, no
    padding: 36,864 windows) never holds an (out, windows) int64 array."""
    rng = np.random.default_rng(9)
    layer = engine.PackedLayer(
        kind="conv3x3", in_ch=16, out_ch=32, stride=1, padding=0,
        bits=(rng.random((32, 16 * 9)) < 0.05).astype(np.uint8),
        omega=OmegaParams(tau=0.5, phi=-0.1),
    )
    stage = engine.BinStage(packed=layer, threshold=_threshold(rng, 32))
    x = rng.integers(0, 2, size=(256, 16, 14, 14), dtype=np.uint8)
    stage.forward(x[:1], engine.OpsCounters())  # weights packed outside the trace
    assert stage.path(x.shape) == "planes"
    tracemalloc.start()
    try:
        stage.forward(x, engine.OpsCounters())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 36864 * np.dtype(np.int64).itemsize


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
@pytest.mark.parametrize("words", [0, 1, 3])
def test_and_popcount_matmat_matches_bit_arithmetic(dtype, words):
    rng = np.random.default_rng(words)
    top = np.iinfo(dtype).max
    a = rng.integers(0, top, size=(5, words), dtype=dtype, endpoint=True)
    b = rng.integers(0, top, size=(7, words), dtype=dtype, endpoint=True)
    a[0] = top  # all ones: the largest count a word can give
    expect = [
        [sum((int(x) & int(y)).bit_count() for x, y in zip(ra, rb)) for rb in b]
        for ra in a
    ]
    got = _kernels.and_popcount_matmat(a, b)
    assert got.shape == (5, 7)
    assert got.dtype == np.int32
    assert got.tolist() == expect
    # b as a stage passes it: the transpose of a word-major (K, P) array
    assert _kernels.and_popcount_matmat(a, np.ascontiguousarray(b.T).T).tolist() == expect


@pytest.mark.parametrize("in_ch", sorted(WORDS))
def test_pack_strided_channels_matches_packbits(in_ch):
    """A stage's output is a (B, C, H, W) view of (C, B, H, W) planes; engine.pack
    along that strided channel axis is byte-identical to np.packbits."""
    rng = np.random.default_rng(in_ch)
    planes = rng.integers(0, 2, size=(in_ch, 3, 5, 4), dtype=np.uint8)
    bits = planes.transpose(1, 0, 2, 3)
    got, want = engine.pack(bits, axis=1), reference_pack(bits, axis=1)
    assert got.dtype == want.dtype and got.dtype.itemsize == WORDS[in_ch][0]
    assert got.shape == want.shape == (3, 5, 4, WORDS[in_ch][1])
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the plane path and the rule that picks it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch", [1, 5, 256])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("in_ch", [1, 6, 8, 12, 16, 65])
def test_plane_path_matches_popcount_and_reference(in_ch, padding, batch):
    rng = np.random.default_rng([in_ch, padding, batch, 11])
    model = _model(rng, in_ch, 1, padding, _mixed_kernels(rng, CONV_OUT, in_ch))
    images = rng.normal(size=(batch, 1, IMAGE_HW, IMAGE_HW))
    _check_against_reference(model, images)
    stage, x = model.stages[1], model.stages[0].forward(images, engine.OpsCounters())
    with planes_wherever_allowed():
        counters = engine.OpsCounters()
        planes, q_planes = stage.forward(x, counters)
    popcount, q_popcount = stage.forward(x, engine.OpsCounters(), skip=False)
    assert counters.per_layer[0]["path"] == "planes" and counters.word_popcounts == 0
    assert planes.dtype == np.uint8 and np.array_equal(planes, popcount)
    assert np.array_equal(q_planes, q_popcount)
    # the next stage's channel-first planes are a free transpose
    assert planes.transpose(1, 0, 2, 3).flags.c_contiguous


def _conv_stage(rng, bits, in_ch, padding=0, stride=1):
    out_ch = bits.shape[0]
    layer = engine.PackedLayer(
        kind="conv3x3", in_ch=in_ch, out_ch=out_ch, stride=stride, padding=padding,
        bits=bits, omega=OmegaParams(tau=0.3, phi=0.05),
    )
    return engine.BinStage(packed=layer, threshold=_threshold(rng, out_ch))


@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("most", [254, 255, 256])
def test_plane_path_counts_past_a_byte(most, padding):
    """Rows with 254, 255 and 256 weight ones, whose table is uint8 or
    uint16, on the plane path directly: its bits against the popcount
    path's and the float decision of the int64 oracle. An all-ones image
    reaches every row's count."""
    rng = np.random.default_rng([most, padding])
    in_ch = 30  # fan_in 270
    bits = np.zeros((6, in_ch * 9), dtype=np.uint8)
    for r, n in enumerate([most, most, most - 1, 0, 1, 150]):
        bits[r, rng.choice(in_ch * 9, size=n, replace=False)] = 1
    stage = _conv_stage(rng, bits, in_ch, padding)
    stage._prepare()
    assert stage._table.dtype == (np.uint8 if most < 255 else np.uint16)
    x = rng.integers(0, 2, size=(3, in_ch, 5, 6), dtype=np.uint8)
    x[0], x[1] = 1, 0
    got, ones, shape = stage._plane_bits(x)
    want, ones_popcount, _ = stage._popcount_bits(x)
    assert shape == (3, 3 + 2 * padding, 4 + 2 * padding)
    assert np.array_equal(got, want) and np.array_equal(ones, ones_popcount)
    windows, _ = stage.window_bits(x)
    zprime, q = int_preacts(stage.packed.bits, windows)
    assert zprime.max() == most  # the all-ones windows
    decided = stage.threshold.decide(engine.affine_remap(zprime, q[None], stage.packed.omega))
    assert np.array_equal(got, decided)


@settings(max_examples=40, deadline=None)
@given(
    in_ch=st.integers(1, 20),
    out_ch=st.integers(1, 6),
    batch=st.integers(1, 4),
    hw=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    padding=st.integers(0, 2),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_plane_path_property(in_ch, out_ch, batch, hw, padding, density, seed):
    """Random stride-1 geometries: the plane path's (z', q) equal the int64
    oracle's and its bits the popcount path's."""
    h, w = (max(d, 3 - 2 * padding) for d in hw)
    rng = np.random.default_rng(seed)
    bits = (rng.random((out_ch, in_ch * 9)) < density).astype(np.uint8)
    stage = _conv_stage(rng, bits, in_ch, padding)
    x = rng.integers(0, 2, size=(batch, in_ch, h, w), dtype=np.uint8)
    with planes_wherever_allowed():
        got, zprime, q, q_out = forward_preacts(stage, x, engine.OpsCounters(), skip=True)
    want, _ = stage.forward(x, engine.OpsCounters(), skip=False)
    windows, _ = stage.window_bits(x)
    zprime_oracle, q_oracle = int_preacts(bits, windows)
    assert np.array_equal(zprime, zprime_oracle)
    assert np.array_equal(q, q_oracle) and np.array_equal(q_out, q_oracle)
    assert np.array_equal(got, want)


def _density_stage(rng, in_ch, out_ch, ones, stride=1):
    bits = (rng.random((out_ch, in_ch * 9)) < ones).astype(np.uint8)
    return _conv_stage(rng, bits, in_ch, stride=stride)


class TestPathRule:
    """BinStage.path on the benchmark workloads' stage shapes (B = 256)."""

    def test_sparse16_stages_count_by_planes(self):
        rng = np.random.default_rng(81)
        first = _density_stage(rng, 16, 32, 0.05)
        second = _density_stage(rng, 32, 32, 0.05)
        assert first.path((256, 16, 14, 14)) == "planes"
        assert second.path((256, 32, 12, 12)) == "planes"
        # skip off always counts by popcount
        assert first.path((256, 16, 14, 14), skip=False) == "popcount"

    def test_dense_wide_stages_count_by_popcount(self):
        rng = np.random.default_rng(82)
        assert _density_stage(rng, 64, 128, 0.5).path((256, 64, 6, 6)) == "popcount"
        assert _density_stage(rng, 128, 128, 0.5).path((256, 128, 4, 4)) == "popcount"

    def test_strided_and_linear_stages_count_by_popcount(self):
        rng = np.random.default_rng(83)
        strided = _density_stage(rng, 16, 32, 0.0, stride=2)
        assert strided.path((256, 16, 14, 14)) == "popcount"
        linear = engine.PackedLayer(
            kind="linear", in_ch=64, out_ch=8, stride=1, padding=0,
            bits=np.zeros((8, 64), dtype=np.uint8), omega=OmegaParams(tau=0.3, phi=0.05),
        )
        assert engine.BinStage(linear, _threshold(rng, 8)).path((256, 64)) == "popcount"

    def test_all_zero_layer_runs_no_word_pair(self):
        rng = np.random.default_rng(84)
        stage = _density_stage(rng, 16, 32, 0.0)
        x = rng.integers(0, 2, size=(2, 16, 5, 5), dtype=np.uint8)
        counters = engine.OpsCounters()
        stage.forward(x, counters)
        assert stage.path(x.shape) == "planes"
        assert counters.per_layer == [
            {"layer": "bin_conv3x3", "path": "planes", "position_ops": 0,
             "word_popcounts": 0, "flops": 4 * 32 * 2 * 3 * 3}
        ]
