"""Channel-packed binary stages across every word width, stride and padding.

Each model is a float stem (1 -> in_ch channels), a binary 3x3 conv whose
kernels mix Zero, Single and Dense, a binary linear stage and the head. The
engine must match the dense float reference bit for bit with skipping on and
off, and its counters must match the static ops report.
"""

import tracemalloc

import numpy as np
import pytest

from sbnn import _kernels, engine, metrics
from sbnn.binquant import OmegaParams

from helpers import captured_preacts, forward_preacts, int_preacts, reference_pack

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
    """Every binary stage's (z', q) from forward, skip on and off, against
    int64 arithmetic over the reference's unpacked windows."""
    x = images
    for stage in model.stages:
        if not isinstance(stage, engine.BinStage):
            x = stage.forward(x, engine.OpsCounters())
            continue
        windows, _ = stage.window_bits(x)
        zprime_oracle, q_oracle = int_preacts(stage.packed.bits, windows)
        for skip in (True, False):
            bits, zprime, q, q_ret = forward_preacts(stage, x, engine.OpsCounters(), skip)
            assert zprime.dtype == np.int64
            assert np.array_equal(zprime, zprime_oracle)
            assert np.array_equal(q, q_oracle)
            assert np.array_equal(q_ret, q_oracle)
        x = bits


def _check_against_reference(model, images):
    _check_preactivations(model, images)
    ref = engine.reference_forward(model, images)
    report = metrics.build_ops_report(model)
    on, c_on = engine.infer(model, images, skip=True)
    off, c_off = engine.infer(model, images, skip=False)
    assert on.tobytes() == ref.tobytes()
    assert off.tobytes() == ref.tobytes()
    assert metrics.counters_match_report(c_on, report)
    n = images.shape[0]
    assert c_on.flops == c_off.flops == report.totals["flops"] * n
    assert c_off.position_ops == report.totals["bops_bnn"] * n
    assert c_on.word_popcounts == c_off.word_popcounts
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
    c_on, _ = _check_against_reference(model, images)
    conv = c_on.per_layer[1]
    # every row runs all K words of each of the 4 * 7 * 7 windows
    nbytes, nwords = WORDS[in_ch]
    k = -(-9 * nbytes * nwords // 8)
    assert conv["word_popcounts"] == CONV_OUT * 4 * 7 * 7 * k and conv["position_ops"] == 0


def _counts(counters):
    return (counters.images, counters.position_ops, counters.word_popcounts,
            counters.flops, counters.per_layer)


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
    with captured_preacts() as slices:
        engine.infer(model, images)
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
