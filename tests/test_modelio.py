import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from helpers import (
    dense_heavy_model,
    golden_model,
    head_before_last_model,
    reference_kernel_payload,
    scattered_decode_kernel_payload,
    unpacked_encode_kernel_payload,
    with_crc,
)
from sbnn import dataio, engine, metrics, modelio, nn
from sbnn.binquant import OmegaParams
from sbnn.train import quantize_network


def model_equal(a, b):
    if len(a.stages) != len(b.stages):
        return False
    if a.input_shape != b.input_shape or a.classes != b.classes:
        return False
    for sa, sb in zip(a.stages, b.stages):
        if type(sa) is not type(sb):
            return False
        if isinstance(sa, engine.FloatStage):
            if (sa.kind, sa.in_ch, sa.out_ch, sa.stride, sa.padding, sa.takes_bits) != (
                sb.kind, sb.in_ch, sb.out_ch, sb.stride, sb.padding, sb.takes_bits
            ):
                return False
            if not np.array_equal(sa.weight, sb.weight):
                return False
            if not np.array_equal(sa.threshold.orientation, sb.threshold.orientation):
                return False
            if not np.array_equal(sa.threshold.theta, sb.threshold.theta):
                return False
        elif isinstance(sa, engine.BinStage):
            pa, pb = sa.packed, sb.packed
            if (pa.kind, pa.in_ch, pa.out_ch, pa.stride, pa.padding) != (
                pb.kind, pb.in_ch, pb.out_ch, pb.stride, pb.padding
            ):
                return False
            if not np.array_equal(pa.bits, pb.bits):
                return False
            if (pa.omega.tau, pa.omega.phi, pa.omega.degenerate) != (
                pb.omega.tau, pb.omega.phi, pb.omega.degenerate
            ):
                return False
            if not np.array_equal(sa.threshold.orientation, sb.threshold.orientation):
                return False
            if not np.array_equal(sa.threshold.theta, sb.threshold.theta):
                return False
        elif isinstance(sa, engine.Head):
            if not (np.array_equal(sa.weight, sb.weight) and np.array_equal(sa.bias, sb.bias)):
                return False
    return True


def random_model(rng, mode="analytic"):
    width = int(rng.integers(3, 8))
    hw = int(rng.choice([8, 10, 12]))
    spec = nn.conv_net_spec(in_ch=1, classes=int(rng.integers(2, 5)), width=width,
                            image_hw=hw, omega_mode=mode)
    net = nn.Network(spec, np.random.default_rng(int(rng.integers(2**32))))
    for layer in net.layers:
        if isinstance(layer, nn.BatchNorm):
            c = layer.running_mean.size
            layer.running_mean[...] = rng.normal(0, 1, size=c)
            layer.running_var[...] = rng.uniform(0.05, 2.0, size=c)
            layer.gamma.value[...] = rng.normal(1.0, 0.5, size=c)
            layer.beta.value[...] = rng.normal(0, 0.5, size=c)
    classes = spec[-1].out_ch
    return quantize_network(net, (1, hw, hw), classes)


class TestHeaderErrors:
    def test_empty_model_prefix(self):
        m = engine.QuantizedModel(stages=[], input_shape=(1, 4, 4), classes=2)
        data = modelio.encode(m)
        assert data[:4] == b"SBNN"
        assert data[4:6] == (1).to_bytes(2, "little")
        assert data[6:8] == (0).to_bytes(2, "little")
        assert len(data) == 8 + 4 + 1 + 12 + 4  # prefix, classes, ndim, dims, crc
        with pytest.raises(modelio.ModelFileError, match="does not end in the head"):
            modelio.decode(data)

    def test_bad_magic(self):
        m = engine.QuantizedModel(stages=[], input_shape=(1, 4, 4), classes=2)
        data = bytearray(modelio.encode(m))
        data[0] = ord("X")
        with pytest.raises(modelio.BadMagic):
            modelio.decode(bytes(data))

    def test_bad_version(self):
        m = engine.QuantizedModel(stages=[], input_shape=(1, 4, 4), classes=2)
        data = bytearray(modelio.encode(m))
        data[4] = 99
        with pytest.raises(modelio.BadVersion):
            modelio.decode(bytes(data))

    def test_crc_mismatch(self):
        rng = np.random.default_rng(0)
        data = bytearray(modelio.encode(random_model(rng)))
        data[20] ^= 0xFF
        with pytest.raises(modelio.CrcMismatch):
            modelio.decode(bytes(data))

    def test_truncated(self):
        rng = np.random.default_rng(1)
        data = modelio.encode(random_model(rng))
        with pytest.raises(modelio.TruncatedStream):
            modelio.decode(data[:6])


class TestGoldenBytes:
    def test_encoding_is_pinned(self):
        m = golden_model()
        assert m.stages[1].packed.kernel_counts == (1, 3, 11)
        data = modelio.encode(m)
        assert len(data) == 684
        assert hashlib.sha256(data).hexdigest() == (
            "46f53e47f28643bc8d17e58e61f3bb488e50f816a9b2b3d4a8a29e33b318a695"
        )
        assert modelio.encode(modelio.decode(data)) == data


class TestRoundTrip:
    def test_round_trip_small(self):
        rng = np.random.default_rng(2)
        m = random_model(rng)
        assert model_equal(modelio.decode(modelio.encode(m)), m)

    def test_encode_decode_encode_stable(self):
        rng = np.random.default_rng(3)
        m = random_model(rng)
        data = modelio.encode(m)
        assert modelio.encode(modelio.decode(data)) == data

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = random_model(rng, mode=str(rng.choice(["analytic", "pm1"])))
            back = modelio.decode(modelio.encode(m))
            assert model_equal(back, m)

    def test_round_trip_preserves_inference(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        back = modelio.decode(modelio.encode(m))
        x = rng.normal(size=(4,) + tuple(m.input_shape))
        la, _ = engine.infer(m, x)
        lb, _ = engine.infer(back, x)
        assert np.array_equal(la, lb)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        m = random_model(rng)
        path = tmp_path / "m.sbnn"
        modelio.save_model(path, m)
        assert model_equal(modelio.load_model(path), m)


class TestBinaryLinearStage:
    def _mlp_model(self, seed=0):
        rng = np.random.default_rng(seed)
        spec = nn.mlp_spec(in_features=20, classes=3, hidden=16, omega_mode="analytic")
        net = nn.Network(spec, np.random.default_rng(seed + 1))
        for layer in net.layers:
            if isinstance(layer, nn.BatchNorm):
                c = layer.running_mean.size
                layer.running_mean[...] = rng.normal(0, 1, size=c)
                layer.running_var[...] = rng.uniform(0.1, 2.0, size=c)
        return quantize_network(net, (20,), 3)

    def test_round_trip(self):
        m = self._mlp_model()
        assert any(
            s.packed.kind == "linear" for s in m.binary_stages()
        ), "expected a binary linear stage"
        back = modelio.decode(modelio.encode(m))
        assert model_equal(back, m)
        assert modelio.encode(back) == modelio.encode(m)

    def test_inference_preserved(self):
        m = self._mlp_model(seed=3)
        back = modelio.decode(modelio.encode(m))
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 20))
        la, _ = engine.infer(m, x)
        lb, _ = engine.infer(back, x)
        assert np.array_equal(la, lb)

    def test_linear_payload_is_one_bit_per_weight(self):
        m = self._mlp_model(seed=5)
        stage = next(s for s in m.binary_stages() if s.packed.kind == "linear")
        assert modelio.kernel_payload_bits(stage.packed) == stage.packed.bits.size


class TestPayloadLaw:
    def test_payload_bits_equals_bparams_bits(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = random_model(rng)
            expect = 0
            for stage in m.binary_stages():
                k0, k1, kd = stage.packed.kernel_counts
                expect += metrics.bparams_bits(k0, k1, kd)
            assert modelio.payload_bits(m) == expect

    def test_spec_payload_size_example(self):
        # 100 kernels, 70 zero / 20 single / 10 dense -> 370 bits -> 47 bytes
        rng = np.random.default_rng(8)
        kernels = []
        for _ in range(70):
            kernels.append(np.zeros(9, dtype=np.uint8))
        for _ in range(20):
            k = np.zeros(9, dtype=np.uint8)
            k[rng.integers(9)] = 1
            kernels.append(k)
        for _ in range(10):
            k = np.zeros(9, dtype=np.uint8)
            on = rng.choice(9, size=int(rng.integers(2, 9)), replace=False)
            k[on] = 1
            kernels.append(k)
        bits = np.stack(kernels).reshape(4, 25 * 9)  # 4 out x 25 in kernels
        packed = engine.PackedLayer(
            kind="conv3x3", in_ch=25, out_ch=4, stride=1, padding=0,
            bits=bits, omega=OmegaParams(tau=1.0, phi=0.0),
        )
        assert modelio.kernel_payload_bits(packed) == 370
        payload = modelio._encode_kernel_payload(packed)
        assert len(payload) == 47


def _conv_layer(kernels):
    """A 1-output conv layer holding the given (in_ch, 9) kernels."""
    return engine.PackedLayer(
        kind="conv3x3", in_ch=kernels.shape[0], out_ch=1, stride=1, padding=0,
        bits=kernels.reshape(1, -1), omega=OmegaParams(tau=1.0, phi=0.0),
    )


def _payload_round_trip(layer):
    """(payload bits MSB-first, decoded weights) of one layer's payload."""
    payload = modelio._encode_kernel_payload(layer)
    cur = modelio._Cursor(payload)
    back, _ = modelio._decode_kernel_payload(cur, layer.kind, layer.out_ch, layer.fan_in)
    assert cur.pos == len(payload)
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8)), back


class TestKernelPayload:
    def test_matches_bit_by_bit_reference(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            kind = ("conv3x3", "linear")[trial % 2]
            out_ch, in_ch = (int(v) for v in rng.integers(1, 12, size=2))
            fan_in = 9 * in_ch if kind == "conv3x3" else 7 * in_ch
            bits = (rng.random((out_ch, fan_in)) < rng.uniform(0.0, 0.5)).astype(np.uint8)
            layer = engine.PackedLayer(
                kind=kind, in_ch=fan_in // 9 if kind == "conv3x3" else fan_in,
                out_ch=out_ch, stride=1, padding=0, bits=bits,
                omega=OmegaParams(tau=1.0, phi=0.0),
            )
            payload = modelio._encode_kernel_payload(layer)
            assert payload == reference_kernel_payload(kind, bits)
            _, back = _payload_round_trip(layer)
            assert np.array_equal(back, bits)

    def test_single_index_at_every_position(self):
        layer = _conv_layer(np.eye(9, dtype=np.uint8))  # kernel k: Single at k
        stream, back = _payload_round_trip(layer)
        assert stream[:18].tolist() == [0, 1] * 9
        index = stream[18 : 18 + 36].reshape(9, 4) @ np.array([8, 4, 2, 1])
        assert index.tolist() == list(range(9))
        assert not stream[18 + 36 :].any()  # byte padding
        assert np.array_equal(back, layer.bits)

    def test_dense_pattern_is_raw_bits_in_position_order(self):
        kernels = np.array(
            [[1, 0, 1, 0, 0, 0, 0, 0, 1], [0] * 9, [0, 1, 1, 1, 1, 1, 1, 1, 1]], dtype=np.uint8
        )
        stream, back = _payload_round_trip(_conv_layer(kernels))
        assert stream[:6].tolist() == [1, 0, 0, 0, 1, 0]
        assert stream[6:15].tolist() == kernels[0].tolist()
        assert stream[15:24].tolist() == kernels[2].tolist()
        assert np.array_equal(back, kernels.reshape(1, -1))

    def test_linear_payload_is_the_bits_msb_first(self):
        rng = np.random.default_rng(11)
        bits = (rng.random((3, 13)) < 0.5).astype(np.uint8)
        layer = engine.PackedLayer(
            kind="linear", in_ch=13, out_ch=3, stride=1, padding=0,
            bits=bits, omega=OmegaParams(tau=1.0, phi=0.0),
        )
        stream, back = _payload_round_trip(layer)
        assert stream.size == 40 and stream[:39].tolist() == bits.ravel().tolist()
        assert np.array_equal(back, bits)


def _oracle_layers():
    """Conv layers that are all Zero, all Single, all Dense, every 9-bit
    kernel once, and mixed at several one-bit fractions; linear stages."""
    rng = np.random.default_rng(24)
    eye = np.eye(9, dtype=np.uint8)
    every = np.unpackbits(np.arange(512, dtype=">u2").view(np.uint8)).reshape(512, 16)[:, 7:]
    dense = every[every.sum(axis=1) >= 2]
    convs = [
        np.zeros((6, 5 * 9), dtype=np.uint8),
        eye[rng.integers(0, 9, 30)].reshape(6, 45),
        dense[rng.integers(0, dense.shape[0], 30)].reshape(6, 45),
        rng.permutation(every).reshape(8, 64 * 9),
    ]
    convs += [(rng.random((7, 11 * 9)) < p).astype(np.uint8) for p in (0.02, 0.1, 0.3, 0.5, 0.9)]
    layers = [
        engine.PackedLayer(kind="conv3x3", in_ch=b.shape[1] // 9, out_ch=b.shape[0], stride=1,
                           padding=0, bits=b, omega=OmegaParams(tau=1.0, phi=0.0))
        for b in convs
    ]
    for out_ch, in_ch, p in ((1, 1, 0.5), (3, 13, 0.3), (7, 80, 0.5), (16, 64, 0.05)):
        bits = (rng.random((out_ch, in_ch)) < p).astype(np.uint8)
        layers.append(engine.PackedLayer(kind="linear", in_ch=in_ch, out_ch=out_ch, stride=1,
                                         padding=0, bits=bits, omega=OmegaParams(tau=1.0, phi=0.0)))
    return layers


def _decode_with(decoder, payload, kind, out_ch, fan_in):
    """(bits, counts, bytes read) of one payload, or the error's (type, text)."""
    cur = modelio._Cursor(payload)
    try:
        bits, counts = decoder(cur, kind, out_ch, fan_in)
    except modelio.ModelFileError as exc:
        return type(exc), str(exc)
    return bits, counts, cur.pos


class TestCodecMatchesTheOracles:
    """The bulk codec against the fancy-indexed one it replaced."""

    @pytest.mark.parametrize("layer", _oracle_layers(), ids=lambda l: f"{l.kind}-{l.bits.shape}")
    def test_encode_and_decode(self, layer):
        payload = modelio._encode_kernel_payload(layer)
        assert payload == unpacked_encode_kernel_payload(layer)
        args = (payload, layer.kind, layer.out_ch, layer.fan_in)
        bits, counts, read = _decode_with(modelio._decode_kernel_payload, *args)
        expected = _decode_with(scattered_decode_kernel_payload, *args)
        assert bits.dtype == np.uint8 and np.array_equal(bits, expected[0])
        assert np.array_equal(bits, layer.bits)
        assert counts == expected[1] == layer.kernel_counts  # (0, 0, 0) for a linear stage
        assert read == expected[2] == len(payload)

    def test_decoders_agree_on_edited_payloads(self):
        """A random conv payload with up to three bits flipped, cut short or
        not: both decoders raise the same error, or read the same bytes into
        the same bits."""
        rng = np.random.default_rng(25)
        for _ in range(1000):
            out_ch, in_ch = (int(v) for v in rng.integers(1, 6, size=2))
            bits = (rng.random((out_ch, 9 * in_ch)) < rng.uniform(0.0, 0.5)).astype(np.uint8)
            layer = engine.PackedLayer(kind="conv3x3", in_ch=in_ch, out_ch=out_ch, stride=1,
                                       padding=0, bits=bits, omega=OmegaParams(tau=1.0, phi=0.0))
            payload = np.frombuffer(modelio._encode_kernel_payload(layer), dtype=np.uint8).copy()
            flips = rng.integers(0, 8 * payload.size, size=int(rng.integers(0, 4)))
            np.bitwise_xor.at(payload, flips // 8, (0x80 >> flips % 8).astype(np.uint8))
            payload = payload[: int(rng.integers(0, payload.size + 1))].tobytes()
            args = (payload, "conv3x3", out_ch, 9 * in_ch)
            got = _decode_with(modelio._decode_kernel_payload, *args)
            expect = _decode_with(scattered_decode_kernel_payload, *args)
            if len(expect) == 2:
                assert got[0] is expect[0]
                assert got[0] is modelio.TruncatedStream or got[1] == expect[1]
            else:
                assert np.array_equal(got[0], expect[0]) and got[1:] == expect[1:]


class TestMalformedFiles:
    """Decode errors are ModelFileError, raised before arrays are sized
    from declared counts the file cannot hold."""

    def _file(self, stages, input_shape=(3, 8, 8)):
        return modelio.encode(engine.QuantizedModel(stages, input_shape, 2))

    def test_error_classes_share_a_base(self):
        for cls in (modelio.BadMagic, modelio.BadVersion, modelio.CrcMismatch,
                    modelio.TruncatedStream):
            assert issubclass(cls, modelio.ModelFileError)
        assert issubclass(modelio.ModelFileError, modelio.ValidationError)

    def test_huge_declared_kernel_count_is_truncated(self):
        # a binary conv declaring 2**20 input channels in a 126-byte file
        golden = golden_model()
        conv = golden.stages[1]
        data = bytearray(self._file([conv]))
        data[8 + 17 + 1 : 8 + 17 + 5] = struct.pack("<I", 2**20)
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[8:-4])))
        with pytest.raises(modelio.TruncatedStream, match="kernel class codes"):
            modelio.decode(bytes(data))

    def test_pool_of_odd_map(self):
        with pytest.raises(modelio.ModelFileError, match="even-sized"):
            modelio.decode(self._file([engine.BitPool()], input_shape=(3, 7, 8)))

    def test_conv_window_larger_than_map(self):
        conv = golden_model().stages[1]
        conv.packed.padding = 0
        with pytest.raises(modelio.ModelFileError, match="does not fit"):
            modelio.decode(self._file([conv], input_shape=(3, 1, 8)))
        # a 2-high map would give an empty output map
        with pytest.raises(modelio.ModelFileError, match="does not fit"):
            modelio.decode(self._file([conv], input_shape=(3, 2, 8)))

    def test_conv_padding_above_two(self):
        conv = golden_model().stages[1]
        conv.packed.padding = 3
        with pytest.raises(modelio.ModelFileError, match="conv padding 3 above 2"):
            modelio.decode(self._file([conv]))
        conv.packed.padding = 2  # a (5, 10, 10) map
        modelio.decode(self._file([conv, engine.Head(np.zeros((2, 500)), np.zeros(2))]))

    def test_conv_stride_zero(self):
        conv = golden_model().stages[1]
        conv.packed.stride = 0
        with pytest.raises(modelio.ModelFileError, match="stride 0"):
            modelio.decode(self._file([conv]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["stem weight", "head weight", "head bias"])
    def test_non_finite_floats(self, where, bad):
        model = golden_model()
        stem, head = model.stages[0], model.stages[-1]
        target = {"stem weight": stem.weight, "head weight": head.weight, "head bias": head.bias}
        target[where].flat[1] = bad
        with pytest.raises(modelio.ModelFileError, match="hold NaN or infinite values"):
            modelio.decode(modelio.encode(model))

    @pytest.mark.parametrize("stage", [0, 1])
    def test_nan_threshold(self, stage):
        model = golden_model()
        model.stages[stage].threshold.theta[1] = np.nan
        with pytest.raises(modelio.ModelFileError, match="NaN threshold"):
            modelio.decode(modelio.encode(model))

    def test_infinite_thresholds_load(self):
        """from_batchnorm writes theta = +-inf for a constant channel."""
        model = golden_model()
        for stage in (0, 1):
            model.stages[stage].threshold.theta[:2] = [np.inf, -np.inf]
        loaded = modelio.decode(modelio.encode(model))
        assert model_equal(loaded, model)
        images = np.random.default_rng(73).normal(size=(4, 1, 8, 8))
        logits, _ = engine.infer(loaded, images)
        assert np.array_equal(logits, engine.reference_forward(model, images))

    @pytest.mark.parametrize(
        "flag, tau, loads",
        [(1, 0.5, False), (0, 0.0, False), (0, -0.0, False),
         (1, 0.0, True), (1, -0.0, True), (0, 0.5, True)],
    )
    def test_degenerate_flag_is_tau_zero(self, flag, tau, loads):
        """A binary stage's flag byte is 1 exactly when tau == 0; a file
        that loads re-encodes to itself."""
        model = golden_model()
        stem = engine.QuantizedModel(model.stages[:1], model.input_shape, model.classes)
        off = len(modelio.encode(stem)) - 4 + 1 + 16  # stage 1's tag, in/out/stride/pad
        data = bytearray(modelio.encode(model))
        data[off] = flag
        data[off + 1 : off + 9] = struct.pack("<d", tau)
        data = with_crc(data)
        if loads:
            assert modelio.encode(modelio.decode(data)) == data
        else:
            with pytest.raises(modelio.ModelFileError, match=f"degenerate flag {flag}, tau "):
                modelio.decode(data)

    def test_head_before_the_last_stage(self):
        # such a file once loaded, and infer then raised a DataError
        with pytest.raises(modelio.ModelFileError, match="^the stage chain does not end in the head$"):
            modelio.decode(modelio.encode(head_before_last_model()))

    @pytest.mark.parametrize("classes", [0, 1, 3, 2**32 - 1])
    def test_classes_equal_head_outputs(self, classes):
        data = bytearray(modelio.encode(golden_model()))
        data[8:12] = struct.pack("<I", classes)
        with pytest.raises(modelio.ModelFileError, match=f"^2 head outputs for {classes} classes$"):
            modelio.decode(with_crc(data))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_bit_edits_fail_or_re_encode(self, seed):
        """Every file that loads re-encodes to itself: a single-bit edit of
        the golden file (with its crc fixed up) either raises a
        ModelFileError or decodes to a model whose encoding is the edited
        file. Edits that must raise include flag bytes above 1, threshold
        orientations other than +-1, nonzero payload padding bits and a
        Dense class code on a kernel with fewer than 2 one-bits."""
        golden = modelio.encode(golden_model())
        rng = np.random.default_rng(seed)
        loaded = 0
        for bit in rng.integers(0, 8 * (len(golden) - 4), size=1000):
            data = bytearray(golden)
            data[bit // 8] ^= 0x80 >> bit % 8
            data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[8:-4])))
            try:
                model = modelio.decode(bytes(data))
            except modelio.ModelFileError:
                continue
            loaded += 1
            assert modelio.encode(model) == bytes(data), f"bit {bit}"
        assert loaded > 500  # most edits change a float or a weight bit


class TestEveryEditOfAFile:
    """Every single-bit edit (crc fixed up) of the Dense-heavy model's file
    either raises a ModelFileError or loads a model that re-encodes to the
    edited bytes, and every truncation of it and of the golden file raises
    a ModelFileError: no other exception, and no allocation sized from a
    count before its bytes are read. (The golden file's bit edits are
    sampled in TestMalformedFiles.)"""

    PEAK_BYTES = 1 << 20

    def _decode(self, data):
        """The model, or None for a ModelFileError; the traced peak of the
        call stays under PEAK_BYTES."""
        tracemalloc.reset_peak()
        try:
            return modelio.decode(data)
        except modelio.ModelFileError:
            return None
        finally:
            assert tracemalloc.get_traced_memory()[1] < self.PEAK_BYTES

    @pytest.fixture(autouse=True)
    def _traced(self):
        tracemalloc.start()
        yield
        tracemalloc.stop()

    def test_every_single_bit_edit(self):
        original = modelio.encode(dense_heavy_model())
        loaded = 0
        for bit in range(8 * (len(original) - 4)):
            data = bytearray(original)
            data[bit // 8] ^= 0x80 >> bit % 8
            data = with_crc(data)
            model = self._decode(data)
            if model is not None:
                loaded += 1
                assert modelio.encode(model) == data, f"bit {bit}"
        assert loaded > 4 * len(original)  # most edits change a float or a weight bit

    @pytest.mark.parametrize("make", [golden_model, dense_heavy_model])
    def test_every_truncation(self, make):
        original = modelio.encode(make())
        for end in range(len(original)):
            assert self._decode(original[:end]) is None
            if 8 <= end < len(original) - 4:  # the body cut short, under its crc
                assert self._decode(with_crc(original[:end] + bytes(4))) is None
