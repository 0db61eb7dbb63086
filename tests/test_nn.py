import tracemalloc

import numpy as np
import pytest

from sbnn import dataio, nn, train
from sbnn.binquant import ValidationError

from helpers import (
    CACHED_LAYERS,
    clip_surrogate,
    dense_sign_dot,
    forward_binary_conv,
    forward_binary_linear,
    reference_batchnorm_backward,
    reference_batchnorm_forward,
    reference_conv3x3_backward,
    reference_conv3x3_forward,
    reference_conv_forward,
    reference_conv_im2col,
)


def finite_diff_check(net, x, y, rng, per_param=6, rtol=1e-4):
    """Compare analytic grads to central differences of the forward under
    clip_surrogate (sign replaced by its clipped-identity surrogate),
    skipping points near the clip kinks. Call it inside that block."""
    net.zero_grads()
    logits = net.forward(x, train=True)
    _, dl = nn.softmax_cross_entropy(logits, y)
    net.backward(dl)

    def loss_at():
        lg = net.forward(x, train=True)
        return nn.softmax_cross_entropy(lg, y)[0]

    checked = 0
    for name, p in net.params():
        flat, gflat = p.value.ravel(), p.grad.ravel()
        for _ in range(min(per_param, flat.size)):
            i = int(rng.integers(flat.size))
            if abs(abs(flat[i]) - 1.0) < 1e-3:
                continue
            old = flat[i]
            h = 1e-6
            flat[i] = old + h
            lp = loss_at()
            flat[i] = old - h
            lm = loss_at()
            flat[i] = old
            fd = (lp - lm) / (2 * h)
            assert np.isclose(gflat[i], fd, rtol=rtol, atol=1e-7), (
                f"{name}[{i}]: analytic {gflat[i]}, fd {fd}"
            )
            checked += 1
    return checked


class TestForwardBinaryLinear:
    def test_hand_example(self):
        w = np.array([[1, -1], [-1, -1]])
        x = np.array([[1, 1]])
        assert forward_binary_linear(x, w).tolist() == [[0, -2]]

    def test_identity_pattern(self):
        w = np.eye(4) * 2 - 1  # +1 diagonal, -1 off: y_i = x_i - sum(x_j, j!=i)
        x = np.array([[1.0, -1.0, 1.0, 1.0]])
        y = forward_binary_linear(x, w)
        expect = [2 * x[0, i] - x.sum() for i in range(4)]
        assert y[0].tolist() == expect

    def test_matches_integer_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            o, i = int(rng.integers(1, 9)), int(rng.integers(1, 33))
            w = rng.choice([-1, 1], size=(o, i))
            x = rng.choice([-1, 1], size=(3, i))
            got = forward_binary_linear(x, w)
            expect = x.astype(np.int64) @ w.astype(np.int64).T
            assert np.array_equal(got, expect.astype(np.float64))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            forward_binary_linear(np.ones((1, 3)), np.ones((2, 4)))


class TestForwardBinaryConv:
    def test_all_ones_window(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = forward_binary_conv(x, w)
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == 9.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.choice([-1, 1], size=(2, 2, 6, 6)).astype(np.float64)
        w = rng.choice([-1, 1], size=(3, 2, 3, 3)).astype(np.float64)
        y = forward_binary_conv(x, w)
        # direct 6-loop convolution
        b, co = 2, 3
        expect = np.zeros((b, co, 4, 4))
        for bi in range(b):
            for o in range(co):
                for oy in range(4):
                    for ox in range(4):
                        acc = 0.0
                        for ci in range(2):
                            for ky in range(3):
                                for kx in range(3):
                                    acc += w[o, ci, ky, kx] * x[bi, ci, oy + ky, ox + kx]
                        expect[bi, o, oy, ox] = acc
        assert np.array_equal(y, expect)

    def test_minus_one_halo(self):
        # padding contributes -1-valued activations
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = forward_binary_conv(x, w, padding=1)
        assert y.shape == (1, 1, 3, 3)
        assert y[0, 0, 1, 1] == 9.0  # untouched center
        assert y[0, 0, 0, 0] == 4 - 5  # corner: 4 real ones, 5 halo -1s

    def test_bad_kernel_shape(self):
        with pytest.raises(ValidationError):
            forward_binary_conv(np.ones((1, 1, 4, 4)), np.ones((1, 1, 2, 2)))


class TestLayers:
    def test_sign_act_zero_is_plus_one(self):
        layer = nn.SignAct(nn.LayerSpec("signact"))
        out = layer.forward(np.array([[0.0, -0.2, 0.7]]))
        assert out.tolist() == [[1.0, -1.0, 1.0]]

    def test_sign_act_ste_backward(self):
        layer = nn.SignAct(nn.LayerSpec("signact"))
        layer.forward(np.array([[0.5, 1.5, -1.0]]))
        g = layer.backward(np.array([[1.0, 1.0, 1.0]]))
        assert g.tolist() == [[1.0, 0.0, 1.0]]

    def test_maxpool_forward_backward(self):
        layer = nn.MaxPool2x2(nn.LayerSpec("pool"))
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        y = layer.forward(x)
        assert y[0, 0].tolist() == [[5, 7], [13, 15]]
        g = layer.backward(np.ones_like(y))
        assert g.sum() == 4
        assert g[0, 0, 1, 1] == 1  # position of 5

    def test_maxpool_tie_routes_to_first(self):
        layer = nn.MaxPool2x2(nn.LayerSpec("pool"))
        x = np.ones((1, 1, 2, 2))
        layer.forward(x)
        g = layer.backward(np.ones((1, 1, 1, 1)))
        assert g[0, 0, 0, 0] == 1.0 and g.sum() == 1.0

    def test_batchnorm_normalizes(self):
        layer = nn.BatchNorm(nn.LayerSpec("batchnorm", out_ch=3))
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 3.0, size=(64, 3))
        y = layer.forward(x, train=True)
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(y.std(axis=0), 1.0, atol=1e-3)

    def test_batchnorm_eval_uses_running_stats(self):
        layer = nn.BatchNorm(nn.LayerSpec("batchnorm", out_ch=2))
        rng = np.random.default_rng(1)
        for _ in range(50):
            layer.forward(rng.normal(1.0, 2.0, size=(32, 2)), train=True)
        y = layer.forward(np.array([[1.0, 1.0]]), train=False)
        assert np.all(np.abs(y) < 0.5)  # near the running mean

    @pytest.mark.parametrize("shape", [(64, 5), (32, 12, 4, 4), (16, 16, 14, 14), (8, 3, 2, 2)])
    def test_batchnorm_matches_the_np_var_oracle(self, shape):
        """Centering the input once gives the outputs, every gradient and
        the running statistics of np.var and a recentered backward, bit for
        bit, over training steps and an inference forward after them."""
        c, rng = shape[1], np.random.default_rng(shape[1])
        layer, oracle = (nn.BatchNorm(nn.LayerSpec("batchnorm", out_ch=c)) for _ in range(2))
        gamma, beta = rng.normal(1.0, 0.5, size=c), rng.normal(0.0, 0.5, size=c)
        for bn in (layer, oracle):
            bn.gamma.value[...], bn.beta.value[...] = gamma, beta
        for _ in range(3):
            x = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), size=shape)
            g = rng.normal(size=shape)
            y = layer.forward(x, train=True)
            assert np.array_equal(y, reference_batchnorm_forward(oracle, x, train=True))
            assert np.array_equal(layer.backward(g), reference_batchnorm_backward(oracle, g))
            for got, want in [
                (layer.gamma.grad, oracle.gamma.grad), (layer.beta.grad, oracle.beta.grad),
                (layer.running_mean, oracle.running_mean), (layer.running_var, oracle.running_var),
            ]:
                assert np.array_equal(got, want)
        x = rng.normal(size=shape)
        assert np.array_equal(layer.forward(x), reference_batchnorm_forward(oracle, x))

    def test_batchnorm_inference_forward_keeps_no_cache(self):
        layer = nn.BatchNorm(nn.LayerSpec("batchnorm", out_ch=2))
        x = np.random.default_rng(2).normal(size=(8, 2))
        layer.forward(x, train=True)
        assert layer._cache is not None
        layer.forward(x)
        assert layer._cache is None

    def test_conv_padding_bounded(self):
        nn.LayerSpec("conv3x3", in_ch=1, out_ch=1, padding=nn.MAX_CONV_PADDING)
        for padding in (nn.MAX_CONV_PADDING + 1, -1):
            with pytest.raises(ValidationError, match="conv padding"):
                nn.LayerSpec("conv3x3", in_ch=1, out_ch=1, padding=padding)

    @pytest.mark.parametrize("kind", ["conv3x3", "linear"])
    def test_bias_only_on_the_classifier(self, kind):
        """Conv3x3 would ignore a bias and quantization would drop one before
        batchnorm, so only the classifier may declare it."""
        with pytest.raises(ValidationError, match="only the classifier takes a bias"):
            nn.LayerSpec(kind, in_ch=2, out_ch=3, bias=True)
        nn.LayerSpec("classifier", in_ch=2, out_ch=3, bias=True)

    @pytest.mark.parametrize("sizes", [dict(in_ch=-1), dict(out_ch=2.0), dict(stride="1")])
    def test_sizes_are_non_negative_integers(self, sizes):
        with pytest.raises(ValidationError, match="not non-negative integers"):
            nn.LayerSpec("linear", **{"in_ch": 2, "out_ch": 3, **sizes})

    def test_conv_weight_counts(self):
        spec = nn.LayerSpec("conv3x3", in_ch=4, out_ch=8)
        assert spec.weight_count == 8 * 4 * 9
        spec = nn.LayerSpec("linear", in_ch=10, out_ch=3)
        assert spec.weight_count == 30


class TestNetwork:
    def test_classifier_must_be_fp(self):
        spec = (nn.LayerSpec("classifier", in_ch=4, out_ch=2, binarized=True),)
        with pytest.raises(ValidationError):
            nn.Network(spec, np.random.default_rng(0))

    def test_ones_fraction(self):
        spec = nn.mlp_spec(in_features=8, classes=2, hidden=8, omega_mode="pm1")
        net = nn.Network(spec, np.random.default_rng(0))
        f = net.ones_fraction()
        assert 0.0 <= f <= 1.0
        wb = net.concat_sign_weights()
        assert wb.size == 64

    def test_init_deterministic(self):
        spec = nn.conv_net_spec(in_ch=1, classes=2, width=4)
        a = nn.Network(spec, np.random.default_rng(42))
        b = nn.Network(spec, np.random.default_rng(42))
        for (n1, p1), (n2, p2) in zip(a.params(), b.params()):
            assert n1 == n2 and np.array_equal(p1.value, p2.value)


class TestGradients:
    def test_mlp_relaxed_finite_differences(self):
        rng = np.random.default_rng(3)
        spec = nn.mlp_spec(in_features=12, classes=2, hidden=10, omega_mode="pm1")
        net = nn.Network(spec, np.random.default_rng(7))
        x = rng.normal(size=(16, 12))
        y = rng.integers(0, 2, size=16)
        with clip_surrogate():
            checked = finite_diff_check(net, x, y, rng)
        assert checked >= 20

    def test_convnet_relaxed_finite_differences(self):
        rng = np.random.default_rng(5)
        spec = nn.conv_net_spec(in_ch=1, classes=2, width=4, omega_mode="learned")
        net = nn.Network(spec, np.random.default_rng(11))
        x = rng.normal(size=(8, 1, 8, 8))
        y = rng.integers(0, 2, size=8)
        with clip_surrogate():
            checked = finite_diff_check(net, x, y, rng)
        assert checked >= 30

    def test_learned_tau_phi_true_forward(self):
        # with no sign activation after the learned layer, the true forward
        # is differentiable in (tau, phi): check against it directly
        rng = np.random.default_rng(9)
        spec = (
            nn.LayerSpec("linear", in_ch=6, out_ch=5, binarized=True, omega_mode="learned"),
            nn.LayerSpec("classifier", in_ch=5, out_ch=2, bias=True),
        )
        net = nn.Network(spec, np.random.default_rng(2))
        x = rng.choice([-1.0, 1.0], size=(12, 6))
        y = rng.integers(0, 2, size=12)

        net.zero_grads()
        logits = net.forward(x, train=True)
        _, dl = nn.softmax_cross_entropy(logits, y)
        net.backward(dl)
        layer = net.layers[0]

        def loss_at():
            lg = net.forward(x, train=True)
            return nn.softmax_cross_entropy(lg, y)[0]

        for param in (layer.tau, layer.phi):
            old = float(param.value)
            h = 1e-6
            param.value[...] = old + h
            lp = loss_at()
            param.value[...] = old - h
            lm = loss_at()
            param.value[...] = old
            fd = (lp - lm) / (2 * h)
            assert np.isclose(float(param.grad), fd, rtol=1e-4, atol=1e-9)

    def test_conv_step_does_not_scatter_add(self, monkeypatch):
        # the conv backward adds its taps by slices; np.add.at must not return
        real_add = np.add

        class NoScatterAdd:
            def __call__(self, *args, **kwargs):
                return real_add(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(real_add, name)

            def at(self, *args, **kwargs):
                raise AssertionError("np.add.at called")

        rng = np.random.default_rng(2)
        net = nn.Network(nn.conv_net_spec(in_ch=1, classes=2, width=6), np.random.default_rng(0))
        monkeypatch.setattr(np, "add", NoScatterAdd())
        net.zero_grads()
        train.sbnn_step(net, rng.normal(size=(16, 1, 8, 8)), rng.integers(0, 2, size=16), 0.5, 0.05)
        assert all(np.any(p.grad) for _, p in net.params())

    def test_pm1_bnn_step_has_no_penalty_term(self):
        # gamma = 0: gradients identical with and without the penalty hook
        from sbnn.train import sbnn_step

        rng = np.random.default_rng(1)
        spec = nn.mlp_spec(in_features=6, classes=2, hidden=8, omega_mode="pm1")
        net = nn.Network(spec, np.random.default_rng(3))
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 2, size=8)
        net.zero_grads()
        loss1, j, lam = sbnn_step(net, x, y, gamma=0.0, ec=0.05)
        assert lam == 0.0 and j > 0.0
        grads1 = {n: p.grad.copy() for n, p in net.params()}
        net.zero_grads()
        logits = net.forward(x, train=True)
        loss2, dl = nn.softmax_cross_entropy(logits, y)
        net.backward(dl)
        assert loss1 == loss2
        for n, p in net.params():
            assert np.array_equal(grads1[n], p.grad)


# (batch, in_ch, out_ch, image_hw, binarized) of every conv layer the
# benchmark workloads train, in order: desk-train, sparse16, dense-wide
WORKLOAD_CONVS = [
    (64, 1, 6, 8, False), (64, 6, 12, 6, True), (64, 12, 12, 4, True),
    (64, 1, 16, 16, False), (64, 16, 32, 14, True), (64, 32, 32, 12, True),
    (64, 1, 64, 8, False), (64, 64, 128, 6, True), (64, 128, 128, 4, True),
]


def _conv_forward_backward(forward, backward, spec, x, g):
    layer = nn.Conv3x3(spec, np.random.default_rng(17))
    y = forward(layer, x, train=True)
    dx = backward(layer, g)
    return y, layer.weight.grad, dx


def _desk_training():
    """report.jsonl text and every parameter and running statistic after a
    3-epoch desk training."""
    ds = dataio.synthetic_classification(seed=5, n=1024, classes=2, difficulty=3.0, image_hw=8)
    cfg = train.TrainConfig(
        epochs=3, batch_size=64, learning_rate=5e-3, gamma=0.5, target_sparsity=0.95, seed=5,
    )
    net = nn.Network(
        nn.conv_net_spec(in_ch=1, classes=2, width=6, image_hw=8),
        np.random.default_rng(np.random.SeedSequence([5, 0])),
    )
    report = train.train(net, (ds.images, ds.labels), cfg)
    state = {n: p.value.copy() for n, p in net.params()}
    for i, layer in enumerate(net.layers):
        if isinstance(layer, nn.BatchNorm):
            state[f"{i}.running_mean"] = layer.running_mean.copy()
            state[f"{i}.running_var"] = layer.running_var.copy()
    return report.to_jsonl(), state


class TestConvMatchesReference:
    """Conv3x3 output, weight gradient and input gradient are bit-identical
    to the reference conv in tests/helpers.py (fancy-index im2col, np.add.at
    col2im, einsum contractions)."""

    def check(self, batch, in_ch, out_ch, hw, stride=1, padding=0, binarized=False):
        spec = nn.LayerSpec(
            "conv3x3", in_ch=in_ch, out_ch=out_ch, stride=stride, padding=padding,
            binarized=binarized,
        )
        rng = np.random.default_rng([batch, in_ch, out_ch, *hw, stride, padding])
        x = rng.normal(size=(batch, in_ch, *hw))
        ho, wo = ((d + 2 * padding - 3) // stride + 1 for d in hw)
        g = rng.normal(size=(batch, out_ch, ho, wo))
        got = _conv_forward_backward(nn.Conv3x3.forward, nn.Conv3x3.backward, spec, x, g)
        expect = _conv_forward_backward(
            reference_conv3x3_forward, reference_conv3x3_backward, spec, x, g
        )
        for what, a, b in zip(("output", "weight grad", "input grad"), got, expect):
            assert a.shape == b.shape, what
            assert np.array_equal(a, b), what

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("binarized", [False, True])
    def test_stride_padding_grid(self, stride, padding, binarized):
        self.check(5, 3, 4, (7, 10), stride, padding, binarized)

    @pytest.mark.parametrize("shape", WORKLOAD_CONVS)
    def test_workload_layers(self, shape):
        batch, in_ch, out_ch, hw, binarized = shape
        self.check(batch, in_ch, out_ch, (hw, hw), binarized=binarized)

    @pytest.mark.parametrize(
        "batch, hw, stride, padding",
        [(1, (3, 3), 1, 0), (3, (5, 5), 3, 0), (2, (1, 1), 3, 2), (1, (4, 9), 2, 1)],
    )
    def test_single_image_and_single_pixel(self, batch, hw, stride, padding):
        self.check(batch, 2, 3, hw, stride, padding, binarized=True)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_forward_only_window_rows(self, stride, padding):
        """The window rows that BinStage.window_bits and the test oracles
        forward_binary_conv and window_rows_stem_preact build gather the
        reference windows, and their product forms the reference output
        bit for bit."""
        rng = np.random.default_rng([stride, padding])
        x = rng.normal(size=(5, 3, 7, 10))
        wf = rng.normal(size=(4, 27))
        rows, hw = nn._window_rows(x, stride, padding, -1.0)
        cols, geom = reference_conv_im2col(x, stride, padding, -1.0)
        assert np.array_equal(rows, cols.transpose(0, 2, 1).reshape(rows.shape))
        assert np.array_equal(nn._conv_apply(rows, wf, hw), reference_conv_forward(wf, cols, geom))
        bits = (x >= 0).astype(np.uint8)
        rows, _ = nn._window_rows(bits, stride, padding, 0)
        cols, _ = reference_conv_im2col(bits, stride, padding, 0)
        assert rows.dtype == np.uint8
        assert np.array_equal(rows, cols.transpose(0, 2, 1).reshape(rows.shape))

    def test_desk_training_matches_reference(self, monkeypatch):
        got_report, got_state = _desk_training()
        monkeypatch.setattr(nn.Conv3x3, "forward", reference_conv3x3_forward)
        monkeypatch.setattr(nn.Conv3x3, "backward", reference_conv3x3_backward)
        expect_report, expect_state = _desk_training()
        assert got_report == expect_report
        assert got_state.keys() == expect_state.keys()
        for name, value in expect_state.items():
            assert np.array_equal(got_state[name], value), name

    def test_forward_holds_one_window_array(self):
        """One forward of 64 images, 32 -> 32 channels, 12x12 input, no
        padding, builds its (C*9, B*P) float64 window array once: the peak
        stays below 1.5 of that array (14.7 MB), where a transposed copy of
        it for the product would double it."""
        spec = nn.LayerSpec("conv3x3", in_ch=32, out_ch=32)
        layer = nn.Conv3x3(spec, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(64, 32, 12, 12))
        window_bytes = 32 * 9 * 64 * 10 * 10 * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            layer.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * window_bytes


def _same_bits(a, b):
    """Equal shape and values, down to the sign of every zero."""
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _channels_last(rng, shape):
    """A (B, C, H, W) view of channels-last memory, the layout of the conv
    output that _conv_apply returns and batchnorm gets."""
    b, c, h, w = shape
    return rng.normal(size=(b, h, w, c)).transpose(0, 3, 1, 2)


def _use_cached_layers(monkeypatch):
    for cls, (forward, backward) in CACHED_LAYERS.items():
        monkeypatch.setattr(cls, "forward", forward)
        monkeypatch.setattr(cls, "backward", backward)


class TestLayersMatchCachedOracle:
    """Conv3x3, BatchNorm and SignAct keep only their input, xc and 1/sigma,
    and a bool mask, and rebuild the rest in their backward. Their outputs,
    every gradient and the running statistics are bit-identical to the
    layers in tests/helpers.py that keep everything (CACHED_LAYERS)."""

    @staticmethod
    def run(cls, spec, x, g, oracle, steps=1, **backward_kw):
        layer = cls(spec, np.random.default_rng(17))
        forward, backward = CACHED_LAYERS[cls] if oracle else (cls.forward, cls.backward)
        out = []
        for _ in range(steps):
            out.append(forward(layer, x, train=True))
            out.append(backward(layer, g, **backward_kw))
            out += [p.grad.copy() for p in layer.params()]
            if isinstance(layer, nn.BatchNorm):
                out += [layer.running_mean, layer.running_var]
        return out

    def check(self, cls, spec, x, g, steps=1, **backward_kw):
        x_before = x.copy()
        got = self.run(cls, spec, x, g, False, steps, **backward_kw)
        assert np.array_equal(x, x_before)  # no write lands in the kept input
        expect = self.run(cls, spec, x, g, True, steps, **backward_kw)
        assert len(got) == len(expect)
        for i, (a, b) in enumerate(zip(got, expect)):
            assert _same_bits(a, b), i

    @pytest.mark.parametrize("batch, in_ch, hw, stride, padding, layout", [
        (8, 6, (7, 7), 1, 0, "channels-last"),
        (8, 6, (7, 7), 1, 0, "C"),
        (5, 3, (7, 10), 2, 0, "channels-last"),
        (5, 3, (7, 10), 2, 1, "C"),
        (5, 3, (7, 10), 1, 1, "channels-last"),
        (5, 3, (7, 10), 1, 2, "channels-last"),
        (2, 4, (1, 1), 3, 2, "C"),
        # one image, one output pixel: the windows of an unpadded 3x3 input
        # are the input itself, so a copy-free window builder would hand
        # back a read-only view of it
        (1, 3, (3, 3), 1, 0, "C"),
    ])
    @pytest.mark.parametrize("binarized", [False, True])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_conv(self, batch, in_ch, hw, stride, padding, layout, binarized, input_grad):
        spec = nn.LayerSpec("conv3x3", in_ch=in_ch, out_ch=5, stride=stride,
                            padding=padding, binarized=binarized)
        rng = np.random.default_rng([batch, in_ch, *hw, stride, padding])
        shape = (batch, in_ch, *hw)
        x = _channels_last(rng, shape) if layout == "channels-last" else rng.normal(size=shape)
        ho, wo = ((d + 2 * padding - 3) // stride + 1 for d in hw)
        g = rng.normal(size=(batch, 5, ho, wo))
        self.check(nn.Conv3x3, spec, x, g, input_grad=input_grad)

    @pytest.mark.parametrize("shape, layout", [
        ((64, 32, 10, 10), "channels-last"), ((16, 12, 4, 4), "channels-last"),
        ((16, 12, 4, 4), "C"), ((64, 5), "C"),
    ])
    def test_batchnorm(self, shape, layout):
        rng = np.random.default_rng(shape)
        x = _channels_last(rng, shape) * 2.0 + 0.5 if layout == "channels-last" else rng.normal(size=shape)
        g = rng.normal(size=shape)
        self.check(nn.BatchNorm, nn.LayerSpec("batchnorm", out_ch=shape[1]), x, g, steps=3)

    @pytest.mark.parametrize("layout", ["channels-last", "C"])
    def test_signact(self, layout):
        rng = np.random.default_rng(29)
        shape = (6, 4, 5, 5)
        x = _channels_last(rng, shape) if layout == "channels-last" else rng.normal(size=shape)
        x *= 1.5
        x[0, :, 0, :] = [-1.0, 1.0, 0.0, -0.0, np.nextafter(1.0, 2.0)]
        g = rng.normal(size=shape)
        self.check(nn.SignAct, nn.LayerSpec("signact"), x, g)

    @pytest.mark.parametrize("name", ["sparse16", "desk", "padded-strided", "mlp"])
    def test_network_steps(self, monkeypatch, name):
        """Two steps of a network, its parameters moved between them: the
        logits, every gradient and the running statistics."""
        L = nn.LayerSpec
        spec, shape = {
            "sparse16": (nn.conv_net_spec(in_ch=1, classes=10, width=16, image_hw=16),
                         (64, 1, 16, 16)),
            "desk": (nn.conv_net_spec(in_ch=1, classes=2, width=6, image_hw=8), (64, 1, 8, 8)),
            "padded-strided": ((
                L("conv3x3", in_ch=2, out_ch=5, padding=1), L("batchnorm", out_ch=5),
                L("signact"),
                L("conv3x3", in_ch=5, out_ch=6, stride=2, padding=2, binarized=True),
                L("batchnorm", out_ch=6), L("signact"),
                L("conv3x3", in_ch=6, out_ch=4, padding=1, binarized=True),
                L("batchnorm", out_ch=4), L("signact"),
                L("flatten"), L("classifier", in_ch=4 * 6 * 6, out_ch=3, bias=True),
            ), (7, 2, 9, 9)),
            "mlp": (nn.mlp_spec(in_features=64, classes=3, hidden=16), (32, 64)),
        }[name]
        rng = np.random.default_rng(31)
        x, y = rng.normal(size=shape), rng.integers(0, 2, shape[0])

        def steps():
            net = nn.Network(spec, np.random.default_rng(0))
            out = []
            for _ in range(2):
                net.zero_grads()
                logits = net.forward(x, train=True)
                net.backward(nn.softmax_cross_entropy(logits, y)[1])
                out += [logits] + [p.grad.copy() for _, p in net.params()]
                out += [l.running_var.copy() for l in net.layers if isinstance(l, nn.BatchNorm)]
                for _, p in net.params():
                    p.value -= 0.05 * p.grad
            return out

        got = steps()
        _use_cached_layers(monkeypatch)
        expect = steps()
        assert len(got) == len(expect)
        for i, (a, b) in enumerate(zip(got, expect)):
            assert _same_bits(a, b), i

    def test_desk_training(self, monkeypatch):
        got_report, got_state = _desk_training()
        _use_cached_layers(monkeypatch)
        expect_report, expect_state = _desk_training()
        assert got_report == expect_report
        assert got_state.keys() == expect_state.keys()
        for name, value in expect_state.items():
            assert _same_bits(got_state[name], value), name
