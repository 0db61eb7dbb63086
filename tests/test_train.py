import json
import tracemalloc

import numpy as np
import pytest

from helpers import float_evaluate, report_from_jsonl
from sbnn import dataio, engine, metrics, nn
from sbnn.binquant import PM1_DOMAIN, DataError, ValidationError
from sbnn.train import (
    Adam,
    TrainConfig,
    TrainingDiverged,
    cosine_lr,
    evaluate,
    load_snapshot,
    quantize_network,
    quantize_snapshot,
    restore_network,
    save_snapshot,
    sbnn_step,
    take_snapshot,
    train,
)


def small_setup(gamma=0.0, epochs=5, omega_mode="pm1", seed=2, diff=0.2):
    ds = dataio.synthetic_classification(seed=9, n=96, classes=2, difficulty=diff, image_hw=6)
    cfg = TrainConfig(
        epochs=epochs,
        batch_size=32,
        learning_rate=5e-3,
        gamma=gamma,
        target_sparsity=0.95,
        seed=seed,
        omega_mode=omega_mode,
    )
    spec = nn.mlp_spec(in_features=36, classes=2, hidden=12, omega_mode=omega_mode)
    net = nn.Network(spec, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
    images = ds.images.reshape(ds.count, -1)
    return net, (images, ds.labels), cfg, ds


class TestTrainConfig:
    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(gamma=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(gamma=-0.1)

    def test_ec_from_sparsity(self):
        cfg = TrainConfig(target_sparsity=0.95)
        assert cfg.ec == pytest.approx(0.05)

    def test_ec_from_hstar(self):
        cfg = TrainConfig(h_star=1.0)
        assert cfg.ec == 0.5
        cfg = TrainConfig(h_star=0.5)
        assert cfg.ec == pytest.approx(0.1100279, abs=1e-6)

    def test_both_budgets_rejected(self):
        with pytest.raises(ValidationError, match="one budget"):
            TrainConfig(h_star=1.0, target_sparsity=0.9)

    def test_unknown_omega_mode_rejected(self):
        with pytest.raises(ValidationError, match="unknown omega mode 'bogus'"):
            TrainConfig(omega_mode="bogus")


class TestAdamAndSchedule:
    def test_adam_moves_against_gradient(self):
        p = nn.Parameter("w", np.array([1.0, -1.0]))
        opt = Adam([("w", p)])
        p.grad[...] = np.array([1.0, -2.0])
        opt.step(0.1)
        assert p.value[0] < 1.0 and p.value[1] > -1.0

    def test_cosine_endpoints(self):
        assert cosine_lr(1e-3, 0, 100) == pytest.approx(1e-3)
        assert cosine_lr(1e-3, 99, 100) < 1e-4
        assert cosine_lr(1e-3, 0, 1) == 1e-3


class TestTrainLoop:
    def test_zero_epochs_empty_report(self):
        net, data, cfg, ds = small_setup(epochs=0)
        before = {n: p.value.copy() for n, p in net.params()}
        report = train(net, data, cfg)
        assert report.records == []
        for n, p in net.params():
            assert np.array_equal(before[n], p.value)

    def test_empty_dataset_rejected(self):
        net, data, cfg, ds = small_setup()
        with pytest.raises(ValidationError):
            train(net, (data[0][:0], data[1][:0]), cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_images_rejected_before_a_step(self, value):
        net, (images, labels), cfg, ds = small_setup()
        before = {n: p.value.copy() for n, p in net.params()}
        images = images.copy()
        images[-1, 0] = value
        with pytest.raises(DataError, match="NaN or infinite"):
            train(net, (images, labels), cfg)
        assert all(np.array_equal(before[n], p.value) for n, p in net.params())

    def test_augment_on_flat_images_rejected_before_a_step(self):
        net, data, cfg, ds = small_setup()
        cfg.augment = True
        before = {n: p.value.copy() for n, p in net.params()}
        with pytest.raises(ValidationError, match=r"\(N, C, H, W\) images, not \(96, 36\)"):
            train(net, data, cfg)
        assert all(np.array_equal(before[n], p.value) for n, p in net.params())
        assert all(layer._cache is None for layer in net.layers)

    def test_gamma_zero_is_pure_task_loss(self):
        net, data, cfg, ds = small_setup(gamma=0.0, epochs=3)
        report = train(net, data, cfg)
        for rec in report.records:
            assert rec["lambda"] == 0.0

    def test_determinism_bit_identical_reports(self):
        r1 = train(*small_setup(gamma=0.1, epochs=4)[:3])
        r2 = train(*small_setup(gamma=0.1, epochs=4)[:3])
        assert r1.to_jsonl() == r2.to_jsonl()

    def test_divergence_guard(self):
        net, data, cfg, ds = small_setup(epochs=3)
        # poison the classifier: after the last sign, so the NaN reaches the
        # loss instead of being squashed to -1 by a sign activation
        net.layers[-1].weight.value[...] = np.nan
        with pytest.raises(TrainingDiverged):
            train(net, data, cfg)

    def test_latent_weights_stay_clipped(self):
        net, data, cfg, ds = small_setup(gamma=0.2, epochs=4)
        train(net, data, cfg)
        for layer in net.binarized_layers():
            assert np.all(np.abs(layer.weight.value) <= 1.0)

    def test_report_best_loss_monotone(self):
        net, data, cfg, ds = small_setup(epochs=6)
        report = train(net, data, cfg)
        best = [r["best_loss"] for r in report.records]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        ones = [r["ones_fraction"] for r in report.records]
        assert all(0.0 <= f <= 1.0 for f in ones)

    def test_report_jsonl_round_trip(self):
        net, data, cfg, ds = small_setup(epochs=3)
        report = train(net, data, cfg)
        report.final_snapshot_id = "abc123"
        back = report_from_jsonl(report.to_jsonl())
        assert back.records == report.records
        assert back.final_snapshot_id == "abc123"

    def test_penalty_drives_ones_down(self):
        net, data, cfg, ds = small_setup(gamma=0.5, epochs=40, diff=1.0)
        start = net.ones_fraction()
        report = train(net, data, cfg)
        assert report.records[-1]["ones_fraction"] < start

    def test_penalty_nonincreasing_moving_average(self):
        # starts above the ones budget; the 10-epoch moving average of the
        # penalty never goes back up (individual epochs may wiggle)
        ds = dataio.synthetic_classification(seed=11, n=256, classes=2, difficulty=1.5, image_hw=6)
        cfg = TrainConfig(epochs=60, batch_size=64, learning_rate=5e-3, gamma=0.5,
                          target_sparsity=0.95, seed=3, omega_mode="analytic")
        spec = nn.mlp_spec(in_features=36, classes=2, hidden=16, omega_mode="analytic")
        net = nn.Network(spec, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
        assert net.ones_fraction() > cfg.ec
        report = train(net, (ds.images.reshape(ds.count, -1), ds.labels), cfg)
        js = np.array([r["j"] for r in report.records])
        avg = np.convolve(js, np.ones(10) / 10, mode="valid")
        # optimizer noise at equilibrium flips the odd weight back: allow a
        # few quanta of 1/N per averaged step, but require a clear net drop
        n = net.concat_sign_weights().size
        assert np.all(np.diff(avg) <= 3.0 / n)
        assert avg[-1] < avg[0] - 0.05

    def test_mlp_gamma_zero_reaches_95_percent(self):
        # easy two-class data, small MLP, plain task loss
        ds = dataio.synthetic_classification(seed=21, n=256, classes=2, difficulty=0.5, image_hw=6)
        cfg = TrainConfig(epochs=60, batch_size=32, learning_rate=5e-3, gamma=0.0,
                          seed=1, omega_mode="pm1")
        spec = nn.mlp_spec(in_features=36, classes=2, hidden=16, omega_mode="pm1")
        net = nn.Network(spec, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
        report = train(net, (ds.images.reshape(ds.count, -1), ds.labels), cfg)
        assert report.records[-1]["accuracy"] >= 0.95
        assert cfg.epochs <= 200

    def test_augment_deterministic(self):
        def run_once():
            spec = nn.conv_net_spec(in_ch=1, classes=2, width=4, image_hw=8)
            net = nn.Network(spec, np.random.default_rng(1))
            cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=5e-3,
                              seed=4, gamma=0.0, augment=True)
            ds2 = dataio.synthetic_classification(seed=9, n=64, classes=2, image_hw=8)
            return train(net, (ds2.images, ds2.labels), cfg).to_jsonl()

        assert run_once() == run_once()

    def test_layer_caches_are_released(self):
        """One sparse16-shaped epoch (128 16x16 images, width 16, batches of
        64): each layer's forward cache goes once its backward has run, and
        the per-epoch evaluate keeps none. With the caches kept, the peak was
        about 99 MB and 85 MB stayed live after train returned. Each layer
        keeps only what its backward cannot cheaply rebuild: a conv its
        input, not its 9x larger window matrix; batchnorm xc and 1/sigma, not
        x-hat; the sign a bool mask, not its float64 input. That took what
        one train-mode forward leaves cached from 42.8 to 11.5 MB, and the
        epoch's peak from 46.9 to 30.8 MB."""
        ds = dataio.synthetic_classification(
            seed=5, n=128, classes=10, difficulty=3.0, image_hw=16
        )
        spec = nn.conv_net_spec(in_ch=1, classes=10, width=16, image_hw=16)
        net = nn.Network(spec, np.random.default_rng(0))
        cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=5e-3, gamma=0.5,
                          target_sparsity=0.95, seed=5)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            train(net, (ds.images, ds.labels), cfg)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 33 * 2**20
        assert live - base < 2**20
        assert all(layer._cache is None for layer in net.layers)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            net.forward(ds.images[:64], train=True)
            cached, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cached - base < 13 * 2**20

    def test_evaluate_runs_in_the_steps_slices(self, monkeypatch):
        net, data, cfg, ds = small_setup(epochs=2)  # 96 images, batches of 32
        sizes, real = [], engine.infer

        def spy(model, images, **kw):
            sizes.append(images.shape[0])
            return real(model, images, **kw)

        monkeypatch.setattr("sbnn.train.infer", spy)
        train(net, data, cfg)
        assert sizes == [32] * 6

    @pytest.mark.parametrize("arch, mode", [
        ("conv", "analytic"), ("conv", "learned"), ("conv", "pm1"), ("mlp", "analytic"),
    ])
    def test_each_epochs_accuracy_is_the_float_networks(self, monkeypatch, arch, mode):
        """The engine's accuracy on the folded model equals the float
        network's in eval mode, at every epoch."""
        ds = dataio.synthetic_classification(seed=3, n=96, classes=3, difficulty=3.0, image_hw=8)
        if arch == "conv":
            spec = nn.conv_net_spec(in_ch=1, classes=3, width=4, image_hw=8, omega_mode=mode)
            images = ds.images
        else:
            spec = nn.mlp_spec(in_features=64, classes=3, hidden=16, omega_mode=mode)
            images = ds.images.reshape(ds.count, -1)
        cfg = TrainConfig(epochs=10, batch_size=32, learning_rate=5e-3, gamma=0.3,
                          target_sparsity=0.9, seed=4, omega_mode=mode)
        net = nn.Network(spec, np.random.default_rng(4))
        floats, real = [], evaluate

        def both(network, images, labels, batch_size=256):
            floats.append(float_evaluate(network, images, labels, batch_size))
            return real(network, images, labels, batch_size)

        monkeypatch.setattr("sbnn.train.evaluate", both)
        report = train(net, (images, ds.labels), cfg)
        assert [r["accuracy"] for r in report.records] == floats
        assert len(floats) == 10

    def test_spec_that_does_not_fold_runs_no_step(self, monkeypatch):
        spec = nn.conv_net_spec(in_ch=1, classes=2, width=4, image_hw=8)
        spec = spec[:4] + spec[5:]  # the first binary conv loses its batchnorm
        net = nn.Network(spec, np.random.default_rng(0))
        steps = []
        monkeypatch.setattr("sbnn.train.sbnn_step", lambda *a: steps.append(a))
        ds = dataio.synthetic_classification(seed=9, n=64, classes=2, image_hw=8)
        with pytest.raises(ValidationError, match="layer 3 \\(conv3x3\\) must be followed"):
            train(net, (ds.images, ds.labels), TrainConfig(epochs=2, batch_size=32))
        assert steps == []

    def test_spec_with_a_layer_after_its_classifier_runs_no_step(self, monkeypatch):
        """Such a spec once ran every step of the epoch before evaluate
        failed with "binary stage fed non-bit activations"."""
        spec = (
            nn.LayerSpec("flatten"),
            nn.LayerSpec("linear", in_ch=4, out_ch=8),
            nn.LayerSpec("batchnorm", out_ch=8),
            nn.LayerSpec("signact"),
            nn.LayerSpec("classifier", in_ch=8, out_ch=6),
            nn.LayerSpec("linear", in_ch=6, out_ch=8, binarized=True),
            nn.LayerSpec("batchnorm", out_ch=8),
            nn.LayerSpec("signact"),
            nn.LayerSpec("classifier", in_ch=8, out_ch=2),
        )
        net = nn.Network(spec, np.random.default_rng(0))
        steps = []
        monkeypatch.setattr("sbnn.train.sbnn_step", lambda *a: steps.append(a))
        ds = dataio.synthetic_classification(seed=9, n=64, classes=2, image_hw=2)
        with pytest.raises(ValidationError, match="layer 5 \\(linear\\) follows the classifier"):
            train(net, (ds.images, ds.labels), TrainConfig(epochs=1, batch_size=32))
        assert steps == []

    @pytest.mark.parametrize(
        "layers, message",
        [
            ((nn.LayerSpec("conv3x3", in_ch=3, out_ch=2),), "layer 3 \\(conv3x3\\) must be followed"),
            (
                (nn.LayerSpec("flatten"), nn.LayerSpec("linear", in_ch=48, out_ch=2)),
                "layer 4 \\(linear\\) must be followed",
            ),
        ],
        ids=["conv", "linear"],
    )
    def test_spec_that_ends_in_a_full_precision_layer_runs_no_step(self, monkeypatch, layers, message):
        """The classifier is the only head. A spec ending in a full-precision
        conv once ran every step of its first epoch before quantize_network
        failed with "head weight (2, 3, 3, 3) and bias (2,): want 2-D"."""
        spec = (
            nn.LayerSpec("conv3x3", in_ch=1, out_ch=3, padding=1),
            nn.LayerSpec("batchnorm", out_ch=3),
            nn.LayerSpec("signact"),
        ) + layers
        net = nn.Network(spec, np.random.default_rng(0))
        steps = []
        monkeypatch.setattr("sbnn.train.sbnn_step", lambda *a: steps.append(a))
        ds = dataio.synthetic_classification(seed=9, n=64, classes=2, image_hw=6)
        with pytest.raises(ValidationError, match=message):
            train(net, (ds.images, ds.labels), TrainConfig(epochs=1, batch_size=32))
        assert steps == []


class TestSbnnStep:
    def test_step_returns_penalty_parts(self):
        net, data, cfg, ds = small_setup(gamma=0.1)
        net.zero_grads()
        loss, j, lam = sbnn_step(net, data[0][:16], data[1][:16], gamma=0.1, ec=0.05)
        assert loss > 0 and j > 0 and lam > 0
        # lambda satisfies the modulation equation
        assert lam * j / (loss + lam * j) == pytest.approx(0.1, rel=1e-12)


class TestSnapshots:
    def test_snapshot_round_trip(self, tmp_path):
        net, data, cfg, ds = small_setup(epochs=2)
        train(net, data, cfg)
        snap = take_snapshot(net, cfg, (36,), 2)
        path = tmp_path / "snap.npz"
        save_snapshot(path, snap)
        back = load_snapshot(path)
        assert back.snapshot_id == snap.snapshot_id
        assert back.spec == snap.spec
        assert back.input_shape == (36,)
        net2 = restore_network(back)
        for (n1, p1), (n2, p2) in zip(net.params(), net2.params()):
            assert np.array_equal(p1.value, p2.value)

    def _old_snapshot_loads(self, path, **old_cfg_keys):
        """Save a snapshot whose config also holds keys an older version
        wrote, then check that it loads as the snapshot saved."""
        net, data, cfg, ds = small_setup(epochs=1)
        snap = take_snapshot(net, cfg, (36,), 2)
        save_snapshot(path, snap)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["cfg"].update(old_cfg_keys)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        back = load_snapshot(path)
        assert back.snapshot_id == snap.snapshot_id
        assert back.cfg == cfg

    def test_snapshot_with_mixup_alpha_loads(self, tmp_path):
        # older versions saved an unused TrainConfig.mixup_alpha
        self._old_snapshot_loads(tmp_path / "snap.npz", mixup_alpha=0.0)

    def test_snapshot_with_optimizer_settings_loads(self, tmp_path):
        # older versions saved the Adam constants and a cosine-schedule flag
        self._old_snapshot_loads(
            tmp_path / "snap.npz", adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8,
            cosine_lr=True,
        )

    def test_snapshot_id_content_hash(self):
        net, data, cfg, ds = small_setup(epochs=1)
        s1 = take_snapshot(net, cfg, (36,), 2)
        s2 = take_snapshot(net, cfg, (36,), 2)
        assert s1.snapshot_id == s2.snapshot_id
        net.layers[0].weight.value[0, 0] += 1.0
        s3 = take_snapshot(net, cfg, (36,), 2)
        assert s3.snapshot_id != s1.snapshot_id


class TestQuantizeSnapshot:
    def _trained(self, omega_mode):
        net, data, cfg, ds = small_setup(epochs=4, omega_mode=omega_mode)
        train(net, data, cfg)
        return take_snapshot(net, cfg, (36,), 2), net

    def test_pm1_maps_every_layer_to_unit_domain(self):
        snap, _ = self._trained("pm1")
        model = quantize_snapshot(snap, mode="pm1")
        for stage in model.binary_stages():
            om = stage.packed.omega
            assert (om.alpha, om.beta) == (-1.0, 1.0)

    def test_analytic_p_half_gives_mean_abs(self):
        snap, net = self._trained("analytic")
        layer = net.binarized_layers()[0]
        w = layer.weight.value.ravel()
        # force an exactly half-positive sign pattern
        w_sorted = np.sort(np.abs(w))
        signs = np.ones_like(w)
        signs[: w.size // 2] = -1.0
        layer.weight.value[...] = (w_sorted * signs).reshape(layer.weight.value.shape)
        snap2 = take_snapshot(net, snap.cfg, (36,), 2)
        model = quantize_snapshot(snap2, mode="analytic")
        om = model.binary_stages()[0].packed.omega
        assert om.tau == pytest.approx(np.abs(w).mean(), rel=1e-12)

    def test_default_mode_is_each_layers_own(self):
        # the config's mode is not a second copy of the specs': a pm1-trained
        # network quantizes to {-1, +1} whatever the config says
        snap, _ = self._trained("pm1")
        snap.cfg = TrainConfig(omega_mode="analytic")
        for stage in quantize_snapshot(snap).binary_stages():
            assert stage.packed.omega == PM1_DOMAIN

    def test_learned_requires_learned_layers(self):
        snap, _ = self._trained("pm1")
        with pytest.raises(ValidationError):
            quantize_snapshot(snap, mode="learned")

    def test_learned_reads_trained_parameters(self):
        snap, net = self._trained("learned")
        model = quantize_snapshot(snap, mode="learned")
        layer = net.binarized_layers()[0]
        om = model.binary_stages()[0].packed.omega
        got = {om.tau, -om.tau}  # canonicalization may flip the sign
        assert float(layer.tau.value) in got or om.degenerate

    def test_degenerate_layer_quantizes_constant(self):
        snap, net = self._trained("analytic")
        layer = net.binarized_layers()[0]
        layer.weight.value[...] = 0.25  # all-positive: constant sign vector
        snap2 = take_snapshot(net, snap.cfg, (36,), 2)
        model = quantize_snapshot(snap2, mode="analytic")
        om = model.binary_stages()[0].packed.omega
        assert om.degenerate
        assert om.phi == pytest.approx(0.25)


def _pooled_spec(first_binarized=False):
    """Stem, a binary conv and a 2x2 pool, twice over, then the head: on
    8x8 images the maps go 8x8 -> 4x4 -> 2x2."""
    ls = nn.LayerSpec
    return (
        ls("conv3x3", in_ch=1, out_ch=4, padding=1, binarized=first_binarized),
        ls("batchnorm", out_ch=4),
        ls("signact"),
        ls("conv3x3", in_ch=4, out_ch=6, padding=1, binarized=True),
        ls("batchnorm", out_ch=6),
        ls("signact"),
        ls("pool"),
        ls("conv3x3", in_ch=6, out_ch=8, padding=1, binarized=True),
        ls("batchnorm", out_ch=8),
        ls("signact"),
        ls("pool"),
        ls("flatten"),
        ls("classifier", in_ch=8 * 2 * 2, out_ch=3, bias=True),
    )


class TestQuantizeNetwork:
    def test_pooled_network_runs_exactly(self):
        ds = dataio.synthetic_classification(seed=8, n=48, classes=3, image_hw=8)
        net = nn.Network(_pooled_spec(), np.random.default_rng(8))
        train(net, (ds.images, ds.labels), TrainConfig(epochs=2, batch_size=16, seed=8))
        model = quantize_network(net, (1, 8, 8), 3)
        kinds = [type(s) for s in model.stages]
        assert kinds == [
            engine.FloatStage, engine.BinStage, engine.BitPool,
            engine.BinStage, engine.BitPool, engine.Head,
        ]
        report = metrics.build_ops_report(model)
        ref = engine.reference_forward(model, ds.images)
        logits, counters = engine.infer(model, ds.images)
        assert np.array_equal(logits, ref)
        assert metrics.counters_match_report(counters, report)
        logits, c_off = engine.infer(model, ds.images, skip=False)
        assert np.array_equal(logits, ref)
        assert c_off.position_ops == report.totals["bops_bnn"] * ds.count
        assert counters.flops == c_off.flops == report.totals["flops"] * ds.count

    def test_weighted_layer_needs_batchnorm_and_sign(self):
        spec = _pooled_spec()
        spec = spec[:1] + spec[2:]  # the stem loses its batchnorm
        net = nn.Network(spec, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="layer 0 \\(conv3x3\\) must be followed by batchnorm and sign"):
            quantize_network(net, (1, 8, 8), 3)

    def test_first_layer_cannot_be_binarized(self):
        net = nn.Network(_pooled_spec(first_binarized=True), np.random.default_rng(0))
        with pytest.raises(ValidationError, match="first layer cannot be binarized"):
            quantize_network(net, (1, 8, 8), 3)
