import dataclasses
import json
import os
import pathlib
import re
import struct
import tracemalloc
import warnings
import subprocess
import sys

import numpy as np
import pytest

from helpers import (
    dense_heavy_model,
    golden_model,
    head_before_last_model,
    report_from_jsonl,
    with_crc,
    write_idx_images,
    write_idx_labels,
)
from sbnn import cli, dataio, engine, modelio, nn
from sbnn.binquant import DataError, ValidationError
from sbnn.cli import main
from sbnn.train import SnapshotError, load_snapshot


def run_cli(args):
    return main(list(args))


def _with_nan_pixel(**kwargs):
    ds = _SYNTHETIC(**kwargs)
    ds.images[0, 0, 0, 0] = np.nan
    return ds


_SYNTHETIC = dataio.synthetic_classification


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run_cli(
        [
            "train", "--synthetic", "--samples", "96", "--image-hw", "8",
            "--epochs", "4", "--batch", "32", "--lr", "5e-3", "--gamma", "0.1",
            "--sparsity", "0.95", "--seed", "7", "--width", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestTrain:
    def test_zero_epochs(self, tmp_path, capsys):
        code = run_cli(
            ["train", "--synthetic", "--samples", "32", "--epochs", "0",
             "--seed", "1", "--width", "4", "--out", str(tmp_path / "r")]
        )
        assert code == 0
        report = report_from_jsonl((tmp_path / "r" / "report.jsonl").read_text())
        assert report.records == []
        assert report.final_snapshot_id

    def test_gamma_one_is_config_error(self, tmp_path):
        code = run_cli(
            ["train", "--synthetic", "--samples", "32", "--epochs", "1",
             "--gamma", "1.0", "--out", str(tmp_path / "r")]
        )
        assert code == 2

    def test_missing_dataset_is_config_error(self, tmp_path):
        code = run_cli(["train", "--epochs", "1", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_seed_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli(
                ["train", "--synthetic", "--samples", "64", "--epochs", "3",
                 "--seed", "7", "--width", "4", "--out", str(out)]
            )
            assert code == 0
            outs.append((out / "report.jsonl").read_text())
        assert outs[0] == outs[1]

    def test_artifacts_written(self, trained_run):
        assert (trained_run / "report.jsonl").exists()
        assert (trained_run / "snapshot.npz").exists()
        assert (trained_run / "config.txt").exists()
        cfg_text = (trained_run / "config.txt").read_text()
        assert "gamma=0.1" in cfg_text and "seed=7" in cfg_text

    def test_report_schema(self, trained_run):
        report = report_from_jsonl((trained_run / "report.jsonl").read_text())
        assert len(report.records) == 4
        for rec in report.records:
            for key in ("epoch", "loss", "j", "lambda", "ones_fraction", "accuracy"):
                assert key in rec
        snap = load_snapshot(trained_run / "snapshot.npz")
        assert report.final_snapshot_id == snap.snapshot_id


class TestQuantizeEvalBenchInspect:
    def test_quantize_writes_model(self, trained_run, tmp_path):
        model_path = tmp_path / "m.sbnn"
        code = run_cli(
            ["quantize", "--snapshot", str(trained_run / "snapshot.npz"),
             "--omega", "analytic", "--out", str(model_path)]
        )
        assert code == 0
        model = modelio.load_model(model_path)
        assert len(model.binary_stages()) == 2

    def test_quantize_bad_snapshot_path(self, tmp_path):
        code = run_cli(
            ["quantize", "--snapshot", str(tmp_path / "nope.npz"),
             "--out", str(tmp_path / "m.sbnn")]
        )
        assert code == 3

    def test_eval_agreement(self, trained_run, tmp_path, capsys):
        model_path = tmp_path / "m.sbnn"
        assert run_cli(
            ["quantize", "--snapshot", str(trained_run / "snapshot.npz"),
             "--out", str(model_path)]
        ) == 0
        code = run_cli(
            ["eval", "--model", str(model_path), "--synthetic", "--samples", "96",
             "--image-hw", "8", "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "argmax agreement vs reference: 1.0000" in out

    def test_eval_shape_mismatch_is_data_error(self, trained_run, tmp_path):
        model_path = tmp_path / "m.sbnn"
        assert run_cli(
            ["quantize", "--snapshot", str(trained_run / "snapshot.npz"),
             "--out", str(model_path)]
        ) == 0
        code = run_cli(
            ["eval", "--model", str(model_path), "--synthetic", "--samples", "16",
             "--image-hw", "10", "--seed", "7"]
        )
        assert code == 3

    def test_eval_corrupt_model_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.sbnn"
        bad.write_bytes(b"XXXX" + bytes(20))
        code = run_cli(
            ["eval", "--model", str(bad), "--synthetic", "--samples", "16"]
        )
        assert code == 3

    def test_eval_more_dataset_classes_than_model(self, tmp_path, capsys):
        path = tmp_path / "golden.sbnn"
        modelio.save_model(path, golden_model())
        code = run_cli(
            ["eval", "--model", str(path), "--synthetic", "--samples", "16",
             "--classes", "3", "--image-hw", "8", "--seed", "7"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "error: the dataset has 3 classes, the model 2\n"
        assert "accuracy" not in captured.out

    def test_eval_peak_does_not_grow_with_the_dataset(self, tmp_path, capsys):
        """eval runs in slices of cli.EVAL_SLICE images, so from 2,048 to
        4,096 images its traced peak grows by less than twice the added
        images' own bytes (one batch of 4,096 would need about 30 MB more)."""
        out = tmp_path / "r"
        assert run_cli(
            ["train", "--synthetic", "--samples", "32", "--image-hw", "12", "--epochs", "0",
             "--width", "8", "--out", str(out)]
        ) == 0
        model_path = tmp_path / "m.sbnn"
        assert run_cli(
            ["quantize", "--snapshot", str(out / "snapshot.npz"), "--out", str(model_path)]
        ) == 0
        peaks = []
        for samples in (2048, 4096):
            tracemalloc.start()
            try:
                assert run_cli(
                    ["eval", "--model", str(model_path), "--synthetic", "--samples",
                     str(samples), "--image-hw", "12"]
                ) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert "argmax agreement vs reference: 1.0000" in capsys.readouterr().out
        assert peaks[1] - peaks[0] < 2 * 2048 * 12 * 12 * 8

    def test_quantize_learned_of_analytic_snapshot_is_config_error(
        self, trained_run, tmp_path, capsys
    ):
        out = tmp_path / "m.sbnn"
        code = run_cli(
            ["quantize", "--snapshot", str(trained_run / "snapshot.npz"),
             "--omega", "learned", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "omega_mode='learned'" in err
        assert not out.exists()

    def test_eval_nonfinite_images_is_data_error(
        self, trained_run, tmp_path, capsys, monkeypatch
    ):
        model_path = tmp_path / "m.sbnn"
        assert run_cli(
            ["quantize", "--snapshot", str(trained_run / "snapshot.npz"),
             "--out", str(model_path)]
        ) == 0
        capsys.readouterr()
        # no dataset flag yields a NaN pixel (a NaN --difficulty is a config
        # error), so the generator's output gets one
        monkeypatch.setattr(dataio, "synthetic_classification", _with_nan_pixel)
        code = run_cli(
            ["eval", "--model", str(model_path), "--synthetic", "--samples", "16",
             "--image-hw", "8", "--seed", "7"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "NaN" in err

    def test_bench_prints_report(self, trained_run, tmp_path, capsys):
        model_path = tmp_path / "m.sbnn"
        assert run_cli(
            ["quantize", "--snapshot", str(trained_run / "snapshot.npz"),
             "--out", str(model_path)]
        ) == 0
        code = run_cli(["bench", "--model", str(model_path), "--ec", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bops_pr" in out and "TOTAL" in out
        assert "gain estimate 2/EC at EC=0.0500: 40.00x" in out

    def test_inspect_model_histogram(self, trained_run, tmp_path, capsys):
        model_path = tmp_path / "m.sbnn"
        assert run_cli(
            ["quantize", "--snapshot", str(trained_run / "snapshot.npz"),
             "--out", str(model_path)]
        ) == 0
        csv_path = tmp_path / "h.csv"
        code = run_cli(
            ["inspect", "--model", str(model_path), "--csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tau" in out and "entropy" in out
        assert csv_path.read_text().startswith("layer,hw0")

    @pytest.mark.parametrize("make", [golden_model, dense_heavy_model])
    def test_inspect_model_prints_each_parts_bytes(self, make, tmp_path, capsys):
        """One line per part of the file: the header, each stage by its
        walk name, the crc; they add up to the file's size."""
        model, path = make(), tmp_path / "m.sbnn"
        modelio.save_model(path, model)
        capsys.readouterr()
        assert run_cli(["inspect", "--model", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("    bytes    share  part of the model file") + 1
        table = [line.split() for line in lines[start:]]
        names = [name for name, _ in engine.walk_stages(model.stages, model.input_shape)]
        assert [row[2] for row in table] == ["header", *names, "crc", "file"]
        sizes = [int(row[0]) for row in table]
        assert sum(sizes[:-1]) == sizes[-1] == path.stat().st_size
        assert sizes[0] == 8 + 4 + 1 + 4 * len(model.input_shape) and sizes[-2] == 4
        head = model.stages[-1]
        assert sizes[-3] == 1 + 8 + 8 * (head.weight.size + head.bias.size)
        assert table[-1][1] == "100.00%"

    def test_inspect_snapshot(self, trained_run, capsys):
        code = run_cli(["inspect", "--snapshot", str(trained_run / "snapshot.npz")])
        assert code == 0
        assert "p(ones)" in capsys.readouterr().out


def _stage_offset(model, i):
    """File offset of stage i's tag byte: the length of the file holding
    the stages before it, less its crc."""
    head = engine.QuantizedModel(model.stages[:i], model.input_shape, model.classes)
    return len(modelio.encode(head)) - 4


def _payload_offset(model, i):
    """File offset of binary stage i's kernel payload."""
    payload = modelio._encode_kernel_payload(model.stages[i].packed)
    return _stage_offset(model, i + 1) - len(payload)


def _unknown_tag(m, data):
    data[_stage_offset(m, 1)] = 99


def _class_code_11(m, data):
    data[_payload_offset(m, 1)] |= 0xC0  # kernel 0 (Zero) becomes 0b11


def _single_index_9(m, data):
    # 15 kernels: the first Single index (kernel 1, index 0) is payload bits
    # 30..33; set it to 0b1001
    off = _payload_offset(m, 1)
    data[off + 3] |= 0x02
    data[off + 4] |= 0x40


def _non_canonical_tau(m, data):
    off = _stage_offset(m, 1) + 1 + 16 + 1  # tag, in/out/stride/pad, degenerate
    data[off : off + 8] = struct.pack("<d", -0.5)


def _infinite_tau(m, data):
    off = _stage_offset(m, 1) + 1 + 16 + 1
    data[off : off + 8] = struct.pack("<d", np.inf)


def _overflowing_tau(m, data):
    """eta = 2e307 is finite, but eta * z' overflows at |z'| = fan_in = 27."""
    off = _stage_offset(m, 1) + 1 + 16 + 1
    data[off : off + 8] = struct.pack("<d", 1e307)


def _float_at(offset, value):
    """An edit that writes the float64 value at the file offset that
    offset(model) gives."""
    def edit(m, data):
        off = offset(m)
        data[off : off + 8] = struct.pack("<d", value)
    return edit


def _stem_weight(m):
    return _stage_offset(m, 0) + 1 + 16 + 1  # tag, in/out/stride/pad, takes_bits


def _stem_theta(m):
    stem = m.stages[0]
    return _stem_weight(m) + 8 * stem.weight.size + stem.out_ch  # weights, orientations


def _binary_theta(m):
    return _stage_offset(m, 1) + 1 + 16 + 1 + 16 + m.stages[1].packed.out_ch


def _head_weight(m):
    return _stage_offset(m, 4) + 1 + 8  # tag, in/out


def _head_bias(m):
    return _head_weight(m) + 8 * m.stages[4].weight.size


def _set_stage(m, i, stage):
    stages = list(m.stages)
    stages[i] = stage
    return engine.QuantizedModel(stages, m.input_shape, m.classes)


def _conv_in_ch_plus_one(m):
    """The binary conv takes 4 channels; the stem gives 3."""
    p, rng = m.stages[1].packed, np.random.default_rng(0)
    wider = engine.PackedLayer(
        kind=p.kind, in_ch=p.in_ch + 1, out_ch=p.out_ch, stride=p.stride,
        padding=p.padding, omega=p.omega,
        bits=(rng.random((p.out_ch, 9 * (p.in_ch + 1))) < 0.4).astype(np.uint8),
    )
    return _set_stage(m, 1, engine.BinStage(packed=wider, threshold=m.stages[1].threshold))


def _conv_padding_600(m):
    """Padding 600 would turn the 8x8 map into a 1206x1206 one."""
    m.stages[1].packed.padding = 600
    return m


def _head_width_plus_one(m):
    head = m.stages[-1]
    wider = np.concatenate([head.weight, head.weight[:, :1]], axis=1)
    return _set_stage(m, len(m.stages) - 1, engine.Head(weight=wider, bias=head.bias))


def _binary_first_stage(m):
    """A binary conv takes the float images themselves."""
    p, rng = m.stages[1].packed, np.random.default_rng(0)
    conv = engine.PackedLayer(
        kind=p.kind, in_ch=1, out_ch=p.out_ch, stride=1, padding=1, omega=p.omega,
        bits=(rng.random((p.out_ch, 9)) < 0.4).astype(np.uint8),
    )
    head = engine.Head(weight=rng.normal(size=(2, p.out_ch * 64)), bias=np.zeros(2))
    stages = [engine.BinStage(packed=conv, threshold=m.stages[1].threshold), head]
    return engine.QuantizedModel(stages, m.input_shape, m.classes)


def _zero_width_stem(m):
    """The stem gives 0 channels and the binary conv takes 0."""
    stem, conv = m.stages[0], m.stages[1].packed
    stem.out_ch, stem.weight = 0, np.zeros((0, 1, 3, 3))
    stem.threshold = engine.FusedThreshold(np.ones(0, dtype=np.int8), np.zeros(0))
    empty = np.zeros((conv.out_ch, 0), dtype=np.uint8)
    m.stages[1].packed = dataclasses.replace(conv, in_ch=0, bits=empty)
    return m


def _zero_output_head(m):
    m.stages[-1] = engine.Head(weight=np.zeros((0, 7)), bias=np.zeros(0))
    return m


def _no_stages(m):
    m.stages = []
    return m


def _stem_only(m):
    m.stages = m.stages[:1]
    return m


class TestCraftedModelFiles:
    """Malformed model files with a valid crc are data errors: exit 3 with a
    one-line message, no traceback."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_unknown_tag, "unknown stage tag 99"),
            (_class_code_11, "invalid kernel class code"),
            (_single_index_9, "single-kernel index 9"),
            (_non_canonical_tau, "canonical"),
            (_infinite_tau, "remap stays finite"),
            (_overflowing_tau, "remap stays finite"),
            (_float_at(_stem_weight, np.nan), "float weights hold NaN or infinite values"),
            (_float_at(_stem_weight, -np.inf), "float weights hold NaN or infinite values"),
            (_float_at(_stem_theta, np.nan), "NaN threshold"),
            (_float_at(_binary_theta, np.nan), "NaN threshold"),
            (_float_at(_head_weight, np.inf), "head weights hold NaN or infinite values"),
            (_float_at(_head_bias, np.nan), "head biases hold NaN or infinite values"),
        ],
    )
    @pytest.mark.parametrize("command", ["bench", "inspect"])
    def test_edited_bytes(self, tmp_path, capsys, edit, message, command):
        m = golden_model()
        data = bytearray(modelio.encode(m))
        edit(m, data)
        path = tmp_path / "crafted.sbnn"
        path.write_bytes(with_crc(bytes(data)))
        assert run_cli([command, "--model", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_infinite_stem_weight_does_not_evaluate(self, tmp_path, capsys):
        """The file is rejected as it loads: eval warns of no overflow and
        prints no accuracy."""
        m = golden_model()
        data = bytearray(modelio.encode(m))
        _float_at(_stem_weight, np.inf)(m, data)
        path = tmp_path / "crafted.sbnn"
        path.write_bytes(with_crc(bytes(data)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                ["eval", "--model", str(path), "--synthetic", "--samples", "16",
                 "--image-hw", "8", "--seed", "7"]
            )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "float weights" in captured.err
        assert "accuracy" not in captured.out

    @pytest.mark.parametrize(
        "build, message",
        [
            (_conv_in_ch_plus_one, "stage 1: conv takes 4 channels, gets shape (3, 8, 8)"),
            (_head_width_plus_one, "stage 4: input width 8, gets 7 features"),
            (_conv_padding_600, "stage 1: conv padding 600 above 2"),
            (_binary_first_stage, "binary stage fed non-bit activations"),
            (_zero_width_stem, "stage 0: 1 inputs and 0 outputs"),
            (_zero_output_head, "stage 4: 7 inputs and 0 outputs"),
            (_no_stages, "does not end in the head"),
            (_stem_only, "does not end in the head"),
        ],
    )
    def test_broken_stage_chain(self, tmp_path, capsys, build, message):
        path = tmp_path / "crafted.sbnn"
        path.write_bytes(modelio.encode(build(golden_model())))
        code = run_cli(
            ["eval", "--model", str(path), "--synthetic", "--samples", "16",
             "--image-hw", "8", "--seed", "7"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("command", ["bench", "inspect"])
    def test_head_before_the_last_stage(self, tmp_path, capsys, command):
        """Such a file once passed bench and inspect, and infer then raised
        "binary stage fed non-bit activations"."""
        path = tmp_path / "crafted.sbnn"
        path.write_bytes(modelio.encode(head_before_last_model()))
        assert run_cli([command, "--model", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "does not end in the head" in err

    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_empty_conv_output_map(self, tmp_path, capsys, command):
        """On 2x8 images the padded stem gives a (3, 2, 8) map, and the
        unpadded binary conv's 3x3 window does not fit it: the model file is
        rejected when it loads, before eval runs the engine."""
        m = golden_model()
        m.stages[1].packed.padding = 0
        stages = m.stages[:2] + [engine.Head(weight=np.zeros((2, 0)), bias=np.zeros(2))]
        path = tmp_path / "crafted.sbnn"
        path.write_bytes(modelio.encode(engine.QuantizedModel(stages, (1, 2, 8), 2)))
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(images, np.arange(4 * 16, dtype=np.uint8).reshape(4, 2, 8))
        write_idx_labels(labels, np.array([0, 1, 0, 1]))
        args = ["--idx-images", str(images), "--idx-labels", str(labels)]
        assert run_cli([command, "--model", str(path)] + (args if command == "eval" else [])) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stage 1: conv window does not fit a (2, 8) map" in err


def _edit_snapshot(src, dst, edit):
    """Write src's arrays to dst after edit(meta, arrays) changes them."""
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    edit(meta, arrays)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


def _weight_of_one(meta, arrays):
    arrays["p:3.weight"] = np.ones(1)


def _weight_transposed(meta, arrays):
    arrays["p:3.weight"] = np.ascontiguousarray(arrays["p:3.weight"].swapaxes(0, 1))


def _weight_float32(meta, arrays):
    arrays["p:3.weight"] = arrays["p:3.weight"].astype(np.float32)


def _missing_buffer(meta, arrays):
    del arrays["b:4.running_var"]


def _wide_conv(meta, arrays):
    # 512 x 512 x 9 weights: 38 MB with gradients if the network were built
    meta["spec"][3].update(in_ch=512, out_ch=512)


def _negative_classes(meta, arrays):
    meta["classes"] = -1


def _unknown_cfg_key(meta, arrays):
    meta["cfg"]["epoch"] = 1


class TestCraftedSnapshots:
    """Snapshot files that are not what their spec declares are data errors:
    exit 3 with a one-line message, no traceback, and nothing allocated for
    the declared network before the check."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_weight_of_one, "spec declares 984 values, snapshot stores 759"),
            (_weight_transposed, "p:3.weight is float64 (4, 8, 3, 3), its spec declares float64"),
            (_weight_float32, "p:3.weight is float32 (8, 4, 3, 3), its spec declares float64"),
            (_missing_buffer, "b:4.running_var do not match its spec"),
            (_wide_conv, "spec declares"),
            (_negative_classes, "are not positive integers"),
            (_unknown_cfg_key, "not a readable snapshot"),
        ],
    )
    @pytest.mark.parametrize("command", ["quantize", "inspect"])
    def test_edited_snapshot(self, trained_run, tmp_path, capsys, edit, message, command):
        path = tmp_path / "crafted.npz"
        _edit_snapshot(trained_run / "snapshot.npz", path, edit)
        args = ["--out", str(tmp_path / "m.sbnn")] if command == "quantize" else []
        tracemalloc.start()
        try:
            code = run_cli([command, "--snapshot", str(path)] + args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert peak < 8 << 20

    @pytest.mark.parametrize(
        "data",
        [bytes(range(256)) * 4, b"", b"PK\x03\x04" + bytes(60)],
        ids=["random", "empty", "broken-zip"],
    )
    @pytest.mark.parametrize("command", ["quantize", "inspect"])
    def test_not_a_snapshot(self, tmp_path, capsys, data, command):
        path = tmp_path / "crafted.npz"
        path.write_bytes(data)
        args = ["--out", str(tmp_path / "m.sbnn")] if command == "quantize" else []
        assert run_cli([command, "--snapshot", str(path)] + args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not a readable snapshot" in err

    @pytest.mark.parametrize("command", ["quantize", "inspect"])
    def test_npz_without_meta(self, tmp_path, capsys, command):
        path = tmp_path / "crafted.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **{"p:0.weight": np.ones((2, 1, 3, 3))})
        args = ["--out", str(tmp_path / "m.sbnn")] if command == "quantize" else []
        assert run_cli([command, "--snapshot", str(path)] + args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "__meta__" in err


def _array_at_0(name, value):
    """A snapshot edit that sets the first value of array `name`."""
    def edit(meta, arrays):
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = value
    return edit


def _input_shape_9x9(meta, arrays):
    meta["input_shape"] = [1, 9, 9]


def _no_classifier(meta, arrays):
    last = len(meta["spec"]) - 1
    meta["spec"].pop()
    del arrays[f"p:{last}.weight"], arrays[f"p:{last}.bias"]


def _classes_5(meta, arrays):
    meta["classes"] = 5


def _conv_without_batchnorm(meta, arrays):
    """Layer 3 (a binary conv) loses its batchnorm; the arrays of the
    layers after it move up one index."""
    del meta["spec"][4]
    moved = {}
    for key, value in arrays.items():
        prefix, dot, name = key.partition(".")
        i = int(prefix[2:]) if prefix[:2] in ("p:", "b:") else -1
        if i != 4:
            moved[f"{prefix[:2]}{i - 1}{dot}{name}" if i > 4 else key] = value
    arrays.clear()
    arrays.update(moved)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_classes_5, "snapshot spec: 2 classifier outputs for 5 classes"),
        (_conv_without_batchnorm,
         "snapshot spec: layer 3 (conv3x3) must be followed by batchnorm and sign"),
        (_input_shape_9x9, "input shape (1, 9, 9): stage 3: input width 32, gets 72"),
        (_no_classifier, "the spec does not end in a full-precision classifier"),
        (_array_at_0("b:1.running_var", np.nan), "array b:1.running_var holds NaN or infinite"),
        (_array_at_0("b:4.running_mean", -np.inf), "array b:4.running_mean holds NaN or infinite"),
        (_array_at_0("p:0.weight", np.nan), "array p:0.weight holds NaN or infinite"),
        (_array_at_0("p:4.gamma", np.inf), "array p:4.gamma holds NaN or infinite"),
        (_array_at_0("p:10.bias", np.nan), "array p:10.bias holds NaN or infinite"),
        (_array_at_0("b:4.running_var", -1.0), "array b:4.running_var holds negative variances"),
    ],
)
def test_quantize_writes_no_file_that_cannot_load(trained_run, tmp_path, capsys, edit, message):
    """A snapshot whose stages would quantize to a model file that nothing
    can load: quantize exits 3 with one line and writes no file."""
    snap = tmp_path / "edited.npz"
    _edit_snapshot(trained_run / "snapshot.npz", snap, edit)
    out = tmp_path / "edited.sbnn"
    assert run_cli(["quantize", "--snapshot", str(snap), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


class TestPathErrors:
    """A path that cannot be read or written gives one line on stderr and
    the documented exit code: 3 for a data path, 2 for --config."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (["eval", "--model", "{dir}", "--synthetic"], 3),
            (["bench", "--model", "{dir}"], 3),
            (["inspect", "--model", "{dir}"], 3),
            (["inspect", "--snapshot", "{dir}"], 3),
            (["quantize", "--snapshot", "{dir}"], 3),
            (["eval", "--model", "{model}", "--data", "{dir}"], 3),
            (["eval", "--model", "{model}", "--idx-images", "{dir}", "--idx-labels", "{dir}"], 3),
            (["bench", "--model", "{model}", "--out", "{dir}"], 3),
            (["inspect", "--model", "{model}", "--csv", "{dir}"], 3),
            (["quantize", "--snapshot", "{snap}", "--out", "{dir}"], 3),
            (["--config", "{dir}", "bench", "--model", "{model}"], 2),
            (["--config", "{missing}", "bench", "--model", "{model}"], 2),
            (["--config", "{latin1}", "bench", "--model", "{model}"], 2),
        ],
        ids=[
            "eval-model-dir", "bench-model-dir", "inspect-model-dir", "inspect-snapshot-dir",
            "quantize-snapshot-dir", "eval-data-dir", "eval-idx-dir", "bench-out-dir",
            "inspect-csv-dir", "quantize-out-dir", "config-dir", "config-missing",
            "config-not-utf8",
        ],
    )
    def test_one_line_and_exit_code(self, trained_run, tmp_path, capsys, args, code):
        paths = {
            "dir": tmp_path / "a-directory",
            "model": tmp_path / "golden.sbnn",
            "snap": trained_run / "snapshot.npz",
            "missing": tmp_path / "missing.cfg",
            "latin1": tmp_path / "latin1.cfg",
        }
        paths["dir"].mkdir()
        paths["model"].write_bytes(modelio.encode(golden_model()))
        paths["latin1"].write_bytes("seed=1  # \xe9\n".encode("latin-1"))
        assert run_cli([a.format(**paths) for a in args]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")


class TestStageNames:
    """The engine's one stage walk gives every stage's shape and its name,
    s{index}_{label}, and each per-stage output uses that name."""

    NAMES = ["s0_fp_conv3x3", "s1_bin_conv3x3", "s2_pool", "s3_bin_linear", "s4_head"]

    def test_walk_gives_hand_computed_shapes(self):
        m = golden_model()
        # 8x8 padded convs keep the map, the pool halves it, the linear
        # stage takes 5 * 4 * 4 = 80 features
        shapes = [(3, 8, 8), (5, 8, 8), (5, 4, 4), (7,), (2,)]
        assert engine.walk_stages(m.stages, m.input_shape) == list(zip(self.NAMES, shapes))

    def test_report_csv_and_inspect_rows_agree(self, tmp_path, capsys):
        path, csv_path = tmp_path / "golden.sbnn", tmp_path / "h.csv"
        modelio.save_model(path, golden_model())

        def row_names(text):
            firsts = (line.split()[0] for line in text.splitlines() if line.strip())
            return [name for name in firsts if re.fullmatch(r"s\d+_\w+", name)]

        capsys.readouterr()
        assert run_cli(["bench", "--model", str(path)]) == 0
        assert row_names(capsys.readouterr().out) == [
            "s0_fp_conv3x3", "s1_bin_conv3x3", "s3_bin_linear", "s4_head"
        ]
        assert run_cli(["inspect", "--model", str(path), "--csv", str(csv_path)]) == 0
        assert row_names(capsys.readouterr().out) == ["s1_bin_conv3x3", "s3_bin_linear"]
        csv_rows = csv_path.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in csv_rows] == ["s1_bin_conv3x3"]


class TestMlpPipeline:
    def test_mlp_train_quantize_eval(self, tmp_path, capsys):
        out = tmp_path / "mlp_run"
        assert run_cli(
            ["train", "--synthetic", "--samples", "64", "--image-hw", "6",
             "--epochs", "3", "--batch", "32", "--seed", "2", "--arch", "mlp",
             "--width", "4", "--out", str(out)]
        ) == 0
        model_path = tmp_path / "mlp.sbnn"
        assert run_cli(
            ["quantize", "--snapshot", str(out / "snapshot.npz"),
             "--out", str(model_path)]
        ) == 0
        code = run_cli(
            ["eval", "--model", str(model_path), "--synthetic", "--samples", "64",
             "--image-hw", "6", "--seed", "2"]
        )
        assert code == 0
        assert "argmax agreement vs reference: 1.0000" in capsys.readouterr().out


class TestInspectBaselineDomain:
    def test_fresh_pm1_model_is_one_bit_per_weight(self, tmp_path, capsys):
        # untrained snapshot quantized to the {-1,+1} baseline: every layer
        # sits near p = 0.5 and one bit/weight of entropy
        out = tmp_path / "r"
        assert run_cli(
            ["train", "--synthetic", "--samples", "32", "--epochs", "0",
             "--seed", "3", "--width", "6", "--omega", "pm1", "--out", str(out)]
        ) == 0
        model_path = tmp_path / "m.sbnn"
        assert run_cli(
            ["quantize", "--snapshot", str(out / "snapshot.npz"),
             "--omega", "pm1", "--out", str(model_path)]
        ) == 0
        assert run_cli(["inspect", "--model", str(model_path)]) == 0
        capsys.readouterr()
        from sbnn import modelio as mio

        model = mio.load_model(model_path)
        for stage in model.binary_stages():
            p = float(stage.packed.bits.mean())
            assert abs(p - 0.5) < 0.05
            from sbnn.sparsity import binary_entropy

            assert binary_entropy(p) > 0.99


class TestConfigFile:
    def test_config_file_defaults_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=2\nwidth=4\nsamples=48\nseed=9\n")
        out = tmp_path / "r"
        code = run_cli(
            ["--config", str(cfg), "train", "--synthetic", "--epochs", "1",
             "--out", str(out)]
        )
        assert code == 0
        text = (out / "config.txt").read_text()
        assert "epochs=1" in text  # flag wins
        assert "width=4" in text and "samples=48" in text  # file fills defaults

    def test_resolved_config_logged(self, tmp_path, capsys):
        out = tmp_path / "r"
        run_cli(
            ["train", "--synthetic", "--samples", "32", "--epochs", "1",
             "--seed", "3", "--width", "4", "--out", str(out)]
        )
        printed = capsys.readouterr().out
        assert "# resolved config" in printed
        assert "seed=3" in printed


    def test_config_txt_reproduces_the_run(self, tmp_path, capsys):
        """A run's config.txt, unset flags (None) and the subcommand included,
        reproduces its report.jsonl byte for byte."""
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(
            ["train", "--synthetic", "--samples", "48", "--epochs", "2",
             "--seed", "5", "--width", "4", "--augment", "--out", str(r1)]
        ) == 0
        text = (r1 / "config.txt").read_text()
        assert "command=train" in text and "sparsity=None" in text
        assert run_cli(["--config", str(r1 / "config.txt"), "train", "--out", str(r2)]) == 0
        assert (r2 / "report.jsonl").read_bytes() == (r1 / "report.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("epoch=1", "no flag is named 'epoch'"),
            ("epochs=abc", "bad value epochs=abc"),
            ("augment=maybe", "bad value augment=maybe"),
            ("arch=bogus", "arch=bogus is not one of"),
        ],
    )
    def test_bad_config_line_is_config_error(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = run_cli(
            ["--config", str(cfg), "train", "--synthetic", "--samples", "32",
             "--epochs", "1", "--width", "4", "--out", str(tmp_path / "r")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


def test_module_entrypoint_smoke(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "sbnn.cli", "train", "--synthetic", "--samples",
         "32", "--epochs", "1", "--width", "4", "--seed", "1",
         "--out", str(tmp_path / "r")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "done:" in out.stdout


def test_cli_runs_from_a_checkout():
    """The no-install form the README gives: PYTHONPATH=src python -m sbnn.cli."""
    root = pathlib.Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "sbnn.cli", "--help"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: sbnn")


class TestErrorClassPicksExitCode:
    """cli.main exits 3 for any DataError and 2 for any other
    ValidationError, with one line on stderr either way."""

    DATA_ERRORS = [
        dataio.SizeMismatch, dataio.LabelOutOfRange, dataio.BadMagic, dataio.CountMismatch,
        modelio.ModelFileError, modelio.BadMagic, modelio.BadVersion, modelio.CrcMismatch,
        modelio.TruncatedStream, SnapshotError, DataError,
    ]

    @pytest.mark.parametrize(
        "cls, code",
        [(cls, 3) for cls in DATA_ERRORS] + [(ValidationError, 2)],
        ids=lambda v: v.__qualname__ if isinstance(v, type) else str(v),
    )
    def test_raised_class(self, monkeypatch, capsys, cls, code):
        assert issubclass(cls, DataError) == (code == 3)

        def fail(args):
            raise cls("bad input")

        monkeypatch.setitem(cli._COMMANDS, "bench", fail)
        assert run_cli(["bench", "--model", "m.sbnn"]) == code
        assert capsys.readouterr().err == "error: bad input\n"

    def test_empty_dataset_is_a_data_error(self, tmp_path, capsys):
        # it exited 2, as a configuration error, while its class was ValidationError
        ipath, lpath = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_images(ipath, np.zeros((0, 8, 8), dtype=np.uint8))
        write_idx_labels(lpath, np.zeros(0, dtype=np.uint8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                ["train", "--idx-images", str(ipath), "--idx-labels", str(lpath),
                 "--epochs", "1", "--out", str(tmp_path / "r")]
            )
        assert code == 3
        assert capsys.readouterr().err == "error: empty dataset\n"

    def test_train_on_nonfinite_images_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dataio, "synthetic_classification", _with_nan_pixel)
        code = run_cli(
            ["train", "--synthetic", "--samples", "16", "--epochs", "1", "--width", "4",
             "--out", str(tmp_path / "r")]
        )
        assert code == 3
        assert capsys.readouterr().err == "error: images hold NaN or infinite values\n"
        assert not (tmp_path / "r" / "snapshot.npz").exists()


class TestBadInput:
    """Bad input exits with its documented code and one stderr line, and a
    request above cli.MAX_DECLARED_VALUES is refused before it allocates."""

    TRAIN = ["train", "--synthetic", "--samples", "16", "--epochs", "1", "--width", "4"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--classes", "0"], "classes = 0"),
            (["--image-hw", "-1"], "image_hw = -1"),
            (["--image-hw", "100000"], "the synthetic dataset declares 160000000000"),
            (["--samples", "300000", "--image-hw", "8"], "the synthetic dataset declares"),
            (["--width", "100000"], "the network declares"),
            (["--width", "1000", "--image-hw", "100"], "the network declares"),
            (["--arch", "mlp", "--width", "100000"], "the network declares"),
            (["--difficulty", "inf"], "difficulty = inf"),
            (["--difficulty", "nan"], "difficulty = nan"),
            (["--difficulty", "-0.5"], "difficulty = -0.5"),
            (["--hstar", "0.5", "--sparsity", "0.9"], "one budget"),
            (["--lr", "nan"], "learning_rate = nan is not finite and > 0"),
            (["--lr", "inf"], "learning_rate = inf is not finite and > 0"),
            (["--lr", "-1"], "learning_rate = -1.0 is not finite and > 0"),
            (["--lr", "0"], "learning_rate = 0.0 is not finite and > 0"),
            # the mlp trains on flat (N, features) images
            (["--arch", "mlp", "--augment"], "augment shifts and flips (N, C, H, W) images"),
        ],
    )
    def test_train_config_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "r"
        tracemalloc.start()
        try:
            code = run_cli(self.TRAIN + flags + ["--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert peak < 8 << 20
        assert not (out / "snapshot.npz").exists()

    def test_bound_admits_its_own_size(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DECLARED_VALUES", 16 * 8 * 8)
        cli._check_size("the synthetic dataset", 16 * 8 * 8)
        with pytest.raises(ValidationError, match="above 1024"):
            cli._check_size("the synthetic dataset", 16 * 8 * 8 + 1)

    def test_training_step_above_the_bound(self, tmp_path, capsys, monkeypatch):
        """One 1024x1024 image passes the dataset and network checks, but the
        third conv's windows for that one image would hold 16 * 9 * 1018**2
        float64 values (1.2 GB): refused before the network is built."""
        out = tmp_path / "r"

        def no_network(*args):  # without the check, training would take ~3 GB
            pytest.fail("the network was built")

        monkeypatch.setattr(cli, "Network", no_network)
        tracemalloc.start()
        try:
            code = run_cli(
                ["train", "--synthetic", "--samples", "1", "--classes", "1",
                 "--image-hw", "1024", "--width", "8", "--out", str(out)]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a training step's largest array declares 149230656 float64 values, "
            f"above {cli.MAX_DECLARED_VALUES}\n"
        )
        assert peak < 64 << 20  # the 8 MB image and its generator's temporaries
        assert not (out / "snapshot.npz").exists()

    def test_spec_that_does_not_fold_is_refused_before_a_step(self, tmp_path, capsys, monkeypatch):
        real = cli.conv_net_spec

        def no_batchnorm(**kwargs):  # the first binary conv loses its batchnorm
            spec = real(**kwargs)
            return spec[:4] + spec[5:]

        def no_step(*args):
            pytest.fail("a training step ran")

        monkeypatch.setattr(cli, "conv_net_spec", no_batchnorm)
        monkeypatch.setattr("sbnn.train.sbnn_step", no_step)
        out = tmp_path / "r"
        assert run_cli(self.TRAIN + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: layer 3 (conv3x3) must be followed by batchnorm and sign\n"
        )
        assert not (out / "snapshot.npz").exists()

    def test_idx_header_whose_dims_product_wraps(self, tmp_path, capsys):
        """(2**31, 2**31, 4) multiplies to 0 in uint64, so the empty body
        once passed the size check and reshape raised a traceback."""
        ipath, lpath = tmp_path / "img.idx", tmp_path / "lab.idx"
        ipath.write_bytes(struct.pack(">IIII", dataio.IDX_IMAGES_MAGIC, 2**31, 2**31, 4))
        write_idx_labels(lpath, np.zeros(0, dtype=np.uint8))
        code = run_cli(
            ["train", "--idx-images", str(ipath), "--idx-labels", str(lpath),
             "--epochs", "1", "--out", str(tmp_path / "r")]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {ipath}: payload 0 != dims product {2**64}\n"
        )

    def test_conv_arch_on_non_square_images(self, tmp_path, capsys, monkeypatch):
        """The conv net's classifier width assumes square images: 10x8 ones
        once failed in the first step's matmul."""
        ipath, lpath = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_images(ipath, np.arange(4 * 80, dtype=np.uint8).reshape(4, 10, 8))
        write_idx_labels(lpath, np.array([0, 1, 0, 1]))

        def no_network(*args):
            pytest.fail("the network was built")

        monkeypatch.setattr(cli, "Network", no_network)
        code = run_cli(
            ["train", "--idx-images", str(ipath), "--idx-labels", str(lpath),
             "--epochs", "1", "--width", "4", "--out", str(tmp_path / "r")]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error: --arch conv needs square images, not (10, 8) pixels\n"
        )
        assert not (tmp_path / "r" / "snapshot.npz").exists()

    def test_step_values_count_the_largest_array(self):
        spec = nn.conv_net_spec(in_ch=1, classes=2, width=4, image_hw=8)
        # the second conv's windows: 4 * 9 taps x 4 * 4 pixels
        assert nn.step_values_per_image(spec, (1, 8, 8)) == 36 * 16
        mlp = nn.mlp_spec(in_features=36, classes=2, hidden=12)
        assert nn.step_values_per_image(mlp, (36,)) == 36  # the input is the largest

    def test_network_declares_a_value_per_weight_or_channel(self):
        spec = nn.conv_net_spec(in_ch=1, classes=2, width=4, image_hw=8)
        # three convs and their batchnorms' channels, then the 8 * 2 * 2 -> 2 head
        assert nn.declared_values(spec) == (36 + 4) + (288 + 8) + (576 + 8) + 64

    @pytest.mark.parametrize("ec", ["0", "nan", "-1", "2", "inf"])
    def test_bench_explicit_ec_outside_unit_interval(self, tmp_path, capsys, ec):
        path = tmp_path / "golden.sbnn"
        modelio.save_model(path, golden_model())
        assert run_cli(["bench", "--model", str(path), "--ec", ec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "outside (0, 1]" in err
