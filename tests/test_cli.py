import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from helpers import golden_model
from sbnn import engine, modelio
from sbnn.cli import main
from sbnn.train import TrainReport, load_snapshot


def run_cli(args):
    return main(list(args))


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
        report = TrainReport.from_jsonl((tmp_path / "r" / "report.jsonl").read_text())
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
        report = TrainReport.from_jsonl((trained_run / "report.jsonl").read_text())
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

    @pytest.mark.parametrize("threads", ["two", "1.5", "0", "-1"])
    def test_eval_malformed_threads_is_config_error(
        self, trained_run, tmp_path, capsys, monkeypatch, threads
    ):
        model_path = tmp_path / "m.sbnn"
        assert run_cli(
            ["quantize", "--snapshot", str(trained_run / "snapshot.npz"),
             "--out", str(model_path)]
        ) == 0
        capsys.readouterr()
        monkeypatch.setenv("SBNN_THREADS", threads)
        code = run_cli(
            ["eval", "--model", str(model_path), "--synthetic", "--samples", "16",
             "--image-hw", "8", "--seed", "7"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "SBNN_THREADS" in err and threads in err

    def test_eval_nonfinite_images_is_data_error(self, trained_run, tmp_path, capsys):
        model_path = tmp_path / "m.sbnn"
        assert run_cli(
            ["quantize", "--snapshot", str(trained_run / "snapshot.npz"),
             "--out", str(model_path)]
        ) == 0
        capsys.readouterr()
        # a NaN noise scale makes every synthetic image NaN
        code = run_cli(
            ["eval", "--model", str(model_path), "--synthetic", "--samples", "16",
             "--image-hw", "8", "--seed", "7", "--difficulty", "nan"]
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

    def test_inspect_snapshot(self, trained_run, capsys):
        code = run_cli(["inspect", "--snapshot", str(trained_run / "snapshot.npz")])
        assert code == 0
        assert "p(ones)" in capsys.readouterr().out


def _with_crc(data):
    """The file with its trailing crc recomputed over the edited body."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[8:-4]))


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
        ],
    )
    @pytest.mark.parametrize("command", ["bench", "inspect"])
    def test_edited_bytes(self, tmp_path, capsys, edit, message, command):
        m = golden_model()
        data = bytearray(modelio.encode(m))
        edit(m, data)
        path = tmp_path / "crafted.sbnn"
        path.write_bytes(_with_crc(bytes(data)))
        assert run_cli([command, "--model", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "build, message",
        [
            (_conv_in_ch_plus_one, "stage 1: conv takes 4 channels, gets shape (3, 8, 8)"),
            (_head_width_plus_one, "stage 4: input width 8, gets 7 features"),
            (_conv_padding_600, "stage 1: conv padding 600 above 2"),
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


def test_module_entrypoint_smoke(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "sbnn.cli", "train", "--synthetic", "--samples",
         "32", "--epochs", "1", "--width", "4", "--seed", "1",
         "--out", str(tmp_path / "r")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "done:" in out.stdout
