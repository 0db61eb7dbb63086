"""Command-line surface: train / quantize / eval / bench / inspect.

Exit codes: 0 success, 2 configuration error, 3 data or model error,
4 training divergence. Every run prints its fully-resolved configuration;
`--out` directories also receive a config.txt with the same content.

A config file (--config) holds KEY=VALUE lines using the long flag names
without dashes (e.g. `epochs=40`). Explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dataio, metrics, modelio
from .binquant import DataError, ValidationError, sign_binarize, quant_stats
from .engine import BinStage, infer, reference_forward, walk_stages
from .nn import Network, conv_net_spec, declared_values, mlp_spec
from .sparsity import binary_entropy
from .train import (
    TrainConfig,
    TrainingDiverged,
    load_snapshot,
    quantize_snapshot,
    restore_network,
    save_snapshot,
    take_snapshot,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

# the most float64 values a synthetic dataset's images, or a network's
# declared weights, may hold (128 MB each); checked before either allocates
MAX_DECLARED_VALUES = 1 << 24


def _check_size(what, values):
    if values > MAX_DECLARED_VALUES:
        raise ValidationError(f"{what} declares {values} float64 values, above {MAX_DECLARED_VALUES}")


def _build_parser():
    p = argparse.ArgumentParser(prog="sbnn", description=__doc__)
    p.add_argument("--config", help="KEY=VALUE config file; flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    def add_data_flags(sp):
        sp.add_argument("--data", help="dataset path (CIFAR-10 binary batch)")
        sp.add_argument("--idx-images", help="IDX image file (with --idx-labels)")
        sp.add_argument("--idx-labels", help="IDX label file")
        sp.add_argument("--synthetic", action="store_true", help="use the synthetic generator")
        sp.add_argument("--samples", type=int, default=512)
        sp.add_argument("--classes", type=int, default=2)
        sp.add_argument("--difficulty", type=float, default=0.3)
        sp.add_argument("--image-hw", type=int, default=8)
        sp.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train", help="train a binarized network")
    add_data_flags(t)
    t.add_argument("--epochs", type=int, default=50)
    t.add_argument("--batch", type=int, default=64)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--gamma", type=float, default=0.1)
    t.add_argument("--sparsity", type=float, help="target sparsity s; ones budget ec = 1 - s")
    t.add_argument("--hstar", type=float, help="entropy budget in bits/weight")
    t.add_argument("--omega", choices=["analytic", "learned", "pm1"], default="analytic")
    t.add_argument("--arch", choices=["conv", "mlp"], default="conv")
    t.add_argument("--width", type=int, default=8)
    t.add_argument("--augment", action="store_true")
    t.add_argument("--out", default="run_out")

    q = sub.add_parser("quantize", help="quantize a snapshot into a model file")
    q.add_argument("--snapshot", required=True)
    q.add_argument("--omega", choices=["analytic", "learned", "pm1"])
    q.add_argument("--out", default="model.sbnn")

    e = sub.add_parser("eval", help="run the sparse engine on a dataset")
    add_data_flags(e)
    e.add_argument("--model", required=True)

    b = sub.add_parser("bench", help="operation/compression accounting for a model")
    b.add_argument("--model", required=True)
    b.add_argument("--ec", type=float, help="EC for the 2/EC gain line (default: achieved ones fraction)")
    b.add_argument("--out", help="write the report here as well")

    i = sub.add_parser("inspect", help="per-layer domain, ones fraction, entropy")
    i.add_argument("--snapshot")
    i.add_argument("--model")
    i.add_argument("--csv", help="write the Hamming histogram CSV here")

    return p


def _apply_config_file(parser, argv):
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return argv
    try:
        with open(known.config, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # a bad --config is a configuration error
        raise ValidationError(f"--config {known.config}: {exc}") from None
    defaults = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{known.config}:{lineno}: expected KEY=VALUE")
        key, _, value = line.partition("=")
        defaults[key.strip().replace("-", "_")] = value.strip()
    subparsers = parser._subparsers._group_actions[0].choices.values()
    actions = [act for sub in subparsers for act in sub._actions if act.dest != "help"]
    # config.txt also records the subcommand, which the command line names
    unknown = defaults.keys() - {act.dest for act in actions} - {"command"}
    if unknown:
        raise ValidationError(f"{known.config}: no flag is named {sorted(unknown)[0]!r}")
    for act in actions:
        raw = defaults.get(act.dest, "None")
        if raw == "None":  # config.txt writes an unset flag as None
            continue
        try:
            if isinstance(act.const, bool):  # a store_true flag
                if raw.lower() not in ("0", "1", "false", "true", "no", "yes"):
                    raise ValueError(raw)
                value = raw.lower() in ("1", "true", "yes")
            else:
                value = raw if act.type is None else act.type(raw)
        except ValueError:
            raise ValidationError(f"{known.config}: bad value {act.dest}={raw}") from None
        if act.choices is not None and value not in act.choices:
            raise ValidationError(f"{known.config}: {act.dest}={raw} is not one of {act.choices}")
        act.default = value
    return argv


def _load_dataset(args):
    if args.synthetic:
        _check_size("the synthetic dataset", args.samples * args.image_hw**2)
        return dataio.synthetic_classification(
            seed=args.seed,
            n=args.samples,
            classes=args.classes,
            difficulty=args.difficulty,
            image_hw=args.image_hw,
        )
    if args.data:
        return dataio.load_cifar10_binary(args.data)
    if args.idx_images:
        if not args.idx_labels:
            raise ValidationError("--idx-images needs --idx-labels")
        return dataio.load_idx(args.idx_images, args.idx_labels)
    raise ValidationError("no dataset: pass --synthetic, --data, or --idx-images")


def _resolved_config(args) -> str:
    pairs = sorted(vars(args).items())
    return "\n".join(f"{k}={v}" for k, v in pairs if k != "config") + "\n"


def _log_config(args, out_dir=None):
    text = _resolved_config(args)
    sys.stdout.write("# resolved config\n" + text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.txt"), "w") as fh:
            fh.write(text)


def cmd_train(args) -> int:
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        gamma=args.gamma,
        target_sparsity=args.sparsity,
        h_star=args.hstar,
        seed=args.seed,
        omega_mode=args.omega,
        augment=args.augment,
    )
    _log_config(args, args.out)
    ds = _load_dataset(args)
    if args.arch == "mlp":
        spec = mlp_spec(
            in_features=int(np.prod(ds.image_shape)),
            classes=ds.classes,
            hidden=4 * args.width,
            omega_mode=args.omega,
        )
        images = ds.images.reshape(ds.count, -1)
    else:
        spec = conv_net_spec(
            in_ch=ds.image_shape[0],
            classes=ds.classes,
            width=args.width,
            image_hw=ds.image_shape[1],
            omega_mode=args.omega,
        )
        images = ds.images
    _check_size("the network", declared_values(spec))
    net = Network(spec, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
    report = train(net, (images, ds.labels), cfg)
    input_shape = images.shape[1:] if args.arch == "conv" else (images.shape[1],)
    snap = take_snapshot(net, cfg, input_shape, ds.classes)
    report.final_snapshot_id = snap.snapshot_id
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.jsonl"), "w") as fh:
        fh.write(report.to_jsonl())
    save_snapshot(os.path.join(args.out, "snapshot.npz"), snap)
    if report.records:
        last = report.records[-1]
        print(
            f"done: loss={last['loss']:.4f} acc={last['accuracy']:.4f} "
            f"ones={last['ones_fraction']:.4f} snapshot={snap.snapshot_id}"
        )
    else:
        print(f"done: 0 epochs, snapshot={snap.snapshot_id}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    _log_config(args)
    snap = load_snapshot(args.snapshot)
    model = quantize_snapshot(snap, mode=args.omega)
    modelio.save_model(args.out, model)
    bits = modelio.payload_bits(model)
    print(f"wrote {args.out}: {len(model.stages)} stages, payload {bits} bits")
    return EXIT_OK


def cmd_eval(args) -> int:
    _log_config(args)
    model = modelio.load_model(args.model)
    ds = _load_dataset(args)
    images = ds.images
    if len(model.input_shape) == 1:
        images = images.reshape(ds.count, -1)
    logits, counters = infer(model, images)
    ref = reference_forward(model, images)
    pred = np.argmax(logits, axis=1)
    acc = float(np.mean(pred == ds.labels))
    agree = float(np.mean(pred == np.argmax(ref, axis=1)))
    print(f"accuracy: {acc:.4f}")
    print(f"argmax agreement vs reference: {agree:.4f}")
    print(f"binary position ops/image: {counters.position_ops / counters.images:.0f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    _log_config(args)
    model = modelio.load_model(args.model)
    report = metrics.build_ops_report(model, ec=args.ec)
    text = report.to_text()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_inspect(args) -> int:
    _log_config(args)
    if not args.snapshot and not args.model:
        raise ValidationError("inspect needs --snapshot or --model")
    if args.model:
        model = modelio.load_model(args.model)
        print("layer  tau  phi  alpha  beta  p(ones)  entropy")
        for stage, (name, _) in zip(model.stages, walk_stages(model.stages, model.input_shape)):
            if not isinstance(stage, BinStage):
                continue
            p = stage.packed
            ones = float(p.bits.mean())
            om = p.omega
            print(
                f"{name}  {om.tau:.6g}  {om.phi:.6g}  {om.alpha:.6g}  {om.beta:.6g}  "
                f"{ones:.4f}  {binary_entropy(ones):.4f}"
            )
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(metrics.histograms_csv(model))
            print(f"histogram csv: {args.csv}")
        return EXIT_OK
    snap = load_snapshot(args.snapshot)
    net = restore_network(snap)
    print("layer  mode  tau  phi  p(ones)  entropy")
    for i, layer in enumerate(net.binarized_layers()):
        om = layer.current_omega()
        wb = sign_binarize(layer.weight.value.ravel())
        p = quant_stats(wb).p
        print(
            f"bin{i}  {layer.spec.omega_mode}  {om.tau:.6g}  {om.phi:.6g}  "
            f"{p:.4f}  {binary_entropy(p):.4f}"
        )
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "quantize": cmd_quantize,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
