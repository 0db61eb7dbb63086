"""Training loop for sparse binarized networks.

Each step runs the binarized forward, cross-entropy task loss, the global
ones-fraction penalty j over all binarized layers, re-solves lambda so the
penalty stays a fixed fraction gamma of the total loss, and backpropagates
both paths through the straight-through estimator. Deterministic given the
config seed: network init, shuffling and augmentation all derive from it.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .binquant import (
    PM1_DOMAIN,
    DataError,
    OmegaParams,
    ValidationError,
    canonicalize_with_bits,
    fit_omega,
    sign_binarize,
    signs_to_bits,
    ste_gradient,
)
from .engine import (
    BinStage,
    BitPool,
    FloatStage,
    FusedThreshold,
    Head,
    PackedLayer,
    QuantizedModel,
    infer,
    walk_stages,
)
from .nn import (
    OMEGA_MODES,
    BatchNorm,
    LayerSpec,
    Network,
    _WeightedLayer,
    declared_values,
    softmax_cross_entropy,
)
from .sparsity import inverse_binary_entropy, lambda_update, penalty_j


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; aborted with diagnostics."""


class SnapshotError(DataError):
    """A snapshot file that does not hold the network its spec declares."""


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    gamma: float = 0.1
    target_sparsity: float | None = None  # ones budget ec = 1 - s
    h_star: float | None = None  # alternative entry: ec = h^-1(h_star)
    seed: int = 0
    omega_mode: str = "analytic"
    augment: bool = False  # seeded shift-crop + horizontal flip

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValidationError(f"gamma = {self.gamma} outside [0, 1)")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValidationError("bad epochs/batch_size")
        if self.omega_mode not in OMEGA_MODES:
            raise ValidationError(f"unknown omega mode {self.omega_mode!r}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValidationError(f"learning_rate = {self.learning_rate} is not finite and > 0")
        if self.target_sparsity is not None and not 0.0 <= self.target_sparsity < 1.0:
            raise ValidationError("target_sparsity outside [0, 1)")
        if self.h_star is not None and not 0.0 <= self.h_star <= 1.0:
            raise ValidationError("h_star outside [0, 1]")
        if self.h_star is not None and self.target_sparsity is not None:
            raise ValidationError("set one budget: target_sparsity or h_star")

    @property
    def ec(self) -> float:
        if self.h_star is not None:
            return inverse_binary_entropy(self.h_star)
        if self.target_sparsity is not None:
            return 1.0 - self.target_sparsity
        return 0.5


@dataclass
class TrainReport:
    records: list = field(default_factory=list)
    final_snapshot_id: str = ""

    def add(self, **kw):
        self.records.append(kw)

    def to_jsonl(self) -> str:
        lines = [json.dumps(r, sort_keys=True) for r in self.records]
        lines.append(
            json.dumps({"final": True, "snapshot_id": self.final_snapshot_id})
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "TrainReport":
        rep = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            if obj.get("final"):
                rep.final_snapshot_id = obj["snapshot_id"]
            else:
                rep.records.append(obj)
        return rep


class Adam:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.params = params  # list of (name, Parameter)
        self.m = {n: np.zeros_like(p.value) for n, p in params}
        self.v = {n: np.zeros_like(p.value) for n, p in params}
        self.t = 0

    def step(self, lr):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for n, p in self.params:
            m = self.m[n] = b1 * self.m[n] + (1 - b1) * p.grad
            v = self.v[n] = b2 * self.v[n] + (1 - b2) * p.grad**2
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            p.value -= lr * mhat / (np.sqrt(vhat) + self.EPS)


def cosine_lr(base_lr, epoch, total_epochs):
    if total_epochs <= 1:
        return base_lr
    return 0.5 * base_lr * (1.0 + np.cos(np.pi * epoch / total_epochs))


def evaluate(network: Network, images, labels, batch_size=256) -> float:
    """Accuracy of the model quantize_network folds from `network`, run by
    the engine over slices of batch_size images."""
    model = quantize_network(network, images.shape[1:], check_foldable(network.spec))
    hits = 0
    for lo in range(0, images.shape[0], batch_size):
        logits, _ = infer(model, images[lo : lo + batch_size])
        hits += int(np.sum(np.argmax(logits, axis=1) == labels[lo : lo + batch_size]))
    return hits / images.shape[0]


def sbnn_step(network: Network, xb, yb, gamma, ec):
    """One loss-and-gradients evaluation (no optimizer update). Returns
    (task_loss, j, lam). Grads are accumulated into the network params."""
    logits = network.forward(xb, train=True)
    loss, dlogits = softmax_cross_entropy(logits, yb)
    wb = network.concat_sign_weights()
    j = penalty_j(wb, ec) if wb.size else 0.0
    lam = lambda_update(loss, j, gamma) if wb.size else 0.0
    network.backward(dlogits)
    if lam > 0.0 and j > 0.0:
        n_total = wb.size
        for layer in network.binarized_layers():
            layer.weight.grad += ste_gradient(lam / (2.0 * n_total), layer.weight.value)
    return loss, j, lam


def train(network: Network, dataset, cfg: TrainConfig) -> TrainReport:
    """Run cfg.epochs of minibatch Adam on `dataset`, an (images, labels)
    pair; accuracy is reported on it, by evaluate. epochs = 0 leaves the
    network at initialization and returns an empty report. A spec that
    quantize_network cannot fold is rejected before the first step."""
    check_foldable(network.spec)
    images, labels = dataset
    if images.shape[0] < 1:
        raise DataError("empty dataset")
    if not np.isfinite(images).all():
        raise DataError("images hold NaN or infinite values")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    opt = Adam(network.params())
    report = TrainReport()
    ec = cfg.ec
    best_loss = np.inf
    for epoch in range(cfg.epochs):
        lr = cosine_lr(cfg.learning_rate, epoch, cfg.epochs)
        order = rng.permutation(images.shape[0])
        losses = []
        last_j, last_lam = 0.0, 0.0
        for lo in range(0, order.size, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb = images[idx]
            if cfg.augment:
                xb = _augment(xb, rng)
            network.zero_grads()
            loss, last_j, last_lam = sbnn_step(network, xb, labels[idx], cfg.gamma, ec)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {lo // cfg.batch_size}"
                )
            opt.step(lr)
            # keep latent weights inside the estimator's active band so no
            # weight loses its gradient permanently
            for layer in network.binarized_layers():
                np.clip(layer.weight.value, -1.0, 1.0, out=layer.weight.value)
            losses.append(loss)
        epoch_loss = float(np.mean(losses))
        best_loss = min(best_loss, epoch_loss)
        report.add(
            epoch=epoch,
            loss=epoch_loss,
            j=last_j,
            **{"lambda": last_lam},
            ones_fraction=network.ones_fraction(),
            # in the steps' slices: evaluation never holds more images at once
            accuracy=evaluate(network, images, labels, cfg.batch_size),
            best_loss=best_loss,
        )
    return report


def _augment(xb, rng):
    """Shift-crop within +-1 pixel and horizontal flip, per sample."""
    b, c, h, w = xb.shape
    out = np.empty_like(xb)
    shifts = rng.integers(-1, 2, size=(b, 2))
    flips = rng.integers(0, 2, size=b)
    pad = np.pad(xb, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
    for i in range(b):
        dy, dx = shifts[i]
        img = pad[i, :, 1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        out[i] = img[:, :, ::-1] if flips[i] else img
    return out


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

@dataclass
class Snapshot:
    spec: tuple
    cfg: TrainConfig
    input_shape: tuple
    classes: int
    params: dict
    buffers: dict

    @property
    def snapshot_id(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps([asdict(ls) for ls in self.spec], sort_keys=True).encode())
        for key in sorted(self.params):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.params[key]).tobytes())
        for key in sorted(self.buffers):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.buffers[key]).tobytes())
        return h.hexdigest()[:12]


def _network_arrays(network: Network):
    """(params, buffers): the network's live parameter and batchnorm
    running-statistics arrays under their snapshot names."""
    params = {name: p.value for name, p in network.params()}
    buffers = {}
    for i, layer in enumerate(network.layers):
        if isinstance(layer, BatchNorm):
            buffers[f"{i}.running_mean"] = layer.running_mean
            buffers[f"{i}.running_var"] = layer.running_var
    return params, buffers


def take_snapshot(network: Network, cfg: TrainConfig, input_shape, classes) -> Snapshot:
    params, buffers = (
        {k: v.copy() for k, v in arrays.items()} for arrays in _network_arrays(network)
    )
    return Snapshot(network.spec, cfg, tuple(input_shape), classes, params, buffers)


def restore_network(snap: Snapshot) -> Network:
    """The network the snapshot's spec declares, holding the stored values.
    Raises a SnapshotError unless the snapshot stores exactly the float64
    arrays, of exactly the shapes, that the spec declares."""
    # bounds what a crafted spec can make Network(spec) allocate
    declared = declared_values(snap.spec)
    stored = sum(a.size for a in (*snap.params.values(), *snap.buffers.values()))
    if declared > stored:
        raise SnapshotError(f"spec declares {declared} values, snapshot stores {stored}")
    try:
        net = Network(snap.spec, np.random.default_rng(0))
    except ValidationError as exc:
        raise SnapshotError(f"snapshot spec: {exc}") from exc
    for prefix, have, want in zip(("p:", "b:"), (snap.params, snap.buffers), _network_arrays(net)):
        if have.keys() != want.keys():
            names = sorted(prefix + k for k in have.keys() ^ want.keys())
            raise SnapshotError(f"snapshot arrays {', '.join(names)} do not match its spec")
        for name, target in want.items():
            if have[name].shape != target.shape or have[name].dtype != np.float64:
                raise SnapshotError(
                    f"snapshot array {prefix}{name} is {have[name].dtype} {have[name].shape}, "
                    f"its spec declares float64 {target.shape}"
                )
            target[...] = have[name]
    return net


def save_snapshot(path, snap: Snapshot):
    meta = {
        "spec": [asdict(ls) for ls in snap.spec],
        "cfg": asdict(snap.cfg),
        "input_shape": list(snap.input_shape),
        "classes": snap.classes,
    }
    arrays = {f"p:{k}": v for k, v in snap.params.items()}
    arrays.update({f"b:{k}": v for k, v in snap.buffers.items()})
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_snapshot(path) -> Snapshot:
    """Read a snapshot written by save_snapshot. Raises a SnapshotError for a
    file that is not one: not an npz, no readable __meta__, or a spec or
    config that does not construct (restore_network checks the arrays)."""
    try:
        with open(path, "rb") as fh, np.load(fh) as z:
            meta = json.loads(bytes(z["__meta__"]).decode())
            params = {k[2:]: z[k] for k in z.files if k.startswith("p:")}
            buffers = {k[2:]: z[k] for k in z.files if k.startswith("b:")}
        spec = tuple(LayerSpec(**d) for d in meta["spec"])
        # written by older versions: mixup_alpha was never used, and no caller
        # changed the Adam constants or switched the cosine schedule off
        for key in ("mixup_alpha", "adam_beta1", "adam_beta2", "adam_eps", "cosine_lr"):
            meta["cfg"].pop(key, None)
        cfg = TrainConfig(**meta["cfg"])
        input_shape, classes = tuple(meta["input_shape"]), meta["classes"]
    except (AttributeError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise SnapshotError(f"{path}: not a readable snapshot ({exc})") from exc
    dims = (*input_shape, classes)
    if not all(isinstance(d, int) and d > 0 for d in dims):
        raise SnapshotError(f"{path}: input shape and classes {dims} are not positive integers")
    return Snapshot(spec, cfg, input_shape, classes, params, buffers)


# ---------------------------------------------------------------------------
# quantization: trained network -> engine model
# ---------------------------------------------------------------------------

def _is_head(spec, i) -> bool:
    """Whether weighted layer i of `spec` folds into the full-precision head."""
    return spec[i].kind == "classifier" or (not spec[i].binarized and i + 1 == len(spec))


def check_foldable(spec) -> int:
    """The classes of the model quantize_network folds from a network of
    `spec`: its head's outputs. Raises a ValidationError for a spec it cannot
    fold: a conv or linear layer before the head not followed by batchnorm
    and sign, a binarized first layer, a layer of another kind than those,
    pool and flatten, a last stage other than a full-precision classifier,
    or a layer other than a flatten after the classifier."""
    i, first_real, classes = 0, True, None  # classes: the head's, once it is met
    while i < len(spec):
        ls, step = spec[i], 1
        if classes is not None and ls.kind != "flatten":
            raise ValidationError(f"layer {i} ({ls.kind}) follows the classifier")
        if ls.kind in ("conv3x3", "linear", "classifier") and _is_head(spec, i):
            classes = ls.out_ch
        elif ls.kind in ("conv3x3", "linear"):
            if [s.kind for s in spec[i + 1 : i + 3]] != ["batchnorm", "signact"]:
                raise ValidationError(
                    f"layer {i} ({ls.kind}) must be followed by batchnorm and sign"
                )
            if ls.binarized and first_real:
                raise ValidationError("first layer cannot be binarized")
            first_real, step = False, 3
        elif ls.kind not in ("pool", "flatten"):  # a flatten folds into no stage
            raise ValidationError(f"cannot quantize layer {i} ({ls.kind})")
        i += step
    if classes is None:
        raise ValidationError("the spec does not end in a full-precision classifier")
    return classes


def _layer_omega_and_bits(layer: _WeightedLayer, mode: str):
    w = layer.weight.value.ravel()
    wb = sign_binarize(w)
    bits = signs_to_bits(wb)
    if mode == "pm1":
        return PM1_DOMAIN, bits
    if mode == "analytic":
        om = fit_omega(w, wb)
    elif mode == "learned":  # quantize_snapshot checks that the layer learned one
        om = OmegaParams(tau=float(layer.tau.value), phi=float(layer.phi.value))
    else:
        raise ValidationError(f"unknown quantization mode {mode!r}")
    return canonicalize_with_bits(om, bits)


def quantize_network(network: Network, input_shape, classes, mode=None) -> QuantizedModel:
    """Fold the trained stack into engine stages. Binarized and stem layers
    must be followed by batchnorm + sign (check_foldable); batchnorm running
    statistics feed the fused thresholds. `mode` quantizes every binarized
    layer with one of nn.OMEGA_MODES, None each with its own; 'learned' needs
    layers trained with a learned (tau, phi)."""
    outputs = check_foldable(network.spec)
    if outputs != classes:
        raise ValidationError(f"{outputs} classifier outputs for {classes} classes")
    stages = []
    layers = network.layers
    first_real = True
    for i, layer in enumerate(layers):
        spec = layer.spec
        if spec.kind == "pool":
            stages.append(BitPool())
        elif spec.kind in ("conv3x3", "linear", "classifier") and _is_head(network.spec, i):
            bias = layer.bias.value.copy() if layer.bias is not None else np.zeros(spec.out_ch)
            stages.append(Head(weight=layer.weight.value.copy(), bias=bias))
        elif spec.kind in ("conv3x3", "linear"):
            bn = layers[i + 1]  # then its sign
            thr = FusedThreshold.from_batchnorm(
                bn.gamma.value, bn.beta.value, bn.running_mean, bn.running_var, bn.eps
            )
            geometry = {
                k: getattr(spec, k) for k in ("kind", "in_ch", "out_ch", "stride", "padding")
            }
            if spec.binarized:
                om, bits = _layer_omega_and_bits(layer, mode or spec.omega_mode)
                packed = PackedLayer(**geometry, bits=bits.reshape(spec.out_ch, -1), omega=om)
                stage = BinStage(packed=packed, threshold=thr)
            else:
                w = layer.weight.value.copy()
                stage = FloatStage(**geometry, weight=w, threshold=thr, takes_bits=not first_real)
            stages.append(stage)
            first_real = False
    return QuantizedModel(stages=stages, input_shape=tuple(input_shape), classes=classes)


def quantize_snapshot(snap: Snapshot, mode=None) -> QuantizedModel:
    """Quantize a training snapshot with one of the domain modes: 'analytic'
    (closed-form fit per layer), 'learned' (the trained tau/phi), or 'pm1'
    (the fixed {-1,+1} baseline). None quantizes each layer with its own
    spec.omega_mode, as quantize_network does; 'learned' for layers trained
    without a learned (tau, phi) is a ValidationError. Any other fault is the
    snapshot's, a SnapshotError, as no model file that loads could hold it: a
    parameter or batchnorm statistic NaN or infinite or a variance negative, a
    spec quantize_network cannot fold (check_foldable), or stages that do not
    fit the input shape."""
    net = restore_network(snap)
    if mode == "learned" and any(layer.tau is None for layer in net.binarized_layers()):
        raise ValidationError("learned quantization needs a snapshot trained with omega_mode='learned'")
    for prefix, arrays in (("p:", snap.params), ("b:", snap.buffers)):
        for name, values in arrays.items():
            if not np.isfinite(values).all():
                raise SnapshotError(f"snapshot array {prefix}{name} holds NaN or infinite values")
            if name.endswith("running_var") and (values < 0).any():
                raise SnapshotError(f"snapshot array {prefix}{name} holds negative variances")
    try:
        model = quantize_network(net, snap.input_shape, snap.classes, mode)
    except ValidationError as exc:
        raise SnapshotError(f"snapshot spec: {exc}") from exc
    try:
        walk_stages(model.stages, model.input_shape)
    except ValidationError as exc:
        raise SnapshotError(f"input shape {snap.input_shape}: {exc}") from exc
    return model
