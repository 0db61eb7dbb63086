"""Operation and compression accounting for quantized models.

Conventions (the tables depend on them, so they are pinned here):
  - one real multiply-accumulate = 2 FLOPs; the affine remap costs 3 FLOPs
    per output and a threshold compare 1 (matching the engine's counters)
  - one binary weight position = 2 binary ops (XNOR + accumulate), so a
    dense layer costs 2N per application; the sparse path charges only
    positions inside executed dense kernels
  - combined metric: OPs = FLOPs + BOPs / 64
  - compressed parameter bits per 3x3 kernel: 2 class bits, plus 4 index
    bits for a single-weight kernel, plus the raw 9 bits for a dense kernel

K0/K1 fractions are over the 3x3 kernels of binarized conv layers only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .binquant import ValidationError
from .engine import BinStage, FloatStage, Head, OpsCounters, QuantizedModel, walk_stages
from .sparsity import binary_entropy


def bops_baseline(weight_count: int, positions: int = 1) -> int:
    """Dense binary ops for one application of a binarized layer: two per
    multiply-accumulate position."""
    return 2 * weight_count * positions


def gain_estimate(ec: float) -> float:
    """Rough binary-op gain of the sparse engine over the dense binary
    baseline as a function of the expected-connections fraction: 2 / ec."""
    if not 0.0 < ec <= 1.0:
        raise ValidationError(f"ec = {ec} outside (0, 1]")
    return 2.0 / ec


def ops_total(bops: float, flops: float) -> float:
    """Combined operation count: FLOPs plus BOPs rescaled by 1/64."""
    if bops < 0 or flops < 0:
        raise ValidationError("negative op counts")
    return flops + bops / 64.0


def bparams_bits(k0: int, k1: int, kdense: int) -> int:
    """Compressed bit cost of a kernel-class mix: 2 bits per kernel to code
    the class, 4 index bits per single-weight kernel, 9 raw bits per dense
    kernel."""
    return 2 * (k0 + k1 + kdense) + 4 * k1 + 9 * kdense


def bops_pruning_ratio(counted: float, baseline: float) -> float:
    if baseline <= 0:
        raise ValidationError("baseline must be positive")
    return 1.0 - counted / baseline


def kernel_hamming_fractions(packed_layer) -> np.ndarray:
    """Fractions of the layer's 3x3 kernels at each Hamming weight 0..9."""
    if packed_layer.kernel_tags is None:
        raise ValidationError("layer has no 3x3 kernels")
    hw = packed_layer.bits.reshape(-1, 9).sum(axis=1, dtype=np.int64)
    hist = np.bincount(hw, minlength=10)
    return hist / hist.sum()


def hamming_histogram(model: QuantizedModel):
    """Per-binarized-conv-stage Hamming-weight fractions, as a list of
    (stage_name, fractions[10])."""
    walked = walk_stages(model.stages, model.input_shape)
    return [
        (name, kernel_hamming_fractions(stage.packed))
        for stage, (name, _) in zip(model.stages, walked)
        if isinstance(stage, BinStage) and stage.packed.kind == "conv3x3"
    ]


def histograms_csv(model: QuantizedModel) -> str:
    """The Hamming histogram as CSV: a header, then one row per binarized
    conv stage, its name and the fractions at Hamming weight 0..9."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["layer"] + [f"hw{k}" for k in range(10)])
    for name, frac in hamming_histogram(model):
        writer.writerow([name] + [repr(float(v)) for v in frac])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# whole-model report
# ---------------------------------------------------------------------------

@dataclass
class OpsReport:
    layers: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)

    def to_text(self) -> str:
        cols = [
            ("layer", 16),
            ("bops_bnn", 12),
            ("bops_sbnn", 12),
            ("bops_pr", 9),
            ("flops", 12),
            ("K0", 7),
            ("K1", 7),
            ("Kdense", 7),
            ("bparams_bits", 13),
            ("bparams_pr", 11),
            ("ones_frac", 10),
            ("entropy", 8),
        ]
        def fmt(row):
            parts = []
            for name, width in cols:
                v = row.get(name, "")
                if isinstance(v, float):
                    v = f"{v:.4f}"
                parts.append(str(v).rjust(width))
            return " ".join(parts)

        lines = [fmt({name: name for name, _ in cols})]
        for row in self.layers:
            lines.append(fmt(row))
        lines.append(fmt({"layer": "TOTAL", **self.totals}))
        t = self.totals
        lines.append("")
        lines.append(f"ops_total (flops + bops/64): {t['ops_total']:.1f}")
        lines.append(f"overall BOPs PR: {t['bops_pr']:.4f}")
        if "gain_2_over_ec" in t:
            lines.append(
                f"gain estimate 2/EC at EC={t['ec']:.4f}: {t['gain_2_over_ec']:.2f}x"
            )
        return "\n".join(lines) + "\n"


def build_ops_report(model: QuantizedModel, ec: float | None = None) -> OpsReport:
    """Static per-image accounting from the model structure alone. The
    engine's runtime counters reproduce the same numbers (the acceptance
    suite cross-checks them)."""
    report = OpsReport()
    tot = {
        "bops_bnn": 0,
        "bops_sbnn": 0,
        "flops": 0,
        "bparams_bits": 0,
        "bparams_raw_bits": 0,
        "k0": 0,
        "k1": 0,
        "kd": 0,
        "ones": 0,
        "n_bits": 0,
    }
    for stage, (name, shape) in zip(model.stages, walk_stages(model.stages, model.input_shape)):
        c, pos = shape[0], math.prod(shape[1:])  # output channels, positions
        if isinstance(stage, BinStage):
            p = stage.packed
            n = p.weight_count
            base = bops_baseline(n, pos)
            k0, k1, kd = p.kernel_counts  # (0, 0, 0) for a linear stage
            ktotal = k0 + k1 + kd
            conv = p.kind == "conv3x3"
            counted = 2 * 9 * kd * pos if conv else base
            bits = bparams_bits(k0, k1, kd) if conv else n
            ones = int(p.bits.sum())
            row = {
                "layer": name,
                "bops_bnn": base,
                "bops_sbnn": counted,
                "bops_pr": bops_pruning_ratio(counted, base),
                "flops": 4 * c * pos,
                "K0": k0 / ktotal if ktotal else 0.0,
                "K1": k1 / ktotal if ktotal else 0.0,
                "Kdense": kd / ktotal if ktotal else 0.0,
                "bparams_bits": bits,
                "bparams_pr": 1.0 - bits / n,
                "ones_frac": ones / n,
                "entropy": binary_entropy(ones / n),
            }
            report.layers.append(row)
            tot["bops_bnn"] += base
            tot["bops_sbnn"] += counted
            tot["flops"] += row["flops"]
            tot["bparams_bits"] += bits
            tot["bparams_raw_bits"] += n
            tot["k0"] += k0
            tot["k1"] += k1
            tot["kd"] += kd
            tot["ones"] += ones
            tot["n_bits"] += n
        elif isinstance(stage, FloatStage):
            macs = stage.weight.size * pos
            report.layers.append(
                {"layer": name, "flops": 2 * macs + c * pos}
            )
            tot["flops"] += 2 * macs + c * pos
        elif isinstance(stage, Head):
            macs = stage.weight.size
            report.layers.append({"layer": name, "flops": 2 * macs})
            tot["flops"] += 2 * macs
    ktotal = tot["k0"] + tot["k1"] + tot["kd"]
    report.totals = {
        "bops_bnn": tot["bops_bnn"],
        "bops_sbnn": tot["bops_sbnn"],
        "bops_pr": bops_pruning_ratio(tot["bops_sbnn"], tot["bops_bnn"])
        if tot["bops_bnn"]
        else 0.0,
        "flops": tot["flops"],
        "ops_total": ops_total(tot["bops_sbnn"], tot["flops"]),
        "K0": tot["k0"] / ktotal if ktotal else 0.0,
        "K1": tot["k1"] / ktotal if ktotal else 0.0,
        "Kdense": tot["kd"] / ktotal if ktotal else 0.0,
        "bparams_bits": tot["bparams_bits"],
        "bparams_pr": 1.0 - tot["bparams_bits"] / tot["bparams_raw_bits"]
        if tot["bparams_raw_bits"]
        else 0.0,
        "ones_frac": tot["ones"] / tot["n_bits"] if tot["n_bits"] else 0.0,
        "entropy": binary_entropy(tot["ones"] / tot["n_bits"]) if tot["n_bits"] else 0.0,
    }
    achieved_ec = report.totals["ones_frac"]
    use_ec = ec if ec is not None else achieved_ec
    if use_ec and use_ec > 0:
        report.totals["ec"] = use_ec
        report.totals["gain_2_over_ec"] = gain_estimate(use_ec)
    return report


def counters_match_report(counters: OpsCounters, report: OpsReport) -> bool:
    """Runtime counters (normalized per image) equal the static accounting
    for binary position ops."""
    if counters.images == 0:
        return False
    counted = counters.position_ops / counters.images
    return counted == report.totals["bops_sbnn"]
