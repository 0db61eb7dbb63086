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
from collections import Counter
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


def kernel_payload_bits(packed) -> int:
    """Compressed bit cost of a binary stage's weights, which is also the
    bit length of its model-file payload without byte padding: bparams_bits
    of its kernel classes for a 3x3 conv, one bit per weight for a linear
    stage."""
    if packed.kind != "conv3x3":
        return packed.bits.size
    return bparams_bits(*packed.kernel_counts)


def hamming_histogram(model: QuantizedModel):
    """Per-binarized-conv-stage fractions of the 3x3 kernels at each
    Hamming weight 0..9, as a list of (stage_name, fractions[10])."""
    walked = walk_stages(model.stages, model.input_shape)
    out = []
    for stage, (name, _) in zip(model.stages, walked):
        if isinstance(stage, BinStage) and stage.packed.kind == "conv3x3":
            weights = stage.packed.bits.reshape(-1, 9).sum(axis=1, dtype=np.int64)
            hist = np.bincount(weights, minlength=10)
            out.append((name, hist / hist.sum()))
    return out


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


def _columns(c: dict) -> dict:
    """The report's columns of a binary stage's counts (n weights, `ones`
    of them 1-bits, `bits` compressed bits, k0/k1/kd kernels of each class)
    or of their sums over the model, a Counter that reads 0 without any."""
    ktotal = c["k0"] + c["k1"] + c["kd"]
    ones_frac = c["ones"] / c["n"] if c["n"] else 0.0
    return {
        "bops_bnn": c["bops_bnn"],
        "bops_sbnn": c["bops_sbnn"],
        "bops_pr": bops_pruning_ratio(c["bops_sbnn"], c["bops_bnn"]) if c["bops_bnn"] else 0.0,
        "flops": c["flops"],
        "K0": c["k0"] / ktotal if ktotal else 0.0,
        "K1": c["k1"] / ktotal if ktotal else 0.0,
        "Kdense": c["kd"] / ktotal if ktotal else 0.0,
        "bparams_bits": c["bits"],
        "bparams_pr": 1.0 - c["bits"] / c["n"] if c["n"] else 0.0,
        "ones_frac": ones_frac,
        "entropy": binary_entropy(ones_frac),
    }


def build_ops_report(model: QuantizedModel, ec: float | None = None) -> OpsReport:
    """Static per-image accounting from the model structure alone. The
    engine's runtime counters reproduce the same numbers (the acceptance
    suite cross-checks them)."""
    report = OpsReport()
    total = Counter()
    for stage, (name, shape) in zip(model.stages, walk_stages(model.stages, model.input_shape)):
        c, pos = shape[0], math.prod(shape[1:])  # output channels, positions
        if isinstance(stage, BinStage):
            p = stage.packed
            k0, k1, kd = p.kernel_counts  # (0, 0, 0) for a linear stage
            base = bops_baseline(p.weight_count, pos)
            counts = {
                "bops_bnn": base,
                "bops_sbnn": 2 * 9 * kd * pos if p.kind == "conv3x3" else base,
                "flops": 4 * c * pos,
                "k0": k0,
                "k1": k1,
                "kd": kd,
                "bits": kernel_payload_bits(p),
                "n": p.weight_count,
                "ones": int(p.bits.sum()),
            }
            row = _columns(counts)
        elif isinstance(stage, (FloatStage, Head)):
            # 2 per MAC, and a float stage's threshold compare per output
            compares = c * pos if isinstance(stage, FloatStage) else 0
            counts = row = {"flops": 2 * stage.weight.size * pos + compares}
        else:  # a pool: no row
            continue
        report.layers.append({"layer": name, **row})
        total.update(counts)
    report.totals = _columns(total)
    report.totals["ops_total"] = ops_total(total["bops_sbnn"], total["flops"])
    use_ec = ec if ec is not None else report.totals["ones_frac"]
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
