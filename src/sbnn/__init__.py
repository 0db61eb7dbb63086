"""Sparse binary neural networks: entropy-budgeted training, two-value
weight quantization with a closed-form fit, and a bit-packed popcount-only
inference engine with exact operation accounting."""

from .binquant import (
    DegenerateSignError,
    OmegaParams,
    QuantStats,
    ValidationError,
    binarization_loss,
    fit_omega,
    fit_omega_closed_form,
    grad_binarization_loss,
    map_zeroone_to_omega,
    quant_stats,
    sign_binarize,
    ste_gradient,
)
from .engine import (
    FusedThreshold,
    OpsCounters,
    PackedLayer,
    QuantizedModel,
    affine_remap,
    classify_kernels,
    infer,
    reference_forward,
)
from .metrics import (
    OpsReport,
    bops_baseline,
    bops_pruning_ratio,
    bparams_bits,
    build_ops_report,
    gain_estimate,
    hamming_histogram,
    ops_total,
)
from .sparsity import (
    SparsityBudget,
    binary_entropy,
    inverse_binary_entropy,
    lambda_update,
    make_budget,
    penalty_g,
    penalty_j,
)
# the training entry point stays at sbnn.train.train so the submodule name
# is not shadowed by the function
from .train import (
    Snapshot,
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    quantize_snapshot,
)

__version__ = "0.1.0"
