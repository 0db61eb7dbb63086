"""Golden pins: exact outputs of short seeded runs and of the golden model's
reports, fixed to the values this code gave when the pins were written.

The other tests check that training repeats itself run to run; these check
that a refactor leaves its results unchanged. They hold for the pinned
environment (Python 3.11, numpy 2.4, one BLAS thread); a different BLAS or
numpy build may round a training product differently and move a hash.
"""

import hashlib

import pytest

from helpers import golden_model
from sbnn import metrics
from sbnn.cli import main

# (omega, arch) -> sha256 of (report.jsonl, snapshot.npz) for
# `sbnn train --synthetic --samples 64 --epochs 3 --batch 32 --sparsity 0.9
#  --seed 5 --width 4 --omega <omega> --arch <arch>`
TRAIN_HASHES = {
    ("analytic", "conv"): (
        "2bd8610cd0108b08b8277713ee8719d49896cf05afb780f2adb9cbf0ed053910",
        "edd1469b6e7cdbce218167766bf7d1cca1ae440ee8fb58223d72d0ca10e5f4fa",
    ),
    ("analytic", "mlp"): (
        "590a37d48e3770492731956421699d05567d6b48e3fd5f9ba0662d3ddf30f4dc",
        "a34c209790c309a6b01636e33d71b7ea5ea4fcd8630bbd14c174fd095fe82b64",
    ),
    ("learned", "conv"): (
        "54916b9a5ffc0f91646f23eab55fb26e43934d99074beb1ed5a00d04a778c7ff",
        "8c6561f98dfacbf8e45a4c7703ab75b271d0466adb046eed2001b32a7de39327",
    ),
    ("learned", "mlp"): (
        "d775c06619b672c73ebbbf4187f74c597897c01cece177cc97a001e3b875cbe6",
        "9bf28bdfb3a4c715ccacfb61a5c92ede268c100e1dd17b0cf575cd053548a489",
    ),
    ("pm1", "conv"): (
        "5d254aeedbf25be8696a0411df4afab3286cf9bd8da0277a7c8f707889fc918c",
        "e7be1af5662796136b12cce65a4a301c3201954b449da3cefb663442fd73f192",
    ),
    ("pm1", "mlp"): (
        "3c5636aedae0bfcecb43c26aafb76d37088e23baa42fd6d569990bd121f16e6e",
        "2695c0f0f6bc9c3ee478ff2db0cdc67646b6f85536626093ddf6990c15296bfd",
    ),
}

GOLDEN_REPORT = (
    "           layer     bops_bnn    bops_sbnn   bops_pr        flops      K0      K1  Kdense  bparams_bits  bparams_pr  ones_frac  entropy\n"
    "   s0_fp_conv3x3                                             3648                                                                      \n"
    "  s1_bin_conv3x3        17280        12672    0.2667         1280  0.0667  0.2000  0.7333           141     -0.0444     0.3630   0.9451\n"
    "   s3_bin_linear         1120         1120    0.0000           28  0.0000  0.0000  0.0000           560      0.0000     0.2911   0.8701\n"
    "         s4_head                                               28                                                                      \n"
    "           TOTAL        18400        13792    0.2504         4984  0.0667  0.2000  0.7333           701     -0.0086     0.3050   0.8874\n"
    "\n"
    "ops_total (flops + bops/64): 5199.5\n"
    "overall BOPs PR: 0.2504\n"
    "gain estimate 2/EC at EC=0.3050: 6.56x\n"
)

GOLDEN_CSV = (
    "layer,hw0,hw1,hw2,hw3,hw4,hw5,hw6,hw7,hw8,hw9\r\n"
    "s1_bin_conv3x3,0.06666666666666667,0.2,0.06666666666666667,0.26666666666666666,"
    "0.13333333333333333,0.2,0.0,0.0,0.0,0.06666666666666667\r\n"
)


@pytest.mark.parametrize("omega, arch", sorted(TRAIN_HASHES))
def test_train_outputs_are_pinned(tmp_path, capsys, omega, arch):
    out = tmp_path / "run"
    code = main(
        ["train", "--synthetic", "--samples", "64", "--epochs", "3", "--batch", "32",
         "--sparsity", "0.9", "--seed", "5", "--width", "4",
         "--omega", omega, "--arch", arch, "--out", str(out)]
    )
    assert code == 0
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.jsonl", "snapshot.npz")
    )
    assert got == TRAIN_HASHES[omega, arch]


def test_golden_model_report_is_pinned():
    assert metrics.build_ops_report(golden_model()).to_text() == GOLDEN_REPORT


def test_golden_model_histogram_csv_is_pinned():
    assert metrics.histograms_csv(golden_model()) == GOLDEN_CSV
