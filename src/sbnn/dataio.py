"""Dataset ingestion: CIFAR-10 binary batches, IDX containers, and a
deterministic synthetic generator for desk-scale experiments.

Images come out as float64 (count, channels, height, width), normalized
with the recorded per-channel constants.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .binquant import DataError, ValidationError


class SizeMismatch(DataError):
    pass


class LabelOutOfRange(DataError):
    pass


class BadMagic(DataError):
    pass


class CountMismatch(DataError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # (n, c, h, w) float64, normalized
    labels: np.ndarray  # (n,) int64
    classes: int
    mean: np.ndarray = field(default_factory=lambda: np.zeros(1))
    std: np.ndarray = field(default_factory=lambda: np.ones(1))

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise CountMismatch("image/label counts differ")
        if self.images.shape[0] < 1:
            raise DataError("empty dataset")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.classes):
            raise LabelOutOfRange(
                f"labels outside [0, {self.classes})"
            )

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple:
        return tuple(self.images.shape[1:])


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches: 3073-byte records, 1 label byte + 3072 pixels
# (3 planes of 32x32, row-major)
# ---------------------------------------------------------------------------

CIFAR_RECORD = 3073
CIFAR_MEAN = np.array([0.4914, 0.4822, 0.4465])
CIFAR_STD = np.array([0.2470, 0.2435, 0.2616])


def load_cifar10_binary(path) -> Dataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD:
        raise SizeMismatch(
            f"{path}: size {len(raw)} is not a positive multiple of {CIFAR_RECORD}"
        )
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = rec[:, 0].astype(np.int64)
    images = rec[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    images = (images - CIFAR_MEAN[:, None, None]) / CIFAR_STD[:, None, None]
    # Dataset rejects a label outside CIFAR-10's ten classes
    return Dataset(images, labels, 10, mean=CIFAR_MEAN.copy(), std=CIFAR_STD.copy())


# ---------------------------------------------------------------------------
# IDX containers (big-endian dims; magic 0x803 = u8 images, 0x801 = u8 labels)
# ---------------------------------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_idx_array(path, expect_magic):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise SizeMismatch(f"{path}: truncated header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expect_magic:
        raise BadMagic(f"{path}: magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise SizeMismatch(f"{path}: truncated dimension block")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    expected = math.prod(dims)
    body = np.frombuffer(raw[header:], dtype=np.uint8)
    if body.size != expected:
        raise SizeMismatch(f"{path}: payload {body.size} != dims product {expected}")
    return body, dims  # unshaped: numpy refuses dims whose nonzero product overflows


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image file (n, h, w) plus its label file (n,), with
    max(label) + 1 classes. Pixels normalize to zero mean / unit scale with
    the recorded constants."""
    pixels, (n, h, w) = _read_idx_array(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx_array(labels_path, IDX_LABELS_MAGIC)[0].astype(np.int64)
    if n != labels.size:
        raise CountMismatch(f"{n} images vs {labels.size} labels")
    if labels.size < 1:
        raise DataError("empty dataset")
    if h * w == 0:
        raise DataError(f"{images_path}: images of {h}x{w} pixels hold no values")
    x, mean, std = _standardized(pixels.reshape(n, 1, h, w) / 255.0)
    return Dataset(x, labels, int(labels.max()) + 1, mean=mean, std=std)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

# far above any useful noise level, and far below where the generated values'
# squares (in the standard deviation) overflow float64
MAX_DIFFICULTY = 1e6


def synthetic_classification(
    seed: int,
    n: int,
    classes: int = 2,
    difficulty: float = 0.3,
    image_hw: int = 8,
) -> Dataset:
    """Gaussian-blob 1-channel image dataset. Each class gets a fixed random pattern;
    samples are the pattern plus noise scaled by `difficulty` (0 gives an
    essentially noise-free, linearly separable problem)."""
    if classes < 1 or image_hw < 1:
        raise ValidationError(f"classes = {classes}, image_hw = {image_hw}: both must be >= 1")
    if n < classes:
        raise ValidationError("need at least one sample per class")
    if not 0.0 <= difficulty <= MAX_DIFFICULTY:
        raise ValidationError(f"difficulty = {difficulty} outside [0, {MAX_DIFFICULTY:g}]")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    protos = rng.normal(0.0, 1.0, size=(classes, 1, image_hw, image_hw))
    labels = np.arange(n, dtype=np.int64) % classes
    # in one array: the noise (rng.normal's draws), then image i's class pattern
    images = rng.standard_normal(out=np.empty((n, 1, image_hw, image_hw)))
    images *= 0.05 + float(difficulty)
    for c in range(classes):
        images[c::classes] += protos[c]
    images, mean, std = _standardized(images)
    order = rng.permutation(n)
    return Dataset(images[order], labels[order], classes, mean=mean, std=std)


def _standardized(images):
    """(images, mean, std): `images` shifted and scaled in place to zero mean
    and unit standard deviation over all values, and the two constants used."""
    mean = np.array([images.mean()])
    std = np.array([max(images.std(), 1e-8)])
    images -= mean
    images /= std
    return images, mean, std
