"""Bit-exact model file format.

Layout (all integers little-endian):

    magic  "SBNN"                      4 bytes
    version u16  (= 1)                 2 bytes
    stage count u16                    2 bytes
    classes u32, ndim u8, dim u32 * ndim   (input shape)
    stage blocks...
    crc32 u32  over every byte after the 8-byte prefix (meta + stages)

Stage blocks start with a tag byte:

    1 float conv    u32 in,out,stride,pad; u8 takes_bits; f64 weights
                    (out*in*9); threshold block
    2 float linear  u32 in,out; u8 takes_bits; f64 weights (out*in);
                    threshold block
    3 binary conv   u32 in,out,stride,pad; u8 degenerate; f64 tau, phi;
                    threshold block; kernel payload (below), byte-padded
    4 binary linear u32 in,out; u8 degenerate; f64 tau, phi; threshold
                    block; raw weight bits MSB-first, byte-padded
    5 pool          (empty)
    6 head          u32 in,out; f64 weights (out*in); f64 bias (out)

    threshold block: i8 orientation per channel, then f64 theta per channel

Float weights and the head's weights and biases are finite, and no theta
is NaN (+-inf marks a constant channel): decode rejects any other value.

The binary-conv kernel payload is a single MSB-first bit stream, padded to
a byte boundary at the end: first a 2-bit class code per kernel (00 zero,
01 single, 10 dense), then a 4-bit index per single kernel in kernel order,
then 9 raw bits per dense kernel (position 0 first). Its bit length
(excluding the final padding) is exactly the model's compressed-parameter
bit count.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .binquant import DataError, OmegaParams, ValidationError
from .engine import (
    KERNEL_DENSE,
    KERNEL_SINGLE,
    BinStage,
    BitPool,
    FloatStage,
    FusedThreshold,
    Head,
    PackedLayer,
    QuantizedModel,
    walk_stages,
)
from .metrics import kernel_payload_bits

MAGIC = b"SBNN"
VERSION = 1

TAG_FLOAT_CONV = 1
TAG_FLOAT_LINEAR = 2
TAG_BIN_CONV = 3
TAG_BIN_LINEAR = 4
TAG_POOL = 5
TAG_HEAD = 6

# the weighted stage kinds: tag -> (binary, conv)
WEIGHTED_TAGS = {
    TAG_FLOAT_CONV: (False, True),
    TAG_FLOAT_LINEAR: (False, False),
    TAG_BIN_CONV: (True, True),
    TAG_BIN_LINEAR: (True, False),
}
_TAG_OF = {kinds: tag for tag, kinds in WEIGHTED_TAGS.items()}


class ModelFileError(DataError):
    """A model file that cannot be decoded into a runnable model."""


class BadMagic(ModelFileError):
    pass


class BadVersion(ModelFileError):
    pass


class CrcMismatch(ModelFileError):
    pass


class TruncatedStream(ModelFileError):
    pass


class _Cursor:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedStream(
                f"needed {n} bytes at offset {self.pos}, file has {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64s(self, n) -> np.ndarray:
        return np.frombuffer(self.take(8 * n), dtype="<f8").copy()


def payload_bits(model: QuantizedModel) -> int:
    """Total payload bits over binarized stages (the compressed-parameter
    size, headers excluded)."""
    return sum(kernel_payload_bits(s.packed) for s in model.binary_stages())


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def _emit_threshold(out: bytearray, thr: FusedThreshold):
    out += thr.orientation.astype(np.int8).tobytes()
    out += thr.theta.astype("<f8").tobytes()


def _encode_kernel_payload(packed: PackedLayer) -> bytes:
    if packed.kind != "conv3x3":
        return np.packbits(packed.bits).tobytes()
    tags = packed.kernel_tags
    kernels = packed.bits.reshape(-1, 9)
    # a tag is its own 2-bit class code; a Single index is 4 bits, MSB first
    codes = np.unpackbits(tags[:, None], axis=1)[:, 6:]
    index = kernels[tags == KERNEL_SINGLE].argmax(axis=1).astype(np.uint8)
    index_bits = np.unpackbits(index[:, None], axis=1)[:, 4:]
    dense = kernels[tags == KERNEL_DENSE]
    stream = np.concatenate([codes.ravel(), index_bits.ravel(), dense.ravel()])
    return np.packbits(stream).tobytes()


def encode(model: QuantizedModel) -> bytes:
    body = bytearray()
    body += struct.pack("<IB", model.classes, len(model.input_shape))
    for dim in model.input_shape:
        body += struct.pack("<I", dim)
    for stage in model.stages:
        if isinstance(stage, (FloatStage, BinStage)):
            binary = isinstance(stage, BinStage)
            layer = stage.packed if binary else stage
            conv = layer.kind == "conv3x3"
            body.append(_TAG_OF[binary, conv])
            geometry = (layer.in_ch, layer.out_ch, layer.stride, layer.padding)
            body += struct.pack("<IIII" if conv else "<II", *geometry[: 4 if conv else 2])
            if binary:
                body.append(1 if layer.omega.degenerate else 0)
                body += struct.pack("<dd", layer.omega.tau, layer.omega.phi)
                _emit_threshold(body, stage.threshold)
                body += _encode_kernel_payload(layer)
            else:
                body.append(1 if layer.takes_bits else 0)
                body += layer.weight.astype("<f8").tobytes()
                _emit_threshold(body, stage.threshold)
        elif isinstance(stage, BitPool):
            body.append(TAG_POOL)
        elif isinstance(stage, Head):
            body.append(TAG_HEAD)
            body += struct.pack("<II", stage.weight.shape[1], stage.weight.shape[0])
            body += stage.weight.astype("<f8").tobytes()
            body += stage.bias.astype("<f8").tobytes()
        else:
            raise ValidationError(f"cannot encode stage {type(stage).__name__}")
    head = MAGIC + struct.pack("<HH", VERSION, len(model.stages))
    crc = zlib.crc32(bytes(body))
    return head + bytes(body) + struct.pack("<I", crc)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def _read_threshold(cur: _Cursor, channels: int) -> FusedThreshold:
    raw = cur.take(channels)
    if raw.translate(None, b"\x01\xff"):  # a byte other than +1 or -1
        raise ModelFileError(f"threshold orientation other than +-1 before offset {cur.pos}")
    orientation = np.frombuffer(raw, dtype=np.int8).copy()
    # +-inf is legal: from_batchnorm writes it for a constant channel
    theta = cur.f64s(channels)
    if np.isnan(theta).any():
        raise ModelFileError(f"NaN threshold before offset {cur.pos}")
    return FusedThreshold(orientation=orientation, theta=theta)


def _finite_f64s(cur: _Cursor, count: int, what: str) -> np.ndarray:
    """The next count float64 values, all of them finite."""
    values = cur.f64s(count)
    if not np.isfinite(values).all():
        raise ModelFileError(f"{what} hold NaN or infinite values before offset {cur.pos}")
    return values


def _take_bits(cur: _Cursor, nbits: int) -> np.ndarray:
    """The next nbits bits, MSB-first, from whole bytes whose padding bits
    are zero (as encode writes them)."""
    raw = cur.take((nbits + 7) // 8)
    if nbits % 8 and raw[-1] & (0xFF >> nbits % 8):
        raise ModelFileError(f"nonzero padding bits at offset {cur.pos - 1}")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=nbits)


def _decode_kernel_payload(cur: _Cursor, kind, out_ch, fan_in):
    """{0,1} weights (out_ch, fan_in) and the stream's (zero, single, dense)
    kernel counts, (0, 0, 0) for a linear stage as PackedLayer has them.
    Every array is sized only after the bytes it is read from have been
    taken from the stream."""
    if kind != "conv3x3":
        return _take_bits(cur, out_ch * fan_in).reshape(out_ch, fan_in), (0, 0, 0)
    kernels = out_ch * (fan_in // 9)
    head = cur.data[cur.pos : cur.pos + (2 * kernels + 7) // 8]
    if 4 * len(head) < kernels:
        raise TruncatedStream(
            f"{kernels} kernel class codes at offset {cur.pos}, file has {len(cur.data)} bytes"
        )
    codes = np.unpackbits(np.frombuffer(head, dtype=np.uint8), count=2 * kernels)
    tags = 2 * codes[0::2] + codes[1::2]
    if (tags > KERNEL_DENSE).any():
        raise ModelFileError(f"invalid kernel class code 0b11 at offset {cur.pos}")
    single = np.flatnonzero(tags == KERNEL_SINGLE)
    dense = np.flatnonzero(tags == KERNEL_DENSE)
    stream = _take_bits(cur, 2 * kernels + 4 * single.size + 9 * dense.size)[2 * kernels :]
    index = stream[: 4 * single.size].reshape(-1, 4) @ np.array([8, 4, 2, 1], dtype=np.uint8)
    if (index > 8).any():
        raise ModelFileError(f"single-kernel index {index.max()} out of range 0..8")
    bits = np.zeros((kernels, 9), dtype=np.uint8)
    bits[single, index] = 1
    bits[dense] = stream[4 * single.size :].reshape(-1, 9)
    counts = (kernels - single.size - dense.size, single.size, dense.size)
    return bits.reshape(out_ch, fan_in), counts


def decode(data: bytes) -> QuantizedModel:
    if len(data) < 8:
        raise TruncatedStream(f"file is {len(data)} bytes; header needs 8")
    if data[:4] != MAGIC:
        raise BadMagic(f"magic {data[:4]!r} at offset 0, expected {MAGIC!r}")
    version, nstages = struct.unpack("<HH", data[4:8])
    if version != VERSION:
        raise BadVersion(f"version {version} at offset 4, supported: {VERSION}")
    if len(data) < 12:
        raise TruncatedStream("missing trailing crc")
    body, (crc_stored,) = data[8:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(body) != crc_stored:
        raise CrcMismatch(
            f"crc mismatch at offset {len(data) - 4}: "
            f"stored 0x{crc_stored:08x}, computed 0x{zlib.crc32(body):08x}"
        )
    cur = _Cursor(body)
    classes = cur.u32()
    ndim = cur.u8()
    in_shape = tuple(cur.u32() for _ in range(ndim))
    stages = []
    for _ in range(nstages):
        tag = cur.u8()
        if tag in WEIGHTED_TAGS:
            binary, conv = WEIGHTED_TAGS[tag]
            in_ch, out_ch, stride, pad = (
                (cur.u32() for _ in range(4)) if conv else (cur.u32(), cur.u32(), 1, 0)
            )
            kind = "conv3x3" if conv else "linear"
            geometry = dict(kind=kind, in_ch=in_ch, out_ch=out_ch, stride=stride, padding=pad)
            flag = cur.u8()  # takes_bits or degenerate
            if flag > 1:
                raise ModelFileError(f"flag byte {flag} at offset {cur.pos - 1}, expected 0 or 1")
            fan_in = in_ch * (9 if conv else 1)
            if binary:
                tau, phi = struct.unpack("<dd", cur.take(16))
                thr = _read_threshold(cur, out_ch)
                bits, counts = _decode_kernel_payload(cur, kind, out_ch, fan_in)
                omega = OmegaParams(tau=tau, phi=phi, degenerate=bool(flag))
                try:
                    packed = PackedLayer(**geometry, bits=bits, omega=omega)
                except ValidationError as exc:  # a non-canonical domain
                    raise ModelFileError(f"stage {len(stages)}: {exc}") from exc
                if packed.kernel_counts != counts:
                    raise ModelFileError(f"stage {len(stages)}: a Dense kernel with < 2 one-bits")
                stages.append(BinStage(packed=packed, threshold=thr))
            else:
                wshape = (out_ch, in_ch, 3, 3) if conv else (out_ch, in_ch)
                weight = _finite_f64s(cur, out_ch * fan_in, "float weights").reshape(wshape)
                thr = _read_threshold(cur, out_ch)
                stages.append(
                    FloatStage(**geometry, weight=weight, threshold=thr, takes_bits=bool(flag))
                )
        elif tag == TAG_POOL:
            stages.append(BitPool())
        elif tag == TAG_HEAD:
            in_f, out_f = cur.u32(), cur.u32()
            weight = _finite_f64s(cur, in_f * out_f, "head weights").reshape(out_f, in_f)
            bias = _finite_f64s(cur, out_f, "head biases")
            stages.append(Head(weight=weight, bias=bias))
        else:
            raise ModelFileError(f"unknown stage tag {tag} at offset {cur.pos - 1}")
    if cur.pos != len(body):
        raise TruncatedStream(
            f"{len(body) - cur.pos} unread bytes after last stage (offset {cur.pos + 8})"
        )
    try:
        walk_stages(stages, in_shape)
    except ValidationError as exc:  # a stage chain that does not fit
        raise ModelFileError(str(exc)) from exc
    if not stages or not isinstance(stages[-1], Head):
        raise ModelFileError("the stage chain does not end in the head")
    return QuantizedModel(stages=stages, input_shape=in_shape, classes=classes)


def save_model(path, model: QuantizedModel):
    with open(path, "wb") as fh:
        fh.write(encode(model))


def load_model(path) -> QuantizedModel:
    with open(path, "rb") as fh:
        return decode(fh.read())
