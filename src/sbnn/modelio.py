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

The binary-conv kernel payload is a single MSB-first bit stream, padded to
a byte boundary at the end: first a 2-bit class code per kernel (00 zero,
01 single, 10 dense), then a 4-bit index per single kernel in kernel order,
then 9 raw bits per dense kernel (position 0 first). Its bit length
(excluding the final padding) is exactly the model's compressed-parameter
bit count.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .binquant import OmegaParams, ValidationError
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
)
from .metrics import bparams_bits
from .nn import MAX_CONV_PADDING

MAGIC = b"SBNN"
VERSION = 1

TAG_FLOAT_CONV = 1
TAG_FLOAT_LINEAR = 2
TAG_BIN_CONV = 3
TAG_BIN_LINEAR = 4
TAG_POOL = 5
TAG_HEAD = 6


class ModelFileError(ValidationError):
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

    def i8s(self, n) -> np.ndarray:
        return np.frombuffer(self.take(n), dtype=np.int8).copy()


def kernel_payload_bits(packed: PackedLayer) -> int:
    """Bit length of the kernel-class payload, excluding byte padding."""
    if packed.kind != "conv3x3":
        return packed.bits.size
    return bparams_bits(*packed.kernel_counts)


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
        if isinstance(stage, FloatStage):
            if stage.kind == "conv3x3":
                body.append(TAG_FLOAT_CONV)
                body += struct.pack(
                    "<IIII", stage.in_ch, stage.out_ch, stage.stride, stage.padding
                )
            else:
                body.append(TAG_FLOAT_LINEAR)
                body += struct.pack("<II", stage.in_ch, stage.out_ch)
            body.append(1 if stage.takes_bits else 0)
            body += stage.weight.astype("<f8").tobytes()
            _emit_threshold(body, stage.threshold)
        elif isinstance(stage, BinStage):
            p = stage.packed
            if p.kind == "conv3x3":
                body.append(TAG_BIN_CONV)
                body += struct.pack("<IIII", p.in_ch, p.out_ch, p.stride, p.padding)
            else:
                body.append(TAG_BIN_LINEAR)
                body += struct.pack("<II", p.in_ch, p.out_ch)
            body.append(1 if p.omega.degenerate else 0)
            body += struct.pack("<dd", p.omega.tau, p.omega.phi)
            _emit_threshold(body, stage.threshold)
            body += _encode_kernel_payload(p)
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
    orientation = cur.i8s(channels)
    theta = cur.f64s(channels)
    return FusedThreshold(orientation=orientation, theta=theta)


def _decode_kernel_payload(cur: _Cursor, kind, out_ch, fan_in):
    """{0,1} weights (out_ch, fan_in). Every array is sized only after the
    bytes it is read from have been taken from the stream."""
    if kind != "conv3x3":
        nbits = out_ch * fan_in
        raw = np.frombuffer(cur.take((nbits + 7) // 8), dtype=np.uint8)
        return np.unpackbits(raw, count=nbits).reshape(out_ch, fan_in)
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
    nbits = 2 * kernels + 4 * single.size + 9 * dense.size
    raw = np.frombuffer(cur.take((nbits + 7) // 8), dtype=np.uint8)
    stream = np.unpackbits(raw, count=nbits)[2 * kernels :]
    index = stream[: 4 * single.size].reshape(-1, 4) @ np.array([8, 4, 2, 1], dtype=np.uint8)
    if (index > 8).any():
        raise ModelFileError(f"single-kernel index {index.max()} out of range 0..8")
    bits = np.zeros((kernels, 9), dtype=np.uint8)
    bits[single, index] = 1
    bits[dense] = stream[4 * single.size :].reshape(-1, 9)
    return bits.reshape(out_ch, fan_in)


def _check_chain(stages, in_shape):
    """Raise ModelFileError unless every stage takes the shape the stage
    before it gives: a conv its channel count, a pool an even-sized map, a
    linear stage or the head its flattened feature count."""
    shape = in_shape
    for i, stage in enumerate(stages):
        if isinstance(stage, BitPool):
            if len(shape) != 3 or shape[1] % 2 or shape[2] % 2:
                raise ModelFileError(f"stage {i}: pool needs an even-sized map, gets {shape}")
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
            continue
        if isinstance(stage, Head):
            kind, (out_ch, in_ch) = "linear", stage.weight.shape
        else:
            layer = stage.packed if isinstance(stage, BinStage) else stage
            kind, in_ch, out_ch = layer.kind, layer.in_ch, layer.out_ch
        if kind == "linear":
            if math.prod(shape) != in_ch:
                raise ModelFileError(
                    f"stage {i}: input width {in_ch}, gets {math.prod(shape)} features"
                )
            shape = (out_ch,)
            continue
        if len(shape) != 3 or shape[0] != in_ch:
            raise ModelFileError(f"stage {i}: conv takes {in_ch} channels, gets shape {shape}")
        if layer.stride < 1:
            raise ModelFileError(f"stage {i}: conv stride {layer.stride}")
        if layer.padding > MAX_CONV_PADDING:
            raise ModelFileError(
                f"stage {i}: conv padding {layer.padding} above {MAX_CONV_PADDING}"
            )
        hw = tuple((d + 2 * layer.padding - 3) // layer.stride + 1 for d in shape[1:])
        if min(hw) < 0:
            raise ModelFileError(f"stage {i}: conv window does not fit a {shape[1:]} map")
        shape = (out_ch,) + hw


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
        if tag in (TAG_FLOAT_CONV, TAG_FLOAT_LINEAR):
            if tag == TAG_FLOAT_CONV:
                in_ch, out_ch, stride, pad = (cur.u32() for _ in range(4))
                wshape = (out_ch, in_ch, 3, 3)
                kind = "conv3x3"
            else:
                in_ch, out_ch = cur.u32(), cur.u32()
                stride, pad = 1, 0
                wshape = (out_ch, in_ch)
                kind = "linear"
            takes_bits = bool(cur.u8())
            weight = cur.f64s(math.prod(wshape)).reshape(wshape)
            thr = _read_threshold(cur, out_ch)
            stages.append(
                FloatStage(
                    kind=kind,
                    in_ch=in_ch,
                    out_ch=out_ch,
                    stride=stride,
                    padding=pad,
                    weight=weight,
                    threshold=thr,
                    takes_bits=takes_bits,
                )
            )
        elif tag in (TAG_BIN_CONV, TAG_BIN_LINEAR):
            if tag == TAG_BIN_CONV:
                in_ch, out_ch, stride, pad = (cur.u32() for _ in range(4))
                fan_in = in_ch * 9
                kind = "conv3x3"
            else:
                in_ch, out_ch = cur.u32(), cur.u32()
                stride, pad = 1, 0
                fan_in = in_ch
                kind = "linear"
            degenerate = bool(cur.u8())
            tau, phi = struct.unpack("<dd", cur.take(16))
            thr = _read_threshold(cur, out_ch)
            bits = _decode_kernel_payload(cur, kind, out_ch, fan_in)
            omega = OmegaParams(tau=tau, phi=phi, degenerate=degenerate)
            try:
                packed = PackedLayer(
                    kind=kind,
                    in_ch=in_ch,
                    out_ch=out_ch,
                    stride=stride,
                    padding=pad,
                    bits=bits,
                    omega=omega,
                )
            except ValidationError as exc:  # a non-canonical domain
                raise ModelFileError(f"stage {len(stages)}: {exc}") from exc
            stages.append(BinStage(packed=packed, threshold=thr))
        elif tag == TAG_POOL:
            stages.append(BitPool())
        elif tag == TAG_HEAD:
            in_f, out_f = cur.u32(), cur.u32()
            weight = cur.f64s(in_f * out_f).reshape(out_f, in_f)
            bias = cur.f64s(out_f)
            stages.append(Head(weight=weight, bias=bias))
        else:
            raise ModelFileError(f"unknown stage tag {tag} at offset {cur.pos - 1}")
    if cur.pos != len(body):
        raise TruncatedStream(
            f"{len(body) - cur.pos} unread bytes after last stage (offset {cur.pos + 8})"
        )
    _check_chain(stages, in_shape)
    return QuantizedModel(stages=stages, input_shape=in_shape, classes=classes)


def save_model(path, model: QuantizedModel):
    with open(path, "wb") as fh:
        fh.write(encode(model))


def load_model(path) -> QuantizedModel:
    with open(path, "rb") as fh:
        return decode(fh.read())
