"""Desk-scale trainable binarized network with manual backward passes.

Layers form a fixed feed-forward stack (3x3 conv, linear, batchnorm, sign
activation, 2x2 max pool, full-precision classifier head). Binarized layers
hold real latent weights; the forward pass quantizes them on the fly and the
backward pass routes gradients through the clipped straight-through
estimator. First conv and classifier stay full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .binquant import (
    PM1_DOMAIN,
    OmegaParams,
    ValidationError,
    fit_omega,
    sign_binarize,
    ste_gradient,
    ste_mask,
)

OMEGA_MODES = ("pm1", "analytic", "learned")
# a wider halo than the 3x3 window only adds output pixels that see no input
MAX_CONV_PADDING = 2


def _binarize(x):
    """sign(x) with sign(0) = +1, as float64."""
    return (x >= 0.0) * 2.0 - 1.0


@dataclass
class LayerSpec:
    kind: str
    in_ch: int = 0
    out_ch: int = 0
    stride: int = 1
    padding: int = 0
    binarized: bool = False
    omega_mode: str = "analytic"
    bias: bool = False

    def __post_init__(self):
        if self.omega_mode not in OMEGA_MODES:
            raise ValidationError(f"unknown omega mode {self.omega_mode!r}")
        if self.bias and self.kind != "classifier":
            # only the head keeps a bias: the engine's conv and linear stages have none
            raise ValidationError(f"{self.kind}: only the classifier takes a bias")
        if self.kind == "conv3x3" and not 0 <= self.padding <= MAX_CONV_PADDING:
            raise ValidationError(
                f"conv padding {self.padding} outside [0, {MAX_CONV_PADDING}]"
            )
        sizes = (self.in_ch, self.out_ch, self.stride, self.padding)
        if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in sizes):
            raise ValidationError(f"{self.kind}: sizes {sizes} are not non-negative integers")

    @property
    def weight_shape(self) -> tuple:
        """Latent weight shape, fan-out first; (0,) for a layer without weights."""
        if self.kind == "conv3x3":
            return (self.out_ch, self.in_ch, 3, 3)
        if self.kind in ("linear", "classifier"):
            return (self.out_ch, self.in_ch)
        return (0,)

    @property
    def weight_count(self) -> int:
        return math.prod(self.weight_shape)


NetworkSpec = tuple  # tuple of LayerSpec, in forward order


def declared_values(spec) -> int:
    """One per weight, or per channel of a layer without weights: Network(spec)
    allocates a few float64 values per declared value."""
    return sum(max(ls.weight_count, ls.out_ch) for ls in spec)


def step_values_per_image(spec, input_shape) -> int:
    """Values per image of input_shape in the largest array a training step
    builds: the input, a conv's im2col windows, or a layer's output. Counted
    from the spec alone, before anything is allocated."""
    shape = tuple(input_shape)
    largest = math.prod(shape)
    for ls in spec:
        if ls.kind == "conv3x3":
            ho, wo = _conv_out_hw(*shape[1:], ls.stride, ls.padding)
            largest = max(largest, ls.in_ch * 9 * ho * wo)
            shape = (ls.out_ch, ho, wo)
        elif ls.kind == "pool":
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
        elif ls.kind == "flatten":
            shape = (math.prod(shape),)
        elif ls.kind in ("linear", "classifier"):
            shape = (ls.out_ch,)
        largest = max(largest, math.prod(shape))
    return largest


class Parameter:
    __slots__ = ("name", "value", "grad")

    def __init__(self, name, value):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


class Layer:
    def __init__(self, spec: LayerSpec, rng=None):
        self.spec = spec
        self._cache = None

    def params(self):
        return []

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# quantized-weight machinery shared by conv and linear layers
# ---------------------------------------------------------------------------

class _WeightedLayer(Layer):
    """Holds latent weights plus the optional learned (tau, phi) pair and
    implements the latent -> effective weight quantization and its backward."""

    def __init__(self, spec: LayerSpec, rng: np.random.Generator):
        shape = spec.weight_shape
        fan_in = math.prod(shape[1:])
        if fan_in < 1 or spec.out_ch < 1:
            raise ValidationError(f"{spec.kind}: empty fan-in or fan-out")
        super().__init__(spec)
        bound = 1.0 / np.sqrt(fan_in)
        self.weight = Parameter("weight", rng.uniform(-bound, bound, size=shape))
        self.bias = None
        if spec.bias:
            self.bias = Parameter("bias", np.zeros(spec.out_ch))
        self.tau = None
        self.phi = None
        if spec.binarized and spec.omega_mode == "learned":
            om = fit_omega(self.weight.value.ravel(), sign_binarize(self.weight.value.ravel()))
            self.tau = Parameter("tau", np.array(om.tau if not om.degenerate else 1.0))
            self.phi = Parameter("phi", np.array(om.phi))

    def params(self):
        out = [self.weight]
        if self.bias is not None:
            out.append(self.bias)
        if self.tau is not None:
            out.extend([self.tau, self.phi])
        return out

    def current_omega(self) -> OmegaParams:
        """The (tau, phi) this layer quantizes to right now."""
        if not self.spec.binarized:
            raise ValidationError("full-precision layer has no weight domain")
        mode = self.spec.omega_mode
        if mode == "pm1":
            return PM1_DOMAIN
        if mode == "learned":
            return OmegaParams(tau=float(self.tau.value), phi=float(self.phi.value))
        w = self.weight.value.ravel()
        return fit_omega(w, sign_binarize(w))

    def effective_weight(self):
        """(tau * wb + phi, (w, wb, tau)) for a binarized layer; the latent
        weights and None for a full-precision one."""
        w = self.weight.value
        if not self.spec.binarized:
            return w, None
        wb = _binarize(w)
        om = self.current_omega()
        return om.tau * wb + om.phi, (w, wb, om.tau)

    def backward_weight(self, d_eff):
        """Route the effective-weight gradient back to the latent parameters.
        Analytic (tau, phi) are treated as constants of the fit."""
        if self._wcache is None:
            self.weight.grad += d_eff
            return
        w, wb, tau = self._wcache
        if self.tau is not None:
            self.tau.grad += np.sum(d_eff * wb)
            self.phi.grad += np.sum(d_eff)
        self.weight.grad += ste_gradient(tau * d_eff, w)


# ---------------------------------------------------------------------------
# conv / linear
# ---------------------------------------------------------------------------

def _conv_out_hw(h, w, stride, pad):
    ho, wo = (h + 2 * pad - 3) // stride + 1, (w + 2 * pad - 3) // stride + 1
    if ho < 1 or wo < 1:
        raise ValidationError("input smaller than the 3x3 window")
    return ho, wo


def _im2col(x, stride, pad, pad_value):
    """x (B, C, H, W) -> a new C-contiguous array cols (C*9, B*P), rows in
    (c, ki, kj) order and columns in (image, output pixel) order, plus the
    output map (Ho, Wo). The training forward's product reads its
    transpose, the weight gradient reads it as it is."""
    b, c, h, w = x.shape
    ho, wo = _conv_out_hw(h, w, stride, pad)
    if pad:
        xp = np.full((b, c, h + 2 * pad, w + 2 * pad), pad_value, dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x
    else:
        xp = x
    sb, sc, sh, sw = xp.strides
    win = as_strided(xp, (c, 3, 3, b, ho, wo), (sc, sh, sw, sb, sh * stride, sw * stride))
    return np.array(win, order="C").reshape(c * 9, b * ho * wo), (ho, wo)


def _col2im(dwin, x_shape, stride, pad):
    """Adjoint of _im2col for window rows dwin (B*P, C*9): add every window
    back onto the input pixels it came from, giving (B, C, H, W). The nine
    taps are added in ascending (ki, kj) order, the order np.add.at visits
    them, so each pixel's sum is rounded exactly as a scatter-add rounds it.
    The sum is built channels-last, where a tap's rows and channels form
    one run in both arrays, and returned C-contiguous."""
    b, c, h, w = x_shape
    ho, wo = _conv_out_hw(h, w, stride, pad)
    taps = dwin.reshape(b, ho, wo, c, 3, 3)
    dxp = np.zeros((b, h + 2 * pad, w + 2 * pad, c))
    for ki in range(3):
        rows = slice(ki, ki + stride * ho, stride)
        for kj in range(3):
            dxp[:, rows, kj : kj + stride * wo : stride] += taps[..., ki, kj]
    return np.ascontiguousarray(dxp[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2))


def _window_rows(x, stride, pad, pad_value):
    """x (B, C, H, W) -> the transpose of _im2col's columns: C-contiguous
    rows (B*P, C*9), one window per output pixel, plus (Ho, Wo). Built
    channels-last with one strided copy per tap, the way _col2im adds the
    taps back, so the only large array it allocates is the result. Used for
    the dense reference's uint8 windows (BinStage.window_bits), where it
    beats _im2col (README, "How the training conv is laid out")."""
    b, c, h, w = x.shape
    ho, wo = _conv_out_hw(h, w, stride, pad)
    xp = np.full((b, h + 2 * pad, w + 2 * pad, c), pad_value, dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    rows = np.empty((b, ho, wo, c, 3, 3), dtype=x.dtype)
    for ki in range(3):
        taps = xp[:, ki : ki + stride * ho : stride]
        for kj in range(3):
            rows[..., ki, kj] = taps[:, :, kj : kj + stride * wo : stride]
    return rows.reshape(b * ho * wo, c * 9), (ho, wo)


def _conv_apply(rows, wf, hw):
    """Conv output (B, O, Ho, Wo) of the window rows (B*P, C*9) and the
    weights (O, C*9). It is the product np.einsum("of,bfp->bop", wf, cols,
    optimize=True) forms, with operands laid out as einsum lays them out, so
    the two agree bit for bit."""
    o = wf.shape[0]
    y = (rows @ wf.T).reshape(-1, hw[0] * hw[1], o)
    return y.transpose(0, 2, 1).reshape(-1, o, *hw)


class Conv3x3(_WeightedLayer):
    @property
    def pad_value(self):
        # binarized layers pad with -1-valued activations (bit 0 halo)
        return -1.0 if self.spec.binarized else 0.0

    def forward(self, x, train=False):
        w_eff, self._wcache = self.effective_weight()
        x = np.asarray(x, dtype=np.float64)
        cols, hw = _im2col(x, self.spec.stride, self.spec.padding, self.pad_value)
        wf = w_eff.reshape(self.spec.out_ch, -1)
        self._cache = (x, wf)  # the input, not its 9x larger windows
        return _conv_apply(cols.T, wf, hw)

    def backward(self, grad_out, input_grad=True):
        """Accumulate the weight gradient; return the input gradient unless
        input_grad is False. The windows are built again, then g @ wf
        overwrites them. The products are the ones the einsums "bop,bfp->of"
        and "of,bop->bfp" form, operands laid out alike."""
        x, wf = self._cache
        cols, _ = _im2col(x, self.spec.stride, self.spec.padding, self.pad_value)
        b, o = x.shape[0], wf.shape[0]
        g = grad_out.reshape(b, o, -1).transpose(0, 2, 1).reshape(-1, o)  # (B*P, O)
        self.backward_weight((cols @ g).T.reshape(self.weight.value.shape))
        if not input_grad:
            return None
        dwin = np.matmul(g, wf, out=cols.reshape(g.shape[0], -1))
        return _col2im(dwin, x.shape, self.spec.stride, self.spec.padding)


class Linear(_WeightedLayer):
    def forward(self, x, train=False):
        w_eff, self._wcache = self.effective_weight()
        x = np.asarray(x, dtype=np.float64)
        y = x @ w_eff.T
        if self.bias is not None:
            y = y + self.bias.value
        self._cache = (x, w_eff)
        return y

    def backward(self, grad_out, input_grad=True):
        x, w_eff = self._cache
        self.backward_weight(grad_out.T @ x)
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        if not input_grad:
            return None
        return grad_out @ w_eff


# ---------------------------------------------------------------------------
# batchnorm / sign / pool / flatten
# ---------------------------------------------------------------------------

class BatchNorm(Layer):
    eps = 1e-5
    momentum = 0.1

    def __init__(self, spec: LayerSpec, rng=None):
        super().__init__(spec)
        c = spec.out_ch
        self.gamma = Parameter("gamma", np.ones(c))
        self.beta = Parameter("beta", np.zeros(c))
        self.running_mean = np.zeros(c)
        self.running_var = np.ones(c)

    def params(self):
        return [self.gamma, self.beta]

    @staticmethod
    def _shape_for(x):
        if x.ndim == 4:
            return (0, 2, 3), (1, -1, 1, 1)
        if x.ndim == 2:
            return (0,), (1, -1)
        raise ValidationError("batchnorm expects 2-D or 4-D input")

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        axes, bshape = self._shape_for(x)
        mean = x.mean(axis=axes) if train else self.running_mean
        xc = x - mean.reshape(bshape)
        if train:
            var = np.sum(xc * xc, axis=axes) / (x.size // x.shape[1])  # np.var's own steps
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = xc * inv_std.reshape(bshape)
        # no backward follows an inference forward, so it keeps no cache
        self._cache = (xc, inv_std, axes, bshape) if train else None
        # C-contiguous, unlike a conv's channels-last x: the sign then returns
        # C-contiguous values too, and the next conv copies its windows fast
        y = np.multiply(self.gamma.value.reshape(bshape), xhat, order="C")
        return np.add(y, self.beta.value.reshape(bshape), out=y)

    def backward(self, grad_out):
        xc, inv_std, axes, bshape = self._cache
        # the forward's x-hat; named, so the product cannot take its layout
        xhat = xc * inv_std.reshape(bshape)
        self.gamma.grad += np.sum(grad_out * xhat, axis=axes)
        del xhat
        self.beta.grad += np.sum(grad_out, axis=axes)
        dxhat = grad_out * self.gamma.value.reshape(bshape)
        m = xc.size // xc.shape[1]
        istd = inv_std.reshape(bshape)
        dvar = np.sum(dxhat * xc, axis=axes) * (-0.5) * inv_std**3
        # -2 * sum(xc) is sum(-2 * xc) bit for bit: scaling by 2 is exact
        dmean = np.sum(dxhat, axis=axes) * (-inv_std) + dvar * (-2.0 * np.sum(xc, axis=axes)) / m
        dxhat *= istd
        dxhat += dvar.reshape(bshape) * 2.0 * xc / m
        dxhat += dmean.reshape(bshape) / m
        return dxhat


class SignAct(Layer):
    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._cache = ste_mask(x) if train else None  # all the straight-through backward reads
        return _binarize(x)

    def backward(self, grad_out):
        return np.asarray(grad_out, dtype=np.float64) * self._cache


class MaxPool2x2(Layer):
    """2x2 stride-2 max pool; on tied values (e.g. +-1 activations) the
    gradient routes to the first of the tied positions."""

    def forward(self, x, train=False):
        b, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValidationError("pool input dims must be even")
        xr = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        flat = xr.reshape(b, c, h // 2, w // 2, 4)
        idx = np.argmax(flat, axis=-1)
        self._cache = (idx, x.shape)
        return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(self, grad_out):
        idx, (b, c, h, w) = self._cache
        dflat = np.zeros((b, c, h // 2, w // 2, 4))
        np.put_along_axis(dflat, idx[..., None], grad_out[..., None], axis=-1)
        return (
            dflat.reshape(b, c, h // 2, w // 2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, h, w)
        )


class Flatten(Layer):
    def forward(self, x, train=False):
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._cache)


_LAYER_TYPES = {
    "conv3x3": Conv3x3,
    "linear": Linear,
    "classifier": Linear,
    "batchnorm": BatchNorm,
    "signact": SignAct,
    "pool": MaxPool2x2,
    "flatten": Flatten,
}


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

class Network:
    def __init__(self, spec: NetworkSpec, rng: np.random.Generator):
        self.spec = tuple(spec)
        self.layers = []
        for ls in self.spec:
            if ls.kind not in _LAYER_TYPES:
                raise ValidationError(f"unknown layer kind {ls.kind!r}")
            if ls.kind in ("classifier",) and ls.binarized:
                raise ValidationError("classifier head must stay full precision")
            self.layers.append(_LAYER_TYPES[ls.kind](ls, rng))

    def forward(self, x, train=False):
        """The logits. Each layer drops the cache of an earlier forward
        before it builds its own, and an inference forward (train=False)
        keeps none, since no backward follows it."""
        for layer in self.layers:
            layer._cache = None
            x = layer.forward(x, train=train)
            if not train:
                layer._cache = None
        return x

    def backward(self, grad):
        """Accumulate every parameter's gradient from d(loss)/d(logits),
        dropping each layer's forward cache once its backward has run.
        Nothing uses the gradient with respect to the network input, so a
        weighted first layer (the stem) does not compute it."""
        for layer in self.layers[:0:-1]:
            grad = layer.backward(grad)
            layer._cache = None
        first = self.layers[0]
        if isinstance(first, _WeightedLayer):
            first.backward(grad, input_grad=False)
        else:
            first.backward(grad)
        first._cache = None

    def params(self):
        out = []
        for i, layer in enumerate(self.layers):
            for p in layer.params():
                out.append((f"{i}.{p.name}", p))
        return out

    def zero_grads(self):
        for _, p in self.params():
            p.grad[...] = 0.0

    def binarized_layers(self):
        return [
            l
            for l in self.layers
            if isinstance(l, _WeightedLayer) and l.spec.binarized
        ]

    def concat_sign_weights(self):
        """Sign weights of every binarized layer, concatenated; the penalty
        and the ones-fraction report both read this."""
        parts = [
            sign_binarize(l.weight.value.ravel()) for l in self.binarized_layers()
        ]
        if not parts:
            return np.zeros(0, dtype=np.int8)
        return np.concatenate(parts)

    def ones_fraction(self) -> float:
        wb = self.concat_sign_weights()
        if wb.size == 0:
            return 0.0
        return float(np.count_nonzero(wb == 1) / wb.size)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy and d(loss)/d(logits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    b = logits.shape[0]
    nll = -np.log(np.maximum(probs[np.arange(b), labels], 1e-300))
    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    return float(nll.mean()), dlogits / b


# ---------------------------------------------------------------------------
# ready-made desk architectures
# ---------------------------------------------------------------------------

def conv_net_spec(
    in_ch=1,
    classes=2,
    width=8,
    image_hw=8,
    omega_mode="analytic",
):
    """Small 3-conv network: full-precision stem, two binarized conv blocks,
    full-precision classifier. Valid (unpadded) convolutions keep the
    integer pipeline trivial."""
    h = image_hw
    spec = [
        LayerSpec("conv3x3", in_ch=in_ch, out_ch=width),
        LayerSpec("batchnorm", out_ch=width),
        LayerSpec("signact"),
    ]
    h -= 2
    spec += [
        LayerSpec("conv3x3", in_ch=width, out_ch=2 * width, binarized=True, omega_mode=omega_mode),
        LayerSpec("batchnorm", out_ch=2 * width),
        LayerSpec("signact"),
    ]
    h -= 2
    spec += [
        LayerSpec("conv3x3", in_ch=2 * width, out_ch=2 * width, binarized=True, omega_mode=omega_mode),
        LayerSpec("batchnorm", out_ch=2 * width),
        LayerSpec("signact"),
    ]
    h -= 2
    if h < 1:
        raise ValidationError(f"image_hw={image_hw} too small for three valid convs")
    spec += [
        LayerSpec("flatten"),
        LayerSpec("classifier", in_ch=2 * width * h * h, out_ch=classes, bias=True),
    ]
    return tuple(spec)


def mlp_spec(in_features, classes=2, hidden=32, omega_mode="analytic"):
    """Tiny MLP with one binarized hidden block."""
    return (
        LayerSpec("linear", in_ch=in_features, out_ch=hidden),
        LayerSpec("batchnorm", out_ch=hidden),
        LayerSpec("signact"),
        LayerSpec("linear", in_ch=hidden, out_ch=hidden, binarized=True, omega_mode=omega_mode),
        LayerSpec("batchnorm", out_ch=hidden),
        LayerSpec("signact"),
        LayerSpec("classifier", in_ch=hidden, out_ch=classes, bias=True),
    )
