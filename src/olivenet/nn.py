"""From-scratch 1-D convolutional network with hand-written gradients.

Architecture (fixed topology, configurable sizes)::

    Conv1D(f1, k1) -> MaxPool(p) -> ReLU -> Conv1D(f2, k2) -> ReLU
      -> Flatten -> Dropout -> Dense(d1, relu) -> Dense(d2, relu)
      -> Dense(1, identity)

Pooling comes before the first ReLU.  ReLU is monotone, so it commutes with
max exactly, even in floating point: relu(max(w)) == max(relu(w)) for every
window w.  Gradients agree too: a window whose max is <= 0 outputs 0 and
passes no gradient, wherever its argmax points, and in any other window
the argmax is the same.  Pooling first applies ReLU to a map ``pool`` times
smaller and saves a full pass over the conv1 map.

Dropout regularizes the flattened convolution features feeding the dense
head.  At the default rate of 0.5 that placement matters: dropping half of
an 8-unit hidden layer instead biases predictions toward the target mean
and leaves rare extreme-label oils underfit at desk-scale epoch budgets,
while feature-level dropout keeps the regression pathway intact.

Convolutions are valid (no padding), stride 1.  Two implementations coexist:

* the single-sample layer operations below (``conv1d_forward`` & co.) define
  the numerical contract.  ``conv1d_forward`` accumulates each output in a
  fixed order (bias first, then filter taps with the kernel index innermost
  and the input channel outer) so a brute-force loop reproduces it bit for
  bit;
* the batched engine evaluates the same maps through FFT cross-correlation
  and matrix products.  It is free to reassociate floating-point sums, so
  it matches the contract ops to ~1e-13 relative rather than bitwise; the
  tests pin both paths together.

The engine's transforms come from ``numpy.fft``, so numpy is the package's
only runtime dependency.  ``scipy.fft`` runs the same pocketfft code and
gives the same bits, but importing it more than doubles the start-up of
every ``olivenet`` command.  Conv1 transforms the whole input unpadded.
Conv2 pads its transforms to the next power of two at or above the pooled
length (128 for 123 positions), which measured faster than the nearest
11-smooth length at both pool sizes of the tuning grid.

The batched engine has two paths:

* the training step (``_train_step``) runs one mini-batch: the forward
  pass, the MSE gradient and the backward pass in one scope, so what the
  backward pass needs, such as the first-occurrence argmax of every pool
  window, stays in plain locals.  It writes each of the two buffers that
  ``train`` reuses across batches twice: the conv1 map goes into ``g1``,
  which holds the conv1 map gradient only after pooling, and the spectrum
  of that gradient into ``spec``, dead once the map exists.  Freshly
  allocated, these conv1-map-sized arrays would be handed back to the OS by
  glibc and faulted in again at every batch;
* the inference pass (``_infer``), behind ``forward`` and the validation
  loss in ``train``, keeps no cache.  It pools with a running
  ``np.maximum`` over the ``pool`` offsets, with no argmax, and walks its
  input ``INFER_CHUNK`` rows at a time, so its working set does not grow
  with the batch: scoring 420 spectra needs no more memory than scoring 64.

Training is mini-batch gradient descent with Adam-style adaptive moments.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(ValueError):
    """Array shapes incompatible with the layer."""


class ArchitectureError(ValueError):
    """A layer in the composed network would produce an empty output."""


class EmptyBatchError(ValueError):
    """Loss of an empty batch is undefined."""


class InternalConsistencyError(ValueError):
    """Pool routing data does not fit its input (an argmax outside it)."""


class DivergenceError(RuntimeError):
    """Training loss became non-finite; carries the epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss at epoch {epoch}")
        self.epoch = epoch

    def __reduce__(self):  # rebuilt from the epoch when sent back by a worker
        return type(self), (self.epoch,)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: Hyperparameter tuning grid explored for this architecture.
FILTERS_GRID = (4, 6)
POOL_GRID = (8, 16)

#: Rows per block of the inference pass.  It bounds the pass's working set
#: (about 10 MB at P=1024 with 6 conv1 filters) whatever the batch size.
INFER_CHUNK = 64


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass
class Conv1DLayer:
    """Cross-correlation filter bank: filters (C_out, C_in, K), biases (C_out,)."""

    filters: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        self.filters = np.asarray(self.filters, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.filters.ndim != 3 or self.filters.shape[2] < 1:
            raise ShapeError("filters must be (C_out, C_in, K) with K >= 1")
        if self.biases.shape != (self.filters.shape[0],):
            raise ShapeError("biases must have one entry per output channel")
        if not (np.isfinite(self.filters).all() and np.isfinite(self.biases).all()):
            raise ValueError("non-finite layer parameters")


@dataclass
class DenseLayer:
    """Affine map plus activation: weights (out, in), biases (out,)."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.activation not in ("relu", "identity"):
            raise ValueError("activation must be 'relu' or 'identity'")
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ShapeError("weights must be (out, in) with matching biases")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("non-finite layer parameters")


@dataclass(frozen=True)
class HyperParams:
    filters1: int = 6
    filters2: int = 4
    ksize1: int = 40
    ksize2: int = 20
    pool: int = 8
    dropout: float = 0.5
    epochs: int = 500
    batch: int = 64
    learning_rate: float = 2e-3
    dense_sizes: tuple[int, int] = (16, 8)

    def __post_init__(self):
        ints = (self.filters1, self.filters2, self.ksize1, self.ksize2,
                self.pool, self.batch, *self.dense_sizes)
        if any(v < 1 for v in ints):
            raise ValueError("all size hyperparameters must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")

    def to_dict(self) -> dict:
        return {**asdict(self), "dense_sizes": list(self.dense_sizes)}

    @classmethod
    def from_dict(cls, d: dict) -> "HyperParams":
        d = dict(d)
        if "dense_sizes" in d:
            d["dense_sizes"] = tuple(d["dense_sizes"])
        return cls(**d)


@dataclass
class Network:
    """Parameter container for the fixed conv-pool-conv-dense topology.

    Dropout randomness is not stored here: training steps draw masks from
    the generator handed to ``train``, which keeps a run's determinism in
    one place (the run seed).
    """

    conv1: Conv1DLayer
    conv2: Conv1DLayer
    dense1: DenseLayer
    dense2: DenseLayer
    output: DenseLayer
    hp: HyperParams
    input_len: int
    shapes: dict[str, int] = field(default_factory=dict)

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays in checkpoint order."""
        return {
            "conv1.filters": self.conv1.filters, "conv1.biases": self.conv1.biases,
            "conv2.filters": self.conv2.filters, "conv2.biases": self.conv2.biases,
            "dense1.weights": self.dense1.weights, "dense1.biases": self.dense1.biases,
            "dense2.weights": self.dense2.weights, "dense2.biases": self.dense2.biases,
            "output.weights": self.output.weights, "output.biases": self.output.biases,
        }

    def num_parameters(self) -> int:
        return sum(v.size for v in self.parameters().values())

    def copy_parameters(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.parameters().items()}

    def set_parameters(self, params: dict[str, np.ndarray]) -> None:
        for k, v in self.parameters().items():
            src = params[k]
            if src.shape != v.shape:
                raise ShapeError(f"parameter {k}: {src.shape} != {v.shape}")
            v[...] = src


# ---------------------------------------------------------------------------
# single-sample contract operations
# ---------------------------------------------------------------------------

def _as_channels(x, name="input") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ShapeError(f"{name} must be 1-D or (channels, length)")
    return x


def conv1d_forward(x: np.ndarray, layer: Conv1DLayer) -> np.ndarray:
    """Valid cross-correlation, stride 1: out length = L - K + 1.

    Per output element the accumulation order is pinned: start from the
    bias, then add filter taps with k innermost and the input channel j
    outer.  A naive double loop in that order reproduces the result bitwise.
    """
    x = _as_channels(x)
    c_out, c_in, k = layer.filters.shape
    if x.shape[0] != c_in:
        raise ShapeError(f"input has {x.shape[0]} channels, layer expects {c_in}")
    l_out = x.shape[1] - k + 1
    if l_out < 1:
        raise ShapeError(f"input length {x.shape[1]} shorter than filter {k}")
    out = np.empty((c_out, l_out))
    for c in range(c_out):
        acc = np.full(l_out, layer.biases[c])
        for j in range(c_in):
            xj = x[j]
            w = layer.filters[c, j]
            for kk in range(k):
                acc += w[kk] * xj[kk:kk + l_out]
        out[c] = acc
    return out


def conv1d_backward(grad_out: np.ndarray, x: np.ndarray, layer: Conv1DLayer
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact adjoint of conv1d_forward.

    Returns (grad_input, grad_filters, grad_biases); grad_biases[c] sums the
    output gradient over positions.
    """
    x = _as_channels(x)
    grad_out = _as_channels(grad_out, "grad_out")
    c_out, c_in, k = layer.filters.shape
    l_out = x.shape[1] - k + 1
    if x.shape[0] != c_in or grad_out.shape != (c_out, l_out):
        raise ShapeError("gradient/input shapes inconsistent with forward")
    grad_b = grad_out.sum(axis=1)
    grad_f = np.empty_like(layer.filters)
    for kk in range(k):
        # grad_f[c, j, kk] = sum_i grad_out[c, i] * x[j, i + kk]
        grad_f[:, :, kk] = grad_out @ x[:, kk:kk + l_out].T
    grad_x = np.zeros_like(x)
    for kk in range(k):
        # full correlation: every output position i pulled weight from i + kk
        grad_x[:, kk:kk + l_out] += layer.filters[:, :, kk].T @ grad_out
    return grad_x, grad_f, grad_b


def maxpool_forward(x: np.ndarray, pool: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max pooling; trailing partial window dropped.

    Returns (pooled, argmax) where argmax holds absolute input indices with
    ties resolved to the first occurrence.
    """
    x = _as_channels(x)
    if pool < 1:
        raise ValueError("pool size must be at least 1")
    if pool > x.shape[1]:
        raise ShapeError(f"pool {pool} exceeds input length {x.shape[1]}")
    n = x.shape[1] // pool
    win = x[:, :n * pool].reshape(x.shape[0], n, pool)
    rel = win.argmax(axis=2)
    out = np.take_along_axis(win, rel[:, :, None], axis=2)[:, :, 0]
    return out, rel + np.arange(n) * pool


def maxpool_backward(grad_out: np.ndarray, argmax: np.ndarray, input_length: int
                     ) -> np.ndarray:
    """Route gradients to the recorded argmax positions, zeros elsewhere."""
    grad_out = _as_channels(grad_out, "grad_out")
    argmax = np.asarray(argmax)
    if argmax.shape != grad_out.shape:
        raise ShapeError("argmax indices do not match gradient shape")
    if argmax.size and (argmax.min() < 0 or argmax.max() >= input_length):
        raise InternalConsistencyError("argmax index outside the input")
    grad_x = np.zeros((grad_out.shape[0], input_length))
    np.put_along_axis(grad_x, argmax, grad_out, axis=1)
    return grad_x


def dense_forward(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (layer.weights.shape[1],):
        raise ShapeError(f"input {x.shape} vs weights {layer.weights.shape}")
    z = layer.weights @ x + layer.biases
    return np.maximum(z, 0.0) if layer.activation == "relu" else z


def dense_backward(grad_out: np.ndarray, x: np.ndarray, layer: DenseLayer
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact adjoint; the relu derivative at 0 is taken as 0."""
    x = np.asarray(x, dtype=float)
    grad_out = np.asarray(grad_out, dtype=float)
    if x.shape != (layer.weights.shape[1],) or grad_out.shape != layer.biases.shape:
        raise ShapeError("gradient/input shapes inconsistent with forward")
    if layer.activation == "relu":
        z = layer.weights @ x + layer.biases
        grad_out = grad_out * (z > 0)
    return layer.weights.T @ grad_out, np.outer(grad_out, x), grad_out.copy()


def dropout_apply(x: np.ndarray, rate: float, mode: str,
                  rng: Optional[np.random.Generator] = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: train-time zeroing with 1/(1-rate) rescaling.

    Eval mode is the identity, so no test-time correction is needed.
    Returns (output, keep_mask).
    """
    x = np.asarray(x, dtype=float)
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if mode == "eval" or rate == 0.0:
        return x.copy(), np.ones_like(x, dtype=bool)
    if mode != "train":
        raise ValueError("mode must be 'train' or 'eval'")
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    keep = rng.random(x.shape) >= rate
    return x * keep / (1.0 - rate), keep


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient 2*(pred - target)/N."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise EmptyBatchError("MSE of an empty batch")
    res = pred - target
    return float(np.mean(res * res)), 2.0 * res / pred.size


# ---------------------------------------------------------------------------
# network assembly
# ---------------------------------------------------------------------------

def network_shapes(hp: HyperParams, input_len: int) -> dict[str, int]:
    """Closed-form layer lengths; raises naming the first empty layer."""
    l1 = input_len - hp.ksize1 + 1
    if l1 < 1:
        raise ArchitectureError(f"conv1: input {input_len} shorter than filter {hp.ksize1}")
    lp = l1 // hp.pool
    if lp < 1:
        raise ArchitectureError(f"pool: length {l1} yields no full window of {hp.pool}")
    l2 = lp - hp.ksize2 + 1
    if l2 < 1:
        raise ArchitectureError(f"conv2: length {lp} shorter than filter {hp.ksize2}")
    return {
        "input": input_len, "conv1": l1, "pool": lp, "conv2": l2,
        "flatten": hp.filters2 * l2,
        "dense1": hp.dense_sizes[0], "dense2": hp.dense_sizes[1], "output": 1,
    }


def build_network(hp: HyperParams, input_len: int, rng: np.random.Generator) -> Network:
    """Construct the network with He-scaled relu layers and a Glorot output.

    Initialization draws happen in a fixed order, so equal seeds give equal
    networks.
    """
    shapes = network_shapes(hp, input_len)
    d1, d2 = hp.dense_sizes
    flat = shapes["flatten"]

    def he(shape, fan_in):
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)

    conv1 = Conv1DLayer(he((hp.filters1, 1, hp.ksize1), hp.ksize1), np.zeros(hp.filters1))
    conv2 = Conv1DLayer(he((hp.filters2, hp.filters1, hp.ksize2), hp.filters1 * hp.ksize2),
                        np.zeros(hp.filters2))
    dense1 = DenseLayer(he((d1, flat), flat), np.zeros(d1), "relu")
    dense2 = DenseLayer(he((d2, d1), d1), np.zeros(d2), "relu")
    lim = np.sqrt(6.0 / (d2 + 1))
    out = DenseLayer(rng.uniform(-lim, lim, (1, d2)), np.zeros(1), "identity")
    return Network(conv1, conv2, dense1, dense2, out, hp, input_len, shapes)


# ---------------------------------------------------------------------------
# mini-batch engine (FFT path)
# ---------------------------------------------------------------------------

def _fft_sizes(net: Network) -> tuple[int, int]:
    n1 = net.input_len                      # >= conv1 input length, no padding needed
    n2 = 1 << (net.shapes["pool"] - 1).bit_length()  # power of two >= pooled length
    return n1, n2


def _spectrum_buffer(net: Network, rows: int) -> np.ndarray:
    """Room for the conv1 spectra of ``rows`` inputs, for ``_conv1_map``."""
    n1, _ = _fft_sizes(net)
    return np.empty((rows, net.hp.filters1, n1 // 2 + 1), complex)


def _conv1_map(net: Network, fx: np.ndarray, spec: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Raw conv1 map (B, C1, n1) from the input spectra ``fx`` (B, n1//2 + 1).

    ``spec`` is a buffer with at least B rows for the product of the
    spectra; ``out``, if given, receives the map.  Biases enter through the
    DC bin.  Only the first pool*floor(L1/pool) positions are used: the
    trailing partial window never reaches pooling.
    """
    n1, _ = _fft_sizes(net)
    spec = np.multiply(fx[:, None, :], np.conj(np.fft.rfft(net.conv1.filters[:, 0, :], n=n1)),
                       out=spec[:fx.shape[0]])
    spec[:, :, 0] += n1 * net.conv1.biases
    return np.fft.irfft(spec, n=n1, out=out)


def _conv2(net: Network, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """conv2 over the pooled maps; returns (rfft of x2, pre-activation map)."""
    _, n2 = _fft_sizes(net)
    fx2 = np.fft.rfft(x2, n=n2)
    spec2 = np.einsum("bjf,cjf->bcf", fx2, np.conj(np.fft.rfft(net.conv2.filters, n=n2)))
    spec2[:, :, 0] += n2 * net.conv2.biases
    return fx2, np.fft.irfft(spec2, n=n2)[:, :, :net.shapes["conv2"]]


def _dense_head(net: Network, flat: np.ndarray):
    """The three dense layers; returns (pred, z1, a1, z2, a2)."""
    z1 = flat @ net.dense1.weights.T + net.dense1.biases
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ net.dense2.weights.T + net.dense2.biases
    a2 = np.maximum(z2, 0.0)
    return (a2 @ net.output.weights.T + net.output.biases)[:, 0], z1, a1, z2, a2


def _check_batch(net: Network, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != net.input_len:
        raise ShapeError(f"batch shape {x.shape} does not match input length {net.input_len}")


def _infer(net: Network, x: np.ndarray) -> np.ndarray:
    """Eval-mode predictions for a batch (B, P), ``INFER_CHUNK`` rows at a time."""
    _check_batch(net, x)
    pool = net.hp.pool
    lpp = net.shapes["pool"] * pool
    pred = np.empty(x.shape[0])
    spec = _spectrum_buffer(net, min(x.shape[0], INFER_CHUNK))
    for lo in range(0, x.shape[0], INFER_CHUNK):
        v1 = _conv1_map(net, np.fft.rfft(x[lo:lo + INFER_CHUNK], n=net.input_len), spec)
        # the 0.0 floor is the ReLU: max(0, a, b, ...) == relu(max(a, b, ...))
        x2 = np.maximum(v1[:, :, 0:lpp:pool], 0.0)
        for k in range(1, pool):
            np.maximum(x2, v1[:, :, k:lpp:pool], out=x2)
        _, y2 = _conv2(net, x2)
        pred[lo:lo + INFER_CHUNK] = _dense_head(net, np.maximum(y2, 0.0).reshape(len(x2), -1))[0]
    return pred


def _train_step(net: Network, fx: np.ndarray, y: np.ndarray,
                rng: Optional[np.random.Generator], spec: np.ndarray, g1: np.ndarray):
    """One mini-batch step; returns (pred, grads), grads keyed like net.parameters().

    ``fx`` is the batch's rfft (B, n1//2 + 1) and ``y`` its targets; the loss
    is their MSE.  ``rng`` draws the dropout mask, the step's only draw, and
    may be None when dropout is off.  ``spec`` (>= B, C1, n1//2 + 1) and
    ``g1`` (>= B, C1, n1) are the buffers the step overwrites.
    """
    n = fx.shape[0]
    lp, l2 = net.shapes["pool"], net.shapes["conv2"]
    c1, pool, k1, k2 = net.hp.filters1, net.hp.pool, net.hp.ksize1, net.hp.ksize2
    n1, n2 = _fft_sizes(net)
    rate = net.hp.dropout
    spec, g1 = spec[:n], g1[:n]

    # the conv1 map lives in g1, whose gradient role starts after pooling
    v1 = _conv1_map(net, fx, spec, out=g1)
    st = v1.strides
    win = as_strided(v1, (n, c1, lp, pool), (st[0], st[1], st[2] * pool, st[2]))
    rel = win.argmax(axis=3)
    x2 = np.take_along_axis(win, rel[..., None], axis=3)[..., 0]
    np.maximum(x2, 0.0, out=x2)

    fx2, y2 = _conv2(net, x2)
    flat = np.maximum(y2, 0.0).reshape(n, -1)
    fdrop, keep = dropout_apply(flat, rate, "train", rng)
    pred, z1, a1, z2, a2 = _dense_head(net, fdrop)

    g3 = (2.0 * (pred - y) / n)[:, None]
    d_wout = g3.T @ a2
    d_bout = g3.sum(axis=0)
    gd2 = (g3 @ net.output.weights) * (z2 > 0)
    d_w2 = gd2.T @ a1
    d_b2 = gd2.sum(axis=0)
    gd1 = (gd2 @ net.dense2.weights) * (z1 > 0)
    d_w1 = gd1.T @ fdrop
    d_b1 = gd1.sum(axis=0)
    gflat = gd1 @ net.dense1.weights * keep / (1.0 - rate)

    gy2 = gflat.reshape(n, net.hp.filters2, l2) * (y2 > 0)
    fg2 = np.fft.rfft(gy2, n=n2)
    d_f2 = np.fft.irfft(
        np.conj(np.einsum("bjf,bcf->cjf", np.conj(fx2), fg2)), n=n2)[:, :, :k2]
    d_cb2 = gy2.sum(axis=(0, 2))
    gx2 = np.fft.irfft(
        np.einsum("bcf,cjf->bjf", fg2, np.fft.rfft(net.conv2.filters, n=n2)), n=n2)[:, :, :lp]

    # ReLU acts on the pooled value: windows whose max is <= 0 pass nothing
    geff = gx2 * (x2 > 0)
    g1.fill(0.0)  # win now views the zeroed conv1 map gradient
    np.put_along_axis(win, rel[..., None], geff[..., None], axis=3)
    fg1 = np.fft.rfft(g1, n=n1, out=spec)
    d_f1 = np.fft.irfft(
        np.conj(np.einsum("bjf,bcf->cjf", np.conj(fx[:, None, :]), fg1)), n=n1)[:, :, :k1]
    d_cb1 = geff.sum(axis=(0, 2))

    return pred, {
        "conv1.filters": d_f1, "conv1.biases": d_cb1,
        "conv2.filters": d_f2, "conv2.biases": d_cb2,
        "dense1.weights": d_w1, "dense1.biases": d_b1,
        "dense2.weights": d_w2, "dense2.biases": d_b2,
        "output.weights": d_wout, "output.biases": d_bout,
    }


def forward(net: Network, x: np.ndarray):
    """Predict for one normalized spectrum (P,) or a batch (B, P).

    Deterministic: dropout is the identity outside training.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pred = _infer(net, x[None, :] if single else x)
    return float(pred[0]) if single else pred


class Adam:
    """Adaptive-moment gradient descent (bias-corrected)."""

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for k, p in self.params.items():
            g = grads[k]
            m = self.m[k]
            v = self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_mse: float
    val_mse: Optional[float]


def train(
    net: Network,
    spectra: np.ndarray,
    targets: np.ndarray,
    hp: Optional[HyperParams] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    validation: Optional[tuple[np.ndarray, np.ndarray]] = None,
    val_every: int = 10,
    callbacks: Sequence[Callable[[int, float, Optional[float], Network], None]] = (),
) -> list[EpochRecord]:
    """Mini-batch training; returns the per-epoch trace.

    Each epoch reshuffles with ``rng``, the final partial batch is kept, and
    the epoch's training MSE is the sample-weighted mean of its batch
    losses.  Validation MSE (eval mode) is computed every ``val_every``
    epochs and on the last one.  Deterministic for a given rng seed.
    """
    hp = net.hp if hp is None else hp
    if rng is None:
        rng = np.random.default_rng(0)
    spectra = np.asarray(spectra, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if spectra.ndim != 2 or spectra.shape[0] != targets.shape[0]:
        raise ShapeError("spectra and targets disagree in length")
    if spectra.shape[0] == 0:
        raise EmptyBatchError("nothing to train on")
    _check_batch(net, spectra)

    n_total = spectra.shape[0]
    fx_all = np.fft.rfft(spectra, n=net.input_len)  # inputs never change; hoist the FFT
    opt = Adam(net.parameters(), hp.learning_rate)
    # Without these reused buffers every batch of the default network at
    # B=64 allocates and frees 3 MB arrays.  Freed together at the top of
    # the heap they exceed glibc's trim threshold, go back to the OS and are
    # faulted in again by the next batch.
    rows = min(hp.batch, n_total)
    spec, g1 = _spectrum_buffer(net, rows), np.empty((rows, net.hp.filters1, net.input_len))
    trace: list[EpochRecord] = []

    for epoch in range(hp.epochs):
        order = rng.permutation(n_total)
        sq_sum = 0.0
        val_mse = None
        # A diverging run overflows here.  The loss check below reports it,
        # and callers check the trained model's parameters and predictions.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n_total, hp.batch):
                idx = order[lo:lo + hp.batch]
                y = targets[idx]
                pred, grads = _train_step(net, fx_all[idx], y, rng, spec, g1)
                res = pred - y
                sq_sum += float(res @ res)
                opt.step(grads)
            if validation is not None and ((epoch + 1) % val_every == 0 or epoch == hp.epochs - 1):
                val_mse, _ = mse_loss(_infer(net, validation[0]), validation[1])
        train_mse = sq_sum / n_total
        if not np.isfinite(train_mse):
            raise DivergenceError(epoch)
        trace.append(EpochRecord(epoch, train_mse, val_mse))
        for cb in callbacks:
            cb(epoch, train_mse, val_mse, net)
    return trace


def save_trace(trace: Sequence[EpochRecord], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("epoch,train_mse,val_mse\n")
        for r in trace:
            v = "" if r.val_mse is None else repr(float(r.val_mse))
            fh.write(f"{r.epoch},{repr(float(r.train_mse))},{v}\n")


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"OCNN1"
CHECKPOINT_VERSION = 1


def save_network(net: Network, path: str | Path) -> None:
    """Write the versioned binary checkpoint.

    Layout: magic ``OCNN1``, version byte, u32-LE header length, UTF-8 JSON
    architecture descriptor, then the parameter blocks as little-endian
    float64 in ``Network.parameters()`` order (C row-major).
    """
    header = json.dumps(
        {"input_len": net.input_len, "hyperparams": net.hp.to_dict()},
        sort_keys=True).encode()
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<B", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(header)))
    buf.write(header)
    for arr in net.parameters().values():
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    Path(path).write_bytes(buf.getvalue())


def load_network(path: str | Path) -> Network:
    raw = Path(path).read_bytes()
    if raw[:5] != CHECKPOINT_MAGIC:
        raise ValueError("not an OCNN1 checkpoint")
    version = raw[5]
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<I", raw, 6)
    meta = json.loads(raw[10:10 + hlen].decode())
    hp = HyperParams.from_dict(meta["hyperparams"])
    net = build_network(hp, meta["input_len"], np.random.default_rng(0))
    off = 10 + hlen
    params = {}
    for k, v in net.parameters().items():
        nblock = v.size * 8
        params[k] = np.frombuffer(raw[off:off + nblock], dtype="<f8").reshape(v.shape).copy()
        off += nblock
    if off != len(raw):
        raise ValueError("checkpoint size does not match the architecture")
    net.set_parameters(params)
    return net
