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
* the batched engine evaluates the same maps through matrix products and,
  for conv2 in the training step, FFT cross-correlation.  It is free to
  reassociate floating-point sums, so it matches the contract ops to
  ~1e-13 relative rather than bitwise; the tests pin both paths together.

Conv1 is a block-Toeplitz matrix product (Chellapilla, Puri & Simard
2006).  Each spectrum is cut into one block of w = pool + k1 - 1 samples
per pooling window.  The blocks are a zero-copy strided view of the
spectra, (B, lp, w), built by ``_blocks`` on a C-contiguous copy of the
input, which is the input itself when it is C-contiguous already.  A fixed
operator whose column r*C1 + c holds filter c shifted down by r turns them
into the conv1 map in one batched ``np.matmul``, written straight into the
offset-major layout (pool, C1, B, lp).  The operator is stored transposed,
(w, pool*C1), and C-contiguous, the orientation in which numpy hands
OpenBLAS its fastest product: at B=64 it took 852 us, against 1216 us for
the (pool*C1, w) operator times the transposed blocks and 1303 us for a
transposed view of that operator (best of 150, one thread of a shared
2-core VM), all with the same bits.  The window max and its first maximum
are then reductions over the leading axis, which numpy runs elementwise
across whole rows (``_pool_argmax``).  The biases enter after the max, which is exact
because rounding is monotone.  The backward pass overwrites the map with
its gradient, a one-hot mask of each window's first maximum times the
pooled gradient, and one more batched product with the same blocks gives
the operator's gradient; the filter gradient sums its shifted diagonals.
The blocks hold w/pool = 5.9 copies of each sample at the default sizes,
where k1-wide sliding windows (im2col) would hold k1 = 40.

The products are batched per spectrum, not one per batch, and each
spectrum's product is split to stay under ``BLAS_MADDS`` = 2**19
multiply-adds, below which OpenBLAS 0.3.31 runs a product on one thread.
Above it, results depend on the BLAS thread count, because OpenBLAS rounds
a tail or a last reduction block differently for each split among
threads; and ``loocv --jobs N`` on N cores would run N BLAS threads per
worker, which measured three times slower per epoch.  Conv1's product and
the operator gradient's split along the pooled positions, conv2's
inference product along its blocks.  At the default sizes one spectrum's
conv1 product is pool*C1 x w x lp = 277k multiply-adds and nothing splits;
on a 2048-pixel grid it would be 566k.

Conv2 has two implementations, one per path below:

* the training step keeps FFT cross-correlation from ``numpy.fft``: its
  backward pass reuses the forward's spectrum of the pooled maps, for the
  filter gradient.  A block-Toeplitz conv2 in the step, forward and
  backward, measured slower in a prototype: 44.5 -> 53.9 ms per epoch.
  Transforms are padded to the next power of two at or above the pooled
  length (128 for 123 positions), which measured faster than the nearest
  11-smooth length at both pool sizes of the tuning grid.  The channel
  sums, forward and backward, are batched ``np.matmul`` products with the
  frequency axis leading, which beat ``einsum``'s complex loops at these
  sizes.  ``scipy.fft`` runs the same pocketfft code and gives the same
  bits, but importing it more than doubles the start-up of every
  ``olivenet`` command, so numpy stays the only runtime dependency;
* the inference pass computes conv2 as a block-Toeplitz product like
  conv1's, over blocks of ``CONV2_BLOCK`` = 13 outputs.  The pooled maps
  go into a zero-padded, position-major buffer (B, nb*13 + k2 - 1, C1), so
  its blocks of 13 + k2 - 1 positions are a view too, and the outputs past
  l2 are dropped.  A forward then calls no transform, whose numpy
  wrappers cost more than conv2's arithmetic at B=1.  With blocks of 8 or
  13 outputs a forward timed within 3 % either way; with 26, 52 and 104
  it was 3 %, 19 % and 2.7x slower at B=1, and 6 %, 34 % and 3.5x at B=64.

The batched engine has two paths:

* the training step (``_train_step``) runs one mini-batch: the forward
  pass, the MSE gradient and the backward pass in one scope, so what the
  backward pass needs, such as the first-occurrence offset of every pool
  window, stays in plain locals.  ``train`` reuses two buffers across
  batches, so a batch allocates no conv1-sized array: ``buf`` (3 MB at
  the defaults) for the conv1 map, which the map's gradient overwrites,
  and ``room`` (1.2 MB) for the operator gradient's per-spectrum terms.
  They pay for themselves: allocating them per batch measured 3937 minor
  page faults per epoch against 2820, and a median epoch of 41.1 ms
  against 37.7 (12-epoch ``train`` on 420 x 1024 spectra, epochs 3-12,
  one BLAS thread of a shared 2-core VM, six alternating runs each, all
  six won by the buffers);
* the inference pass (``_infer``), behind ``forward`` and the validation
  loss in ``train``, keeps no cache.  It takes the window max only, with no
  argmax, runs the dense head in place, and walks its input
  ``INFER_CHUNK`` rows at a time, so its working set does not grow with
  the batch: scoring 420 spectra needs no more memory than scoring 64.

Only the inference pass memoizes.  ``_filter_operators`` keeps conv1's
operator and conv2's operator on the ``Network``, keyed on the two filter
arrays' shapes and bytes.  The key is their content, not a version
counter, because parameters change in place by routes no counter sees:
Adam, ``set_parameters``, a plain element write, a replaced layer.
Checking the key copies and compares under 6 kB of filters at the default
sizes, far cheaper than the operators it saves rebuilding, so a forward on
unchanged weights builds neither and makes no transform.  A training step
builds its own conv1 operator and conv2 filter spectrum, once per step:
Adam moves the filters every step, so a memo would never hit there and
would only add a key check per step.

Training is mini-batch gradient descent with Adam-style adaptive moments;
validation runs every ``VAL_EVERY`` epochs, a fixed part of the protocol.
"""

from __future__ import annotations

import functools
import io
import json
import struct
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .data import write_csv_text


class ShapeError(RuntimeError):
    """Arrays that do not fit where the program passes them: a bug, not bad input."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss, parameter or prediction."""


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: Hyperparameter tuning grid explored for this architecture.
FILTERS_GRID = (4, 6)
POOL_GRID = (8, 16)

#: Epochs between validation passes in ``train``; the last epoch is always
#: scored.  Fixed, not a flag: the best-validation checkpoint is picked among
#: scored epochs, so the cadence is part of the protocol behind every result.
VAL_EVERY = 10

#: Rows per block of the inference pass.  It bounds the pass's working set
#: (about 10 MB at P=1024 with 6 conv1 filters) whatever the batch size.
INFER_CHUNK = 64

#: Outputs per block of conv2's block-Toeplitz product in the inference pass.
CONV2_BLOCK = 13

#: OpenBLAS 0.3.31 runs a matrix product of fewer multiply-adds than this on
#: one thread.  The engine splits every per-spectrum product below it, so no
#: result depends on the BLAS thread count.
BLAS_MADDS = 2**19


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
        if len(self.dense_sizes) != 2:
            raise ValueError("dense_sizes must hold exactly two sizes")
        ints = (self.filters1, self.filters2, self.ksize1, self.ksize2,
                self.pool, self.batch, *self.dense_sizes)
        # a checkpoint header can hold 6.0 or true, which compare like sizes
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (*ints, self.epochs)):
            raise ValueError("size hyperparameters and epochs must be integers")
        if any(v < 1 for v in ints):
            raise ValueError("all size hyperparameters must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        # true would otherwise pass as 1.0 and false as 0.0
        if isinstance(self.dropout, bool) or isinstance(self.learning_rate, bool):
            raise ValueError("dropout and learning rate must be numbers, not booleans")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        # NaN fails both comparisons, so it is rejected with inf
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError("learning rate must be finite and nonnegative")

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
    #: ``_filter_operators``'s memo: (key, operators).  Derived state, never an input.
    _operators: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

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
        raise ShapeError("argmax index outside the input")
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


def dropout_apply(x: np.ndarray, rate: float, rng: Optional[np.random.Generator]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout for training: zeroing with 1/(1-rate) rescaling.

    Inference skips dropout altogether, so no test-time correction is
    needed.  Returns (output, keep_mask).
    """
    x = np.asarray(x, dtype=float)
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if rate == 0.0:
        return x.copy(), np.ones_like(x, dtype=bool)
    if rng is None:
        raise ValueError("dropout needs an rng")
    keep = rng.random(x.shape) >= rate
    return x * keep / (1.0 - rate), keep


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient 2*(pred - target)/N."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise ShapeError("MSE of an empty batch")
    res = pred - target
    return float(np.mean(res * res)), 2.0 * res / pred.size


# ---------------------------------------------------------------------------
# network assembly
# ---------------------------------------------------------------------------

def network_shapes(hp: HyperParams, input_len: int) -> dict[str, int]:
    """Closed-form layer lengths; raises naming the first empty layer."""
    l1 = input_len - hp.ksize1 + 1
    if l1 < 1:
        raise ValueError(f"conv1: input {input_len} shorter than filter {hp.ksize1}")
    lp = l1 // hp.pool
    if lp < 1:
        raise ValueError(f"pool: length {l1} yields no full window of {hp.pool}")
    l2 = lp - hp.ksize2 + 1
    if l2 < 1:
        raise ValueError(f"conv2: length {lp} shorter than filter {hp.ksize2}")
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
# mini-batch engine
# ---------------------------------------------------------------------------

def _fft_len(net: Network) -> int:
    """conv2's transform length: the power of two at or above the pooled length."""
    return 1 << (net.shapes["pool"] - 1).bit_length()


def _rows_per_product(madds_per_row: int) -> int:
    """Rows of a product that keep it under ``BLAS_MADDS`` multiply-adds; at least one.

    One block times an operator costs ``op.size`` multiply-adds, and so does one
    block's term of the operator's gradient.
    """
    return max(1, (BLAS_MADDS - 1) // madds_per_row)


def _shifted(a: np.ndarray, k: int) -> np.ndarray:
    """The view [r, c, i] -> a[r, c, r + i] of a (pool, C, w) array, i < k."""
    s0, s1, s2 = a.strides
    return np.lib.stride_tricks.as_strided(a, (a.shape[0], a.shape[1], k), (s0 + s2, s1, s2))


def _toeplitz(f: np.ndarray, s: int) -> np.ndarray:
    """Block-Toeplitz operator ((s+k-1)*C_in, s*C_out) of a filter bank f (C_out, C_in, k).

    Row t*C_in + j, column o*C_out + c holds f[c, j, t - o] where 0 <= t - o
    < k, zero elsewhere: a block of s + k - 1 input positions, position-major
    with the channel innermost, times the operator gives the block's s valid
    outputs, offset-major with the channel innermost.
    """
    c_out, c_in, k = f.shape
    op = np.zeros((s + k - 1, c_in, s, c_out))
    s0, s1, s2, s3 = op.strides
    np.lib.stride_tricks.as_strided(
        op, (s, k, c_in, c_out), (s0 + s2, s0, s1, s3))[...] = f.transpose(2, 1, 0)
    return op.reshape((s + k - 1) * c_in, s * c_out)


def _filter_operators(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """The inference pass's operators: conv1's (w, pool*C1) and conv2's.

    Both come from ``_toeplitz``: conv1's over blocks of w = pool + k1 - 1
    samples, one block per pooling window, and conv2's over blocks of
    ``CONV2_BLOCK`` + k2 - 1 pooled positions.  Memoized on ``net`` under
    the filters' bytes and shapes, so a forward pass on unchanged weights
    builds neither.  The arrays are shared by every later call, hence
    read-only.
    """
    f1, f2 = net.conv1.filters, net.conv2.filters
    key = (f1.shape, f2.shape, f1.tobytes(), f2.tobytes())
    if net._operators is None or net._operators[0] != key:
        ops = (_toeplitz(f1, net.hp.pool), _toeplitz(f2, CONV2_BLOCK))
        for op in ops:
            op.flags.writeable = False
        net._operators = key, ops
    return net._operators[1]


def _blocks(x: np.ndarray, n: int, step: int, width: int) -> np.ndarray:
    """The zero-copy view [b, j, i] -> x[b, j*step + i] of the rows of x (B, L): (B, n, width).

    x is made C-contiguous first, a copy only when it is not.  The caller
    keeps (n - 1)*step + width <= L, so no block reads past its row.
    """
    x = np.ascontiguousarray(x)
    return np.ndarray((x.shape[0], n, width), x.dtype, x, 0,
                      (x.strides[0], step * x.itemsize, x.itemsize))


def _conv1_blocks(net: Network, x: np.ndarray) -> np.ndarray:
    """The pool-strided blocks (B, lp, w) of the spectra x (B, P), a view.

    Block (b, j) is x[b, j*pool : j*pool + w]; the last one ends at
    lp*pool + k1 - 1 <= P, inside the row.
    """
    pool = net.hp.pool
    return _blocks(x, net.shapes["pool"], pool, pool + net.hp.ksize1 - 1)


def _step_buffers(net: Network, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Room for the conv1 map (pool*C1, b*lp) and the operator-gradient product (b, pool*C1, w)."""
    rows, w = net.hp.pool * net.hp.filters1, net.hp.pool + net.hp.ksize1 - 1
    return np.empty((rows, b * net.shapes["pool"])), np.empty((b, rows, w))


def _conv1_map(net: Network, op: np.ndarray, xb: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Conv1 without biases of the spectra whose blocks are ``xb`` (B, lp, w).

    ``op`` is conv1's operator.  Returns the map offset-major, (pool, C1, B,
    lp), a view of the first B*lp columns of ``out`` (pool*C1, >= B*lp).
    Each spectrum's product runs in runs of pooled positions short enough
    to stay under ``BLAS_MADDS``.
    """
    b, lp, _ = xb.shape
    v = out[:, :b * lp].reshape(-1, b, lp)
    vt = v.transpose(1, 2, 0)
    step = _rows_per_product(op.size)
    for lo in range(0, lp, step):
        np.matmul(xb[:, lo:lo + step], op, out=vt[:, lo:lo + step])
    return v.reshape(net.hp.pool, net.hp.filters1, b, lp)


def _check_batch(net: Network, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != net.input_len:
        raise ShapeError(f"batch shape {x.shape} does not match input length {net.input_len}")
    activations = (net.dense1.activation, net.dense2.activation, net.output.activation)
    if activations != ("relu", "relu", "identity"):
        raise ShapeError(f"dense activations {activations} are not relu, relu, identity")


def _infer(net: Network, x: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Eval-mode predictions for a batch (B, P), ``INFER_CHUNK`` rows at a time.

    Given ``rows``, it scores ``x[rows]`` without that copy: each chunk
    gathers its own rows, the same rows the chunk of ``x[rows]`` holds.

    Conv2 is a block-Toeplitz product here: the pooled maps go into a
    zero-padded, position-major buffer (B, nb*s + k2 - 1, C1) whose blocks
    of s + k2 - 1 positions are a view, s = ``CONV2_BLOCK`` and nb*s >= l2.
    The outputs past l2 are dropped.
    """
    _check_batch(net, x)
    pool, c1, c2, k2 = net.hp.pool, net.hp.filters1, net.hp.filters2, net.hp.ksize2
    lp, l2, s = net.shapes["pool"], net.shapes["conv2"], CONV2_BLOCK
    nb = -(-l2 // s)
    op1, op2 = _filter_operators(net)
    bias = net.conv1.biases[:, None, None]
    n = x.shape[0] if rows is None else len(rows)
    cap = min(n, INFER_CHUNK)
    buf = np.empty((pool * c1, cap * lp))
    padded = np.zeros((cap, nb * s + k2 - 1, c1))
    y2 = np.empty((cap, nb, s * c2))
    step = _rows_per_product(op2.size)
    pred = np.empty(n)
    for lo in range(0, n, INFER_CHUNK):
        chunk = x[lo:lo + INFER_CHUNK] if rows is None else x[rows[lo:lo + INFER_CHUNK]]
        b = chunk.shape[0]
        top = _conv1_map(net, op1, _conv1_blocks(net, chunk), buf).max(axis=0)
        # the bias enters after the max, exactly: rounding is monotone
        x2 = np.maximum(np.add(top, bias, out=top), 0.0, out=top)
        # a max or a ufunc writing across the channel stride of the padded
        # buffer measured 4x slower at B=64 than this copy of its result
        padded[:b, :lp] = x2.transpose(1, 2, 0)
        xb2 = _blocks(padded[:b].reshape(b, -1), nb, s * c1, op2.shape[0])
        for j in range(0, nb, step):
            np.matmul(xb2[:, j:j + step], op2, out=y2[:b, j:j + step])
        z2 = y2[:b].reshape(b, nb * s, c2)
        z2 += net.conv2.biases
        h = np.maximum(z2[:, :l2].transpose(0, 2, 1), 0.0, order="C").reshape(b, -1)
        for layer in (net.dense1, net.dense2):
            h = h @ layer.weights.T
            h += layer.biases
            np.maximum(h, 0.0, out=h)
        pred[lo:lo + b] = h @ net.output.weights[0] + net.output.biases[0]
    return pred


def _pool_argmax(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling of offset-major maps ``v`` (pool, ...) over their leading axis.

    Returns the window maxima and each window's offset of its first
    maximum, as ``maxpool_forward`` picks it, both shaped ``v.shape[1:]``.
    Both are reductions over the leading axis, which numpy runs elementwise
    across whole rows.
    """
    pool = v.shape[0]
    top = v.max(axis=0)
    # Offset r weighs pool-1-r where it holds the max, so the largest weight
    # marks the first occurrence.  A NaN window matches nowhere and routes
    # to its last offset, still inside the window.
    weight = np.arange(pool - 1, -1, -1, dtype=np.min_scalar_type(pool - 1))
    return top, (pool - 1) - ((v == top) * weight.reshape(-1, *(1,) * top.ndim)).max(axis=0)


def _train_step(net: Network, xb: np.ndarray, y: np.ndarray,
                rng: Optional[np.random.Generator], buf: np.ndarray, room: np.ndarray):
    """One mini-batch step; returns (pred, grads), grads keyed like net.parameters().

    ``xb`` is the batch's blocks (B, lp, w), as ``_conv1_blocks`` cuts
    them, and ``y`` its targets; the loss is their MSE.  ``rng`` draws the
    dropout mask, the step's only draw, and may be None when dropout is off.
    ``buf`` (pool*C1, >= B*lp) and ``room`` (>= B, pool*C1, w), as
    ``_step_buffers`` makes them, are space the step overwrites: ``buf``
    holds the conv1 map, then the conv1 map's gradient, and ``room`` the
    per-spectrum terms of the operator's gradient.
    """
    n = xb.shape[0]
    lp, l2 = net.shapes["pool"], net.shapes["conv2"]
    pool, c1, k1, k2 = net.hp.pool, net.hp.filters1, net.hp.ksize1, net.hp.ksize2
    n2 = _fft_len(net)
    rate = net.hp.dropout
    # Adam moves the filters every step, so a memo would never hit here
    op1 = _toeplitz(net.conv1.filters, pool)
    spec = np.fft.rfft(net.conv2.filters, n=n2)

    v1 = _conv1_map(net, op1, xb, buf)
    x2, rel = _pool_argmax(v1)
    x2 += net.conv1.biases[:, None, None]  # exact after the max: rounding is monotone
    np.maximum(x2, 0.0, out=x2)

    # conv2's channel sums, here and below, are batched matmuls with the
    # frequency axis leading: fx2 is (F, B, C1)
    fx2 = np.fft.rfft(x2, n=n2).transpose(2, 1, 0)
    spec2 = fx2 @ np.conj(spec).transpose(2, 1, 0)
    spec2[0] += n2 * net.conv2.biases
    y2 = np.fft.irfft(spec2.transpose(1, 2, 0), n=n2)[:, :, :l2]
    flat = np.maximum(y2, 0.0).reshape(n, -1)
    fdrop, keep = dropout_apply(flat, rate, rng)
    z1 = fdrop @ net.dense1.weights.T + net.dense1.biases
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ net.dense2.weights.T + net.dense2.biases
    a2 = np.maximum(z2, 0.0)
    pred = (a2 @ net.output.weights.T + net.output.biases)[:, 0]

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
    fg2 = np.fft.rfft(gy2, n=n2).transpose(2, 0, 1)  # (F, B, C2), like fx2
    d_f2 = np.fft.irfft(
        (np.conj(fg2).transpose(0, 2, 1) @ fx2).transpose(1, 2, 0), n=n2)[:, :, :k2]
    d_cb2 = gy2.sum(axis=(0, 2))
    gx2 = np.fft.irfft((fg2 @ spec.transpose(2, 0, 1)).transpose(2, 1, 0), n=n2)[:, :, :lp]

    # ReLU acts on the pooled value: windows whose max is <= 0 pass nothing
    geff = gx2 * (x2 > 0)
    # the map's gradient, geff at each window's first maximum, replaces the
    # map: a one-hot mask times geff, which runs branch-free, unlike a
    # masked copy or a scatter
    g1 = np.equal(np.arange(pool, dtype=rel.dtype).reshape(-1, 1, 1, 1), rel, out=v1)
    g1 *= geff
    g1 = g1.reshape(pool * c1, n, lp).transpose(1, 0, 2)
    step = _rows_per_product(op1.size)
    # the gradient of op1.T, (pool*C1, w), whose row r*C1 + c holds filter
    # c shifted right by r
    d_toeplitz = functools.reduce(np.add, (
        np.matmul(g1[:, :, lo:lo + step], xb[:, lo:lo + step], out=room[:n]).sum(axis=0)
        for lo in range(0, lp, step)))
    d_f1 = _shifted(d_toeplitz.reshape(pool, c1, -1), k1).sum(axis=0)[:, None, :]
    d_cb1 = geff.sum(axis=(1, 2))

    return pred, {
        "conv1.filters": d_f1, "conv1.biases": d_cb1,
        "conv2.filters": d_f2, "conv2.biases": d_cb2,
        "dense1.weights": d_w1, "dense1.biases": d_b1,
        "dense2.weights": d_w2, "dense2.biases": d_b2,
        "output.weights": d_wout, "output.biases": d_bout,
    }


def forward(net: Network, x: np.ndarray, rows: Optional[np.ndarray] = None):
    """Predict for one normalized spectrum (P,) or a batch (B, P).

    ``rows``, an integer index array into a batch, scores only those rows,
    in that order: the result equals ``forward(net, x[rows])`` bit for bit,
    without copying them out.  Deterministic: dropout is the identity
    outside training.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single and rows is not None:
        raise ShapeError("rows index a batch (B, P), not a single spectrum")
    pred = _infer(net, x[None, :] if single else x, rows)
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
    hp: HyperParams,
    rng: np.random.Generator,
    *,
    rows: Optional[np.ndarray] = None,
    validation: Optional[tuple[np.ndarray, np.ndarray]] = None,
    callbacks: Sequence[Callable[[int, float, Optional[float], Network], None]] = (),
) -> list[EpochRecord]:
    """Mini-batch training; returns the per-epoch trace.

    Each epoch reshuffles with ``rng``, the final partial batch is kept, and
    the epoch's training MSE is the sample-weighted mean of its batch
    losses.  Validation MSE (no dropout) is computed every ``VAL_EVERY``
    epochs and on the last one.  Deterministic for a given rng seed.

    ``rows``, an integer index array into ``spectra`` and ``targets``,
    trains on those rows alone: each batch gathers its rows from the
    matrix, so the caller needs no copy of the training set.  The trace
    and the parameters equal those of training on ``spectra[rows]`` and
    ``targets[rows]`` bit for bit.
    """
    spectra = np.asarray(spectra, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if spectra.ndim != 2 or spectra.shape[0] != targets.shape[0]:
        raise ShapeError("spectra and targets disagree in length")
    rows = np.arange(spectra.shape[0]) if rows is None else np.asarray(rows)
    if rows.size == 0:
        raise ShapeError("nothing to train on")
    _check_batch(net, spectra)

    n_total = rows.size
    opt = Adam(net.parameters(), hp.learning_rate)
    # the conv1 map and the operator-gradient terms of every batch, 3 MB
    # and 1.2 MB at the defaults
    buf, room = _step_buffers(net, min(hp.batch, n_total))
    trace: list[EpochRecord] = []

    for epoch in range(hp.epochs):
        order = rng.permutation(n_total)
        sq_sum = 0.0
        val_mse = None
        # A diverging run overflows here.  The loss check below reports it,
        # and callers check the trained model's parameters and predictions.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n_total, hp.batch):
                idx = rows[order[lo:lo + hp.batch]]
                y = targets[idx]
                xb = _conv1_blocks(net, spectra[idx])
                pred, grads = _train_step(net, xb, y, rng, buf, room)
                res = pred - y
                sq_sum += float(res @ res)
                opt.step(grads)
            if validation is not None and ((epoch + 1) % VAL_EVERY == 0 or epoch == hp.epochs - 1):
                val_mse, _ = mse_loss(_infer(net, validation[0]), validation[1])
        train_mse = sq_sum / n_total
        if not np.isfinite(train_mse):
            raise DivergenceError(f"non-finite training loss at epoch {epoch}")
        trace.append(EpochRecord(epoch, train_mse, val_mse))
        for cb in callbacks:
            cb(epoch, train_mse, val_mse, net)
    return trace


def save_trace(trace: Sequence[EpochRecord], path: str | Path) -> None:
    # a missing val_mse, None, is written as an empty cell
    Path(path).write_text(write_csv_text(("epoch", "train_mse", "val_mse"), map(astuple, trace)),
                          encoding="utf-8")


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
    if len(raw) < 10:
        raise ValueError("checkpoint truncated before its header length")
    version = raw[5]
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<I", raw, 6)
    meta = json.loads(raw[10:10 + hlen].decode())
    if not isinstance(meta, dict) or not {"hyperparams", "input_len"} <= meta.keys():
        raise ValueError("checkpoint header lacks hyperparams or input_len")
    try:
        hp = HyperParams.from_dict(meta["hyperparams"])
    except TypeError as e:  # an unknown key or a value of the wrong type
        raise ValueError(f"checkpoint hyperparams are malformed: {e}") from None
    if not isinstance(meta["input_len"], int):
        raise ValueError(f"checkpoint input_len {meta['input_len']!r} is not an integer")
    net = build_network(hp, meta["input_len"], np.random.default_rng(0))
    off = 10 + hlen
    if len(raw) != off + 8 * net.num_parameters():
        raise ValueError("checkpoint size does not match the architecture")
    params = {}
    for k, v in net.parameters().items():
        nblock = v.size * 8
        params[k] = np.frombuffer(raw[off:off + nblock], dtype="<f8").reshape(v.shape).copy()
        off += nblock
    net.set_parameters(params)
    return net
