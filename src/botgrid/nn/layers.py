"""Layer forward/backward passes.

Data layout is channels-last: activations are (N, H, W, C) for spatial
layers and (N, F) for dense layers.  Convolution is cross-correlation
(no kernel flip) with "same" zero-padding: the output spatial size is
ceil(input / stride), and when the total padding is odd the extra row
or column goes on the bottom/right.  A conv computes only the top-left
rows and columns of its output that a later layer reads (pooling drops a
trailing row or column that does not fill a window) and writes +0.0 at
the rest.  It gathers its im2col rows from a strided (N, rows, cols, kh,
kw, C) window view of the padded input in tiles of whole images, one
copy per tile into one buffer that each thread reuses, and multiplies
each tile while it is still in cache; no conv ever holds the whole
batch's im2col matrix.  A training forward caches the window view and
the ReLU mask, and backward gathers each tile again for the weight
gradient (recomputing rather than storing, as in Chen et al.,
arXiv 1604.06174).  Max pooling routes each window's gradient to
the first row-major position holding its maximum.  All layers preserve
the dtype of their inputs.  Every layer derives from `_Layer`, whose
docstring states the contract of the backward cache, and the two weighted
layers from `_Weighted`, which draws their seeded weights.  A constructor
takes its kernel, stride, channel and feature counts as given: `CnnModel`
checks them with `LayerSpec` and `_layer_shapes` (see nn.model) before it
builds any layer, and forward and backward check the arrays they get.

In training, a conv hands its independent GEMMs to `in_parallel` as two
tasks, which runs them on two cores when the process has a spare one
(see cpus).  A training forward splits a large enough batch into two
halves of whole images, and backward makes the weight gradient beside
the input gradient.  Every forward and input-gradient GEMM keeps the
rows and operands it would have without the split.  The weight gradient
is a sum, in tile order over the whole batch, of one GEMM per tile: it
does not give the bits of one whole-batch GEMM, but it is the same sum
whatever the split.  So results do not depend on scheduling or on the
CPU count.  With no spare CPU (in one of cross_validate's fold threads
on a two-CPU host, say), a conv runs both halves of its forward and both
backward GEMMs one after the other on its own thread.  An inference
forward never splits: inference uses the second core by forwarding whole
chunks on two threads (see training), so a conv inside a chunk runs its
whole batch on its thread.  A dense layer runs its GEMM in zero-padded
tiles of a fixed row count, so a row gets the same bits whatever else
its batch holds.
"""

from __future__ import annotations

import math

import numpy as np

from ..cpus import in_parallel
from ..errors import ShapeMismatch


# Conv2D gathers and multiplies its im2col rows in forward, gathers them
# again for its weight gradient and makes and scatters its input gradient
# in backward, in even tiles of whole images of about this many rows each,
# so each tile is used while in cache.  No tile drops below half of it:
# BLAS can round a GEMM of a handful of rows differently from the whole
# batch's.
TILE_ROWS = 800
# Conv2D.forward splits its batch into two halves of whole images only when
# each half has at least this many im2col rows, for the same reason.
SPLIT_MIN_ROWS = TILE_ROWS // 2
# Dense.forward runs its GEMM in zero-padded tiles of this many rows, so a
# row gets the same bits whatever else its batch holds: OpenBLAS rounds a
# float32 GEMM of 1-3 rows, and a float64 GEMM of almost any size, by its
# row count, while it rounds each row of a 4-row tile alike.
DENSE_TILE_ROWS = 4


def _image_tiles(lo: int, hi: int, rows_per_image: int) -> list[tuple[int, int]]:
    """Images [lo, hi) as (start, stop) tiles of about TILE_ROWS rows: at
    least one tile, none empty, and whole images of even counts."""
    count = hi - lo
    tiles = max(1, min(count, count * rows_per_image // TILE_ROWS))
    return [(lo + count * t // tiles, lo + count * (t + 1) // tiles) for t in range(tiles)]


def _gathered(windows: np.ndarray, lo: int, hi: int):
    """(rows, cols) for each tile of images [lo, hi) of a conv's (N, rows,
    cols, kh, kw, C) window view: the tile's slice of the batch's im2col
    rows, and those rows gathered into one buffer that every tile reuses."""
    _, eh, ew, kh, kw, cin = windows.shape
    per_image = eh * ew
    tiles = _image_tiles(lo, hi, per_image)
    largest = max(stop - start for start, stop in tiles)
    buffer = np.empty((largest * per_image, kh * kw * cin), windows.dtype)
    for start, stop in tiles:
        cols = buffer[: (stop - start) * per_image]
        np.copyto(cols.reshape(stop - start, eh, ew, kh, kw, cin), windows[start:stop])
        yield slice(start * per_image, stop * per_image), cols


def _same_padding(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out = -(-size // stride)  # ceil division
    total = max((out - 1) * stride + kernel - size, 0)
    lo = total // 2
    return out, lo, total - lo


class _Layer:
    """What every layer owes `CnnModel` and `Adam`: its parameters, their
    gradients, and the cache for its backward pass.

    The cache is a layer's only per-call state.  A training forward
    (train=True) records it, owning the arrays it holds, and backward reads
    it.  A layer keeps its cache until its next training forward replaces
    it, so its backward may run more than once; CnnModel.backward releases
    each layer's cache once that layer's backward has run.  Inference writes
    no layer state, so it may run between a training forward and its
    backward, and one model may serve concurrent calls."""

    _cache = None

    def _cached(self):
        if self._cache is None:
            raise RuntimeError("backward before forward(train=True)")
        return self._cache

    @staticmethod
    def _check_grad(grad: np.ndarray, expected: tuple[int, ...]) -> None:
        if grad.shape != expected:
            raise ShapeMismatch(f"grad shape {grad.shape} != {expected}")

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []


class _Weighted(_Layer):
    """A layer with weights of `shape` drawn from `rng` (seed 0 if None) and
    a zero bias.  The last axis of `shape` is the layer's outputs; the
    others make up its fan-in."""

    def __init__(self, shape: tuple[int, ...], relu: bool, rng, dtype):
        self.relu = relu
        self.dtype = np.dtype(dtype)
        rng = rng if rng is not None else np.random.default_rng(0)
        # sqrt(2/fan_in) for ReLU layers, sqrt(1/fan_in) for linear ones
        std = float(np.sqrt((2.0 if relu else 1.0) / math.prod(shape[:-1])))
        self.weights = rng.standard_normal(shape, dtype=self.dtype) * std
        self.bias = np.zeros(shape[-1], dtype=self.dtype)
        self.grad_weights: np.ndarray | None = None
        self.grad_bias: np.ndarray | None = None

    def params(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class Conv2D(_Weighted):
    """Convolution with "same" padding and an optional fused ReLU.

    `extent` is the (rows, cols) at the top left of the output that a later
    layer reads, as `CnnModel` works it out from the layer geometry; None
    means all of it.  Forward computes only that rectangle and writes +0.0
    at the rest of the full-shape output; backward reads the upstream
    gradient only inside it, as the gradient is 0 everywhere else."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: tuple[int, int],
        stride: tuple[int, int] = (1, 1),
        relu: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
        extent: tuple[int, int] | None = None,
    ):
        kh, kw = kernel
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = (kh, kw)
        self.stride = tuple(stride)
        self.extent = extent
        super().__init__((kh, kw, in_channels, out_channels), relu, rng, dtype)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeMismatch(
                f"conv expects (N, H, W, {self.in_channels}), got {x.shape}"
            )
        n, h, w, cin = x.shape
        kh, kw = self.kernel
        sh, sw = self.stride
        out_h, pad_top, pad_bottom = _same_padding(h, kh, sh)
        out_w, pad_left, pad_right = _same_padding(w, kw, sw)
        rows, cols = self.extent or (out_h, out_w)
        eh, ew = min(rows, out_h), min(cols, out_w)

        xp = np.pad(x, ((0, 0), (pad_top, pad_bottom), (pad_left, pad_right), (0, 0)))
        s0, s1, s2, s3 = xp.strides
        windows = np.lib.stride_tricks.as_strided(
            xp, (n, eh, ew, kh, kw, cin), (s0, s1 * sh, s2 * sw, s1, s2, s3), writeable=False
        )
        weights2 = self.weights.reshape(kh * kw * cin, self.out_channels)
        y2 = np.empty((n * eh * ew, self.out_channels), np.result_type(xp, weights2))

        def images(lo: int, hi: int) -> None:
            # the same GEMM rows as one whole-batch GEMM, in the same bits
            for rows, cols in _gathered(windows, lo, hi):
                y = y2[rows]
                np.matmul(cols, weights2, out=y)
                y += self.bias
                if self.relu:
                    np.maximum(y, 0, out=y)

        half = n // 2
        if train and half * eh * ew >= SPLIT_MIN_ROWS:
            in_parallel(lambda: images(half, n), lambda: images(0, half))
        else:
            images(0, n)
        if train:
            mask = y2 > 0 if self.relu else None
            self._cache = (x.shape, (pad_top, pad_left), windows, mask)
        y = y2.reshape(n, eh, ew, self.out_channels)
        if (eh, ew) == (out_h, out_w):
            return y
        return np.pad(y, ((0, 0), (0, out_h - eh), (0, out_w - ew), (0, 0)))

    def backward(self, grad: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        x_shape, (pad_top, pad_left), windows, mask = self._cached()
        n, h, w, cin = x_shape
        eh, ew = windows.shape[1:3]
        kh, kw = self.kernel
        sh, sw = self.stride
        out_h, out_w = _same_padding(h, kh, sh)[0], _same_padding(w, kw, sw)[0]
        self._check_grad(grad, (n, out_h, out_w, self.out_channels))
        # No later layer reads an output past the extent: its gradient is 0.
        g = grad[:, :eh, :ew]
        if mask is not None:
            g = g * mask.reshape(g.shape)
        g2 = g.reshape(n * eh * ew, self.out_channels)
        self.grad_bias = g2.sum(axis=0)

        def weight_gradient() -> np.ndarray:
            # summed tile by tile over im2col rows gathered again, in the
            # same tiles whatever the forward split or the CPU count
            total = np.zeros((kh * kw * cin, self.out_channels), np.result_type(windows, g2))
            for rows, cols in _gathered(windows, 0, n):
                total += cols.T @ g2[rows]
            return total.reshape(self.weights.shape)

        if not need_input_grad:
            self.grad_weights = weight_gradient()
            return None

        def input_gradient() -> np.ndarray:
            weights_t = self.weights.reshape(kh * kw * cin, self.out_channels).T
            g3 = g2.reshape(n, eh * ew, self.out_channels)
            padded_h = max((out_h - 1) * sh + kh, h)
            padded_w = max((out_w - 1) * sw + kw, w)
            gxp = np.zeros((n, padded_h, padded_w, cin), dtype=grad.dtype)
            for lo, hi in _image_tiles(0, n, eh * ew):
                gcols = g3[lo:hi].reshape(-1, self.out_channels) @ weights_t
                gcols = gcols.reshape(hi - lo, eh, ew, kh, kw, cin)
                tile = gxp[lo:hi]
                for i in range(kh):
                    for j in range(kw):
                        tile[
                            :, i : i + (eh - 1) * sh + 1 : sh, j : j + (ew - 1) * sw + 1 : sw, :
                        ] += gcols[:, :, :, i, j, :]
            return gxp[:, pad_top : pad_top + h, pad_left : pad_left + w, :]

        self.grad_weights, grad_input = in_parallel(weight_gradient, input_gradient)
        return grad_input


class MaxPool2D(_Layer):
    """Non-overlapping max pooling (the stride is the kernel); trailing
    rows/columns that do not fill a window are dropped (floor semantics)."""

    def __init__(self, kernel: tuple[int, int] = (2, 2)):
        self.kernel = tuple(kernel)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeMismatch(f"maxpool expects (N, H, W, C), got {x.shape}")
        _, h, w, _ = x.shape
        kh, kw = self.kernel
        if h < kh or w < kw:
            raise ShapeMismatch(f"input {x.shape} smaller than pooling window {self.kernel}")
        out_h, out_w = h // kh, w // kw
        slots = self._slots(x, out_h, out_w)
        y = slots[0].copy()
        winner = np.zeros(y.shape, np.min_scalar_type(kh * kw - 1)) if train else None
        for k, slot in enumerate(slots[1:], 1):
            if train:
                # the last slot to beat the running maximum strictly wins,
                # so a tie keeps the first maximum in row-major order
                np.maximum(winner, np.multiply(slot > y, k, dtype=winner.dtype), out=winner)
            np.maximum(y, slot, out=y)
        if train:
            self._cache = (x.shape, winner)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_shape, winner = self._cached()
        n, h, w, c = x_shape
        kh, kw = self.kernel
        out_h, out_w = h // kh, w // kw
        self._check_grad(grad, (n, out_h, out_w, c))
        gx = np.zeros(x_shape, dtype=grad.dtype)
        # A bit mask copies grad exactly where the slot won and +0.0 elsewhere
        # (a multiply by 0 gives -0.0 and nan), far faster than copyto(where=).
        bits = f"u{grad.itemsize}"
        for k, gx_slot in enumerate(self._slots(gx, out_h, out_w)):
            keep = np.negative(winner == k, dtype=bits)
            np.bitwise_and(grad.view(bits), keep, out=gx_slot.view(bits))
        return gx

    def _slots(self, x: np.ndarray, out_h: int, out_w: int) -> list[np.ndarray]:
        """One strided view per window slot (i, j), in row-major slot order."""
        kh, kw = self.kernel
        return [x[:, i : out_h * kh : kh, j : out_w * kw : kw, :] for i in range(kh) for j in range(kw)]


class Dense(_Weighted):
    """Affine map with optional ReLU; multi-axis inputs are flattened
    row-major, and the backward pass restores the original shape."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        relu: bool = False,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        self.in_features = in_features
        self.out_features = out_features
        super().__init__((in_features, out_features), relu, rng, dtype)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n = x.shape[0]
        x2 = x.reshape(n, -1)
        if x2.shape[1] != self.in_features:
            raise ShapeMismatch(f"dense expects {self.in_features} inputs, got {x.shape}")
        tiles = np.zeros((-(-n // DENSE_TILE_ROWS) * DENSE_TILE_ROWS, self.in_features), x2.dtype)
        tiles[:n] = x2
        y = tiles.reshape(-1, DENSE_TILE_ROWS, self.in_features) @ self.weights
        y = y.reshape(-1, self.out_features)[:n] + self.bias
        mask = None
        if self.relu:
            mask = y > 0
            y = np.maximum(y, 0)
        if train:
            self._cache = (x.shape, x2, mask)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_shape, x2, mask = self._cached()
        self._check_grad(grad, (x2.shape[0], self.out_features))
        if mask is not None:
            grad = grad * mask
        self.grad_bias = grad.sum(axis=0)
        self.grad_weights = x2.T @ grad
        return (grad @ self.weights.T).reshape(x_shape)


class Softmax(_Layer):
    """Row-wise softmax with max subtraction for overflow safety."""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeMismatch(f"softmax expects (N, K), got {x.shape}")
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        if train:
            self._cache = probs
        return probs

    def backward(self, grad: np.ndarray) -> np.ndarray:
        probs = self._cached()
        self._check_grad(grad, probs.shape)
        inner = (grad * probs).sum(axis=1, keepdims=True)
        return probs * (grad - inner)
