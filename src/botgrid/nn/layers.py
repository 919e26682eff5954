"""Layer forward/backward passes.

Data layout is channels-last: activations are (N, H, W, C) for spatial
layers and (N, F) for dense layers.  Convolution is cross-correlation
(no kernel flip) with "same" zero-padding: the output spatial size is
ceil(input / stride), and when the total padding is odd the extra row
or column goes on the bottom/right.  All layers preserve the dtype of
their inputs; forward caches for the backward pass are only recorded
when train=True.  Inference still writes Conv2D's scratch buffers, which
its training cache views: never run inference between a training forward
and its backward, and never share one model across threads.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch


def _relu_std(relu: bool, fan_in: int) -> float:
    # sqrt(2/fan_in) for ReLU layers, sqrt(1/fan_in) for linear ones.
    return float(np.sqrt((2.0 if relu else 1.0) / fan_in))


def _same_padding(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out = -(-size // stride)  # ceil division
    total = max((out - 1) * stride + kernel - size, 0)
    lo = total // 2
    return out, lo, total - lo


class Conv2D:
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: tuple[int, int],
        stride: tuple[int, int] = (1, 1),
        relu: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        kh, kw = kernel
        if kh < 1 or kw < 1 or stride[0] < 1 or stride[1] < 1:
            raise ShapeMismatch(f"invalid kernel {kernel} / stride {stride}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = (kh, kw)
        self.stride = tuple(stride)
        self.relu = relu
        self.dtype = np.dtype(dtype)
        rng = rng if rng is not None else np.random.default_rng(0)
        std = _relu_std(relu, kh * kw * in_channels)
        self.weights = (
            rng.standard_normal((kh, kw, in_channels, out_channels), dtype=self.dtype) * std
        )
        self.bias = np.zeros(out_channels, dtype=self.dtype)
        self.grad_weights: np.ndarray | None = None
        self.grad_bias: np.ndarray | None = None
        self._cache = None
        self._scratch: dict[str, np.ndarray] = {}

    def _buffer(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        # Reused across steps; batch-shaped buffers dominate the step cost
        # when reallocated (and re-faulted) every call.
        buf = self._scratch.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[name] = buf
        return buf

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[2] != self.in_channels:
            raise ShapeMismatch(
                f"conv expects (H, W, {self.in_channels}), got {input_shape}"
            )
        h, w, _ = input_shape
        out_h, _, _ = _same_padding(h, self.kernel[0], self.stride[0])
        out_w, _, _ = _same_padding(w, self.kernel[1], self.stride[1])
        return (out_h, out_w, self.out_channels)

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

        xp = np.pad(x, ((0, 0), (pad_top, pad_bottom), (pad_left, pad_right), (0, 0)))
        cols = self._buffer("cols", (n, out_h, out_w, kh, kw, cin), x.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, :, :, i, j, :] = xp[
                    :, i : i + (out_h - 1) * sh + 1 : sh, j : j + (out_w - 1) * sw + 1 : sw, :
                ]
        cols2 = cols.reshape(n * out_h * out_w, kh * kw * cin)
        y2 = self._buffer("y", (n * out_h * out_w, self.out_channels), x.dtype)
        np.matmul(cols2, self.weights.reshape(kh * kw * cin, self.out_channels), out=y2)
        y2 += self.bias
        mask = None
        if self.relu:
            mask = y2 > 0
            np.maximum(y2, 0, out=y2)
        if train:
            self._cache = (x.shape, (pad_top, pad_left), cols2, mask, (out_h, out_w))
        # y2 is scratch; hand the caller an independent array.
        return y2.reshape(n, out_h, out_w, self.out_channels).copy()

    def backward(self, grad: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("backward before forward(train=True)")
        x_shape, (pad_top, pad_left), cols2, mask, (out_h, out_w) = self._cache
        n, h, w, cin = x_shape
        kh, kw = self.kernel
        sh, sw = self.stride
        if grad.shape != (n, out_h, out_w, self.out_channels):
            raise ShapeMismatch(
                f"grad shape {grad.shape} != {(n, out_h, out_w, self.out_channels)}"
            )
        g2 = grad.reshape(n * out_h * out_w, self.out_channels)
        if mask is not None:
            g2 = g2 * mask
        self.grad_bias = g2.sum(axis=0)
        self.grad_weights = (cols2.T @ g2).reshape(self.weights.shape)
        if not need_input_grad:
            return None

        gcols2 = self._buffer("gcols", (n * out_h * out_w, kh * kw * cin), grad.dtype)
        np.matmul(g2, self.weights.reshape(kh * kw * cin, self.out_channels).T, out=gcols2)
        gcols = gcols2.reshape(n, out_h, out_w, kh, kw, cin)
        padded_h = max((out_h - 1) * sh + kh, h)
        padded_w = max((out_w - 1) * sw + kw, w)
        gxp = np.zeros((n, padded_h, padded_w, cin), dtype=grad.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[
                    :, i : i + (out_h - 1) * sh + 1 : sh, j : j + (out_w - 1) * sw + 1 : sw, :
                ] += gcols[:, :, :, i, j, :]
        return gxp[:, pad_top : pad_top + h, pad_left : pad_left + w, :]

    def params(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class MaxPool2D:
    """Non-overlapping max pooling; trailing rows/columns that do not
    fill a window are dropped (floor semantics)."""

    def __init__(self, kernel: tuple[int, int] = (2, 2), stride: tuple[int, int] | None = None):
        stride = tuple(stride) if stride is not None else tuple(kernel)
        if tuple(kernel) != stride:
            raise ShapeMismatch(f"pooling requires stride == kernel, got {kernel} / {stride}")
        if kernel[0] < 1 or kernel[1] < 1:
            raise ShapeMismatch(f"invalid pooling kernel {kernel}")
        self.kernel = tuple(kernel)
        self.stride = stride
        self._cache = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeMismatch(f"maxpool expects (H, W, C), got {input_shape}")
        h, w, c = input_shape
        kh, kw = self.kernel
        if h < kh or w < kw:
            raise ShapeMismatch(f"input {input_shape} smaller than pooling window {self.kernel}")
        return (h // kh, w // kw, c)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeMismatch(f"maxpool expects (N, H, W, C), got {x.shape}")
        n, h, w, c = x.shape
        kh, kw = self.kernel
        if h < kh or w < kw:
            raise ShapeMismatch(f"input {x.shape} smaller than pooling window {self.kernel}")
        out_h, out_w = h // kh, w // kw
        xc = x[:, : out_h * kh, : out_w * kw, :]
        windows = (
            xc.reshape(n, out_h, kh, out_w, kw, c)
            .transpose(0, 1, 3, 2, 4, 5)
            .reshape(n, out_h, out_w, kh * kw, c)
        )
        y = windows.max(axis=3)
        if train:
            # argmax returns the first maximum in row-major window order,
            # which is where the backward pass routes the gradient.
            self._cache = (x.shape, windows.argmax(axis=3))
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward(train=True)")
        x_shape, argmax = self._cache
        n, h, w, c = x_shape
        kh, kw = self.kernel
        out_h, out_w = h // kh, w // kw
        if grad.shape != (n, out_h, out_w, c):
            raise ShapeMismatch(f"grad shape {grad.shape} != {(n, out_h, out_w, c)}")
        gw = np.zeros((n, out_h, out_w, kh * kw, c), dtype=grad.dtype)
        np.put_along_axis(gw, argmax[:, :, :, None, :], grad[:, :, :, None, :], axis=3)
        gx = np.zeros(x_shape, dtype=grad.dtype)
        gx[:, : out_h * kh, : out_w * kw, :] = (
            gw.reshape(n, out_h, out_w, kh, kw, c)
            .transpose(0, 1, 3, 2, 4, 5)
            .reshape(n, out_h * kh, out_w * kw, c)
        )
        return gx

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []


class Dense:
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
        self.relu = relu
        self.dtype = np.dtype(dtype)
        rng = rng if rng is not None else np.random.default_rng(0)
        std = _relu_std(relu, in_features)
        self.weights = rng.standard_normal((in_features, out_features), dtype=self.dtype) * std
        self.bias = np.zeros(out_features, dtype=self.dtype)
        self.grad_weights: np.ndarray | None = None
        self.grad_bias: np.ndarray | None = None
        self._cache = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        flat = int(np.prod(input_shape))
        if flat != self.in_features:
            raise ShapeMismatch(
                f"dense expects {self.in_features} inputs, got {input_shape} ({flat})"
            )
        return (self.out_features,)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n = x.shape[0]
        x2 = x.reshape(n, -1)
        if x2.shape[1] != self.in_features:
            raise ShapeMismatch(f"dense expects {self.in_features} inputs, got {x.shape}")
        y = x2 @ self.weights + self.bias
        mask = None
        if self.relu:
            mask = y > 0
            y = np.maximum(y, 0)
        if train:
            self._cache = (x.shape, x2, mask)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward(train=True)")
        x_shape, x2, mask = self._cache
        if grad.shape != (x2.shape[0], self.out_features):
            raise ShapeMismatch(
                f"grad shape {grad.shape} != {(x2.shape[0], self.out_features)}"
            )
        if mask is not None:
            grad = grad * mask
        self.grad_bias = grad.sum(axis=0)
        self.grad_weights = x2.T @ grad
        return (grad @ self.weights.T).reshape(x_shape)

    def params(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class Softmax:
    """Row-wise softmax with max subtraction for overflow safety."""

    def __init__(self):
        self._cache = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1:
            raise ShapeMismatch(f"softmax expects a flat input, got {input_shape}")
        return input_shape

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
        if self._cache is None:
            raise RuntimeError("backward before forward(train=True)")
        probs = self._cache
        if grad.shape != probs.shape:
            raise ShapeMismatch(f"grad shape {grad.shape} != {probs.shape}")
        inner = (grad * probs).sum(axis=1, keepdims=True)
        return probs * (grad - inner)

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []
