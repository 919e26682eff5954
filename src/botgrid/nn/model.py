"""Layer-stack model: construction and binary persistence.

The reference architecture is an 11-stage stack for n x n x 1 inputs
(n = 41 by default): four Conv+MaxPool pairs (32, 128, 128, 256 kernels)
followed by Dense 256 -> Dense 16 -> Dense 2 with a final softmax.  The
first dense layer owns the row-major flatten of the (2, 2, 256) feature
map into 1024 inputs.

Layer geometry is worked out once, before anything is allocated:
`CnnModel` builds its layers from the shapes `_layer_shapes` returns,
and `load_model` bounds a file's parameter count by the same shapes.
The same walk, run back from the output, yields the read extent of each
conv: the top-left rows and columns of its output that a later layer
reads, which are all that it computes.  Max pooling takes the floor, so
at n = 41 pool1 never reads conv1's last row and column, pool4 never
reads conv4's, and the borders of conv2 and conv3 that feed only unread
outputs go unread too.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import (
    BadMagic,
    ChecksumMismatch,
    ShapeMismatch,
    TruncatedChunk,
    VersionMismatch,
)
from .layers import Conv2D, Dense, MaxPool2D, Softmax, _same_padding

MODEL_MAGIC = b"BOTGRIDM"
MODEL_VERSION = 1


_KIND_CODES = {"conv": 0, "maxpool": 1, "dense": 2, "softmax": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
# The fields each kind reads.  A spec sets each of them (relu may stay
# False) and leaves the others at their defaults, so the model file's one
# size field per layer holds all of a spec; load_model reads back only these.
_KIND_FIELDS = {
    "conv": ("relu", "kernel", "stride", "out_channels"),
    "maxpool": ("kernel", "stride"),
    "dense": ("relu", "out_units"),
    "softmax": (),
}


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv | maxpool | dense | softmax
    relu: bool = False
    kernel: tuple[int, int] | None = None
    stride: tuple[int, int] | None = None
    out_channels: int | None = None
    out_units: int | None = None

    def __post_init__(self):
        uses = _KIND_FIELDS.get(self.kind)
        if uses is None:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.relu and "relu" not in uses:
            raise ValueError(f"{self.kind} layers take no relu")
        for field in ("kernel", "stride", "out_channels", "out_units"):
            if (getattr(self, field) is None) == (field in uses):
                verb = "need" if field in uses else "take no"
                raise ValueError(f"{self.kind} layers {verb} {field}")


REFERENCE_LAYERS: tuple[LayerSpec, ...] = (
    LayerSpec("conv", relu=True, kernel=(5, 5), stride=(1, 1), out_channels=32),
    LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
    LayerSpec("conv", relu=True, kernel=(5, 5), stride=(1, 1), out_channels=128),
    LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
    LayerSpec("conv", relu=True, kernel=(3, 3), stride=(1, 1), out_channels=128),
    LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
    LayerSpec("conv", relu=True, kernel=(1, 1), stride=(1, 1), out_channels=256),
    LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
    LayerSpec("dense", relu=True, out_units=256),
    LayerSpec("dense", relu=True, out_units=16),
    LayerSpec("dense", relu=False, out_units=2),
    LayerSpec("softmax"),
)


class CnnModel:
    def __init__(
        self,
        specs: tuple[LayerSpec, ...],
        input_shape: tuple[int, int, int],
        seed: int = 0,
        dtype=np.float32,
    ):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.specs = tuple(specs)
        self.input_shape = tuple(input_shape)
        self.seed = seed
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)

        shapes = _layer_shapes(self.specs, self.input_shape)
        self.output_shapes = shapes[1:]
        self.layers = []
        for spec, shape, extent in zip(self.specs, shapes, _read_extents(self.specs, shapes)):
            if spec.kind == "conv":
                layer = Conv2D(
                    shape[2], spec.out_channels, spec.kernel, spec.stride,
                    relu=spec.relu, rng=rng, dtype=self.dtype, extent=extent,
                )
            elif spec.kind == "maxpool":
                layer = MaxPool2D(spec.kernel)  # _layer_shapes checked stride == kernel
            elif spec.kind == "dense":
                layer = Dense(
                    math.prod(shape), spec.out_units,
                    relu=spec.relu, rng=rng, dtype=self.dtype,
                )
            else:
                layer = Softmax()
            self.layers.append(layer)

    def forward(self, batch: np.ndarray, train: bool = False) -> np.ndarray:
        batch = np.asarray(batch)
        if batch.shape[1:] != self.input_shape:
            raise ShapeMismatch(
                f"expected batch of {self.input_shape}, got {batch.shape}"
            )
        x = batch.astype(self.dtype, copy=False)
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        """Store every layer's parameter gradients.  Returns the input
        gradient, or None when the first layer is a Conv2D: nothing reads
        the gradient of the input images, so that layer skips it.

        Each layer's backward cache is released as soon as its backward
        returns, so a model holds no cache between training steps and the
        next step's forward does not allocate beside the last step's."""
        g = grad_output
        for layer in reversed(self.layers):
            if layer is self.layers[0] and isinstance(layer, Conv2D):
                g = layer.backward(g, need_input_grad=False)
            else:
                g = layer.backward(g)
            layer._cache = None
        return g

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Class index per sample (argmax of the output distribution)."""
        return np.argmax(self.forward(batch), axis=1)

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]


def _layer_shapes(specs, input_shape) -> list[tuple[int, ...]]:
    """The input shape, then each layer's output shape, worked out without
    allocating.  Raises ShapeMismatch for an input that is not (h, w, c) and
    at the first spec the shape cannot take."""
    if len(input_shape) != 3:
        raise ShapeMismatch(f"expected an (h, w, c) input shape, got {tuple(input_shape)}")
    shapes = [tuple(input_shape)]
    for spec in specs:
        shape = shapes[-1]
        if spec.kind in ("conv", "maxpool"):
            (kh, kw), (sh, sw) = spec.kernel, spec.stride
            if len(shape) != 3:
                raise ShapeMismatch(f"{spec.kind} layer after flat shape {shape}")
            if min(kh, kw, sh, sw) < 1:
                raise ShapeMismatch(f"invalid kernel {spec.kernel} / stride {spec.stride}")
        if spec.kind == "conv":
            if shape[2] < 1 or spec.out_channels < 1:
                raise ShapeMismatch(f"invalid channels {shape[2]} -> {spec.out_channels}")
            h, w = _same_padding(shape[0], kh, sh)[0], _same_padding(shape[1], kw, sw)[0]
            shape = (h, w, spec.out_channels)
        elif spec.kind == "maxpool":
            if (kh, kw) != (sh, sw):
                raise ShapeMismatch(
                    f"pooling requires stride == kernel, got {spec.kernel} / {spec.stride}"
                )
            if shape[0] < kh or shape[1] < kw:
                raise ShapeMismatch(f"input {shape} smaller than pooling window {spec.kernel}")
            shape = (shape[0] // kh, shape[1] // kw, shape[2])
        elif spec.kind == "dense":
            if math.prod(shape) < 1 or spec.out_units < 1:
                raise ShapeMismatch(f"invalid features {math.prod(shape)} -> {spec.out_units}")
            shape = (spec.out_units,)
        elif len(shape) != 1:
            raise ShapeMismatch(f"softmax expects a flat input, got {shape}")
        shapes.append(shape)
    return shapes


def _read_extents(specs, shapes) -> list[tuple[int, int] | None]:
    """For each layer, the (rows, cols) at the top left of its output that
    a later layer reads, or None for a flat output.  Walks back from the
    model output: a dense layer reads all of its input, a max-pool reads
    kernel x the extent read of its output, and a conv reads input rows
    [0, (r - 1) * stride + kernel - pad_top), capped at the input size."""
    extents: list[tuple[int, int] | None] = [None] * len(specs)
    read = None  # what later layers read of the current layer's output; None: all
    for i in reversed(range(len(specs))):
        spec = specs[i]
        if spec.kind not in ("conv", "maxpool"):
            read = None
            continue
        extents[i] = rows, cols = read or shapes[i + 1][:2]
        (h, w), (kh, kw), (sh, sw) = shapes[i][:2], spec.kernel, spec.stride
        if spec.kind == "maxpool":
            read = (rows * kh, cols * kw)
        else:
            read = (
                min((rows - 1) * sh + kh - _same_padding(h, kh, sh)[1], h),
                min((cols - 1) * sw + kw - _same_padding(w, kw, sw)[1], w),
            )
    return extents


def build_reference_model(seed: int = 0, n: int = 41, dtype=np.float32) -> CnnModel:
    return CnnModel(REFERENCE_LAYERS, (n, n, 1), seed, dtype)


def save_model(model: CnnModel, path) -> None:
    """Versioned container; parameters stored as 64-bit little-endian."""
    parts = [struct.pack("<BQ", 0 if model.dtype == np.float32 else 1, model.seed)]
    parts.append(struct.pack("<B", len(model.input_shape)))
    parts.append(struct.pack(f"<{len(model.input_shape)}I", *model.input_shape))
    parts.append(struct.pack("<I", len(model.specs)))
    for spec in model.specs:
        kernel = spec.kernel or (0, 0)
        stride = spec.stride or (0, 0)
        out = spec.out_channels or spec.out_units or 0
        parts.append(
            struct.pack(
                "<BB4HI",
                _KIND_CODES[spec.kind], int(spec.relu),
                kernel[0], kernel[1], stride[0], stride[1], out,
            )
        )
    params = model.params()
    parts.append(struct.pack("<I", len(params)))
    for p in params:
        parts.append(struct.pack("<B", p.ndim))
        parts.append(struct.pack(f"<{p.ndim}I", *p.shape))
        parts.append(p.astype("<f8").tobytes(order="C"))
    payload = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IQ", MODEL_VERSION, len(payload)))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_model(path) -> CnnModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) + 12:
        raise TruncatedChunk(f"{path}: model file too short")
    if blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise BadMagic(f"{path}: not a model file")
    version, payload_len = struct.unpack_from("<IQ", blob, len(MODEL_MAGIC))
    if version != MODEL_VERSION:
        raise VersionMismatch(f"{path}: format version {version}, supported {MODEL_VERSION}")
    start = len(MODEL_MAGIC) + 12
    trailing = len(blob) - (start + payload_len + 4)
    if trailing < 0:
        raise TruncatedChunk(f"{path}: payload truncated")
    if trailing:
        raise ChecksumMismatch(f"{path}: {trailing} trailing bytes after the checksum")
    payload = blob[start : start + payload_len]
    (stored_crc,) = struct.unpack_from("<I", blob, start + payload_len)
    if zlib.crc32(payload) != stored_crc:
        raise ChecksumMismatch(f"{path}: payload checksum mismatch")

    rd = _PayloadReader(payload, path)
    dtype_code, seed = rd.unpack("<BQ")
    if dtype_code not in (0, 1):
        raise ChecksumMismatch(f"{path}: unknown dtype code {dtype_code}")
    dtype = np.float32 if dtype_code == 0 else np.float64
    (rank,) = rd.unpack("<B")
    if rank != 3:
        raise ChecksumMismatch(f"{path}: input rank {rank}, expected 3")
    input_shape = rd.unpack(f"<{rank}I")
    (n_layers,) = rd.unpack("<I")
    specs = []
    for _ in range(n_layers):
        kind_code, relu, kh, kw, sh, sw, out = rd.unpack("<BB4HI")
        kind = _KIND_NAMES.get(kind_code)
        if kind is None:
            raise ChecksumMismatch(f"{path}: unknown layer kind code {kind_code}")
        stored = dict(relu=bool(relu), kernel=(kh, kw), stride=(sh, sw),
                      out_channels=out, out_units=out)
        specs.append(LayerSpec(kind, **{f: stored[f] for f in _KIND_FIELDS[kind]}))
    try:
        shapes = _layer_shapes(specs, input_shape)
    except ShapeMismatch as exc:
        raise ChecksumMismatch(f"{path}: layer geometry rejected: {exc}") from exc
    # Bound the allocation by the file before building any layer: every
    # parameter is stored as 8 bytes in what is left of the payload.
    implied = 0
    for spec, shape in zip(specs, shapes):
        if spec.kind == "conv":
            implied += (math.prod(spec.kernel) * shape[2] + 1) * spec.out_channels
        elif spec.kind == "dense":
            implied += (math.prod(shape) + 1) * spec.out_units
    if 8 * implied > len(payload) - rd.pos:
        raise ChecksumMismatch(
            f"{path}: layer specs imply {implied} parameters, "
            f"more than the payload holds"
        )
    model = CnnModel(tuple(specs), input_shape, seed, dtype)
    params = model.params()
    (n_params,) = rd.unpack("<I")
    if n_params != len(params):
        raise ChecksumMismatch(f"{path}: {n_params} stored params, model has {len(params)}")
    for p in params:
        (ndim,) = rd.unpack("<B")
        shape = rd.unpack(f"<{ndim}I")
        if shape != p.shape:
            raise ChecksumMismatch(f"{path}: stored shape {shape} != expected {p.shape}")
        values = rd.raw(8 * int(np.prod(shape)))
        # a stored float64 past float32's range would load as inf
        with np.errstate(over="ignore"):
            loaded = np.frombuffer(values, dtype="<f8").reshape(shape).astype(model.dtype)
        if not np.isfinite(loaded).all():
            raise ChecksumMismatch(f"{path}: non-finite parameter values")
        np.copyto(p, loaded)
    if rd.pos != len(payload):
        raise ChecksumMismatch(
            f"{path}: {len(payload) - rd.pos} trailing bytes after the last parameter"
        )
    return model


class _PayloadReader:
    def __init__(self, payload: bytes, source):
        self.payload = payload
        self.pos = 0
        self.source = source

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.payload):
            raise TruncatedChunk(f"{self.source}: model payload truncated")
        values = struct.unpack_from(fmt, self.payload, self.pos)
        self.pos += size
        return values

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.payload):
            raise TruncatedChunk(f"{self.source}: model payload truncated")
        out = self.payload[self.pos : self.pos + size]
        self.pos += size
        return out
