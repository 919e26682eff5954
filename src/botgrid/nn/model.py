"""Layer-stack model: construction and binary persistence.

The reference architecture is an 11-stage stack for n x n x 1 inputs
(n = 41 by default): four Conv+MaxPool pairs (32, 128, 128, 256 kernels)
followed by Dense 256 -> Dense 16 -> Dense 2 with a final softmax.  The
first dense layer owns the row-major flatten of the (2, 2, 256) feature
map into 1024 inputs.
"""

from __future__ import annotations

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
from .layers import Conv2D, Dense, MaxPool2D, Softmax

MODEL_MAGIC = b"BOTGRIDM"
MODEL_VERSION = 1


_KIND_CODES = {"conv": 0, "maxpool": 1, "dense": 2, "softmax": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv | maxpool | dense | softmax
    relu: bool = False
    kernel: tuple[int, int] | None = None
    stride: tuple[int, int] | None = None
    out_channels: int | None = None
    out_units: int | None = None

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv" and (
            self.kernel is None or self.stride is None or self.out_channels is None
        ):
            raise ValueError("conv layers need kernel, stride, and out_channels")
        if self.kind == "maxpool" and (self.kernel is None or self.stride is None):
            raise ValueError("maxpool layers need kernel and stride")
        if self.kind == "dense" and self.out_units is None:
            raise ValueError("dense layers need out_units")


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
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

        self.layers = []
        self.output_shapes: list[tuple[int, ...]] = []
        shape = self.input_shape
        for spec in self.specs:
            if spec.kind == "conv":
                if len(shape) != 3:
                    raise ShapeMismatch(f"conv layer after flat shape {shape}")
                layer = Conv2D(
                    shape[2], spec.out_channels, spec.kernel, spec.stride,
                    relu=spec.relu, rng=rng, dtype=self.dtype,
                )
            elif spec.kind == "maxpool":
                layer = MaxPool2D(spec.kernel, spec.stride)
            elif spec.kind == "dense":
                layer = Dense(
                    int(np.prod(shape)), spec.out_units,
                    relu=spec.relu, rng=rng, dtype=self.dtype,
                )
            else:
                layer = Softmax()
            shape = layer.output_shape(shape)
            self.layers.append(layer)
            self.output_shapes.append(shape)

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

    def backward(self, grad_output: np.ndarray, need_input_grad: bool = False) -> np.ndarray | None:
        g = grad_output
        for position, layer in enumerate(reversed(self.layers)):
            at_input = position == len(self.layers) - 1
            if at_input and not need_input_grad and isinstance(layer, Conv2D):
                layer.backward(g, need_input_grad=False)
                return None
            g = layer.backward(g)
        return g

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Class index per sample (argmax of the output distribution)."""
        return np.argmax(self.forward(batch), axis=1)

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]


def build_model(
    specs, input_shape: tuple[int, int, int], seed: int = 0, dtype=np.float32
) -> CnnModel:
    return CnnModel(tuple(specs), input_shape, seed, dtype)


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
    if start + payload_len + 4 > len(blob):
        raise TruncatedChunk(f"{path}: payload truncated")
    payload = blob[start : start + payload_len]
    (stored_crc,) = struct.unpack_from("<I", blob, start + payload_len)
    if zlib.crc32(payload) != stored_crc:
        raise ChecksumMismatch(f"{path}: payload checksum mismatch")

    rd = _PayloadReader(payload, path)
    dtype_code, seed = rd.unpack("<BQ")
    dtype = np.float32 if dtype_code == 0 else np.float64
    (rank,) = rd.unpack("<B")
    input_shape = rd.unpack(f"<{rank}I")
    (n_layers,) = rd.unpack("<I")
    specs = []
    for _ in range(n_layers):
        kind_code, relu, kh, kw, sh, sw, out = rd.unpack("<BB4HI")
        kind = _KIND_NAMES.get(kind_code)
        if kind is None:
            raise ChecksumMismatch(f"{path}: unknown layer kind code {kind_code}")
        specs.append(
            LayerSpec(
                kind,
                relu=bool(relu),
                kernel=(kh, kw) if kind in ("conv", "maxpool") else None,
                stride=(sh, sw) if kind in ("conv", "maxpool") else None,
                out_channels=out if kind == "conv" else None,
                out_units=out if kind == "dense" else None,
            )
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
        loaded = np.frombuffer(values, dtype="<f8").reshape(shape)
        np.copyto(p, loaded.astype(model.dtype))
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
