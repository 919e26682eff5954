import numpy as np
import pytest

from botgrid.errors import (
    BadMagic,
    ChecksumMismatch,
    ShapeMismatch,
    TruncatedChunk,
    VersionMismatch,
)
from botgrid.nn import (
    CnnModel,
    LayerSpec,
    REFERENCE_LAYERS,
    build_model,
    build_reference_model,
    load_model,
    save_model,
)

TABLE_SHAPES = [
    (41, 41, 32),
    (20, 20, 32),
    (20, 20, 128),
    (10, 10, 128),
    (10, 10, 128),
    (5, 5, 128),
    (5, 5, 256),
    (2, 2, 256),
    (256,),
    (16,),
    (2,),
    (2,),
]


def test_shape_trace_matches_architecture_table():
    model = build_reference_model(seed=0)
    assert model.output_shapes == TABLE_SHAPES
    # the first dense layer owns the row-major flatten of (2, 2, 256)
    dense1 = model.layers[8]
    assert dense1.in_features == 1024


def test_equal_seeds_bit_identical():
    a = build_reference_model(seed=1234)
    b = build_reference_model(seed=1234)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa, pb)
    c = build_reference_model(seed=1235)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.params(), c.params()))


def test_parameter_count_matches_layer_formulas():
    model = build_reference_model(seed=0)
    expected = 0
    shape = (41, 41, 1)
    for spec in REFERENCE_LAYERS:
        if spec.kind == "conv":
            kh, kw = spec.kernel
            expected += kh * kw * shape[2] * spec.out_channels + spec.out_channels
            shape = (shape[0], shape[1], spec.out_channels)
        elif spec.kind == "maxpool":
            shape = (shape[0] // 2, shape[1] // 2, shape[2])
        elif spec.kind == "dense":
            flat = int(np.prod(shape))
            expected += flat * spec.out_units + spec.out_units
            shape = (spec.out_units,)
    assert sum(p.size for p in model.params()) == expected == 550_514


def test_probabilities_sum_to_one():
    model = build_reference_model(seed=3)
    x = np.random.default_rng(0).random((4, 41, 41, 1), dtype=np.float32)
    probs = model.forward(x)
    assert probs.shape == (4, 2)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs >= 0)


def test_forward_rejects_wrong_input_shape():
    model = build_reference_model(seed=0)
    with pytest.raises(ShapeMismatch):
        model.forward(np.zeros((1, 40, 41, 1), np.float32))


def test_invalid_stack_rejected_at_build():
    specs = (
        LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
        LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
    )
    with pytest.raises(ShapeMismatch):
        build_model(specs, (3, 3, 1), seed=0)  # second pool sees a 1x1 input


REDUCED = (
    LayerSpec("conv", relu=True, kernel=(3, 3), stride=(1, 1), out_channels=4),
    LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
    LayerSpec("conv", relu=True, kernel=(3, 3), stride=(1, 1), out_channels=8),
    LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
    LayerSpec("dense", relu=True, out_units=16),
    LayerSpec("dense", out_units=2),
    LayerSpec("softmax"),
)


def test_save_load_round_trip(tmp_path):
    model = build_model(REDUCED, (9, 9, 1), seed=21, dtype=np.float64)
    x = np.random.default_rng(1).random((3, 9, 9, 1))
    before = model.forward(x)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded.forward(x), before)


def test_save_load_float32_round_trip(tmp_path):
    model = build_reference_model(seed=2)
    x = np.random.default_rng(2).random((2, 41, 41, 1), dtype=np.float32)
    before = model.forward(x)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded.forward(x), before)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        load_model(path)


def test_load_rejects_future_version(tmp_path):
    model = build_model(REDUCED, (9, 9, 1), seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # version field follows the 8-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_load_rejects_truncation(tmp_path):
    model = build_model(REDUCED, (9, 9, 1), seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises((ChecksumMismatch, TruncatedChunk)):
        load_model(path)


def test_load_rejects_flipped_payload_byte(tmp_path):
    model = build_model(REDUCED, (9, 9, 1), seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises((ChecksumMismatch, TruncatedChunk, VersionMismatch)):
        load_model(path)


def test_inference_does_not_mutate_state():
    model = build_model(REDUCED, (9, 9, 1), seed=4, dtype=np.float64)
    x = np.random.default_rng(3).random((2, 9, 9, 1))
    p1 = model.forward(x)
    p2 = model.forward(x)
    assert np.array_equal(p1, p2)
    for layer in model.layers:
        assert layer._cache is None  # backward caches only appear with train=True
