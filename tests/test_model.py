import random
import struct
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from botgrid.cli import main
from botgrid.errors import (
    BadMagic,
    ChecksumMismatch,
    ParseError,
    ShapeMismatch,
    TruncatedChunk,
    VersionMismatch,
)
from botgrid.nn.layers import Conv2D
from botgrid.nn.model import (
    CnnModel,
    LayerSpec,
    REFERENCE_LAYERS,
    build_reference_model,
    load_model,
    save_model,
)

from conv_reference import computing_every_output
from traced_memory import peak_bytes_of

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
        CnnModel(specs, (3, 3, 1), seed=0)  # second pool sees a 1x1 input


# A model file holds one size per layer, out_channels or out_units, so a
# dense spec that also held out_channels=7 would build its Dense with
# out_units but save 7 units, a file that no longer loads.
@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(kind="dense", out_units=2, out_channels=7), "dense layers take no out_channels"),
        (dict(kind="dense", out_units=2, kernel=(3, 3)), "dense layers take no kernel"),
        (dict(kind="conv", kernel=(3, 3), stride=(1, 1), out_channels=4, out_units=4),
         "conv layers take no out_units"),
        (dict(kind="maxpool", relu=True, kernel=(2, 2), stride=(2, 2)),
         "maxpool layers take no relu"),
        (dict(kind="softmax", stride=(1, 1)), "softmax layers take no stride"),
        (dict(kind="conv", kernel=(3, 3), out_channels=4), "conv layers need stride"),
        (dict(kind="dense"), "dense layers need out_units"),
        (dict(kind="flatten"), "unknown layer kind 'flatten'"),
    ],
    ids=["dense-channels", "dense-kernel", "conv-units", "pool-relu", "softmax-stride",
         "conv-stride", "dense-units", "unknown-kind"],
)
def test_a_spec_sets_exactly_the_fields_its_kind_uses(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LayerSpec(**fields)


def test_a_model_takes_an_h_w_c_input(tmp_path):
    # load_model reads only rank-3 inputs, so a model on a (5,) input would
    # save a file that does not load.
    specs = (LayerSpec("dense", out_units=2), LayerSpec("softmax"))
    with pytest.raises(ShapeMismatch, match=r"expected an \(h, w, c\) input shape, got \(5,\)"):
        CnnModel(specs, (5,))
    model = CnnModel(specs, (1, 1, 5), seed=3, dtype=np.float64)
    save_model(model, tmp_path / "model.bin")
    loaded = load_model(tmp_path / "model.bin")
    assert loaded.input_shape == (1, 1, 5)
    x = np.random.default_rng(3).random((4, 1, 1, 5))
    assert np.array_equal(loaded.forward(x), model.forward(x))


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
    model = CnnModel(REDUCED, (9, 9, 1), seed=21, dtype=np.float64)
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
    model = CnnModel(REDUCED, (9, 9, 1), seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # version field follows the 8-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_load_rejects_truncation(tmp_path):
    model = CnnModel(REDUCED, (9, 9, 1), seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises((ChecksumMismatch, TruncatedChunk)):
        load_model(path)


def test_load_rejects_flipped_payload_byte(tmp_path):
    model = CnnModel(REDUCED, (9, 9, 1), seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises((ChecksumMismatch, TruncatedChunk, VersionMismatch)):
        load_model(path)


def test_inference_does_not_mutate_state():
    model = CnnModel(REDUCED, (9, 9, 1), seed=4, dtype=np.float64)
    x = np.random.default_rng(3).random((2, 9, 9, 1))
    p1 = model.forward(x)
    p2 = model.forward(x)
    assert np.array_equal(p1, p2)
    for layer in model.layers:
        assert layer._cache is None  # backward caches only appear with train=True


def _train_pass_grads(model, a, interleave=None):
    probs = model.forward(a, train=True)
    if interleave is not None:
        model.forward(interleave)
    grad = np.zeros_like(probs)
    grad[:, 1] = 1
    model.backward(grad)
    return model.grads()


def test_interleaved_inference_leaves_gradients_unchanged():
    rng = np.random.default_rng(0)
    a, b = (
        rng.integers(0, 2, size=(8, 41, 41, 1)).astype(np.float32) for _ in range(2)
    )
    expected = _train_pass_grads(build_reference_model(seed=3), a)
    got = _train_pass_grads(build_reference_model(seed=3), a, interleave=b)
    for g_expected, g_got in zip(expected, got):
        assert np.array_equal(g_expected, g_got)


def test_forward_is_batch_invariant():
    # evaluate forwards distinct images in chunks and predict one at a time,
    # and both rely on this: any forward gives each row the bits of a
    # whole-batch one, in either dtype
    for dtype in (np.float32, np.float64):
        model = build_reference_model(seed=3, dtype=dtype)
        rng = np.random.default_rng(2)
        v = (rng.random((30, 41)) < 0.3).astype(dtype)
        v = np.concatenate([v, v[rng.integers(0, 30, 10)]])
        images = (1 - v[:, :, None] * v[:, None, :])[..., None]
        whole = model.forward(images)
        for size in (1, 2, 3, 4, 5, 16):
            chunked = np.concatenate(
                [model.forward(images[i : i + size]) for i in range(0, len(images), size)]
            )
            assert chunked.tobytes() == whole.tobytes()
        for m in range(1, len(images)):
            assert model.forward(images[:m]).tobytes() == whole[:m].tobytes()
        order = rng.permutation(len(images))
        assert model.forward(images[order]).tobytes() == whole[order].tobytes()


def test_threaded_inference_matches_serial():
    model = build_reference_model(seed=3)
    rng = np.random.default_rng(1)
    batches = [
        rng.integers(0, 2, size=(8, 41, 41, 1)).astype(np.float32) for _ in range(16)
    ]
    serial = [model.forward(x) for x in batches]
    with ThreadPoolExecutor(4) as pool:
        for _ in range(5):
            for want, got in zip(serial, pool.map(model.forward, batches)):
                assert np.array_equal(want, got)


def conv_extents(model):
    return [layer.extent for layer in model.layers if isinstance(layer, Conv2D)]


def test_each_conv_computes_only_what_a_later_layer_reads():
    # At n = 41 pool1 drops conv1's row and column 40 and pool4 drops
    # conv4's row and column 4; the other borders trace back to those.
    assert conv_extents(build_reference_model(seed=0)) == [(40, 40), (18, 18), (8, 8), (4, 4)]
    for n in (16, 64):
        model = build_reference_model(seed=0, n=n)
        whole = [
            shape[:2]
            for layer, shape in zip(model.layers, model.output_shapes)
            if isinstance(layer, Conv2D)
        ]
        assert conv_extents(model) == whole
    assert conv_extents(CnnModel(REDUCED, (9, 9, 1)))[0] == (8, 8)


INFERENCE_MODELS = {
    "n41": lambda dtype: build_reference_model(seed=6, dtype=dtype),
    "n23": lambda dtype: build_reference_model(seed=6, n=23, dtype=dtype),
    "reduced9x9": lambda dtype: CnnModel(REDUCED, (9, 9, 1), seed=6, dtype=dtype),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(INFERENCE_MODELS))
def test_forward_is_bitwise_the_full_computation(name, dtype):
    model = INFERENCE_MODELS[name](dtype)
    full = computing_every_output(INFERENCE_MODELS[name](dtype))
    assert conv_extents(model) != conv_extents(full)
    rng = np.random.default_rng(8)
    for batch in (1, 3, 4, 16, 37):
        x = rng.random((batch, *model.input_shape)).astype(dtype)
        assert model.forward(x).tobytes() == full.forward(x).tobytes()


def test_save_load_keeps_read_extents_and_forward_bytes(tmp_path):
    model = build_reference_model(seed=2)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert conv_extents(loaded) == conv_extents(model)
    x = np.random.default_rng(4).random((5, 41, 41, 1), dtype=np.float32)
    want = computing_every_output(build_reference_model(seed=2)).forward(x)
    assert loaded.forward(x).tobytes() == want.tobytes()


# Offsets into a saved reference model.  The payload follows the magic,
# version and length (20 bytes): dtype code and seed (9), input rank (1),
# three dims (12), layer count (4), then 14 bytes per layer spec with its
# unit count at +10.
PAYLOAD = 8 + 12
INPUT_CHANNELS = PAYLOAD + 9 + 1 + 8
SPECS = PAYLOAD + 9 + 1 + 12 + 4
CONV1_CHANNELS = SPECS + 10
DENSE1_UNITS = SPECS + 8 * 14 + 10
DENSE2_UNITS = SPECS + 9 * 14 + 10
POOL1_KERNEL_AND_STRIDE = SPECS + 14 + 2
# conv1's first stored weight follows the parameter count (4 bytes), its
# rank (1) and its four dims (16)
CONV1_FIRST_WEIGHT = SPECS + len(REFERENCE_LAYERS) * 14 + 4 + 1 + 16


def with_crc(edited: bytearray) -> bytes:
    struct.pack_into("<I", edited, len(edited) - 4, zlib.crc32(edited[PAYLOAD:-4]))
    return bytes(edited)


def with_payload(blob: bytes, payload: bytes) -> bytes:
    """A saved model file with another payload, its length and the CRC
    fixed."""
    edited = bytearray(blob[:PAYLOAD] + payload + bytes(4))
    struct.pack_into("<Q", edited, PAYLOAD - 8, len(payload))
    return with_crc(edited)


def save_reduced_with_trailing_bytes(path) -> None:
    save_model(CnnModel(REDUCED, (9, 9, 1), seed=21), path)
    blob = path.read_bytes()
    path.write_bytes(with_payload(blob, blob[PAYLOAD:-4] + bytes(8)))


def save_reduced_with_bytes_after_crc(path) -> None:
    save_model(CnnModel(REDUCED, (9, 9, 1), seed=21), path)
    path.write_bytes(path.read_bytes() + bytes(21_000))


def forge_reference_model(path, offset, fmt, *values) -> bytes:
    """Save a reference model, overwrite values at offset, fix the CRC."""
    save_model(build_reference_model(seed=0), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, *values)
    forged = with_crc(blob)
    path.write_bytes(forged)
    return forged


def flip_conv1_exponent(path) -> None:
    """Save a reference model with the exponent MSB (bit 6 of the last
    little-endian byte) of conv1's first weight flipped, CRC fixed: the
    weight becomes about 1e307, past float32's range."""
    save_model(build_reference_model(seed=3), path)
    blob = bytearray(path.read_bytes())
    blob[CONV1_FIRST_WEIGHT + 7] ^= 1 << 6
    path.write_bytes(with_crc(blob))


@pytest.mark.parametrize(
    "offset, fmt, value",
    [
        (DENSE1_UNITS, "<I", 8192),
        (PAYLOAD, "<B", 2),
        (PAYLOAD + 9, "<B", 2),
        (CONV1_CHANNELS, "<I", 0),
        (INPUT_CHANNELS, "<I", 0),
        (DENSE2_UNITS, "<I", 0),
    ],
    ids=["dense-units", "dtype-code", "rank", "conv-channels-0", "input-channels-0",
         "dense-units-0"],
)
def test_forged_model_fails_before_allocating(tmp_path, offset, fmt, value):
    path = tmp_path / "model.bin"
    blob = forge_reference_model(path, offset, fmt, value)
    assert peak_bytes_of(lambda: pytest.raises(ChecksumMismatch, load_model, path)) < 3 * len(blob)


def test_model_with_rejected_geometry_is_a_parse_error(tmp_path):
    # A valid CRC over a 64x64 pooling window on the 41x41 feature map.
    path = tmp_path / "model.bin"
    forge_reference_model(path, POOL1_KERNEL_AND_STRIDE, "<4H", 64, 64, 64, 64)
    with pytest.raises(ChecksumMismatch, match="smaller than pooling window"):
        load_model(path)


def test_model_with_non_finite_weight_is_a_parse_error(tmp_path):
    path = tmp_path / "model.bin"
    flip_conv1_exponent(path)
    with pytest.raises(ChecksumMismatch, match="non-finite"):
        load_model(path)


def test_model_with_trailing_payload_bytes_is_a_parse_error(tmp_path):
    path = tmp_path / "model.bin"
    save_reduced_with_trailing_bytes(path)
    with pytest.raises(ChecksumMismatch, match="8 trailing bytes"):
        load_model(path)


def test_model_with_bytes_after_its_checksum_is_a_parse_error(tmp_path):
    # A file that save_model wrote ends at its CRC-32; one that goes on is
    # not a model file, even when the part up to the CRC would load.
    path = tmp_path / "model.bin"
    save_reduced_with_bytes_after_crc(path)
    with pytest.raises(ChecksumMismatch, match="21000 trailing bytes after the checksum"):
        load_model(path)


@pytest.mark.parametrize(
    "keep", [SPECS - PAYLOAD + 7, -4], ids=["in-spec-table", "in-last-parameter"]
)
def test_model_payload_cut_short_is_truncated(tmp_path, keep):
    # The payload length and CRC agree with the cut, so only the payload
    # reader sees that a spec or a parameter's values run past its end.
    path = tmp_path / "model.bin"
    save_model(CnnModel(REDUCED, (9, 9, 1), seed=21), path)
    blob = path.read_bytes()
    path.write_bytes(with_payload(blob, blob[PAYLOAD:-4][:keep]))
    with pytest.raises(TruncatedChunk, match="model payload truncated"):
        load_model(path)


STRIDED = (
    LayerSpec("conv", relu=True, kernel=(3, 3), stride=(2, 2), out_channels=3),
    LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
    LayerSpec("dense", out_units=2),
    LayerSpec("softmax"),
)


@pytest.mark.parametrize(
    "specs, input_shape",
    [(REFERENCE_LAYERS, (41, 41, 1)), (REDUCED, (9, 9, 1)), (STRIDED, (7, 8, 2))],
    ids=["reference", "reduced", "strided-7x8"],
)
def test_allocation_bound_counts_what_the_model_allocates(tmp_path, specs, input_shape):
    model = CnnModel(specs, input_shape, seed=0)
    x = np.zeros((1, *input_shape), model.dtype)
    seen = []
    for layer in model.layers:
        x = layer.forward(x)
        seen.append(x.shape[1:])
    assert model.output_shapes == seen

    # Keep 8 bytes fewer after the spec table than the parameters' values
    # alone take, fixing the payload length and the CRC.
    n = sum(p.size for p in model.params())
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(with_payload(blob, blob[PAYLOAD : SPECS + len(specs) * 14 + 8 * (n - 1)]))
    with pytest.raises(ChecksumMismatch, match=f"imply {n} parameters"):
        load_model(path)


def _fuzzed_model_files(blob: bytes):
    """Hostile variants of a saved model file: truncations through the spec
    table, then single bit flips and byte overwrites with the CRC fixed, then
    bytes appended to the payload or payloads cut short, with its length and
    the CRC fixed, then bytes appended after the CRC."""
    spec_end = SPECS + len(REDUCED) * 14
    for cut in range(spec_end + 1):
        yield blob[:cut]

    # every bit of the header and spec table, and a seeded sample of the rest
    later_bits = range(8 * spec_end, 8 * (len(blob) - 4))
    for bit in [*range(8 * spec_end), *random.Random(5).sample(later_bits, 400)]:
        edited = bytearray(blob)
        edited[bit // 8] ^= 1 << (bit % 8)
        yield with_crc(edited)
    for at in range(spec_end):
        for value in (0, 1, 2, 255):
            edited = bytearray(blob)
            edited[at] = value
            yield with_crc(edited)
    payload = blob[PAYLOAD:-4]
    for n in (1, 4, 8, 9, 64):
        yield with_payload(blob, payload + bytes(range(n)))
    for keep in (0, 9, spec_end - PAYLOAD - 7, -9, -1):
        yield with_payload(blob, payload[:keep])
    for extra in (b"\0", bytes(4), blob, bytes(21_000)):
        yield blob + extra


def test_fuzzed_model_file_loads_or_is_a_parse_error(tmp_path):
    save_model(CnnModel(REDUCED, (9, 9, 1), seed=21), tmp_path / "model.bin")
    blob = (tmp_path / "model.bin").read_bytes()
    path = tmp_path / "fuzzed.bin"
    sampled = []  # (file bytes, exit code predict should give)

    def load(loaded: list) -> None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                loaded.append(load_model(path))
        except ParseError:
            loaded.append(None)

    for i, data in enumerate(_fuzzed_model_files(blob)):
        path.write_bytes(data)
        loaded = []
        peak = peak_bytes_of(load, loaded)
        assert peak < 16 * len(blob), f"input {i}: peak {peak}"
        if i % 40 == 0:
            # a model that loads but no longer takes 9x9 images does not fit
            # the vocabulary, which is a precondition error
            model = loaded[0]
            fits = model is not None and model.input_shape == (9, 9, 1)
            sampled.append((data, 3 if model is None else 0 if fits else 1))

    vocab = tmp_path / "vocab.txt"
    vocab.write_text("".join(f"android.permission.P{k}\n" for k in range(9)))
    sample = tmp_path / "sample.txt"
    sample.write_text("android.permission.P1\nandroid.permission.P4\n")
    argv = ["predict", "--model", str(path), "--vocab", str(vocab), "--kind", "permlist",
            str(sample)]
    assert {code for _, code in sampled} >= {0, 3}
    for data, code in sampled:
        path.write_bytes(data)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == code
