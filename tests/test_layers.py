import threading
import time

import numpy as np
import pytest

from botgrid import cpus
from botgrid.errors import ShapeMismatch
from botgrid.nn import layers
from botgrid.nn.layers import Conv2D, Dense, MaxPool2D, Softmax
from botgrid.nn.model import CnnModel, LayerSpec

from traced_memory import peak_bytes_of

RTOL = 1e-4
FD_H = 1e-5


def fd_gradient(f, arr, idx, h=FD_H):
    orig = arr[idx]
    arr[idx] = orig + h
    fp = f()
    arr[idx] = orig - h
    fm = f()
    arr[idx] = orig
    return (fp - fm) / (2 * h)


def assert_close(numeric, analytic):
    err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
    assert err < RTOL, f"numeric {numeric} vs analytic {analytic} (rel err {err:.2e})"


def check_layer_gradients(layer, x, rng, probes=20):
    """Analytic vs central finite differences on input and parameters."""
    y = layer.forward(x, train=True)
    w = rng.standard_normal(y.shape)
    grad_in = layer.backward(w)
    objective = lambda: float((layer.forward(x) * w).sum())
    for _ in range(probes):
        idx = tuple(rng.integers(0, s) for s in x.shape)
        assert_close(fd_gradient(objective, x, idx), grad_in[idx])
    for p, g in zip(layer.params(), layer.grads()):
        for _ in range(probes):
            idx = tuple(rng.integers(0, s) for s in p.shape)
            assert_close(fd_gradient(objective, p, idx), g[idx])


# --- Conv2D ---

def test_conv_identity_kernel():
    layer = Conv2D(3, 3, (1, 1), relu=False, dtype=np.float64)
    layer.weights = np.eye(3).reshape(1, 1, 3, 3)
    layer.bias = np.zeros(3)
    x = np.random.default_rng(0).standard_normal((2, 4, 5, 3))
    assert np.allclose(layer.forward(x), x, atol=1e-15)


def test_conv_shape_41_to_41x32():
    layer = Conv2D(1, 32, (5, 5), (1, 1), relu=True, dtype=np.float32)
    y = layer.forward(np.zeros((2, 41, 41, 1), np.float32))
    assert y.shape == (2, 41, 41, 32)


def test_conv_same_padding_with_stride():
    layer = Conv2D(2, 4, (3, 3), (2, 2), relu=False, dtype=np.float64)
    y = layer.forward(np.zeros((1, 7, 8, 2)))
    assert y.shape == (1, 4, 4, 4)


def conv_reference(x, weights, bias, stride):
    """Six nested loops straight from the cross-correlation definition."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = weights.shape
    sh, sw = stride
    oh, ow = -(-h // sh), -(-w // sw)
    ph = max((oh - 1) * sh + kh - h, 0)
    pw = max((ow - 1) * sw + kw - w, 0)
    top, left = ph // 2, pw // 2
    xp = np.zeros((n, h + ph, w + pw, cin))
    xp[:, top : top + h, left : left + w, :] = x
    y = np.zeros((n, oh, ow, cout))
    for b in range(n):
        for p in range(oh):
            for q in range(ow):
                for o in range(cout):
                    acc = bias[o]
                    for i in range(kh):
                        for j in range(kw):
                            for c in range(cin):
                                acc += xp[b, p * sh + i, q * sw + j, c] * weights[i, j, c, o]
                    y[b, p, q, o] = acc
    return y


def test_conv_matches_naive_loops():
    rng = np.random.default_rng(7)
    layer = Conv2D(2, 3, (3, 3), (1, 1), relu=False, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 5, 5, 2))
    expected = conv_reference(x, layer.weights, layer.bias, (1, 1))
    assert np.allclose(layer.forward(x), expected, atol=1e-12)


def test_conv_matches_naive_loops_strided():
    rng = np.random.default_rng(8)
    layer = Conv2D(3, 2, (2, 3), (2, 2), relu=False, rng=rng, dtype=np.float64)
    x = rng.standard_normal((1, 6, 7, 3))
    expected = conv_reference(x, layer.weights, layer.bias, (2, 2))
    assert np.allclose(layer.forward(x), expected, atol=1e-12)


def im2col_reference(x, kernel, stride):
    """The gather as one strided copy per kernel offset (i, j) into a
    (n, out_h, out_w, kh, kw, cin) buffer, flattened to GEMM rows."""
    n, h, w, cin = x.shape
    kh, kw = kernel
    sh, sw = stride
    oh, ow = -(-h // sh), -(-w // sw)
    ph = max((oh - 1) * sh + kh - h, 0)
    pw = max((ow - 1) * sw + kw - w, 0)
    xp = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
    cols = np.empty((n, oh, ow, kh, kw, cin), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = xp[
                :, i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw, :
            ]
    return cols.reshape(n * oh * ow, kh * kw * cin), (n, oh, ow)


@pytest.mark.parametrize("cin", [1, 3])
@pytest.mark.parametrize("stride", [(1, 1), (2, 2)])
@pytest.mark.parametrize("kernel", [(5, 5), (3, 3), (1, 1), (2, 3)])
def test_conv_gather_is_exact(kernel, stride, cin):
    # Equal bytes, not a tolerance: a gather that reorders columns or
    # rows changes the GEMM's sums and fails here.
    rng = np.random.default_rng(11)
    layer = Conv2D(cin, 4, kernel, stride, relu=True, rng=rng, dtype=np.float32)
    layer.bias = rng.standard_normal(4, dtype=np.float32)
    x = rng.standard_normal((2, 7, 9, cin), dtype=np.float32)
    cols, (n, oh, ow) = im2col_reference(x, kernel, stride)
    want = np.maximum(cols @ layer.weights.reshape(-1, 4) + layer.bias, 0).reshape(n, oh, ow, 4)
    assert np.array_equal(layer.forward(x), want)
    assert np.array_equal(layer.forward(x, train=True), want)


def untiled_input_gradient(layer, grad):
    """The whole batch's im2col gradient, scattered window slot by slot."""
    x_shape, (pad_top, pad_left), windows, mask = layer._cache
    eh, ew = windows.shape[1:3]
    n, h, w, cin = x_shape
    (kh, kw), (sh, sw) = layer.kernel, layer.stride
    oh, ow = grad.shape[1:3]
    g2 = grad[:, :eh, :ew].reshape(-1, layer.out_channels) * mask
    gcols = (g2 @ layer.weights.reshape(-1, layer.out_channels).T).reshape(n, eh, ew, kh, kw, cin)
    gxp = np.zeros((n, max((oh - 1) * sh + kh, h), max((ow - 1) * sw + kw, w), cin), grad.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, i : i + (eh - 1) * sh + 1 : sh, j : j + (ew - 1) * sw + 1 : sw] += gcols[
                :, :, :, i, j
            ]
    return gxp[:, pad_top : pad_top + h, pad_left : pad_left + w]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [(1, 1), (2, 2)])
@pytest.mark.parametrize(
    "shape", [(20, 20, 8, 16, (5, 5)), (5, 5, 16, 32, (3, 3)), (5, 5, 128, 256, (1, 1))]
)
def test_conv_tiled_input_gradient_is_exact(shape, stride, dtype):
    # Equal bytes: each tile's GEMM rows and scatter order match the
    # whole-batch computation.  At batch 33 the 20x20 maps split into tiles;
    # on the 5x5 maps, a tile of one or two 3x3 outputs would give a GEMM of
    # a handful of rows, which BLAS sums another way.
    h, w, cin, cout, kernel = shape
    rng = np.random.default_rng(13)
    layer = Conv2D(cin, cout, kernel, stride, rng=rng, dtype=dtype)
    layer.bias = rng.standard_normal(cout).astype(dtype)
    for n in (1, 3, 5, 33):
        y = layer.forward(rng.standard_normal((n, h, w, cin)).astype(dtype), train=True)
        grad = rng.standard_normal(y.shape).astype(dtype)
        want = untiled_input_gradient(layer, grad)
        assert layer.backward(grad).tobytes() == want.tobytes()
    assert 33 * 10 * 10 // layers.TILE_ROWS > 1


def whole_batch_conv(layer, x, grad):
    """A ReLU conv's output and its weight and bias gradients over the whole
    batch's im2col rows, as if nothing were split: the output and the
    weight gradient each from one GEMM, and the weight gradient again as
    backward makes it, summed tile by tile in `_image_tiles` order."""
    cols, (n, oh, ow) = im2col_reference(x, layer.kernel, layer.stride)
    eh, ew = np.minimum(layer.extent or (oh, ow), (oh, ow))  # as the layer clamps it
    cols = cols.reshape(n, oh, ow, -1)[:, :eh, :ew].reshape(n * eh * ew, -1)
    y2 = np.maximum(cols @ layer.weights.reshape(-1, layer.out_channels) + layer.bias, 0)
    y = np.zeros((n, oh, ow, layer.out_channels), x.dtype)
    y[:, :eh, :ew] = y2.reshape(n, eh, ew, -1)
    g2 = grad[:, :eh, :ew].reshape(-1, layer.out_channels) * (y2 > 0)
    rows = [slice(lo * eh * ew, hi * eh * ew) for lo, hi in layers._image_tiles(0, n, eh * ew)]
    tiled = sum(cols[tile].T @ g2[tile] for tile in rows)
    gw_shape = layer.weights.shape
    return y, (cols.T @ g2).reshape(gw_shape), tiled.reshape(gw_shape), g2.sum(axis=0)


# How far a tile-order weight gradient may stray from one whole-batch GEMM,
# relative to each element and, as absolute slack, to the gradient's
# largest element: entries that nearly cancel have no relative precision.
# Measured over the geometries and batches below: at most 1.6e-6 (float32)
# and 3.1e-15 (float64) of the largest element.
WEIGHT_GRADIENT_RTOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-13}


def inline_runner(monkeypatch):
    """Run both halves of every split on the calling thread; count splits."""
    splits = []

    def in_line(first, second):
        splits.append(1)
        return first(), second()

    monkeypatch.setattr(layers, "in_parallel", in_line)
    return splits


@pytest.mark.parametrize("runner", ["helper", "inline"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [(1, 1), (2, 2)])
@pytest.mark.parametrize(
    "shape", [(20, 20, 8, 16, (5, 5), None), (12, 12, 64, 128, (1, 1), None),
              (21, 21, 4, 8, (3, 3), (10, 9)), (20, 20, 32, 128, (5, 5), None),
              (41, 41, 1, 32, (5, 5), (40, 40))]
)
def test_conv_split_and_overlap_are_exact(shape, stride, dtype, runner, monkeypatch):
    # Equal bytes: each half of a split forward, each of its tiles gathered
    # into one reused buffer, and the weight gradient run beside the input
    # gradient, keep the whole batch's GEMM rows and sums, whether the
    # halves run on the helper thread or one after the other.  The weight
    # gradient is the sum over the whole batch's tiles, in tile order, of
    # each tile's GEMM over its rows gathered again: the same bits at any
    # split, but not those of one whole-batch GEMM, which it matches within
    # WEIGHT_GRADIENT_RTOL.  The batch sizes put tile and half boundaries
    # on different images; the last two shapes are the reference model's
    # conv2 and conv1 (one tile per image at batch 1).
    h, w, cin, cout, kernel, extent = shape
    splits = inline_runner(monkeypatch) if runner == "inline" else []
    rng = np.random.default_rng(19)
    layer = Conv2D(cin, cout, kernel, stride, rng=rng, dtype=dtype, extent=extent)
    layer.bias = rng.standard_normal(cout).astype(dtype)
    split_batches = []
    for n in (1, 2, 3, 5, 9, 16, 17, 32, 33):
        x = rng.standard_normal((n, h, w, cin)).astype(dtype)
        before = len(splits)
        y = layer.forward(x, train=True)
        split_batches.append(len(splits) > before)
        assert layer.forward(x).tobytes() == y.tobytes()
        grad = rng.standard_normal(y.shape).astype(dtype)
        grad_input = layer.backward(grad)
        want_y, whole_gw, want_gw, want_gb = whole_batch_conv(layer, x, grad)
        assert y.tobytes() == want_y.tobytes()
        assert layer.grad_weights.tobytes() == want_gw.tobytes()
        rtol = WEIGHT_GRADIENT_RTOL[np.dtype(dtype)]
        np.testing.assert_allclose(
            layer.grad_weights, whole_gw, rtol=rtol, atol=rtol * np.abs(whole_gw).max()
        )
        assert layer.grad_bias.tobytes() == want_gb.tobytes()
        assert grad_input.tobytes() == untiled_input_gradient(layer, grad).tobytes()
    if runner == "inline":  # batch 33 splits every geometry here, batch 1 none
        assert split_batches[-1] and not split_batches[0]


@pytest.mark.parametrize("rows_per_image", [1, 9, 100, 324, 400, 799, 800, 1600])
def test_image_tiles_are_even_runs_of_whole_images(rows_per_image):
    # A tile is never empty, never splits an image and, unless it is the
    # whole run, holds at least half of TILE_ROWS rows.  At batch 1 a
    # 1,600-row image is one tile, not one empty and one full.
    for lo, hi in [(0, n) for n in range(1, 70)] + [(8, 16), (16, 33)]:
        tiles = layers._image_tiles(lo, hi, rows_per_image)
        assert [start for start, _ in tiles] == [lo] + [stop for _, stop in tiles[:-1]]
        assert tiles[-1][1] == hi and all(stop > start for start, stop in tiles)
        sizes = [stop - start for start, stop in tiles]
        assert max(sizes) - min(sizes) <= 1
        if len(tiles) > 1:
            assert min(sizes) * rows_per_image >= layers.TILE_ROWS // 2


def test_inference_conv_keeps_no_whole_batch_im2col(monkeypatch):
    # conv2's shape, with a 20x20 extent, at EVAL_BATCH 16 in float32: the
    # whole im2col matrix is 6,400 rows of 800 values (20.5 MB).  Inference
    # holds one tile-sized buffer per thread and keeps nothing.
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    rng = np.random.default_rng(37)
    layer = Conv2D(32, 128, (5, 5), rng=rng, dtype=np.float32, extent=(20, 20))
    x = rng.standard_normal((16, 20, 20, 32), dtype=np.float32)
    whole_cols, _ = im2col_reference(x, (5, 5), (1, 1))
    assert peak_bytes_of(layer.forward, x) < whole_cols.nbytes // 2
    assert layer._cache is None
    layer.forward(x, train=True)  # backward gathers every row again from its windows
    assert layer._cache[2].tobytes() == whole_cols.tobytes()


def test_an_inference_conv_never_splits(thread_starts, monkeypatch):
    # conv2's geometry at batch 33: a training forward splits it into two
    # halves on two threads; an inference forward runs all 33 images on the
    # calling thread, in the same bytes.
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    started = thread_starts
    rng = np.random.default_rng(41)
    layer = Conv2D(32, 128, (5, 5), rng=rng, dtype=np.float32, extent=(20, 20))
    x = rng.standard_normal((33, 20, 20, 32), dtype=np.float32)
    y = layer.forward(x)
    assert started == []
    assert layer.forward(x, train=True).tobytes() == y.tobytes()
    assert len(started) == 1


def test_a_process_without_a_spare_cpu_runs_both_halves_itself(thread_starts, monkeypatch):
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 1)
    here = threading.get_ident()
    assert not cpus.spare_cpu()
    assert cpus.in_parallel(threading.get_ident, threading.get_ident) == (here, here)
    assert thread_starts == []


def test_in_parallel_takes_the_spare_cpu_for_the_length_of_its_call(thread_starts, monkeypatch):
    # On two CPUs a call made inside either half, as a conv inside one of
    # cross_validate's fold threads makes it, runs both of its halves on
    # the thread that made it.
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)

    def nested():
        return cpus.spare_cpu(), cpus.in_parallel(threading.get_ident, threading.get_ident)

    (spare_first, idents_first), (spare_second, idents_second) = cpus.in_parallel(nested, nested)
    assert not spare_first and not spare_second
    assert len(set(idents_first)) == len(set(idents_second)) == 1
    assert idents_first != idents_second
    assert len(thread_starts) == 1 and cpus.spare_cpu()


class Boom(Exception):
    pass


def test_in_parallel_leaves_no_thread_behind(monkeypatch):
    # With a spare CPU, first runs on a helper thread that is gone by the
    # time in_parallel returns or raises, and an exception in either call
    # escapes only once the other has finished.
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    threads, helpers, finished = threading.active_count(), [], []

    def first(error=None):
        helpers.append(threading.current_thread())
        if error is None:
            time.sleep(0.05)  # still running when the caller's call raises
            finished.append("first")
            return 1
        raise error

    def second(error=None):
        if error is None:
            time.sleep(0.05)  # still running when the helper's call raises
            finished.append("second")
            return 2
        raise error

    assert cpus.in_parallel(first, second) == (1, 2)
    assert sorted(finished) == ["first", "second"]
    finished.clear()
    with pytest.raises(Boom, match="in first"):
        cpus.in_parallel(lambda: first(Boom("in first")), second)
    assert finished == ["second"]
    finished.clear()
    with pytest.raises(Boom, match="in second"):
        cpus.in_parallel(first, lambda: second(Boom("in second")))
    assert finished == ["first"]
    assert len(helpers) == 3 and threading.current_thread() not in helpers
    assert not any(helper.is_alive() for helper in helpers)
    assert threading.active_count() == threads


def test_in_parallel_runs_both_halves_here_when_no_thread_can_start(monkeypatch):
    # A process at its thread or pid limit gets RuntimeError from start().
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)

    def cannot_start(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", cannot_start)
    here = threading.get_ident()
    assert cpus.in_parallel(threading.get_ident, threading.get_ident) == (here, here)
    rng = np.random.default_rng(29)
    layer = Conv2D(4, 8, (3, 3), rng=rng)
    x = rng.standard_normal((32, 20, 20, 4))
    y = layer.forward(x, train=True)
    layer.backward(rng.standard_normal(y.shape))
    monkeypatch.undo()  # threads start again: the same bits
    again = Conv2D(4, 8, (3, 3), rng=np.random.default_rng(29))
    assert again.forward(x, train=True).tobytes() == y.tobytes()


@pytest.mark.parametrize("shape", [(20, 20, 8, 16, (5, 5), None), (21, 21, 4, 8, (3, 3), (10, 9))])
def test_a_conv_leaves_no_helper_thread_behind(shape, monkeypatch):
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    helpers = []

    def recording_first_thread(first, second):
        def first_recorded():
            helpers.append(threading.current_thread())
            return first()
        return cpus.in_parallel(first_recorded, second)

    monkeypatch.setattr(layers, "in_parallel", recording_first_thread)
    h, w, cin, cout, kernel, extent = shape
    rng = np.random.default_rng(23)
    layer = Conv2D(cin, cout, kernel, rng=rng, extent=extent)
    threads = threading.active_count()
    y = layer.forward(rng.standard_normal((32, h, w, cin)), train=True)
    assert len(helpers) == 1 and threading.active_count() == threads
    layer.backward(rng.standard_normal(y.shape))
    assert len(helpers) == 2 and threading.current_thread() not in helpers
    assert not any(helper.is_alive() for helper in helpers)
    assert threading.active_count() == threads


def test_conv_extent_computes_only_the_top_left():
    # Outside its extent a conv writes +0.0, never leftover memory, and its
    # gradients equal the full computation's fed a gradient of 0 there.
    rng = np.random.default_rng(17)
    full, part = (
        Conv2D(3, 4, (3, 3), relu=False, rng=np.random.default_rng(1), dtype=np.float64,
               extent=extent)
        for extent in (None, (4, 3))
    )
    x = rng.standard_normal((2, 6, 5, 3))
    want, got = full.forward(x, train=True), part.forward(x, train=True)
    assert got[:, :4, :3].tobytes() == want[:, :4, :3].tobytes()
    assert not got[:, 4:].view(np.uint64).any() and not got[:, :, 3:].view(np.uint64).any()
    grad = np.zeros_like(want)
    grad[:, :4, :3] = rng.standard_normal((2, 4, 3, 4))
    for got, want in [
        (part.backward(grad), full.backward(grad)),
        (part.grad_weights, full.grad_weights),
        (part.grad_bias, full.grad_bias),
    ]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_conv_zero_upstream_gradient():
    rng = np.random.default_rng(1)
    layer = Conv2D(2, 3, (3, 3), rng=rng, dtype=np.float64)
    x = rng.standard_normal((1, 4, 4, 2))
    y = layer.forward(x, train=True)
    grad_in = layer.backward(np.zeros_like(y))
    assert np.all(grad_in == 0)
    assert np.all(layer.grad_weights == 0)
    assert np.all(layer.grad_bias == 0)


def test_conv_backward_is_linear():
    rng = np.random.default_rng(2)
    layer = Conv2D(2, 3, (3, 3), relu=False, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 5, 5, 2))
    layer.forward(x, train=True)
    g = rng.standard_normal((2, 5, 5, 3))
    gx1 = layer.backward(g)
    gw1 = layer.grad_weights.copy()
    gx2 = layer.backward(3.5 * g)
    assert np.allclose(3.5 * gx1, gx2, atol=1e-12)
    assert np.allclose(3.5 * gw1, layer.grad_weights, atol=1e-11)


def test_a_bare_conv_keeps_its_cache_after_backward():
    # The layer contract: the cache lives until the next training forward,
    # so backward may run twice.  Only CnnModel.backward releases it.
    rng = np.random.default_rng(5)
    layer = Conv2D(2, 3, (3, 3), rng=rng, dtype=np.float32)
    layer.forward(rng.standard_normal((2, 5, 5, 2), dtype=np.float32), train=True)
    cache = layer._cache
    g = rng.standard_normal((2, 5, 5, 3), dtype=np.float32)
    gx = layer.backward(g)
    assert layer._cache is cache
    assert layer.backward(g).tobytes() == gx.tobytes()


def test_conv_gradients_match_finite_differences():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        layer = Conv2D(2, 3, (3, 3), (1, 1), relu=True, rng=rng, dtype=np.float64)
        check_layer_gradients(layer, rng.standard_normal((2, 6, 5, 2)), rng)


def test_conv_strided_gradients():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        layer = Conv2D(2, 2, (3, 3), (2, 2), relu=False, rng=rng, dtype=np.float64)
        check_layer_gradients(layer, rng.standard_normal((2, 7, 6, 2)), rng)


def test_conv_shape_mismatch():
    layer = Conv2D(3, 4, (3, 3))
    with pytest.raises(ShapeMismatch):
        layer.forward(np.zeros((1, 5, 5, 2), np.float64))


# --- MaxPool2D ---

def test_maxpool_41_to_20():
    layer = MaxPool2D((2, 2))
    y = layer.forward(np.zeros((3, 41, 41, 32), np.float32))
    assert y.shape == (3, 20, 20, 32)


def test_maxpool_constant_input():
    layer = MaxPool2D((2, 2))
    x = np.full((2, 6, 6, 4), 2.5)
    assert np.all(layer.forward(x) == 2.5)


def test_maxpool_matches_naive_windows():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 7, 9, 3))
    got = MaxPool2D((2, 2)).forward(x)
    for b in range(2):
        for p in range(3):
            for q in range(4):
                for c in range(3):
                    window = x[b, 2 * p : 2 * p + 2, 2 * q : 2 * q + 2, c]
                    assert got[b, p, q, c] == window.max()


def test_maxpool_strictly_increasing_routes_to_bottom_right():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
    layer = MaxPool2D((2, 2))
    layer.forward(x, train=True)
    g = np.ones((1, 2, 2, 1))
    gx = layer.backward(g)
    expected = np.zeros((1, 4, 4, 1))
    expected[0, 1, 1, 0] = expected[0, 1, 3, 0] = 1
    expected[0, 3, 1, 0] = expected[0, 3, 3, 0] = 1
    assert np.array_equal(gx, expected)


def test_maxpool_tie_routes_to_first_row_major():
    x = np.zeros((1, 2, 2, 1))
    layer = MaxPool2D((2, 2))
    layer.forward(x, train=True)
    gx = layer.backward(np.ones((1, 1, 1, 1)))
    expected = np.zeros((1, 2, 2, 1))
    expected[0, 0, 0, 0] = 1
    assert np.array_equal(gx, expected)


def maxpool_reference(x, kernel, grad):
    """Per-window loops: the maximum, and grad routed to the first
    row-major position holding it."""
    n, h, w, c = x.shape
    kh, kw = kernel
    y = np.zeros((n, h // kh, w // kw, c), dtype=x.dtype)
    gx = np.zeros_like(x)
    for b, p, q, ch in np.ndindex(*y.shape):
        window = x[b, p * kh : (p + 1) * kh, q * kw : (q + 1) * kw, ch].ravel()
        k = int(np.flatnonzero(window == window.max())[0])
        y[b, p, q, ch] = window[k]
        gx[b, p * kh + k // kw, q * kw + k % kw, ch] = grad[b, p, q, ch]
    return y, gx


def test_maxpool_non_square_ties_route_to_first_row_major():
    rng = np.random.default_rng(12)
    # ReLU of small integers: about 5 in 7 entries are exact zeros, and
    # most windows hold their maximum more than once.
    x = np.maximum(rng.integers(-4, 3, size=(2, 9, 11, 3)), 0).astype(np.float32)
    grad = rng.standard_normal((2, 4, 3, 3), dtype=np.float32)
    # routed bit for bit, with +0.0 (not -0.0 or nan) where a slot lost
    grad[0, 0, :, 0] = [-0.0, np.inf, np.nan]
    want_y, want_gx = maxpool_reference(x, (2, 3), grad)
    layer = MaxPool2D((2, 3))
    assert np.array_equal(layer.forward(x), want_y)
    assert np.array_equal(layer.forward(x, train=True), want_y)
    assert layer.backward(grad).tobytes() == want_gx.tobytes()


def test_maxpool_zero_gradient():
    rng = np.random.default_rng(4)
    layer = MaxPool2D((2, 2))
    layer.forward(rng.standard_normal((1, 4, 4, 2)), train=True)
    assert np.all(layer.backward(np.zeros((1, 2, 2, 2))) == 0)


def test_maxpool_gradients_match_finite_differences():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        # continuous random values make in-window ties measure-zero
        check_layer_gradients(MaxPool2D((2, 2)), rng.standard_normal((2, 5, 6, 3)), rng)


def test_maxpool_input_too_small():
    with pytest.raises(ShapeMismatch):
        MaxPool2D((2, 2)).forward(np.zeros((1, 1, 4, 2)))


def test_maxpool_requires_stride_equal_kernel():
    spec = LayerSpec("maxpool", kernel=(2, 2), stride=(1, 1))
    with pytest.raises(ShapeMismatch, match="pooling requires stride == kernel"):
        CnnModel([spec], (4, 4, 1))


# --- Dense ---

def test_dense_identity():
    layer = Dense(4, 4, relu=False, dtype=np.float64)
    layer.weights = np.eye(4)
    layer.bias = np.zeros(4)
    x = np.random.default_rng(0).standard_normal((3, 4))
    assert np.allclose(layer.forward(x), x, atol=1e-15)


def test_dense_flatten_is_row_major():
    layer = Dense(2 * 2 * 256, 8, relu=False, dtype=np.float64)
    x = np.arange(2 * 2 * 256, dtype=np.float64).reshape(1, 2, 2, 256)
    layer.weights = np.eye(1024)[:, :8]
    layer.bias = np.zeros(8)
    y = layer.forward(x)
    # first 8 flattened inputs are exactly x[0, 0, 0, :8]
    assert np.array_equal(y[0], np.arange(8, dtype=np.float64))
    layer.forward(x, train=True)
    gx = layer.backward(np.ones((1, 8)))
    assert gx.shape == x.shape


def test_dense_gradients_match_finite_differences():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        layer = Dense(8, 4, relu=True, rng=rng, dtype=np.float64)
        check_layer_gradients(layer, rng.standard_normal((3, 8)), rng)


def test_dense_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        Dense(8, 4).forward(np.zeros((2, 9)))


# --- Softmax ---

def test_softmax_symmetric_logits():
    p = Softmax().forward(np.array([[0.0, 0.0]]))
    assert np.allclose(p, [[0.5, 0.5]], atol=1e-15)


def test_softmax_large_logits_no_overflow():
    p = Softmax().forward(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert p[0, 0] > 1 - 1e-12
    assert p[0, 1] < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 2))
    s = Softmax()
    assert np.allclose(s.forward(z), s.forward(z + 13.7), atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    p = Softmax().forward(rng.standard_normal((50, 2)) * 10)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(p >= 0)


def test_softmax_gradients_match_finite_differences():
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        check_layer_gradients(Softmax(), rng.standard_normal((3, 4)), rng)


# --- ReLU (as carried by conv/dense layers) ---

def test_relu_idempotent_and_non_negative():
    layer = Conv2D(2, 2, (1, 1), relu=True, dtype=np.float64)
    layer.weights = np.eye(2).reshape(1, 1, 2, 2)
    layer.bias = np.zeros(2)
    x = np.random.default_rng(9).standard_normal((3, 4, 4, 2))
    once = layer.forward(x)
    assert np.all(once >= 0)
    assert np.array_equal(layer.forward(once), once)  # relu(relu(x)) == relu(x)


# --- every layer ---

@pytest.mark.parametrize(
    "make, x_shape",
    [
        (lambda: Conv2D(2, 3, (3, 3), dtype=np.float64), (2, 5, 5, 2)),
        (lambda: MaxPool2D((2, 2)), (2, 4, 4, 3)),
        (lambda: Dense(6, 4, relu=True, dtype=np.float64), (2, 6)),
        (Softmax, (2, 4)),
    ],
    ids=["Conv2D", "MaxPool2D", "Dense", "Softmax"],
)
def test_backward_before_a_training_forward_raises(make, x_shape):
    layer = make()
    x = np.random.default_rng(12).standard_normal(x_shape)
    grad = np.ones_like(layer.forward(x, train=True))
    fresh = make()
    with pytest.raises(RuntimeError, match=r"backward before forward\(train=True\)"):
        fresh.backward(grad)
    fresh.forward(x)  # inference records no cache
    with pytest.raises(RuntimeError, match=r"backward before forward\(train=True\)"):
        fresh.backward(grad)
