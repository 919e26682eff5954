import numpy as np
import pytest

from botgrid.errors import ShapeMismatch
from botgrid.nn.layers import Conv2D, Dense, MaxPool2D, Softmax

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
    assert layer.output_shape((41, 41, 1)) == (41, 41, 32)


def test_conv_same_padding_with_stride():
    layer = Conv2D(2, 4, (3, 3), (2, 2), relu=False, dtype=np.float64)
    assert layer.output_shape((7, 8, 2)) == (4, 4, 4)
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
    assert layer.output_shape((41, 41, 32)) == (20, 20, 32)


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
    with pytest.raises(ShapeMismatch):
        MaxPool2D((2, 2), (1, 1))


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
