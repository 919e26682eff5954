import math

import numpy as np
import pytest

from botgrid.errors import EmptyBatch, ShapeMismatch
from botgrid.nn.loss import CLAMP_EPS, bce_loss
from botgrid.nn.optim import Adam


# --- binary cross-entropy ---

def scalar_bce(probs, labels):
    """Independent per-sample summation of the loss definition."""
    total = 0.0
    for p, y in zip(probs, labels):
        p = min(max(p, CLAMP_EPS), 1 - CLAMP_EPS)
        total += y * math.log(p) + (1 - y) * math.log(1 - p)
    return -total / len(probs)


def test_half_probability_is_ln2():
    loss = bce_loss(np.array([0.5]), np.array([1]))
    assert math.isclose(loss.value, math.log(2), rel_tol=1e-12)


def test_perfect_prediction_is_near_zero():
    loss = bce_loss(np.array([1.0 - CLAMP_EPS]), np.array([1]))
    assert 0 <= loss.value < 1e-6


def test_saturated_wrong_prediction_is_finite():
    loss = bce_loss(np.array([0.0]), np.array([1]))
    assert math.isclose(loss.value, -math.log(CLAMP_EPS), rel_tol=1e-9)
    assert np.isfinite(loss.gradient).all()


def test_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        probs = rng.uniform(0.001, 0.999, n)
        labels = rng.integers(0, 2, n)
        got = bce_loss(probs, labels)
        want = scalar_bce(probs.tolist(), labels.tolist())
        assert math.isclose(got.value, want, rel_tol=1e-12)


def test_gradient_formula():
    rng = np.random.default_rng(1)
    probs = rng.uniform(0.05, 0.95, 16)
    labels = rng.integers(0, 2, 16)
    got = bce_loss(probs, labels)
    for i in range(16):
        p, y = probs[i], labels[i]
        want = (p - y) / (p * (1 - p) * 16)
        assert math.isclose(got.gradient[i], want, rel_tol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    probs = rng.uniform(0.1, 0.9, 8)
    labels = rng.integers(0, 2, 8)
    grad = bce_loss(probs, labels).gradient
    h = 1e-7
    for i in range(8):
        up = probs.copy()
        up[i] += h
        down = probs.copy()
        down[i] -= h
        num = (bce_loss(up, labels).value - bce_loss(down, labels).value) / (2 * h)
        assert math.isclose(num, grad[i], rel_tol=1e-5)


def test_empty_batch():
    with pytest.raises(EmptyBatch):
        bce_loss(np.array([]), np.array([]))


def test_bce_shape_mismatch():
    with pytest.raises(ShapeMismatch, match=r"probs shape \(2,\) != labels shape \(1,\)"):
        bce_loss(np.array([0.5, 0.5]), np.array([1]))


def test_dtype_preserved():
    loss = bce_loss(np.array([0.3], dtype=np.float32), np.array([1]))
    assert loss.gradient.dtype == np.float32


# --- Adam ---

def scalar_adam_trace(x0, grad_fn, steps, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Plain-float reference trace of the update recurrence."""
    x, m, v = x0, 0.0, 0.0
    out = []
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(x)
    return out


def test_zero_gradient_is_fixed_point():
    adam = Adam()
    p = np.array([1.0, -2.0, 3.0])
    adam.step([p], [np.zeros(3)])
    assert np.array_equal(p, [1.0, -2.0, 3.0])
    assert adam.t == 1
    assert np.all(adam.m[0] == 0) and np.all(adam.v[0] == 0)


def test_first_step_magnitude_is_learning_rate():
    adam = Adam(learning_rate=1e-3)
    p = np.array([5.0, -5.0])
    g = np.array([3.0, -0.25])
    adam.step([p], [g])
    delta = np.array([5.0, -5.0]) - p
    # bias correction makes mhat/sqrt(vhat) ~ sign(g) on step one
    assert np.allclose(np.abs(delta), 1e-3, rtol=1e-6)
    assert np.all(np.sign(delta) == np.sign(g))


def test_matches_scalar_trace_on_quadratic():
    adam = Adam()
    x = np.array([1.0])
    got = []
    for _ in range(10):
        adam.step([x], [2.0 * x])
        got.append(float(x[0]))
    want = scalar_adam_trace(1.0, lambda x: 2 * x, 10)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-12)


def test_multi_parameter_state_shapes():
    adam = Adam()
    params = [np.ones((2, 3)), np.zeros(4)]
    grads = [np.full((2, 3), 0.1), np.full(4, -0.2)]
    adam.step(params, grads)
    assert adam.m[0].shape == (2, 3) and adam.v[1].shape == (4,)


def test_shape_mismatch_rejected():
    adam = Adam()
    with pytest.raises(ShapeMismatch):
        adam.step([np.ones(3)], [np.ones(4)])
    with pytest.raises(ShapeMismatch):
        adam.step([np.ones(3)], [None])


def test_descends_a_quadratic():
    adam = Adam(learning_rate=0.05)
    x = np.array([4.0])
    for _ in range(300):
        adam.step([x], [2.0 * x])
    assert abs(x[0]) < 0.05
