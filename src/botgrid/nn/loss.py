"""Two-class binary cross-entropy on the positive-class probability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyBatch, ShapeMismatch

# Probabilities are clamped away from {0, 1} before the logarithms so a
# saturated output cannot produce an infinite loss.
CLAMP_EPS = 1e-7


@dataclass(frozen=True)
class LossValue:
    value: float
    gradient: np.ndarray  # d(loss)/d(p) per sample


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> LossValue:
    """Mean negative log-likelihood of binary labels under probs.

    probs holds the positive-class probability per sample; the gradient
    is with respect to those probabilities.
    """
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    if probs.size == 0:
        raise EmptyBatch("bce_loss needs at least one sample")
    if probs.shape != labels.shape:
        raise ShapeMismatch(f"probs shape {probs.shape} != labels shape {labels.shape}")
    p = np.clip(probs, CLAMP_EPS, 1.0 - CLAMP_EPS)
    y = labels.astype(p.dtype)
    n = p.shape[0]
    value = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    gradient = (p - y) / (p * (1.0 - p) * n)
    return LossValue(value, gradient)
