"""Confusion counts and the five evaluation metrics.

Botnet is the positive (TRUE) class.  Ratios with a zero denominator are
reported as None rather than coerced to 0 or 1, so degenerate folds stay
visible in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @classmethod
    def from_predictions(cls, predicted: np.ndarray, actual: np.ndarray) -> "ConfusionCounts":
        """Class arrays with 1 = botnet (positive), 0 = benign."""
        predicted = np.asarray(predicted)
        actual = np.asarray(actual)
        if predicted.shape != actual.shape:
            raise ValueError(f"shape mismatch: {predicted.shape} vs {actual.shape}")
        return cls(
            tp=int(np.sum((predicted == 1) & (actual == 1))),
            tn=int(np.sum((predicted == 0) & (actual == 0))),
            fp=int(np.sum((predicted == 1) & (actual == 0))),
            fn=int(np.sum((predicted == 0) & (actual == 1))),
        )


@dataclass(frozen=True)
class EvalMetrics:
    fpr: float | None
    recall: float | None
    precision: float | None
    accuracy: float | None
    f_measure: float | None
    counts: ConfusionCounts


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def compute_metrics(counts: ConfusionCounts) -> EvalMetrics:
    fpr = _ratio(counts.fp, counts.fp + counts.tn)
    recall = _ratio(counts.tp, counts.tp + counts.fn)
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    accuracy = _ratio(counts.tp + counts.tn, counts.total)
    if precision is None or recall is None or precision + recall == 0:
        f_measure = None
    else:
        f_measure = 2 * precision * recall / (precision + recall)
    return EvalMetrics(fpr, recall, precision, accuracy, f_measure, counts)
