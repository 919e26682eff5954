"""Stratified k-fold assignment.

Each class's samples are shuffled and dealt round-robin; the dealing
offset carries over between classes so both the per-class counts and
the overall fold sizes differ by at most one across folds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import TooFewSamples


@dataclass(frozen=True)
class FoldPlan:
    assignments: tuple[int, ...]  # fold index per record

    def split(self, fold: int) -> tuple[list[int], list[int]]:
        """(train indices, test indices) for one held-out fold."""
        train = [i for i, f in enumerate(self.assignments) if f != fold]
        test = [i for i, f in enumerate(self.assignments) if f == fold]
        return train, test


def make_folds(labels: Sequence[str], k: int, seed: int) -> FoldPlan:
    """Stratified assignment over class labels; deterministic given seed."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    labels = list(labels)
    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    for label, members in sorted(by_class.items()):
        if len(members) < k:
            raise TooFewSamples(
                f"class {label!r} has {len(members)} samples, need at least {k}"
            )

    rng = np.random.default_rng(seed)
    assignments = [0] * len(labels)
    offset = 0
    for label in sorted(by_class):
        members = np.array(by_class[label])
        rng.shuffle(members)
        for pos, idx in enumerate(members):
            assignments[int(idx)] = (offset + pos) % k
        offset += len(members)
    return FoldPlan(tuple(assignments))
