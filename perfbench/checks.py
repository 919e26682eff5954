"""Output checks computed apart from the program.

Each check takes the program's outputs and the generator's truth and
returns a list of failure messages (empty when the output is right).
The references are recomputed here from the spec: the vocabulary
ranking from the true permission sets, each image as 1 - v v^T, and the
network's forward pass with sliding windows and einsum in float64.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

PROB_TOL = 1e-4  # float32 forward vs the float64 reference
TIE_MARGIN = 1e-3  # |p - 0.5| below this may flip argmax between batch sizes


def rank_vocabulary(sets_by_label: dict[str, list[frozenset[str]]], size: int) -> list[str]:
    """Top `size` permissions by summed per-class request fractions, ties by name."""
    score: dict[str, float] = {}
    for label in ("botnet", "benign"):
        sets = sets_by_label[label]
        for perm, count in Counter(p for s in sets for p in s).items():
            score[perm] = score.get(perm, 0.0) + count / len(sets)
    return sorted(score, key=lambda p: (-score[p], p))[:size]


def image(perms: frozenset[str], vocab: list[str]) -> np.ndarray:
    """1 - v v^T over the vocabulary, where v marks requested permissions."""
    v = np.array([p in perms for p in vocab], dtype=np.float64)
    return 1.0 - np.outer(v, v)


def check_sets(extracted: list[frozenset[str]], truth: list[frozenset[str]]) -> list[str]:
    if len(extracted) != len(truth):
        return [f"{len(extracted)} apps extracted, {len(truth)} written"]
    return [f"app {i}: extracted set differs from the written one"
            for i, (got, want) in enumerate(zip(extracted, truth)) if got != want][:5]


def check_vocabulary(vocab: list[str], truth: list[frozenset[str]], labels: list[str],
                     size: int) -> list[str]:
    by_label = {"botnet": [], "benign": []}
    for perms, label in zip(truth, labels):
        by_label[label].append(perms)
    want = rank_vocabulary(by_label, size)
    return [] if list(vocab) == want else [f"vocabulary {list(vocab)[:5]}... != {want[:5]}..."]


def check_tensors(tensors: np.ndarray, truth: list[frozenset[str]], vocab: list[str]) -> list[str]:
    n = len(vocab)
    if tensors.shape != (len(truth), n, n, 1):
        return [f"tensor shape {tensors.shape} != {(len(truth), n, n, 1)}"]
    bad = [i for i, perms in enumerate(truth)
           if not np.array_equal(tensors[i, :, :, 0], image(perms, vocab))]
    return [f"{len(bad)} tensors differ from 1 - v v^T, first at app {bad[0]}"] if bad else []


def check_folds(folds, labels_by_path: dict[str, str], sets_by_path: dict[str, frozenset[str]],
                k: int, vocab_size: int, accuracy_floor: float) -> list[str]:
    """Fold integrity, leakage-free vocabularies, falling losses, accuracy."""
    errors: list[str] = []
    tests = [set(f.test_paths) for f in folds]
    everything = set(labels_by_path)
    if len(folds) != k:
        errors.append(f"{len(folds)} folds, expected {k}")
    if sum(len(t) for t in tests) != len(everything) or set().union(*tests) != everything:
        errors.append("test folds are not a disjoint cover of the samples")
    for label in ("botnet", "benign"):
        per_fold = [sum(labels_by_path[p] == label for p in t) for t in tests]
        if max(per_fold) - min(per_fold) > 1:
            errors.append(f"{label} per fold {per_fold} is not stratified")
    for f in folds:
        train = set(f.train_paths)
        if train & set(f.test_paths) or train | set(f.test_paths) != everything:
            errors.append(f"fold {f.fold}: train and test do not partition the samples")
        if set(f.vocab_paths) != train:
            errors.append(f"fold {f.fold}: vocabulary ranked over samples outside its train folds")
        paths = sorted(train)
        errors += [f"fold {f.fold}: {e}" for e in check_vocabulary(
            list(f.vocabulary), [sets_by_path[p] for p in paths],
            [labels_by_path[p] for p in paths], vocab_size)]
        losses = [row.train_loss for row in f.trace]
        if not all(math.isfinite(x) for x in losses):
            errors.append(f"fold {f.fold}: non-finite loss {losses}")
        elif len(losses) > 1 and not losses[-1] < losses[0]:
            errors.append(f"fold {f.fold}: last epoch loss {losses[-1]:.4f} not below first "
                          f"{losses[0]:.4f}")
    accuracy = float(np.mean([f.metrics.accuracy for f in folds]))
    if accuracy < accuracy_floor:
        errors.append(f"mean accuracy {accuracy:.3f} below the floor {accuracy_floor}")
    return errors


# --- reference forward pass ------------------------------------------------------

def _same_pad(size: int, kernel: int, stride: int) -> tuple[int, int]:
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def naive_forward(model, x: np.ndarray) -> np.ndarray:
    """The CNN's forward pass in float64, written from the layer definitions."""
    a = np.asarray(x, dtype=np.float64)
    for layer in model.layers:
        kind = type(layer).__name__
        if kind == "Conv2D":
            (kh, kw), (sh, sw) = layer.kernel, layer.stride
            pt, pb = _same_pad(a.shape[1], kh, sh)
            pl, pr = _same_pad(a.shape[2], kw, sw)
            padded = np.pad(a, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
            windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
            windows = windows[:, ::sh, ::sw]  # (N, H', W', C, kh, kw)
            a = np.einsum("nhwcij,ijco->nhwo", windows, layer.weights.astype(np.float64),
                          optimize=True) + layer.bias
            if layer.relu:
                a = np.maximum(a, 0.0)
        elif kind == "MaxPool2D":
            kh, kw = layer.kernel
            n, h, w, c = a.shape
            a = a[:, : h // kh * kh, : w // kw * kw].reshape(n, h // kh, kh, w // kw, kw, c)
            a = a.max(axis=(2, 4))
        elif kind == "Dense":
            a = a.reshape(len(a), -1) @ layer.weights.astype(np.float64) + layer.bias
            if layer.relu:
                a = np.maximum(a, 0.0)
        elif kind == "Softmax":
            e = np.exp(a - a.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
        else:
            raise TypeError(f"no reference for layer {kind}")
    return a


def check_probabilities(probs: np.ndarray) -> list[str]:
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        return ["a probability lies outside [0, 1]"]
    if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-5):
        return ["class probabilities do not sum to 1"]
    return []


def check_reference(probs: np.ndarray, reference: np.ndarray) -> list[str]:
    worst = float(np.max(np.abs(probs - reference)))
    return [] if worst <= PROB_TOL else [f"forward differs from the reference by {worst:.2e}"]


def check_close(p_a: np.ndarray, p_b: np.ndarray, what: str) -> list[str]:
    """Probabilities from two float32 paths over the same inputs agree within PROB_TOL."""
    worst = float(np.max(np.abs(p_a - p_b)))
    return [] if worst <= PROB_TOL else [f"probabilities of {what} differ by {worst:.2e}"]


def check_argmax_agree(p_a: np.ndarray, p_b: np.ndarray, what: str) -> list[str]:
    """Botnet probabilities from two paths must pick the same class away from 0.5."""
    flips = (p_a > 0.5) != (p_b > 0.5)
    flips &= np.abs(p_a - 0.5) > TIE_MARGIN
    return [f"{int(flips.sum())} argmax disagreements between {what}"] if flips.any() else []


def check_accuracy(predicted: np.ndarray, labels: np.ndarray, floor: float) -> list[str]:
    accuracy = float(np.mean(predicted == labels))
    return [] if accuracy >= floor else [f"accuracy {accuracy:.3f} below the floor {floor}"]
