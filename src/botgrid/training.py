"""Training loop, k-fold cross-validation, prediction, and reporting.

Everything downstream of the corpus bytes is a deterministic function
of (inputs, config, seed): fold assignment, weight init, and epoch
shuffles all derive from the single config seed, and reports carry no
wall-clock state, so identical runs produce identical bytes.

By default the vocabulary is rebuilt from the training folds of each
split so the held-out fold cannot influence the image axes; set
vocab_from_all to rank permissions over the whole corpus instead.

Inference forwards each distinct image once, in even chunks of at most
EVAL_BATCH rows.  The calling thread and one helper thread (see cpus)
each take the next chunk nobody has taken until none is left; an
inference forward never splits a conv, so each chunk runs on one thread.
A forward gives each row the same bits whatever else its batch holds, in
either dtype, so batch-1 predict and evaluate agree on every sample, and
which thread forwards a chunk changes no bits either.

cross_validate trains its folds the same way: the calling thread and one
helper each take the next fold and write its result into that fold's
slot.  While they run, the helper holds the process's spare CPU, so the
train steps and evaluate inside a fold start no thread of their own; a
fold's result does not depend on which thread ran it, or on whether a
helper ran at all.

Training, likewise, forwards and backpropagates each distinct (image,
label) row of a batch once, with the summed loss gradient of its copies;
the loss still averages over every row.  A batch with repeats sums the
weight gradients over fewer rows, so they can differ from a per-row sum in
the last bits; a batch without repeats runs the per-row arithmetic exactly.

Each convolution computes only the output rows and columns that a later
layer reads (see nn.model), so inference gives the same bits as computing
every output.  Training sums each conv's weight and bias gradients over
the read rows only, which drops only exact zeros but can change the last
bits, as the deduplicated rows can.  A conv's weight gradient is also
summed tile by tile (see nn.layers), which differs from one whole-batch
GEMM in the last bits.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .dataset import (
    LABELS,
    ExtractedCorpus,
    ManifestRecord,
    encode_corpus,
    extract_corpus,
    label_index,
)
from .cpus import in_parallel
from .encoder import encode, normalize
from .errors import EmptyCorpus, EmptyDataset, NonFiniteLoss
from .folds import FoldPlan, make_folds
from .manifest import PermissionSet, read_permissions
from .metrics import ConfusionCounts, EvalMetrics, compute_metrics
from .nn.loss import bce_loss
from .nn.model import CnnModel, build_reference_model
from .nn.optim import Adam
from .vocabulary import PermissionVocabulary

# Inference's two threads each forward one chunk at a time, so 16 rows are
# in flight, the count a sweep of 16, 32 and 64 picked on the score
# workload.  16-row chunks on each thread raised evaluate's tracemalloc
# peak on 64 distinct images from 11.0 to 15.9 MB.  A row's output has the
# same bits at any chunk size.
EVAL_BATCH = 8


@dataclass(frozen=True)
class TrainConfig:
    # 1e-4 rather than the optimizer's reference 1e-3: co-occurrence
    # images have a strong common component across samples, and at 1e-3
    # Adam's normalized steps can push the 16-unit bottleneck layer all
    # negative in the first epoch (dead ReLUs, loss pinned at ln 2).
    epochs: int = 25
    batch_size: int = 32
    learning_rate: float = 1e-4
    seed: int = 0
    vocab_size: int = 41
    k: int = 10
    val_fraction: float = 0.0
    vocab_from_all: bool = False
    dtype: str = "float32"

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if min(self.batch_size, self.vocab_size) < 1:
            raise ValueError("batch_size and vocab_size must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def derive_seed(*parts: int) -> int:
    """Stable 64-bit sub-seed from a root seed and stream keys."""
    words = np.random.SeedSequence(parts).generate_state(2, dtype=np.uint32)
    return int(words[0]) << 32 | int(words[1])


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float | None = None


def _stratified_carve(labels: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Boolean mask selecting a per-class fraction of samples."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(labels), dtype=bool)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        take = int(np.ceil(fraction * len(members)))
        mask[members[:take]] = True
    return mask


def train_step(
    model: CnnModel, batch: np.ndarray, labels: np.ndarray, adam: Adam
) -> tuple[float, np.ndarray]:
    """Forward, loss, full backward, one optimizer step.

    Each distinct (image, label) row is forwarded and backpropagated once,
    with the summed gradient of its copies; the loss runs on every row.
    Returns the batch loss and the pre-update output probabilities.
    """
    first, inverse = _distinct_rows(batch, labels)
    probs = model.forward(batch[first], train=True)[inverse]
    loss = bce_loss(probs[:, 1], labels)
    if not np.isfinite(loss.value):
        raise NonFiniteLoss(f"loss diverged to {loss.value}")
    grad_probs = np.zeros((len(first), probs.shape[1]), dtype=probs.dtype)
    np.add.at(grad_probs[:, 1], inverse, loss.gradient)
    model.backward(grad_probs)
    adam.step(model.params(), model.grads())
    return loss.value, probs


def train(
    tensors: np.ndarray, labels: np.ndarray, config: TrainConfig
) -> tuple[CnnModel, list[EpochStats]]:
    """Mini-batch training with seeded per-epoch shuffles.

    Reported train_acc is the running accuracy of the pre-update batch
    predictions seen during the epoch.
    """
    labels = np.asarray(labels)
    if len(tensors) == 0:
        raise EmptyDataset("no samples to train on")

    val_tensors = val_labels = None
    if config.val_fraction > 0:
        mask = _stratified_carve(labels, config.val_fraction, derive_seed(config.seed, 2))
        val_tensors, val_labels = tensors[mask], labels[mask]
        tensors, labels = tensors[~mask], labels[~mask]
    if len(np.unique(labels)) < 2:
        raise EmptyDataset("training requires both classes to be present")

    n = tensors.shape[1]
    model = build_reference_model(
        seed=derive_seed(config.seed, 0), n=n, dtype=config.np_dtype
    )
    adam = Adam(config.learning_rate)
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, 1))

    trace: list[EpochStats] = []
    count = len(tensors)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(count)
        loss_sum = 0.0
        correct = 0
        for start in range(0, count, config.batch_size):
            idx = order[start : start + config.batch_size]
            yb = labels[idx]
            loss, probs = train_step(model, tensors[idx], yb, adam)
            loss_sum += loss * len(idx)
            correct += int(np.sum(np.argmax(probs, axis=1) == yb))
        val_acc = None
        if val_tensors is not None and len(val_tensors):
            val_acc = float(np.mean(_predict_distinct(model, val_tensors) == val_labels))
        trace.append(
            EpochStats(epoch, loss_sum / count, correct / count, val_acc)
        )
    return model, trace


def _distinct_rows(tensors: np.ndarray, labels: np.ndarray | None = None):
    """(first, inverse): where each distinct row first appears, in order of
    appearance, and each row's position among them.  A row is keyed by its
    bytes and label, so -0.0, NaN and any tensor match exactly."""
    rows = np.ascontiguousarray(tensors).reshape(len(tensors), -1).view(np.uint8)
    if labels is not None:
        label_bytes = np.asarray(labels, dtype=np.int64).reshape(-1, 1).view(np.uint8)
        rows = np.concatenate([rows, label_bytes], axis=1)
    seen: dict[bytes, int] = {}  # a row's bytes -> the row where they first appear
    earliest = np.array([seen.setdefault(row.tobytes(), i) for i, row in enumerate(rows)], np.intp)
    first = np.flatnonzero(earliest == np.arange(len(rows)))
    return first, np.searchsorted(first, earliest)


def _map_on_two_threads(fn, count: int) -> list:
    """[fn(i) for i in range(count)], with the calling thread and one helper
    thread (see cpus) each taking the next i that neither has taken; each
    result lands in its own slot, whichever thread computed it."""
    results: list = [None] * count
    claims = itertools.count()  # next() on a count is atomic under the GIL

    def work() -> None:
        for i in itertools.takewhile(lambda i: i < count, claims):
            results[i] = fn(i)

    in_parallel(work, work)
    return results


def _predict_distinct(model: CnnModel, tensors: np.ndarray) -> np.ndarray:
    """Class per sample, each distinct image forwarded once."""
    first, inverse = _distinct_rows(tensors)
    chunks = np.array_split(first, -(-len(first) // EVAL_BATCH))
    predicted = _map_on_two_threads(lambda i: model.predict(tensors[chunks[i]]), len(chunks))
    return np.concatenate(predicted)[inverse]


def evaluate(model: CnnModel, tensors: np.ndarray, labels: np.ndarray) -> EvalMetrics:
    """Argmax predictions scored with botnet as the positive class.

    Each distinct image is forwarded once, in even chunks of at most
    EVAL_BATCH rows that the calling thread and one helper thread take in
    turn, each chunk on one thread; a row's output has the same bits at
    any chunk size and on either thread.
    """
    labels = np.asarray(labels)
    if len(tensors) == 0:
        raise EmptyDataset("no samples to evaluate")
    predicted = _predict_distinct(model, tensors)
    return compute_metrics(ConfusionCounts.from_predictions(predicted, labels))


def predict(
    model: CnnModel, vocab: PermissionVocabulary, path, kind: str | None = None
) -> tuple[str, float]:
    """Single-sample inference: (label, botnet probability)."""
    perms = read_permissions(path, kind)
    tensor = normalize(encode(perms, vocab), dtype=model.dtype)
    probs = model.forward(tensor[None])
    return LABELS[int(np.argmax(probs[0]))], float(probs[0, 1])


def build_fold_vocabulary(
    perm_sets: list[PermissionSet], labels: list[str], size: int
) -> PermissionVocabulary:
    """The top `size` permissions by summed per-class request fractions.

    A permission scores the fraction of botnet apps that request it plus
    the fraction of benign apps that do, so an imbalanced corpus cannot
    drown out the rarer class.  Ties break by name.
    """
    counts = {"botnet": Counter(), "benign": Counter()}
    apps = dict.fromkeys(counts, 0)
    for perms, label in zip(perm_sets, labels):
        counts[label].update(perms.permissions)
        apps[label] += 1
    scores: dict[str, float] = {}
    for label, counter in counts.items():
        if not apps[label]:
            raise EmptyCorpus(f"no {label} samples to count")
        for name, count in counter.items():
            scores[name] = scores.get(name, 0.0) + count / apps[label]
    if size < 1:
        raise ValueError(f"vocabulary size must be >= 1, got {size}")
    if not scores:
        raise EmptyCorpus("no application in either class requests any permission")
    ranked = sorted(scores, key=lambda name: (-scores[name], name))
    return PermissionVocabulary(tuple(ranked[:size]))


@dataclass(frozen=True)
class FoldResult:
    fold: int
    metrics: EvalMetrics
    trace: tuple[EpochStats, ...]
    vocabulary: tuple[str, ...]
    train_paths: tuple[str, ...]
    test_paths: tuple[str, ...]
    vocab_paths: tuple[str, ...]  # samples whose permissions ranked the vocabulary


@dataclass(frozen=True)
class MetricSummary:
    mean: float | None
    std: float | None
    defined_folds: int


@dataclass(frozen=True)
class CvResult:
    config: TrainConfig
    folds: tuple[FoldResult, ...]
    summary: dict[str, MetricSummary]
    failures: tuple[tuple[str, str], ...]
    class_counts: dict[str, int]


METRIC_NAMES = ("accuracy", "precision", "recall", "fpr", "f_measure")


def summarize_folds(folds: list[FoldResult]) -> dict[str, MetricSummary]:
    summary = {}
    for name in METRIC_NAMES:
        values = [
            getattr(fr.metrics, name) for fr in folds if getattr(fr.metrics, name) is not None
        ]
        if values:
            mean = float(np.mean(values))
            std = float(np.std(values))
        else:
            mean = std = None
        summary[name] = MetricSummary(mean, std, len(values))
    return summary


def _run_fold(
    fold: int,
    corpus: ExtractedCorpus,
    plan: FoldPlan,
    config: TrainConfig,
    shared_vocab: PermissionVocabulary | None,
) -> FoldResult:
    train_idx, test_idx = plan.split(fold)
    train_sets = [corpus.perm_sets[i] for i in train_idx]
    train_labels = [corpus.labels[i] for i in train_idx]
    if shared_vocab is not None:
        vocab = shared_vocab
        vocab_paths = tuple(corpus.paths)
    else:
        vocab = build_fold_vocabulary(train_sets, train_labels, config.vocab_size)
        vocab_paths = tuple(corpus.paths[i] for i in train_idx)

    train_tensors, _ = encode_corpus(train_sets, vocab, dtype=config.np_dtype)
    test_tensors, _ = encode_corpus(
        [corpus.perm_sets[i] for i in test_idx], vocab, dtype=config.np_dtype
    )
    train_y = np.array([label_index(lbl) for lbl in train_labels])
    test_y = np.array([label_index(corpus.labels[i]) for i in test_idx])

    fold_config = replace(config, seed=derive_seed(config.seed, 10_000 + fold))
    model, trace = train(train_tensors, train_y, fold_config)
    metrics = evaluate(model, test_tensors, test_y)
    return FoldResult(
        fold=fold,
        metrics=metrics,
        trace=tuple(trace),
        vocabulary=vocab.permissions,
        train_paths=tuple(corpus.paths[i] for i in train_idx),
        test_paths=tuple(corpus.paths[i] for i in test_idx),
        vocab_paths=vocab_paths,
    )


def cross_validate(
    records: list[ManifestRecord], config: TrainConfig, jobs: int = 1
) -> CvResult:
    """Train on k-1 folds and evaluate on the held-out one, k times, two
    folds at a time when a second CPU is free.  Nothing reads `jobs`:
    perfbench's `cv` workload still passes jobs=1, and it goes when that
    call does."""
    corpus = extract_corpus(records)
    plan = make_folds(corpus.labels, config.k, config.seed)
    shared_vocab = None
    if config.vocab_from_all:
        shared_vocab = build_fold_vocabulary(corpus.perm_sets, corpus.labels, config.vocab_size)

    run = partial(_run_fold, corpus=corpus, plan=plan, config=config, shared_vocab=shared_vocab)
    fold_results = _map_on_two_threads(run, config.k)

    class_counts = {label: corpus.labels.count(label) for label in LABELS}
    return CvResult(
        config=config,
        folds=tuple(fold_results),
        summary=summarize_folds(fold_results),
        failures=tuple(corpus.failures),
        class_counts=class_counts,
    )


# --- Reporting ---


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def render_report(result: CvResult, fmt: str = "text") -> str:
    if fmt == "json":
        return _render_json(result)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    cfg = result.config
    lines = [
        "cross-validation report",
        "=======================",
        f"seed: {cfg.seed}",
        f"folds: {cfg.k}",
        "samples: "
        + f"{sum(result.class_counts.values())} ("
        + ", ".join(f"{label}={result.class_counts[label]}" for label in LABELS)
        + ")",
        f"extraction failures: {len(result.failures)}",
        "config: "  # every field but seed and k, which head the report
        + " ".join(f"{k}={v}" for k, v in asdict(cfg).items() if k not in ("seed", "k")),
        "",
        "fold    tp    tn    fp    fn  accuracy   precision  recall     fpr        f_measure",
    ]
    for fr in result.folds:
        c = fr.metrics.counts
        lines.append(
            f"{fr.fold:4d}  {c.tp:4d}  {c.tn:4d}  {c.fp:4d}  {c.fn:4d}  "
            f"{_fmt(fr.metrics.accuracy):<9}  {_fmt(fr.metrics.precision):<9}  "
            f"{_fmt(fr.metrics.recall):<9}  {_fmt(fr.metrics.fpr):<9}  "
            f"{_fmt(fr.metrics.f_measure)}"
        )
    lines.append("")
    lines.append("summary (mean / std over folds where defined):")
    for name in METRIC_NAMES:
        s = result.summary[name]
        lines.append(
            f"  {name:<10} {_fmt(s.mean)} / {_fmt(s.std)}  "
            f"[{s.defined_folds}/{len(result.folds)} folds]"
        )
    for path, reason in result.failures:
        lines.append(f"failed: {path}: {reason}")
    return "\n".join(lines) + "\n"


def _render_json(result: CvResult) -> str:
    payload = {
        "config": asdict(result.config),
        "class_counts": result.class_counts,
        "failures": [list(f) for f in result.failures],
        "folds": [
            {
                "fold": fr.fold,
                "metrics": asdict(fr.metrics),
                "trace": [asdict(row) for row in fr.trace],
                "vocabulary_size": len(fr.vocabulary),
            }
            for fr in result.folds
        ],
        "summary": {name: asdict(s) for name, s in result.summary.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_trace_csv(trace: list[EpochStats] | tuple[EpochStats, ...]) -> str:
    """epoch,train_loss,train_acc[,val_acc] per the epoch-trace contract."""
    with_val = any(row.val_acc is not None for row in trace)
    header = "epoch,train_loss,train_acc" + (",val_acc" if with_val else "")
    lines = [header]
    for row in trace:
        line = f"{row.epoch},{row.train_loss:.6f},{row.train_acc:.6f}"
        if with_val:
            line += f",{'' if row.val_acc is None else f'{row.val_acc:.6f}'}"
        lines.append(line)
    return "\n".join(lines) + "\n"
