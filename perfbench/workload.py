"""One benchmark workload, run in its own process.

Usage: python3 workload.py CONFIG.json

CONFIG names the workload, the generated corpus, the model files, the run
length and whether to trace.  The process imports botgrid from the source
tree, sets up (load_model where the workload uses one, then a warm-up
pass) several times, runs whole rounds of the workload's operation until
the run length is spent, checks the outputs against references computed
apart from the program, and prints one JSON object as its last line.

With tracing on, rounds alternate untraced and traced, so the traced run
reports its own overhead.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5


class Workload:
    """Subclasses define warm_up, run_round and check."""

    def __init__(self, cfg: dict):
        from botgrid import dataset

        self.cfg = cfg
        self.corpus_dir = Path(cfg["corpus"])
        self.records = dataset.load_dataset_manifest(self.corpus_dir / "data.csv")
        self.truth = gen.load_truth(self.corpus_dir)
        self.true_sets = [frozenset(a.permissions) for a in self.truth]
        self.labels = [a.label for a in self.truth]
        self.form_of_path = {
            r.path: gen.FORM_SPAN[a.form] for r, a in zip(self.records, self.truth)
        }
        # The warm-up corpus: fixed form counts and APK sizes on every seed.
        self.warmup = []
        if "warmup" in cfg:
            warmup_dir = Path(cfg["warmup"])
            self.warmup = list(zip(dataset.load_dataset_manifest(warmup_dir / "data.csv"),
                                   gen.load_truth(warmup_dir)))

    def setup_once(self) -> None:
        """Untimed preparation that runs once, before the timed set-ups."""

    def load(self) -> None:
        """The timed part of set-up that comes before the warm-up pass."""

    def label_ids(self, labels) -> np.ndarray:
        return np.array([gen.LABELS.index(lbl) for lbl in labels])


class Ingest(Workload):
    def warm_up(self) -> None:
        self._pipeline([r for r, _ in self.warmup])

    def _pipeline(self, records):
        from botgrid import dataset, training

        corpus = dataset.extract_corpus(records)
        vocab = training.build_fold_vocabulary(corpus.perm_sets, corpus.labels,
                                               self.cfg["vocab_size"])
        tensors, _ = dataset.encode_corpus(corpus.perm_sets, vocab)
        return corpus, vocab, tensors

    def run_round(self) -> tuple[int, int]:
        self.out = None  # the last round's outputs are kept for the checks only
        self.out = self._pipeline(self.records)
        return len(self.records), len(self.out[0].failures)

    def check(self) -> list[str]:
        corpus, vocab, tensors = self.out
        sets = [ps.permissions for ps in corpus.perm_sets]
        return (
            checks.check_sets(sets, self.true_sets)
            + checks.check_vocabulary(list(vocab.permissions), self.true_sets, self.labels,
                                      self.cfg["vocab_size"])
            + checks.check_tensors(tensors, self.true_sets, list(vocab.permissions))
        )


class CrossValidate(Workload):
    def config(self, **changes):
        from botgrid.training import TrainConfig

        return TrainConfig(**{**self.cfg["train"], "seed": self.cfg["seed"], **changes})

    def warm_up(self) -> None:
        from botgrid import training

        # Two apps of each class, two folds, one epoch.
        few = []
        for label in gen.LABELS:
            few += [r for r in self.records if r.label == label][:2]
        training.cross_validate(few, self.config(k=2, epochs=1), jobs=1)

    def run_round(self) -> tuple[int, int]:
        from botgrid import training

        cfg = self.config()
        self.out = None
        self.out = training.cross_validate(self.records, cfg, jobs=1)
        # Each app trains in k - 1 folds, once per epoch.
        per_app = (cfg.k - 1) * cfg.epochs
        return len(self.records) * per_app, len(self.out.failures) * per_app

    def check(self) -> list[str]:
        cfg = self.config()
        paths = [r.path for r in self.records]
        return checks.check_folds(
            self.out.folds, dict(zip(paths, self.labels)), dict(zip(paths, self.true_sets)),
            cfg.k, cfg.vocab_size, self.cfg["accuracy_floor"])


class Classify(Workload):
    """Shared by score and predict: a loaded model plus its vocabulary."""

    def load(self) -> None:
        from botgrid.nn import model

        self.model = model.load_model(self.cfg["model"])

    def setup_once(self) -> None:
        # The model was saved by the training step; save and load it once
        # more here so the workload itself goes through both calls.
        from botgrid import vocabulary
        from botgrid.nn import model

        trained = model.load_model(self.cfg["trained_model"])
        model.save_model(trained, self.cfg["model"])
        self.vocab = vocabulary.load_vocabulary(self.cfg["vocab"])

    def forward_truth(self) -> np.ndarray:
        """Batch-256 forward over images built here from the true permission sets."""
        vocab = list(self.vocab.permissions)
        self.images = np.stack([checks.image(s, vocab) for s in self.true_sets])[..., None]
        self.images = self.images.astype(np.float32)
        return np.concatenate([self.model.forward(self.images[i:i + 256])
                               for i in range(0, len(self.images), 256)])

    def check_model(self, batched: np.ndarray) -> list[str]:
        """Reference forward, batch-1 vs batch-256 argmax and accuracy."""
        subset = slice(0, self.cfg["reference_apps"])
        reference = checks.naive_forward(self.model, self.images[subset])
        single = np.concatenate([self.model.forward(self.images[i:i + 1])
                                 for i in range(subset.stop)])
        return (
            checks.check_probabilities(batched)
            + checks.check_probabilities(single)
            + checks.check_reference(single, reference)
            + checks.check_reference(batched[subset], reference)
            + checks.check_argmax_agree(batched[subset, 1], single[:, 1], "batch 256 and batch 1")
            + checks.check_accuracy(np.argmax(batched, axis=1), self.label_ids(self.labels),
                                    self.cfg["accuracy_floor"])
        )


class Score(Classify):
    def warm_up(self) -> None:
        self._score([r for r, _ in self.warmup])

    def _score(self, records):
        from botgrid import dataset, training

        corpus = dataset.extract_corpus(records)
        tensors, _ = dataset.encode_corpus(corpus.perm_sets, self.vocab)
        result = training.evaluate(self.model, tensors, self.label_ids(corpus.labels))
        return corpus, result

    def run_round(self) -> tuple[int, int]:
        self.out = None
        self.out = self._score(self.records)
        return len(self.records), len(self.out[0].failures)

    def check(self) -> list[str]:
        corpus, result = self.out
        errors = checks.check_sets([ps.permissions for ps in corpus.perm_sets], self.true_sets)
        # evaluate reports counts only; rebuild them from the reference images.
        batched = self.forward_truth()
        predicted, y = np.argmax(batched, axis=1), self.label_ids(self.labels)
        pairs = ((1, 1), (0, 0), (1, 0), (0, 1))
        want = tuple(int(np.sum((predicted == p) & (y == t))) for p, t in pairs)
        got = (result.counts.tp, result.counts.tn, result.counts.fp, result.counts.fn)
        if got != want:
            errors.append(f"evaluate counts tp/tn/fp/fn {got} != recomputed {want}")
        return errors + self.check_model(batched)


class Predict(Classify):
    def setup_once(self) -> None:
        super().setup_once()
        order = gen.rng_for(self.cfg["seed"], 40).permutation(len(self.records))
        self.order = [int(i) for i in order]
        self.latencies_ms: list[float] = []
        self.answers: dict[int, tuple[str, float]] = {}

    def warm_up(self) -> None:
        from botgrid import training

        first_of_form = {}
        for r, app in self.warmup:
            first_of_form.setdefault(app.form, r)
        for r in first_of_form.values():
            training.predict(self.model, self.vocab, r.path, r.kind)

    def run_round(self) -> tuple[int, int]:
        from botgrid import training
        from botgrid.errors import BotgridError

        failed = 0
        answers = {}
        clock = time.perf_counter
        for i in self.order:
            r = self.records[i]
            start = clock()
            try:
                answers[i] = training.predict(self.model, self.vocab, r.path, r.kind)
            except (BotgridError, OSError, ValueError):
                failed += 1
            self.latencies_ms.append((clock() - start) * 1e3)
        self.answers = answers  # the checks read the last round's answers
        return len(self.order), failed

    def check(self) -> list[str]:
        if len(self.answers) != len(self.records):
            return [f"{len(self.records) - len(self.answers)} requests never answered"]
        answers = [self.answers[i] for i in range(len(self.records))]
        p_botnet = np.array([p for _, p in answers])
        errors = []
        if not np.all((p_botnet >= 0) & (p_botnet <= 1)):
            errors.append("a botnet probability lies outside [0, 1]")
        if any(label != ("botnet" if p > 0.5 else "benign") and abs(p - 0.5) > checks.TIE_MARGIN
               for label, p in answers):
            errors.append("a predicted label disagrees with its probability")
        # predict builds each image from the permissions it read; the
        # reference images come from the true sets, so a read that drops or
        # adds a permission moves the probability even if not the class.
        batched = self.forward_truth()
        errors += checks.check_close(batched[:, 1], p_botnet, "batch 256 and predict")
        errors += checks.check_argmax_agree(batched[:, 1], p_botnet, "batch 256 and predict")
        return errors + self.check_model(batched)


WORKLOADS = {"ingest": Ingest, "cv": CrossValidate, "score": Score, "predict": Predict}


def timed_round(work: Workload) -> tuple[float, int, int]:
    """(seconds, items attempted, items failed) of one whole round."""
    t0 = time.perf_counter()
    items, failed = work.run_round()
    return time.perf_counter() - t0, items, failed


def run_for(work: Workload, seconds: float, tracer: Tracer | None) -> dict[str, list]:
    """Whole rounds until `seconds` have passed.

    With a tracer, rounds alternate untraced and traced, so the overhead
    compares rounds that ran under the same conditions.
    """
    rounds: dict[str, list] = {"plain": [], "traced": []}
    start = time.perf_counter()
    while not rounds["plain"] or time.perf_counter() - start < seconds:
        rounds["plain"].append(timed_round(work))
        if tracer:
            tracer.install()
            rounds["traced"].append(timed_round(work))
            tracer.uninstall()
    return rounds


def rate(rounds) -> float:
    """Items per second over all the rounds together."""
    return sum(r[1] for r in rounds) / sum(r[0] for r in rounds)


def main() -> int:
    cfg = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, cfg["src"])
    import botgrid  # noqa: F401

    work = WORKLOADS[cfg["workload"]](cfg)
    tracer = Tracer(work.form_of_path) if cfg["trace"] else None
    if tracer:
        tracer.install()  # the save_model and load_model spans come from here
    work.setup_once()
    if tracer:
        tracer.uninstall()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.load()
        work.warm_up()
        setup_s.append(time.perf_counter() - t0)

    # Keep the benchmark's own long-lived objects (corpus records, truth)
    # out of the collections the program's work triggers.
    gc.collect()
    gc.freeze()
    rounds = run_for(work, cfg["seconds"], tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    everything = rounds["plain"] + rounds["traced"]
    result = {
        "errors": work.check(),
        "attempted": sum(r[1] for r in everything),
        "failed": sum(r[2] for r in everything),
        "round_ms": [round(r[0] * 1e3, 1) for r in rounds["plain"]],
    }
    if tracer:
        metrics = tracer.metrics()
        overhead = rate(rounds["plain"]) / rate(rounds["traced"]) - 1
        metrics["trace.overhead_pct"] = overhead * 100
        result["per_layer"] = metrics
        result["errors"] += tracer.coverage_errors(cfg["workload"])
        tracer.dump(Path(cfg["span_dump"]))
    else:
        result["end_to_end"] = {
            "items_per_s": rate(rounds["plain"]),
            "setup_rest_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
        if isinstance(work, Predict):
            result["request_ms"] = {
                "p50": float(np.percentile(work.latencies_ms, 50)),
                "p99": float(np.percentile(work.latencies_ms, 99)),
                "samples": len(work.latencies_ms),
            }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
