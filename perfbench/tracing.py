"""Span tracing from outside the program.

The tracer wraps public calls into each botgrid module at the binding the
caller looks up (``training.encode_corpus``, ``dataset.read_permissions``,
``Conv2D.forward`` ...), records one span per call in memory, and restores
every binding on ``uninstall``.  Nothing in ``src/`` knows about it.

A span is (name, parent, start_ns, end_ns).  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict
from pathlib import Path

# Per-layer spans of the reference CNN, named by position in the stack.
LAYER_STAGES = (
    [f"conv{i}" for i in range(1, 5)] + [f"pool{i}" for i in range(1, 5)]
    + [f"dense{i}" for i in range(1, 4)] + ["softmax"]
)
LAYER_SPANS = [f"{stage}.{d}" for stage in LAYER_STAGES for d in ("fwd", "bwd")]
READ_FORMS = ("apk", "axml", "xml", "permlist")
PIPELINE_SPANS = [
    "extract_corpus", "encode_corpus", "encode", "normalize", "build_fold_vocabulary",
    "make_folds",
]
PARSE_SPANS = [f"read_permissions.{f}" for f in READ_FORMS] + [
    "parse_manifest_bytes", "parse_plain_manifest", "parse_axml", "extract_permissions",
]
APK_SPANS = ["open_apk", "apk.read"]
NN_SPANS = ["adam.step", "bce_loss", "model.forward", "model.backward", "load_model",
            "save_model"]
TRAINING_SPANS = ["train", "evaluate", "predict"]
ALL_SPANS = LAYER_SPANS + NN_SPANS + TRAINING_SPANS + PIPELINE_SPANS + PARSE_SPANS + APK_SPANS
# Spans with traced children; their self time is reported too.
SELF_SPANS = [
    "model.forward", "model.backward", "train", "evaluate", "predict", "extract_corpus",
    "encode_corpus", *[f"read_permissions.{f}" for f in READ_FORMS],
    "parse_manifest_bytes", "open_apk",
]
OVERHEAD_METRIC = "trace.overhead_pct"

_FORWARD = [span for span in LAYER_SPANS if span.endswith(".fwd")] + ["model.forward"]
_READ_ANY_KIND = PARSE_SPANS + APK_SPANS + ["encode", "normalize"]
# The spans each workload is there to exercise; a traced run in which one
# of them never fires fails, so a rename in src/ cannot report zeros.
EXERCISED = {
    "ingest": ["extract_corpus", "encode_corpus", "build_fold_vocabulary"] + _READ_ANY_KIND,
    "cv": LAYER_SPANS + [
        "model.forward", "model.backward", "adam.step", "bce_loss", "train", "evaluate",
        "make_folds", "build_fold_vocabulary", "extract_corpus", "encode_corpus", "encode",
        "normalize", "read_permissions.permlist",
    ],
    "score": _FORWARD + ["load_model", "save_model", "evaluate", "extract_corpus",
                         "encode_corpus"] + _READ_ANY_KIND,
    "predict": _FORWARD + ["load_model", "save_model", "predict"] + _READ_ANY_KIND,
}


def ms_metric(span: str) -> str:
    """conv1.fwd -> conv1.fwd_ms; bce_loss -> bce_loss.ms."""
    return f"{span}_ms" if "." in span else f"{span}.ms"


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out: list[tuple[str, str]] = []
    for span in ALL_SPANS:
        out += [(ms_metric(span), "ms"), (f"{span}.calls", "count")]
    out += [(f"{span}.self_ms", "ms") for span in SELF_SPANS]
    out += [
        ("encode_corpus.bytes_per_sample", "bytes"),
        ("open_apk.read_bytes", "bytes"),
        ("apk.useful_ratio", "ratio"),
        (OVERHEAD_METRIC, "%"),
    ]
    return out


def _rchar() -> int:
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            if line.startswith(b"rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


class Tracer:
    def __init__(self, form_of_path: dict[str, str]):
        self.form_of_path = form_of_path  # sample path -> apk | axml | xml | permlist
        self.spans: list[tuple[str, int, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stage = weakref.WeakKeyDictionary()  # layer object -> stage name

    # --- recording -----------------------------------------------------------

    def _wrap(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (label, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        from botgrid import apk, axml, dataset, manifest, training
        from botgrid.nn import layers, model, optim

        for mod in (dataset, training):
            self._wrap(mod, "extract_corpus", "extract_corpus")
            self._wrap(mod, "encode_corpus", "encode_corpus", after=self._count_tensor_bytes)
            self._wrap(mod, "encode", "encode")
            self._wrap(mod, "normalize", "normalize")
            self._wrap(mod, "read_permissions", self._read_span)
        for fn in ("build_fold_vocabulary", "make_folds", "train", "evaluate", "predict",
                   "bce_loss"):
            self._wrap(training, fn, fn)
        for fn in ("parse_manifest_bytes", "parse_plain_manifest", "extract_permissions"):
            self._wrap(manifest, fn, fn)
        self._wrap(axml, "parse_axml", "parse_axml")
        self._wrap(manifest, "open_apk", "open_apk")
        self._wrap(apk.ApkArchive, "read", "apk.read", after=self._count_inflated)
        self._wrap(optim.Adam, "step", "adam.step")
        self._wrap(model.CnnModel, "forward", self._model_span("model.forward"))
        self._wrap(model.CnnModel, "backward", self._model_span("model.backward"))
        self._wrap(model, "load_model", "load_model")
        self._wrap(model, "save_model", "save_model")
        for cls in (layers.Conv2D, layers.MaxPool2D, layers.Dense, layers.Softmax):
            self._wrap(cls, "forward", lambda args: f"{self._stage.get(args[0], '?')}.fwd")
            self._wrap(cls, "backward", lambda args: f"{self._stage.get(args[0], '?')}.bwd")
        # open_apk's bytes read: the rchar delta around each call, less what
        # reading /proc/self/io itself adds.  Wrapped around the open_apk
        # span so the span's time leaves out the two /proc reads.
        timed_open = manifest.open_apk
        counters = self.counters
        probe_cost = -_rchar() + _rchar()

        def open_apk_counting(path):
            before = _rchar()
            try:
                return timed_open(path)
            finally:
                counters["open_apk.read_bytes"] += _rchar() - before - probe_cost

        manifest.open_apk = open_apk_counting
        self._patches.append((manifest, "open_apk", timed_open))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _read_span(self, args) -> str:
        return f"read_permissions.{self.form_of_path.get(str(args[0]), 'unknown')}"

    def _model_span(self, name: str):
        def label(args) -> str:
            model = args[0]
            if model.layers[0] in self._stage:
                return name
            counts: dict[str, int] = defaultdict(int)
            for layer in model.layers:
                kind = {"Conv2D": "conv", "MaxPool2D": "pool", "Dense": "dense"}.get(
                    type(layer).__name__
                )
                if kind is None:
                    self._stage[layer] = "softmax"
                else:
                    counts[kind] += 1
                    self._stage[layer] = f"{kind}{counts[kind]}"
            return name

        return label

    def _count_tensor_bytes(self, args, result) -> None:
        tensors = result[0]
        self.counters["encode_corpus.bytes"] += tensors.nbytes
        self.counters["encode_corpus.samples"] += len(tensors)

    def _count_inflated(self, args, result) -> None:
        self.counters["apk.inflated_bytes"] += len(result)

    # --- reporting -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """span name -> calls, total_ms, self_ms."""
        child_ns = [0] * len(self.spans)
        for label, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (label, _, start, end) in enumerate(self.spans):
            row = out.setdefault(label, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def coverage_errors(self, workload: str) -> list[str]:
        """Spans the workload should fire but did not, and spans with no metric."""
        fired = self.summary()
        errors = [f"span {name!r} has no per-layer metric" for name in fired
                  if name not in ALL_SPANS]
        missing = [span for span in EXERCISED[workload] if span not in fired]
        if missing:
            errors.append(f"traced {workload} run never called {', '.join(missing)}")
        return errors

    def metrics(self) -> dict[str, float]:
        summary = self.summary()
        values: dict[str, float] = {}
        for span in ALL_SPANS:
            row = summary.get(span, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            calls = row["calls"]
            values[ms_metric(span)] = row["total_ms"] / calls if calls else 0.0
            values[f"{span}.calls"] = calls
            if span in SELF_SPANS:
                values[f"{span}.self_ms"] = row["self_ms"] / calls if calls else 0.0
        c = self.counters
        opens = summary.get("open_apk", {}).get("calls", 0)
        values["encode_corpus.bytes_per_sample"] = (
            c["encode_corpus.bytes"] / c["encode_corpus.samples"] if c["encode_corpus.samples"]
            else 0.0
        )
        values["open_apk.read_bytes"] = c["open_apk.read_bytes"] / opens if opens else 0.0
        values["apk.useful_ratio"] = (
            c["apk.inflated_bytes"] / c["open_apk.read_bytes"] if c["open_apk.read_bytes"]
            else 0.0
        )
        return values

    def dump(self, path: Path) -> None:
        """Write every span (one JSON array per line) and the summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": self.summary(), "counters": self.counters}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
