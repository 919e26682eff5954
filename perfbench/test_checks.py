"""The benchmark's checks catch a corrupted output.

    python3 -m pytest perfbench -q

Each test runs the program on a small generated corpus, confirms the
check passes on the real output, then corrupts one output and confirms
the check reports it.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from botgrid import dataset, training  # noqa: E402
from botgrid.nn.model import build_reference_model  # noqa: E402


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    apps = gen.write_corpus(corpus, seed=3, stream=1, n_botnet=20, n_benign=30,
                            forms=gen.form_counts(50))
    records = dataset.load_dataset_manifest(corpus / "data.csv")
    extracted = dataset.extract_corpus(records)
    vocab = training.build_fold_vocabulary(extracted.perm_sets, extracted.labels, 41)
    tensors, _ = dataset.encode_corpus(extracted.perm_sets, vocab)
    truth = [frozenset(a.permissions) for a in apps]
    return {
        "sets": [ps.permissions for ps in extracted.perm_sets],
        "vocab": list(vocab.permissions),
        "tensors": tensors,
        "truth": truth,
        "labels": [a.label for a in apps],
        "forms": {a.form for a in apps},
    }


def test_corpus_has_every_input_form(ingested):
    assert ingested["forms"] == set(gen.FORM_KIND)


def test_extracted_sets(ingested):
    assert checks.check_sets(ingested["sets"], ingested["truth"]) == []
    corrupted = list(ingested["sets"])
    corrupted[7] = corrupted[7] - {next(iter(corrupted[7]))}
    assert checks.check_sets(corrupted, ingested["truth"])


def test_vocabulary(ingested):
    args = (ingested["truth"], ingested["labels"], 41)
    assert checks.check_vocabulary(ingested["vocab"], *args) == []
    swapped = list(ingested["vocab"])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert checks.check_vocabulary(swapped, *args)


def test_tensors(ingested):
    assert checks.check_tensors(ingested["tensors"], ingested["truth"], ingested["vocab"]) == []
    corrupted = ingested["tensors"].copy()
    corrupted[4, 2, 3, 0] = 1.0 - corrupted[4, 2, 3, 0]
    assert checks.check_tensors(corrupted, ingested["truth"], ingested["vocab"])


def test_forward_reference(ingested):
    model = build_reference_model(seed=5)
    images = ingested["tensors"][:3]
    probs = model.forward(images)
    reference = checks.naive_forward(model, images)
    assert checks.check_reference(probs, reference) == []
    assert checks.check_probabilities(probs) == []
    corrupted = probs.copy()
    corrupted[1] = corrupted[1, ::-1]
    assert checks.check_reference(corrupted, reference)
    corrupted[2, 0] = 1.5
    assert checks.check_probabilities(corrupted)


def test_close():
    p = np.array([0.9, 0.2, 0.7])
    assert checks.check_close(p, p + 5e-5, "a and b") == []
    assert checks.check_close(p, np.array([0.9, 0.21, 0.7]), "a and b")


def test_argmax_and_accuracy():
    p = np.array([0.9, 0.2, 0.5004, 0.7])
    assert checks.check_argmax_agree(p, np.array([0.8, 0.1, 0.4996, 0.6]), "a and b") == []
    assert checks.check_argmax_agree(p, np.array([0.8, 0.1, 0.5, 0.3]), "a and b")
    labels = np.array([1, 0, 1, 1])
    assert checks.check_accuracy((p > 0.5).astype(int), labels, 1.0) == []
    assert checks.check_accuracy(np.array([1, 0, 0, 0]), labels, 0.75)


def test_folds(tmp_path):
    gen.write_corpus(tmp_path, seed=4, stream=2, n_botnet=6, n_benign=6)
    records = dataset.load_dataset_manifest(tmp_path / "data.csv")
    truth = gen.load_truth(tmp_path)
    config = training.TrainConfig(k=3, epochs=2, seed=4)
    result = training.cross_validate(records, config)
    paths = [r.path for r in records]
    args = ({p: a.label for p, a in zip(paths, truth)},
            {p: frozenset(a.permissions) for p, a in zip(paths, truth)}, 3, 41)
    folds = list(result.folds)
    # Two epochs of one step each need not lower the loss; every other check holds.
    assert [e for e in checks.check_folds(folds, *args, 0.0) if "loss" not in e] == []
    leaked = replace(folds[0], vocab_paths=tuple(paths))
    assert checks.check_folds([leaked] + folds[1:], *args, 0.0)
    moved = replace(folds[0], test_paths=folds[0].test_paths[1:])
    assert checks.check_folds([moved] + folds[1:], *args, 0.0)
    assert any("floor" in e for e in checks.check_folds(folds, *args, 1.01))


def test_traced_run_reports_spans_that_never_fired(tmp_path):
    from tracing import Tracer

    apps = gen.write_corpus(tmp_path, seed=5, stream=1, n_botnet=10, n_benign=10,
                            forms=gen.form_counts(20))
    records = dataset.load_dataset_manifest(tmp_path / "data.csv")
    tracer = Tracer({r.path: gen.FORM_SPAN[a.form] for r, a in zip(records, apps)})
    tracer.install()
    try:
        extracted = dataset.extract_corpus(records)
        vocab = training.build_fold_vocabulary(extracted.perm_sets, extracted.labels, 41)
        dataset.encode_corpus(extracted.perm_sets, vocab)
    finally:
        tracer.uninstall()
    assert dataset.extract_corpus.__name__ == "extract_corpus"  # bindings restored
    assert tracer.coverage_errors("ingest") == []
    assert "load_model" in " ".join(tracer.coverage_errors("predict"))
    assert tracer.metrics()["read_permissions.apk.calls"] == 4
