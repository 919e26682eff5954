import math

import numpy as np
import pytest

from botgrid.dataset import encode_corpus, extract_corpus, label_index
from botgrid.errors import EmptyDataset, NonFiniteLoss
from botgrid.metrics import ConfusionCounts
from botgrid.nn import Adam, build_reference_model
from botgrid.synth import SynthSpec, generate_synthetic_corpus
from botgrid.training import (
    TrainConfig,
    build_fold_vocabulary,
    cross_validate,
    evaluate,
    predict,
    render_report,
    render_trace_csv,
    summarize_folds,
    train,
    train_step,
)
from botgrid.vocabulary import PermissionVocabulary


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    # noise rate high enough that all 20 pool permissions occur, so the
    # 16-entry vocabulary (minimum for four pooling stages) always fills
    spec = SynthSpec(
        n_botnet=30, n_benign=30, pool_size=20,
        botnet_signature_size=4, benign_signature_size=3,
        noise_rate=0.2, seed=17,
    )
    records = generate_synthetic_corpus(spec, out)
    corpus = extract_corpus(records)
    vocab = build_fold_vocabulary(corpus.perm_sets, corpus.labels, 16)
    tensors, _ = encode_corpus(corpus.perm_sets, vocab)
    labels = np.array([label_index(lbl) for lbl in corpus.labels])
    return records, corpus, vocab, tensors, labels


def test_zero_epochs_returns_untrained_model(small_corpus):
    _, _, _, tensors, labels = small_corpus
    cfg = TrainConfig(epochs=0, seed=1, vocab_size=16)
    model, trace = train(tensors, labels, cfg)
    assert trace == []
    assert sum(p.size for p in model.params()) > 0


def test_training_is_deterministic(small_corpus):
    _, _, _, tensors, labels = small_corpus
    cfg = TrainConfig(epochs=2, seed=3, vocab_size=16)
    model_a, trace_a = train(tensors, labels, cfg)
    model_b, trace_b = train(tensors, labels, cfg)
    assert trace_a == trace_b
    for pa, pb in zip(model_a.params(), model_b.params()):
        assert np.array_equal(pa, pb)


def test_training_learns_separable_corpus(tmp_path):
    spec = SynthSpec(
        n_botnet=100, n_benign=100, pool_size=20,
        botnet_signature_size=4, benign_signature_size=3,
        noise_rate=0.0, seed=23,
    )
    records = generate_synthetic_corpus(spec, tmp_path)
    corpus = extract_corpus(records)
    # noise-free corpora only exercise the signature permissions, so fix
    # the image axes to the full pool instead of the observed union
    from botgrid.synth import pool_permission

    vocab = PermissionVocabulary(tuple(pool_permission(i) for i in range(16)))
    tensors, _ = encode_corpus(corpus.perm_sets, vocab)
    labels = np.array([label_index(lbl) for lbl in corpus.labels])
    cfg = TrainConfig(epochs=25, seed=2, vocab_size=16)
    model, trace = train(tensors, labels, cfg)
    assert any(row.train_acc >= 0.99 for row in trace)
    assert trace[-1].train_acc >= 0.99
    held = evaluate(model, tensors, labels)
    assert held.accuracy >= 0.99


def test_train_requires_both_classes(small_corpus):
    _, _, _, tensors, labels = small_corpus
    mask = labels == 0
    with pytest.raises(EmptyDataset):
        train(tensors[mask], labels[mask], TrainConfig(epochs=1, seed=0))
    with pytest.raises(EmptyDataset):
        train(tensors[:0], labels[:0], TrainConfig(epochs=1, seed=0))


def test_single_sample_overfit():
    model = build_reference_model(seed=11)
    adam = Adam()
    rng = np.random.default_rng(5)
    x = rng.random((1, 41, 41, 1), dtype=np.float32)
    y = np.array([1])
    before = model.forward(x)
    loss, probs = train_step(model, x, y, adam)
    assert np.array_equal(probs, before)  # pre-update probabilities
    losses = [loss] + [train_step(model, x, y, adam)[0] for _ in range(199)]
    assert losses[-1] < 1e-2
    assert losses[-1] < losses[0]


def test_train_step_raises_on_non_finite():
    model = build_reference_model(seed=0)
    model.layers[0].weights[:] = np.nan
    with pytest.raises(NonFiniteLoss):
        train_step(
            model,
            np.ones((1, 41, 41, 1), np.float32),
            np.array([0]),
            Adam(),
        )


def test_val_split_adds_column(small_corpus):
    _, _, _, tensors, labels = small_corpus
    cfg = TrainConfig(epochs=2, seed=3, vocab_size=16, val_fraction=0.2)
    _, trace = train(tensors, labels, cfg)
    assert all(row.val_acc is not None for row in trace)
    csv_text = render_trace_csv(trace)
    assert csv_text.splitlines()[0] == "epoch,train_loss,train_acc,val_acc"


def test_trace_csv_format(small_corpus):
    _, _, _, tensors, labels = small_corpus
    cfg = TrainConfig(epochs=2, seed=3, vocab_size=16)
    _, trace = train(tensors, labels, cfg)
    lines = render_trace_csv(trace).splitlines()
    assert lines[0] == "epoch,train_loss,train_acc"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


def test_evaluate_counts_and_metrics(small_corpus):
    _, _, _, tensors, labels = small_corpus
    cfg = TrainConfig(epochs=1, seed=5, vocab_size=16)
    model, _ = train(tensors, labels, cfg)
    metrics = evaluate(model, tensors, labels)
    assert metrics.counts.total == len(labels)
    with pytest.raises(EmptyDataset):
        evaluate(model, tensors[:0], labels[:0])


def test_predict_consistency_with_evaluate(small_corpus):
    records, corpus, vocab, tensors, labels = small_corpus
    cfg = TrainConfig(epochs=2, seed=7, vocab_size=16)
    model, _ = train(tensors, labels, cfg)
    preds = model.predict(tensors[:8].astype(model.dtype))
    for i in range(8):
        label, prob = predict(model, vocab, records[i].path, records[i].kind)
        again_label, again_prob = predict(model, vocab, records[i].path, records[i].kind)
        assert (label, prob) == (again_label, again_prob)
        assert label == ["benign", "botnet"][preds[i]]
        assert 0.0 <= prob <= 1.0


def test_predict_accepts_empty_permission_set(tmp_path, small_corpus):
    _, _, vocab, tensors, labels = small_corpus
    cfg = TrainConfig(epochs=1, seed=5, vocab_size=16)
    model, _ = train(tensors, labels, cfg)
    empty = tmp_path / "empty.txt"
    empty.write_text("# no permissions\n")
    label, prob = predict(model, vocab, empty, "permlist")
    assert label in ("benign", "botnet")
    assert 0.0 <= prob <= 1.0


def test_cross_validate_two_folds(small_corpus):
    records, _, _, _, _ = small_corpus
    cfg = TrainConfig(epochs=1, k=2, seed=11, vocab_size=16)
    result = cross_validate(records, cfg)
    assert len(result.folds) == 2
    # summary mean equals the arithmetic fold mean
    accs = [fr.metrics.accuracy for fr in result.folds]
    assert math.isclose(result.summary["accuracy"].mean, sum(accs) / len(accs), rel_tol=1e-12)
    # union of test folds covers the corpus exactly once
    test_paths = [p for fr in result.folds for p in fr.test_paths]
    assert sorted(test_paths) == sorted(r.path for r in records)
    for fr in result.folds:
        assert not set(fr.test_paths) & set(fr.train_paths)
        assert set(fr.vocab_paths) <= set(fr.train_paths)


def test_cross_validate_determinism(small_corpus):
    records, _, _, _, _ = small_corpus
    cfg = TrainConfig(epochs=1, k=2, seed=11, vocab_size=16)
    r1 = cross_validate(records, cfg)
    r2 = cross_validate(records, cfg)
    assert render_report(r1) == render_report(r2)
    assert render_report(r1, fmt="json") == render_report(r2, fmt="json")
    for a, b in zip(r1.folds, r2.folds):
        assert a.trace == b.trace


def test_vocab_from_all_uses_whole_corpus(small_corpus):
    records, _, _, _, _ = small_corpus
    cfg = TrainConfig(epochs=1, k=2, seed=11, vocab_size=16, vocab_from_all=True)
    result = cross_validate(records, cfg)
    for fr in result.folds:
        assert set(fr.vocab_paths) == {r.path for r in records}


def test_summary_matches_recomputation(small_corpus):
    records, _, _, _, _ = small_corpus
    cfg = TrainConfig(epochs=1, k=3, seed=19, vocab_size=16)
    result = cross_validate(records, cfg)
    summary = summarize_folds(list(result.folds))
    for name, s in summary.items():
        values = [
            getattr(fr.metrics, name)
            for fr in result.folds
            if getattr(fr.metrics, name) is not None
        ]
        if values:
            assert math.isclose(s.mean, float(np.mean(values)), rel_tol=1e-12)
            assert math.isclose(s.std, float(np.std(values)), rel_tol=1e-12, abs_tol=1e-15)
        else:
            assert s.mean is None


def test_report_contains_config_echo_and_counts(small_corpus):
    records, _, _, _, _ = small_corpus
    cfg = TrainConfig(epochs=1, k=2, seed=11, vocab_size=16)
    report = render_report(cross_validate(records, cfg))
    assert "seed: 11" in report
    assert "epochs=1" in report
    assert "benign=30, botnet=30" in report
    assert "fold" in report and "summary" in report


def test_undefined_metrics_render_as_undefined():
    from botgrid.metrics import compute_metrics
    from botgrid.training import _fmt

    m = compute_metrics(ConfusionCounts(tp=0, tn=10, fp=0, fn=0))
    assert m.precision is None
    assert _fmt(None) == "undefined"
    assert _fmt(0.5) == "0.500000"
