import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from botgrid import cpus, training
from botgrid.dataset import encode_corpus, extract_corpus, label_index
from botgrid.errors import EmptyDataset, NonFiniteLoss
from botgrid.metrics import ConfusionCounts
from botgrid.nn import layers
from botgrid.nn.layers import Conv2D
from botgrid.nn.loss import bce_loss
from botgrid.nn.model import build_reference_model
from botgrid.nn.optim import Adam
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

from conv_reference import computing_every_output
from traced_memory import peak_bytes_of


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


def _full_batch_step(model, batch, labels, adam):
    """One step that forwards and backpropagates every row, copies included."""
    probs = model.forward(batch, train=True)
    loss = bce_loss(probs[:, 1], labels)
    grad = np.zeros_like(probs)
    grad[:, 1] = loss.gradient
    model.backward(grad)
    adam.step(model.params(), model.grads())
    return loss.value, probs


def _steps_side_by_side(batch, labels, dtype=np.float64):
    model = build_reference_model(seed=9, n=16, dtype=dtype)
    reference = build_reference_model(seed=9, n=16, dtype=dtype)
    got = train_step(model, batch, labels, Adam())
    want = _full_batch_step(reference, batch, labels, Adam())
    return model, reference, got, want


def _batch_with_repeats():
    """Ten rows, six distinct: image 0 comes three times as botnet, once as benign."""
    images = np.random.default_rng(21).random((5, 16, 16, 1))
    pick = np.array([0, 1, 0, 2, 3, 0, 1, 4, 0, 2])
    labels = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 1])
    return images[pick], labels


def test_train_step_runs_each_distinct_row_once(monkeypatch):
    batch, labels = _batch_with_repeats()
    forwarded = []
    forward = training.CnnModel.forward

    def counting_forward(self, x, train=False):
        forwarded.append(len(x))
        return forward(self, x, train)

    monkeypatch.setattr(training.CnnModel, "forward", counting_forward)
    model, reference, (loss, probs), (want_loss, want_probs) = _steps_side_by_side(batch, labels)
    assert forwarded == [6, 10]  # the step's distinct rows, then the reference batch
    # float64 GEMMs of 6 and 10 rows may round the last Dense layer differently
    np.testing.assert_allclose(loss, want_loss, rtol=1e-12, atol=0)
    np.testing.assert_allclose(probs, want_probs, rtol=1e-12, atol=0)
    for p, q in zip(model.params(), reference.params()):
        np.testing.assert_allclose(p, q, rtol=1e-10, atol=0)


def test_train_step_with_repeats_keeps_the_full_batch_loss_and_probs():
    # float32, as training runs by default: a forward of 4 or more rows
    # gives each row the same bits whatever else the batch holds
    batch, labels = _batch_with_repeats()
    _, _, (loss, probs), (want_loss, want_probs) = _steps_side_by_side(
        batch.astype(np.float32), labels, np.float32
    )
    assert loss == want_loss
    assert probs.tobytes() == want_probs.tobytes()


def test_train_step_without_repeats_is_bitwise_the_full_batch():
    rng = np.random.default_rng(22)
    batch = rng.random((6, 16, 16, 1))
    labels = np.array([1, 0, 0, 1, 1, 0])
    model, reference, (loss, probs), (want_loss, want_probs) = _steps_side_by_side(batch, labels)
    assert loss == want_loss
    assert probs.tobytes() == want_probs.tobytes()
    for p, q in zip(model.params(), reference.params()):
        assert p.tobytes() == q.tobytes()


def sorted_distinct_rows(tensors, labels=None):
    """(first, inverse) from np.unique over each row's bytes and label,
    put back in order of first appearance."""
    rows = np.ascontiguousarray(tensors).reshape(len(tensors), -1).view(np.uint8)
    if labels is not None:
        label_bytes = np.asarray(labels, dtype=np.int64).reshape(-1, 1).view(np.uint8)
        rows = np.concatenate([rows, label_bytes], axis=1)
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_distinct_rows_match_the_sorting_formulation(dtype):
    # Rows are keyed by their bytes: -0.0 is not +0.0, NaNs of two payloads
    # differ while one payload matches itself, and an image under two
    # labels is two rows.
    nan = np.array(np.nan, dtype)
    other_nan = (nan.view(f"u{nan.itemsize}") ^ 1).view(dtype)
    images = np.zeros((5, 3, 3, 1), dtype)
    images[1, 0, 0] = -0.0
    images[2, 1, 1] = nan
    images[3, 1, 1] = other_nan
    images[4] = 1
    batch = images[[4, 0, 1, 2, 3, 0, 2, 3, 1, 4, 0, 0]]
    labels = np.array([1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1])
    cases = [
        ((), [0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 1, 3, 4, 2, 0, 1, 1]),
        ((labels,), [0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5, 3, 4, 2, 0, 1, 5]),
    ]
    for args, want_first, want_inverse in cases:
        first, inverse = training._distinct_rows(batch, *args)
        sorted_first, sorted_inverse = sorted_distinct_rows(batch, *args)
        assert first.tolist() == sorted_first.tolist() == want_first
        assert inverse.tolist() == sorted_inverse.tolist() == want_inverse


def _distinct_images(n):
    v = np.random.default_rng(23).random((8, n)) < 0.4
    return (1.0 - v[:, :, None] * v[:, None, :])[..., None], np.array([1, 0, 0, 1, 1, 0, 1, 0])


def test_unread_conv_outputs_get_exactly_zero_gradient():
    # The premise of computing only the read extent: under the full
    # computation, nothing flows back into a conv output past it.
    model = build_reference_model(seed=9, dtype=np.float64)
    convs = {i: layer for i, layer in enumerate(model.layers) if isinstance(layer, Conv2D)}
    extents = {i: conv.extent for i, conv in convs.items()}
    computing_every_output(model)
    upstream = {}
    for i, conv in convs.items():
        def recording(grad, i=i, backward=conv.backward, **kwargs):
            upstream[i] = grad.copy()
            return backward(grad, **kwargs)
        conv.backward = recording
    images, labels = _distinct_images(41)
    _full_batch_step(model, images, labels, Adam())
    assert sorted(upstream) == sorted(convs)
    for i, grad in upstream.items():
        rows, cols = extents[i]
        assert grad.shape[1:3] != (rows, cols)
        assert np.all(grad[:, rows:] == 0) and np.all(grad[:, :, cols:] == 0)
        assert np.any(grad[:, :rows, :cols] != 0)


@pytest.mark.parametrize("n", [41, 16])
def test_train_step_matches_the_full_computation(n):
    images, labels = _distinct_images(n)
    model = build_reference_model(seed=9, n=n, dtype=np.float64)
    full = computing_every_output(build_reference_model(seed=9, n=n, dtype=np.float64))
    got = train_step(model, images, labels, Adam())
    want = train_step(full, images, labels, Adam())
    assert got[1].tobytes() == want[1].tobytes()
    for p, q in zip(model.params(), full.params()):
        if n == 16:  # every conv reads its whole output: the same arithmetic
            assert p.tobytes() == q.tobytes()
        else:  # weight and bias gradients summed over the read rows only
            np.testing.assert_allclose(p, q, rtol=1e-10, atol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [32, 23])
def test_train_step_is_bitwise_the_unsplit_computation(batch, dtype, monkeypatch):
    v = np.random.default_rng(batch).random((batch, 41)) < 0.3
    images = (1.0 - v[:, :, None] * v[:, None, :])[..., None].astype(dtype)
    labels = np.arange(batch) % 2
    split = build_reference_model(seed=9, dtype=dtype)
    got = train_step(split, images, labels, Adam())
    # every conv unsplit, its tiles one after another on the calling thread
    monkeypatch.setattr(layers, "SPLIT_MIN_ROWS", sys.maxsize)
    monkeypatch.setattr(layers, "in_parallel", lambda first, second: (first(), second()))
    whole = build_reference_model(seed=9, dtype=dtype)
    want = train_step(whole, images, labels, Adam())
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    for p, q in zip(split.params(), whole.params()):
        assert p.tobytes() == q.tobytes()


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


def _predict_every_row(model, tensors):
    """Inference without deduplication: every row in chunks of 256."""
    return np.concatenate(
        [model.predict(tensors[i : i + 256]) for i in range(0, len(tensors), 256)]
    )


def test_evaluate_forwards_each_distinct_image_once(small_corpus, monkeypatch):
    _, _, _, tensors, labels = small_corpus
    tensors = np.concatenate([tensors, tensors[::2], tensors[::3]])
    labels = np.concatenate([labels, labels[::2], labels[::3]])
    distinct = len(np.unique(tensors.reshape(len(tensors), -1), axis=0))
    assert 4 <= distinct < len(tensors)
    model, _ = train(tensors, labels, TrainConfig(epochs=1, seed=5, vocab_size=16))
    whole = np.argmax(model.forward(tensors), axis=1)

    rows = []
    forward = model.forward

    def counting_forward(batch, train=False):
        rows.append(len(batch))
        return forward(batch, train)

    monkeypatch.setattr(model, "forward", counting_forward)
    metrics = evaluate(model, tensors, labels)
    assert sum(rows) == distinct
    assert metrics.counts == ConfusionCounts.from_predictions(whole, labels)


def test_val_acc_matches_inference_without_dedup(small_corpus, monkeypatch):
    _, _, _, tensors, labels = small_corpus
    tensors, labels = np.concatenate([tensors, tensors]), np.concatenate([labels, labels])
    cfg = TrainConfig(epochs=3, seed=3, vocab_size=16, val_fraction=0.3)
    _, trace = train(tensors, labels, cfg)
    monkeypatch.setattr(training, "_predict_distinct", _predict_every_row)
    _, expected = train(tensors, labels, cfg)
    assert [row.val_acc for row in trace] == [row.val_acc for row in expected]


def distinct_images(count: int, dtype, seed: int = 0) -> np.ndarray:
    v = np.random.default_rng(seed).random((count, 41)) < 0.3
    images = (1.0 - v[:, :, None] * v[:, None, :])[..., None].astype(dtype)
    assert len(training._distinct_rows(images)[0]) == count
    return images


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("count", [23, 37])
def test_chunks_on_two_threads_give_the_bits_of_one_chunk_after_another(
    count, dtype, monkeypatch
):
    # The last chunk is short; each chunk's rows land in its own slot,
    # whichever thread forwards it.
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    images = distinct_images(count, dtype, seed=count)
    model = build_reference_model(seed=4, dtype=dtype)
    probabilities = {}
    forward = model.forward

    def recording_forward(batch, train=False):
        out = forward(batch, train)
        probabilities.update((image.tobytes(), row) for image, row in zip(batch, out))
        return out

    monkeypatch.setattr(model, "forward", recording_forward)
    got = training._predict_distinct(model, images)
    monkeypatch.undo()
    # the same chunks one after another, every in_parallel run inline
    in_line = lambda first, second: (first(), second())  # noqa: E731
    monkeypatch.setattr(training, "in_parallel", in_line)
    monkeypatch.setattr(layers, "in_parallel", in_line)
    chunks = np.array_split(np.arange(count), -(-count // training.EVAL_BATCH))
    assert len(chunks[-1]) < training.EVAL_BATCH
    want = np.concatenate([model.forward(images[chunk]) for chunk in chunks])
    assert b"".join(probabilities[image.tobytes()].tobytes() for image in images) == want.tobytes()
    assert got.tobytes() == np.argmax(want, axis=1).tobytes()


def test_predict_distinct_starts_one_helper_and_leaves_none(thread_starts, monkeypatch):
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    started = thread_starts
    model = build_reference_model(seed=4, dtype=np.float32)
    images, threads = distinct_images(37, np.float32), threading.active_count()
    for calls in (1, 2):
        training._predict_distinct(model, images)
        assert len(started) == calls
        assert not started[-1].is_alive() and threading.active_count() == threads


def test_thread_budget_of_a_train_step_and_an_evaluate(thread_starts, monkeypatch):
    # With a spare CPU, a batch-32 train_step splits the forwards of conv1,
    # conv2 and conv3 (conv4's halves fall under SPLIT_MIN_ROWS) and runs the
    # backwards of conv2, conv3 and conv4 on two threads; conv1 makes no input
    # gradient.  evaluate's chunk workers start one thread, and their
    # inference forwards none.
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    started = thread_starts
    model = build_reference_model(seed=4, dtype=np.float32)
    images = distinct_images(37, np.float32)
    labels = np.arange(37) % 2
    train_step(model, images[:32], labels[:32], Adam())
    assert len(started) == 6
    evaluate(model, images, labels)
    assert len(started) == 7
    assert not any(thread.is_alive() for thread in started)


def test_inference_on_a_read_only_model_writes_nothing(monkeypatch):
    # Threads that serve one loaded model share its arrays: inference must
    # not write to them, nor leave anything behind in a layer.
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    model = build_reference_model(seed=4, dtype=np.float32)
    images = distinct_images(64, np.float32)
    labels = np.arange(64) % 2
    classes = training._predict_distinct(model, images)
    metrics = evaluate(model, images, labels)
    for array in [*model.params(), images]:
        array.flags.writeable = False
    assert training._predict_distinct(model, images).tobytes() == classes.tobytes()
    assert evaluate(model, images, labels) == metrics
    assert [layer._cache for layer in model.layers] == [None] * len(model.layers)


def test_no_layer_keeps_a_cache_after_training(small_corpus):
    _, _, _, tensors, labels = small_corpus
    model = build_reference_model(seed=4, n=16, dtype=np.float32)
    train_step(model, tensors[:32].astype(np.float32), labels[:32], Adam())
    assert [layer._cache for layer in model.layers] == [None] * len(model.layers)
    model, _ = train(tensors, labels, TrainConfig(epochs=1, seed=1, vocab_size=16))
    assert [layer._cache for layer in model.layers] == [None] * len(model.layers)


def test_a_train_step_never_allocates_a_whole_batch_im2col(monkeypatch):
    # A training conv gathers its im2col rows tile by tile into one reused
    # buffer per thread, in forward and again for the weight gradient, so
    # no step allocates conv2's whole-batch matrix (10,368 rows x 800
    # float32, 33.2 MB).  The first step runs traced, so the gradients and
    # Adam's two moments it leaves for good (three copies of the
    # parameters) count: a step that allocated the matrix would peak above
    # the matrix plus those, 39.8 MB.  Measured (numpy 2.4.6, CPython 3.11,
    # 2 CPUs): 37.0 MB, or 33.5 MB on one CPU, against 73.5 MB when
    # training gathered the whole matrix and kept it for backward.
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    images = distinct_images(32, np.float32)
    labels = np.arange(32) % 2
    model, adam = build_reference_model(seed=0, dtype=np.float32), Adam()
    conv2 = [layer for layer in model.layers if isinstance(layer, Conv2D)][1]
    (kh, kw), (rows, cols) = conv2.kernel, conv2.extent
    whole_im2col = 32 * rows * cols * kh * kw * conv2.in_channels * 4
    assert whole_im2col == 10_368 * 800 * 4
    bound = whole_im2col + 3 * sum(p.nbytes for p in model.params())

    def second_step():
        train_step(model, images, labels, adam)
        tracemalloc.reset_peak()
        train_step(model, images, labels, adam)

    assert peak_bytes_of(second_step) < bound


class Boom(Exception):
    pass


def test_a_failing_chunk_raises_only_once_the_other_worker_stopped(thread_starts, monkeypatch):
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    started = thread_starts
    model = build_reference_model(seed=4, dtype=np.float32)
    images = distinct_images(40, np.float32)
    returned = []

    def slow_or_failing_forward(batch, train=False):
        if batch.tobytes() == images[: training.EVAL_BATCH].tobytes():
            raise Boom("the first chunk")
        time.sleep(0.02)  # still running when the first chunk raises
        returned.append(batch)
        return np.zeros((len(batch), 2), np.float32)

    monkeypatch.setattr(model, "forward", slow_or_failing_forward)
    with pytest.raises(Boom):
        training._predict_distinct(model, images)
    assert len(started) == 1 and not started[0].is_alive()
    # the worker that raised took no other chunk; the other took the rest
    assert len(returned) == 40 // training.EVAL_BATCH - 1


class ChunkRecorder:
    """A model whose classes are its rows' first values, as Python does it."""

    def __init__(self):
        self.rows = []

    def predict(self, batch):
        classes = [int(value) for value in batch[:, 0, 0, 0]]
        self.rows.extend(classes)
        return np.array(classes)


def test_every_chunk_is_claimed_once_under_fast_thread_switching(monkeypatch):
    # A chunk claimed twice or skipped would repeat or lose a row.
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "EVAL_BATCH", 1)
    model, rows = ChunkRecorder(), np.arange(2000.0).reshape(-1, 1, 1, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = training._predict_distinct(model, rows)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(model.rows) == list(range(2000))
    assert got.tolist() == list(range(2000))


# evaluate's tracemalloc peak in this test (numpy 2.4.6, CPython 3.11),
# measured on the code before chunks ran on two threads: one thread
# forwarded 16-row chunks in turn, each conv split across a helper thread.
# That code peaked at 8,372,977 bytes with no helper, a figure two threads
# cannot reach, as each thread running a conv holds a tile buffer of its
# own (3.1 MB at conv2); the rows in flight can stay where they were.
PEAK_BEFORE_CHUNK_THREADS = 11_358_076


def test_two_chunk_threads_hold_no_more_rows_than_one_did(monkeypatch):
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    model = build_reference_model(seed=0, dtype=np.float32)
    images = distinct_images(64, np.float32)
    labels = np.arange(64) % 2
    peak = peak_bytes_of(evaluate, model, images, labels)
    assert peak <= PEAK_BEFORE_CHUNK_THREADS


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


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_predict_gives_the_bits_of_evaluates_forward(small_corpus, monkeypatch, dtype):
    # batch-1 predict and evaluate's chunks of distinct images must agree on
    # every sample's probability, to the last bit
    records, corpus, vocab, _, labels = small_corpus
    tensors, _ = encode_corpus(corpus.perm_sets, vocab, dtype=np.dtype(dtype))
    model, _ = train(tensors, labels, TrainConfig(epochs=2, seed=7, vocab_size=16, dtype=dtype))
    seen = {}
    forward = model.forward

    def recording_forward(batch, train=False):
        out = forward(batch, train)
        seen.update((image.tobytes(), row[1]) for image, row in zip(batch, out))
        return out

    monkeypatch.setattr(model, "forward", recording_forward)
    evaluate(model, tensors, labels)
    monkeypatch.undo()
    assert 4 < len(seen) < len(tensors)
    for record, image in zip(records, tensors):
        _, prob = predict(model, vocab, record.path, record.kind)
        assert prob == float(seen[image.tobytes()])


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


def test_cross_validate_trains_folds_on_one_helper_thread(small_corpus, thread_starts, monkeypatch):
    # With a spare CPU, the calling thread and one helper each take the next
    # fold.  While they run the process has no CPU to spare, so no train
    # step or evaluate inside a fold starts a thread of its own.
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    records = small_corpus[0]
    trained_on, train = [], training.train

    def recording_train(*args):
        trained_on.append(threading.current_thread())
        return train(*args)

    monkeypatch.setattr(training, "train", recording_train)
    result = cross_validate(records, TrainConfig(epochs=1, k=3, seed=11, vocab_size=16))
    assert [fr.fold for fr in result.folds] == [0, 1, 2]
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    assert len(trained_on) == 3
    assert set(trained_on) == {threading.current_thread(), thread_starts[0]}
    assert cpus.spare_cpu()


def test_a_failing_fold_raises_only_once_the_other_worker_stopped(
    small_corpus, thread_starts, monkeypatch
):
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    records = small_corpus[0]
    calls, finished, train = itertools.count(), [], training.train

    def diverging_first(*args):
        if next(calls) == 0:
            raise NonFiniteLoss("loss diverged to nan")
        result = train(*args)
        finished.append(threading.current_thread())
        return result

    monkeypatch.setattr(training, "train", diverging_first)
    with pytest.raises(NonFiniteLoss):
        cross_validate(records, TrainConfig(epochs=1, k=3, seed=11, vocab_size=16))
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    # the worker whose fold raised took no other fold; the other took the rest
    assert len(finished) == 2 and len(set(finished)) == 1
    assert cpus.spare_cpu()


@pytest.mark.parametrize("learning_rate", [math.nan, math.inf, -math.inf, 0.0])
def test_train_config_rejects_a_learning_rate_that_is_not_positive_and_finite(learning_rate):
    with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
        TrainConfig(learning_rate=learning_rate)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(epochs=-1), "epochs must be >= 0"),
        (dict(batch_size=0), "batch_size and vocab_size must be >= 1"),
        (dict(vocab_size=0), "batch_size and vocab_size must be >= 1"),
        (dict(val_fraction=1.0), r"val_fraction must lie in \[0, 1\)"),
        (dict(dtype="float16"), "dtype must be float32 or float64, got 'float16'"),
    ],
    ids=["epochs", "batch-size", "vocab-size", "val-fraction", "dtype"],
)
def test_train_config_rejects_an_out_of_range_field(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TrainConfig(**fields)


def test_render_report_rejects_an_unknown_format(small_corpus):
    records, _, _, _, _ = small_corpus
    result = cross_validate(records, TrainConfig(epochs=0, k=2, seed=11, vocab_size=16))
    with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
        render_report(result, fmt="xml")


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


def test_report_config_line_names_every_other_train_config_field():
    from dataclasses import fields

    from botgrid.training import METRIC_NAMES, CvResult, MetricSummary

    cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.5, seed=7, vocab_size=9, k=4,
                      val_fraction=0.25, vocab_from_all=True, dtype="float64")
    result = CvResult(cfg, (), {name: MetricSummary(None, None, 0) for name in METRIC_NAMES},
                      (), {"benign": 0, "botnet": 0})
    lines = render_report(result).splitlines()
    assert lines[2:4] == ["seed: 7", "folds: 4"]
    (config,) = [line for line in lines if line.startswith("config: ")]
    echoed = [item.split("=") for item in config.removeprefix("config: ").split(" ")]
    others = [f.name for f in fields(TrainConfig) if f.name not in ("seed", "k")]
    assert echoed == [[name, str(getattr(cfg, name))] for name in others]


def test_undefined_metrics_render_as_undefined():
    from botgrid.metrics import compute_metrics
    from botgrid.training import _fmt

    m = compute_metrics(ConfusionCounts(tp=0, tn=10, fp=0, fn=0))
    assert m.precision is None
    assert _fmt(None) == "undefined"
    assert _fmt(0.5) == "0.500000"
