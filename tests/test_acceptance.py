"""Acceptance suite: every exit criterion with one printed verdict line.

Runs with plain pytest; the verdict lines go to the real stdout so they
appear even under output capture.  The end-to-end criterion trains the
full architecture and is the long pole (minutes, not seconds).
"""

import math
import random
import sys
import time

import numpy as np
import pytest

from botgrid.axml import parse_axml
from botgrid.cli import main as cli_main
from botgrid.encoder import encode, image
from botgrid.errors import ParseError
from botgrid.manifest import PermissionSet
from botgrid.metrics import ConfusionCounts, compute_metrics
from botgrid.nn.loss import CLAMP_EPS, bce_loss
from botgrid.nn.model import CnnModel, LayerSpec, build_reference_model
from botgrid.nn.optim import Adam
from botgrid.synth import SynthSpec, generate_synthetic_corpus
from botgrid.training import TrainConfig, cross_validate
from botgrid.vocabulary import PermissionVocabulary

from axml_writer import build_axml, permissions_manifest
from test_axml import random_tree, to_document

RTOL_GRAD = 1e-4
FD_H = 1e-5


@pytest.fixture
def verdict(request):
    """Prints one pass/fail line per criterion, bypassing output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(criterion: str, ok: bool, detail: str = "") -> None:
        line = f"\n[{'PASS' if ok else 'FAIL'}] {criterion}"
        if detail:
            line += f" ({detail})"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                sys.stdout.write(line + "\n")
                sys.stdout.flush()
        else:
            print(line, flush=True)

    return _report


# --- 1. shape conformance ---

def test_criterion_1_shape_conformance(verdict):
    t0 = time.perf_counter()
    model = build_reference_model(seed=0)
    expected = [
        (41, 41, 32), (20, 20, 32),
        (20, 20, 128), (10, 10, 128),
        (10, 10, 128), (5, 5, 128),
        (5, 5, 256), (2, 2, 256),
        (256,), (16,), (2,), (2,),
    ]
    ok = model.output_shapes == expected and model.layers[8].in_features == 1024
    elapsed = time.perf_counter() - t0
    verdict("1 shape conformance", ok and elapsed < 1.0, f"{elapsed:.2f}s")
    assert model.output_shapes == expected
    assert model.layers[8].in_features == 1024
    assert elapsed < 1.0


# --- 2. gradient correctness ---

def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def _fd(f, arr, idx, h=FD_H):
    orig = arr[idx]
    arr[idx] = orig + h
    fp = f()
    arr[idx] = orig - h
    fm = f()
    arr[idx] = orig
    return (fp - fm) / (2 * h)


def _check_layer(layer, x, rng, probes=20):
    y = layer.forward(x, train=True)
    w = rng.standard_normal(y.shape)
    grad_in = layer.backward(w)
    objective = lambda: float((layer.forward(x) * w).sum())
    worst = 0.0
    for _ in range(probes):
        idx = tuple(rng.integers(0, s) for s in x.shape)
        worst = max(worst, _rel_err(_fd(objective, x, idx), grad_in[idx]))
    for p, g in zip(layer.params(), layer.grads()):
        for _ in range(probes):
            idx = tuple(rng.integers(0, s) for s in p.shape)
            worst = max(worst, _rel_err(_fd(objective, p, idx), g[idx]))
    return worst


REDUCED_9X9 = (
    LayerSpec("conv", relu=True, kernel=(3, 3), stride=(1, 1), out_channels=4),
    LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
    LayerSpec("conv", relu=True, kernel=(3, 3), stride=(1, 1), out_channels=8),
    LayerSpec("maxpool", kernel=(2, 2), stride=(2, 2)),
    LayerSpec("dense", relu=True, out_units=16),
    LayerSpec("dense", out_units=2),
    LayerSpec("softmax"),
)


def test_criterion_2_gradient_correctness(verdict):
    from botgrid.nn.layers import Conv2D, Dense, MaxPool2D, Softmax

    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        worst = max(worst, _check_layer(
            Conv2D(2, 3, (3, 3), (1, 1), relu=True, rng=rng, dtype=np.float64),
            rng.standard_normal((2, 6, 5, 2)), rng))
        worst = max(worst, _check_layer(
            Conv2D(2, 2, (3, 3), (2, 2), relu=False, rng=rng, dtype=np.float64),
            rng.standard_normal((2, 7, 6, 2)), rng))
        worst = max(worst, _check_layer(
            MaxPool2D((2, 2)), rng.standard_normal((2, 6, 6, 3)), rng))
        worst = max(worst, _check_layer(
            Dense(10, 4, relu=True, rng=rng, dtype=np.float64),
            rng.standard_normal((3, 10)), rng))
        worst = max(worst, _check_layer(
            Softmax(), rng.standard_normal((4, 3)), rng))

    # end-to-end loss gradient on the reduced 9x9 architecture
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        model = CnnModel(REDUCED_9X9, (9, 9, 1), seed=seed, dtype=np.float64)
        x = rng.random((3, 9, 9, 1))
        y = np.array([0, 1, 1])

        def loss_value():
            return bce_loss(model.forward(x)[:, 1], y).value

        probs = model.forward(x, train=True)
        loss = bce_loss(probs[:, 1], y)
        grad_probs = np.zeros_like(probs)
        grad_probs[:, 1] = loss.gradient
        model.backward(grad_probs)
        params, grads = model.params(), model.grads()
        for _ in range(20):
            which = int(rng.integers(0, len(params)))
            p, g = params[which], grads[which]
            idx = tuple(rng.integers(0, s) for s in p.shape)
            worst = max(worst, _rel_err(_fd(loss_value, p, idx), g[idx]))

    elapsed = time.perf_counter() - t0
    ok = worst < RTOL_GRAD and elapsed < 60
    verdict("2 gradient correctness", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < RTOL_GRAD
    assert elapsed < 60


# --- 3. loss/metric oracles ---

def test_criterion_3_scalar_oracles(verdict):
    rng = np.random.default_rng(2024)
    worst = 0.0

    # binary cross-entropy vs per-sample summation
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        probs = rng.uniform(1e-3, 1 - 1e-3, n)
        labels = rng.integers(0, 2, n)
        got = bce_loss(probs, labels)
        total = 0.0
        for p, y in zip(probs, labels):
            pc = min(max(p, CLAMP_EPS), 1 - CLAMP_EPS)
            total += y * math.log(pc) + (1 - y) * math.log(1 - pc)
        want = -total / n
        worst = max(worst, _rel_err(got.value, want))
        i = int(rng.integers(0, n))
        want_grad = (probs[i] - labels[i]) / (probs[i] * (1 - probs[i]) * n)
        worst = max(worst, _rel_err(float(got.gradient[i]), want_grad))

    # adam vs a plain-float trace
    for _ in range(1000):
        size = int(rng.integers(1, 6))
        steps = int(rng.integers(1, 6))
        lr = float(rng.uniform(1e-4, 1e-1))
        p = rng.standard_normal(size)
        grads = [rng.standard_normal(size) for _ in range(steps)]
        adam = Adam(learning_rate=lr)
        engine = p.copy()
        for g in grads:
            adam.step([engine], [g.copy()])
        for j in range(size):
            x, m, v = float(p[j]), 0.0, 0.0
            for t, g in enumerate(grads, start=1):
                gj = float(g[j])
                m = 0.9 * m + 0.1 * gj
                v = 0.999 * v + 0.001 * gj * gj
                m_hat = m / (1 - 0.9**t)
                v_hat = v / (1 - 0.999**t)
                x = x - lr * m_hat / (math.sqrt(v_hat) + 1e-8)
            worst = max(worst, _rel_err(float(engine[j]), x))

    # metrics vs independent formulas
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 400, 4))
        m = compute_metrics(ConfusionCounts(tp, tn, fp, fn))
        pairs = [
            (m.fpr, (fp, fp + tn)),
            (m.recall, (tp, tp + fn)),
            (m.precision, (tp, tp + fp)),
            (m.accuracy, (tp + tn, tp + tn + fp + fn)),
        ]
        for got_v, (num, den) in pairs:
            if den == 0:
                assert got_v is None
            else:
                worst = max(worst, _rel_err(got_v, num / den))
        if m.precision is not None and m.recall is not None and m.precision + m.recall > 0:
            worst = max(
                worst,
                _rel_err(m.f_measure, 2 * m.precision * m.recall / (m.precision + m.recall)),
            )
        else:
            assert m.f_measure is None

    # the published metrics row is internally consistent
    f = 2 * 0.955 * 0.96 / (0.955 + 0.96)
    row_ok = abs(f - 0.957) <= 5e-4

    ok = worst < 1e-12 and row_ok
    verdict("3 loss/metric oracles", ok, f"worst rel err {worst:.2e}")
    assert worst < 1e-12
    assert row_ok


# --- 4. encoder properties ---

def test_criterion_4_encoder_properties(verdict):
    rng = random.Random(404)
    pool = [f"perm.{i:02d}" for i in range(24)]
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 16)
        vocab = PermissionVocabulary(tuple(rng.sample(pool, n)))
        perms = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
        px = image(encode(PermissionSet(perms), vocab))

        assert np.array_equal(px, px.T)
        k = sum(1 for p in perms if p in vocab.permissions)
        assert np.count_nonzero(px == 0) == k * k
        present = [p in perms for p in vocab.permissions]
        for i in range(n):
            for j in range(n):
                want = 0 if present[i] and present[j] else 255
                assert px[i, j] == want

        extra = rng.choice(vocab.permissions)
        grown = image(encode(PermissionSet(perms | {extra}), vocab))
        assert np.all(grown <= px)
        checked += 1
    verdict("4 encoder properties", True, f"{checked} random pairs, exact")


# --- 5. parser robustness ---

def test_criterion_5_parser_robustness(verdict):
    rng = random.Random(505)
    round_trips = 0
    for i in range(500):
        tree = random_tree(rng)
        blob = build_axml(tree, utf8=bool(i % 2), resource_map_ids=i % 4)
        assert parse_axml(blob) == to_document(tree)
        round_trips += 1

    bases = [
        build_axml(permissions_manifest(["android.permission.INTERNET"])),
        build_axml(random_tree(rng), utf8=True),
        build_axml(random_tree(rng), resource_map_ids=3),
    ]
    fuzz_count = 100_000
    failures = 0
    t0 = time.perf_counter()
    for i in range(fuzz_count):
        mode = i % 10
        if mode < 4:
            data = random.Random(i).randbytes(rng.randint(0, 150))
        elif mode < 7:
            base = bases[i % len(bases)]
            data = base[: rng.randint(0, len(base))]
        else:
            base = bytearray(bases[i % len(bases)])
            for _ in range(rng.randint(1, 8)):
                base[rng.randrange(len(base))] = rng.getrandbits(8)
            data = bytes(base)
        try:
            parse_axml(data)
        except ParseError:
            failures += 1
        # anything else (or a hang) fails the test by crashing pytest
    elapsed = time.perf_counter() - t0
    verdict(
        "5 parser robustness",
        True,
        f"{round_trips} round trips exact; {fuzz_count} fuzz inputs, "
        f"{failures} clean rejections, {elapsed:.1f}s",
    )


# --- 6. end-to-end learning ---

@pytest.fixture(scope="module")
def acceptance_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_corpus")
    spec = SynthSpec(
        n_botnet=200,
        n_benign=200,
        pool_size=48,
        botnet_signature_size=8,
        benign_signature_size=5,
        signature_prob=1.0,
        noise_rate=0.05,
        seed=1106,
    )
    return generate_synthetic_corpus(spec, out)


@pytest.mark.slow
def test_criterion_6_end_to_end_learning(acceptance_corpus, verdict):
    t0 = time.perf_counter()
    config = TrainConfig(epochs=25, batch_size=32, seed=2025, vocab_size=41, k=10)
    result = cross_validate(acceptance_corpus, config)
    elapsed = time.perf_counter() - t0

    mean_acc = result.summary["accuracy"].mean
    fpr_values = [fr.metrics.fpr for fr in result.folds if fr.metrics.fpr is not None]
    mean_fpr = float(np.mean(fpr_values))
    ok = mean_acc >= 0.95 and mean_fpr <= 0.05
    verdict(
        "6 end-to-end learning",
        ok,
        f"mean accuracy {mean_acc:.4f}, mean FPR {mean_fpr:.4f}, {elapsed/60:.1f} min",
    )
    assert mean_acc >= 0.95
    assert mean_fpr <= 0.05


# --- 7. determinism ---

def test_criterion_7_cv_determinism(tmp_path, verdict):
    spec = SynthSpec(
        n_botnet=12, n_benign=12, pool_size=20,
        botnet_signature_size=4, benign_signature_size=3,
        noise_rate=0.3, seed=707,
    )
    corpus = tmp_path / "corpus"
    generate_synthetic_corpus(spec, corpus)
    args = [
        "cv", "--manifest", str(corpus / "data.csv"),
        "--k", "2", "--seed", "77", "--epochs", "2", "--n", "16",
    ]
    runs = []
    for tag in ("a", "b"):
        report_path = tmp_path / f"report_{tag}.txt"
        traces = tmp_path / f"traces_{tag}"
        assert cli_main(args + ["--report", str(report_path), "--traces", str(traces)]) == 0
        trace_bytes = b"".join(
            (traces / name).read_bytes() for name in sorted(p.name for p in traces.iterdir())
        )
        runs.append((report_path.read_bytes(), trace_bytes))
    ok = runs[0] == runs[1]
    verdict("7 determinism", ok, "reports and traces byte-identical")
    assert runs[0] == runs[1]


# --- 8. cross-validation integrity ---

def test_criterion_8_cv_integrity(tmp_path, verdict):
    spec = SynthSpec(
        n_botnet=20, n_benign=20, pool_size=20,
        botnet_signature_size=4, benign_signature_size=3,
        noise_rate=0.3, seed=808,
    )
    records = generate_synthetic_corpus(spec, tmp_path / "corpus")
    config = TrainConfig(epochs=1, k=4, seed=88, vocab_size=16)
    result = cross_validate(records, config)

    all_paths = {r.path for r in records}
    labels = {r.path: r.label for r in records}

    test_sets = [set(fr.test_paths) for fr in result.folds]
    union = set().union(*test_sets)
    disjoint = all(
        not (test_sets[i] & test_sets[j])
        for i in range(len(test_sets))
        for j in range(i + 1, len(test_sets))
    )
    covering = union == all_paths

    stratified = True
    for label in ("benign", "botnet"):
        sizes = [sum(1 for p in ts if labels[p] == label) for ts in test_sets]
        stratified &= max(sizes) - min(sizes) <= 1

    no_leakage = True
    for fr in result.folds:
        no_leakage &= not (set(fr.test_paths) & set(fr.train_paths))
        no_leakage &= not (set(fr.test_paths) & set(fr.vocab_paths))
        no_leakage &= set(fr.vocab_paths) <= set(fr.train_paths)
        no_leakage &= set(fr.train_paths) | set(fr.test_paths) == all_paths

    ok = disjoint and covering and stratified and no_leakage
    verdict(
        "8 cross-validation integrity",
        ok,
        f"disjoint={disjoint} covering={covering} stratified={stratified} "
        f"leak-free={no_leakage}",
    )
    assert disjoint and covering and stratified and no_leakage
