import json

import pytest

from botgrid.cli import main
from botgrid.encoder import encode
from botgrid.manifest import read_permissions
from botgrid.nn.model import load_model
from botgrid.synth import SynthSpec, generate_synthetic_corpus
from botgrid.training import predict as predict_lib
from botgrid.vocabulary import load_vocabulary

from axml_writer import build_axml, permissions_manifest
from zip_writer import build_zip

PLAIN = (
    '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
    '<uses-permission android:name="android.permission.INTERNET"/>'
    '<uses-permission android:name="android.permission.SEND_SMS"/>'
    "</manifest>"
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    # noise high enough that every pool permission shows up in the
    # corpus, so a 16-permission vocabulary (the smallest the model's
    # four pooling stages accept) is always available
    out = tmp_path_factory.mktemp("cli_corpus")
    spec = SynthSpec(
        n_botnet=12, n_benign=12, pool_size=20,
        botnet_signature_size=4, benign_signature_size=3,
        noise_rate=0.3, seed=31,
    )
    generate_synthetic_corpus(spec, out)
    return out


def test_extract_golden_output(tmp_path, capsys):
    manifest = tmp_path / "m.xml"
    manifest.write_text(PLAIN)
    out = tmp_path / "perms.txt"
    assert main(["extract", str(manifest), "--out", str(out)]) == 0
    assert out.read_text() == "android.permission.INTERNET\nandroid.permission.SEND_SMS\n"

    assert main(["extract", str(manifest)]) == 0
    printed = capsys.readouterr().out
    assert printed == "android.permission.INTERNET\nandroid.permission.SEND_SMS\n"


def test_extract_from_apk(tmp_path):
    blob = build_axml(permissions_manifest(["android.permission.CAMERA"]))
    apk = tmp_path / "app.apk"
    apk.write_bytes(build_zip([("AndroidManifest.xml", blob, 8)]))
    out = tmp_path / "perms.txt"
    assert main(["extract", str(apk), "--out", str(out)]) == 0
    assert out.read_text() == "android.permission.CAMERA\n"


def test_vocab_then_encode_matches_library(tmp_path, corpus_dir):
    vocab_path = tmp_path / "vocab.txt"
    assert main([
        "vocab", "--manifest", str(corpus_dir / "data.csv"), "--n", "12",
        "--out", str(vocab_path),
    ]) == 0
    vocab = load_vocabulary(vocab_path)
    assert len(vocab) == 12

    # thin-wrapper equivalence with the library path
    from botgrid.dataset import extract_corpus, load_dataset_manifest
    from botgrid.training import build_fold_vocabulary

    corpus = extract_corpus(load_dataset_manifest(corpus_dir / "data.csv"))
    assert vocab == build_fold_vocabulary(corpus.perm_sets, corpus.labels, 12)

    sample = corpus_dir / "botnet_0000.txt"
    img_path = tmp_path / "img.pgm"
    assert main([
        "encode", str(sample), "--kind", "permlist",
        "--vocab", str(vocab_path), "--out", str(img_path),
    ]) == 0
    perms = read_permissions(sample, "permlist")
    expected = encode(perms, vocab)
    payload = img_path.read_bytes().split(b"\n", 3)[3]
    assert payload == expected.pixels.tobytes()


def test_cv_reports_byte_identical(tmp_path, corpus_dir):
    args = [
        "cv", "--manifest", str(corpus_dir / "data.csv"),
        "--k", "2", "--seed", "5", "--epochs", "1", "--n", "16",
    ]
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    t1 = tmp_path / "t1"
    t2 = tmp_path / "t2"
    assert main(args + ["--report", str(r1), "--traces", str(t1)]) == 0
    assert main(args + ["--report", str(r2), "--traces", str(t2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    for trace in sorted(p.name for p in t1.iterdir()):
        assert (t1 / trace).read_bytes() == (t2 / trace).read_bytes()


def test_cv_json_format(tmp_path, corpus_dir):
    report = tmp_path / "report.json"
    assert main([
        "cv", "--manifest", str(corpus_dir / "data.csv"),
        "--k", "2", "--seed", "5", "--epochs", "1", "--n", "16",
        "--format", "json", "--report", str(report),
    ]) == 0
    payload = json.loads(report.read_text())
    assert payload["config"]["seed"] == 5
    assert len(payload["folds"]) == 2
    for fold in payload["folds"]:
        counts = fold["metrics"]["counts"]
        assert sum(counts.values()) == 12


def test_train_then_predict_matches_library(tmp_path, corpus_dir):
    model_path = tmp_path / "model.bin"
    vocab_path = tmp_path / "vocab.txt"
    trace_path = tmp_path / "trace.csv"
    assert main([
        "train", "--manifest", str(corpus_dir / "data.csv"),
        "--epochs", "2", "--seed", "9", "--n", "16",
        "--model-out", str(model_path),
        "--vocab-out", str(vocab_path),
        "--trace-out", str(trace_path),
    ]) == 0
    assert trace_path.read_text().splitlines()[0] == "epoch,train_loss,train_acc"

    sample = corpus_dir / "benign_0003.txt"
    model = load_model(model_path)
    vocab = load_vocabulary(vocab_path)
    want_label, want_prob = predict_lib(model, vocab, sample, "permlist")

    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([
            "predict", "--model", str(model_path), "--vocab", str(vocab_path),
            "--kind", "permlist", str(sample),
        ])
    assert code == 0
    label, prob = buf.getvalue().split()
    assert label == want_label
    assert abs(float(prob) - want_prob) < 1e-6


def test_config_file_with_flag_overrides(tmp_path, corpus_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "vocab_size": 16, "seed": 4}))
    report = tmp_path / "report.txt"
    assert main([
        "cv", "--manifest", str(corpus_dir / "data.csv"), "--config", str(cfg),
        "--k", "2", "--report", str(report),
    ]) == 0
    text = report.read_text()
    assert "seed: 4" in text
    assert "epochs=1" in text


def test_synth_subcommand(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_botnet": 4, "n_benign": 4, "pool_size": 12,
                                "botnet_signature_size": 3, "benign_signature_size": 2}))
    out = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec), "--seed", "8", "--out", str(out)]) == 0
    assert (out / "data.csv").exists()
    assert len(list(out.glob("*.txt"))) == 8


def test_exit_codes(tmp_path, corpus_dir):
    # usage: unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["cv", "--bogus"])
    assert exc.value.code == 1
    # i/o: missing file
    assert main(["extract", str(tmp_path / "missing.apk")]) == 2
    # parse: not an apk
    bad = tmp_path / "bad.apk"
    bad.write_bytes(b"PK\x03\x04 but not really a zip")
    assert main(["extract", str(bad)]) == 3
    # parse: malformed manifest csv
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("nope\n")
    assert main(["vocab", "--manifest", str(bad_csv), "--out", str(tmp_path / "v.txt")]) == 3
    # usage: bad config key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    assert main([
        "cv", "--manifest", str(corpus_dir / "data.csv"), "--config", str(cfg),
    ]) == 1


def test_header_only_manifest_is_an_empty_dataset(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("path,label,kind\n")
    vocab = tmp_path / "v.txt"
    vocab.write_text("android.permission.INTERNET\n")
    manifest = ["--manifest", str(csv_path)]
    model = ["--model-out", str(tmp_path / "m.bin")]
    for argv in (
        ["train", *manifest, "--vocab", str(vocab), *model],
        ["train", *manifest, *model],
        ["cv", *manifest],
        ["vocab", *manifest, "--out", str(tmp_path / "out.txt")],
    ):
        assert main(argv) == 1, argv
        assert "dataset manifest lists no samples" in capsys.readouterr().err, argv


def test_json_settings_files_are_checked(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_botnet": 4, "bogus": 1}))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "c")]) == 1
    assert "unknown spec keys: ['bogus']" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[]")
    assert main(["cv", "--manifest", str(tmp_path / "data.csv"), "--config", str(cfg)]) == 1
    assert "expected a JSON object" in capsys.readouterr().err


def test_jobs_flag_matches_serial(tmp_path, corpus_dir):
    base = [
        "cv", "--manifest", str(corpus_dir / "data.csv"),
        "--k", "2", "--seed", "5", "--epochs", "1", "--n", "16",
    ]
    serial = tmp_path / "serial.txt"
    parallel = tmp_path / "parallel.txt"
    assert main(base + ["--report", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--report", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
