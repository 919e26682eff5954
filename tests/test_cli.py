import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import botgrid
from botgrid import cpus
from botgrid.cli import _build_parser, _load_config, main
from botgrid.encoder import encode, image
from botgrid.dataset import load_dataset_manifest
from botgrid.errors import ManifestCsvError, NonFiniteLoss
from botgrid.manifest import KINDS, read_permissions
from botgrid.nn.model import load_model
from botgrid.synth import SynthSpec, generate_synthetic_corpus
from botgrid.training import TrainConfig
from botgrid.training import predict as predict_lib
from botgrid.vocabulary import load_vocabulary

from axml_writer import build_axml, permissions_manifest
from test_manifest import deep_manifest
from test_model import (
    POOL1_KERNEL_AND_STRIDE,
    flip_conv1_exponent,
    forge_reference_model,
    save_reduced_with_bytes_after_crc,
    save_reduced_with_trailing_bytes,
)
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


def test_extract_sniffs_a_permission_list(tmp_path, capsys):
    perm_list = tmp_path / "perms.txt"
    perm_list.write_text("android.permission.SEND_SMS\nandroid.permission.INTERNET\n")
    assert main(["extract", str(perm_list)]) == 0
    assert capsys.readouterr().out == "android.permission.INTERNET\nandroid.permission.SEND_SMS\n"


def test_extract_deeply_nested_manifest(tmp_path, capsys):
    manifest = tmp_path / "deep.xml"
    manifest.write_text(deep_manifest(5000))
    assert main(["extract", str(manifest)]) == 0
    assert capsys.readouterr().out == "android.permission.DEEP\n"


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
    payload = img_path.read_bytes().split(b"\n", 3)[3]
    assert payload == image(encode(perms, vocab)).tobytes()


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


def test_train_with_a_given_vocabulary(tmp_path, corpus_dir):
    # The corpus's 17 top permissions in reverse rank order: a rebuilt
    # vocabulary would differ in order and, at the default --n, in size.
    ranked = tmp_path / "ranked.txt"
    assert main(["vocab", "--manifest", str(corpus_dir / "data.csv"), "--n", "17",
                 "--out", str(ranked)]) == 0
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("".join(f"{name}\n" for name in reversed(ranked.read_text().split())))
    model_path, vocab_out = tmp_path / "model.bin", tmp_path / "vocab_out.txt"
    assert main([
        "train", "--manifest", str(corpus_dir / "data.csv"), "--vocab", str(vocab),
        "--epochs", "1", "--model-out", str(model_path), "--vocab-out", str(vocab_out),
    ]) == 0
    assert load_model(model_path).input_shape == (17, 17, 1)
    assert vocab_out.read_bytes() == vocab.read_bytes()


def test_an_unreadable_sample_is_reported_last(tmp_path, corpus_dir, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    bad = corpus / "bad.apk"
    bad.write_bytes(b"PK\x03\x04 but not really a zip")
    with open(corpus / "data.csv", "a", encoding="utf-8") as fh:
        fh.write("bad.apk,benign,apk\n")
    failed = f"failed: {bad}: NotAZip: {bad}: no end-of-central-directory record found"
    flags = ["--manifest", str(corpus / "data.csv"), "--epochs", "1", "--n", "16"]

    report = tmp_path / "report.txt"
    assert main(["cv", *flags, "--k", "2", "--report", str(report)]) == 0
    assert report.read_text().splitlines()[-1] == failed
    capsys.readouterr()
    assert main(["train", *flags, "--model-out", str(tmp_path / "model.bin")]) == 0
    assert capsys.readouterr().err == failed + "\n"


def test_config_file_with_flag_overrides(tmp_path, corpus_dir):
    cfg = tmp_path / "cfg.json"
    # val_fraction is a float setting given as a JSON int
    cfg.write_text(json.dumps({"epochs": 1, "vocab_size": 16, "seed": 4, "val_fraction": 0}))
    report = tmp_path / "report.txt"
    assert main([
        "cv", "--manifest", str(corpus_dir / "data.csv"), "--config", str(cfg),
        "--k", "2", "--report", str(report),
    ]) == 0
    text = report.read_text()
    assert "seed: 4" in text
    assert "epochs=1" in text
    assert "val_fraction=0.0" in text


def test_every_training_flag_reaches_its_field():
    flags = {
        "--epochs": ("epochs", "3", 3),
        "--batch-size": ("batch_size", "16", 16),
        "--lr": ("learning_rate", "0.0005", 0.0005),
        "--n": ("vocab_size", "20", 20),
        "--seed": ("seed", "9", 9),
        "--val-split": ("val_fraction", "0.2", 0.2),
        "--dtype": ("dtype", "float64", "float64"),
        "--k": ("k", "4", 4),
        "--vocab-from-all": ("vocab_from_all", None, True),
    }
    argv = ["cv", "--manifest", "data.csv"]
    for flag, (_, text, _) in flags.items():
        argv += [flag] if text is None else [flag, text]
    expected = {field: value for field, _, value in flags.values()}
    defaults = asdict(TrainConfig())
    assert all(defaults[field] != value for field, value in expected.items())
    assert asdict(_load_config(_build_parser().parse_args(argv))) == {**defaults, **expected}


def test_one_list_of_input_kinds(tmp_path):
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command in ("extract", "encode", "predict"):
        kind = next(a for a in subparsers.choices[command]._actions if a.dest == "kind")
        assert tuple(kind.choices) == KINDS
    csv = tmp_path / "data.csv"
    csv.write_text("path,label,kind\n" + "".join(f"{k}.x,benign,{k}\n" for k in KINDS))
    assert [r.kind for r in load_dataset_manifest(csv)] == list(KINDS)
    csv.write_text("path,label,kind\na.x,benign,dex\n")
    with pytest.raises(ManifestCsvError, match="unknown kind 'dex'"):
        load_dataset_manifest(csv)
    with pytest.raises(ValueError) as exc:
        read_permissions(csv, "dex")
    assert str(exc.value) == (
        "unknown source kind 'dex', expected one of ['apk', 'manifest', 'permlist']"
    )


def test_cv_with_one_fold_is_a_usage_error(corpus_dir, capsys):
    # One fold leaves no training set to rank a vocabulary over.
    assert main([
        "cv", "--manifest", str(corpus_dir / "data.csv"),
        "--k", "1", "--epochs", "1", "--n", "16",
    ]) == 1
    assert "k must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("lr", ["nan", "inf", "config NaN"])
def test_cv_with_a_non_finite_learning_rate_is_a_usage_error(tmp_path, capsys, lr):
    # NaN passed the old `learning_rate <= 0` check, and every fold then
    # reported an accuracy of 0.5.
    spec = SynthSpec(n_botnet=30, n_benign=30, pool_size=30, seed=2)
    generate_synthetic_corpus(spec, tmp_path / "corpus")
    argv = ["cv", "--manifest", str(tmp_path / "corpus" / "data.csv"), "--k", "2",
            "--epochs", "1", "--n", "16"]
    if lr == "config NaN":
        (tmp_path / "cfg.json").write_text('{"learning_rate": NaN}')
        argv += ["--config", str(tmp_path / "cfg.json")]
    else:
        argv += ["--lr", lr]
    assert main(argv) == 1
    assert "learning_rate must be positive and finite" in capsys.readouterr().err


def test_synth_subcommand(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_botnet": 4, "n_benign": 4, "pool_size": 12,
                                "botnet_signature_size": 3, "benign_signature_size": 2}))
    out = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec), "--seed", "8", "--out", str(out)]) == 0
    assert (out / "data.csv").exists()
    assert len(list(out.glob("*.txt"))) == 8


def test_exit_codes(tmp_path, corpus_dir, monkeypatch, capsys):
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
    assert capsys.readouterr().err.endswith(
        f"parse error: {bad}: no end-of-central-directory record found\n"
    )
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
    # parse: malformed JSON config
    cfg.write_text("{")
    capsys.readouterr()
    assert main([
        "cv", "--manifest", str(corpus_dir / "data.csv"), "--config", str(cfg),
    ]) == 3
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "Traceback" not in err

    # numeric divergence
    def diverge(tensors, labels, config):
        raise NonFiniteLoss("loss is nan at epoch 1")

    monkeypatch.setattr("botgrid.cli.train", diverge)
    assert main([
        "train", "--manifest", str(corpus_dir / "data.csv"), "--n", "16",
        "--model-out", str(tmp_path / "model.bin"),
    ]) == 4
    assert "numeric divergence" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "encode", "vocab", "cv --config", "synth --spec"])
def test_text_input_that_is_not_utf8_exits_parse(tmp_path, corpus_dir, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"android.permission.INTERNET\n\xff\n")
    sample = str(corpus_dir / "benign_0003.txt")
    argv = {
        "extract": ["extract", str(bad), "--kind", "permlist"],
        "encode": ["encode", sample, "--kind", "permlist", "--vocab", str(bad),
                   "--out", str(tmp_path / "img.pgm")],
        "vocab": ["vocab", "--manifest", str(bad), "--out", str(tmp_path / "v.txt")],
        "cv --config": ["cv", "--manifest", str(corpus_dir / "data.csv"), "--config", str(bad)],
        "synth --spec": ["synth", "--spec", str(bad), "--out", str(tmp_path / "c")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "parse error" in err and "not UTF-8" in err


def test_predict_with_rejected_model_geometry_exits_parse(tmp_path, corpus_dir):
    # A valid CRC over a 64x64 pooling window on the 41x41 feature map.
    model_path = tmp_path / "model.bin"
    forge_reference_model(model_path, POOL1_KERNEL_AND_STRIDE, "<4H", 64, 64, 64, 64)
    vocab = tmp_path / "v.txt"
    vocab.write_text("android.permission.INTERNET\n")
    assert main([
        "predict", "--model", str(model_path), "--vocab", str(vocab),
        "--kind", "permlist", str(corpus_dir / "benign_0003.txt"),
    ]) == 3


def test_predict_with_non_finite_model_weight_exits_parse(tmp_path, corpus_dir):
    model_path = tmp_path / "model.bin"
    flip_conv1_exponent(model_path)
    vocab = tmp_path / "v.txt"
    vocab.write_text("".join(f"android.permission.P{k}\n" for k in range(41)))
    assert main([
        "predict", "--model", str(model_path), "--vocab", str(vocab),
        "--kind", "permlist", str(corpus_dir / "benign_0003.txt"),
    ]) == 3


def test_predict_with_trailing_model_bytes_exits_parse(tmp_path, corpus_dir):
    # bytes after the last parameter, and bytes after the CRC-32
    model_path = tmp_path / "model.bin"
    vocab = tmp_path / "v.txt"
    vocab.write_text("".join(f"android.permission.P{k}\n" for k in range(9)))
    for forge in (save_reduced_with_trailing_bytes, save_reduced_with_bytes_after_crc):
        forge(model_path)
        assert main([
            "predict", "--model", str(model_path), "--vocab", str(vocab),
            "--kind", "permlist", str(corpus_dir / "benign_0003.txt"),
        ]) == 3, forge.__name__


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


@pytest.mark.parametrize("command, flag", [("cv", "--config"), ("synth", "--spec")])
def test_json_settings_with_a_bom_load(tmp_path, corpus_dir, command, flag):
    # A leading BOM is read past, as in every other text input.
    if command == "cv":
        settings = {"k": 2, "epochs": 1, "vocab_size": 16, "seed": 3}
        target = ["--manifest", str(corpus_dir / "data.csv"), "--report"]
    else:
        settings = {"n_botnet": 4, "n_benign": 4, "pool_size": 12,
                    "botnet_signature_size": 3, "benign_signature_size": 2, "seed": 3}
        target = ["--out"]
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        path = tmp_path / f"{encoding}.json"
        path.write_bytes(json.dumps(settings).encode(encoding))
        out = tmp_path / f"{encoding}.out"
        assert main([command, flag, str(path)] + target + [str(out)]) == 0, encoding
        outputs.append(out.read_bytes() if command == "cv" else (out / "data.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_dataset_csv_with_an_oversized_field_exits_parse(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("path,label,kind\n" + "x" * 140_000 + ",benign,permlist\n")
    assert main(["vocab", "--manifest", str(csv_path), "--out", str(tmp_path / "v.txt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"botgrid: parse error: {csv_path}:2: field larger")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag", [("cv", "--config"), ("synth", "--spec")])
def test_json_settings_nested_too_deeply_exit_parse(tmp_path, capsys, command, flag):
    path = tmp_path / "settings.json"
    path.write_text("[" * 100_000 + "]" * 100_000)  # past the recursion limit
    target = "--out" if command == "synth" else "--manifest"
    assert main([command, flag, str(path), target, str(tmp_path / "missing")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("botgrid: parse error: ") and "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, key", [("cv", "--config", "epochs"),
                                               ("cv", "--config", "seed"),
                                               ("synth", "--spec", "seed")])
def test_json_settings_with_an_overlong_integer_exit_parse(tmp_path, capsys, command, flag, key):
    # Past the interpreter's 4,300-digit limit on int(), json.load raised a
    # ValueError that read as a usage error.
    path = tmp_path / "settings.json"
    path.write_text(f'{{"{key}": 1{"0" * 5000}}}')
    target = "--out" if command == "synth" else "--manifest"
    assert main([command, flag, str(path), target, str(tmp_path / "missing")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"botgrid: parse error: {path}: ") and "digits" in err
    assert "Traceback" not in err


def test_json_settings_that_do_not_parse_keep_their_message(tmp_path, capsys):
    path = tmp_path / "settings.json"
    path.write_text('{"epochs": 1,}')
    with pytest.raises(json.JSONDecodeError) as decoding:
        json.loads(path.read_text())
    assert main(["cv", "--config", str(path), "--manifest", str(tmp_path / "missing")]) == 3
    assert capsys.readouterr().err == f"botgrid: parse error: {decoding.value}\n"


@pytest.mark.parametrize(
    "command, flag, settings, key",
    [
        ("synth", "--spec", {"n_botnet": "x"}, "n_botnet"),
        ("cv", "--config", {"epochs": "3"}, "epochs"),
        ("cv", "--config", {"seed": True}, "seed"),
        # an int is taken for a float, but not one past the largest float
        ("cv", "--config", {"learning_rate": 10**400}, "learning_rate"),
        ("synth", "--spec", {"noise_rate": 10**400}, "noise_rate"),
    ],
    ids=["spec-str-for-int", "config-str-for-int", "config-bool-for-int",
         "config-int-too-large-for-float", "spec-int-too-large-for-float"],
)
def test_json_settings_of_the_wrong_type_are_usage_errors(
    tmp_path, capsys, command, flag, settings, key
):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(settings))
    # The settings are read before the output or manifest path is touched.
    target = "--out" if command == "synth" else "--manifest"
    assert main([command, flag, str(path), target, str(tmp_path / "missing")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("botgrid: error: ")
    assert repr(key) in err
    assert "Traceback" not in err


def test_cv_writes_the_same_bytes_on_two_cpus_and_one(tmp_path, corpus_dir, monkeypatch):
    # cv trains its folds on two threads when it has two CPUs and one after
    # another when it has one.  Both write the same report and traces.
    base = [
        "cv", "--manifest", str(corpus_dir / "data.csv"),
        "--k", "2", "--seed", "5", "--epochs", "1", "--n", "16",
    ]

    def run(tag, *flags):
        out = tmp_path / tag
        out.mkdir()
        assert main(base + [*flags, "--report", str(out / "report.txt"),
                            "--traces", str(out / "traces")]) == 0
        return [path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()]

    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    two_cpus = run("two_cpus")
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 1)
    assert len(two_cpus) == 3  # the report and one trace per fold
    assert two_cpus == run("one_cpu")


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_without_blas_vars(argv, **blas):
    """argv in a fresh interpreter whose environment holds none of the BLAS
    thread variables but `blas`; returns its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS} | blas
    run = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300,
        cwd=Path(botgrid.__file__).resolve().parents[1],
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_botgrid_pins_one_blas_thread_unless_told_otherwise():
    show = f"import json, os, botgrid; print(json.dumps([os.getenv(v) for v in {BLAS_VARS}]))"
    assert json.loads(_run_without_blas_vars(["-c", show])) == ["1", "1", "1"]
    pinned = json.loads(_run_without_blas_vars(["-c", show], OMP_NUM_THREADS="2"))
    assert pinned == ["1", "2", "1"]


def test_cv_bytes_do_not_depend_on_the_blas_environment(tmp_path):
    """`botgrid cv` with the BLAS variables unset prints what it prints with
    them set to 1.  Without the package's own pin, OpenBLAS starts a thread
    per CPU, and on 2 CPUs (OpenBLAS 0.3.31) 5 train_loss values of this
    run moved; on a 1-CPU host this test cannot tell the two apart."""
    generate_synthetic_corpus(SynthSpec(n_botnet=30, n_benign=30, pool_size=30, seed=2), tmp_path)
    cv = ["-m", "botgrid.cli", "cv", "--manifest", str(tmp_path / "data.csv"),
          "--k", "3", "--epochs", "3", "--seed", "5", "--format", "json"]
    unset = _run_without_blas_vars(cv)
    assert unset == _run_without_blas_vars(cv, **dict.fromkeys(BLAS_VARS, "1"))
