"""Benchmark entry point.

    python3 perfbench/run.py --workload {ingest,cv,score,predict} --seed N \
        --seconds S --trace {0,1}

Generates the workload's inputs from the seed under .bench_build/perfbench,
trains and caches the model that score and predict load, times the import
of botgrid in fresh interpreters, then runs the workload in its own
process (workload.py).  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Exits 1 when an output check fails and 2 when the run cannot be made
(no botgrid source tree beside this directory, a workload crashed).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracing import per_layer_metrics  # noqa: E402

IMPORT_REPEATS = 7
CHILD_TIMEOUT_S = 150
VOCAB_SIZE = 41

# Paper-sized corpus: 1929 botnet and 3521 benign apps.
INGEST_APPS = (1929, 3521)
# The reference CNN on a separable permission-list corpus, folds in-process.
CV_APPS = (48, 48)
CV_TRAIN = {"k": 2, "epochs": 6, "batch_size": 32,
            "vocab_size": VOCAB_SIZE}
# Held-out corpora classified by the trained model; same class ratio as ingest.
SCORE_APPS = (212, 388)
PREDICT_APPS = (181, 331)
# The set-up's warm-up pass reads its own corpus: every form in fixed
# counts and every APK payload the same size, so set-up does the same work
# on every seed.  predict warms up on one app of each form from it.
WARMUP_APPS = {"ingest": (23, 41), "score": (11, 21), "predict": (11, 21)}
WARMUP_APK_BYTES = 32 * gen.KIB
# The model score and predict load: trained once per source tree on a
# fixed corpus that no --seed changes.
MODEL_APPS = (128, 128)
MODEL_TRAIN = {"epochs": 4, "batch_size": 32, "seed": 2019,
               "vocab_size": VOCAB_SIZE}
MODEL_SEED = 2019

END_TO_END = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_child(args: list[str], what: str) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, *args], stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        fail(f"{what} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{what} exited with code {proc.returncode}")
    return proc.stdout


def import_seconds() -> float:
    """Median time to import botgrid in a fresh interpreter."""
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import botgrid; print(time.perf_counter() - t)"
    )
    times = [float(run_child(["-c", probe, str(SRC)], "import probe").split()[-1])
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "gen.py", HERE / "train_model.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    h.update(json.dumps([MODEL_APPS, MODEL_TRAIN, MODEL_SEED]).encode())
    return h.hexdigest()[:16]


def trained_model() -> tuple[Path, Path]:
    """Model and vocabulary for score and predict, trained once per source tree."""
    cache = WORK / f"model-{source_digest()}"
    model, vocab = cache / "model.bin", cache / "vocab.txt"
    if model.is_file() and vocab.is_file():
        return model, vocab
    staging = WORK / f"model-staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    try:
        gen.write_corpus(staging / "corpus", MODEL_SEED, 0, *MODEL_APPS)
        spec = {"src": str(SRC), "corpus": str(staging / "corpus"), "train": MODEL_TRAIN,
                "model": str(staging / "model.bin"), "vocab": str(staging / "vocab.txt")}
        (staging / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        run_child([str(HERE / "train_model.py"), str(staging / "spec.json")], "model training")
        cache.mkdir(parents=True, exist_ok=True)
        (staging / "vocab.txt").replace(vocab)
        (staging / "model.bin").replace(model)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return model, vocab


def prepare(workload: str, seed: int, run_dir: Path) -> dict:
    """Write the workload's inputs; return the settings its process reads."""
    corpus = run_dir / "corpus"
    cfg = {"src": str(SRC), "corpus": str(corpus), "workload": workload, "seed": seed,
           "vocab_size": VOCAB_SIZE}
    if workload == "cv":
        gen.write_corpus(corpus, seed, 2, *CV_APPS)
        cfg.update(train=CV_TRAIN, accuracy_floor=0.7)
        return cfg
    warmup_apps = WARMUP_APPS[workload]
    gen.write_corpus(run_dir / "warmup", seed, 5, *warmup_apps,
                     gen.form_counts(sum(warmup_apps)), apk_size=WARMUP_APK_BYTES)
    cfg["warmup"] = str(run_dir / "warmup")
    if workload == "ingest":
        gen.write_corpus(corpus, seed, 1, *INGEST_APPS, gen.form_counts(sum(INGEST_APPS)))
        return cfg
    apps = SCORE_APPS if workload == "score" else PREDICT_APPS
    gen.write_corpus(corpus, seed, 3 if workload == "score" else 4, *apps,
                     gen.form_counts(sum(apps)))
    model, vocab = trained_model()
    cfg.update(trained_model=str(model), vocab=str(vocab), model=str(run_dir / "model.bin"),
               accuracy_floor=0.9, reference_apps=8)
    return cfg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["ingest", "cv", "score", "predict"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "botgrid" / "__init__.py").is_file():
        fail(f"no botgrid source tree at {SRC}")

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        cfg = prepare(args.workload, args.seed, run_dir)
        cfg.update(seconds=args.seconds, trace=bool(args.trace),
                   span_dump=str(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"))
        (run_dir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        import_s = None if args.trace else import_seconds()
        out = run_child([str(HERE / "workload.py"), str(run_dir / "config.json")],
                        f"workload {args.workload}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])

    for error in result["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    if args.trace:
        units = dict(per_layer_metrics())
        values = result["per_layer"]
    else:
        units = END_TO_END
        e2e = result["end_to_end"]
        values = {**e2e, "setup_s": import_s + e2e["setup_rest_s"]}
        note = f"perfbench: {args.workload} round_ms={result['round_ms']} import_s={import_s:.4f}"
        if "request_ms" in result:
            lat = result["request_ms"]
            note += (f" request latency p50={lat['p50']:.3f} ms p99={lat['p99']:.3f} ms"
                     f" over {lat['samples']} requests")
        print(note, file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not result["errors"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
