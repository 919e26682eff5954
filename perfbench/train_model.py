"""Train the model that the score and predict workloads load.

Usage: python3 train_model.py SPEC.json

SPEC names the source tree, a permission-list corpus, the training
settings and where to write the model and its vocabulary.  Runs in its
own process so its memory and time stay out of the workloads' figures.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from botgrid import dataset, training, vocabulary
    from botgrid.nn import model

    records = dataset.load_dataset_manifest(Path(spec["corpus"]) / "data.csv")
    corpus = dataset.extract_corpus(records)
    config = training.TrainConfig(**spec["train"])
    vocab = training.build_fold_vocabulary(corpus.perm_sets, corpus.labels, config.vocab_size)
    tensors, _ = dataset.encode_corpus(corpus.perm_sets, vocab)
    labels = np.array([dataset.label_index(lbl) for lbl in corpus.labels])
    trained, _ = training.train(tensors, labels, config)
    model.save_model(trained, spec["model"])
    vocabulary.save_vocabulary(vocab, spec["vocab"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
