"""Dataset manifests (CSV) and corpus ingestion.

A manifest lists one sample per row as path,label,kind.  Relative paths
are resolved against the CSV's own directory so a corpus directory can
be moved as a unit.  Per-record extraction failures are collected, not
fatal; only a corpus with zero readable samples aborts the run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import encode, normalize, out_of_vocabulary
from .errors import AllSamplesFailed, BotgridError, EmptyDataset, ManifestCsvError
from .manifest import PermissionSet, read_permissions
from .vocabulary import PermissionVocabulary

LABELS = ("benign", "botnet")  # class index order; botnet = positive class
KINDS = ("apk", "manifest", "permlist")

CSV_HEADER = ["path", "label", "kind"]


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: str
    kind: str


def label_index(label: str) -> int:
    return LABELS.index(label)


def load_dataset_manifest(path) -> list[ManifestRecord]:
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or rows[0] != CSV_HEADER:
        raise ManifestCsvError(f"{path}: expected header {','.join(CSV_HEADER)}")
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ManifestCsvError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        sample_path, label, kind = (field.strip() for field in row)
        if label not in LABELS:
            raise ManifestCsvError(f"{path}:{lineno}: unknown label {label!r}")
        if kind not in KINDS:
            raise ManifestCsvError(f"{path}:{lineno}: unknown kind {kind!r}")
        resolved = sample_path if Path(sample_path).is_absolute() else str(
            path.parent / sample_path
        )
        if resolved in seen:
            raise ManifestCsvError(f"{path}:{lineno}: duplicate sample path {sample_path!r}")
        seen.add(resolved)
        records.append(ManifestRecord(resolved, label, kind))
    return records


def save_dataset_manifest(records: list[ManifestRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow([record.path, record.label, record.kind])


@dataclass
class ExtractedCorpus:
    perm_sets: list[PermissionSet]
    labels: list[str]
    paths: list[str]
    failures: list[tuple[str, str]]  # (path, reason)

    def __len__(self) -> int:
        return len(self.perm_sets)


def extract_corpus(records: list[ManifestRecord]) -> ExtractedCorpus:
    """Run permission extraction over every record, isolating failures."""
    if not records:
        raise EmptyDataset("dataset manifest lists no samples")
    corpus = ExtractedCorpus([], [], [], [])
    for record in records:
        try:
            perms = read_permissions(record.path, record.kind)
        except (BotgridError, OSError, ValueError) as exc:
            corpus.failures.append((record.path, f"{type(exc).__name__}: {exc}"))
            continue
        corpus.perm_sets.append(perms)
        corpus.labels.append(record.label)
        corpus.paths.append(record.path)
    if not corpus.perm_sets:
        raise AllSamplesFailed(
            f"all {len(records)} samples failed extraction; "
            f"first: {corpus.failures[0][1]}"
        )
    return corpus


def encode_corpus(
    perm_sets: list[PermissionSet],
    vocab: PermissionVocabulary,
    dtype=np.float32,
) -> tuple[np.ndarray, list[int]]:
    """Stacked (N, n, n, 1) tensors plus per-sample out-of-vocabulary tallies."""
    tensors = np.stack(
        [normalize(encode(ps, vocab), dtype=dtype) for ps in perm_sets]
    )
    oov = [len(out_of_vocabulary(ps, vocab)) for ps in perm_sets]
    return tensors, oov
