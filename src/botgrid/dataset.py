"""Dataset manifests (CSV) and corpus ingestion.

A manifest lists one sample per row as path,label,kind.  Relative paths
are resolved against the CSV's own directory so a corpus directory can
be moved as a unit.  Per-record extraction failures are collected, not
fatal; only a corpus with zero readable samples aborts the run.

Reading is pure Python, so a second thread would not help, but a second
process does.  When the process has a spare CPU (see cpus), a corpus of
at least SPLIT_MIN_MANIFESTS manifests and APKs is read in two: a reader
process reads every second manifest and APK while the caller reads the
rest and every permission list, and the results are merged back in
record order.  The reader is forked by the first such corpus, while the
caller's thread is the process's only one, and serves every later one
until the process exits; with no reader, the caller reads every record
itself.  The corpus and its failures are those of reading each record in
turn, whatever the CPU count, and an exception that escapes reading a
record escapes here too.
"""

from __future__ import annotations

import atexit
import csv
import io
import os
import signal
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection, Pipe
from pathlib import Path

import numpy as np

from . import cpus
from .encoder import encode, normalize
from .errors import AllSamplesFailed, BotgridError, EmptyDataset, ManifestCsvError
from .manifest import KINDS, PermissionSet, read_permissions, read_text
from .vocabulary import PermissionVocabulary

LABELS = ("benign", "botnet")  # class index order; botnet = positive class

CSV_HEADER = ["path", "label", "kind"]

# extract_corpus shares a corpus with the reader process when it holds at
# least this many manifests and APKs: twice the count of plaintext manifests
# (the cheapest of them) whose reading paid for forking and starting a
# reader, so a small corpus never forks one.  Permission lists are never
# sent: reading one costs about as much as sending it back, so the caller
# reads them all itself.
SPLIT_MIN_MANIFESTS = 128


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: str
    kind: str


def label_index(label: str) -> int:
    return LABELS.index(label)


def load_dataset_manifest(path) -> list[ManifestRecord]:
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:  # each row with the line it ends on, which a quoted line break moves
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise ManifestCsvError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows or rows[0][1] != CSV_HEADER:
        raise ManifestCsvError(f"{path}: expected header {','.join(CSV_HEADER)}")
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for lineno, row in rows[1:]:
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


def extract_corpus(records: list[ManifestRecord]) -> ExtractedCorpus:
    """Run permission extraction over every record, isolating failures."""
    if not records:
        raise EmptyDataset("dataset manifest lists no samples")
    manifests = [i for i, record in enumerate(records) if record.kind != "permlist"]
    results = None
    if len(manifests) >= SPLIT_MIN_MANIFESTS and hasattr(os, "fork") and cpus.spare_cpu():
        if _reader_lock.acquire(blocking=False):  # else another thread is using it
            try:
                results = _read_in_two_processes(records, manifests[1::2])
            finally:
                _reader_lock.release()
    if results is None:
        results = _read_each(records)
    corpus = ExtractedCorpus([], [], [], [])
    for record, result in zip(records, results):
        if isinstance(result, str):
            corpus.failures.append((record.path, result))
            continue
        corpus.perm_sets.append(result)
        corpus.labels.append(record.label)
        corpus.paths.append(record.path)
    if not corpus.perm_sets:
        raise AllSamplesFailed(
            f"all {len(records)} samples failed extraction; "
            f"first: {corpus.failures[0][1]}"
        )
    return corpus


def _read_each(records: list[ManifestRecord]) -> list[PermissionSet | str]:
    """Each record's permissions, or the reason it could not be read."""
    results: list[PermissionSet | str] = []
    for record in records:
        try:
            results.append(read_permissions(record.path, record.kind))
        except (BotgridError, OSError, ValueError) as exc:
            results.append(f"{type(exc).__name__}: {exc}")
    return results


# --- the reader process ---

@dataclass(frozen=True)
class _Reader:
    pid: int
    conn: Connection  # this process sends records and receives results here


_reader: _Reader | None = None
_reader_lock = threading.Lock()  # held by the one thread using the reader


def _read_in_two_processes(
    records: list[ManifestRecord], theirs: list[int]
) -> list[PermissionSet | str] | None:
    """_read_each(records), with the records at indices `theirs` read by the
    reader process; None when no reader could be started or it is gone.

    If the reader dies, or its reply is not one result a record, it is
    reaped and this process reads its records itself.  If this process
    raises while the reader reads, the reader is killed and reaped, so that
    no reply is left behind for the next call."""
    try:
        cwd = os.getcwd()
    except OSError:
        return None
    reader = _reader or _start_reader()
    if reader is None:
        return None
    skip = set(theirs)
    ours = [i for i in range(len(records)) if i not in skip]
    wanted = [records[i] for i in theirs]
    try:
        try:
            reader.conn.send((cwd, wanted))
        except OSError:  # the reader is gone: read every record here
            _stop_reader()
            return None
        read = _read_each([records[i] for i in ours])
        try:
            results = reader.conn.recv()
        except Exception:  # the reader died, or its reply does not unpickle
            results = None
    except BaseException:
        _stop_reader()
        raise
    if not isinstance(results, list) or len(results) != len(wanted):
        _stop_reader()
        results = _read_each(wanted)
    merged: list[PermissionSet | str] = [""] * len(records)
    for i, result in zip(ours, read):
        merged[i] = result
    for i, result in zip(theirs, results):
        merged[i] = result
    return merged


def _start_reader() -> _Reader | None:
    """Fork the reader, or None when this thread is not the process's only
    one (of those the threading module knows) or the connection or the fork
    fail."""
    global _reader
    if threading.active_count() != 1:
        return None
    conns: list[Connection] = []
    try:
        conns += Pipe()  # [0] ours, [1] the reader's
        pid = os.fork()
    except OSError:
        for conn in conns:
            conn.close()
        return None
    ours, theirs = conns
    if pid == 0:
        ours.close()  # else the reader would not see its caller leave
        _serve(theirs)  # never returns
    theirs.close()
    _reader = _Reader(pid, ours)
    return _reader


def _serve(conn: Connection) -> None:
    """The reader's loop: read each batch of records that arrives, send the
    results back, and leave when the caller closes its end."""
    code = 1
    try:
        while True:
            cwd, records = conn.recv()
            os.chdir(cwd)  # relative paths resolve as in the caller
            conn.send(_read_each(records))
    except (EOFError, BrokenPipeError):
        code = 0
    finally:
        os._exit(code)


def _stop_reader() -> None:
    """Kill and reap the reader, if there is one."""
    global _reader
    reader, _reader = _reader, None
    if reader is None:
        return
    reader.conn.close()
    try:
        os.kill(reader.pid, signal.SIGKILL)
        os.waitpid(reader.pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def _forget_reader() -> None:
    """In a forked child: the parent's reader is the parent's to stop.

    Safety code: the package forks nothing but the reader, but a caller may
    fork (multiprocessing's `fork` start method, say), and the child must
    not talk on the parent's reader pipe."""
    global _reader, _reader_lock
    if _reader is not None:
        _reader.conn.close()
    _reader, _reader_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_reader)
atexit.register(_stop_reader)


def encode_corpus(
    perm_sets: list[PermissionSet],
    vocab: PermissionVocabulary,
    dtype=np.float32,
) -> tuple[np.ndarray, list[int]]:
    """Stacked (N, n, n, 1) tensors plus each sample's count of permissions
    outside the vocabulary: those its presence vector leaves out, since the
    vocabulary's entries are unique."""
    present = [encode(ps, vocab) for ps in perm_sets]
    tensors = np.stack([normalize(v, dtype=dtype) for v in present])
    oov = [len(ps.permissions) - int(v.sum()) for ps, v in zip(perm_sets, present)]
    return tensors, oov
