import os
import re
import signal
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest

import botgrid
from botgrid import cpus, dataset
from botgrid.dataset import (
    ManifestRecord,
    encode_corpus,
    extract_corpus,
    load_dataset_manifest,
    save_dataset_manifest,
)
from botgrid.errors import AllSamplesFailed, EmptyDataset, InvalidSpec, ManifestCsvError
from botgrid.manifest import read_permissions
from botgrid.synth import SynthSpec, generate_synthetic_corpus, signature_permissions
from botgrid.vocabulary import PermissionVocabulary

from axml_writer import build_axml, permissions_manifest
from own_session import run_in_own_session
from zip_writer import build_zip


def write_permlist(path, perms):
    path.write_text("".join(p + "\n" for p in perms))


def make_manifest(tmp_path, rows):
    lines = ["path,label,kind"] + [",".join(r) for r in rows]
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    return csv_path


def test_csv_round_trip(tmp_path):
    records = [
        ManifestRecord("a.txt", "benign", "permlist"),
        ManifestRecord("b.txt", "botnet", "manifest"),
    ]
    path = tmp_path / "data.csv"
    save_dataset_manifest(records, path)
    loaded = load_dataset_manifest(path)
    assert [r.label for r in loaded] == ["benign", "botnet"]
    # relative paths resolve against the CSV directory
    assert loaded[0].path == str(tmp_path / "a.txt")


def test_csv_with_bom(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes("path,label,kind\na.txt,benign,permlist\n".encode("utf-8-sig"))
    assert load_dataset_manifest(path) == [
        ManifestRecord(str(tmp_path / "a.txt"), "benign", "permlist")
    ]


def test_csv_rejects_bad_rows(tmp_path):
    with pytest.raises(ManifestCsvError):
        load_dataset_manifest(make_manifest(tmp_path, [("x.txt", "weird", "permlist")]))
    with pytest.raises(ManifestCsvError):
        load_dataset_manifest(make_manifest(tmp_path, [("x.txt", "benign", "elf")]))
    with pytest.raises(ManifestCsvError):
        load_dataset_manifest(
            make_manifest(tmp_path, [("x.txt", "benign", "permlist"), ("x.txt", "botnet", "permlist")])
        )
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("file,cls\n")
    with pytest.raises(ManifestCsvError):
        load_dataset_manifest(bad_header)


def test_csv_errors_name_the_line_after_a_quoted_line_break(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('path,label,kind\n"a\nb.txt",benign,permlist\nc.txt,weird,permlist\n')
    with pytest.raises(ManifestCsvError, match=f"^{re.escape(str(path))}:4: unknown label"):
        load_dataset_manifest(path)


def test_csv_with_an_oversized_field_is_a_parse_error(tmp_path):
    # Past csv.field_size_limit() (131,072 characters) the reader raises
    # csv.Error, which must surface as the declared parse error.
    path = make_manifest(tmp_path, [("x.txt", "benign", "permlist"),
                                    ("y" * 140_000, "botnet", "permlist")])
    with pytest.raises(ManifestCsvError, match=f"^{re.escape(str(path))}:3: field larger"):
        load_dataset_manifest(path)


def test_manifest_csv_skips_a_blank_row(tmp_path):
    path = make_manifest(tmp_path, [("a.txt", "benign", "permlist"), ("",),
                                    ("b.txt", "botnet", "permlist")])
    assert load_dataset_manifest(path) == [
        ManifestRecord(str(tmp_path / "a.txt"), "benign", "permlist"),
        ManifestRecord(str(tmp_path / "b.txt"), "botnet", "permlist"),
    ]


def test_manifest_csv_row_with_two_fields_names_its_line(tmp_path):
    path = make_manifest(tmp_path, [("a.txt", "benign", "permlist"), ("",),
                                    ("b.txt", "botnet")])
    message = f"^{re.escape(str(path))}:4: expected 3 fields, got 2$"
    with pytest.raises(ManifestCsvError, match=message):
        load_dataset_manifest(path)


def test_ingest_zero_counts_follow_square_law(tmp_path):
    vocab = PermissionVocabulary(tuple(f"p{i}" for i in range(6)))
    contents = [["p0"], ["p1", "p3"], ["p0", "p2", "p5"]]
    records = []
    for i, perms in enumerate(contents):
        f = tmp_path / f"s{i}.txt"
        write_permlist(f, perms)
        records.append(ManifestRecord(str(f), "benign" if i % 2 else "botnet", "permlist"))
    corpus = extract_corpus(records)
    tensors, _ = encode_corpus(corpus.perm_sets, vocab)
    assert tensors.shape == (3, 6, 6, 1)
    for tensor, perms in zip(tensors, contents):
        k = len(perms)
        assert int(np.sum(tensor == 0.0)) == k * k
    assert corpus.failures == []


def test_ingest_isolates_single_failure(tmp_path):
    vocab = PermissionVocabulary(("p0", "p1"))
    records = []
    for i in range(9):
        f = tmp_path / f"ok{i}.txt"
        write_permlist(f, ["p0"])
        records.append(ManifestRecord(str(f), "benign", "permlist"))
    records.insert(4, ManifestRecord(str(tmp_path / "missing.txt"), "botnet", "permlist"))
    corpus = extract_corpus(records)
    tensors, _ = encode_corpus(corpus.perm_sets, vocab)
    assert len(tensors) == len(corpus.paths) == 9
    assert len(corpus.failures) == 1
    assert "missing.txt" in corpus.failures[0][0]


def test_ingest_records_a_permission_list_that_is_not_utf8(tmp_path):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    write_permlist(good, ["p0"])
    bad.write_bytes(b"p0\n\xff\n")
    corpus = extract_corpus([
        ManifestRecord(str(good), "benign", "permlist"),
        ManifestRecord(str(bad), "botnet", "permlist"),
    ])
    assert corpus.paths == [str(good)]
    assert corpus.failures == [(str(bad), corpus.failures[0][1])]
    assert corpus.failures[0][1].startswith("NotUtf8: ")


def test_ingest_all_failed(tmp_path):
    records = [ManifestRecord(str(tmp_path / "nope.txt"), "benign", "permlist")]
    with pytest.raises(AllSamplesFailed):
        extract_corpus(records)


def test_ingest_empty_manifest_rejected():
    with pytest.raises(EmptyDataset, match="dataset manifest lists no samples"):
        extract_corpus([])


def test_ingest_composes_extract_and_encode(tmp_path):
    spec = SynthSpec(n_botnet=100, n_benign=100, pool_size=24, seed=3)
    records = generate_synthetic_corpus(spec, tmp_path / "corpus")
    vocab = PermissionVocabulary(tuple(f"synthetic.permission.P{i:03d}" for i in range(20)))
    tensors, _ = encode_corpus(extract_corpus(records).perm_sets, vocab)
    # one-by-one composition oracle
    for i, record in enumerate(records):
        perms = read_permissions(record.path, record.kind)
        single, _ = encode_corpus([perms], vocab)
        assert np.array_equal(tensors[i], single[0])


# --- reading a corpus in two processes ---

def every_kind(tmp_path) -> list[ManifestRecord]:
    """Four copies of one app of each input kind and one of each kind of
    failure.  A copy has an odd count of entries, so each entry stands at
    even and at odd positions, where each of the two processes reads it."""
    records = []
    for copy in range(4):
        perms = [f"p{copy}", f"p{copy + 1}", "android.permission.INTERNET"]
        axml = build_axml(permissions_manifest(perms), utf8=copy % 2 == 1)
        plain = "<manifest>" + "".join(
            f'<uses-permission name="{p}"/>' for p in perms) + "</manifest>"
        files = {
            "list.txt": ("permlist", "\n".join(perms).encode()),
            "axml.bin": ("manifest", axml),
            "plain.xml": ("manifest", plain.encode()),
            "stored.apk": ("apk", build_zip([("AndroidManifest.xml", axml, 0)])),
            "deflate.apk": ("apk", build_zip([("AndroidManifest.xml", axml, 8)])),
            "latin1.txt": ("permlist", b"p0\n\xff\n"),  # NotUtf8
            "broken.xml": ("manifest", b"<manifest>"),  # MalformedXml
            "cut.bin": ("manifest", axml[:-10]),  # TruncatedChunk
            "empty.apk": ("apk", b""),  # NotAZip
            "nomanifest.apk": ("apk", build_zip([("classes.dex", b"dex", 0)])),  # NotAZip
            "dir.apk": ("apk", None),  # IsADirectoryError
            "missing.txt": ("permlist", None),  # FileNotFoundError
            "odd.kind": ("elf", b""),  # ValueError
        }
        for name, (kind, data) in files.items():
            path = tmp_path / f"{copy}-{name}"
            if data is not None:
                path.write_bytes(data)
            elif name == "dir.apk":
                path.mkdir()
            records.append(ManifestRecord(str(path), "botnet" if copy % 2 else "benign", kind))
    return records


SPLIT_MIN_MANIFESTS = dataset.SPLIT_MIN_MANIFESTS  # as shipped, before any test patches it

FAILURE_CLASSES = {
    "NotUtf8", "MalformedXml", "TruncatedChunk", "NotAZip", "IsADirectoryError",
    "FileNotFoundError", "ValueError",
}


@pytest.fixture
def forks(monkeypatch):
    """Split every corpus here as on a two-CPU host; yields the pids forked.
    No reader outlives the test, and none is left unreaped."""
    monkeypatch.setattr(dataset, "SPLIT_MIN_MANIFESTS", 0)
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    dataset._stop_reader()
    yield forked
    dataset._stop_reader()
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_by_the_reader(records) -> list[int]:
    return [i for i, r in enumerate(records) if r.kind != "permlist"][1::2]


def test_split_read_equals_the_inline_read(tmp_path, monkeypatch, forks):
    records = every_kind(tmp_path)
    with monkeypatch.context() as inline_only:
        inline_only.setattr(dataset, "SPLIT_MIN_MANIFESTS", sys.maxsize)
        inline = extract_corpus(records)
    assert {reason.split(":")[0] for _, reason in inline.failures} == FAILURE_CLASSES
    assert len(inline.perm_sets) == 20 and len(inline.failures) == 32
    sent, send, parent = [], Connection.send, os.getpid()

    def spying_send(conn, obj):
        if os.getpid() == parent:
            sent.append(obj[1])
        return send(conn, obj)

    monkeypatch.setattr(Connection, "send", spying_send)
    assert extract_corpus(records) == inline
    assert extract_corpus(records) == inline  # the same reader again
    assert sent == 2 * [[records[i] for i in read_by_the_reader(records)]]
    failing = [r for r in records if r.kind in ("elf", "apk") and "stored" not in r.path
               and "deflate" not in r.path]
    with pytest.raises(AllSamplesFailed) as split:
        extract_corpus(failing)
    monkeypatch.setattr(dataset, "SPLIT_MIN_MANIFESTS", sys.maxsize)
    with pytest.raises(AllSamplesFailed) as inline_failure:
        extract_corpus(failing)
    assert str(split.value) == str(inline_failure.value)
    assert len(forks) == 1 and len(sent) == 3
    pid = os.fork()  # a child that a caller forks later has no reader
    if pid == 0:
        os._exit(0 if dataset._reader is None else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert dataset._reader is not None


def test_the_reader_follows_the_callers_working_directory(tmp_path, monkeypatch, forks):
    corpora = {}
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        records = [r for r in every_kind(Path(".")) if Path(r.path).exists()]
        for record in records:  # the same relative paths, other permissions
            if record.path.endswith(("list.txt", "plain.xml")):
                Path(record.path).write_text(
                    f"{name}.permission\n" if record.kind == "permlist" else
                    f'<manifest><uses-permission name="{name}.permission"/></manifest>')
        corpora[name] = records
    assert corpora["first"] == corpora["second"]
    monkeypatch.chdir(tmp_path / "first")
    first = extract_corpus(corpora["first"])
    monkeypatch.chdir(tmp_path / "second")
    with monkeypatch.context() as inline_only:
        inline_only.setattr(dataset, "SPLIT_MIN_MANIFESTS", sys.maxsize)
        second = extract_corpus(corpora["second"])
    assert extract_corpus(corpora["second"]) == second != first
    assert len(forks) == 1


@pytest.mark.parametrize(
    "fault", ["reader dies", "reader writes garbage", "reader killed between calls"])
def test_a_failed_reader_changes_nothing_and_is_reaped(tmp_path, monkeypatch, forks, fault):
    records = every_kind(tmp_path)
    with monkeypatch.context() as inline_only:
        inline_only.setattr(dataset, "SPLIT_MIN_MANIFESTS", sys.maxsize)
        inline = extract_corpus(records)
    parent = os.getpid()
    if fault == "reader dies":
        read_each = dataset._read_each

        def dying_reader(records):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return read_each(records)

        monkeypatch.setattr(dataset, "_read_each", dying_reader)
    elif fault == "reader writes garbage":
        send = Connection.send

        def garbling_send(conn, obj):
            if os.getpid() != parent:
                return conn.send_bytes(b"junk")
            return send(conn, obj)

        monkeypatch.setattr(Connection, "send", garbling_send)
    else:
        assert extract_corpus(records) == inline
        os.kill(dataset._reader.pid, signal.SIGKILL)
        time.sleep(0.1)
    assert extract_corpus(records) == inline
    assert len(forks) == 1 and dataset._reader is None
    assert_no_child_left()


@pytest.mark.parametrize("who", ["the caller", "the reader"])
def test_an_uncaught_exception_still_escapes(tmp_path, monkeypatch, forks, who):
    records = every_kind(tmp_path)
    theirs = read_by_the_reader(records)
    position = 3 if who == "the caller" else 4
    assert records[position].kind == "apk" and (position in theirs) == (who == "the reader")
    target, read, parent = records[position].path, dataset.read_permissions, os.getpid()

    def failing_read(path, kind):
        if path == target:
            raise KeyError(path)
        if who == "the caller" and os.getpid() != parent:
            time.sleep(60)  # the caller fails first and kills the reader
        return read(path, kind)

    monkeypatch.setattr(dataset, "read_permissions", failing_read)
    start = time.monotonic()
    with pytest.raises(KeyError, match=target):
        extract_corpus(records)
    assert time.monotonic() - start < 30
    assert len(forks) == 1 and dataset._reader is None
    assert_no_child_left()


@pytest.mark.parametrize(
    "setting", ["one cpu", "another thread", "reader busy", "fork fails"])
def test_reads_inline_without_a_spare_cpu_or_a_reader(tmp_path, monkeypatch, forks, setting):
    records = every_kind(tmp_path)
    if setting == "one cpu":
        monkeypatch.setattr(cpus, "usable_cpus", lambda: 1)
        corpus = extract_corpus(records)
    elif setting == "another thread":
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            corpus = extract_corpus(records)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
    elif setting == "reader busy":  # another thread is using it
        with dataset._reader_lock:
            corpus = extract_corpus(records)
    else:
        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        open_fds = len(os.listdir("/proc/self/fd")) if Path("/proc/self/fd").exists() else 0
        corpus = extract_corpus(records)
        if open_fds:
            assert len(os.listdir("/proc/self/fd")) == open_fds
    assert forks == [] and dataset._reader is None
    monkeypatch.setattr(dataset, "SPLIT_MIN_MANIFESTS", sys.maxsize)
    assert corpus == extract_corpus(records)


SPLIT_AFTER_HELPER = """
import os
import sys
import threading
import numpy as np
from botgrid import cpus, dataset
from botgrid.nn import layers
from botgrid.synth import SynthSpec, generate_synthetic_corpus

cpus.usable_cpus = lambda: 2  # start a helper even on a one-CPU host
dataset.SPLIT_MIN_MANIFESTS = 0
forked, fork = [], os.fork
os.fork = lambda: forked.append(1) or fork()
helpers, in_parallel = [], layers.in_parallel

def recording_first_thread(first, second):
    return in_parallel(lambda: helpers.append(threading.current_thread()) or first(), second)

layers.in_parallel = recording_first_thread
conv = layers.Conv2D(1, 4, (3, 3))
x = np.ones((8, 20, 20, 1))
want = conv.forward(x, train=True)
assert helpers and threading.main_thread() not in helpers
assert threading.active_count() == 1
records = generate_synthetic_corpus(SynthSpec(n_botnet=20, n_benign=20, seed=3), sys.argv[1])
for i, record in enumerate(records[:20]):  # half of them as manifests
    with open(record.path) as listed, open(record.path + ".xml", "w") as manifest:
        manifest.write("<manifest>" + "".join(
            f'<uses-permission name="{p}"/>' for p in listed.read().split()) + "</manifest>")
    records[i] = dataset.ManifestRecord(record.path + ".xml", record.label, "manifest")
corpus = dataset.extract_corpus(records)
assert forked == [1] and len(corpus.perm_sets) == 40
reader = dataset._reader
assert conv.forward(x, train=True).tobytes() == want.tobytes()
assert dataset.extract_corpus(records) == corpus and forked == [1]
assert dataset._reader is reader is not None
print("ok")
"""


def test_split_after_the_conv_helper_started(tmp_path):
    # A conv's helper thread is gone once the conv returns, so the reader
    # forks; a later conv gives the same bytes, and the reader serves later
    # corpora.
    code, out, err = run_in_own_session(
        SPLIT_AFTER_HELPER, str(tmp_path), flags=["-W", "error::DeprecationWarning"],
        hang="the split read hung after the helper thread started",
    )
    assert code == 0, err
    assert out.split() == ["ok"]


ORPHANED_READER = """
import os
import sys
from botgrid import cpus, dataset
from botgrid.dataset import ManifestRecord

cpus.usable_cpus = lambda: 2
dataset.SPLIT_MIN_MANIFESTS = 0
records = [ManifestRecord(path, "benign", "manifest") for path in sys.argv[1:]]
dataset.extract_corpus(records)
print(dataset._reader.pid, flush=True)
os._exit(0)  # as if killed: no exit handler stops the reader
"""


def plain_manifests(directory, count) -> list[Path]:
    paths = []
    for i in range(count):
        paths.append(directory / f"{i}.xml")
        paths[-1].write_text(f'<manifest><uses-permission name="p{i}"/></manifest>')
    return paths


def test_the_reader_leaves_when_its_caller_dies(tmp_path):
    paths = plain_manifests(tmp_path, 4)
    run = subprocess.run(
        [sys.executable, "-c", ORPHANED_READER, *map(str, paths)], capture_output=True,
        text=True, timeout=120, cwd=Path(botgrid.__file__).resolve().parents[1],
    )
    assert run.returncode == 0, run.stderr
    stat = Path(f"/proc/{int(run.stdout)}/stat")

    def state():
        try:
            return stat.read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return None

    deadline = time.monotonic() + 30
    # Gone, or a zombie that its new parent has not reaped yet.
    while state() not in (None, "Z"):
        assert time.monotonic() < deadline, "the reader outlived its caller"
        time.sleep(0.05)


BUFFERED_OUTPUT = """
import os
import sys
from botgrid import cpus, dataset
from botgrid.dataset import ManifestRecord

cpus.usable_cpus = lambda: 2
dataset.SPLIT_MIN_MANIFESTS = 0
records = [ManifestRecord(path, "benign", "manifest") for path in sys.argv[2:]]
if not hasattr(sys.stdout.buffer, "raw"):
    sys.exit("stdout is not buffered")
sys.stdout.write("once\\n")  # stdout is a pipe, so this stays in the buffer
dataset.extract_corpus(records)
if dataset._reader is None:
    sys.exit("no reader was forked")
if sys.argv[1] == "os._exit":
    sys.stdout.flush()
    os._exit(0)  # the reader leaves when it reads end of file
# else the interpreter exits and the exit handler kills the reader
"""


@pytest.mark.parametrize("how", ["os._exit", "normal exit"])
def test_the_reader_never_writes_the_callers_buffered_output(tmp_path, how):
    # The reader inherits the caller's unflushed stdout buffer; leaving by
    # an exit path that flushes stdio would print it a second time.
    paths = plain_manifests(tmp_path, 4)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    run = subprocess.run(
        [sys.executable, "-c", BUFFERED_OUTPUT, how, *map(str, paths)], capture_output=True,
        text=True, timeout=120, cwd=Path(botgrid.__file__).resolve().parents[1], env=env,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "once\n"


def test_the_real_threshold_counts_manifests_and_apks_only(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(dataset, "SPLIT_MIN_MANIFESTS", SPLIT_MIN_MANIFESTS)
    lists = []
    for i in range(SPLIT_MIN_MANIFESTS // 2):
        lists.append(ManifestRecord(str(tmp_path / f"{i}.txt"), "botnet", "permlist"))
        write_permlist(tmp_path / f"{i}.txt", [f"p{i}"])
    manifests = [ManifestRecord(str(path), "benign", "manifest")
                 for path in plain_manifests(tmp_path, SPLIT_MIN_MANIFESTS)]

    def matches_the_inline_read(records):
        with monkeypatch.context() as inline_only:
            inline_only.setattr(dataset, "SPLIT_MIN_MANIFESTS", sys.maxsize)
            inline = extract_corpus(records)
        return extract_corpus(records) == inline

    assert matches_the_inline_read(manifests[:-1] + lists)  # one manifest short
    assert forks == [] and dataset._reader is None
    assert matches_the_inline_read(lists + manifests)
    assert len(forks) == 1 and dataset._reader is not None


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="lists /proc/self/fd")
def test_the_reader_leaves_no_descriptor_open(tmp_path, forks):
    def open_fds():
        return sorted(os.listdir("/proc/self/fd"))

    records = every_kind(tmp_path)
    before = open_fds()
    extract_corpus(records)
    assert dataset._reader is not None and open_fds() != before
    pid = os.fork()  # a child forked while the reader exists holds none of its ends
    if pid == 0:
        os._exit(0 if open_fds() == before else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    dataset._stop_reader()
    assert open_fds() == before


# --- synthetic corpus generator ---

def test_synth_no_noise_is_separable_by_any_signature_permission(tmp_path):
    spec = SynthSpec(n_botnet=40, n_benign=40, pool_size=24, noise_rate=0.0, seed=7)
    records = generate_synthetic_corpus(spec, tmp_path)
    botnet_sig, benign_sig = signature_permissions(spec)
    for record in records:
        perms = read_permissions(record.path, record.kind).permissions
        for p in botnet_sig:
            assert (p in perms) == (record.label == "botnet")
        for p in benign_sig:
            assert (p in perms) == (record.label == "benign")


def test_synth_byte_identical_given_seed(tmp_path):
    spec = SynthSpec(n_botnet=15, n_benign=10, seed=42)
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_synthetic_corpus(spec, a)
    generate_synthetic_corpus(spec, b)
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_frequencies_within_binomial_bounds(tmp_path):
    spec = SynthSpec(
        n_botnet=1000,
        n_benign=1000,
        pool_size=30,
        botnet_signature_size=6,
        benign_signature_size=4,
        signature_prob=0.9,
        noise_rate=0.1,
        seed=13,
    )
    records = generate_synthetic_corpus(spec, tmp_path)
    botnet_sig, benign_sig = signature_permissions(spec)
    by_label = {"botnet": [], "benign": []}
    for record in records:
        by_label[record.label].append(read_permissions(record.path, record.kind).permissions)

    def check(sets, perm, p_expected):
        n = len(sets)
        observed = sum(1 for s in sets if perm in s)
        sigma = (n * p_expected * (1 - p_expected)) ** 0.5
        assert abs(observed - n * p_expected) <= 3 * sigma + 1e-9, (
            f"{perm}: observed {observed}, expected {n * p_expected:.1f} +- 3*{sigma:.1f}"
        )

    for perm in botnet_sig:
        check(by_label["botnet"], perm, 0.9)
        check(by_label["benign"], perm, 0.1)  # other-class noise
    for perm in benign_sig:
        check(by_label["benign"], perm, 0.9)
        check(by_label["botnet"], perm, 0.1)


def test_synth_botnet_uses_more_permissions(tmp_path):
    spec = SynthSpec(n_botnet=200, n_benign=200, seed=1)
    records = generate_synthetic_corpus(spec, tmp_path)
    sizes = {"botnet": [], "benign": []}
    for record in records:
        sizes[record.label].append(len(read_permissions(record.path, record.kind).permissions))
    assert np.mean(sizes["botnet"]) > np.mean(sizes["benign"])


def test_synth_rejects_bad_spec():
    with pytest.raises(InvalidSpec):
        SynthSpec(pool_size=5, botnet_signature_size=4, benign_signature_size=4)
    with pytest.raises(InvalidSpec):
        SynthSpec(noise_rate=1.5)
    with pytest.raises(InvalidSpec):
        SynthSpec(n_botnet=0)


def test_synth_manifest_loads_back(tmp_path):
    spec = SynthSpec(n_botnet=5, n_benign=5, seed=2)
    generate_synthetic_corpus(spec, tmp_path / "c")
    records = load_dataset_manifest(tmp_path / "c" / "data.csv")
    assert len(records) == 10
    corpus = extract_corpus(records)
    assert len(corpus.perm_sets) == 10
    assert corpus.failures == []
