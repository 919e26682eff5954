import numpy as np
import pytest

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
        sizes[record.label].append(len(read_permissions(record.path, record.kind)))
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
    assert len(corpus) == 10
    assert corpus.failures == []
