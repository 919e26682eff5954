import numpy as np
import pytest
from hypothesis import given, strategies as st

from botgrid.encoder import CoOccurrenceImage, dump_pgm, encode, normalize, out_of_vocabulary
from botgrid.manifest import PermissionSet
from botgrid.vocabulary import PermissionVocabulary

VOCAB8 = PermissionVocabulary(tuple(f"p{i}" for i in range(8)))


def ps(*perms):
    return PermissionSet("app", frozenset(perms))


def brute_force_pixels(perms, vocab):
    n = len(vocab)
    out = np.empty((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            both = vocab.permissions[i] in perms and vocab.permissions[j] in perms
            out[i, j] = 0 if both else 255
    return out


def test_empty_permissions_all_white():
    img = encode(ps(), VOCAB8)
    assert img.n == 8
    assert np.all(img.pixels == 255)


def test_singleton_permission():
    img = encode(ps("p3"), VOCAB8)
    expected = np.full((8, 8), 255, dtype=np.uint8)
    expected[3, 3] = 0
    assert np.array_equal(img.pixels, expected)


def test_pair_of_permissions():
    img = encode(ps("p1", "p4"), VOCAB8)
    zeros = {(1, 1), (4, 4), (1, 4), (4, 1)}
    for i in range(8):
        for j in range(8):
            assert img.pixels[i, j] == (0 if (i, j) in zeros else 255)


perm_sets = st.frozensets(st.sampled_from([f"p{i}" for i in range(12)]), max_size=12)
vocab_sizes = st.integers(min_value=1, max_value=10)


@given(perms=perm_sets, n=vocab_sizes)
def test_matches_brute_force(perms, n):
    vocab = PermissionVocabulary(tuple(f"p{i}" for i in range(n)))
    img = encode(PermissionSet("a", perms), vocab)
    assert np.array_equal(img.pixels, brute_force_pixels(perms, vocab))


@given(perms=perm_sets, n=vocab_sizes)
def test_symmetry_and_zero_count(perms, n):
    vocab = PermissionVocabulary(tuple(f"p{i}" for i in range(n)))
    img = encode(PermissionSet("a", perms), vocab)
    assert np.array_equal(img.pixels, img.pixels.T)
    k = len([p for p in perms if p in vocab])
    assert img.zero_count() == k * k
    # off-diagonal black implies both diagonal cells black
    for i in range(n):
        for j in range(n):
            if img.pixels[i, j] == 0:
                assert img.pixels[i, i] == 0 and img.pixels[j, j] == 0


@given(perms=perm_sets)
def test_depends_only_on_vocab_intersection(perms):
    vocab = PermissionVocabulary(("p0", "p1", "p2"))
    with_noise = PermissionSet("a", perms | {"unlisted.permission"})
    without = PermissionSet("a", perms)
    assert np.array_equal(
        encode(with_noise, vocab).pixels,
        encode(
            PermissionSet("b", frozenset(p for p in with_noise.permissions if p in vocab)), vocab
        ).pixels,
    )
    assert out_of_vocabulary(without, vocab) == frozenset(
        p for p in perms if p not in ("p0", "p1", "p2")
    )


@given(perms=perm_sets, extra=st.sampled_from([f"p{i}" for i in range(10)]), n=vocab_sizes)
def test_monotone_no_black_turns_white(perms, extra, n):
    vocab = PermissionVocabulary(tuple(f"p{i}" for i in range(n)))
    base = encode(PermissionSet("a", perms), vocab)
    grown = encode(PermissionSet("a", perms | {extra}), vocab)
    # adding a permission can only turn white pixels black
    assert np.all(grown.pixels <= base.pixels)


def test_normalize_all_white_is_all_ones():
    t = normalize(encode(ps(), VOCAB8))
    assert t.shape == (8, 8, 1)
    assert np.all(t == 1.0)


def test_normalize_preserves_zero_count_and_inverts():
    img = encode(ps("p0", "p5", "p6"), VOCAB8)
    t = normalize(img)
    assert int(np.sum(t == 0.0)) == img.zero_count() == 9
    assert np.array_equal((t * 255).astype(np.uint8).reshape(8, 8), img.pixels)


def test_normalize_dtype():
    assert normalize(encode(ps(), VOCAB8), dtype=np.float32).dtype == np.float32
    assert normalize(encode(ps(), VOCAB8)).dtype == np.float64


def read_pgm(path):
    """Independent little PGM reader for round-trip checks."""
    data = open(path, "rb").read()
    assert data[:3] == b"P5\n"
    rest = data[3:]
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(x) for x in dims.split())
    maxval, payload = rest.split(b"\n", 1)
    assert int(maxval) == 255
    assert len(payload) == w * h
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def test_pgm_two_by_two_all_white(tmp_path):
    path = tmp_path / "img.pgm"
    dump_pgm(CoOccurrenceImage(np.full((2, 2), 255, np.uint8)), path)
    blob = path.read_bytes()
    assert blob == b"P5\n2 2\n255\n" + b"\xff" * 4
    assert len(blob) == 15


def test_pgm_one_by_one_black(tmp_path):
    path = tmp_path / "img.pgm"
    dump_pgm(CoOccurrenceImage(np.zeros((1, 1), np.uint8)), path)
    assert path.read_bytes()[-1:] == b"\x00"


@given(perms=perm_sets)
def test_pgm_round_trip(tmp_path_factory, perms):
    img = encode(PermissionSet("a", perms), VOCAB8)
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    dump_pgm(img, path)
    assert np.array_equal(read_pgm(path), img.pixels)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        CoOccurrenceImage(np.zeros((2, 3), np.uint8))
