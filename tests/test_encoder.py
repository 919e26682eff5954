from pathlib import Path

import numpy as np
from hypothesis import given, strategies as st

from botgrid.dataset import encode_corpus
from botgrid.encoder import dump_pgm, encode, image, normalize
from botgrid.manifest import PermissionSet
from botgrid.vocabulary import PermissionVocabulary

VOCAB8 = PermissionVocabulary(tuple(f"p{i}" for i in range(8)))


def ps(*perms):
    return PermissionSet(frozenset(perms))


def brute_force_pixels(perms, vocab):
    n = len(vocab)
    out = np.empty((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            both = vocab.permissions[i] in perms and vocab.permissions[j] in perms
            out[i, j] = 0 if both else 255
    return out


def test_empty_permissions_all_white():
    present = encode(ps(), VOCAB8)
    assert present.dtype == bool and present.shape == (8,)
    px = image(present)
    assert px.dtype == np.uint8 and px.shape == (8, 8)
    assert np.all(px == 255)


def test_singleton_permission():
    present = encode(ps("p3"), VOCAB8)
    assert np.flatnonzero(present).tolist() == [3]
    expected = np.full((8, 8), 255, dtype=np.uint8)
    expected[3, 3] = 0
    assert np.array_equal(image(present), expected)


def test_pair_of_permissions():
    px = image(encode(ps("p1", "p4"), VOCAB8))
    zeros = {(1, 1), (4, 4), (1, 4), (4, 1)}
    for i in range(8):
        for j in range(8):
            assert px[i, j] == (0 if (i, j) in zeros else 255)


perm_sets = st.frozensets(st.sampled_from([f"p{i}" for i in range(12)]), max_size=12)
vocab_sizes = st.integers(min_value=1, max_value=10)


@given(perms=perm_sets, n=vocab_sizes)
def test_matches_brute_force(perms, n):
    vocab = PermissionVocabulary(tuple(f"p{i}" for i in range(n)))
    present = encode(PermissionSet(perms), vocab)
    expected = brute_force_pixels(perms, vocab)
    assert np.array_equal(image(present), expected)
    for dtype in (np.float32, np.float64):  # the network input is pixel/255, bit for bit
        t = normalize(present, dtype=dtype)
        assert t.dtype == dtype
        assert np.array_equal(t[..., 0], expected.astype(dtype) / dtype(255))


@given(perms=perm_sets, n=vocab_sizes)
def test_symmetry_and_zero_count(perms, n):
    vocab = PermissionVocabulary(tuple(f"p{i}" for i in range(n)))
    px = image(encode(PermissionSet(perms), vocab))
    assert np.array_equal(px, px.T)
    k = len([p for p in perms if p in vocab.permissions])
    assert np.count_nonzero(px == 0) == k * k
    # off-diagonal black implies both diagonal cells black
    for i in range(n):
        for j in range(n):
            if px[i, j] == 0:
                assert px[i, i] == 0 and px[j, j] == 0


@given(perms=perm_sets)
def test_depends_only_on_vocab_intersection(perms):
    vocab = PermissionVocabulary(("p0", "p1", "p2"))
    with_noise = PermissionSet(perms | {"unlisted.permission"})
    without = PermissionSet(perms)
    assert np.array_equal(
        encode(with_noise, vocab),
        encode(PermissionSet(frozenset(p for p in with_noise.permissions if p in vocab.permissions)), vocab),
    )
    # encode_corpus tallies what the presence vector leaves out
    _, oov = encode_corpus([without, with_noise], vocab)
    outside = len([p for p in perms if p not in ("p0", "p1", "p2")])
    assert oov == [outside, outside + 1]


@given(perms=perm_sets, extra=st.sampled_from([f"p{i}" for i in range(10)]), n=vocab_sizes)
def test_monotone_no_black_turns_white(perms, extra, n):
    vocab = PermissionVocabulary(tuple(f"p{i}" for i in range(n)))
    base = image(encode(PermissionSet(perms), vocab))
    grown = image(encode(PermissionSet(perms | {extra}), vocab))
    # adding a permission can only turn white pixels black
    assert np.all(grown <= base)


def test_normalize_all_white_is_all_ones():
    t = normalize(encode(ps(), VOCAB8))
    assert t.shape == (8, 8, 1)
    assert np.all(t == 1.0)


def test_normalize_preserves_zero_count_and_inverts():
    present = encode(ps("p0", "p5", "p6"), VOCAB8)
    t = normalize(present)
    px = image(present)
    assert int(np.sum(t == 0.0)) == np.count_nonzero(px == 0) == 9
    assert np.array_equal((t * 255).astype(np.uint8).reshape(8, 8), px)


def test_normalize_dtype():
    assert normalize(encode(ps(), VOCAB8), dtype=np.float32).dtype == np.float32
    assert normalize(encode(ps(), VOCAB8)).dtype == np.float64


def read_pgm(path):
    """Independent little PGM reader for round-trip checks."""
    data = Path(path).read_bytes()
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
    dump_pgm(np.zeros(2, bool), path)
    blob = path.read_bytes()
    assert blob == b"P5\n2 2\n255\n" + b"\xff" * 4
    assert len(blob) == 15


def test_pgm_one_by_one_black(tmp_path):
    path = tmp_path / "img.pgm"
    dump_pgm(np.ones(1, bool), path)
    assert path.read_bytes()[-1:] == b"\x00"


@given(perms=perm_sets)
def test_pgm_round_trip(tmp_path_factory, perms):
    present = encode(PermissionSet(perms), VOCAB8)
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    dump_pgm(present, path)
    assert np.array_equal(read_pgm(path), brute_force_pixels(perms, VOCAB8))
