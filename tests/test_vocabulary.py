import random

import pytest
from hypothesis import example, given, strategies as st

from botgrid.axml import parse_axml
from botgrid.errors import DuplicateEntry, EmptyCorpus, EmptyFile
from botgrid.manifest import (
    PermissionSet,
    extract_permissions,
    parse_plain_manifest,
    read_names,
    read_text,
    write_names,
)
from botgrid.training import build_fold_vocabulary
from botgrid.vocabulary import PermissionVocabulary, load_vocabulary, save_vocabulary

from axml_writer import build_axml, permissions_manifest


def rank(botnet_sets, benign_sets, n):
    """build_fold_vocabulary over botnet apps, then benign apps."""
    perm_sets = [
        PermissionSet(frozenset(perms))
        for label, sets in (("botnet", botnet_sets), ("benign", benign_sets))
        for i, perms in enumerate(sets)
    ]
    labels = ["botnet"] * len(botnet_sets) + ["benign"] * len(benign_sets)
    return build_fold_vocabulary(perm_sets, labels, n)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus, match="no botnet samples to count"):
        rank([], [{"a"}], 4)
    with pytest.raises(EmptyCorpus, match="no benign samples to count"):
        rank([{"a"}], [], 4)
    with pytest.raises(EmptyCorpus, match="no application in either class"):
        rank([set()], [set(), set()], 4)
    with pytest.raises(ValueError, match="vocabulary size must be >= 1"):
        rank([{"a"}], [{"a"}], 0)


def test_read_phone_state_style_fraction():
    # READ_PHONE_STATE in 90.48% of 2500 botnet apps and 33.08% of 5000
    # benign apps.  One benign app more or less moves a permission with
    # the same botnet share past it either way, and SEND_SMS with the
    # class shares swapped ties it exactly and loses on the name, though
    # it is requested by 5351 apps against 3916.
    rps, sms = "android.permission.READ_PHONE_STATE", "android.permission.SEND_SMS"
    below, above = "android.permission.ACCESS_WIFI_STATE", "android.permission.WAKE_LOCK"
    botnet = [
        {p for p, share in ((rps, 2262), (sms, 827), (below, 2262), (above, 2262)) if i < share}
        for i in range(2500)
    ]
    benign = [
        {p for p, share in ((rps, 1654), (sms, 4524), (below, 1653), (above, 1655)) if i < share}
        for i in range(5000)
    ]
    assert rank(botnet, benign, 41).permissions == (above, rps, sms, below)


def test_permutation_invariance():
    perm_sets = [
        PermissionSet(frozenset(perms))
        for i, perms in enumerate([{"a"}, {"a", "b"}, {"c", "b"}, {"c"}, {"d", "a"}, set()])
    ]
    labels = ["botnet", "botnet", "botnet", "benign", "benign", "benign"]
    expected = build_fold_vocabulary(perm_sets, labels, 3)
    pairs = list(zip(perm_sets, labels))
    for seed in range(5):
        random.Random(seed).shuffle(pairs)
        sets, shuffled_labels = zip(*pairs)
        assert build_fold_vocabulary(list(sets), list(shuffled_labels), 3) == expected


def test_merge_symmetric_tie_breaks_by_name():
    assert rank([{"B"}], [{"A"}], 2).permissions == ("A", "B")


def test_merge_scoring_rule_forced():
    # A: 9/10 botnet + 1/10 benign = 1.0; B: 1/10 + 8/10 = 0.9
    botnet = [{"A"}] * 9 + [{"B"}]
    benign = [{"B"}] * 8 + [{"A"}] + [set()]
    assert rank(botnet, benign, 1).permissions == ("A",)  # 1.0 beats 0.9


def test_merge_reports_actual_size_when_union_small():
    vocab = rank([{"A"}, {"A"}, set(), set()], [{"B"}, set(), set(), set()], 41)
    assert vocab.permissions == ("A", "B")


@given(
    bot_sets=st.lists(
        st.frozensets(st.sampled_from("abcdefgh"), max_size=6), min_size=1, max_size=12
    ),
    ben_sets=st.lists(
        st.frozensets(st.sampled_from("defghijk"), max_size=6), min_size=1, max_size=12
    ),
    n=st.integers(min_value=1, max_value=20),
)
def test_merge_matches_brute_force(bot_sets, ben_sets, n):
    union = set().union(*bot_sets) | set().union(*ben_sets)
    if not union:
        with pytest.raises(EmptyCorpus):
            rank(bot_sets, ben_sets, n)
        return
    vocab = rank(bot_sets, ben_sets, n)

    # brute-force re-ranking of the union by summed class fractions
    def score(p):
        fb = sum(1 for s in bot_sets if p in s) / len(bot_sets)
        fn = sum(1 for s in ben_sets if p in s) / len(ben_sets)
        return fb + fn

    expected = sorted(union, key=lambda p: (-score(p), p))[:n]
    assert list(vocab.permissions) == expected
    assert len(vocab) == min(n, len(union))


def test_save_load_round_trip(tmp_path):
    perms = tuple(f"perm.{i:02d}" for i in range(41))
    vocab = PermissionVocabulary(perms)
    path = tmp_path / "vocab.txt"
    save_vocabulary(vocab, path)
    assert load_vocabulary(path) == vocab


def test_load_rejects_duplicates(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\nb\na\n")
    with pytest.raises(DuplicateEntry) as exc:
        load_vocabulary(path)
    # the first line that repeats an earlier one, in file order
    assert str(exc.value) == f"{path}: duplicated vocabulary entry 'b'"


def test_load_ignores_blanks_and_comments(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("# header\na\n\nb\n\n\n")
    assert load_vocabulary(path).permissions == ("a", "b")


def test_load_empty_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("# nothing but comments\n\n")
    with pytest.raises(EmptyFile):
        load_vocabulary(path)


def test_vocabulary_file_with_bom(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes("android.permission.INTERNET\nandroid.permission.NFC\n".encode("utf-8-sig"))
    assert load_vocabulary(path).permissions == (
        "android.permission.INTERNET",
        "android.permission.NFC",
    )


# every boundary str.splitlines splits a line at
LINE_BOUNDARIES = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@given(
    odd=st.lists(
        st.text(
            st.sampled_from(" \t#a." + LINE_BOUNDARIES)
            | st.characters(exclude_categories=("Cs",)),
            max_size=8,
        ),
        max_size=8,
    )
)
@example(odd=["#evil", "a\nb", "c\u2028d", "android.permission.INTERNET"])
def test_extracted_vocabulary_survives_its_file(tmp_path_factory, odd):
    # The AXML writer carries characters that XML 1.0 cannot.
    plain = parse_plain_manifest(
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        '<uses-permission android:name="#evil"/>'
        '<uses-permission android:name="a&#10;b"/>'
        '<uses-permission android:name="c\u2028d"/>'
        '<uses-permission android:name="android.permission.INTERNET"/>'
        "</manifest>"
    )
    perm_sets = [
        extract_permissions(parse_axml(build_axml(permissions_manifest(odd)))),
        extract_permissions(plain),
    ]
    path = tmp_path_factory.mktemp("names") / "names.txt"
    for perms in perm_sets:
        names = sorted(perms.permissions)
        write_names(names, path)
        assert read_names(read_text(path)) == names
    vocab = build_fold_vocabulary(perm_sets, ["botnet", "benign"], 41)
    save_vocabulary(vocab, path)
    assert load_vocabulary(path) == vocab
