import math

import pytest
from hypothesis import given, strategies as st

from botgrid.errors import DuplicateEntry, EmptyCorpus, EmptyFile
from botgrid.manifest import PermissionSet
from botgrid.vocabulary import (
    FrequencyList,
    PermissionVocabulary,
    count_frequencies,
    load_vocabulary,
    merge_vocabulary,
    save_vocabulary,
)


def ps(i, *perms):
    return PermissionSet(f"app{i}", frozenset(perms))


def test_direct_count():
    fl = count_frequencies(
        [ps(0, "INTERNET"), ps(1, "INTERNET", "SEND_SMS")], "botnet"
    )
    assert fl.corpus_size == 2
    assert [(e.permission, e.count, e.fraction) for e in fl.entries] == [
        ("INTERNET", 2, 1.0),
        ("SEND_SMS", 1, 0.5),
    ]


def test_count_sorting_count_desc_then_name_asc():
    sets = [ps(0, "b", "a"), ps(1, "a", "b"), ps(2, "c")]
    fl = count_frequencies(sets, "benign")
    assert [e.permission for e in fl.entries] == ["a", "b", "c"]


def test_empty_permission_set_counts():
    fl = count_frequencies([ps(0)], "benign")
    assert fl.entries == ()
    assert fl.corpus_size == 1


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        count_frequencies([], "botnet")


def test_read_phone_state_style_fraction():
    # A corpus built so one permission appears in 90.48% of botnet apps
    # and 33.08% of benign apps reproduces those fractions exactly.
    botnet = [
        ps(i, *(["android.permission.READ_PHONE_STATE"] if i < 2262 else []))
        for i in range(2500)
    ]
    benign = [
        ps(i, *(["android.permission.READ_PHONE_STATE"] if i < 827 else []))
        for i in range(2500)
    ]
    bot_fl = count_frequencies(botnet, "botnet")
    ben_fl = count_frequencies(benign, "benign")
    assert math.isclose(bot_fl.entries[0].fraction, 0.9048, rel_tol=1e-12)
    assert math.isclose(ben_fl.entries[0].fraction, 0.3308, rel_tol=1e-12)


def test_permutation_invariance():
    sets = [ps(0, "a"), ps(1, "a", "b"), ps(2, "c", "b")]
    fl1 = count_frequencies(sets, "botnet")
    fl2 = count_frequencies(list(reversed(sets)), "botnet")
    assert fl1.entries == fl2.entries


def freq(label, corpus_size, **fractions):
    from botgrid.vocabulary import FrequencyEntry

    entries = sorted(
        (
            FrequencyEntry(name, round(f * corpus_size), f)
            for name, f in fractions.items()
        ),
        key=lambda e: (-e.count, e.permission),
    )
    return FrequencyList(label, tuple(entries), corpus_size)


def test_merge_symmetric_tie_breaks_by_name():
    vocab = merge_vocabulary(freq("botnet", 10, A=1.0), freq("benign", 10, B=1.0), 2)
    assert vocab.permissions == ("A", "B")


def test_merge_scoring_rule_forced():
    botnet = freq("botnet", 10, A=0.9, B=0.1)
    benign = freq("benign", 10, B=0.8, A=0.1)
    vocab = merge_vocabulary(botnet, benign, 1)
    assert vocab.permissions == ("A",)  # 1.0 beats 0.9


def test_merge_reports_actual_size_when_union_small():
    vocab = merge_vocabulary(freq("botnet", 4, A=0.5), freq("benign", 4, B=0.25), 41)
    assert len(vocab) == 2


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
    botnet = count_frequencies(
        [PermissionSet(f"b{i}", s) for i, s in enumerate(bot_sets)], "botnet"
    )
    benign = count_frequencies(
        [PermissionSet(f"n{i}", s) for i, s in enumerate(ben_sets)], "benign"
    )
    union = set().union(*bot_sets) | set().union(*ben_sets)
    if not union:
        with pytest.raises(EmptyCorpus):
            merge_vocabulary(botnet, benign, n)
        return
    vocab = merge_vocabulary(botnet, benign, n)

    # brute-force re-ranking of the union by summed class fractions
    def score(p):
        fb = sum(1 for s in bot_sets if p in s) / len(bot_sets)
        fn = sum(1 for s in ben_sets if p in s) / len(ben_sets)
        return fb + fn

    expected = sorted(union, key=lambda p: (-score(p), p))[:n]
    assert list(vocab.permissions) == expected
    assert len(vocab) == min(n, len(union))


def test_vocabulary_index_is_inverse():
    vocab = PermissionVocabulary(("x", "y", "z"))
    assert [vocab.index[p] for p in vocab.permissions] == [0, 1, 2]
    assert "y" in vocab and "w" not in vocab


def test_save_load_round_trip(tmp_path):
    perms = tuple(f"perm.{i:02d}" for i in range(41))
    vocab = PermissionVocabulary(perms)
    path = tmp_path / "vocab.txt"
    save_vocabulary(vocab, path)
    assert load_vocabulary(path) == vocab


def test_load_rejects_duplicates(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\na\n")
    with pytest.raises(DuplicateEntry):
        load_vocabulary(path)


def test_load_ignores_blanks_and_comments(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("# header\na\n\nb\n\n\n")
    assert load_vocabulary(path).permissions == ("a", "b")


def test_load_empty_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("# nothing but comments\n\n")
    with pytest.raises(EmptyFile):
        load_vocabulary(path)
