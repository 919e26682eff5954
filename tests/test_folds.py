from collections import Counter

import pytest
from hypothesis import given, strategies as st

from botgrid.errors import TooFewSamples
from botgrid.folds import make_folds


def test_ten_folds_of_twenty_balanced_samples():
    labels = ["benign"] * 10 + ["botnet"] * 10
    plan = make_folds(labels, k=10, seed=0)
    for fold in range(10):
        members = plan.split(fold)[1]
        assert len(members) == 2
        assert sorted(labels[i] for i in members) == ["benign", "botnet"]


def test_same_seed_same_plan():
    labels = ["benign"] * 23 + ["botnet"] * 31
    assert make_folds(labels, 5, seed=9) == make_folds(labels, 5, seed=9)
    assert make_folds(labels, 5, seed=9) != make_folds(labels, 5, seed=10)


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        make_folds(["benign"] * 3 + ["botnet"] * 10, k=5, seed=0)


def test_split_partitions_indices():
    labels = ["benign"] * 12 + ["botnet"] * 12
    plan = make_folds(labels, 4, seed=3)
    train, test = plan.split(2)
    assert sorted(train + test) == list(range(24))
    assert not set(train) & set(test)


labels_st = st.tuples(
    st.integers(2, 40), st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**31)
).filter(lambda t: t[0] >= t[2] and t[1] >= t[2])


@given(labels_st)
def test_fold_invariants_brute_force(params):
    n_benign, n_botnet, k, seed = params
    labels = ["benign"] * n_benign + ["botnet"] * n_botnet
    plan = make_folds(labels, k, seed)

    assert len(plan.assignments) == len(labels)
    assert set(plan.assignments) <= set(range(k))

    # disjoint + covering by construction of assignments; check sizes
    sizes = Counter(plan.assignments)
    counts = [sizes.get(f, 0) for f in range(k)]
    assert sum(counts) == len(labels)
    assert max(counts) - min(counts) <= 1

    # stratification: per-class counts within 1 across folds
    for label in ("benign", "botnet"):
        per_fold = [
            sum(1 for i, f in enumerate(plan.assignments) if f == fold and labels[i] == label)
            for fold in range(k)
        ]
        assert max(per_fold) - min(per_fold) <= 1
