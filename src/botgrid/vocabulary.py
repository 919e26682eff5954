"""Frequency-ranked permission lists and the merged top-n vocabulary.

Each class (benign, botnet) gets a list of permissions sorted by how
many of its applications request them.  The two lists are merged by
summed per-class fractions, which keeps an imbalanced corpus from
drowning out the rarer class, and the top n entries fix the image axes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .errors import DuplicateEntry, EmptyCorpus, EmptyFile
from .manifest import PermissionSet


@dataclass(frozen=True)
class FrequencyEntry:
    permission: str
    count: int
    fraction: float


@dataclass(frozen=True)
class FrequencyList:
    class_label: str
    entries: tuple[FrequencyEntry, ...]
    corpus_size: int


@dataclass(frozen=True)
class PermissionVocabulary:
    permissions: tuple[str, ...]

    def __post_init__(self):
        if not self.permissions:
            raise EmptyFile("vocabulary must contain at least one permission")
        if len(set(self.permissions)) != len(self.permissions):
            raise DuplicateEntry("vocabulary contains duplicate permissions")

    @cached_property
    def index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.permissions)}

    def __len__(self) -> int:
        return len(self.permissions)

    def __contains__(self, permission: str) -> bool:
        return permission in self.index


def count_frequencies(sets: Iterable[PermissionSet], class_label: str) -> FrequencyList:
    """App-level counts: each application contributes at most 1 per permission."""
    sets = list(sets)
    if not sets:
        raise EmptyCorpus(f"no {class_label} samples to count")
    counter: Counter[str] = Counter()
    for perm_set in sets:
        counter.update(perm_set.permissions)
    size = len(sets)
    ordered = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = tuple(
        FrequencyEntry(name, count, count / size) for name, count in ordered
    )
    return FrequencyList(class_label, entries, size)


def merge_vocabulary(
    botnet: FrequencyList, benign: FrequencyList, n: int
) -> PermissionVocabulary:
    """Union of both lists ranked by summed class fractions, truncated to n."""
    if n < 1:
        raise ValueError(f"vocabulary size must be >= 1, got {n}")
    scores: dict[str, float] = {}
    for freq_list in (botnet, benign):
        for entry in freq_list.entries:
            scores[entry.permission] = scores.get(entry.permission, 0.0) + entry.fraction
    if not scores:
        raise EmptyCorpus("no application in either class requests any permission")
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return PermissionVocabulary(tuple(name for name, _ in ranked[:n]))


def save_vocabulary(vocab: PermissionVocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in vocab.permissions:
            fh.write(name + "\n")


def load_vocabulary(path) -> PermissionVocabulary:
    """Inverse of save_vocabulary: line order is index order."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    names: list[str] = []
    seen: set[str] = set()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in seen:
            raise DuplicateEntry(f"{path}: duplicated vocabulary entry {line!r}")
        seen.add(line)
        names.append(line)
    if not names:
        raise EmptyFile(f"{path}: vocabulary file has no entries")
    return PermissionVocabulary(tuple(names))
