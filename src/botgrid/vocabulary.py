"""The permission vocabulary: the ordered list that fixes the image axes.

Position i in the vocabulary is row and column i of every co-occurrence
image.  `training.build_fold_vocabulary` ranks it from a corpus; this
module holds the type and its file, which is in the one-name-per-line
format that `manifest.read_names` and `manifest.write_names` own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DuplicateEntry, EmptyFile
from .manifest import read_names, read_text, write_names


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


def save_vocabulary(vocab: PermissionVocabulary, path) -> None:
    write_names(vocab.permissions, path)


def load_vocabulary(path) -> PermissionVocabulary:
    """Inverse of save_vocabulary: line order is index order."""
    names = read_names(read_text(path))
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateEntry(f"{path}: duplicated vocabulary entry {name!r}")
        seen.add(name)
    if not names:
        raise EmptyFile(f"{path}: vocabulary file has no entries")
    return PermissionVocabulary(tuple(names))
