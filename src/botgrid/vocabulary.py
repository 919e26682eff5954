"""The permission vocabulary: the ordered list that fixes the image axes.

Position i in the vocabulary is row and column i of every co-occurrence
image.  `training.build_fold_vocabulary` ranks it from a corpus; this
module holds the type and its file, which is in the one-name-per-line
format that `manifest.read_names` and `manifest.write_names` own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DuplicateEntry, EmptyFile
from .manifest import read_names, read_text, write_names


@dataclass(frozen=True)
class PermissionVocabulary:
    permissions: tuple[str, ...]

    def __post_init__(self):
        if not self.permissions:
            raise EmptyFile("vocabulary has no entries")
        seen: set[str] = set()
        for name in self.permissions:
            if name in seen:
                raise DuplicateEntry(f"duplicated vocabulary entry {name!r}")
            seen.add(name)

    def __len__(self) -> int:
        return len(self.permissions)


def save_vocabulary(vocab: PermissionVocabulary, path) -> None:
    write_names(vocab.permissions, path)


def load_vocabulary(path) -> PermissionVocabulary:
    """Inverse of save_vocabulary: line order is index order."""
    try:
        return PermissionVocabulary(tuple(read_names(read_text(path))))
    except (DuplicateEntry, EmptyFile) as exc:
        raise type(exc)(f"{path}: {exc}") from None
