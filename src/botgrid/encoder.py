"""Permission co-occurrence images.

An application becomes an n x n black & white grid over the vocabulary:
cell [i, j] is 0 (black) when the app requests both the i-th and j-th
vocabulary permissions, 255 (white) otherwise.  The diagonal therefore
marks single-permission presence, and the image is symmetric.
"""

from __future__ import annotations

import numpy as np

from .manifest import PermissionSet
from .vocabulary import PermissionVocabulary

PRESENT = 0
ABSENT = 255


class CoOccurrenceImage:
    def __init__(self, pixels: np.ndarray):
        pixels = np.asarray(pixels, dtype=np.uint8)
        if pixels.ndim != 2 or pixels.shape[0] != pixels.shape[1]:
            raise ValueError(f"expected a square pixel grid, got shape {pixels.shape}")
        self.pixels = pixels

    @property
    def n(self) -> int:
        return self.pixels.shape[0]

    def zero_count(self) -> int:
        return int(np.count_nonzero(self.pixels == PRESENT))


def encode(perms: PermissionSet, vocab: PermissionVocabulary) -> CoOccurrenceImage:
    """Permissions outside the vocabulary are ignored."""
    present = np.fromiter(
        (p in perms for p in vocab.permissions), dtype=bool, count=len(vocab)
    )
    pixels = np.where(np.outer(present, present), PRESENT, ABSENT).astype(np.uint8)
    return CoOccurrenceImage(pixels)


def out_of_vocabulary(perms: PermissionSet, vocab: PermissionVocabulary) -> frozenset[str]:
    """Permissions the encoding drops; tallied per app by ingestion."""
    return frozenset(p for p in perms.permissions if p not in vocab)


def normalize(img: CoOccurrenceImage, dtype=np.float64) -> np.ndarray:
    """(n, n, 1) tensor with pixel/255: co-occurrence 0.0, absence 1.0."""
    n = img.n
    scale = np.asarray(255, dtype=dtype)
    return (img.pixels.astype(dtype) / scale).reshape(n, n, 1)


def dump_pgm(img: CoOccurrenceImage, path) -> None:
    """Binary PGM (P5), maxval 255, row-major payload."""
    header = f"P5\n{img.n} {img.n}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes(order="C"))
