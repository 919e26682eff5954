"""Permission co-occurrence images.

An application is its presence vector v over the vocabulary: v[i] is True
when the app requests the i-th vocabulary permission.  Its image is the
n x n black & white grid 1 - v.vT: cell [i, j] is black (0) when the app
requests both the i-th and j-th vocabulary permissions, white otherwise.
The diagonal therefore marks single-permission presence, and the image is
symmetric.  The image is built only where it is read: `normalize` gives
the network's float input, `image` and `dump_pgm` the 8-bit pixels.
"""

from __future__ import annotations

import numpy as np

from .manifest import PermissionSet
from .vocabulary import PermissionVocabulary


def encode(perms: PermissionSet, vocab: PermissionVocabulary) -> np.ndarray:
    """The bool presence vector; permissions outside the vocabulary are ignored."""
    return np.fromiter(
        (p in perms for p in vocab.permissions), dtype=bool, count=len(vocab)
    )


def normalize(present: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The image as an (n, n, 1) tensor of pixel/255: co-occurrence 0.0, absence 1.0."""
    n = len(present)
    return (~np.outer(present, present)).astype(dtype).reshape(n, n, 1)


def image(present: np.ndarray) -> np.ndarray:
    """The (n, n) uint8 pixels: co-occurrence 0 (black), absence 255 (white)."""
    return np.where(np.outer(present, present), 0, 255).astype(np.uint8)


def dump_pgm(present: np.ndarray, path) -> None:
    """The image as binary PGM (P5), maxval 255, row-major payload."""
    n = len(present)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode("ascii"))
        fh.write(image(present).tobytes(order="C"))
