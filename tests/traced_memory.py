"""The most memory that Python and numpy hold at once during one call."""

from __future__ import annotations

import tracemalloc


def peak_bytes_of(fn, *args) -> int:
    """The tracemalloc peak of fn(*args), counted from the call's start;
    fn's exception, if it raises one, propagates."""
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak
