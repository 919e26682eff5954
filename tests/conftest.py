import os
import threading

# Single-threaded BLAS: the engine's GEMMs are small enough that BLAS's
# own threads cost more than they save, and one BLAS thread keeps results
# bit-reproducible.  This does not touch a conv's helper thread, which
# runs whole GEMMs beside the calling thread's (nn.layers).  Must happen
# before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

settings.register_profile(
    "botgrid",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("botgrid")


@pytest.fixture
def thread_starts(monkeypatch) -> list:
    """The threads started during the test, in order."""
    started, start = [], threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


@pytest.fixture
def helper_joined(monkeypatch) -> threading.Event:
    """Set when a thread first joins another.  in_parallel joins its helper
    only once the calling thread has stopped claiming tasks."""
    joined, join = threading.Event(), threading.Thread.join

    def recording_join(thread, timeout=None):
        joined.set()
        return join(thread, timeout)

    monkeypatch.setattr(threading.Thread, "join", recording_join)
    return joined
