"""How many CPUs this process may keep busy, and how a call keeps a second
one busy.

A process may run work beside its own thread only when its share of the
CPUs it may use is more than the threads it already keeps busy.  Its
share is the CPUs divided by the processes doing the same work on them:
one of cross_validate's fold workers on a two-CPU host gets one CPU, and
so starts no helper thread and uses no reader process (see nn.layers and
dataset).

A helper thread lives for one `in_parallel` call, so no thread outlives
the call that started it, and a process may fork between calls.  For the
length of the call its helper counts as busy, process-wide, so a call
made inside either half, or by another thread meanwhile, sees one CPU
fewer: on two CPUs, a conv inside one of cross_validate's fold threads
(see training) runs both halves on its own thread.  A call that finds no
spare CPU, or whose thread cannot be started, runs both halves itself.
"""

from __future__ import annotations

import os
import threading

# How many processes doing the same work share this one's CPUs.
_processes_sharing = 1
# Helper threads that in_parallel calls in this process are running.
_helpers = 0
_helpers_lock = threading.Lock()


def sharing_cpus(processes: int, fn, *args):
    """fn(*args) in one of `processes` processes that share these CPUs."""
    global _processes_sharing
    before, _processes_sharing = _processes_sharing, processes
    try:
        return fn(*args)
    finally:
        _processes_sharing = before


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def spare_cpu() -> bool:
    """True when this process's share of the CPUs it may use is more than
    its calling thread and the helpers in_parallel has running."""
    return usable_cpus() // _processes_sharing > 1 + _helpers


def in_parallel(first, second):
    """(first(), second()), with first run on a helper thread while this
    thread runs second; numpy's GEMMs and large copies release the GIL, so
    they overlap.  Both run here when the process has no spare CPU or when
    no thread can be started.  Returns or raises only once neither is
    running."""
    global _helpers
    with _helpers_lock:
        spare = spare_cpu()
        _helpers += spare
    try:
        return _on_helper(first, second) if spare else (first(), second())
    finally:
        with _helpers_lock:
            _helpers -= spare


def _on_helper(first, second):
    outcome: list = []

    def run_first() -> None:
        try:
            outcome.append((first(), None))
        except BaseException as exc:
            outcome.append((None, exc))

    helper = threading.Thread(target=run_first, name="botgrid-helper")
    try:
        helper.start()
    except RuntimeError:  # the process is at its thread or pid limit
        return first(), second()
    try:
        second_result = second()
    finally:
        helper.join()
    first_result, error = outcome[0]
    if error is not None:
        raise error
    return first_result, second_result
