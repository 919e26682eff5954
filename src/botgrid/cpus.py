"""How many CPUs this process may keep busy, and the one helper thread it
keeps a second one busy with.

A process may run work beside its own thread only when its share of the
CPUs it may use is more than one CPU.  Its share is the CPUs divided by the
processes doing the same work on them: one of cross_validate's fold
workers on a two-CPU host gets one CPU, and so starts no helper thread and
uses no reader process (see nn.layers and dataset).

The helper is one thread that the whole process shares, started on first
use.  A forked child inherits the executor but not its thread, so it
forgets the parent's and starts its own.  A caller about to fork retires
it first (`single_threaded`); the next `in_parallel` starts a new one.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_HELPER_NAME = "botgrid-conv"

_helper: ThreadPoolExecutor | None = None
_helper_lock = threading.Lock()
# How many processes doing the same work share this one's CPUs.
_processes_sharing = 1


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
    """True when this process's share of the CPUs it may use is more than one."""
    return usable_cpus() // _processes_sharing > 1


def _forget_helper() -> None:
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def in_parallel(first, second):
    """(first(), second()), with first run on the helper thread while this
    thread runs second; numpy's GEMMs and large copies release the GIL, so
    they overlap.  Both run here when the process has no spare CPU.
    Returns or raises only once neither is running."""
    global _helper
    with _helper_lock:
        if _helper is None and spare_cpu():
            _helper = ThreadPoolExecutor(1, thread_name_prefix=_HELPER_NAME)
        helper = _helper
    if helper is None:
        return first(), second()
    future = helper.submit(first)
    try:
        second_result = second()
    finally:
        wait([future])
    return future.result(), second_result


def single_threaded() -> bool:
    """True when the calling thread is the process's only thread, so that it
    may fork.  When the only other thread is the idle helper, retires it
    first.  Only threads the threading module knows of are seen."""
    global _helper
    with _helper_lock:
        me = threading.current_thread()
        others = [t for t in threading.enumerate() if t is not me]
        if _helper is not None and others and all(
            t.name.startswith(_HELPER_NAME) for t in others
        ):
            _helper.shutdown(wait=True)
            _helper = None
            others = [t for t in threading.enumerate() if t is not me]
        return not others
