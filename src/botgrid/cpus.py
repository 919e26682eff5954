"""How many CPUs this process may keep busy, and `in_parallel`, the one
way the package keeps a second one busy.

An `in_parallel` call's helper thread lives for the call, so no thread
outlives the call that started it, and a process may fork between calls.
For the length of the call its helper counts as busy, process-wide, so a
call made inside a task, or by another thread meanwhile, sees one CPU
fewer: on two CPUs, a conv inside one of cross_validate's fold threads
(see training) runs both of its tasks on its own thread.  A call that
finds no spare CPU, or whose thread cannot be started, runs every task
itself, in order.
"""

from __future__ import annotations

import itertools
import os
import threading

# Helper threads that in_parallel calls in this process are running.
_helpers = 0
_helpers_lock = threading.Lock()


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def spare_cpu() -> bool:
    """True when this process may use more CPUs than its calling thread
    and the helpers in_parallel has running."""
    return usable_cpus() > 1 + _helpers


def in_parallel(*tasks) -> tuple:
    """tuple(task() for task in tasks), with this thread and, when the
    process has a spare CPU, one helper thread each claiming the next task
    that neither has taken; numpy's GEMMs and large copies release the GIL,
    so they overlap.  Each result lands in its task's slot, whichever
    thread ran it.  A thread whose task raises claims no more, and the
    call returns or raises only once neither thread runs; an exception
    on this thread wins over the helper's."""
    global _helpers
    results: list = [None] * len(tasks)
    claims = itertools.count()  # next() on a count is atomic under the GIL
    helper_error: list[BaseException] = []

    def work() -> None:
        for i in itertools.takewhile(lambda i: i < len(tasks), claims):
            results[i] = tasks[i]()

    def help_out() -> None:
        try:
            work()
        except BaseException as exc:
            helper_error.append(exc)

    with _helpers_lock:
        spare = spare_cpu()
        _helpers += spare
    try:
        helper = threading.Thread(target=help_out, name="botgrid-helper") if spare else None
        if helper is not None:
            try:
                helper.start()
            except RuntimeError:  # the process is at its thread or pid limit
                helper = None
        try:
            work()
        finally:
            if helper is not None:
                helper.join()
    finally:
        with _helpers_lock:
            _helpers -= spare
    if helper_error:
        raise helper_error[0]
    return tuple(results)
