"""How many CPUs this process may keep busy, and `in_parallel`, the one
way the package keeps a second one busy.

An `in_parallel` call's helper thread lives for the call, so no thread
outlives the call that started it, and a process may fork between calls.
For the length of the call its helper counts as busy, process-wide, so a
call made inside a task, or by another thread meanwhile, sees one CPU
fewer: on two CPUs, a conv inside one of cross_validate's fold threads
(see training) runs both of its tasks on its own thread.  A call with
one task, or that finds no spare CPU, or whose thread cannot be started,
runs every task itself, in order.  A task that raises, or a Ctrl-C,
ends the call once the task the other thread is running returns.
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
    """tuple(task() for task in tasks), with this thread and, when there
    are two tasks or more and the process has a spare CPU, one helper
    thread each claiming the next task that neither has taken; numpy's
    GEMMs and large copies release the GIL, so they overlap.  Each result
    lands in its task's slot, whichever thread ran it.  Once a task raises
    (or an interrupt lands on this thread), neither thread claims another
    task: only the task the other thread is running finishes.  The call
    returns or raises only once neither thread runs, and an exception on
    this thread wins over the helper's."""
    global _helpers
    results: list = [None] * len(tasks)
    claims = itertools.count()  # next() on a count is atomic under the GIL
    raised: dict[int, BaseException] = {}  # by slot: 0 is this thread, 1 the helper

    def work(slot: int) -> None:
        try:
            for i in itertools.takewhile(lambda i: i < len(tasks) and not raised, claims):
                results[i] = tasks[i]()
        except BaseException as exc:  # raised again below, once neither thread runs
            raised[slot] = exc

    with _helpers_lock:
        spare = len(tasks) > 1 and spare_cpu()
        _helpers += spare
    try:
        helper = threading.Thread(target=work, args=(1,), name="botgrid-helper") if spare else None
        if helper is not None:
            try:
                helper.start()
            except RuntimeError:  # the process is at its thread or pid limit
                helper = None
        work(0)
        if helper is not None:
            helper.join()
    finally:
        with _helpers_lock:
            _helpers -= spare
    if raised:
        raise raised[min(raised)]
    return tuple(results)
