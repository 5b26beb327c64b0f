"""Independent tasks spread over every CPU this process may run on.

`fan_out` calls zero-argument tasks and returns their results in task
order, whichever process ran them.  Workers are forked, so a task is a
plain closure over what the parent already holds: only its index goes
to a worker and only its (picklable) result comes back.  The parent is
one of the processes: forked workers take tasks from the front, the
parent takes them from the back, and a shared flag per task makes sure
that exactly one process runs it.

With one usable CPU (`taskset` can make it so), where `fork` is
unavailable, or in a process that already runs other threads (a forked
child would inherit their locks but not the threads), the tasks run
here one after the other.  Either way each task runs exactly once, so a
caller that folds the results in order gets the same answer from any
number of workers.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence, TypeVar

T = TypeVar("T")

# Set in each forked worker only: the tasks and claim flags of the
# fan_out that forked it.
_TASKS: Sequence[Callable[[], object]] = ()
_CLAIMED: Any = None


def _workers() -> int:
    """The CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _adopt(tasks: Sequence[Callable[[], object]], claimed: Any) -> None:
    global _TASKS, _CLAIMED
    _TASKS, _CLAIMED = tasks, claimed


def _claim(claimed: Any, index: int) -> bool:
    """Take task `index`; False if another process already has."""
    with claimed.get_lock():
        if claimed[index]:
            return False
        claimed[index] = 1
        return True


def _run(index: int) -> tuple[bool, object]:
    """(True, result) of task `index` in a worker; (False, None) if the
    parent took it first."""
    return (True, _TASKS[index]()) if _claim(_CLAIMED, index) else (False, None)


def fan_out(tasks: Sequence[Callable[[], T]]) -> list[T]:
    """The result of every task, in order.

    A task's exception reaches the caller with its own type.  A worker
    that dies raises `ChildProcessError`.  Every worker has exited when
    this returns or raises.
    """
    workers = min(_workers(), len(tasks))
    if workers > 1:
        import multiprocessing
        import threading

        if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
            workers = 1
    if workers < 2:
        return [task() for task in tasks]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    claimed = context.Array("b", len(tasks))
    # fork passes initargs by memory: the tasks are never pickled
    pool = ProcessPoolExecutor(workers - 1, mp_context=context,
                               initializer=_adopt, initargs=(tasks, claimed))
    try:
        futures = [pool.submit(_run, i) for i in range(len(tasks))]
        mine = {}
        for i in reversed(range(len(tasks))):
            if _claim(claimed, i):
                mine[i] = tasks[i]()
        results = []
        for i, future in enumerate(futures):
            ran, result = future.result()
            results.append(result if ran else mine[i])
        return results
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a worker process died: {exc}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
