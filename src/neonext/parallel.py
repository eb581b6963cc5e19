"""One call's work, cut into pieces that run on the CPUs this process may use.

numpy's ufuncs and BLAS calls, and ``scipy.special.ndtr``, release the GIL
while they work, so pieces of one large call run at once in plain threads.
``model.GeluLayer`` cuts its elements into pieces, and ``neocell``'s kernel
the channels of each shift run; both start, join and re-raise through
``run_pieces``.  The caller waits for the slowest piece, so on a host where
another process holds the second CPU a split call can be slower than one
thread.
"""

from __future__ import annotations

import contextvars
import os
import threading

# Most pieces one call runs in, the caller's included.  The splits were
# measured on 2 vCPUs only; more threads would each cost a thread start per
# call and were never timed, and the affinity mask does not show a cgroup's
# CPU quota.
MAX_PIECES = 2


def cpu_pieces() -> int:
    """The pieces one call may run in: one per CPU in this process's
    affinity mask, at most ``MAX_PIECES``."""
    return min(len(os.sched_getaffinity(0)), MAX_PIECES)


def run_pieces(work, pieces: int) -> None:
    """``work(i)`` for each i in range(pieces).  The caller runs piece 0; a
    thread started here runs each other one in a copy of the caller's
    context (numpy's error state is a context variable).  Every thread is
    joined before this returns, and then the error of the first piece that
    failed is raised."""
    errors = [None] * pieces

    def helper(i):
        try:
            work(i)
        except BaseException as exc:
            errors[i] = exc

    threads = []
    try:
        for i in range(1, pieces):
            t = threading.Thread(target=contextvars.copy_context().run, args=(helper, i))
            t.start()
            threads.append(t)
        work(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
