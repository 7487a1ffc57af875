"""The second core: one worker thread, kept for the process's life, that
takes the odd indices of `_two_at_a_time`.

A thread started per call would get a fresh glibc arena whenever the last
worker's OS thread had not yet exited, and fault its arrays in again; one
thread reuses one arena.  The worker waits on a lock, not a queue: the
`queue` module costs a fresh import about 1 ms.
"""
from __future__ import annotations

import contextvars
import os
import threading

_busy = threading.Lock()  # held by the one call the worker serves
_worker = None  # [start, done, job], made with the thread on first use


def _serve(worker):
    start, done = worker[:2]
    while True:
        start.acquire()  # released by the caller once the job is set
        worker[2]()  # catches what fn raises, see _two_at_a_time
        worker[2] = None  # nothing of the call outlives it
        done.release()


def _forget_worker():
    # a forked child has no worker thread, and a lock held at the fork stays held
    global _busy, _worker
    _busy, _worker = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _two_at_a_time(fn, n: int) -> list:
    """[fn(j) for j in range(n)], with the odd j on the worker thread when
    the process may run on two cores and the worker is free.

    numpy's FFTs, random draws and array loops release the GIL, so two
    independent calls overlap.  Each result is stored at its own index, so
    the list has the serial loop's bits.  The worker runs in a copy of the
    caller's context, which carries np.errstate (a bare thread starts from
    numpy's defaults); an exception it raises is raised here once it is
    done, and a failure on either side stops the other at its next index.
    A call made while the worker serves another, from the worker itself or
    from inside fn, runs serially in the calling thread.
    """
    global _worker
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    if n < 2 or cores < 2 or not _busy.acquire(blocking=False):
        return [fn(j) for j in range(n)]
    try:
        if _worker is None:
            _worker = [threading.Lock(), threading.Lock(), None]
            _worker[0].acquire(), _worker[1].acquire()  # both start taken
            threading.Thread(target=_serve, args=(_worker,), name="specret-worker",
                             daemon=True).start()
        out = [None] * n
        failed = []

        def run(first):
            for j in range(first, n, 2):
                if failed:
                    return
                out[j] = fn(j)

        def odd():
            try:
                run(1)
            except BaseException as exc:  # handed to the caller, which raises it
                failed.append(exc)

        context = contextvars.copy_context()
        _worker[2] = lambda: context.run(odd)
        _worker[0].release()
        try:
            run(0)
        except BaseException:
            failed.append(None)  # stops the worker at its next index
            raise
        finally:
            _worker[1].acquire()  # the worker has left odd()
        if failed:
            raise failed[0]
        return out
    finally:
        _busy.release()
