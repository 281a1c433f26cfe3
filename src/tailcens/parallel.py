"""Ordered maps over forked processes: replicate blocks, and parts of a long kernel path, both cut by ``_cuts``.

A forked part returns only its results, so a function that adds into the caller's state runs with ``workers=1``.
"""

import os
import pickle
import threading
from bisect import bisect_left

from .rules import _check_workers

__all__ = ["replicate_map", "fork_map"]


def _fork_parts(limit: int) -> int:
    """How many processes, at most ``limit``, work may be split over: one per CPU in the affinity mask.

    It is 1 (run in the caller alone) where ``os.fork`` is missing or another thread is alive: forking that is unsafe.
    """
    if limit < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(limit, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _cuts(count: int, limit: int, running=None, least: int = 0) -> list[range]:
    """Contiguous, non-empty ranges of 0..count-1, in order, at equal work over ``_fork_parts(min(limit, count))``.

    ``running()`` gives the running work, entry i that of items 0..i, or None one unit an item (equal counts).  Over
    ``parts`` processes, range j < parts ends with the first item whose running work reaches total * j // parts.
    One range where the processes are one, asked first so that ``running`` is not called, or below ``least`` work.
    """
    parts = _fork_parts(min(limit, count))
    if parts > 1:
        work = range(1, count + 1) if running is None else running()
        if work[-1] >= least:
            ends = [bisect_left(work, work[-1] * j // parts) + 1 for j in range(1, parts)] + [count]
            return [range(lo, hi) for lo, hi in zip([0, *ends], ends) if lo < hi]
    return [range(count)]


def replicate_map(fn, count: int, workers: int = 1) -> list:
    """``[fn(r) for r in range(count)]`` for any ``workers``, each range of :func:`_cuts` run in index order.

    The first range runs here and each other in a forked child (:func:`fork_map`).  ``censored._replicates`` maps it
    over replicate blocks.
    """
    cuts = _cuts(count, _check_workers(workers))
    return [value for part in fork_map(lambda cut: [fn(r) for r in cut], cuts) for value in part]


def fork_map(fn, parts) -> list:
    """``[fn(part) for part in parts]``, ``parts[0]`` run here and each other part in an ``os.fork`` child.

    Call it with no other thread alive.  A child pickles its result or exception into a pipe and leaves with
    ``os._exit``, so no stdio buffer or atexit handler runs twice.  Each child is reaped after its pipe is read
    (or closed, if ``parts[0]`` raises), and its exception is raised here with its type.
    """
    pids, pipes = [], []  # each child, and the read end of its pipe
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            with os.fdopen(w, "wb") as out:  # the caller's write end closes once forked, or if the fork fails
                pids.append(os.fork())
                if pids[-1] == 0:  # the child leaves through os._exit, never into the caller's frames
                    try:
                        pipes[-1].close()  # the caller's end alone: its closing stops this child's write
                        try:
                            payload = fn(part), None
                        except Exception as exc:  # raised again in the caller
                            payload = None, exc
                        pickle.dump(payload, out)
                        out.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
        results = [fn(parts[0])]
        sent = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, data, status in zip(pids, sent, statuses):
        if status:
            raise ChildProcessError(f"the part forked to process {pid} ended with wait status {status}")
        value, exc = pickle.loads(data)  # bytes our own child wrote
        if exc is not None:
            raise exc
        results.append(value)
    return results
