"""Ordered maps: replicate blocks on the calling thread, parts of a long kernel path over forked processes.

``workers`` is checked but has no effect: threads only slowed replicates,
whose small numpy steps serialize on the interpreter lock.
"""

import os
import pickle

from .rules import _check_workers

__all__ = ["replicate_map", "fork_map"]


def replicate_map(fn, count: int, workers: int = 1) -> list:
    """Apply ``fn`` to 0..count-1 in index order on the calling thread.

    ``censored._replicates`` maps it over replicate blocks; its docstring
    holds the block contract.
    """
    _check_workers(workers)
    return [fn(r) for r in range(count)]


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
