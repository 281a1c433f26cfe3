"""Ordered map over replicate blocks, run on the calling thread.

``workers`` is checked but has no effect: threads only slowed replicates,
whose small numpy steps serialize on the interpreter lock.
"""

from numbers import Integral

__all__ = ["replicate_map"]


def _check_workers(workers) -> int:
    """Return ``workers`` if it is an integer >= 1 (a bool is not); raise ValueError otherwise."""
    if isinstance(workers, bool) or not isinstance(workers, Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return workers


def replicate_map(fn, count: int, workers: int = 1) -> list:
    """Apply ``fn`` to 0..count-1 in index order on the calling thread.

    The replicate engines (``gof_pvalue``, ``run_bias_rmse``,
    ``run_variance_check``) map over blocks: ``count`` is the number of
    blocks of max(1, 2**14 // n) consecutive replicates, and ``fn(b)``
    returns one result per replicate of block b, row by row, which the
    caller concatenates in order.  Since every replicate draws from its own
    stream (seed, replicate), the split into blocks changes no output.
    """
    _check_workers(workers)
    return [fn(r) for r in range(count)]
