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

    ``censored._replicates`` maps it over replicate blocks; its docstring
    holds the block contract.
    """
    _check_workers(workers)
    return [fn(r) for r in range(count)]
