"""Right-censored samples: generation and ordering with concomitant flags.

An observation is a pair ``(z, delta)`` where ``z`` is the observed minimum
of a lifetime and an independent censoring time, and ``delta`` is 1 when the
lifetime itself was observed (uncensored).  Estimators work on the sample
sorted ascending with each indicator travelling alongside its observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import HeavyTailModel
from .rng import stream

__all__ = ["SortedCensoredSample", "sort_censored", "censor", "generate_censored"]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SortedCensoredSample:
    """Ascending observations with concomitant censoring indicators.

    Attributes
    ----------
    z : ndarray
        Observed minima, sorted ascending, all positive.
    delta : ndarray
        0/1 indicators aligned with ``z`` (1 = uncensored).
    top_delta_prefix : ndarray
        ``top_delta_prefix[i-1]`` counts the uncensored observations among
        the ``i`` largest, i.e. the running sum of ``delta`` taken from the
        top of the sample downward.

    The private ``_*`` properties are the tail view the estimators read:
    arrays indexed from the top of the sample, each built on first use and
    cached, so an estimator pays only for the pieces it reads.  Instances
    are immutable (all arrays, cached ones included, are read-only) and can
    be shared freely across threads.
    """

    z: np.ndarray
    delta: np.ndarray
    top_delta_prefix: np.ndarray

    @property
    def n(self) -> int:
        return self.z.size

    @cached_property
    def _z_desc(self) -> np.ndarray:  # Z(n-i) at index i, contiguous
        return _read_only(np.ascontiguousarray(self.z[::-1]))

    @cached_property
    def _top_float(self) -> np.ndarray:
        return _read_only(self.top_delta_prefix.astype(float))

    @cached_property
    def _log_spacings(self) -> np.ndarray:  # lam_j = log(Z(n-j+1)/Z(n-j)) at index j-1
        zr = self._z_desc
        return _read_only(np.log(zr[:-1] / zr[1:]))

    @cached_property
    def _hill_sums(self) -> np.ndarray:
        # at index k-1, the top k log excesses over Z(n-k), telescoped: sum_{j<=k} j*lam_j
        return _read_only(np.cumsum(np.arange(1, self.n) * self._log_spacings))

    @cached_property
    def _km_desc(self) -> np.ndarray:  # product-limit survival 1 - F at Z(n-i), at index i
        factors = np.where(self.delta == 1, 1.0 - 1.0 / (self.n - np.arange(self.n, dtype=float)), 1.0)
        return _read_only(np.cumprod(factors)[::-1])


def sort_censored(z, delta) -> SortedCensoredSample:
    """Sort observations ascending, carrying the indicators along.

    Tied observations are ordered with the uncensored ones (delta = 1)
    first, the usual survival convention of deaths preceding censorings at
    equal times.
    """
    z = np.asarray(z, dtype=float).ravel()
    delta = np.asarray(delta).ravel()
    if z.size == 0:
        raise ValueError("sample must be nonempty")
    if z.size != delta.size:
        raise ValueError(f"z and delta lengths differ: {z.size} vs {delta.size}")
    if not np.all(np.isfinite(z)) or np.any(z <= 0):
        raise ValueError("all observations must be finite and > 0")
    # checked before the integer cast, which would truncate e.g. 0.5 to 0
    if not np.all((delta == 0) | (delta == 1)):
        raise ValueError("censoring indicators must be 0 or 1")
    delta = delta.astype(np.int64)
    order = np.lexsort((1 - delta, z))
    z_sorted = z[order]
    delta_sorted = delta[order]
    prefix = np.cumsum(delta_sorted[::-1])
    return SortedCensoredSample(*map(_read_only, (z_sorted, delta_sorted, prefix)))


def censor(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Pair a lifetime array with a censoring array: z = min, delta = 1{x <= y}."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.minimum(x, y), (x <= y).astype(np.int64)


def generate_censored(
    model_x: HeavyTailModel,
    model_y: HeavyTailModel,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` observations of ``model_x`` censored by ``model_y``.

    The lifetime and censoring draws come from two child streams spawned
    from ``rng``, so the pair is reproducible from the parent stream's key
    alone.  A lifetime that overflows to inf (or underflows to 0) raises
    ValueError naming ``model_x``; a censoring time that overflows to inf
    is kept, since it observes its lifetime.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng_x, rng_y = rng.spawn(2)
    x = model_x.sample(n, rng_x)
    if not np.all(np.isfinite(x) & (x > 0)):
        raise ValueError(f"{model_x!r} drew lifetimes outside (0, inf): its parameters are too extreme to simulate")
    y = model_y.sample(n, rng_y)
    return censor(x, y)


def _draw_sample(
    model_x: HeavyTailModel, model_y: HeavyTailModel, n: int, seed: int, r: int, complete_data: bool = False
) -> SortedCensoredSample:
    """Replicate r's sample from stream (seed, r): all lifetimes observed, or censored."""
    rng = stream(seed, r)
    if complete_data:
        return sort_censored(model_x.sample(n, rng), np.ones(n, dtype=np.int64))
    return sort_censored(*generate_censored(model_x, model_y, n, rng))
