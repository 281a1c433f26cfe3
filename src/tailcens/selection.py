"""Adaptive choice of the threshold count by path stability.

The procedure scans the estimate path gamma(i) over thresholds i and picks
the k in [k_min, k_max] minimizing the averaged weighted absolute deviation
of the path from its running median:

    crit(k) = (1/k) * sum_{i <= k}  i**theta * |gamma(i) - median(path up to k)|

with 0 <= theta <= 0.5 (default 0.3).  The sum always starts at the
estimator's smallest defined threshold; thresholds where the estimate does
not exist are skipped, and a candidate k needs at least two defined path
terms (a one-term deviation sum is identically zero and would always win).
Ties go to the smaller k, and the running median of an even-sized set is
its lower middle element, so the whole selection is deterministic.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from .censored import SortedCensoredSample
from .estimators import _check_k, min_valid_k, sweep
from .rules import _is_number

__all__ = ["KSelection", "reiss_thomas_k"]


def _check_theta(theta):
    """Return ``theta`` if it is a number in [0, 0.5]; raise ValueError otherwise."""
    if not (_is_number(theta) and 0.0 <= theta <= 0.5):
        raise ValueError(f"theta must be a number in [0, 0.5], got {theta!r}")
    return theta


@dataclass(frozen=True)
class KSelection:
    """Outcome of the adaptive threshold scan."""

    k_star: int
    theta: float
    estimator_id: str
    k_grid: np.ndarray
    criterion_values: np.ndarray


def reiss_thomas_k(
    s: SortedCensoredSample,
    estimator_id: str = "new",
    theta: float = 0.3,
    k_min: int = 2,
    k_max: int | None = None,
) -> KSelection:
    """Pick the threshold count minimizing the path-stability criterion."""
    n = s.n
    _check_theta(theta)
    _check_k(k_min, n, lo=2, hi=n - 2, name="k_min")
    k_max = n - 1 if k_max is None else _check_k(k_max, n, lo=k_min + 1, name="k_max")

    start = min_valid_k(estimator_id)
    path_ks = np.arange(start, k_max + 1)
    path = sweep(s, estimator_id, path_ks)
    defined = ~np.isnan(path)
    if not defined.any():
        raise ValueError(f"estimator {estimator_id!r} is undefined at every threshold")
    weights = np.where(defined, path_ks.astype(float) ** theta, 0.0)
    deviations = np.where(defined, path, 0.0)

    k_grid = np.arange(k_min, k_max + 1)
    criterion = np.full(k_grid.shape, np.nan)
    sorted_path: list[float] = []
    defined_count = 0
    for j, k in enumerate(path_ks):
        if defined[j]:
            insort(sorted_path, path[j])
            defined_count += 1
        if k < k_min:
            continue
        if defined_count < 2:
            continue  # degenerate prefix: deviation sum is identically 0
        median = sorted_path[(defined_count - 1) // 2]
        upto = j + 1
        # zero weights silence the undefined positions
        total = float(np.sum(weights[:upto] * np.abs(deviations[:upto] - median)))
        criterion[k - k_min] = total / k

    if np.all(np.isnan(criterion)):
        raise ValueError("no candidate k has at least two defined path estimates")
    best = int(np.nanargmin(criterion))  # first minimum: ties go to smaller k
    criterion.setflags(write=False)
    k_grid.setflags(write=False)
    return KSelection(
        k_star=int(k_grid[best]),
        theta=float(theta),
        estimator_id=estimator_id,
        k_grid=k_grid,
        criterion_values=criterion,
    )
