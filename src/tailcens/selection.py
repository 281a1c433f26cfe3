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

The scan is one O(n log n) pass over the path in k order.  Each defined
term enters Fenwick trees over the value ranks that sum its count, its
weight w = i**theta and w * (gamma(i) - c); binary lifting on the count tree
finds the lower median m and the sums W<= and A<= over the ranks up to it,
and with the totals W and A and m' = m - c,
k * crit(k) = (m' * W<= - A<=) + ((A - A<=) - m' * (W - W<=)).  The
centering c is the first defined path term.  Without it the brackets would
subtract sums of the raw estimates, whose rounding can exceed the
deviations on a nearly flat path and so pick k; with it, an exactly
constant path gives 0 at every k, and the tie rule picks k_min.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .estimators import min_valid_k, sweep
from .rules import _check_k, _check_theta

if TYPE_CHECKING:
    from .censored import SortedCensoredSample

__all__ = ["KSelection", "reiss_thomas_k"]


def _scan(path_ks: np.ndarray, path: np.ndarray, theta: float, k_min: int) -> np.ndarray:
    """crit(k) for k = k_min..path_ks[-1], NaN where fewer than two path terms are defined."""
    defined = np.flatnonzero(~np.isnan(path))
    values = path[defined] - path[defined[0]]  # centered: see the module docstring
    weights = path_ks[defined].astype(float) ** theta
    order = np.argsort(values, kind="stable")
    rank = np.zeros(path.size, dtype=np.int64)  # 1-based value rank of each defined term, 0 where undefined
    rank[defined[order]] = np.arange(1, order.size + 1)
    value_at, w_at, wv_at = values[order].tolist(), weights[order].tolist(), (weights * values)[order].tolist()
    size = order.size
    count, w_tree, wv_tree = [0] * (size + 1), [0.0] * (size + 1), [0.0] * (size + 1)
    terms, w_total, wv_total = 0, 0.0, 0.0
    criterion = np.full(path_ks[-1] - k_min + 1, np.nan)
    for k, r in zip(path_ks.tolist(), rank.tolist()):
        if r:
            w, wv = w_at[r - 1], wv_at[r - 1]
            terms, w_total, wv_total = terms + 1, w_total + w, wv_total + wv
            while r <= size:
                count[r] += 1
                w_tree[r] += w
                wv_tree[r] += wv
                r += r & -r
        if k < k_min or terms < 2:
            continue  # below the grid, or a degenerate prefix whose deviation sum is identically 0
        # binary lifting to the last rank before the lower median, summing the trees on the way
        pos, need, w_le, wv_le = 0, (terms - 1) // 2 + 1, 0.0, 0.0
        step = 1 << (size.bit_length() - 1)
        while step:
            if pos + step <= size and count[pos + step] < need:
                pos += step
                need -= count[pos]
                w_le += w_tree[pos]
                wv_le += wv_tree[pos]
            step >>= 1
        median = value_at[pos]
        w_le += w_at[pos]
        wv_le += wv_at[pos]
        criterion[k - k_min] = ((median * w_le - wv_le) + ((wv_total - wv_le) - median * (w_total - w_le))) / k
    return criterion


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
    if np.isnan(path).all():
        raise ValueError(f"estimator {estimator_id!r} is undefined at every threshold")
    k_grid = np.arange(k_min, k_max + 1)
    criterion = _scan(path_ks, path, theta, k_min)
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
