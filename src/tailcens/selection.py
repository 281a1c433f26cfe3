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

The scan is O(n log n).  Defined terms enter, in k order, Fenwick trees
over their value ranks that sum each term's count, its weight w = i**theta
and w * (gamma(i) - c); binary lifting on the count tree finds the lower
median m and the sums W<= and A<= up to it, and with the totals W and A and
m' = m - c, k * crit(k) = (m' * W<= - A<=) + ((A - A<=) - m' * (W - W<=)).
The centering c is the first defined term: without it the brackets would
subtract sums of raw estimates, whose rounding can exceed the deviations on
a nearly flat path; with it, a constant path gives 0 at every k and the tie
rule picks k_min.  The lifting runs for every k at once, one numpy pass per
tree level, widest first, with the bits of a loop over k (``tests/oracle.py``):
a node's sums after T entries add its members' values one at a time in entry
order after 0.0, as ``np.add.accumulate`` along a (node, member) grid does;
its count is a ``searchsorted``; each k adds the nodes it steps over in the
loop's order, and the totals are a sequential ``np.cumsum``.
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
    at = np.stack((weights, weights * values))  # w and w * v of each term, by entry index
    order = np.argsort(values, kind="stable")  # order[r]: entry index of the term of 0-based value rank r
    size, entered = order.size, np.cumsum(~np.isnan(path))
    ask = (path_ks >= k_min) & (entered >= 2)  # not below the grid, nor a prefix whose deviation sum is 0
    ks, terms = path_ks[ask], entered[ask]
    # binary lifting to the last rank before the lower median, summing the trees on the way
    pos, need, le = np.zeros(ks.size, dtype=np.int64), (terms - 1) // 2 + 1, np.zeros((2, ks.size))
    step = 1 << (size.bit_length() - 1)
    while step:
        # node j of this level holds the ranks 2*j*step .. 2*j*step + step - 1: row j, its members' entries in order
        nodes = np.arange((size // step + 1) // 2)[:, None]
        entries = np.sort(order[2 * step * nodes + np.arange(step)], axis=1)
        sums = np.add.accumulate(np.concatenate((np.zeros((2, nodes.size, 1)), at[:, entries]), axis=2), axis=2)
        q = np.flatnonzero(pos + step <= size)
        node = pos[q] // (2 * step)
        count = np.searchsorted((entries + size * nodes).ravel(), node * size + terms[q]) - node * step
        go = count < need[q]
        q, node, count = q[go], node[go], count[go]
        pos[q] += step
        need[q] -= count
        le[:, q] += sums[:, node, count]
        step >>= 1
    le += at[:, order[pos]]
    totals = np.cumsum(np.concatenate((np.zeros((2, 1)), at), axis=1), axis=1)[:, terms]  # W and A at each k
    (w_le, wv_le), (w_total, wv_total), median = le, totals, values[order[pos]]
    criterion = np.full(path_ks[-1] - k_min + 1, np.nan)
    criterion[ks - k_min] = ((median * w_le - wv_le) + ((wv_total - wv_le) - median * (w_total - w_le))) / ks
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
    if n < 4:  # 2 <= k_min < k_max <= n - 1 has no solution
        raise ValueError(f"threshold selection needs a sample of n >= 4, got n = {n}")
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
