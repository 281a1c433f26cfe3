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
rule picks k_min.  The lifting runs level by level, widest first, and at
each level for every k at once, ``CHUNK`` ks per numpy pass, with the bits
of a loop over k (``tests/oracle.py``): a node's sums after T entries add
its members' values one at a time in entry order, as ``np.add.accumulate``
along a (node, member) grid does (the loop's leading 0.0 only signs a zero
sum, and a k's sums start at +0.0, so they take the same bits); a node's
count is a ``searchsorted`` in one ascending int64 run of keys
node * n + entry, which pass 2**31 from about n = 46 000, over int32 ranks;
each k adds the nodes it steps over in the loop's order, and the totals are
a sequential ``np.cumsum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .censored import SortedCensoredSample, _read_only
from .estimators import CHUNK, min_valid_k, sweep
from .rules import _check_k, _check_theta

__all__ = ["KSelection", "reiss_thomas_k"]


def _scan(path_ks: np.ndarray, path: np.ndarray, theta: float, k_min: int) -> np.ndarray:
    """crit(k) for k = k_min..path_ks[-1], NaN where fewer than two path terms are defined; in place where it can."""
    defined = ~np.isnan(path)
    size = int(np.count_nonzero(defined))
    w, wv = at = np.empty((2, size))  # w and w * v of each term, by entry index
    w[:] = path_ks[defined]
    w **= theta  # the scalar power path of path_ks.astype(float) ** theta: 0.5 is numpy's sqrt
    center = np.compress(defined, path, out=wv)[0]
    wv -= center  # v, centered: see the module docstring
    order = np.argsort(wv, kind="stable").astype(np.int32)  # order[r]: entry index of the term of value rank r
    wv *= w
    terms = np.cumsum(defined, dtype=np.int32)
    ask = (path_ks >= k_min) & (terms >= 2)  # not below the grid, nor a prefix whose deviation sum is 0
    terms = terms[ask]
    # binary lifting to the last rank before the lower median, summing the trees on the way
    pos, need, le = np.zeros(terms.size, dtype=np.int32), (terms - 1) // 2 + 1, np.zeros((2, terms.size))
    step = 1 << (size.bit_length() - 1)
    while step:
        # node j of this level holds the ranks 2*j*step .. 2*j*step + step - 1: row j, its members' entries in order
        run = np.lib.stride_tricks.sliding_window_view(order, step)[:: 2 * step].astype(np.int64)
        run.sort(axis=1)
        sums = np.take(at, run, axis=1)  # each node's running sums after 1 .. step entries
        np.add.accumulate(sums, axis=2, out=sums)
        run += np.arange(0, run.shape[0] * size, size)[:, None]  # one ascending run, searched for every k at once
        run = run.ravel()
        for lo in range(0, terms.size, CHUNK):  # each k adds the nodes it steps over in the loop's order
            q = np.flatnonzero(pos[lo : lo + CHUNK] <= size - step) + lo
            node = pos[q] // (2 * step)
            count = np.searchsorted(run, node * np.int64(size) + terms[q]) - node * step
            go = count < need[q]
            q, node, count = q[go], node[go], count[go]
            pos[q] += step
            need[q] -= count
            go = count > 0  # adding the 0.0 of no entries leaves le, never -0.0, as it is
            le[:, q[go]] += sums[:, node[go], count[go] - 1]
        del run, sums  # this level's arrays go before the next level's come
        step >>= 1
    pos = order[pos]  # each k's median entry
    del order, need
    le += at[:, pos]
    median = path[np.flatnonzero(defined)[pos]] - center
    np.cumsum(at, axis=1, out=at)  # W and A; 0.0 plus a row's first term, > 0 or +0.0, is that term: the loop's bits
    (w_le, wv_le), (w_total, wv_total), ks = le, at[:, terms - 1], path_ks[ask]
    del at, w, wv, pos, terms
    # (m * W<= - A<=) + ((A - A<=) - m * (W - W<=)), the totals overwritten on the way: the same bits
    wv_total -= wv_le
    w_total -= w_le
    w_total *= median
    wv_total -= w_total
    criterion = np.full(path_ks[-1] - k_min + 1, np.nan)
    criterion[ks - k_min] = (median * w_le - wv_le + wv_total) / ks
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
    criterion = _scan(path_ks, path, theta, k_min)
    if np.all(np.isnan(criterion)):
        raise ValueError("no candidate k has at least two defined path estimates")
    best = int(np.nanargmin(criterion))  # first minimum: ties go to smaller k
    k_grid = _read_only(np.arange(k_min, k_max + 1))
    return KSelection(int(k_grid[best]), float(theta), estimator_id, k_grid, _read_only(criterion))
