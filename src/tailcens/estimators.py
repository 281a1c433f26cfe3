"""Point estimators of the lifetime extreme value index under censoring.

All operations act on a :class:`~tailcens.censored.SortedCensoredSample`
``s`` and a threshold count ``k`` (number of top order statistics used) and
depend on the data only through ratios of order statistics, so they are
scale invariant.  In the formulas below, ``Z(m)`` is the m-th ascending
order statistic, ``t = Z(n-k)`` the threshold, ``S(i)`` the number of
uncensored observations among the top ``i``.

* ``hill``:          mean of log(Z(n-i+1)/t), i = 1..k, the minimum's index.
* ``p_hat``:         S(k)/k, the fraction of uncensored top observations.
* ``efg``:           hill / p_hat, the censoring-adjusted lifetime index.
* ``ww1``/``ww2``:   product-limit weighted log-spacing sums.
* ``new_weighted``:  (1/k) * sum_{i<k} i*log(Z(n-i)/t) / (S(i) + i/k),
  a randomly weighted sum whose denominators are bounded below by the i/k
  term, so the value is always finite.

Estimator ids used across the CLI and the Monte Carlo harness:
``hill | efg | ww1 | ww2 | new``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count
from typing import TYPE_CHECKING

import numpy as np

from . import parallel
from .rules import _check_count, _check_fit, _check_k, _check_level, _float_array, _number

if TYPE_CHECKING:
    from .censored import SortedCensoredSample

__all__ = [
    "UndefinedEstimateError", "EstimateReport", "KaplanMeierCurve", "ESTIMATOR_IDS", "hill", "p_hat", "efg",
    "kaplan_meier", "ww1", "ww2", "new_weighted", "new_terms", "weighted_functional", "asymptotic_ci", "attached_ci",
    "estimate_report", "evaluate", "sweep", "min_valid_k",
]


class UndefinedEstimateError(ValueError):
    """The estimator is undefined at the requested threshold count."""


@dataclass(frozen=True)
class KaplanMeierCurve:
    """Product-limit estimate of the lifetime cdf at each order statistic."""

    support: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class EstimateReport:
    """A point estimate with its context, ready for tabulation."""

    estimator_id: str
    k: int
    value: float
    p_hat: float
    std_err: float | None = None
    ci: tuple[float, float] | None = None
    ci_level: float | None = None


def hill(s: SortedCensoredSample, k: int) -> float:
    """Average log-excess of the top k observations over the threshold."""
    return _at(s, k, "hill")


def p_hat(s: SortedCensoredSample, k: int) -> float:
    """Fraction of uncensored observations among the top k."""
    return float(_p_hat_path(s, _check_k(k, s.n, hi=s.n)))


def efg(s: SortedCensoredSample, k: int) -> float:
    """Censoring-adjusted Hill estimate: hill(s, k) / p_hat(s, k)."""
    return _at(s, k, "efg")


def kaplan_meier(s: SortedCensoredSample) -> KaplanMeierCurve:
    """Product-limit estimate of the lifetime cdf on the sample's support."""
    return KaplanMeierCurve(support=s.z, values=1.0 - s._km_desc[::-1])


def ww1(s: SortedCensoredSample, k: int) -> float:
    """Product-limit weighted sum of consecutive log spacings."""
    return _at(s, k, "ww1")


def ww2(s: SortedCensoredSample, k: int) -> float:
    """Product-limit weighted sum of log excesses of uncensored top points."""
    return _at(s, k, "ww2")


def new_weighted(s: SortedCensoredSample, k: int) -> float:
    """Randomly weighted log-excess sum with censoring-count denominators.

    The denominators S(i) + i/k stay >= i/k > 0, so the value is finite for
    every valid sample.  Note the flip side of the guard: when no uncensored
    observation ranks above position i, the i-th term is damped only by i/k
    and can dominate the sum, which inflates the estimate under censoring.
    """
    return _at(s, k, "new")


def new_terms(s: SortedCensoredSample, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k - 1 terms of :func:`new_weighted` by rank i, whose ``np.sum`` is its value bit for bit, and a mask.

    The mask marks the guard-floor terms: S(i) = 0, so the weight is exactly 1, and they inflate the estimate.
    """
    _check_k(k, s.n, lo=2)
    _, weights, logs = next(_new_factors(s, np.array([k])))
    return weights * logs, s.top_delta_prefix[..., : k - 1] == 0


def weighted_functional(s: SortedCensoredSample, k: int, g=None, alpha: float = 1.0) -> float:
    """Weighted power-of-log functional generalizing :func:`new_weighted`.

    ``g`` is a nonnegative weight function on (0, 1) (``None`` means the
    constant 1) and ``alpha`` a positive exponent; with ``g = None`` it is
    at most 170.624, above which the normalizer Gamma(alpha + 1) overflows.
    The sum of weighted log excesses is normalized by
    ``int_0^1 g(x) * (-log x)**alpha dx``; with
    ``g = None`` and ``alpha = 1`` the normalizer is 1 and the value reduces
    exactly to :func:`new_weighted`.
    """
    _check_k(k, s.n, lo=2)
    if not (number := _number(alpha)) > 0:
        raise ValueError(f"alpha must be a number > 0, got {alpha!r}")
    alpha = number
    if g is None:
        try:
            norm = math.gamma(alpha + 1.0)
        except OverflowError:
            norm = math.inf
        if norm == math.inf:  # Gamma(inf) is inf, without an OverflowError
            raise ValueError(f"alpha must lie in (0, 170.624], where Gamma(alpha + 1) is finite, got {alpha}")
        gvals = 1.0
    else:
        gvals = _float_array([g(t) for t in np.arange(1, k) / (k + 1)], "g's values", ndim=1)  # True is no weight
        if np.any(gvals < 0) or not np.all(np.isfinite(gvals)):
            raise ValueError("weight function must be finite and nonnegative on (0, 1)")
        from scipy import integrate  # imported on use: scipy is slow to load
        norm, _ = integrate.quad(lambda x: g(x) * (-np.log(x)) ** alpha, 0.0, 1.0, epsabs=1e-10)
        if not np.isfinite(norm) or norm <= 0.0:
            raise ValueError(f"normalizer integral must be finite and > 0, got {norm}")
    _, weights, logs = next(_new_factors(s, np.array([k])))
    # "* 1.0" and "** 1.0" are exact: g = None, alpha = 1 give the new kernel's bits
    return float(np.sum(weights * gvals * logs**alpha)) / norm


def asymptotic_ci(gamma1_hat: float, p: float, k: int, level: float = 0.95) -> tuple[float, float, float]:
    """Normal-approximation interval for the weighted estimator.

    The limiting variance of sqrt(k) times the estimation error is
    (9 - 8p) * gamma1**2 / p, treated as centered (no bias correction).
    Returns (std_err, lower, upper) with the lower end truncated at 0.
    """
    gamma1_hat, p = _check_fit(gamma1_hat, p)
    k = _check_count(k, 1, "k")
    level = _check_level(level)
    from statistics import NormalDist  # imported on use: only intervals need it

    std_err = gamma1_hat * math.sqrt((9.0 - 8.0 * p) / p) / math.sqrt(k)
    zq = NormalDist().inv_cdf(0.5 * (1.0 + level))
    return std_err, max(0.0, gamma1_hat - zq * std_err), gamma1_hat + zq * std_err


def attached_ci(estimator_id: str, value: float, p: float, k: int, level: float | None):
    """``(std_err, lower, upper)`` for ``new`` where :func:`asymptotic_ci` applies, else None."""
    if level is None:
        return None
    level = _check_level(level)  # a given level is checked whatever the estimator and the estimate
    # none where p = 0 or value is NaN (undefined), 0 (top k tie the threshold) or inf; the fit rule gets the rest
    if estimator_id != "new" or p == 0 or value != value or value in (0, math.inf):
        return None
    return asymptotic_ci(value, p, k, level)


def min_valid_k(estimator_id: str) -> int:
    """Smallest threshold count at which the estimator is defined."""
    return _PATHS[_checked_id(estimator_id)][1]


def _checked_id(estimator_id: str) -> str:
    """Return ``estimator_id`` if it names an estimator; raise ValueError otherwise."""
    if estimator_id not in _PATHS:
        raise ValueError(f"unknown estimator {estimator_id!r} (expected one of {'|'.join(ESTIMATOR_IDS)})")
    return estimator_id


def evaluate(s: SortedCensoredSample, k: int, estimator_id: str) -> float:
    """Evaluate the estimator named by ``estimator_id`` at threshold ``k``."""
    return _at(s, k, _checked_id(estimator_id))


def estimate_report(
    s: SortedCensoredSample,
    k: int,
    estimator_id: str,
    ci_level: float | None = None,
) -> EstimateReport:
    """Evaluate one estimator at one threshold and assemble a report, with :func:`attached_ci`."""
    k = _check_k(k, s.n, min_valid_k(estimator_id))
    value = evaluate(s, k, estimator_id)
    p = p_hat(s, k)
    interval = attached_ci(estimator_id, value, p, k, ci_level)
    return EstimateReport(
        estimator_id=estimator_id,
        k=k,
        value=value,
        p_hat=p,
        std_err=interval[0] if interval else None,
        ci=interval[1:] if interval else None,
        ci_level=ci_level if interval else None,
    )


def _ratio_or_nan(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.full(num.shape, np.nan), where=den > 0)


# Path kernels, one per estimator: they read the tail view at thresholds ks
# already checked to lie in [min_valid_k, n-1], give NaN where the estimate
# does not exist, and each value depends on its own k alone.  They work along
# the last axis, so the same code reads one sample, giving shape ks.shape, and
# a block of replicate samples, giving one such row per sample.


def _hill_path(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    return s._hill_sums[..., ks - 1] / ks


def _p_hat_path(s: SortedCensoredSample, ks) -> np.ndarray:
    return s.top_delta_prefix[..., ks - 1] / ks  # S(k)/k, the one read of it; ks one integer or an array


def _efg_path(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    return _ratio_or_nan(_hill_path(s, ks), _p_hat_path(s, ks))


def _ww1_path(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    surv = s._km_desc
    return _ratio_or_nan(np.cumsum(surv[..., :-1] * s._log_spacings, axis=-1)[..., ks - 1], surv[..., ks])


def _ww2_path(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    # each log excess over the threshold telescopes into spacings; swapping
    # the two sums weights lam_j by the running sum of the first j terms
    surv = s._km_desc
    running = np.cumsum(surv[..., :-1] * s.delta[..., ::-1][..., :-1] / np.arange(1, s.n), axis=-1)
    return _ratio_or_nan(np.cumsum(s._log_spacings * running, axis=-1)[..., ks - 1], surv[..., ks])


CHUNK = 4096  # thresholds at once in a per-k loop or search, so its temporaries and Python scalars stay small
_SPLIT_VALUES = 2**24  # terms, sum(k - 1) times rows, from which _new_path splits over the CPUs


def _new_path(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    # O(k) terms per k: a long path is cut at equal sum(k - 1) times rows (parallel._cuts), each part run by
    # _new_loop in a forked process.  A part's first k takes a fresh log row: the bits of the serial loop's reuse
    cuts = [range(1)] if ks.size == 1 else parallel._cuts(  # a single read has nothing to cut
        ks.size, ks.size, lambda: np.cumsum(ks - 1) * math.prod(s.z.shape[:-1]), _SPLIT_VALUES)
    if len(cuts) == 1:
        return _new_loop(s, ks)
    parts = [ks[cut.start : cut.stop] for cut in cuts]
    return np.concatenate(parallel.fork_map(lambda part: _new_loop(s, part), parts), -1)


def _new_loop(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    # not separable in k: each threshold's terms are multiplied and summed in the buffers _new_factors fills
    out = np.empty(s.z.shape[:-1] + ks.shape)
    for j, weights, logs in _new_factors(s, ks):
        out[..., j] = np.add.reduce(np.multiply(weights, logs, weights), -1)
    return out


def _new_factors(s: SortedCensoredSample, ks: np.ndarray):
    """Yield ``(j, weights, logs)`` per threshold ``ks[j]``: x/(S(i) + x), x = i/k, and log(Z(n-i)/Z(n-k)), i < k.

    These are new's two factors over all rows of a block, one step of five
    ufunc calls a threshold into views of buffers made once per call (sized
    to a single read's k), which the caller may overwrite and the next step
    refills.  The log of the ratio matches the tail curve's breakpoints bit
    for bit, and ``weights`` is contiguous, the layout np.sum sees.
    The log row depends on k only through the threshold t, so a path takes it
    anew only where t moved in some row; while t repeats, Z(n-i) = t between
    the two ks (rows are sorted), and those entries are log(t/t) = +0.0.
    """
    zr, top, lead, m = s._z_desc, s._top_float, s.z.shape[:-1], int(ks[0] if ks.size == 1 else ks.max()) - 1
    rows, filled, ranks, logs = math.prod(lead), 0, np.arange(1.0, m + 1), np.empty(lead + (m,))
    if ks.size == 1:  # one fresh k: no tie scan, its ranks divided in place
        thresholds, fresh, x, flat = ks.tolist(), (True,), ranks, np.empty(rows * m)
    else:  # Python scalars for CHUNK thresholds at a time; ks[0] is fresh, then each k where t moved in some row
        thresholds = chain.from_iterable(ks[lo : lo + CHUNK].tolist() for lo in range(0, ks.size, CHUNK))
        moved = (zr[..., ks[lo : lo + CHUNK + 1]] for lo in range(0, ks.size, CHUNK))  # a chunk's ks and the next
        fresh = chain([True], chain.from_iterable(
            np.any(t[..., 1:] != t[..., :-1], axis=tuple(range(len(lead)))).tolist() for t in moved))
        x, flat = np.empty(m), np.empty(rows * m + 7)
        # weights on a 64-byte line: 16 to 48 bytes into one, where np.empty may put them, the path ran ~10 % slower
        flat = flat[-flat.ctypes.data % 64 // 8 :][: rows * m]
    for j, k, new_t in zip(count(), thresholds, fresh):
        row, tops = logs[..., : k - 1], top[..., : k - 1]
        weights = flat[: rows * (k - 1)].reshape(lead + (k - 1,)) if lead else flat[: k - 1]
        if new_t:
            np.log(np.divide(zr[..., 1:k], zr[..., k, None] if lead else zr[k], row), row)
        elif k - 1 > filled:  # logs[..., :filled] hold the row of the current threshold value
            row[..., filled:] = 0.0
        filled = k - 1
        xk = np.divide(ranks[: k - 1], k, x[: k - 1])
        yield j, np.divide(xk, np.add(tops, xk, weights), weights), row


# estimator id -> (path kernel, smallest valid k, why the kernel can give NaN)
_PATHS = {
    "hill": (_hill_path, 1, None),
    "efg": (_efg_path, 1, "no uncensored observations among the top {k}"),
    "ww1": (_ww1_path, 1, "product-limit survival vanishes at the threshold (k={k})"),
    "ww2": (_ww2_path, 1, "product-limit survival vanishes at the threshold (k={k})"),
    "new": (_new_path, 2, None),
}

ESTIMATOR_IDS = tuple(_PATHS)

# estimator id -> a bound on |path value| at every k <= k_max, known before the path is (selection._k_star), for
# the O(k) kernel, defined at every k: weights in (0, 1] and log excesses >= 0 give 0 <= new(k) <= the top k's log
# excess sum, which grows with k; doubled, plus k_max**2 * 2**-50, it covers the roundings of both sides
_PATH_BOUNDS = {"new": lambda s, k_max: 2.0 * float(s._hill_sums[k_max - 1]) + k_max**2 * 2.0**-50}


def _at(s: SortedCensoredSample, k: int, estimator_id: str) -> float:
    """The path kernel read at one threshold; UndefinedEstimateError where it gives NaN."""
    path, lo, undefined = _PATHS[estimator_id]
    _check_k(k, s.n, lo)
    value = float(path(s, np.array([k], dtype=np.int64))[0])
    if math.isnan(value):
        raise UndefinedEstimateError(undefined.format(k=k))
    return value


def sweep(s: SortedCensoredSample, estimator_id: str, ks) -> np.ndarray:
    """Evaluate one estimator over many thresholds; NaN where undefined.

    ``ks`` must hold integers within int64: float, bool or other
    non-integer thresholds, also inside a list such as ``[5, True]``, raise
    ``ValueError`` rather than being truncated.  Integer thresholds outside
    the estimator's valid range and thresholds where the estimate does not
    exist (e.g. ``efg`` with no uncensored top points) yield NaN instead.

    Each estimator has one kernel, and the pointwise functions are
    single-k reads of it, so every value equals the pointwise one bit for
    bit and depends only on its own k.  The kernels read the sample's tail
    view, built once per sample: ``hill``/``efg``/``ww1``/``ww2`` come off
    prefix sums of the descending log spacings (``hill``/``efg`` in
    O(len(ks)) once the view is built, ``ww1``/``ww2`` in O(n) per call),
    and ``new`` costs O(k) per threshold, O(n**2) over the full path, in
    buffers made once per call.  Its logs are taken anew only where the
    threshold value moves from the previous k's: once per run of ties.  A
    path of 2**24 or more terms (sum of k - 1, times the rows) is split at
    equal work over the process's CPUs, one forked process per part, with
    the same bits, unless another thread is alive.
    """
    return _sweep(s, _checked_id(estimator_id), ks)


def _sweep(s: SortedCensoredSample, estimator_id: str, ks) -> np.ndarray:
    """:func:`sweep` on a checked id; on a block of replicate samples, one row of values per sample."""
    path, lo, _ = _PATHS[estimator_id]
    ks = ks if isinstance(ks, np.ndarray) else np.asarray(ks, dtype=object)  # numpy would read [5, True] as ints
    if ks.dtype.kind != "i":  # unsigned too: an int64 cast would wrap a uint64 beyond int64 to a negative k
        for k in ks.ravel().tolist():
            if not -(2**63) <= _number(k, integer=True) < 2**63:
                _check_k(k, s.n, lo)  # raises at the first float, bool or beyond-int64 threshold
    ks = ks.astype(np.int64, copy=False)
    out = np.full(s.z.shape[:-1] + ks.shape, np.nan)
    valid = (ks >= lo) & (ks <= s.n - 1)
    if valid.any():
        out[..., valid] = path(s, ks[valid])
    return out
