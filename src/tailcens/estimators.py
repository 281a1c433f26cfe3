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

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy import integrate, special

from .censored import SortedCensoredSample

__all__ = [
    "UndefinedEstimateError",
    "EstimateReport",
    "KaplanMeierCurve",
    "ESTIMATOR_IDS",
    "hill",
    "p_hat",
    "efg",
    "kaplan_meier",
    "ww1",
    "ww2",
    "new_weighted",
    "weighted_functional",
    "asymptotic_ci",
    "attached_ci",
    "estimate_report",
    "evaluate",
    "sweep",
    "min_valid_k",
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


def _check_k(k, n, lo: int = 1, hi=None, name: str = "k"):
    """Return ``k`` if it is an integer in [lo, hi] (hi defaults to n - 1); raise ValueError otherwise."""
    hi = n - 1 if hi is None else hi
    # bool is an int subclass, but True is a flag, not a threshold count
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer)) and lo <= k <= hi):
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {k!r}")
    return k


def _check_level(level):
    """Return ``level`` if it is a number in (0, 1); raise ValueError otherwise."""
    if isinstance(level, bool) or not (isinstance(level, Real) and 0.0 < level < 1.0):
        raise ValueError(f"level must be a number in (0, 1), got {level!r}")
    return level


def hill(s: SortedCensoredSample, k: int) -> float:
    """Average log-excess of the top k observations over the threshold."""
    n = s.n
    _check_k(k, n)
    # log of the ratio, not difference of logs: keeps near-tied order
    # statistics exactly consistent with the ratio-based tail curve
    return float(np.mean(np.log(s.z[n - k :] / s.z[n - k - 1])))


def p_hat(s: SortedCensoredSample, k: int) -> float:
    """Fraction of uncensored observations among the top k."""
    _check_k(k, s.n, hi=s.n)
    return float(s.top_delta_prefix[k - 1]) / k


def efg(s: SortedCensoredSample, k: int) -> float:
    """Censoring-adjusted Hill estimate: hill(s, k) / p_hat(s, k)."""
    p = p_hat(s, k)
    if p == 0.0:
        raise UndefinedEstimateError(f"no uncensored observations among the top {k}")
    return hill(s, k) / p


def _km_survival(s: SortedCensoredSample) -> np.ndarray:
    """Product-limit survival 1 - F at each ascending order statistic."""
    n = s.n
    factors = np.where(s.delta == 1, 1.0 - 1.0 / (n - np.arange(n, dtype=float)), 1.0)
    return np.cumprod(factors)


def kaplan_meier(s: SortedCensoredSample) -> KaplanMeierCurve:
    """Product-limit estimate of the lifetime cdf on the sample's support."""
    return KaplanMeierCurve(support=s.z, values=1.0 - _km_survival(s))


def ww1(s: SortedCensoredSample, k: int) -> float:
    """Product-limit weighted sum of consecutive log spacings."""
    n = s.n
    _check_k(k, n)
    surv = _km_survival(s)
    base = surv[n - k - 1]
    if base <= 0.0:
        raise UndefinedEstimateError(f"product-limit survival vanishes at the threshold (k={k})")
    i = np.arange(1, k + 1)
    return float(np.sum(surv[n - i] / base * np.log(s.z[n - i] / s.z[n - i - 1])))


def ww2(s: SortedCensoredSample, k: int) -> float:
    """Product-limit weighted sum of log excesses of uncensored top points."""
    n = s.n
    _check_k(k, n)
    surv = _km_survival(s)
    base = surv[n - k - 1]
    if base <= 0.0:
        raise UndefinedEstimateError(f"product-limit survival vanishes at the threshold (k={k})")
    i = np.arange(1, k + 1)
    terms = surv[n - i] / base * (s.delta[n - i] / i) * np.log(s.z[n - i] / s.z[n - k - 1])
    return float(np.sum(terms))


def _weighted_log_sum(s: SortedCensoredSample, k: int, gvals, alpha: float) -> float:
    # sum_{i=1..k-1} (i/k) * g(i/(k+1)) * log(Z(n-i)/Z(n-k))**alpha / (S(i) + i/k);
    # the ratio inside the log matches the tail curve's breakpoints bit for bit
    n = s.n
    i = np.arange(1, k)
    den = s.top_delta_prefix[: k - 1] + i / k
    logs = np.log(s.z[n - 1 - i] / s.z[n - k - 1])
    return float(np.sum((i / k) * gvals / den * logs**alpha))


def new_weighted(s: SortedCensoredSample, k: int) -> float:
    """Randomly weighted log-excess sum with censoring-count denominators.

    The denominators S(i) + i/k stay >= i/k > 0, so the value is finite for
    every valid sample.  Note the flip side of the guard: when no uncensored
    observation ranks above position i, the i-th term is damped only by i/k
    and can dominate the sum, which inflates the estimate under censoring.
    """
    _check_k(k, s.n, lo=2)
    return _weighted_log_sum(s, k, 1.0, 1.0)


def weighted_functional(s: SortedCensoredSample, k: int, g=None, alpha: float = 1.0) -> float:
    """Weighted power-of-log functional generalizing :func:`new_weighted`.

    ``g`` is a nonnegative weight function on (0, 1) (``None`` means the
    constant 1) and ``alpha`` a positive exponent.  The sum of weighted log
    excesses is normalized by ``int_0^1 g(x) * (-log x)**alpha dx``; with
    ``g = None`` and ``alpha = 1`` the normalizer is 1 and the value reduces
    exactly to :func:`new_weighted`.
    """
    _check_k(k, s.n, lo=2)
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if g is None:
        norm = float(special.gamma(alpha + 1.0))
        gvals = 1.0
    else:
        norm, _ = integrate.quad(lambda x: g(x) * (-np.log(x)) ** alpha, 0.0, 1.0, epsabs=1e-10)
        if not np.isfinite(norm) or norm <= 0.0:
            raise ValueError(f"normalizer integral must be finite and > 0, got {norm}")
        i = np.arange(1, k)
        gvals = np.asarray([g(t) for t in i / (k + 1)], dtype=float)
        if np.any(gvals < 0) or not np.all(np.isfinite(gvals)):
            raise ValueError("weight function must be finite and nonnegative on (0, 1)")
    return _weighted_log_sum(s, k, gvals, alpha) / norm


def asymptotic_ci(gamma1_hat: float, p: float, k: int, level: float = 0.95) -> tuple[float, float, float]:
    """Normal-approximation interval for the weighted estimator.

    The limiting variance of sqrt(k) times the estimation error is
    (9 - 8p) * gamma1**2 / p, treated as centered (no bias correction).
    Returns (std_err, lower, upper) with the lower end truncated at 0.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if not gamma1_hat > 0:
        raise ValueError(f"gamma1_hat must be > 0, got {gamma1_hat}")
    _check_k(k, np.inf)
    _check_level(level)
    std_err = float(gamma1_hat * np.sqrt((9.0 - 8.0 * p) / p) / np.sqrt(k))
    zq = float(special.ndtri(0.5 * (1.0 + level)))
    return std_err, max(0.0, gamma1_hat - zq * std_err), gamma1_hat + zq * std_err


def attached_ci(estimator_id: str, value: float, p: float, k: int, level: float | None):
    """``(std_err, lower, upper)`` for ``new`` where :func:`asymptotic_ci` applies, else None."""
    # value is NaN where undefined and 0 when the top k points tie the threshold
    if level is None or estimator_id != "new" or not (p > 0 and value > 0):
        return None
    return asymptotic_ci(value, p, k, level)


_DISPATCH = {
    "hill": hill,
    "efg": efg,
    "ww1": ww1,
    "ww2": ww2,
    "new": new_weighted,
}

ESTIMATOR_IDS = tuple(_DISPATCH)

_MIN_K = {"hill": 1, "efg": 1, "ww1": 1, "ww2": 1, "new": 2}


def min_valid_k(estimator_id: str) -> int:
    """Smallest threshold count at which the estimator is defined."""
    return _MIN_K[_checked_id(estimator_id)]


def _checked_id(estimator_id: str) -> str:
    """Return ``estimator_id`` if it names an estimator; raise ValueError otherwise."""
    if estimator_id not in _DISPATCH:
        raise ValueError(f"unknown estimator {estimator_id!r} (expected one of {'|'.join(ESTIMATOR_IDS)})")
    return estimator_id


def evaluate(s: SortedCensoredSample, k: int, estimator_id: str) -> float:
    """Evaluate the estimator named by ``estimator_id`` at threshold ``k``."""
    return _DISPATCH[_checked_id(estimator_id)](s, k)


def estimate_report(
    s: SortedCensoredSample,
    k: int,
    estimator_id: str,
    ci_level: float | None = None,
) -> EstimateReport:
    """Evaluate one estimator at one threshold and assemble a report, with :func:`attached_ci`."""
    value = _DISPATCH[_checked_id(estimator_id)](s, k)
    p = p_hat(s, k)
    interval = attached_ci(estimator_id, value, p, k, ci_level)
    return EstimateReport(
        estimator_id=estimator_id,
        k=int(k),
        value=value,
        p_hat=p,
        std_err=interval[0] if interval else None,
        ci=interval[1:] if interval else None,
        ci_level=ci_level if interval else None,
    )


def _descending_log_spacings(s: SortedCensoredSample) -> np.ndarray:
    # lam[j-1] = log(Z(n-j+1)/Z(n-j)), j = 1..n-1: the j-th log spacing from the top
    zr = s.z[::-1]
    return np.log(zr[:-1] / zr[1:])


def _ratio_or_nan(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.full(num.shape, np.nan), where=den > 0)


# Path kernels: one array pass per call over thresholds ks already checked
# to lie in [min_valid_k, n-1].  Every value at k is read from full-length
# prefix sums, so it does not depend on which other thresholds are asked for.


def _hill_path(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    # the top k log excesses telescope: sum_i log(Z(n-i+1)/Z(n-k)) = sum_{j<=k} j*lam_j
    j = np.arange(1, s.n)
    return np.cumsum(j * _descending_log_spacings(s))[ks - 1] / ks


def _efg_path(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    return _ratio_or_nan(_hill_path(s, ks), s.top_delta_prefix[ks - 1] / ks)


def _ww1_path(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    surv = _km_survival(s)[::-1]  # surv[i] is the survival at Z(n-i)
    return _ratio_or_nan(np.cumsum(surv[:-1] * _descending_log_spacings(s))[ks - 1], surv[ks])


def _ww2_path(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    # each log excess over the threshold telescopes into spacings; swapping
    # the two sums weights lam_j by the running sum of the first j terms
    surv = _km_survival(s)[::-1]
    i = np.arange(1, s.n)
    running = np.cumsum(surv[:-1] * s.delta[::-1][:-1] / i)
    return _ratio_or_nan(np.cumsum(_descending_log_spacings(s) * running)[ks - 1], surv[ks])


def _new_path(s: SortedCensoredSample, ks: np.ndarray) -> np.ndarray:
    # not separable in k: one O(k) evaluation per k, on contiguous slices and
    # with the arithmetic of new_weighted, so each value equals it bit for bit
    zr = np.ascontiguousarray(s.z[::-1])
    top = s.top_delta_prefix.astype(float)
    i = np.arange(1.0, s.n)
    out = np.empty(ks.shape)
    for j, k in enumerate(ks.tolist()):
        x = i[: k - 1] / k
        out[j] = np.sum(x / (top[: k - 1] + x) * np.log(zr[1:k] / zr[k]))
    return out


_PATHS = {
    "hill": _hill_path,
    "efg": _efg_path,
    "ww1": _ww1_path,
    "ww2": _ww2_path,
    "new": _new_path,
}


def sweep(s: SortedCensoredSample, estimator_id: str, ks) -> np.ndarray:
    """Evaluate one estimator over many thresholds; NaN where undefined.

    ``ks`` must hold integers: float, bool or other non-integer thresholds
    raise ``ValueError`` rather than being truncated.  Integer thresholds
    outside the estimator's valid range and thresholds where the estimate
    does not exist (e.g. ``efg`` with no uncensored top points) yield NaN
    rather than raising.

    One call costs O(n) for ``hill``/``efg``/``ww1``/``ww2``, which are read
    off prefix sums of the descending log spacings (agreeing with the
    pointwise functions to rounding, about 1e-14 relative), and O(k) per
    threshold for ``new``, O(n**2) over the full path, whose values equal
    :func:`new_weighted` exactly.  Each value depends only on its own k,
    not on the rest of ``ks``.
    """
    path = _PATHS[_checked_id(estimator_id)]
    lo = _MIN_K[estimator_id]
    ks = np.asarray(ks)
    if ks.dtype.kind not in "iu":
        for k in ks.ravel().tolist():
            _check_k(k, s.n, lo)  # raises at the first float or bool threshold
    ks = ks.astype(np.int64, copy=False)
    out = np.full(ks.shape, np.nan)
    valid = (ks >= lo) & (ks <= s.n - 1)
    if valid.any():
        out[valid] = path(s, ks[valid])
    return out
