"""The censored tail step function, its log integral, and fit statistics.

For a sorted censored sample and threshold count k, the tail step function
at x >= 1 sums, over the order statistics strictly between the threshold
``t = Z(n-k)`` and the maximum that exceed ``x*t``, the weights

    (1/k) * (n-i) / (D(i) + (n-i)/k),

where ``D(i)`` counts uncensored observations above ``Z(i)``.  The function
is nonincreasing, right-continuous, piecewise constant with final level 0,
and its log-weighted integral  ``int_1^inf  value(x)/x dx``  equals the
``new`` weighted index estimator exactly: the central identity this module
is built around (and tested for, to 1e-12).

Kolmogorov-Smirnov and Cramer-von Mises statistics compare the step
function against the fitted power tail ``x**(-1/gamma)/p``; both are
evaluated in closed form per constant piece, and their null distributions
are approximated by Monte Carlo over exact Pareto pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimators
from .censored import SortedCensoredSample, _draw_sample
from .distributions import Pareto
from .parallel import replicate_map

__all__ = [
    "TailProcessCurve",
    "GofReport",
    "DegenerateNullError",
    "delta_curve",
    "integrate_delta",
    "ks_stat",
    "cvm_stat",
    "gof_pvalue",
    "GOF_CSV_HEADER",
]


class DegenerateNullError(ValueError):
    """The fitted null is degenerate (no censoring, or nothing observed)."""


@dataclass(frozen=True)
class TailProcessCurve:
    """Piecewise-constant tail step function.

    ``breakpoints`` are the distinct normalized order statistics above the
    threshold (strictly increasing, all > 1); ``levels`` has one entry per
    interval [1, b1), [b1, b2), ..., [bM, inf), so ``len(levels) ==
    len(breakpoints) + 1`` and the final level is exactly 0.  Evaluation is
    right-continuous: at a breakpoint the curve already takes the lower
    level.
    """

    breakpoints: np.ndarray
    levels: np.ndarray
    k: int
    n: int

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(x >= 1.0):  # NaN is rejected too
            raise ValueError("the tail step function is defined for x >= 1")
        out = self.levels[np.searchsorted(self.breakpoints, x, side="right")]
        return float(out) if np.ndim(out) == 0 else out


def delta_curve(s: SortedCensoredSample, k: int) -> TailProcessCurve:
    """Exact piecewise representation of the tail step function."""
    n = s.n
    estimators._check_k(k, n, lo=2)
    m = np.arange(1, k)
    # atom at Z(n-m) carries weight (1/k) * m / (S(m) + m/k)
    weights = (m / (s.top_delta_prefix[: k - 1] + m / k)) / k
    # positions Z(n-m)/t never rise with m, so the atoms above the threshold
    # form a prefix (atoms tied with it never exceed x*t) and ties are adjacent
    positions = s.z[n - k : n - 1][::-1] / s.z[n - k - 1]
    above = np.count_nonzero(positions > 1.0)
    positions = positions[:above]
    tie_end = np.ones(above, dtype=bool)  # the last atom of each tie group
    np.not_equal(positions[:-1], positions[1:], out=tie_end[:-1])
    last = np.flatnonzero(tie_end)[::-1]  # in ascending position order
    breakpoints = positions[last]
    levels = np.zeros(last.size + 1)
    levels[:-1] = np.cumsum(weights[:above])[last]
    for arr in (breakpoints, levels):
        arr.setflags(write=False)
    return TailProcessCurve(breakpoints=breakpoints, levels=levels, k=int(k), n=n)


def integrate_delta(curve: TailProcessCurve) -> float:
    """Closed-form value of  int_1^inf  curve(x)/x dx.

    Each constant piece contributes level * (log(right) - log(left)); the
    final piece has level 0.  Equals the ``new`` estimator at the same k.
    """
    if curve.breakpoints.size == 0:
        return 0.0
    log_edges = np.concatenate([[0.0], np.log(curve.breakpoints)])
    return float(np.sum(curve.levels[:-1] * np.diff(log_edges)))


def _fitted_tail(x, gamma: float, p: float):
    return x ** (-1.0 / gamma) / p


def _ks_from_curve(curve: TailProcessCurve, gamma: float, p: float) -> float:
    bp, lv = curve.breakpoints, curve.levels
    sup = abs(lv[0] - _fitted_tail(1.0, gamma, p))
    if bp.size:
        cb = _fitted_tail(bp, gamma, p)
        # the comparison tail is continuous and decreasing, so each piece's
        # extremes sit at its ends: check both one-sided limits per breakpoint
        sup = max(sup, float(np.max(np.abs(lv[:-1] - cb))), float(np.max(np.abs(lv[1:] - cb))))
    return float(np.sqrt(curve.k) * sup)


def _cvm_from_curve(curve: TailProcessCurve, gamma: float, p: float) -> float:
    c = 1.0 / gamma
    q = 1.0 / p
    bp, lv = curve.breakpoints, curve.levels
    left = np.concatenate([[1.0], bp])
    right = np.concatenate([bp, [np.inf]])

    def power_integral(mult):  # int_a^b x**(-mult*c-1) dx, piecewise
        hi = np.where(np.isinf(right), 0.0, right ** (-mult * c))
        return (left ** (-mult * c) - hi) / (mult * c)

    total = np.sum(lv * lv * power_integral(1.0) - 2.0 * lv * q * power_integral(2.0) + q * q * power_integral(3.0))
    return float(curve.k * q / gamma * total)


def ks_stat(s: SortedCensoredSample, k: int, gamma_hat: float, p: float) -> float:
    """Scaled sup distance between the tail step function and the fitted tail.

    The supremum over x >= 1 of |curve(x) - x**(-1/gamma_hat)/p|, times
    sqrt(k), evaluated exactly piece by piece.
    """
    estimators._check_fit(gamma_hat, p)
    return _ks_from_curve(delta_curve(s, k), gamma_hat, p)


def cvm_stat(s: SortedCensoredSample, k: int, gamma_hat: float, p: float) -> float:
    """Scaled squared-distance integral against the fitted tail.

    k/(p*gamma_hat) times the integral over x >= 1 of
    x**(-1/gamma_hat - 1) * (curve(x) - x**(-1/gamma_hat)/p)**2, computed in
    closed form per piece (the integrand expands into three elementary power
    terms on each constant piece, including the unbounded final one).
    """
    estimators._check_fit(gamma_hat, p)
    return _cvm_from_curve(delta_curve(s, k), gamma_hat, p)


@dataclass(frozen=True)
class GofReport:
    """Fit statistics with Monte Carlo p-values against the fitted null."""

    ks: float
    cvm: float
    p_value_ks: float | None
    p_value_cvm: float | None
    k: int
    n: int
    reps: int
    seed: int


GOF_CSV_HEADER = "ks,cvm,p_ks,p_cvm,k,n,reps,seed"


def _fit_stats(s: SortedCensoredSample, k: int) -> tuple[float, float]:
    """KS and CvM at k against the tail fitted by ``hill`` and ``p_hat``."""
    gamma_hat, p = estimators.hill(s, k), estimators.p_hat(s, k)
    if p == 0.0:
        return np.inf, np.inf  # nothing observed in the top k: maximal misfit
    curve = delta_curve(s, k)
    return _ks_from_curve(curve, gamma_hat, p), _cvm_from_curve(curve, gamma_hat, p)


def gof_pvalue(s: SortedCensoredSample, k: int, reps: int, seed: int, workers: int = 1) -> GofReport:
    """Monte Carlo p-values for the KS and CvM statistics.

    The null is an exact Pareto lifetime with the sample's estimated index,
    censored by an independent Pareto calibrated so the pair reproduces the
    estimated uncensored proportion.  Each replicate draws a fresh sample of
    the same size from stream (seed, replicate), re-estimates the index and
    proportion, and recomputes both statistics; the p-value is
    (1 + #{replicate >= observed}) / (reps + 1), so it is never exactly 0.
    """
    estimators._check_count(reps, 100, "reps")  # fewer leave no usable p-value
    estimators._check_k(k, s.n, lo=2)
    p = estimators.p_hat(s, k)
    if p == 0.0 or p == 1.0:
        raise DegenerateNullError(
            f"estimated proportion p = {p:g} leaves no censoring null to simulate from"
        )
    gamma1_hat = estimators.new_weighted(s, k)
    if not gamma1_hat > 0:
        raise DegenerateNullError(f"estimated index {gamma1_hat:g} admits no Pareto null")
    ks_obs, cvm_obs = _fit_stats(s, k)
    null_x = Pareto(gamma1_hat)
    null_y = Pareto(gamma1_hat * p / (1.0 - p))
    pairs = replicate_map(lambda r: _fit_stats(_draw_sample(null_x, null_y, s.n, seed, r), k), reps, workers)
    ks_count = sum(1 for a, _ in pairs if a >= ks_obs)
    cvm_count = sum(1 for _, b in pairs if b >= cvm_obs)
    return GofReport(
        ks=ks_obs,
        cvm=cvm_obs,
        p_value_ks=(1 + ks_count) / (reps + 1),
        p_value_cvm=(1 + cvm_count) / (reps + 1),
        k=int(k),
        n=s.n,
        reps=int(reps),
        seed=int(seed),
    )
