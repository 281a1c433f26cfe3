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
from .censored import SortedCensoredSample, _read_only, _replicates
from .distributions import Pareto
from .rules import _check_count, _check_fit, _check_k

__all__ = [
    "TailProcessCurve", "GofReport", "DegenerateNullError", "delta_curve", "integrate_delta", "ks_stat", "cvm_stat",
    "gof_pvalue", "GOF_CSV_HEADER",
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


def _atoms(s: SortedCensoredSample, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (1/k) * m / (S(m) + m/k) and positions Z(n-m)/t of the atoms m = 1..k-1, along the last axis.

    Positions never rise with m, so ties are adjacent; the mask marks the
    breakpoints, the last atom of each tie group above 1 (an atom tied with
    the threshold never exceeds x*t).
    """
    m = np.arange(1, k)
    zr = s._z_desc
    positions = zr[..., 1:k] / zr[..., k, None]
    mask = positions > 1.0
    mask[..., :-1] &= positions[..., :-1] != positions[..., 1:]
    return (m / (s.top_delta_prefix[..., : k - 1] + m / k)) / k, positions, mask


def _steps(weights: np.ndarray, positions: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending breakpoints and levels along the last axis, of rows with the same number of breakpoints."""
    # masks of reversed views give contiguous copies: numpy may compute powers of strided arrays with other bits
    shape, ascending = mask.shape[:-1] + (-1,), mask[..., ::-1]
    breakpoints = positions[..., ::-1][ascending].reshape(shape)
    levels = np.zeros(breakpoints.shape[:-1] + (breakpoints.shape[-1] + 1,))
    levels[..., :-1] = np.cumsum(weights, axis=-1)[..., ::-1][ascending].reshape(shape)
    return breakpoints, levels


def delta_curve(s: SortedCensoredSample, k: int) -> TailProcessCurve:
    """Exact piecewise representation of the tail step function."""
    _check_k(k, s.n, lo=2)
    breakpoints, levels = map(_read_only, _steps(*_atoms(s, k)))
    return TailProcessCurve(breakpoints=breakpoints, levels=levels, k=int(k), n=s.n)


def integrate_delta(curve: TailProcessCurve) -> float:
    """Closed-form value of  int_1^inf  curve(x)/x dx.

    Each constant piece contributes level * (log(right) - log(left)); the
    final piece has level 0.  Equals the ``new`` estimator at the same k.
    """
    log_edges = np.concatenate([[0.0], np.log(curve.breakpoints)])
    return float(np.sum(curve.levels[:-1] * np.diff(log_edges)))


# The two statistics score one curve, with scalar gamma and p, or a stack of
# curves with the same number of breakpoints (2-D breakpoints and levels, one
# curve per row), with gamma and p of shape (rows, 1): reductions run along
# the last axis, so each row gets the bits it would get alone.


def _ks_from_curve(curve: TailProcessCurve, gamma, p):
    bp, lv = curve.breakpoints, curve.levels
    cb = bp ** (-1.0 / gamma) / p  # the fitted tail at the breakpoints
    # the comparison tail, 1/p at x = 1, is continuous and decreasing, so each
    # piece's extremes sit at its ends: check both one-sided limits per breakpoint
    gaps = np.concatenate([lv[..., :1] - 1.0 / p, lv[..., :-1] - cb, lv[..., 1:] - cb], axis=-1)
    return np.sqrt(curve.k) * np.max(np.abs(gaps), axis=-1)


def _cvm_from_curve(curve: TailProcessCurve, gamma, p):
    c = 1.0 / gamma
    q = 1.0 / p
    bp, lv = curve.breakpoints, curve.levels
    edge = np.ones(bp.shape[:-1] + (1,))
    left = np.concatenate([edge, bp], axis=-1)
    right = np.concatenate([bp, edge * np.inf], axis=-1)

    def power_integral(mult):  # int_a^b x**(-mult*c-1) dx, piecewise
        return (left ** (-mult * c) - right ** (-mult * c)) / (mult * c)  # inf ** -x is +0.0

    terms = lv * lv * power_integral(1.0) - 2.0 * lv * q * power_integral(2.0) + q * q * power_integral(3.0)
    return (curve.k * q / gamma * np.sum(terms, axis=-1, keepdims=True))[..., 0]


def ks_stat(s: SortedCensoredSample, k: int, gamma_hat: float, p: float) -> float:
    """Scaled sup distance between the tail step function and the fitted tail.

    The supremum over x >= 1 of |curve(x) - x**(-1/gamma_hat)/p|, times
    sqrt(k), evaluated exactly piece by piece.
    """
    _check_fit(gamma_hat, p)
    return float(_ks_from_curve(delta_curve(s, k), gamma_hat, p))


def cvm_stat(s: SortedCensoredSample, k: int, gamma_hat: float, p: float) -> float:
    """Scaled squared-distance integral against the fitted tail.

    k/(p*gamma_hat) times the integral over x >= 1 of
    x**(-1/gamma_hat - 1) * (curve(x) - x**(-1/gamma_hat)/p)**2, computed in
    closed form per piece (the integrand expands into three elementary power
    terms on each constant piece, including the unbounded final one).
    """
    _check_fit(gamma_hat, p)
    return float(_cvm_from_curve(delta_curve(s, k), gamma_hat, p))


@dataclass(frozen=True)
class GofReport:
    """Fit statistics with Monte Carlo p-values against the fitted null.

    ``degenerate`` counts the null replicates with nothing observed in
    their top k (p_hat = 0), each scored (inf, inf) as maximal misfit.
    """

    ks: float
    cvm: float
    p_value_ks: float | None
    p_value_cvm: float | None
    k: int
    n: int
    reps: int
    seed: int
    degenerate: int = 0


GOF_CSV_HEADER = "ks,cvm,p_ks,p_cvm,k,n,reps,seed"


def _fit_stats(v: SortedCensoredSample, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KS, CvM and p_hat at k of each row of the block ``v``, against the tail fitted by ``hill`` and ``p_hat``.

    A row with nothing observed in its top k scores (inf, inf), maximal
    misfit.  The other rows are scored in stacks of curves, one stack per
    number of breakpoints, so tied rows stay in the block.
    """
    gamma = estimators._hill_path(v, np.array([k]))[:, 0]
    p = estimators._p_hat_path(v, k)
    ks, cvm = np.full(p.shape, np.inf), np.full(p.shape, np.inf)
    weights, positions, mask = _atoms(v, k)
    live, counts = p > 0.0, np.count_nonzero(mask, axis=-1)
    for count in set(counts[live].tolist()):  # not np.unique, which imports numpy.ma
        rows = live & (counts == count)
        curve = TailProcessCurve(*_steps(weights[rows], positions[rows], mask[rows]), int(k), v.n)
        g, q = gamma[rows, None], p[rows, None]
        ks[rows], cvm[rows] = _ks_from_curve(curve, g, q), _cvm_from_curve(curve, g, q)
    return ks, cvm, p


def gof_pvalue(s: SortedCensoredSample, k: int, reps: int, seed: int, workers: int = 1) -> GofReport:
    """Monte Carlo p-values for the KS and CvM statistics.

    The null is an exact Pareto lifetime with the sample's estimated index,
    censored by an independent Pareto calibrated so the pair reproduces the
    estimated uncensored proportion.  Replicate r draws a fresh sample of the
    same size, lifetimes from stream (seed, r, 0) and censoring times from
    (seed, r, 1), re-estimates the index and proportion, and recomputes both
    statistics; the p-value is (1 + #{replicate >= observed}) / (reps + 1),
    so it is never exactly 0.

    Replicates run through ``censored._replicates``, whose docstring holds
    the block contract.  Each null row keeps only its top k+1 values, all
    that the statistics read at k; rows are scored in stacks by
    :func:`_fit_stats`.  A null index so small that a null replicate's
    top k+1 values all tie (its ``hill`` is 0) raises DegenerateNullError.
    """
    _check_count(reps, 100, "reps")  # fewer leave no usable p-value
    _check_k(k, s.n, lo=2)
    p = estimators.p_hat(s, k)
    if p == 0.0 or p == 1.0:
        raise DegenerateNullError(f"estimated proportion p = {p:g} leaves no censoring null to simulate from")
    gamma1_hat = estimators.new_weighted(s, k)
    if not gamma1_hat > 0:
        raise DegenerateNullError(f"estimated index {gamma1_hat:g} admits no Pareto null")
    ks_obs, cvm_obs, _ = _fit_stats(SortedCensoredSample(s.z[None], s.delta[None], s.top_delta_prefix[None]), k)

    def score(v: SortedCensoredSample) -> np.ndarray:  # (1, 3) counts: ks >= observed, cvm >= observed, p_hat = 0
        if np.any((v._hill_sums[:, k - 1] == 0.0) & (v.top_delta_prefix[:, k - 1] > 0)):
            raise DegenerateNullError(f"estimated index {gamma1_hat:g} is too small for a Pareto null: "
                                      f"a null replicate's top {k + 1} values all tie")
        ks, cvm, p_null = _fit_stats(v, k)
        return np.count_nonzero(np.stack([ks >= ks_obs, cvm >= cvm_obs, p_null == 0.0]), axis=-1)[None]

    null_x = Pareto(gamma1_hat)
    null_y = Pareto(gamma1_hat * p / (1.0 - p))
    ks_ge, cvm_ge, degenerate = _replicates(null_x, null_y, s.n, reps, seed, score, workers, top=k + 1).sum(0).tolist()
    return GofReport(
        ks=float(ks_obs[0]),
        cvm=float(cvm_obs[0]),
        p_value_ks=(1 + ks_ge) / (reps + 1),
        p_value_cvm=(1 + cvm_ge) / (reps + 1),
        k=int(k),
        n=s.n,
        reps=int(reps),
        seed=int(seed),
        degenerate=degenerate,
    )
