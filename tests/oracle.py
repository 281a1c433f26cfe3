"""Reference estimators written as direct sums over the top order statistics.

The library computes each estimator once, in a path kernel that reads
prefix sums (or, for ``new``, contiguous slices) of a cached tail view.
These are the textbook formulas, built from the sorted arrays alone, that
the kernels are checked against.  Each returns NaN where the estimator is
undefined, as ``sweep`` does.
"""

import numpy as np


def km_survival(s):
    """Product-limit survival 1 - F at each ascending order statistic."""
    n = s.n
    factors = np.where(s.delta == 1, 1.0 - 1.0 / (n - np.arange(n, dtype=float)), 1.0)
    return np.cumprod(factors)


def hill(s, k):
    """Mean of log(Z(n-i+1)/Z(n-k)), i = 1..k."""
    n = s.n
    return float(np.mean(np.log(s.z[n - k :] / s.z[n - k - 1])))


def efg(s, k):
    """hill / p_hat, NaN when nothing in the top k is observed."""
    p = float(s.top_delta_prefix[k - 1]) / k
    return hill(s, k) / p if p > 0 else np.nan


def ww1(s, k):
    """sum_{i<=k} (S_KM(Z(n-i)) / S_KM(Z(n-k))) * log(Z(n-i+1)/Z(n-i)), spacings indexed from the top."""
    n = s.n
    surv = km_survival(s)
    base = surv[n - k - 1]
    if base <= 0.0:
        return np.nan
    i = np.arange(1, k + 1)
    return float(np.sum(surv[n - i] / base * np.log(s.z[n - i] / s.z[n - i - 1])))


def ww2(s, k):
    """sum_{i<=k} KM weight * (delta_i / i) * log excess of the i-th top point over Z(n-k)."""
    n = s.n
    surv = km_survival(s)
    base = surv[n - k - 1]
    if base <= 0.0:
        return np.nan
    i = np.arange(1, k + 1)
    return float(np.sum(surv[n - i] / base * (s.delta[n - i] / i) * np.log(s.z[n - i] / s.z[n - k - 1])))


def weighted_log_sum(s, k, gvals=1.0, alpha=1.0):
    """sum_{i<k} (i/k) * g(i/(k+1)) * log(Z(n-i)/Z(n-k))**alpha / (S(i) + i/k)."""
    n = s.n
    i = np.arange(1, k)
    den = s.top_delta_prefix[: k - 1] + i / k
    logs = np.log(s.z[n - 1 - i] / s.z[n - k - 1])
    return float(np.sum((i / k) * gvals / den * logs**alpha))


ORACLES = {"hill": hill, "efg": efg, "ww1": ww1, "ww2": ww2, "new": weighted_log_sum}
