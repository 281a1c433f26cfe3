"""Reference estimators written as direct sums over the top order statistics.

The library computes each estimator once, in a path kernel that reads
prefix sums (or, for ``new``, contiguous slices) of a cached tail view.
These are the textbook formulas, built from the sorted arrays alone, that
the kernels are checked against.  Each returns NaN where the estimator is
undefined, as ``sweep`` does.

The replicate references at the end run one Python-level pipeline per
Monte Carlo replicate, built from the public one-sample functions; the
block replicate engine behind ``gof_pvalue``, ``run_bias_rmse`` and
``run_variance_check`` is checked against them bit for bit.

``scan`` is the threshold-selection criterion as a Fenwick-tree loop over
k, the bitwise reference of the level-by-level ``selection._scan``, and
``sorted_pairs`` the two-key ``np.lexsort`` order, the bitwise reference of
the one-key sort in ``censored._top_sorted``.
"""

import numpy as np

import tailcens as tc


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


def draw(model_x, model_y, n, seed, r, complete_data=False):
    """Replicate r's sorted sample, drawn alone from stream (seed, r)."""
    rng = tc.stream(seed, r)
    if complete_data:
        return tc.sort_censored(model_x.sample(n, rng), np.ones(n, dtype=np.int64))
    return tc.sort_censored(*tc.generate_censored(model_x, model_y, n, rng))


def fit_stats(s, k):
    """KS and CvM at k against the tail fitted by hill and p_hat; (inf, inf) when p_hat is 0."""
    gamma, p = tc.hill(s, k), tc.p_hat(s, k)
    if p == 0.0:
        return np.inf, np.inf
    return tc.ks_stat(s, k, gamma, p), tc.cvm_stat(s, k, gamma, p)


def gof_report(s, k, reps, seed):
    """GofReport fields of gof_pvalue, one null replicate at a time."""
    p = tc.p_hat(s, k)
    gamma1 = tc.new_weighted(s, k)
    null_x, null_y = tc.Pareto(gamma1), tc.Pareto(gamma1 * p / (1.0 - p))
    ks_obs, cvm_obs = fit_stats(s, k)
    nulls = [draw(null_x, null_y, s.n, seed, r) for r in range(reps)]
    pairs = [fit_stats(null, k) for null in nulls]
    return dict(
        ks=ks_obs,
        cvm=cvm_obs,
        p_value_ks=(1 + sum(1 for a, _ in pairs if a >= ks_obs)) / (reps + 1),
        p_value_cvm=(1 + sum(1 for _, b in pairs if b >= cvm_obs)) / (reps + 1),
        k=k,
        n=s.n,
        reps=reps,
        seed=seed,
        degenerate=sum(1 for null in nulls if tc.p_hat(null, k) == 0.0),
    )


def bias_rmse(cfg):
    """(bias, rmse, undefined_count) of run_bias_rmse, one replicate at a time."""
    cube = np.stack([
        np.stack([tc.sweep(s, est, cfg.k_grid) for est in cfg.estimators])
        for s in (draw(cfg.model_x, cfg.model_y, cfg.n, cfg.seed, r, cfg.complete_data) for r in range(cfg.reps))
    ])
    defined = ~np.isnan(cube)
    counts = defined.sum(axis=0)
    safe = np.maximum(counts, 1)
    with np.errstate(invalid="ignore"):
        err = cube - cfg.model_x.true_evi
        bias = np.where(counts > 0, np.nansum(err, axis=0) / safe, np.nan)
        rmse = np.where(counts > 0, np.sqrt(np.nansum(err * err, axis=0) / safe), np.nan)
    return bias, rmse, cfg.reps - counts


def variance_check(model_x, model_y, n, k, reps, seed, complete_data=False):
    """(mean, scaled_var) of run_variance_check, one replicate at a time."""
    values = np.asarray([tc.new_weighted(draw(model_x, model_y, n, seed, r, complete_data), k) for r in range(reps)])
    scaled = np.sqrt(k) * (values - model_x.true_evi)
    return float(values.mean()), float(scaled.var(ddof=1))


def scan(path_ks: np.ndarray, path: np.ndarray, theta: float, k_min: int) -> np.ndarray:
    """selection._scan as a Fenwick-tree loop over k, one insertion and one binary lifting per k.

    The library runs every k at once, level by level; it must give these bits.
    """
    defined = np.flatnonzero(~np.isnan(path))
    values = path[defined] - path[defined[0]]  # centered: see selection's module docstring
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


def sorted_pairs(z: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """censored._top_sorted of whole rows by np.lexsort on (z, 1 - delta): ascending, deaths first, top-down counts.

    ``delta`` must be an int64 array of 0 and 1.  The library sorts one
    uint64 key per point instead; it must give these bits.
    """
    order = np.lexsort((1 - delta, z), axis=-1)
    z, delta = np.take_along_axis(z, order, -1), np.take_along_axis(delta, order, -1)
    return z, delta, np.cumsum(delta[..., ::-1], axis=-1)
