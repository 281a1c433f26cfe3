"""Seeded Monte Carlo experiments: bias/RMSE sweeps and variance checks.

Replicates run through ``censored._replicates``: replicate r draws its
lifetimes from stream (seed, r, 0) and its censoring times from stream
(seed, r, 1), or all its data from stream (seed, r) for complete data, so
results are bit-identical across runs and for any ``workers`` value (the
most processes ``run_variance_check`` forks its replicate blocks over).
Undefined estimator values (an estimator can fail at a given threshold on a
given draw) are excluded from that cell's aggregation and counted instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .censored import _replicates
from .distributions import HeavyTailModel, format_model
from .estimators import _checked_id, _new_path, _sweep
from .io import fmt
from .rules import _check_count, _check_flag, _check_k, _check_workers

__all__ = ["McConfig", "McResult", "default_k_grid", "run_bias_rmse", "run_variance_check", "write_result_csv",
           "write_meta", "RESULT_CSV_HEADER"]

RESULT_CSV_HEADER = "estimator,k,bias,rmse,undefined_count"


def default_k_grid(n: int) -> tuple[int, ...]:
    """Every k from 5 to n-5, thinned to at most 100 grid points."""
    lo, hi = 5, _check_count(n, 3, "n") - 5
    if hi < lo:
        raise ValueError(f"sample size {n} leaves no room for the default grid")
    step = max(1, math.ceil((hi - lo + 1) / 100))
    return tuple(range(lo, hi + 1, step))


@dataclass(frozen=True)
class McConfig:
    """Full description of one experiment; the seed makes it reproducible."""

    model_x: HeavyTailModel
    model_y: HeavyTailModel
    n: int
    reps: int
    k_grid: tuple[int, ...]
    estimators: tuple[str, ...]
    seed: int
    complete_data: bool = False

    def __post_init__(self):
        _check_count(self.reps, 1, "reps")
        _check_count(self.n, 3, "n")
        _check_count(self.seed, 0, "seed")
        _check_flag(self.complete_data, "complete_data")
        for name in ("k_grid", "estimators"):
            if not len(getattr(self, name)):
                raise ValueError(f"{name} must not be empty")
        for k in self.k_grid:
            _check_k(k, self.n)
        for est in self.estimators:
            _checked_id(est)


@dataclass(frozen=True)
class McResult:
    """Bias and RMSE per (estimator, k), plus the config that produced them.

    ``bias``/``rmse``/``undefined_count`` are (n_estimators, n_k) arrays
    aligned with ``config.estimators`` and ``config.k_grid``; cells where
    every replicate failed hold NaN with a full undefined count.
    """

    config: McConfig
    bias: np.ndarray
    rmse: np.ndarray
    undefined_count: np.ndarray


def run_bias_rmse(cfg: McConfig, workers: int = 1) -> McResult:
    """Replicate the experiment and aggregate bias and RMSE per cell.

    Replicates run through ``censored._replicates`` with rows sorted whole
    (``ww1``/``ww2`` read the whole Kaplan-Meier curve), one sweep call per
    estimator and block.  ``fold`` adds each block's err and err**2 to ``sums``
    here, in O(block) memory: the blocks must run in order in this process,
    so ``workers`` is checked and the blocks run with ``workers=1``.
    """
    _check_workers(workers)
    gamma1, ks = cfg.model_x.true_evi, np.array(cfg.k_grid)
    sums = np.zeros((2, len(cfg.estimators), ks.size))  # the nansums of err and err**2 so far

    def fold(v) -> np.ndarray:  # adds the block to sums and returns its (1, estimators, k grid) defined counts
        rows = np.empty((len(v.z) + 1,) + sums.shape)  # sums, then err and err**2 of each replicate
        rows[0], err = sums, rows[1:, 0]
        for e, est in enumerate(cfg.estimators):  # each sweep straight into its column: no block-sized stack
            np.subtract(_sweep(v, est, ks), gamma1, out=err[:, e])
        np.multiply(err, err, out=rows[1:, 1])
        counts = np.count_nonzero(~np.isnan(err), axis=0)[None]  # before the NaNs go
        np.copyto(rows, 0.0, where=np.isnan(rows))  # nansum's own steps, in place: no block-sized copy
        with np.errstate(invalid="ignore"):  # the running sum first: replicate after replicate, as one nansum adds
            np.add.reduce(rows, axis=0, out=sums)
        return counts

    counts = _replicates(cfg.model_x, cfg.model_y, cfg.n, cfg.reps, cfg.seed, fold, 1, cfg.complete_data).sum(0)
    bias, mse = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return McResult(config=cfg, bias=bias, rmse=np.sqrt(mse), undefined_count=cfg.reps - counts)


def run_variance_check(
    model_x: HeavyTailModel,
    model_y: HeavyTailModel,
    n: int,
    k: int,
    reps: int,
    seed: int,
    complete_data: bool = False,
    workers: int = 1,
) -> tuple[float, float]:
    """Mean of the weighted estimator and sample variance of its scaled error.

    Returns ``(mean, scaled_var)`` where ``scaled_var`` is the sample
    variance (ddof 1) of sqrt(k) * (estimate - true index) across
    replicates.  Meant for exact power-law pairs, where the limit variance
    has no bias contamination.  Replicates run through
    ``censored._replicates`` over up to ``workers`` processes, each row
    keeping only its top k+1 values.
    """
    _check_count(reps, 2, "reps")  # a sample variance needs two values
    _check_flag(complete_data, "complete_data")
    _check_k(k, _check_count(n, 1, "n"), lo=2)
    gamma1 = model_x.true_evi
    ks = np.array([k])
    values = _replicates(
        model_x, model_y, n, reps, seed, lambda v: _new_path(v, ks)[:, 0], workers, complete_data, top=k + 1
    )
    scaled = np.sqrt(k) * (values - gamma1)
    return float(values.mean()), float(scaled.var(ddof=1))


def write_result_csv(result: McResult, fh) -> None:
    """Emit ``estimator,k,bias,rmse,undefined_count`` rows, grid-ordered."""
    fh.write(RESULT_CSV_HEADER + "\n")
    cfg = result.config
    for e_idx, est in enumerate(cfg.estimators):
        for k_idx, k in enumerate(cfg.k_grid):
            fh.write(
                f"{est},{k},{fmt(result.bias[e_idx, k_idx])},"
                f"{fmt(result.rmse[e_idx, k_idx])},{int(result.undefined_count[e_idx, k_idx])}\n"
            )


def write_meta(cfg: McConfig, fh) -> None:
    """Echo the full config, one key=value per line."""
    fh.write(f"model_x={format_model(cfg.model_x)}\n")
    fh.write(f"model_y={format_model(cfg.model_y)}\n")
    fh.write(f"n={cfg.n}\n")
    fh.write(f"reps={cfg.reps}\n")
    fh.write(f"seed={cfg.seed}\n")
    fh.write(f"k_grid={','.join(str(k) for k in cfg.k_grid)}\n")
    fh.write(f"estimators={','.join(cfg.estimators)}\n")
    fh.write(f"complete_data={int(cfg.complete_data)}\n")
