"""Replicate memory does not grow with ``reps``, nor with the sample or the estimators beyond what a step reads.

The replicate loop derives the stream keys for a chunk of blocks at a time,
``gof_pvalue`` keeps per-block counts rather than every null statistic, and
``run_bias_rmse`` folds each block's errors into running sums rather than
keeping every estimate, so ten times the replicates need no more memory than
the block they run in.  ``gof_pvalue`` reads the observed sample through its
top k+1 values, so the caller's sample caches no n-sized view, and
``run_bias_rmse`` folds one estimator's rows at a time.
"""

import dataclasses
import tracemalloc

import numpy as np
import oracle
import pytest

from tailcens import (
    Burr, McConfig, Pareto, default_k_grid, generate_censored, gof_pvalue, run_bias_rmse, sort_censored, stream,
)


def gof_peak_bytes(s, k, reps):
    tracemalloc.start()
    try:
        gof_pvalue(s, k, reps, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gof_peak_memory_stays_flat_from_1e4_to_1e5_reps():
    s = sort_censored(*generate_censored(Pareto(1.0), Pareto(2.0), 20, stream(5)))
    gof_pvalue(s, 5, 100, seed=1)  # modules and cached views are loaded before measuring
    small, large = gof_peak_bytes(s, 5, 10**4), gof_peak_bytes(s, 5, 10**5)
    assert large <= 2 * small, f"peak {large / 2**20:.2f} MiB at 1e5 reps against {small / 2**20:.2f} MiB at 1e4"


def bias_rmse_peak_bytes(cfg):
    tracemalloc.start()
    try:
        run_bias_rmse(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mc_peak_bytes(reps):
    return bias_rmse_peak_bytes(McConfig(Pareto(1.0), Pareto(2.0), 40, reps, default_k_grid(40), ("new", "efg", "ww1"),
                                         seed=1))


def test_bias_rmse_peak_memory_stays_flat_from_1e3_to_1e4_reps():
    mc_peak_bytes(10)  # modules are loaded before measuring
    small, large = mc_peak_bytes(10**3), mc_peak_bytes(10**4)
    assert large <= 2 * small, f"peak {large / 2**20:.2f} MiB at 1e4 reps against {small / 2**20:.2f} MiB at 1e3"


@pytest.mark.parametrize("decimals", [None, 1])  # 1: rounded to integer-like days, ties at and around the cut
def test_gof_caches_no_view_on_the_observed_sample_and_keeps_its_report(decimals):
    z, delta = generate_censored(Pareto(1.0), Pareto(2.0), 2_000, stream(7))
    s, k = sort_censored(z if decimals is None else np.round(z, decimals), delta), 60
    report = gof_pvalue(s, k, reps=200, seed=4)
    assert not {"_z_desc", "_top_float", "_log_spacings", "_hill_sums"} & set(vars(s))
    assert dataclasses.asdict(report) == oracle.gof_report(s, k, 200, 4)  # the whole sample read, one replicate a time


def bits(result, e, j):
    return [np.float64(getattr(result, field)[e, j]).view(np.int64) for field in ("bias", "rmse", "undefined_count")]


@pytest.mark.parametrize("model_y,complete_data,estimator", [
    (Pareto(2.0), False, "new"),
    (Pareto(2.0), True, "ww1"),
    (Pareto(0.1), False, "efg"),  # p ~ 0.09: efg is undefined on many draws at k = 5
])
def test_a_lone_cell_keeps_its_bits_inside_a_wider_grid(model_y, complete_data, estimator):
    # the fold sums each cell's replicates in order, one estimator at a time: a one-k grid of one estimator too
    base = dict(model_x=Pareto(1.0), model_y=model_y, n=80, reps=500, seed=5, complete_data=complete_data)
    lone = run_bias_rmse(McConfig(k_grid=(5,), estimators=(estimator,), **base))
    wide = run_bias_rmse(McConfig(k_grid=(40, 5, 20), estimators=("hill", estimator, "ww2"), **base))
    assert bits(lone, 0, 0) == bits(wide, 1, 1)
    undefined = lone.undefined_count[0, 0]
    assert (0 < undefined < 500) if estimator == "efg" else undefined == 0


# Counts are added into one running sum a process, so ten times the replicates add no per-block results.  Both
# designs start where the key pass is full size (censored._KEY_ROWS rows, 4 096): below it, key memory still
# grows with reps by design.  The bound leaves room for numpy's and the interpreter's own allocations, which grow
# by 12 to 20 KB over these ranges for a scorer that returns a constant; per-block results grew 49 and 87 KB.
GROWTH_BOUND = 32 * 2**10


def test_gof_peak_grows_by_no_per_block_counts_from_1e4_to_1e5_reps():
    s = sort_censored(*generate_censored(Pareto(1.0), Pareto(2.0), 20, stream(5)))
    gof_pvalue(s, 5, 100, seed=1)
    small, large = gof_peak_bytes(s, 5, 10**4), gof_peak_bytes(s, 5, 10**5)
    assert large - small < GROWTH_BOUND, f"the peak grew {(large - small) / 2**10:.1f} KiB"


def test_bias_rmse_peak_grows_by_no_per_block_counts_from_4096_to_40960_reps():
    mc_peak_bytes(10)
    small, large = mc_peak_bytes(4_096), mc_peak_bytes(40_960)
    assert large - small < GROWTH_BOUND, f"the peak grew {(large - small) / 2**10:.1f} KiB"


def test_bias_rmse_peak_at_the_bench_simulate_design():
    # simulate's design in the benchmark: P033 (burr:1,2,1 censored by burr:1,2,2.030303), n = 200, three estimators.
    # Whole-row blocks of 2**13 values (40 rows) peak at about 0.78 MiB here; blocks of 2**14 values peaked at 1.51.
    cfg = McConfig(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 2.030303), 200, 200, default_k_grid(200), ("new", "efg", "ww1"),
                   seed=0)
    run_bias_rmse(dataclasses.replace(cfg, reps=5))  # modules are loaded before measuring
    peak = bias_rmse_peak_bytes(cfg)
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
