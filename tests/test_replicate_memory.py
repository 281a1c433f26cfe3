"""Replicate memory does not grow with ``reps``.

The replicate loop derives the stream keys for a chunk of blocks at a time,
``gof_pvalue`` keeps per-block counts rather than every null statistic, and
``run_bias_rmse`` folds each block's errors into running sums rather than
keeping every estimate, so ten times the replicates need no more memory than
the block they run in.
"""

import tracemalloc

from tailcens import (
    McConfig, Pareto, default_k_grid, generate_censored, gof_pvalue, run_bias_rmse, sort_censored, stream,
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


def mc_peak_bytes(reps):
    cfg = McConfig(Pareto(1.0), Pareto(2.0), 40, reps, default_k_grid(40), ("new", "efg", "ww1"), seed=1)
    tracemalloc.start()
    try:
        run_bias_rmse(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bias_rmse_peak_memory_stays_flat_from_1e3_to_1e4_reps():
    mc_peak_bytes(10)  # modules are loaded before measuring
    small, large = mc_peak_bytes(10**3), mc_peak_bytes(10**4)
    assert large <= 2 * small, f"peak {large / 2**20:.2f} MiB at 1e4 reps against {small / 2**20:.2f} MiB at 1e3"
