"""Thresholds in chunks: the selection scan and the ``new`` path across chunk boundaries, and their memory.

``selection._scan`` searches and updates ``CHUNK`` thresholds at a time at
each tree level, and ``estimators._new_factors`` turns ``CHUNK`` thresholds at
a time into Python scalars.  Paths longer than a chunk are pinned here bit for
bit to ``oracle.scan`` and ``oracle.weighted_log_sum``, also where a chunk
boundary falls inside a run of undefined path terms or of tied thresholds.
The traced memory of both is bounded at n = 20 000.
"""

import tracemalloc

import numpy as np
import oracle
import pytest
from test_new_path_buffers import bits
from test_order_key import day_block
from test_selection import assert_scan_bits
from test_sweep_kernels import integer_day_sample

from tailcens import Burr, Pareto, generate_censored, reiss_thomas_k, sort_censored, stream, sweep
from tailcens.estimators import CHUNK, _new_loop, min_valid_k

N = 2 * CHUNK + 700  # three chunks of thresholds


@pytest.fixture(scope="module")
def days():
    return sort_censored(*integer_day_sample(N, 41))


@pytest.fixture(scope="module")
def censored_top(days):
    """The day sample with its top CHUNK + 300 points censored: efg is undefined across the first chunk boundary."""
    delta = days.delta.copy()
    delta[-(CHUNK + 300):] = 0
    return sort_censored(days.z, delta)


@pytest.mark.parametrize("k_min", [50, CHUNK + 7])
@pytest.mark.parametrize("estimator_id", ["efg", "new"])
def test_scan_bits_at_theta_one_half_with_k_min_above_two(days, estimator_id, k_min):
    path_ks = np.arange(min_valid_k(estimator_id), days.n)
    assert_scan_bits(path_ks, sweep(days, estimator_id, path_ks), 0.5, k_min)


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
def test_undefined_terms_across_a_chunk_boundary(censored_top, theta):
    path_ks = np.arange(1, censored_top.n)
    path = sweep(censored_top, "efg", path_ks)
    first = np.flatnonzero(~np.isnan(path))[0]  # censored points below the cut may extend the undefined run
    assert CHUNK + 300 <= first < path.size // 2
    assert_scan_bits(path_ks, path, theta, 2)
    assert reiss_thomas_k(censored_top, "efg", theta=theta).k_star > path_ks[first]


def test_nan_holes_across_chunk_boundaries():
    rng = stream(183)
    path = rng.integers(0, 9, N) * 0.125 + 0.5
    path[rng.random(N) < 0.3] = np.nan
    for k_min in (2, CHUNK - 1, CHUNK + 2):
        assert_scan_bits(np.arange(2, N + 2), path, 0.3, k_min)


def boundary_in_a_tie_run(s, moved):
    """The first k0 whose grid k0..n-1 puts chunk boundary CHUNK where the threshold moves, or repeats."""
    zr = s.z[::-1]
    for k0 in range(2, s.n - CHUNK):
        if (zr[k0 + CHUNK - 1] != zr[k0 + CHUNK]) == moved:
            return k0
    raise AssertionError("no such grid")


@pytest.mark.parametrize("moved", [False, True])
def test_new_path_across_a_chunk_boundary(days, moved):
    ks = np.arange(boundary_in_a_tie_run(days, moved), days.n)
    assert bits(_new_loop(days, ks)) == bits([oracle.weighted_log_sum(days, k) for k in ks.tolist()])


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_selection_peak_memory_below_140_bytes_per_point():
    z, delta = day_block(1, 20_000, 18)  # test_order_key.py's tie-heavy sample
    s = sort_censored(z[0], delta[0])
    reiss_thomas_k(sort_censored(*generate_censored(Pareto(1.0), Pareto(2.0), 50, stream(1))), "efg")  # loads modules
    peak = traced_peak(reiss_thomas_k, s, "efg")
    assert peak / s.n <= 140, f"{peak / s.n:.0f} bytes per sample point"


def test_new_path_loop_peak_memory_at_n_20000():
    s = sort_censored(*generate_censored(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 0.75), 20_000, stream(19)))
    ks = np.arange(2, s.n)
    _new_loop(s, ks[:3])  # builds the sample's tail view
    peak = traced_peak(_new_loop, s, ks)
    assert peak <= 1.2 * 2**20, f"{peak / 2**20:.2f} MiB"
