"""The one-key sample order, and the memory of the threshold-selection scan.

``censored._top_sorted`` orders each row by one uint64 key per point;
``oracle.sorted_pairs``, the two-key ``np.lexsort``, is the reference it
must match bit for bit: whole rows and top cuts, 1-D samples and 2-D
blocks, on ties, subnormal and near-max values and every indicator dtype
``sort_censored`` accepts.  ``reiss_thomas_k`` scans every k
with a fixed number of sample-sized arrays, bounded here per sample point.
"""

import tracemalloc

import numpy as np
import oracle
import pytest

from tailcens import Burr, Pareto, generate_censored, reiss_thomas_k, sort_censored, stream
from tailcens.censored import _top_sorted

MAX = np.finfo(float).max
# each row keeps its largest over its smallest a finite ratio, as sort_censored requires
SUBNORMAL = np.array([5e-324, 1e-323, 5e-324, 2.5e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-17, 5e-16, 1e-310])
NEAR_MAX = np.array([1.0, 2.0, 1e300, MAX, np.nextafter(MAX, 0.0), MAX, 1.0, 1e308, MAX, 2.0])


def assert_bits(got, want):
    """Each array has the reference's dtype, shape and bits."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def day_block(rows, n, seed):
    """Heavy-tailed lifetimes rounded up to whole days, censored: values tie within and across rows."""
    z, delta = generate_censored(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 0.75), rows * n, stream(seed))
    return np.ceil(60.0 * z).reshape(rows, n), delta.reshape(rows, n)


def tied_at_every_cut(n, seed):
    """Rows of runs of one value, each run's indicators mixed, so some run straddles every cut."""
    rng = stream(seed)
    z = np.sort(rng.integers(1, 5, (4, n)), axis=-1).astype(float)
    return z[:, rng.permutation(n)], (rng.random((4, n)) < 0.5).astype(np.int64)


BLOCKS = {
    "days": day_block(6, 300, 22),
    "tied_at_every_cut": tied_at_every_cut(40, 23),
    "subnormal": (np.stack([SUBNORMAL, SUBNORMAL[::-1]]), np.array([[1, 0, 0, 1, 1, 0, 1, 0, 1, 1]] * 2)),
    "near_max": (np.stack([NEAR_MAX, NEAR_MAX[::-1]]), np.array([[0, 1, 1, 0, 1, 0, 1, 1, 0, 0]] * 2)),
}


@pytest.mark.parametrize("name", BLOCKS)
def test_block_sort_is_the_lexsort(name):
    z, delta = BLOCKS[name]
    assert_bits(_top_sorted(z, delta, z.shape[-1]), oracle.sorted_pairs(z, delta))
    for row in range(z.shape[0]):  # a 1-D sample as its own row
        assert_bits(_top_sorted(z[row], delta[row], z.shape[-1]), oracle.sorted_pairs(z[row], delta[row]))


@pytest.mark.parametrize("name", BLOCKS)
def test_top_cut_is_the_top_of_the_lexsort_at_every_m(name):
    z, delta = BLOCKS[name]
    whole_z, whole_d, whole_top = oracle.sorted_pairs(z, delta)
    n = z.shape[-1]
    for m in range(1, n + 1):
        assert_bits(_top_sorted(z, delta, m), (whole_z[:, n - m:], whole_d[:, n - m:], whole_top[:, :m]))
        assert_bits(_top_sorted(z[0], delta[0], m), (whole_z[0, n - m:], whole_d[0, n - m:], whole_top[0, :m]))


@pytest.mark.parametrize("dtype", [bool, np.int32, np.int64, np.float64])
@pytest.mark.parametrize("name", BLOCKS)
def test_sort_censored_is_the_lexsort_for_every_indicator_dtype(name, dtype):
    z, delta = BLOCKS[name]
    for row in range(z.shape[0]):
        s = sort_censored(z[row], delta[row].astype(dtype))
        assert_bits((s.z, s.delta, s.top_delta_prefix), oracle.sorted_pairs(z[row], delta[row]))


def test_sort_censored_casts_integer_observations_and_leaves_its_input_alone():
    z, delta = BLOCKS["tied_at_every_cut"]
    days, flags = z[0].astype(np.int64), delta[0].astype(bool)
    kept = days.copy(), flags.copy()
    s = sort_censored(days, flags)
    assert_bits((s.z, s.delta, s.top_delta_prefix), oracle.sorted_pairs(z[0], delta[0]))
    assert np.array_equal(days, kept[0]) and np.array_equal(flags, kept[1])
    floats = z[0].copy()
    sort_censored(floats, delta[0])
    assert np.array_equal(floats, z[0])


def test_selection_peak_memory_per_sample_point():
    z, delta = day_block(1, 20_000, 18)
    s = sort_censored(z[0], delta[0])
    assert np.unique(s.z).size < s.n // 10
    reiss_thomas_k(sort_censored(*generate_censored(Pareto(1.0), Pareto(2.0), 50, stream(1))), "efg")  # loads modules
    tracemalloc.start()
    try:
        reiss_thomas_k(s, "efg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / s.n <= 185, f"{peak / s.n:.0f} bytes per sample point"
