"""Property tests of the tail-curve builder and the tie order on tie-heavy blocks.

Blocks mix integer days, which tie within and across rows, with continuous
values.  The block kernels must give each row the bits of a lone sample, and
the top cut of a row must keep the values and indicators that a sort of the
whole row keeps, ties at the cut included.  The threshold-selection scan,
run for every k at once, must give the Fenwick loop's bits on paths whose
values tie and whose holes fall anywhere.  On lone samples of the same
values: every estimator's ``sweep`` is scale invariant, reads the pointwise
value at any integer thresholds, and new's split path and per-rank terms give
its serial bits.
"""

import numpy as np
import oracle
import pytest
from test_input_rules import _reference_curve

from tailcens import (
    ESTIMATOR_IDS, delta_curve, evaluate, hill, integrate_delta, new_terms, new_weighted, p_hat, sort_censored, sweep,
)
from tailcens.censored import SortedCensoredSample, _sorted, _top_sorted
from tailcens.estimators import _new_loop
from tailcens.selection import _scan
from tailcens.tailprocess import _fit_stats

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

_VALUES = st.one_of(st.integers(1, 6).map(float), st.floats(0.5, 1e3))


@st.composite
def blocks(draw, max_rows=5):
    """(z, delta, k): a block of 1..max_rows rows of n = 3..60 values, and a threshold 2 <= k <= n - 1."""
    n, rows = draw(st.integers(3, 60)), draw(st.integers(1, max_rows))
    z = draw(arrays(np.float64, (rows, n), elements=_VALUES))
    delta = draw(arrays(np.int64, (rows, n), elements=st.integers(0, 1)))
    return z, delta, draw(st.integers(2, n - 1))


def lone(z, delta, i):
    return sort_censored(z[i], delta[i])


@given(blocks(), st.data())
def test_top_cut_keeps_the_top_of_the_whole_sort(block, data):
    z, delta, _ = block
    m = data.draw(st.integers(1, z.shape[-1]))
    top, whole = _top_sorted(z, delta, m), _sorted(z, delta)
    for got, want in zip(top, (whole[0][:, -m:], whole[1][:, -m:], whole[2][:, :m])):
        assert np.array_equal(got, want)


@given(blocks(max_rows=8))
def test_block_fit_stats_are_lone_fit_stats(block):
    z, delta, k = block
    samples = [lone(z, delta, i) for i in range(z.shape[0])]
    # a fit with p_hat > 0 needs hill > 0: gof_pvalue raises DegenerateNullError on any other row
    scored = [i for i, s in enumerate(samples) if p_hat(s, k) == 0.0 or hill(s, k) > 0.0]
    if not scored:
        return
    v = SortedCensoredSample(*_top_sorted(z[scored], delta[scored], k + 1))
    ks, cvm, p = _fit_stats(v, k)
    for row, i in enumerate(scored):
        assert (ks[row], cvm[row], p[row]) == (*oracle.fit_stats(samples[i], k), p_hat(samples[i], k))


@given(blocks(max_rows=1))
def test_delta_curve_is_the_grouped_reference(block):
    z, delta, k = block
    s = lone(z, delta, 0)
    curve = delta_curve(s, k)
    breakpoints, levels = _reference_curve(s, k)
    assert np.array_equal(curve.breakpoints, breakpoints)
    np.testing.assert_allclose(curve.levels, levels, rtol=1e-13, atol=0)


@given(blocks(max_rows=1))
def test_curve_integral_is_new(block):
    z, delta, k = block
    s = lone(z, delta, 0)
    got, want = integrate_delta(delta_curve(s, k)), new_weighted(s, k)
    assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@given(blocks(max_rows=1), st.integers(-30, 30))
def test_sweep_is_bit_invariant_under_power_of_two_scaling(block, power):
    z, delta, _ = block
    s, scaled = lone(z, delta, 0), lone(z * 2.0**power, delta, 0)  # every ratio of values is kept exactly
    ks = np.arange(s.n + 1)
    for estimator_id in ESTIMATOR_IDS:
        assert np.array_equal(bits(sweep(scaled, estimator_id, ks)), bits(sweep(s, estimator_id, ks)))


@given(blocks(max_rows=1), st.floats(1e-6, 1e6))
def test_sweep_is_scale_invariant(block, scale):
    z, delta, _ = block
    # invariance is of one sample: a scale that rounds two distinct values to one makes a new tie
    assume(np.unique(z * scale).size == np.unique(z).size)
    s, scaled = lone(z, delta, 0), lone(z * scale, delta, 0)
    ks = np.arange(s.n + 1)
    for estimator_id in ESTIMATOR_IDS:
        # each log ratio moves by a few ulps of 1 whatever its size: absolute as well as relative 1e-12
        np.testing.assert_allclose(sweep(scaled, estimator_id, ks), sweep(s, estimator_id, ks), rtol=1e-12, atol=1e-12)


@given(blocks(max_rows=1), st.lists(st.one_of(st.integers(-3, 63), st.integers(-(2**63), 2**63 - 1)), max_size=12))
def test_sweep_reads_the_pointwise_value_at_any_integer_thresholds(block, ks):
    z, delta, _ = block
    s = lone(z, delta, 0)
    for estimator_id in ESTIMATOR_IDS:
        want = []
        for k in ks:
            try:
                want.append(evaluate(s, k, estimator_id))
            except ValueError:  # out of range, or undefined at k
                want.append(np.nan)
        for grid in (ks, np.array(ks, dtype=np.int64)):
            assert np.array_equal(bits(sweep(s, estimator_id, grid)), bits(want))


@given(blocks(max_rows=1))
def test_new_terms_sum_to_new(block):
    z, delta, k = block
    s = lone(z, delta, 0)
    assert bits(np.sum(new_terms(s, k)[0])) == bits(new_weighted(s, k))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # the fixture's patches hold for every example
@given(block=blocks(max_rows=1))
def test_split_new_path_is_the_serial_loop(forked, block):
    z, delta, _ = block
    s = lone(z, delta, 0)
    ks = np.arange(2, s.n)
    splits = len(forked)
    got = sweep(s, "new", ks)
    assert len(forked) == splits + (ks.size >= 2)  # split over two processes from two ks on
    assert np.array_equal(bits(got), bits(_new_loop(s, ks)))


@st.composite
def paths(draw):
    """(path_ks, path, k_min): a path of 2..300 terms from a few values, NaN holes anywhere, one term defined."""
    size, start = draw(st.integers(2, 300)), draw(st.integers(1, 2))
    path = draw(arrays(np.float64, size, elements=st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 3.0])))
    holes = draw(arrays(np.bool_, size))
    holes[draw(st.integers(0, size - 1))] = False
    path[holes] = np.nan
    return np.arange(start, start + size), path, draw(st.integers(2, start + size - 1))


@given(paths(), st.floats(0.0, 0.5))
def test_scan_is_the_fenwick_loop(case, theta):
    path_ks, path, k_min = case
    got, want = _scan(path_ks, path, theta, k_min), oracle.scan(path_ks, path, theta, k_min)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
