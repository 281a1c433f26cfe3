"""The array kernels behind ``sweep`` against the pointwise estimators."""

import numpy as np
import pytest

from tailcens import (
    ESTIMATOR_IDS,
    Burr,
    delta_curve,
    evaluate,
    generate_censored,
    integrate_delta,
    new_weighted,
    sort_censored,
    stream,
    sweep,
)
from tailcens.estimators import min_valid_k

PREFIX_SUM_IDS = ("hill", "efg", "ww1", "ww2")


def pointwise_path(s, estimator_id, ks):
    """The reference: one pointwise call per k, NaN where it raises."""
    out = []
    for k in ks:
        try:
            out.append(evaluate(s, int(k), estimator_id))
        except ValueError:  # out of range, or undefined at k
            out.append(np.nan)
    return np.asarray(out)


def integer_day_sample(n, seed):
    """Tie-heavy survival times in whole days, shaped like the AIDS records."""
    life = np.floor(60.0 * Burr(1.0, 2.0, 1.0).sample(n, stream(seed, 0)))
    cens = np.floor(60.0 * Burr(1.0, 2.0, 0.75).sample(n, stream(seed, 1)))
    return np.minimum(life, cens) + 1.0, (life <= cens).astype(np.int64)


@pytest.fixture(scope="module")
def tie_heavy():
    return sort_censored(*integer_day_sample(20_000, 31))


class TestPrefixSumKernels:
    @pytest.mark.parametrize("seed", range(12))
    def test_match_pointwise_on_model_pairs(self, sample_factory, seed):
        s = sample_factory(seed)
        ks = np.arange(0, s.n + 2)
        for est in PREFIX_SUM_IDS:
            np.testing.assert_allclose(sweep(s, est, ks), pointwise_path(s, est, ks), rtol=1e-12, atol=0)

    def test_match_pointwise_on_tie_heavy_days(self, tie_heavy):
        assert 100 < np.unique(tie_heavy.z).size < 1_000  # a few hundred distinct days
        ks = np.arange(1, tie_heavy.n, 37)
        for est in PREFIX_SUM_IDS:
            np.testing.assert_allclose(
                sweep(tie_heavy, est, ks), pointwise_path(tie_heavy, est, ks), rtol=1e-12, atol=0
            )

    def test_match_pointwise_at_large_n(self):
        n = 100_000
        s = sort_censored(*generate_censored(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 2.0), n, stream(32)))
        ks = np.unique(np.concatenate([[1, 2, 3], np.arange(10, n, 1_999), [n - 2, n - 1]]))
        for est in PREFIX_SUM_IDS:
            np.testing.assert_allclose(sweep(s, est, ks), pointwise_path(s, est, ks), rtol=1e-12, atol=0)


class TestNewKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_new_weighted(self, sample_factory, seed):
        s = sample_factory(seed)
        ks = np.arange(2, s.n)
        assert np.array_equal(sweep(s, "new", ks), pointwise_path(s, "new", ks))

    def test_bitwise_equal_on_tie_heavy_days(self, tie_heavy):
        ks = np.arange(2, tie_heavy.n, 997)
        assert np.array_equal(sweep(tie_heavy, "new", ks), pointwise_path(tie_heavy, "new", ks))


class TestSweepContract:
    @pytest.mark.parametrize("estimator_id", ESTIMATOR_IDS)
    def test_value_independent_of_grid(self, sample_factory, estimator_id):
        s = sample_factory(7, n=120)
        ks = np.arange(-1, s.n + 2)
        path = sweep(s, estimator_id, ks)
        for j, k in enumerate(ks):
            single = sweep(s, estimator_id, [k])[0]
            assert single == path[j] or (np.isnan(single) and np.isnan(path[j]))

    @pytest.mark.parametrize("estimator_id", ESTIMATOR_IDS)
    def test_nan_outside_valid_range(self, sample_factory, estimator_id):
        s = sample_factory(8, n=60)
        lo = min_valid_k(estimator_id)
        out = sweep(s, estimator_id, [-3, 0, lo - 1, s.n, s.n + 7])
        assert np.all(np.isnan(out))
        assert np.all(np.isfinite(sweep(s, estimator_id, [lo, s.n - 1])))

    @pytest.mark.parametrize("estimator_id", ESTIMATOR_IDS)
    def test_all_censored_top(self, estimator_id):
        s = sort_censored([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 0, 0])
        out = sweep(s, estimator_id, [1, 2, 3, 4])
        np.testing.assert_array_equal(out, pointwise_path(s, estimator_id, [1, 2, 3, 4]))
        if estimator_id == "efg":
            assert np.all(np.isnan(out[:3])) and np.isfinite(out[3])  # p_hat = 0 up to k = 3

    @pytest.mark.parametrize("estimator_id", ESTIMATOR_IDS)
    def test_empty_grid(self, tiny5, estimator_id):
        assert sweep(tiny5, estimator_id, []).shape == (0,)


class TestTieHeavyProperties:
    def test_curve_integral_equals_new(self, tie_heavy):
        for k in (2, 3, 50, 777, 5_000, 19_999):
            curve = delta_curve(tie_heavy, k)
            assert integrate_delta(curve) == pytest.approx(new_weighted(tie_heavy, k), rel=1e-12)

    def test_new_independent_of_input_order(self):
        z, d = integer_day_sample(2_000, 33)
        base = sort_censored(z, d)
        ks = (2, 10, 200, 1_999)
        want = [new_weighted(base, k) for k in ks]
        for kick in range(4):
            perm = stream(34, kick).permutation(z.size)
            other = sort_censored(z[perm], d[perm])
            assert [new_weighted(other, k) for k in ks] == want
