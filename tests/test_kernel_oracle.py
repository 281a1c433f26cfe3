"""The one kernel per estimator against the direct-sum reference formulas.

Pointwise estimators read the same kernels as ``sweep``, so comparing the
two checks a kernel only against itself; these tests compare both with the
formulas in ``oracle.py``.
"""

import numpy as np
import pytest
from scipy import integrate
from oracle import ORACLES, km_survival, weighted_log_sum
from test_sweep_kernels import PREFIX_SUM_IDS, integer_day_sample

from tailcens import (
    ESTIMATOR_IDS,
    Burr,
    UndefinedEstimateError,
    evaluate,
    generate_censored,
    kaplan_meier,
    sort_censored,
    stream,
    sweep,
    weighted_functional,
)
from tailcens.estimators import min_valid_k


def oracle_path(s, estimator_id, ks):
    return np.asarray([ORACLES[estimator_id](s, int(k)) for k in ks])


@pytest.fixture(scope="module")
def tie_heavy():
    return sort_censored(*integer_day_sample(5_000, 35))


class TestPrefixSumKernels:
    @pytest.mark.parametrize("seed", range(12))
    def test_model_pairs(self, sample_factory, seed):
        s = sample_factory(seed)
        ks = np.arange(1, s.n)
        for est in PREFIX_SUM_IDS:
            np.testing.assert_allclose(sweep(s, est, ks), oracle_path(s, est, ks), rtol=1e-12, atol=0)

    def test_tie_heavy_days(self, tie_heavy):
        ks = np.arange(1, tie_heavy.n, 13)
        for est in PREFIX_SUM_IDS:
            np.testing.assert_allclose(
                sweep(tie_heavy, est, ks), oracle_path(tie_heavy, est, ks), rtol=1e-12, atol=0
            )

    def test_large_n(self):
        n = 100_000
        s = sort_censored(*generate_censored(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 2.0), n, stream(36)))
        ks = np.unique(np.concatenate([[1, 2, 3], np.arange(10, n, 4_999), [n - 2, n - 1]]))
        for est in PREFIX_SUM_IDS:
            np.testing.assert_allclose(sweep(s, est, ks), oracle_path(s, est, ks), rtol=1e-12, atol=0)

    def test_undefined_where_the_oracle_is(self):
        s = sort_censored([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1, 1, 0, 1, 0, 0])
        ks = np.arange(1, s.n)
        for est in PREFIX_SUM_IDS:
            assert np.array_equal(np.isnan(sweep(s, est, ks)), np.isnan(oracle_path(s, est, ks)))


class TestNewKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_on_model_pairs(self, sample_factory, seed):
        s = sample_factory(seed)
        ks = np.arange(2, s.n)
        assert np.array_equal(sweep(s, "new", ks), oracle_path(s, "new", ks))

    def test_bitwise_on_tie_heavy_days(self, tie_heavy):
        ks = np.arange(2, tie_heavy.n, 97)
        assert np.array_equal(sweep(tie_heavy, "new", ks), oracle_path(tie_heavy, "new", ks))

    def test_weighted_functional_against_oracle(self, sample_factory):
        s = sample_factory(4)
        g = lambda x: x * (1.0 - x)
        for k in (2, 7, s.n // 2, s.n - 1):
            assert weighted_functional(s, k) == weighted_log_sum(s, k)
            gvals = np.asarray([g(t) for t in np.arange(1, k) / (k + 1)])
            norm = integrate.quad(lambda x: g(x) * (-np.log(x)) ** 1.5, 0.0, 1.0, epsabs=1e-10)[0]
            want = weighted_log_sum(s, k, gvals, 1.5) / norm
            assert weighted_functional(s, k, g=g, alpha=1.5) == pytest.approx(want, rel=1e-12)


class TestPointwiseReadsTheKernel:
    @pytest.mark.parametrize("estimator_id", ESTIMATOR_IDS)
    def test_evaluate_is_a_single_k_sweep(self, tie_heavy, estimator_id):
        for k in range(min_valid_k(estimator_id), tie_heavy.n, 111):
            value = sweep(tie_heavy, estimator_id, [k])[0]
            if np.isnan(value):
                with pytest.raises(UndefinedEstimateError):
                    evaluate(tie_heavy, k, estimator_id)
            else:
                assert evaluate(tie_heavy, k, estimator_id) == value

    def test_kaplan_meier_against_oracle(self, tie_heavy):
        np.testing.assert_array_equal(kaplan_meier(tie_heavy).values, 1.0 - km_survival(tie_heavy))


class TestTailViewIsCached:
    def test_built_once_and_read_only(self, sample_factory):
        s = sample_factory(5)
        for est in ESTIMATOR_IDS:
            sweep(s, est, [2, 3])
        pieces = {name: getattr(s, name) for name in ("_z_desc", "_top_float", "_log_spacings", "_hill_sums", "_km_desc")}
        for est in ESTIMATOR_IDS:
            evaluate(s, 3, est)
        for name, arr in pieces.items():
            assert getattr(s, name) is arr
            assert not arr.flags.writeable

    def test_hill_does_not_build_kaplan_meier(self, sample_factory):
        s = sample_factory(6)
        evaluate(s, 5, "hill")
        assert "_km_desc" not in vars(s)
