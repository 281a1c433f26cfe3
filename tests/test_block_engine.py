"""The block replicate engine against one pipeline per replicate.

``gof_pvalue``, ``run_bias_rmse`` and ``run_variance_check`` draw their
replicates in blocks of rows and run the estimator and fit-statistic
kernels along the block axis, keeping only each row's top k+1 values where
the statistic reads nothing else.  The references in ``oracle.py`` run the
public one-sample functions once per replicate; every result must equal
them bit for bit, whatever the block size.
"""

import dataclasses
import re

import numpy as np
import pytest
import oracle
from conftest import draw_block

from tailcens import (
    ESTIMATOR_IDS,
    Burr,
    Frechet,
    LogGamma,
    McConfig,
    Pareto,
    default_k_grid,
    generate_censored,
    gof_pvalue,
    new_weighted,
    run_bias_rmse,
    run_variance_check,
    sort_censored,
    stream,
    sweep,
)
from tailcens.censored import _BLOCK_VALUES, _blocks
from tailcens.estimators import _sweep
from tailcens.tailprocess import _fit_stats

# draws within about 1e-14 of 1, a few dozen distinct values: tie groups
# with mixed indicators straddle the cut at most thresholds
TIES = Frechet(1e-15)


def rows(n):
    return _blocks(n, _BLOCK_VALUES).step


def tie_counts(samples, k):
    """Counts over samples of two tie kinds at k.

    ``cut``: a tie group with mixed indicators runs from the top k across
    the threshold to values below it, so deaths-first order decides p_hat;
    ``curve``: the tail curve has fewer than k-1 breakpoints.
    """
    cut = curve = 0
    for s in samples:
        zr, dr = s.z[::-1], s.delta[::-1]
        group = dr[zr == zr[k]]
        cut += bool(zr[k - 1] == zr[k] == zr[k + 1] and group.min() != group.max())
        positions = zr[1:k] / zr[k]
        curve += bool(positions[-1] <= 1.0 or np.any(positions[:-1] == positions[1:]))
    return cut, curve


def null_models(s, k):
    p = s.top_delta_prefix[k - 1] / k
    null_x = Pareto(new_weighted(s, k))
    return null_x, Pareto(null_x.gamma * p / (1.0 - p))


def assert_gof_equal(s, k, reps, seed):
    report = gof_pvalue(s, k, reps=reps, seed=seed, workers=2)
    assert dataclasses.asdict(report) == oracle.gof_report(s, k, reps, seed)


def assert_mc_equal(cfg):
    result = run_bias_rmse(cfg)
    for got, want in zip((result.bias, result.rmse, result.undefined_count), oracle.bias_rmse(cfg)):
        assert np.array_equal(got, want, equal_nan=True)


def config(model_x, model_y, n, reps, k_grid=None, complete_data=False):
    return McConfig(model_x, model_y, n, reps, k_grid or default_k_grid(n), ESTIMATOR_IDS, 5, complete_data)


def test_block_sizes():
    assert _BLOCK_VALUES == 2**14
    assert [rows(n) for n in (200, 163, 2_000, 16_384, 20_000)] == [81, 100, 8, 1, 1]
    starts = _blocks(200, 163)
    assert [len(range(163)[lo : lo + starts.step]) for lo in starts] == [81, 81, 1]
    assert [r for lo in starts for r in range(163)[lo : lo + starts.step]] == list(range(163))


def test_blocks_are_built_on_use():
    starts = _blocks(200, 2**70)  # a list of 2**70 / 81 blocks would never finish
    assert type(starts) is range and starts.step == 81
    assert range(2**70)[starts[-1] : starts[-1] + starts.step].stop == 2**70


class TestGof:
    @pytest.mark.parametrize("n,reps", [(150, 100), (163, 100), (200, 162), (200, 163)])
    def test_reps_below_at_and_off_block_multiples(self, n, reps):
        s = sort_censored(*generate_censored(Pareto(1.0), Pareto(1.0), n, stream(55)))
        assert_gof_equal(s, 30, reps, 9)

    def test_one_row_blocks_and_overflowing_null_censoring(self):
        # n > 2**14, and p_hat = 0.99 puts the null censoring index near 99 * gamma1_hat
        n, k = 20_000, 100
        z = Pareto(0.8).sample(n, stream(61))
        d = np.ones(n, dtype=np.int64)
        d[np.argmax(z)] = 0
        s = sort_censored(z, d)
        assert rows(n) == 1
        assert_gof_equal(s, k, 100, 0)

    def test_ties_at_the_cut_and_in_the_curve(self):
        n, k, reps, seed = 200, 40, 100, 0
        s = oracle.draw(TIES, TIES, n, 3, 0)
        cut, curve = tie_counts([oracle.draw(*null_models(s, k), n, seed, r) for r in range(reps)], k)
        assert cut > 0 and curve > 0  # rows tie at the cut and in the curve
        assert_gof_equal(s, k, reps, seed)

    @pytest.mark.parametrize("lifetime,k", [(Frechet(1e-14), 40), (TIES, 40), (Burr(1.0, 2.0, 1.0), 150)])
    def test_null_rows_score_as_lone_samples(self, lifetime, k):
        # each row's statistics, not only the counts that reach the p-values
        n, reps, seed = 200, 120, 2
        null_x, null_y = null_models(oracle.draw(lifetime, lifetime, n, 3, 0), k)
        ks, cvm, p = _fit_stats(draw_block(null_x, null_y, n, seed, range(reps), top=k + 1), k)
        for r in range(reps):
            null = oracle.draw(null_x, null_y, n, seed, r)
            assert (ks[r], cvm[r], p[r]) == (*oracle.fit_stats(null, k), null.top_delta_prefix[k - 1] / k)

    def test_degenerate_null_replicates_counted(self):
        # p_hat = 0.1 at k = 10: a null replicate often observes none of its top 10
        z = Pareto(1.0).sample(300, stream(4))
        d = np.zeros(300, dtype=np.int64)
        d[np.argsort(z)[-3]] = 1
        s = sort_censored(z, d)
        report = gof_pvalue(s, 10, reps=200, seed=1)
        assert report.degenerate > 0
        assert dataclasses.asdict(report) == oracle.gof_report(s, 10, 200, 1)


class TestBiasRmse:
    @pytest.mark.parametrize("reps", [5, 81, 100])
    def test_reps_below_at_and_off_block_multiples(self, reps):
        assert_mc_equal(config(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 2.0), 200, reps))

    def test_one_row_blocks(self):
        assert_mc_equal(config(Pareto(1.0), Pareto(2.0), 17_000, 3, (1, 5, 100, 2_000, 16_999)))

    def test_complete_data(self):
        assert_mc_equal(config(Pareto(0.5), Pareto(1.0), 200, 90, complete_data=True))

    def test_loggamma_lifetime(self):
        assert_mc_equal(config(LogGamma(2.0, 0.7), Pareto(1.5), 300, 60))

    def test_ties(self):
        cfg = config(TIES, TIES, 200, 100)
        cut, _ = tie_counts([oracle.draw(TIES, TIES, 200, cfg.seed, r) for r in range(cfg.reps)], 40)
        assert cut > 0
        assert_mc_equal(cfg)

    def test_lifetime_overflow_names_the_model(self):
        model = Frechet(200.0)
        with pytest.raises(ValueError, match=re.escape(repr(model))):
            run_bias_rmse(config(model, Pareto(1.0), 200, 100))

    def test_complete_data_lifetime_outside_positive_reals_names_the_model(self):
        model = Burr(1.0, 0.01, 1.0)  # its lifetimes underflow to 0 and overflow to inf
        with pytest.raises(ValueError, match=re.escape(repr(model))):
            run_bias_rmse(config(model, Pareto(1.0), 200, 100, complete_data=True))


class TestVarianceCheck:
    @pytest.mark.parametrize(
        "model_x,model_y,n,k,reps,complete_data",
        [
            (Pareto(1.0), Pareto(1.0), 200, 20, 5, False),
            (Pareto(1.0), Pareto(1.0), 200, 20, 81, False),
            (Pareto(1.0), Pareto(1.0), 200, 20, 100, False),
            (Pareto(1.0), Pareto(1.0), 17_000, 300, 3, False),
            (Pareto(1.0), Pareto(1.0), 200, 199, 20, False),
            (Pareto(0.5), Pareto(1.0), 200, 30, 90, True),
            (LogGamma(2.0, 0.7), Pareto(1.5), 300, 40, 60, False),
            (TIES, TIES, 200, 40, 100, False),
        ],
    )
    def test_against_one_replicate_at_a_time(self, model_x, model_y, n, k, reps, complete_data):
        got = run_variance_check(model_x, model_y, n, k, reps, 7, complete_data, workers=2)
        assert got == oracle.variance_check(model_x, model_y, n, k, reps, 7, complete_data)

    def test_tie_design_cuts_at_a_tie(self):
        cut, _ = tie_counts([oracle.draw(TIES, TIES, 200, 7, r) for r in range(100)], 40)
        assert cut > 0

    def test_lifetime_overflow_names_the_model(self):
        model = Pareto(200.0)
        with pytest.raises(ValueError, match=re.escape(repr(model))):
            run_variance_check(model, Pareto(1.0), 200, 20, 100, 0)


class TestKernelsAlongTheBlockAxis:
    """One kernel serves a lone sample and a block: each row gets the lone sample's bits."""

    @pytest.mark.parametrize("model_x,model_y", [(Burr(1.0, 2.0, 1.0), Frechet(0.9)), (TIES, TIES)])
    def test_whole_rows(self, model_x, model_y):
        n = 120
        block = draw_block(model_x, model_y, n, 3, range(10, 16))
        ks = np.arange(0, n + 1)
        for j, r in enumerate(range(10, 16)):
            s = oracle.draw(model_x, model_y, n, 3, r)
            assert np.array_equal(block.z[j], s.z) and np.array_equal(block.delta[j], s.delta)
            for est in ESTIMATOR_IDS:
                assert np.array_equal(_sweep(block, est, ks)[j], sweep(s, est, ks), equal_nan=True)

    @pytest.mark.parametrize("model_x,model_y", [(Burr(1.0, 2.0, 1.0), Frechet(0.9)), (TIES, TIES)])
    @pytest.mark.parametrize("k", [1, 2, 17, 119])
    def test_top_k_plus_one_rows(self, model_x, model_y, k):
        n = 120
        block = draw_block(model_x, model_y, n, 3, range(6), top=k + 1)
        for j in range(6):
            s = oracle.draw(model_x, model_y, n, 3, j)
            assert np.array_equal(block.z[j], s.z[-k - 1 :]) and np.array_equal(block.delta[j], s.delta[-k - 1 :])
            assert np.array_equal(block.top_delta_prefix[j], s.top_delta_prefix[: k + 1])
            for est in ("hill", "efg", "new"):
                assert np.array_equal(_sweep(block, est, [k])[j], sweep(s, est, [k]), equal_nan=True)
