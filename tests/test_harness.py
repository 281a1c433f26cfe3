import io as io_module
import math

import numpy as np
import pytest

from tailcens import (
    McConfig,
    Pareto,
    default_k_grid,
    run_bias_rmse,
    run_variance_check,
)
from tailcens.harness import RESULT_CSV_HEADER, write_meta, write_result_csv


def small_config(**overrides):
    base = dict(
        model_x=Pareto(1.0),
        model_y=Pareto(1.0),
        n=80,
        reps=20,
        k_grid=(5, 10, 20, 40),
        estimators=("hill", "efg", "ww1", "ww2", "new"),
        seed=3,
    )
    base.update(overrides)
    return McConfig(**base)


class TestConfig:
    def test_default_grid(self):
        grid = default_k_grid(200)
        assert grid[0] == 5 and grid[-1] <= 195
        assert len(grid) <= 100
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_default_grid_small_n(self):
        assert default_k_grid(12) == (5, 6, 7)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"reps": 0},
            {"k_grid": (0,)},
            {"k_grid": (80,)},
            {"estimators": ("hill", "bogus")},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)


class TestBiasRmse:
    def test_single_replicate_degeneracy(self):
        cfg = small_config(reps=1)
        result = run_bias_rmse(cfg)
        assert np.allclose(result.rmse, np.abs(result.bias), equal_nan=True)

    def test_deterministic_across_runs(self):
        cfg = small_config()
        a, b, c = (run_bias_rmse(cfg) for _ in range(3))
        for x, y in ((a, b), (a, c)):
            assert np.array_equal(x.bias, y.bias, equal_nan=True)
            assert np.array_equal(x.rmse, y.rmse, equal_nan=True)
            assert np.array_equal(x.undefined_count, y.undefined_count)

    def test_variance_nonnegativity(self):
        result = run_bias_rmse(small_config(reps=40))
        defined = ~np.isnan(result.bias)
        assert np.all(result.rmse[defined] ** 2 - result.bias[defined] ** 2 >= -1e-12)

    def test_undefined_counted_not_fatal(self):
        # p ~ 0.09: efg often undefined at k=5
        cfg = small_config(model_y=Pareto(0.1), reps=50, k_grid=(5,), estimators=("efg",))
        result = run_bias_rmse(cfg)
        assert 0 < result.undefined_count[0, 0] < 50
        assert math.isfinite(result.bias[0, 0])

    def test_complete_data_mode(self):
        cfg = small_config(complete_data=True, estimators=("hill", "new"), reps=10)
        result = run_bias_rmse(cfg)
        assert np.all(result.undefined_count == 0)
        assert np.all(np.isfinite(result.bias))

    def test_pooled_disjoint_seeds_consistent(self):
        # the bias estimate from two disjoint-seed halves pools to the
        # same expectation: both halves must agree within joint noise
        cfg_a = small_config(complete_data=True, estimators=("new",), k_grid=(20,), reps=200, seed=1)
        cfg_b = small_config(complete_data=True, estimators=("new",), k_grid=(20,), reps=200, seed=2)
        ra, rb = run_bias_rmse(cfg_a), run_bias_rmse(cfg_b)
        spread = math.sqrt(ra.rmse[0, 0] ** 2 + rb.rmse[0, 0] ** 2) / math.sqrt(200)
        assert abs(ra.bias[0, 0] - rb.bias[0, 0]) < 4 * spread

    def test_single_point_bias_value(self):
        # paper-style n=200 run at p=0.7; the guard-floor weights keep this
        # well away from the nominal index, see the acceptance suite
        cfg = McConfig(
            model_x=Pareto(1.0),
            model_y=Pareto(7.0 / 3.0),
            n=200,
            reps=50,
            k_grid=(30,),
            estimators=("new",),
            seed=11,
        )
        result = run_bias_rmse(cfg)
        assert math.isfinite(result.bias[0, 0])
        assert result.rmse[0, 0] >= abs(result.bias[0, 0])


    def test_a_cell_does_not_depend_on_the_rest_of_the_grid(self):
        # every cell sums its replicates in order, so a lone cell gets the bits it gets inside a wider grid
        lone = run_bias_rmse(small_config(model_y=Pareto(2.0), reps=300, k_grid=(20,), estimators=("new",)))
        wide = run_bias_rmse(small_config(model_y=Pareto(2.0), reps=300, k_grid=(10, 20), estimators=("hill", "new")))
        for field in ("bias", "rmse", "undefined_count"):
            assert getattr(lone, field)[0, 0] == getattr(wide, field)[1, 1]


class TestRunningSums:
    """The summation order a running (O(block) memory) bias/RMSE aggregate would rely on.

    ``np.nansum`` along the replicate axis of a C-ordered cube adds row after
    row, so folding blocks into an accumulator row, with the accumulator as the
    first row of each reduction, gives the one-shot sum bit for bit.  Summing
    each block on its own and adding the sums does not.
    """

    @pytest.mark.parametrize("reps,block", [(257, 64), (1_000, 7), (4_999, 333), (20_000, 4_096)])
    def test_running_nansum_matches_one_nansum(self, reps, block):
        rng = np.random.default_rng(reps * 31 + block)
        cube = rng.standard_normal((reps, 5, 12)) * rng.lognormal(0.0, 2.0, (reps, 5, 12))
        cube[rng.random(cube.shape) < 0.05] = np.nan
        assert reps % block and np.isnan(cube).any(axis=0).all()
        for values in (cube, cube**2):  # the sums bias and RMSE need
            acc = np.zeros(values.shape[1:])
            for start in range(0, reps, block):
                acc = np.nansum(np.concatenate([acc[None], values[start : start + block]]), axis=0)
            assert acc.view(np.int64).tolist() == np.nansum(values, axis=0).view(np.int64).tolist()

class TestVarianceCheck:
    def test_complete_data_matches_classical_variance(self):
        # at p = 1 the scaled variance collapses to the square of the index;
        # the mean carries the estimator's real O(log(k)/k) downward shift,
        # (k*hill - log-range)/(k+1), so only a loose sanity bound applies
        mean, scaled_var = run_variance_check(
            Pareto(1.0), Pareto(1.0), n=1000, k=50, reps=400, seed=5, complete_data=True
        )
        assert scaled_var == pytest.approx(1.0, rel=0.25)
        expected_mean = (50 - (np.log(50) + np.euler_gamma)) / 51
        assert mean == pytest.approx(expected_mean, abs=0.05)

    def test_deterministic(self):
        a = run_variance_check(Pareto(1.0), Pareto(1.0), n=200, k=20, reps=50, seed=7)
        b = run_variance_check(Pareto(1.0), Pareto(1.0), n=200, k=20, reps=50, seed=7, workers=2)
        assert a == b


class TestOutput:
    def test_result_csv_shape(self):
        cfg = small_config(reps=5)
        result = run_bias_rmse(cfg)
        buf = io_module.StringIO()
        write_result_csv(result, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == RESULT_CSV_HEADER
        assert len(lines) == 1 + len(cfg.estimators) * len(cfg.k_grid)
        first = lines[1].split(",")
        assert first[0] == "hill" and first[1] == "5"
        assert len(first) == 5

    def test_meta_echoes_config(self):
        cfg = small_config()
        buf = io_module.StringIO()
        write_meta(cfg, buf)
        text = buf.getvalue()
        assert "model_x=pareto:1\n" in text
        assert "seed=3\n" in text
        assert "k_grid=5,10,20,40\n" in text
        assert "estimators=hill,efg,ww1,ww2,new\n" in text
        assert "complete_data=0\n" in text
