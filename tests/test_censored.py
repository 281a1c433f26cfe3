import re

import numpy as np
import pytest

from tailcens import Burr, Frechet, LogGamma, Pareto, censor, censoring_profile, generate_censored, sort_censored, stream


class TestCensor:
    def test_observed(self):
        z, d = censor([2.0], [3.0])
        assert z.tolist() == [2.0]
        assert d.tolist() == [1]

    def test_censored(self):
        z, d = censor([5.0], [1.0])
        assert z.tolist() == [1.0]
        assert d.tolist() == [0]

    def test_tie_counts_as_observed(self):
        _, d = censor([2.0], [2.0])
        assert d.tolist() == [1]

    @pytest.mark.parametrize("x,y", [([1.0, 2.0, 3.0], [5.0]), ([1.0], [[2.0]]), ([1.0, 2.0], [3.0, 4.0, 5.0])])
    def test_shapes_must_match(self, x, y):
        with pytest.raises(ValueError, match="x and y shapes differ"):
            censor(x, y)

    @pytest.mark.parametrize("x,y", [([np.nan], [1.0]), ([1.0], [np.nan]), ([2.0, 1.0], [np.inf, np.nan])])
    def test_nan_rejected(self, x, y):
        with pytest.raises(ValueError, match="no NaN"):
            censor(x, y)


class TestGenerate:
    def test_deterministic(self):
        a = generate_censored(Pareto(1.0), Pareto(2.0), 50, stream(3, 4))
        b = generate_censored(Pareto(1.0), Pareto(2.0), 50, stream(3, 4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_large_sample_proportion(self):
        n = 100_000
        z, d = generate_censored(Pareto(1.0), Pareto(1.0), n, stream(17))
        p = censoring_profile(Pareto(1.0), Pareto(1.0)).p
        assert abs(d.mean() - p) < 0.01
        assert abs(d.mean() - p) < 3.0 * np.sqrt(p * (1 - p) / n)
        assert np.all(z > 0)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            generate_censored(Pareto(1.0), Pareto(1.0), 0, stream(0))

    @pytest.mark.parametrize("model", [Frechet(200.0), Pareto(200.0), LogGamma(1.0, 200.0), Burr(1.0, 0.005, 1.0)])
    def test_lifetime_outside_positive_reals_rejected(self, model):
        # min(inf, y) would silently record an overflowed lifetime as censored
        with pytest.raises(ValueError, match=re.escape(repr(model))):
            generate_censored(model, Pareto(1.0), 200, stream(0))

    def test_censoring_time_of_zero_rejected(self):
        # a censoring time that underflows to 0 would record an observation of 0
        model = Burr(1.0, 0.01, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"{model!r} drew censoring times <= 0")):
            generate_censored(Pareto(1.0), model, 10_000, stream(0))

    def test_overflowing_censoring_time_observes_lifetime(self):
        z, d = generate_censored(Pareto(1.0), Pareto(200.0), 200, stream(0))
        with np.errstate(over="ignore"):  # the public sample warns on overflow
            y = Pareto(200.0).sample(200, stream(0).spawn(2)[1])
        assert np.isinf(y).any()
        assert np.all(np.isfinite(z)) and np.all(d[np.isinf(y)] == 1)


class TestSort:
    def test_basic(self):
        s = sort_censored([3.0, 1.0, 2.0], [1, 1, 0])
        assert s.z.tolist() == [1.0, 2.0, 3.0]
        assert s.delta.tolist() == [1, 0, 1]
        assert s.top_delta_prefix.tolist() == [1, 1, 2]

    def test_tie_policy_uncensored_first(self):
        s = sort_censored([2.0, 2.0], [0, 1])
        assert s.z.tolist() == [2.0, 2.0]
        assert s.delta.tolist() == [1, 0]

    def test_singleton(self):
        s = sort_censored([7.0], [0])
        assert s.z.tolist() == [7.0]
        assert s.delta.tolist() == [0]
        assert s.top_delta_prefix.tolist() == [0]

    def test_idempotent_on_sorted(self):
        s = sort_censored([1.0, 2.0, 3.0], [1, 0, 1])
        again = sort_censored(s.z, s.delta)
        assert np.array_equal(again.z, s.z)
        assert np.array_equal(again.delta, s.delta)
        assert np.array_equal(again.top_delta_prefix, s.top_delta_prefix)

    def test_permutation_invariant_for_distinct_z(self):
        rng = stream(11)
        z = rng.random(60) + 0.5
        d = (rng.random(60) < 0.5).astype(int)
        base = sort_censored(z, d)
        for kick in range(3):
            perm = stream(12, kick).permutation(60)
            other = sort_censored(z[perm], d[perm])
            assert np.array_equal(base.z, other.z)
            assert np.array_equal(base.delta, other.delta)

    def test_multiset_preserved(self):
        rng = stream(13)
        z = np.round(rng.random(100) * 10 + 1, 1)  # forces some ties
        d = (rng.random(100) < 0.4).astype(int)
        s = sort_censored(z, d)
        assert sorted(zip(z, d)) == sorted(zip(s.z, s.delta))

    def test_prefix_invariants(self, sample_factory):
        for seed in range(6):
            s = sample_factory(seed)
            prefix = s.top_delta_prefix
            assert np.all(np.diff(prefix) >= 0)
            assert np.all(prefix <= np.arange(1, s.n + 1))
            assert prefix[-1] == s.delta.sum()

    @pytest.mark.parametrize(
        "z,d,message",
        [
            ([], [], "nonempty"),
            ([0.0], [1], "> 0"),
            ([-1.0], [1], "> 0"),
            ([1.0], [2], "0 or 1"),
            ([1.0, 2.0], [1], "lengths"),
        ],
    )
    def test_validation(self, z, d, message):
        with pytest.raises(ValueError, match=message):
            sort_censored(z, d)

    @pytest.mark.parametrize(
        "z,d,message",
        [
            ([[1, 2], [3, 4]], [[1, 0], [1, 1]], "z must be a 1-D array of numbers, got a 2-D array"),
            ([1.0, 2.0], [[1, 0]], "delta must be a 1-D array of numbers, got a 2-D array"),
            (5.0, 1, "z must be a 1-D array of numbers, got a 0-D array"),
            (["1", "2"], [1, 0], "z must be a 1-D array of numbers"),
            ([1.0, 2.0], ["1", "0"], "delta must be a 1-D array of numbers"),
            ([True, True], [1, 0], "z must be a 1-D array of numbers, got a 1-D array of bool"),
            ([1.0, 2.0j], [1, 0], "z must be a 1-D array of numbers"),
        ],
    )
    def test_sample_rule_shape_and_type(self, z, d, message):
        # a 2-D pair once came back as one sample of 4, and strings were parsed
        with pytest.raises(ValueError, match=message):
            sort_censored(z, d)

    def test_overflowing_ratio_rejected(self):
        # every value is finite, but 1.7e300 / 1e-300 is not: hill and new would be inf
        with pytest.raises(ValueError, match="finite ratio, got 1.7e\\+300 / 1e-300"):
            sort_censored([1e-300, 1e-300, 2e-300, 1e300, 1.5e300, 1.7e300], [1] * 6)
        assert sort_censored([1e-300, 1e7], [1, 1]).n == 2  # a wide but finite ratio is kept

    def test_arrays_read_only(self):
        s = sort_censored([1.0, 2.0], [1, 0])
        with pytest.raises(ValueError):
            s.z[0] = 9.0

    @pytest.mark.parametrize("d", [[0.5, 1, 0.9], [1.0, np.nan, 0.0], [1, 1, -0.2]])
    def test_fractional_indicators_rejected(self, d):
        # an integer cast ahead of the check would truncate 0.5 and 0.9 to 0
        with pytest.raises(ValueError, match="0 or 1"):
            sort_censored([1.0, 2.0, 3.0], d)

    def test_float_and_bool_indicators_accepted(self):
        s = sort_censored([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
        assert s.delta.dtype == np.int64
        assert s.delta.tolist() == [1, 0, 1]
        assert sort_censored([1.0, 2.0, 3.0], [True, False, True]).delta.tolist() == [1, 0, 1]
