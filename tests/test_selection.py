import math
from unittest import mock

import numpy as np
import oracle
import pytest

from conftest import make_sample
from tailcens import (
    ESTIMATOR_IDS, Burr, Pareto, generate_censored, reiss_thomas_k, selection, sort_censored, stream, sweep,
)
from tailcens.estimators import min_valid_k
from tailcens.selection import _k_star, _scan

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # only the property test needs it
    given = None


def constant_hill_sample(n=40, c=0.5, top=5.0):
    # spacings log Z(n-j+1) - log Z(n-j) = c/j make the hill path constant in k
    logs = [top]
    for j in range(1, n):
        logs.append(logs[-1] - c / j)
    z = np.exp(logs[::-1])
    return sort_censored(z, np.ones(n, dtype=int))


def brute_force_selection(s, estimator_id, theta, k_min, k_max, start):
    """Independent reimplementation: plain loops, lower-middle median."""
    path = {}
    for i in range(start, k_max + 1):
        value = sweep(s, estimator_id, [i])[0]
        if not math.isnan(value):
            path[i] = value
    best_k, best_value = None, None
    criterion = {}
    for k in range(k_min, k_max + 1):
        upto = [path[i] for i in sorted(path) if i <= k]
        if len(upto) < 2:
            continue
        med = sorted(upto)[(len(upto) - 1) // 2]
        total = sum(i**theta * abs(path[i] - med) for i in path if i <= k)
        criterion[k] = total / k
        if best_value is None or criterion[k] < best_value:
            best_k, best_value = k, criterion[k]
    return best_k, criterion


class TestReissThomas:
    def test_constant_path_picks_k_min(self):
        s = constant_hill_sample()
        hill_path = sweep(s, "hill", np.arange(1, 40))
        assert np.max(np.abs(hill_path - 0.5)) < 1e-12
        sel = reiss_thomas_k(s, "hill", theta=0.3, k_min=2, k_max=39)
        assert sel.k_star == 2

    def test_matches_brute_force_exactly(self):
        z = Pareto(1.0).sample(1000, stream(123))
        s = sort_censored(z, np.ones(1000, dtype=int))
        sel = reiss_thomas_k(s, "hill", theta=0.3, k_min=2, k_max=999)
        want_k, want_crit = brute_force_selection(s, "hill", 0.3, 2, 999, start=1)
        assert sel.k_star == want_k
        for k, value in want_crit.items():
            assert sel.criterion_values[k - 2] == pytest.approx(value, rel=1e-12)

    def test_brute_force_weighted_estimator(self):
        z = Pareto(1.0).sample(200, stream(124))
        s = sort_censored(z, np.ones(200, dtype=int))
        sel = reiss_thomas_k(s, "new", theta=0.25, k_min=2, k_max=199)
        want_k, _ = brute_force_selection(s, "new", 0.25, 2, 199, start=2)
        assert sel.k_star == want_k

    def test_scale_invariant(self, sample_factory):
        s = sample_factory(0, n=150)
        sel = reiss_thomas_k(s, "hill")
        scaled = sort_censored(s.z * 37.5, s.delta)
        assert reiss_thomas_k(scaled, "hill").k_star == sel.k_star

    def test_deterministic(self, sample_factory):
        s = sample_factory(2, n=100)
        a = reiss_thomas_k(s, "new")
        b = reiss_thomas_k(s, "new")
        assert a.k_star == b.k_star
        assert np.array_equal(a.criterion_values, b.criterion_values, equal_nan=True)

    def test_criterion_minimal_at_k_star(self, sample_factory):
        s = sample_factory(3, n=120)
        sel = reiss_thomas_k(s, "efg")
        assert sel.criterion_values[sel.k_star - sel.k_grid[0]] == np.nanmin(sel.criterion_values)
        finite = sel.criterion_values[~np.isnan(sel.criterion_values)]
        assert np.all(finite >= 0) and np.all(np.isfinite(finite))

    def test_bounds(self, sample_factory):
        s = sample_factory(1, n=80)
        sel = reiss_thomas_k(s, "new", k_min=5, k_max=60)
        assert 5 <= sel.k_star <= 60

    def test_undefined_thresholds_skipped(self):
        # only a couple of uncensored points: efg undefined until they enter
        z = np.arange(1.0, 31.0)
        d = np.zeros(30, dtype=int)
        d[[0, 4]] = 1  # uncensored only at low ranks
        s = sort_censored(z, d)
        sel = reiss_thomas_k(s, "efg", k_min=2, k_max=29)
        assert 2 <= sel.k_star <= 29

    def test_all_undefined_errors(self):
        s = sort_censored(np.arange(1.0, 21.0), np.zeros(20, dtype=int))
        with pytest.raises(ValueError):
            reiss_thomas_k(s, "efg")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": -0.1},
            {"theta": 0.6},
            {"k_min": 1},
            {"k_min": 50, "k_max": 50},
            {"k_max": 1000},
        ],
    )
    def test_validation(self, sample_factory, kwargs):
        s = sample_factory(0, n=60)
        with pytest.raises(ValueError):
            reiss_thomas_k(s, "hill", **kwargs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_sample_names_n(self, n):
        # the default k_min = 2 has no room below n - 1: the message names n, not k_min
        s = sort_censored(np.arange(1.0, n + 1), np.ones(n, dtype=int))
        with pytest.raises(ValueError, match=f"needs a sample of n >= 4, got n = {n}$"):
            reiss_thomas_k(s, "hill")
        assert reiss_thomas_k(sort_censored(np.arange(1.0, 5.0), np.ones(4, dtype=int)), "hill").k_star == 2


def outcome(pick, *args, **kwargs):
    try:
        return pick(*args, **kwargs)
    except ValueError as error:
        return str(error)


def k_star_sweeps(s, *args, first=None):
    """_k_star(s, *args) and the threshold count of each sweep it ran, with the first prefix ``first`` if given."""
    ks, real = [], selection.sweep
    with mock.patch.object(selection, "sweep", lambda s, e, k: ks.append(len(k)) or real(s, e, k)), \
            mock.patch.object(selection, "_FIRST_PREFIX", first or selection._FIRST_PREFIX):
        return _k_star(s, *args), ks


class TestKStar:
    """_k_star stops the path at a prefix that proves k*, and always gives reiss_thomas_k's k*."""

    def test_proof_at_the_first_prefix(self):
        s = sort_censored(*generate_censored(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 2.0), 2_000, stream(31)))
        k, sweeps = k_star_sweeps(s, "new", 0.3, first=64)
        assert sweeps == [63]  # thresholds 2..64
        assert k == reiss_thomas_k(s, "new").k_star

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
    def test_tied_top_half_is_decided_by_the_full_scan(self, theta):
        # new is 0 while the threshold ties the top: crit(k) = 0 over a range, so no prefix separates its minimizer
        z, delta = generate_censored(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 2.0), 400, stream(32))
        z = np.sort(z)
        z[200:] = z[200]
        s = sort_censored(z, delta)
        sel = reiss_thomas_k(s, "new", theta)
        assert np.count_nonzero(sel.criterion_values == 0.0) > 150
        k, sweeps = k_star_sweeps(s, "new", theta, first=8)
        assert sweeps == [7, 8, 16, 367] and sum(sweeps) == s.n - 2  # prefixes to 8, 16 and 32 tried, then the rest
        assert k == sel.k_star

    def test_k_max_below_the_first_prefix_is_one_full_scan(self):
        s = make_sample(5, n=2_000)
        k, sweeps = k_star_sweeps(s, "new", 0.3, 2, 500)
        assert sweeps == [499] and k == reiss_thomas_k(s, "new", k_max=500).k_star

    @pytest.mark.parametrize("estimator_id", ["hill", "efg", "ww1", "ww2"])
    def test_kernels_without_a_bound_take_the_whole_path(self, estimator_id):
        s = make_sample(6, n=300)
        k, sweeps = k_star_sweeps(s, estimator_id, 0.3, first=4)
        assert sweeps == [300 - min_valid_k(estimator_id)] and k == reiss_thomas_k(s, estimator_id).k_star

    def test_tail_scan_shaped_input_evaluates_at_most_2048_thresholds(self, day_sample, day_paths):
        k, sweeps = k_star_sweeps(day_sample, "new")
        assert sum(sweeps) <= 2048
        assert k == 2 + int(np.nanargmin(_scan(*day_paths["new"], 0.3, 2)))

    @pytest.mark.parametrize("kwargs", [{"theta": 0.6}, {"k_min": 1}, {"k_max": 1000}, {"estimator_id": "nope"}])
    def test_shares_the_argument_rules(self, kwargs):
        s, kwargs = make_sample(0, n=60), {"estimator_id": "hill", **kwargs}
        message = outcome(_k_star, s, **kwargs)
        assert isinstance(message, str) and message == outcome(reiss_thomas_k, s, **kwargs)

    if given is not None:
        @given(st.sampled_from([4, 16, 64]), st.integers(4, 800), st.integers(0, 2**16), st.sampled_from([0, 1, 60]),
               st.sampled_from([0.0, 0.3, 0.5]), st.data())
        def test_equals_the_full_selection(self, first, n, seed, days, theta, data):
            # n below, at and above the first prefix; days > 0 rounds up to whole days (ties), and 1 ties most values
            z, delta = generate_censored(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 0.5 + seed % 3), n, stream(seed))
            s = sort_censored(np.ceil(days * z) if days else z, delta)
            k_min = data.draw(st.sampled_from([2, 3, 10]).filter(lambda k: k <= n - 2))
            k_max = data.draw(st.one_of(st.none(), st.integers(k_min + 1, n - 1)))
            for estimator_id in ESTIMATOR_IDS:
                args = (s, estimator_id, theta, k_min, k_max)
                with mock.patch.object(selection, "_FIRST_PREFIX", first):
                    got = outcome(_k_star, *args)
                assert got == outcome(lambda *a: reiss_thomas_k(*a).k_star, *args)


def assert_scan_bits(path_ks, path, theta, k_min):
    """_scan, every k at once, has the bits of the Fenwick loop over k, NaN in the same places."""
    got, want = _scan(path_ks, path, theta, k_min), oracle.scan(path_ks, path, theta, k_min)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.fixture(scope="module")
def day_sample():
    """n = 20 000 heavy-tailed lifetimes rounded up to whole days, so values tie."""
    z, delta = generate_censored(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 0.75), 20_000, stream(18))
    s = sort_censored(np.ceil(60.0 * z), delta)
    assert np.unique(s.z).size < s.n // 10
    return s


@pytest.fixture(scope="module")
def day_paths(day_sample):
    """efg and new paths of the day sample."""
    s, paths = day_sample, {}
    for estimator_id in ("efg", "new"):
        path_ks = np.arange(min_valid_k(estimator_id), s.n)
        paths[estimator_id] = path_ks, sweep(s, estimator_id, path_ks)
    return paths


class TestScanBits:
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("estimator_id", ["efg", "new"])
    def test_tie_heavy_days(self, day_paths, estimator_id, theta):
        path_ks, path = day_paths[estimator_id]
        assert_scan_bits(path_ks, path, theta, 2)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
    def test_nan_holes(self, theta):
        nan = np.nan
        # leading NaNs, then a prefix with one defined term, then holes between tied and distinct values
        path = np.array([nan, nan, nan, 0.4, nan, nan, 0.7, 0.7, nan, 0.2, 0.4, nan, 0.9, 0.1, nan, 0.4])
        assert_scan_bits(np.arange(1, path.size + 1), path, theta, 2)
        assert_scan_bits(np.arange(2, path.size + 2), path, theta, 2)
        rng = stream(181)
        for size in (2, 3, 7, 64, 65, 500):
            path = rng.integers(0, 6, size) * 0.125 + 0.5
            path[rng.random(size) < 0.4] = nan
            path[-1] = 0.75  # at least one defined term
            assert_scan_bits(np.arange(2, size + 2), path, theta, 2)

    def test_prefix_below_two_terms_is_nan(self):
        path = np.array([np.nan, 0.3, np.nan, 0.5, 0.2])
        criterion = _scan(np.arange(2, 7), path, 0.3, 2)
        assert np.isnan(criterion[:3]).all() and not np.isnan(criterion[3:]).any()
        assert_scan_bits(np.arange(2, 7), path, 0.3, 2)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
    def test_constant_path(self, theta):
        path = np.full(300, 0.7)
        criterion = _scan(np.arange(1, 301), path, theta, 2)
        assert np.all(criterion == 0.0)
        assert_scan_bits(np.arange(1, 301), path, theta, 2)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
    def test_k_min_above_the_first_defined_k(self, theta):
        path = Pareto(1.0).sample(400, stream(182))
        path[[0, 5, 6, 100]] = np.nan
        for k_min in (3, 10, 257, 399, 400):
            assert_scan_bits(np.arange(1, 401), path, theta, k_min)
