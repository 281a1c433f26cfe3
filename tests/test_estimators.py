import math

import numpy as np
import pytest
from scipy import special

from tailcens import (
    Pareto,
    UndefinedEstimateError,
    asymptotic_ci,
    efg,
    estimate_report,
    evaluate,
    generate_censored,
    hill,
    kaplan_meier,
    new_weighted,
    p_hat,
    sort_censored,
    stream,
    sweep,
    weighted_functional,
    ww1,
    ww2,
)

# hand oracles for the five-point fixture, each recomputed by direct formula
HILL_K2 = (math.log(5 / 3) + math.log(4 / 3)) / 2  # 0.3992539
HILL_K3 = (math.log(5 / 2) + math.log(4 / 2) + math.log(3 / 2)) / 3  # 0.6716343
NEW_K3 = (1 * math.log(2.0) / (1 + 1 / 3) + 2 * math.log(1.5) / (2 + 2 / 3)) / 3  # 0.2746531
NEW_K2 = 0.5 * math.log(4 / 3) / 1.5  # 0.0958940


def km_survival_by_hand(delta):
    n = len(delta)
    surv, out = 1.0, []
    for j, d in enumerate(delta, start=1):
        if d == 1:
            surv *= 1.0 - 1.0 / (n - j + 1)
        out.append(surv)
    return out


class TestHill:
    def test_k2(self, tiny5):
        assert hill(tiny5, 2) == pytest.approx(HILL_K2, abs=1e-12)

    def test_k3(self, tiny5):
        assert hill(tiny5, 3) == pytest.approx(HILL_K3, abs=1e-12)

    def test_constant_ratio(self):
        s = sort_censored([1.0, 3.0, 3.0], [1, 1, 1])
        assert hill(s, 1) == 0.0

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_k_range(self, tiny5, k):
        with pytest.raises(ValueError):
            hill(tiny5, k)


class TestPHat:
    def test_all_observed(self, tiny5):
        assert p_hat(tiny5, 3) == 1.0

    def test_top_three_two_observed(self):
        s = sort_censored([1.0, 2.0, 3.0], [0, 1, 1])  # top-down deltas (1, 1, 0)
        assert p_hat(s, 3) == pytest.approx(2 / 3, abs=1e-15)

    def test_lattice(self, sample_factory):
        s = sample_factory(3)
        for k in range(1, s.n + 1):
            assert (p_hat(s, k) * k) == pytest.approx(round(p_hat(s, k) * k), abs=1e-9)

    def test_k_range(self, tiny5):
        with pytest.raises(ValueError):
            p_hat(tiny5, 6)


class TestEfg:
    def test_all_observed_top(self, tiny5):
        assert efg(tiny5, 2) == pytest.approx(HILL_K2, abs=1e-12)

    def test_half_observed_top(self):
        s = sort_censored([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 0, 1])  # top-2 deltas (1, 0)
        assert efg(s, 2) == pytest.approx(HILL_K2 / 0.5, abs=1e-12)

    def test_undefined_when_nothing_observed(self):
        s = sort_censored([1.0, 2.0, 3.0], [0, 0, 0])
        with pytest.raises(UndefinedEstimateError):
            efg(s, 2)


class TestKaplanMeier:
    def test_hand_product_limit(self):
        s = sort_censored([1.0, 2.0, 3.0], [1, 0, 1])
        curve = kaplan_meier(s)
        assert curve.values == pytest.approx([1 / 3, 1 / 3, 1.0], abs=1e-12)

    def test_complete_data_is_empirical_cdf(self):
        s = sort_censored([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        assert kaplan_meier(s).values == pytest.approx([0.25, 0.5, 0.75, 1.0], abs=1e-12)

    def test_fully_censored_is_zero(self):
        s = sort_censored([1.0, 2.0, 3.0], [0, 0, 0])
        assert kaplan_meier(s).values == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    def test_monotone_on_random_samples(self, sample_factory):
        for seed in range(5):
            curve = kaplan_meier(sample_factory(seed))
            assert np.all(np.diff(curve.values) >= -1e-15)
            assert np.all((curve.values >= -1e-15) & (curve.values <= 1 + 1e-15))


class TestWorms:
    def test_ww1_hand_value(self, tiny5):
        surv = km_survival_by_hand(tiny5.delta)
        assert surv == pytest.approx([0.8, 0.8, 8 / 15, 4 / 15, 0.0], abs=1e-12)
        oracle = (surv[4] / surv[2]) * math.log(5 / 4) + (surv[3] / surv[2]) * math.log(4 / 3)
        assert oracle == pytest.approx(0.1438411, abs=1e-7)
        assert ww1(tiny5, 2) == pytest.approx(oracle, abs=1e-12)

    def test_ww1_vanishing_top_weight(self):
        s = sort_censored([1.0, 2.0, 4.0], [1, 1, 1])
        assert ww1(s, 1) == 0.0

    def test_ww2_hand_value(self, tiny5):
        surv = km_survival_by_hand(tiny5.delta)
        oracle = (surv[3] / surv[2]) * (1 / 2) * math.log(4 / 3)  # i=1 term vanishes
        assert oracle == pytest.approx(0.0719205, abs=1e-7)
        assert ww2(tiny5, 2) == pytest.approx(oracle, abs=1e-12)

    def test_ww2_censored_top(self):
        s = sort_censored([1.0, 2.0, 3.0], [1, 1, 0])
        assert ww2(s, 1) == 0.0

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_range(self, tiny5, k):
        with pytest.raises(ValueError):
            ww1(tiny5, k)
        with pytest.raises(ValueError):
            ww2(tiny5, k)


class TestNewWeighted:
    def test_k3(self, tiny5):
        assert NEW_K3 == pytest.approx(0.2746531, abs=1e-7)
        assert new_weighted(tiny5, 3) == pytest.approx(NEW_K3, abs=1e-12)

    def test_k2(self, tiny5):
        assert NEW_K2 == pytest.approx(0.0958940, abs=1e-7)
        assert new_weighted(tiny5, 2) == pytest.approx(NEW_K2, abs=1e-12)

    def test_complete_data_reduction(self, tiny5):
        # with every top-k delta equal to 1
        reduced = (3 * hill(tiny5, 3) - math.log(5 / 2)) / 4
        assert reduced == pytest.approx(NEW_K3, abs=1e-12)
        assert new_weighted(tiny5, 3) == pytest.approx(reduced, rel=1e-13)

    def test_finite_under_full_censoring(self):
        s = sort_censored([1.0, 2.0, 4.0, 8.0], [0, 0, 0, 0])
        value = new_weighted(s, 3)
        assert math.isfinite(value) and value >= 0.0

    @pytest.mark.parametrize("k", [1, 5])
    def test_k_range(self, tiny5, k):
        with pytest.raises(ValueError):
            new_weighted(tiny5, k)


class TestWeightedFunctional:
    def test_reduces_to_new_weighted(self, tiny5):
        assert weighted_functional(tiny5, 3) == new_weighted(tiny5, 3)
        assert weighted_functional(tiny5, 3, g=None, alpha=1.0) == pytest.approx(NEW_K3, abs=1e-12)

    def test_linear_weight_against_brute_force(self, tiny5):
        g = lambda x: x
        k, n = 3, 5
        z, prefix = tiny5.z, tiny5.top_delta_prefix
        num = 0.0
        for i in range(1, k):
            a = (i / k) * g(i / (k + 1)) / (prefix[i - 1] + i / k)
            num += a * math.log(z[n - 1 - i] / z[n - k - 1])
        oracle = num / 0.25  # int_0^1 x*(-log x) dx = 1/4
        assert weighted_functional(tiny5, k, g=g, alpha=1.0) == pytest.approx(oracle, rel=1e-9)

    def test_general_alpha_normalizer(self, tiny5):
        # for g = 1 the normalizer is Gamma(alpha + 1)
        alpha = 2.5
        direct = weighted_functional(tiny5, 3, g=lambda x: 1.0, alpha=alpha)
        closed = weighted_functional(tiny5, 3, g=None, alpha=alpha)
        assert direct == pytest.approx(closed, rel=1e-9)

    def test_zero_normalizer_rejected(self, tiny5):
        with pytest.raises(ValueError, match="normalizer"):
            weighted_functional(tiny5, 3, g=lambda x: 0.0)

    def test_alpha_validation(self, tiny5):
        with pytest.raises(ValueError):
            weighted_functional(tiny5, 3, alpha=0.0)

    def test_negative_weight_rejected(self, tiny5):
        with pytest.raises(ValueError):
            weighted_functional(tiny5, 3, g=lambda x: x - 0.5)


class TestAsymptoticCi:
    def test_complete_data_reduction(self):
        std_err, _, _ = asymptotic_ci(0.5, 1.0, 100, 0.95)
        assert std_err == pytest.approx(0.5 / 10.0, rel=1e-12)

    def test_half_proportion_factor(self):
        std_err, _, _ = asymptotic_ci(0.5, 0.5, 100, 0.95)
        assert std_err == pytest.approx(0.5 * math.sqrt(10.0) / 10.0, rel=1e-12)

    def test_case_study_numbers(self):
        std_err, lo, hi = asymptotic_ci(0.2, 0.28, 522, 0.95)
        oracle_se = 0.2 * math.sqrt((9 - 8 * 0.28) / 0.28) / math.sqrt(522)
        zq = float(special.ndtri(0.975))
        assert std_err == pytest.approx(oracle_se, rel=1e-12)
        assert std_err == pytest.approx(0.0430, abs=5e-5)
        assert lo == pytest.approx(0.2 - zq * oracle_se, rel=1e-10)
        assert hi == pytest.approx(0.2 + zq * oracle_se, rel=1e-10)
        assert (round(lo, 3), round(hi, 3)) == (0.116, 0.284)

    def test_remark_factor_vs_adjusted_hill(self):
        # std err equals sqrt(9 - 8p) times gamma1 / sqrt(p k)
        for p in (0.2, 0.5, 0.9, 1.0):
            std_err, _, _ = asymptotic_ci(0.7, p, 200, 0.9)
            assert std_err == pytest.approx(math.sqrt(9 - 8 * p) * 0.7 / math.sqrt(p * 200), rel=1e-12)

    def test_lower_truncated_at_zero(self):
        _, lo, _ = asymptotic_ci(0.01, 0.3, 5, 0.99)
        assert lo == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"gamma1_hat": 0.2, "p": 0.0, "k": 10, "level": 0.9},
        {"gamma1_hat": -0.2, "p": 0.5, "k": 10, "level": 0.9},
        {"gamma1_hat": 0.2, "p": 0.5, "k": 0, "level": 0.9},
        {"gamma1_hat": 0.2, "p": 0.5, "k": 10, "level": 1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            asymptotic_ci(**kwargs)


class TestInvariants:
    def test_scale_invariance(self, sample_factory):
        s = sample_factory(1, n=120)
        k = 40
        base = {
            "hill": hill(s, k),
            "efg": efg(s, k),
            "ww1": ww1(s, k),
            "ww2": ww2(s, k),
            "new": new_weighted(s, k),
            "wf": weighted_functional(s, k, g=lambda x: x, alpha=2.0),
        }
        for c in np.geomspace(1e-6, 1e6, 50):
            scaled = sort_censored(s.z * c, s.delta)
            assert hill(scaled, k) == pytest.approx(base["hill"], rel=1e-12)
            assert efg(scaled, k) == pytest.approx(base["efg"], rel=1e-12)
            assert ww1(scaled, k) == pytest.approx(base["ww1"], rel=1e-12)
            assert ww2(scaled, k) == pytest.approx(base["ww2"], rel=1e-12)
            assert new_weighted(scaled, k) == pytest.approx(base["new"], rel=1e-12)
            assert weighted_functional(scaled, k, g=lambda x: x, alpha=2.0) == pytest.approx(
                base["wf"], rel=1e-12
            )

    def test_complete_data_identity_random(self):
        for seed in range(20):
            z = Pareto(1.0).sample(80, stream(seed, 7))
            s = sort_censored(z, np.ones(80, dtype=int))
            for k in (2, 10, 40, 79):
                reduced = (k * hill(s, k) - math.log(s.z[-1] / s.z[80 - k - 1])) / (k + 1)
                assert new_weighted(s, k) == pytest.approx(reduced, rel=1e-12)

    def test_monotone_data_embedding(self, sample_factory):
        s = sample_factory(2, n=60)
        k = 20
        base = {f.__name__: f(s, k) for f in (hill, p_hat, new_weighted, ww1, ww2)}
        for extra_delta in (0, 1):
            z2 = np.concatenate([[s.z[0] * 0.5], s.z])
            d2 = np.concatenate([[extra_delta], s.delta])
            grown = sort_censored(z2, d2)
            assert hill(grown, k) == base["hill"]
            assert p_hat(grown, k) == base["p_hat"]
            assert new_weighted(grown, k) == base["new_weighted"]
            assert ww1(grown, k) == pytest.approx(base["ww1"], rel=1e-12)
            assert ww2(grown, k) == pytest.approx(base["ww2"], rel=1e-12)


class TestReportAndSweep:
    def test_report_fields(self, tiny5):
        report = estimate_report(tiny5, 3, "new", ci_level=0.95)
        assert report.estimator_id == "new"
        assert report.k == 3
        assert report.value == pytest.approx(NEW_K3, abs=1e-12)
        assert report.p_hat == 1.0
        assert report.ci is not None and report.ci[0] <= report.value <= report.ci[1]
        assert report.ci_level == 0.95

    def test_report_no_ci_for_others(self, tiny5):
        report = estimate_report(tiny5, 2, "hill", ci_level=0.95)
        assert report.std_err is None and report.ci is None and report.ci_level is None

    def test_evaluate_dispatch(self, tiny5):
        assert evaluate(tiny5, 2, "ww2") == ww2(tiny5, 2)
        with pytest.raises(ValueError, match="unknown estimator"):
            evaluate(tiny5, 2, "moment")

    def test_sweep_nan_semantics(self):
        s = sort_censored([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0])
        out = sweep(s, "efg", [1, 2, 3, 4])
        assert np.all(np.isnan(out))  # p_hat = 0 everywhere, k=4 out of range
        out_new = sweep(s, "new", [1, 2, 3])
        assert np.isnan(out_new[0]) and np.all(np.isfinite(out_new[1:]))

    def test_sweep_matches_pointwise(self, sample_factory):
        s = sample_factory(4, n=50)
        ks = np.arange(2, 50)
        vals = sweep(s, "new", ks)
        for k, v in zip(ks, vals):
            assert v == new_weighted(s, int(k))


class TestReportCi:
    @pytest.mark.parametrize(
        "z, delta",
        [
            ([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 0, 0]),  # p_hat(2) = 0
            ([1.0, 2.0, 5.0, 5.0, 5.0], [1, 0, 1, 1, 0]),  # new(2) = 0: tie with the threshold
        ],
    )
    def test_no_ci_without_a_limiting_variance(self, z, delta):
        report = estimate_report(sort_censored(z, delta), 2, "new", ci_level=0.95)
        assert report.p_hat == 0.0 or report.value == 0.0
        assert report.std_err is None and report.ci is None and report.ci_level is None

    def test_ci_is_asymptotic_ci(self, tiny5):
        report = estimate_report(tiny5, 3, "new", ci_level=0.9)
        std_err, lo, hi = asymptotic_ci(report.value, report.p_hat, 3, 0.9)
        assert report.std_err == std_err and report.ci == (lo, hi) and report.ci_level == 0.9


class TestThresholdType:
    @pytest.mark.parametrize("fn", [hill, p_hat, efg, ww1, ww2, new_weighted])
    def test_bool_rejected(self, fn):
        s = sort_censored([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 1, 1])
        for k in (True, False):
            with pytest.raises(ValueError, match="k must be an integer"):
                fn(s, k)

    def test_numpy_integer_accepted(self, tiny5):
        assert hill(tiny5, np.int64(2)) == hill(tiny5, 2)
