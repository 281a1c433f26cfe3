import math

import numpy as np
import pytest
from scipy import integrate

from tailcens import (
    DegenerateNullError,
    Pareto,
    TailProcessCurve,
    cvm_stat,
    delta_curve,
    generate_censored,
    gof_pvalue,
    hill,
    integrate_delta,
    ks_stat,
    new_weighted,
    p_hat,
    sort_censored,
    stream,
)
from tailcens.tailprocess import GOF_CSV_HEADER


def delta_by_hand(s, k, x):
    """Literal finite-sum definition, recomputed from scratch.

    The exceedance condition Z > x*t is checked on the normalized scale
    (Z/t > x), matching how breakpoints are represented; on the raw scale a
    one-ulp rounding of x*t could flip an atom exactly at a breakpoint.
    """
    n = s.n
    threshold = s.z[n - k - 1]
    total = 0.0
    for i in range(n - k + 1, n):  # ascending order statistic index, max excluded
        if s.z[i - 1] / threshold > x:
            above = int(np.sum(s.delta[i:]))
            total += (n - i) / (above + (n - i) / k)
    return total / k


class TestDeltaCurve:
    def test_hand_example(self, tiny5):
        curve = delta_curve(tiny5, 3)
        assert curve.breakpoints.tolist() == [1.5, 2.0]
        assert curve.levels == pytest.approx([0.5, 0.25, 0.0], abs=1e-12)
        assert curve(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_hand_atom_sum(self, tiny5):
        oracle = (1 / 3) * (2 / (2 + 2 / 3)) + (1 / 3) * (1 / (1 + 1 / 3))
        assert delta_by_hand(tiny5, 3, 1.0) == pytest.approx(oracle, abs=1e-15)
        assert delta_curve(tiny5, 3)(1.0) == pytest.approx(oracle, abs=1e-12)

    def test_matches_literal_sum_on_grid(self, sample_factory):
        for seed in range(8):
            s = sample_factory(seed, n=60)
            for k in (2, 7, 23, 59):
                curve = delta_curve(s, k)
                bp = curve.breakpoints
                grid = np.concatenate([
                    [1.0],
                    bp,
                    bp * (1.0 - 1e-9),  # just below each jump
                    bp * (1.0 + 1e-9),  # just above each jump
                    (bp[:-1] + bp[1:]) / 2 if bp.size > 1 else [],
                    [bp[-1] * 2.0] if bp.size else [1.5],
                ])
                for x in grid[grid >= 1.0]:
                    assert curve(float(x)) == pytest.approx(delta_by_hand(s, k, float(x)), rel=1e-12, abs=1e-15)

    def test_beyond_maximum_is_zero(self, tiny5):
        curve = delta_curve(tiny5, 3)
        assert curve(2.0) == 0.0
        assert curve(100.0) == 0.0

    def test_monotone_final_zero(self, sample_factory):
        for seed in range(8):
            s = sample_factory(seed, n=80)
            for k in (5, 30, 79):
                curve = delta_curve(s, k)
                assert np.all(np.diff(curve.levels) <= 1e-15)
                assert curve.levels[-1] == 0.0
                assert np.all(curve.levels >= 0.0)
                assert np.all(curve.breakpoints > 1.0)
                assert np.all(np.diff(curve.breakpoints) > 0)

    def test_right_continuous(self, tiny5):
        curve = delta_curve(tiny5, 3)
        for j, b in enumerate(curve.breakpoints):
            assert curve(float(b)) == curve.levels[j + 1]

    def test_complete_data_near_exceedance_count(self):
        z = Pareto(1.0).sample(400, stream(31))
        s = sort_censored(z, np.ones(400, dtype=int))
        for k in (20, 100):
            curve = delta_curve(s, k)
            t = s.z[s.n - k - 1]
            for b in curve.breakpoints:
                exceed = np.mean(s.z / t > b) * s.n / k
                assert abs(curve(float(b)) - exceed) <= 2.0 / k

    def test_domain_validation(self, tiny5):
        with pytest.raises(ValueError):
            delta_curve(tiny5, 1)
        with pytest.raises(ValueError):
            delta_curve(tiny5, 5)
        with pytest.raises(ValueError):
            delta_curve(tiny5, 3)(0.5)


class TestIntegrateDelta:
    def test_hand_example(self, tiny5):
        curve = delta_curve(tiny5, 3)
        oracle = 0.5 * math.log(1.5) + 0.25 * (math.log(2.0) - math.log(1.5))
        assert oracle == pytest.approx(0.2746531, abs=1e-7)
        assert integrate_delta(curve) == pytest.approx(oracle, rel=1e-12)
        assert integrate_delta(curve) == pytest.approx(new_weighted(tiny5, 3), rel=1e-12)

    def test_zero_curve(self):
        empty = TailProcessCurve(breakpoints=np.empty(0), levels=np.zeros(1), k=5, n=10)
        assert integrate_delta(empty) == 0.0

    def test_identity_random_samples(self, sample_factory):
        for seed in range(40):
            s = sample_factory(seed)
            for k in {2, 5, s.n // 2, s.n - 1}:
                got = integrate_delta(delta_curve(s, k))
                want = new_weighted(s, k)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_complete_data_identity_value(self):
        z = Pareto(1.5).sample(100, stream(77))
        s = sort_censored(z, np.ones(100, dtype=int))
        k = 40
        reduced = (k * hill(s, k) - math.log(s.z[-1] / s.z[100 - k - 1])) / (k + 1)
        assert integrate_delta(delta_curve(s, k)) == pytest.approx(reduced, rel=1e-12)


class TestKsStat:
    def test_dense_grid_oracle_tiny(self, tiny5):
        k = 3
        g, p = hill(tiny5, k), p_hat(tiny5, k)
        curve = delta_curve(tiny5, k)
        xs = np.linspace(1.0, float(curve.breakpoints[-1]), 1_000_000)
        xs = np.concatenate([xs, curve.breakpoints - 1e-9, curve.breakpoints])
        xs = xs[xs >= 1.0]
        sup = np.max(np.abs(curve(xs) - xs ** (-1.0 / g) / p))
        assert ks_stat(tiny5, k, g, p) == pytest.approx(math.sqrt(k) * sup, abs=1e-6)

    def test_dense_grid_oracle_random(self):
        z, d = generate_censored(Pareto(1.0), Pareto(1.0), 200, stream(41))
        s = sort_censored(z, d)
        k = 20
        g, p = hill(s, k), p_hat(s, k)
        curve = delta_curve(s, k)
        xs = np.linspace(1.0, float(curve.breakpoints[-1]) * 1.5, 1_000_000)
        xs = np.concatenate([xs, curve.breakpoints - 1e-12, curve.breakpoints])
        sup = np.max(np.abs(curve(xs) - xs ** (-1.0 / g) / p))
        assert ks_stat(s, k, g, p) == pytest.approx(math.sqrt(k) * sup, rel=1e-6)

    def test_null_median_two_batches(self):
        # self-consistency of the null distribution across disjoint seeds
        def batch_median(seed0):
            vals = []
            for r in range(200):
                z, d = generate_censored(Pareto(1.0), Pareto(1.0), 2000, stream(seed0, r))
                s = sort_censored(z, d)
                vals.append(ks_stat(s, 100, hill(s, 100), p_hat(s, 100)))
            return float(np.median(vals))

        m0, m1 = batch_median(0), batch_median(1)
        assert abs(m0 / m1 - 1.0) <= 0.10, (
            f"medians {m0:.3f} vs {m1:.3f} differ by {abs(m0 / m1 - 1) * 100:.0f}%; "
            "the null distribution of the statistic is bimodal under the guard-floor weights"
        )

    def test_validation(self, tiny5):
        with pytest.raises(ValueError):
            ks_stat(tiny5, 3, 0.0, 0.5)
        with pytest.raises(ValueError):
            ks_stat(tiny5, 3, 0.5, 0.0)


class TestCvmStat:
    def quad_oracle(self, s, k, g, p):
        curve = delta_curve(s, k)
        c = 1.0 / g

        def integrand(x):
            return x ** (-c - 1.0) * (curve(x) - x ** (-c) / p) ** 2

        top = float(curve.breakpoints[-1]) if curve.breakpoints.size else 1.0
        inner, _ = integrate.quad(integrand, 1.0, top, points=list(curve.breakpoints), limit=400)
        tail, _ = integrate.quad(integrand, top, np.inf)
        return k / (p * g) * (inner + tail)

    def test_quadrature_oracle_tiny(self, tiny5):
        g, p = hill(tiny5, 3), p_hat(tiny5, 3)
        assert cvm_stat(tiny5, 3, g, p) == pytest.approx(self.quad_oracle(tiny5, 3, g, p), rel=1e-8)

    def test_quadrature_oracle_random(self, sample_factory):
        for seed in (0, 3):
            s = sample_factory(seed, n=120)
            k = 35
            g, p = hill(s, k), p_hat(s, k)
            if p == 0:
                continue
            assert cvm_stat(s, k, g, p) == pytest.approx(self.quad_oracle(s, k, g, p), rel=1e-8)

    def test_scale_invariance_both_stats(self, sample_factory):
        s = sample_factory(1, n=100)
        k = 30
        g, p = hill(s, k), p_hat(s, k)
        base_ks, base_cvm = ks_stat(s, k, g, p), cvm_stat(s, k, g, p)
        for c in (1e-4, 0.3, 7.0, 1e5):
            scaled = sort_censored(s.z * c, s.delta)
            gs = hill(scaled, k)
            assert ks_stat(scaled, k, gs, p) == pytest.approx(base_ks, rel=1e-12)
            assert cvm_stat(scaled, k, gs, p) == pytest.approx(base_cvm, rel=1e-12)

    def test_nonnegative(self, sample_factory):
        for seed in range(4):
            s = sample_factory(seed, n=90)
            g, p = hill(s, 25), p_hat(s, 25)
            if p == 0:
                continue
            assert cvm_stat(s, 25, g, p) >= 0.0
            assert ks_stat(s, 25, g, p) >= 0.0


@pytest.fixture(scope="module")
def null_sample():
    z, d = generate_censored(Pareto(1.0), Pareto(1.0), 150, stream(55))
    return sort_censored(z, d)


class TestGofPvalue:
    def test_reps_precondition(self, null_sample):
        with pytest.raises(ValueError):
            gof_pvalue(null_sample, 30, reps=50, seed=0)

    def test_deterministic_and_worker_invariant(self, null_sample):
        a = gof_pvalue(null_sample, 30, reps=100, seed=9, workers=1)
        b = gof_pvalue(null_sample, 30, reps=100, seed=9, workers=3)
        assert a == b

    def test_pvalue_lattice(self, null_sample):
        report = gof_pvalue(null_sample, 30, reps=100, seed=2)
        for p in (report.p_value_ks, report.p_value_cvm):
            count = p * 101 - 1
            assert count == pytest.approx(round(count), abs=1e-9)
            assert 1 / 101 <= p <= 1.0

    def test_counting_rule_recomputed(self, null_sample):
        k, reps, seed = 30, 100, 4
        report = gof_pvalue(null_sample, k, reps=reps, seed=seed)
        g1 = new_weighted(null_sample, k)
        p = p_hat(null_sample, k)
        null_x, null_y = Pareto(g1), Pareto(g1 * p / (1 - p))
        ks_count = cvm_count = 0
        for r in range(reps):
            z, d = generate_censored(null_x, null_y, null_sample.n, stream(seed, r))
            ss = sort_censored(z, d)
            gr, pr = hill(ss, k), p_hat(ss, k)
            ks_count += ks_stat(ss, k, gr, pr) >= report.ks
            cvm_count += cvm_stat(ss, k, gr, pr) >= report.cvm
        assert report.p_value_ks == (1 + ks_count) / (reps + 1)
        assert report.p_value_cvm == (1 + cvm_count) / (reps + 1)

    def test_degenerate_null_rejected(self):
        all_observed = sort_censored([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 1, 1])
        with pytest.raises(DegenerateNullError):
            gof_pvalue(all_observed, 3, reps=100, seed=0)
        none_observed = sort_censored([1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 0, 0, 0])
        with pytest.raises(DegenerateNullError):
            gof_pvalue(none_observed, 3, reps=100, seed=0)

    def test_csv_header(self):
        assert GOF_CSV_HEADER == "ks,cvm,p_ks,p_cvm,k,n,reps,seed"

    def test_null_censoring_times_may_overflow(self):
        # p_hat = 0.99 at k = 100 puts the null censoring index near 99 * gamma1_hat,
        # so its largest draws overflow to inf; such a censoring time observes its lifetime
        n, k = 20_000, 100
        z = Pareto(0.8).sample(n, stream(61))
        d = np.ones(n, dtype=np.int64)
        d[np.argmax(z)] = 0
        s = sort_censored(z, d)
        assert p_hat(s, k) == 0.99
        g1 = new_weighted(s, k)
        with np.errstate(over="ignore"):  # the public sample warns on overflow
            assert np.isinf(Pareto(g1 * 0.99 / 0.01).sample(n, stream(0))).any()
        report = gof_pvalue(s, k, reps=100, seed=0)
        assert 1 / 101 <= report.p_value_ks <= 1.0 and 1 / 101 <= report.p_value_cvm <= 1.0


class TestDeltaCurveThreshold:
    def test_bool_rejected_with_shared_message(self):
        s = sort_censored([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 1])
        with pytest.raises(ValueError, match=r"k must be an integer in \[2, 4\], got True"):
            delta_curve(s, True)
        with pytest.raises(ValueError, match=r"k must be an integer in \[2, 4\], got 5"):
            delta_curve(s, 5)
