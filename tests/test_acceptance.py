"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
stated inline.  Criteria 4 and 5 encode nominal large-sample targets that
the weighted estimator, as defined, does not meet at these designs (its
guard-floor weights let near-top terms dominate whenever no uncensored
observation ranks above them); they are asserted as stated and their
failure messages carry the measured values.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tailcens import (
    Burr,
    Frechet,
    LogGamma,
    McConfig,
    Pareto,
    asymptotic_ci,
    cvm_stat,
    delta_curve,
    derive_survival,
    efg,
    generate_censored,
    gof_pvalue,
    hill,
    integrate_delta,
    kaplan_meier,
    ks_stat,
    new_weighted,
    p_hat,
    read_raw_records,
    reiss_thomas_k,
    run_bias_rmse,
    run_variance_check,
    sort_censored,
    stream,
    ww1,
)
from tailcens.cli import main as cli_main


def _verdict(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _random_model(rng):
    family = int(rng.integers(4))
    if family == 0:
        return Pareto(0.3 + 2.0 * rng.random())
    if family == 1:
        return Burr(0.5 + rng.random(), 0.5 + 1.5 * rng.random(), 0.4 + 1.6 * rng.random())
    if family == 2:
        return Frechet(0.3 + 2.0 * rng.random())
    return LogGamma(1.0 + 2.0 * rng.random(), 0.3 + rng.random())


def test_01_integral_identity():
    """Exact identity between the curve integral and the weighted estimator."""
    start = time.time()
    worst = 0.0
    for trial in range(1000):
        rng = stream(8100, trial)
        n = int(rng.integers(20, 501))
        mx, my = _random_model(rng), _random_model(rng)
        z, d = generate_censored(mx, my, n, stream(8200, trial))
        s = sort_censored(z, d)
        for k in range(2, n):
            got = integrate_delta(delta_curve(s, k))
            want = new_weighted(s, k)
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-12, f"identity off by rel {rel:.2e} at trial={trial}, n={n}, k={k}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"identity sweep took {elapsed:.1f}s (budget 60s)"
    _verdict(1, f"integral identity, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_complete_data_reduction():
    """With a fully observed top, the estimator collapses to a Hill form."""
    for trial in range(1000):
        rng = stream(8300, trial)
        n = int(rng.integers(20, 501))
        z = _random_model(rng).sample(n, stream(8400, trial))
        s = sort_censored(z, np.ones(n, dtype=np.int64))
        for k in range(2, n):
            reduced = (k * hill(s, k) - math.log(s.z[-1] / s.z[n - k - 1])) / (k + 1)
            got = new_weighted(s, k)
            assert got == pytest.approx(reduced, rel=1e-12), f"trial={trial}, n={n}, k={k}"
    _verdict(2, "complete-data reduction")


def test_03_hand_oracle_fixtures():
    """Frozen hand-computed values, recomputed independently beforehand."""
    s = sort_censored([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 1])
    assert hill(s, 2) == pytest.approx(0.3992539, abs=1e-6)
    assert hill(s, 3) == pytest.approx(0.6716343, abs=1e-6)
    assert new_weighted(s, 3) == pytest.approx(0.2746531, abs=1e-6)
    assert new_weighted(s, 2) == pytest.approx(0.0958940, abs=1e-6)
    assert ww1(s, 2) == pytest.approx(0.1438411, abs=1e-6)
    assert efg(s, 2) == pytest.approx(0.3992539, abs=1e-6)
    km = kaplan_meier(sort_censored([1.0, 2.0, 3.0], [1, 0, 1]))
    assert km.values == pytest.approx([1 / 3, 1 / 3, 1.0], abs=1e-6)
    curve = delta_curve(s, 3)
    assert curve.breakpoints == pytest.approx([1.5, 2.0], abs=1e-12)
    assert curve.levels == pytest.approx([0.5, 0.25, 0.0], abs=1e-6)
    assert integrate_delta(curve) == pytest.approx(0.2746531, abs=1e-6)
    std_err, lo, hi = asymptotic_ci(0.2, 0.28, 522, 0.95)
    assert std_err == pytest.approx(0.0430119, abs=1e-6)
    assert lo == pytest.approx(0.1156981, abs=1e-6)
    assert hi == pytest.approx(0.2843019, abs=1e-6)
    _verdict(3, "hand-oracle fixtures")


def test_04_limit_variance_at_desk_scale():
    """Scaled-error variance against the nominal limit (9-8p) * g1^2 / p."""
    start = time.time()
    mean, scaled_var = run_variance_check(
        Pareto(1.0), Pareto(1.0), n=2000, k=100, reps=1000, seed=0
    )
    elapsed = time.time() - start
    assert elapsed < 120.0, f"variance check took {elapsed:.1f}s (budget 120s)"
    target = (9.0 - 8.0 * 0.5) * 1.0 / 0.5  # 10
    se_mean = math.sqrt(scaled_var / 100.0) / math.sqrt(1000.0)
    assert 0.75 * target <= scaled_var <= 1.25 * target, (
        f"scaled variance {scaled_var:.2f} outside [7.5, 12.5]: the guard-floor "
        f"weights dominate whenever no uncensored observation ranks above a "
        f"position (probability 2**-i per rank i), which also shifts the mean "
        f"to {mean:.3f}"
    )
    assert abs(mean - 1.0) <= 3.0 * se_mean, (
        f"mean {mean:.4f} is {abs(mean - 1.0) / se_mean:.0f} standard errors from 1"
    )
    _verdict(4, f"limit variance {scaled_var:.2f} ~ {target}, mean {mean:.3f}")


def test_05_comparative_rmse_orderings():
    """Strong-censoring RMSE orderings among new/efg/ww1 at n = 200."""
    gamma1 = 0.5
    results = {}
    for p in (0.33, 0.70):
        gamma2 = gamma1 * p / (1.0 - p)
        cfg = McConfig(
            model_x=Burr(1.0, 2.0, 1.0 / (2.0 * gamma1)),
            model_y=Burr(1.0, 2.0, 1.0 / (2.0 * gamma2)),
            n=200,
            reps=200,
            k_grid=tuple(range(5, 196, 2)),
            estimators=("new", "efg", "ww1"),
            seed=42,
        )
        results[p] = run_bias_rmse(cfg)
    grid = np.asarray(results[0.33].config.k_grid)
    upper = slice(len(grid) // 2, None)

    rmse_strong = results[0.33].rmse[:, upper]
    frac_new = float(np.mean(rmse_strong[0] < rmse_strong[2]))
    frac_efg = float(np.mean(rmse_strong[1] < rmse_strong[2]))
    assert frac_new >= 0.70 and frac_efg >= 0.70, (
        f"at p=0.33 the fraction of upper-half k with RMSE below ww1's is "
        f"new: {frac_new:.2f}, efg: {frac_efg:.2f} (need >= 0.70); median upper-half "
        f"RMSE new={np.median(rmse_strong[0]):.2f} efg={np.median(rmse_strong[1]):.2f} "
        f"ww1={np.median(rmse_strong[2]):.2f}"
    )

    rmse_weak = results[0.70].rmse[:, upper]
    ratio = np.max(rmse_weak, axis=0) / np.min(rmse_weak, axis=0)
    assert float(np.max(ratio)) <= 2.0, (
        f"at p=0.70 the three estimators spread beyond factor 2 on the upper "
        f"half: max ratio {np.max(ratio):.2f}"
    )
    _verdict(5, "comparative RMSE orderings")


AIDS_PATH = os.environ.get(
    "TAILCENS_AIDS2_RAW", str(Path(__file__).resolve().parent.parent / "data" / "aids2_raw.csv")
)


@pytest.mark.skipif(
    not Path(AIDS_PATH).exists(),
    reason=(
        "Australian Aids survival records not bundled; export them to "
        "data/aids2_raw.csv (see README) or point TAILCENS_AIDS2_RAW at the file"
    ),
)
def test_06_case_study():
    """Case-study point estimates and adaptive threshold on the Aids export."""
    z, d = derive_survival(read_raw_records(AIDS_PATH))
    s = sort_censored(z, d)
    assert s.n == 2843
    k = 522
    p = p_hat(s, k)
    assert p == pytest.approx(0.28, abs=0.02), f"p_hat(522) = {p:.4f}"
    new_value = new_weighted(s, k)
    assert new_value == pytest.approx(0.20, abs=0.02), f"new(522) = {new_value:.4f}"
    efg_value = efg(s, k)
    assert efg_value == pytest.approx(0.21, abs=0.02), f"efg(522) = {efg_value:.4f}"
    selection = reiss_thomas_k(s, "new")
    assert abs(selection.k_star - 522) <= 60, f"k* = {selection.k_star}"
    _verdict(6, f"case study: p={p:.3f}, new={new_value:.3f}, efg={efg_value:.3f}, k*={selection.k_star}")


def test_07_gof_null_calibration():
    """p-values under the true power-law null are close to uniform."""
    start = time.time()
    trials, reps, n, k = 200, 500, 200, 30
    below_ks = below_cvm = 0
    for trial in range(trials):
        z, d = generate_censored(Pareto(1.0), Pareto(1.0), n, stream(9000 + trial, 0))
        s = sort_censored(z, d)
        report = gof_pvalue(s, k, reps=reps, seed=trial, workers=2)
        below_ks += report.p_value_ks < 0.05
        below_cvm += report.p_value_cvm < 0.05
    elapsed = time.time() - start
    assert elapsed < 300.0, f"calibration took {elapsed:.1f}s (budget 300s)"
    frac_ks, frac_cvm = below_ks / trials, below_cvm / trials
    assert 0.01 <= frac_ks <= 0.10, f"KS rejection fraction {frac_ks:.3f} outside [0.01, 0.10]"
    assert 0.01 <= frac_cvm <= 0.10, f"CvM rejection fraction {frac_cvm:.3f} outside [0.01, 0.10]"
    _verdict(7, f"null calibration: ks {frac_ks:.3f}, cvm {frac_cvm:.3f}, {elapsed:.0f}s")


def test_08_invariant_suites(tmp_path):
    """Scale invariance, monotonicity, and worker-count determinism."""
    z, d = generate_censored(Pareto(1.0), Pareto(1.0), 150, stream(8800))
    s = sort_censored(z, d)
    k = 40
    gamma_hat, p = hill(s, k), p_hat(s, k)
    base = {
        "hill": gamma_hat,
        "efg": efg(s, k),
        "ww1": ww1(s, k),
        "new": new_weighted(s, k),
        "ks": ks_stat(s, k, gamma_hat, p),
        "cvm": cvm_stat(s, k, gamma_hat, p),
    }
    scales = np.exp(stream(8801).uniform(-10, 10, 500))
    for c in scales:
        scaled = sort_censored(s.z * c, s.delta)
        g_scaled = hill(scaled, k)
        assert g_scaled == pytest.approx(base["hill"], rel=1e-12)
        assert efg(scaled, k) == pytest.approx(base["efg"], rel=1e-12)
        assert ww1(scaled, k) == pytest.approx(base["ww1"], rel=1e-12)
        assert new_weighted(scaled, k) == pytest.approx(base["new"], rel=1e-12)
        assert ks_stat(scaled, k, g_scaled, p) == pytest.approx(base["ks"], rel=1e-12)
        assert cvm_stat(scaled, k, g_scaled, p) == pytest.approx(base["cvm"], rel=1e-12)

    for seed in range(5):
        zz, dd = generate_censored(Pareto(1.0), Pareto(0.7), 120, stream(8810, seed))
        ss = sort_censored(zz, dd)
        km = kaplan_meier(ss)
        assert np.all(np.diff(km.values) >= -1e-15)
        for kk in (2, 30, 119):
            curve = delta_curve(ss, kk)
            assert np.all(np.diff(curve.levels) <= 1e-15)
            assert curve.levels[-1] == 0.0

    out1, out2 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    args = [
        "simulate", "--model", "burr:1,2,1", "--censor", "burr:1,2,2",
        "--n", "100", "--reps", "20", "--seed", "3", "--estimators", "new,efg,ww1",
    ]
    assert cli_main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert cli_main(args + ["--workers", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _verdict(8, "invariant suites")
