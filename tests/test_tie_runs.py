"""The two path scans on tie-heavy data, where most thresholds repeat a value.

The ``new`` kernel reuses its log row while the threshold value repeats, and
the selection scan keeps its sums in Fenwick trees over value ranks.  Both
are checked here against references that know nothing of either: the direct
sum in ``oracle.py``, single-threshold sweeps, lone samples, and the
plain-loop selection in ``test_selection.py``.
"""

import numpy as np
import pytest
from oracle import weighted_log_sum
from test_selection import brute_force_selection
from test_sweep_kernels import integer_day_sample

from tailcens import reiss_thomas_k, sort_censored, sweep
from tailcens.censored import SortedCensoredSample, _top_sorted
from tailcens.estimators import _sweep


def run_sample():
    """60 points, the top 10 distinct, then runs of 25 at 3.0, 10 at 2.0 and 15 at 1.0."""
    z = np.concatenate([np.full(15, 1.0), np.full(10, 2.0), np.full(25, 3.0), [5, 6, 8, 13, 21, 34, 55, 89, 144, 233]])
    delta = np.arange(60) % 3 != 0
    return sort_censored(z, delta.astype(np.int64))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.fixture(scope="module")
def tie_heavy():
    return sort_censored(*integer_day_sample(5_000, 35))


class TestNewKernelOnTieRuns:
    def test_whole_consecutive_path_against_oracle(self, tie_heavy):
        n = tie_heavy.n
        assert np.unique(tie_heavy.z).size < n // 10  # most thresholds repeat the previous value
        want = [weighted_log_sum(tie_heavy, k) for k in range(2, n)]
        assert bits(sweep(tie_heavy, "new", np.arange(2, n))) == bits(want)

    @pytest.mark.parametrize("ks", [[40, 5, 40, 39, 2, 41], [40, 39, 41, 5, 40, 2, 44, 36, 36, 59, 35]])
    def test_non_monotone_grid_with_repeated_thresholds(self, ks):
        s = run_sample()
        zr = s.z[::-1]
        assert zr[39] == zr[40] == zr[41] == zr[44] == zr[36]  # the grid revisits one tie run
        got = sweep(s, "new", ks)
        assert bits(got) == bits([sweep(s, "new", [k])[0] for k in ks])
        assert bits(got) == bits([weighted_log_sum(s, k) for k in ks])

    @pytest.mark.parametrize("ks", [[40, 5, 40, 39, 2, 41], [40, 39, 41, 5, 40, 2, 44, 36, 36, 59, 35]])
    def test_split_grid_revisiting_a_tie_run(self, ks, forked):
        # each part's first k takes a fresh log row where the serial loop reuses one
        s = run_sample()
        got = sweep(s, "new", ks)
        assert len(forked) == 1 and [k for part in forked[0] for k in part] == ks
        assert bits(got) == bits([weighted_log_sum(s, k) for k in ks])

    def test_block_rows_tied_at_different_ks(self):
        n = 80
        lone = []
        for seed, run in ((3, slice(10, 40)), (4, slice(30, 45))):
            z = np.sort(np.exp(np.random.default_rng(seed).standard_normal(n)))[::-1].copy()
            z[run] = z[run.start]  # a tie run of its own, overlapping the other row's at k = 31..39
            lone.append(sort_censored(z, np.arange(n) % 2))
        block = SortedCensoredSample(*_top_sorted(np.stack([s.z for s in lone]), np.stack([s.delta for s in lone]), n))
        ks = np.arange(2, n)
        got = _sweep(block, "new", ks)
        for row, s in zip(got, lone):
            assert bits(row) == bits(sweep(s, "new", ks))


class TestScanOnTieHeavyData:
    @pytest.mark.parametrize("estimator_id,start", [("efg", 1), ("new", 2)])
    @pytest.mark.parametrize("seed", [35, 36])
    def test_matches_brute_force(self, estimator_id, start, seed):
        s = sort_censored(*integer_day_sample(400, seed))
        assert np.unique(s.z).size < 200 and 0 < s.delta.sum() < s.n
        sel = reiss_thomas_k(s, estimator_id, theta=0.3)
        want_k, want_crit = brute_force_selection(s, estimator_id, 0.3, 2, s.n - 1, start=start)
        assert sel.k_star == want_k
        assert set(np.flatnonzero(~np.isnan(sel.criterion_values)) + 2) == set(want_crit)
        for k, value in want_crit.items():
            assert sel.criterion_values[k - 2] == pytest.approx(value, rel=1e-12)
