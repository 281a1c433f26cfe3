"""The ``new`` path's buffered loop, pinned bit for bit against the direct sum.

``_new_path`` writes each threshold's weights, logs and products into
buffers made once per call, and sums a view of the first rows * (k-1)
entries of a flat buffer.  These grids make a later k read a buffer that an
earlier, larger or smaller k left behind: a grid that shrinks and grows
again, a descending grid, a repeated k, k = 2 alone, and a rise within a
tie run, where the log row is reused over what a larger k left.  Each is
checked on a tie-heavy sample, on a two-row block whose tie runs differ and
on a block cut to its top values, against ``oracle.weighted_log_sum`` on
each lone row.
"""

import numpy as np
import pytest
from oracle import weighted_log_sum
from test_sweep_kernels import integer_day_sample

from tailcens import Pareto, sort_censored, sweep
from tailcens.censored import SortedCensoredSample, _draw_block, _sorted
from tailcens.estimators import _sweep


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def rise_within_a_tie_run(s):
    """[n-1, a, a+2] with one threshold value at a and a+2 in every row, or None without such a run.

    k = n-1 fills the log buffer; a takes a shorter row of its own, and a+2
    reuses it with two entries set to +0.0 over what k = n-1 left there.
    """
    zr = s.z[..., ::-1]
    for a in range(2, s.n - 3):
        if np.all(zr[..., a] == zr[..., a + 2]) and np.any(zr[..., a] != zr[..., s.n - 1]):
            return [s.n - 1, a, a + 2]
    return None


def grids(s):
    """Threshold grids over valid ks 2..n-1 that revisit buffers out of order."""
    n = s.n
    return {
        "shrink_and_grow": [n - 1, 2, n - 1],
        "descending": list(range(n - 1, 1, -3)),
        "repeated": [n // 2, n // 2, 7, 7, n // 2, 3, n - 1, n - 1],
        "k2_alone": [2],
        "rise_within_a_tie_run": rise_within_a_tie_run(s) or [n - 1, 2, 4],
    }


GRIDS = ["shrink_and_grow", "descending", "repeated", "k2_alone", "rise_within_a_tie_run"]


def rows(block):
    """Each row of a block as a lone sample."""
    return [SortedCensoredSample(z, d, t) for z, d, t in zip(block.z, block.delta, block.top_delta_prefix)]


def tie_heavy_sample():
    s = sort_censored(*integer_day_sample(600, 37))
    assert np.unique(s.z).size < s.n // 4 and 0 < s.delta.sum() < s.n
    return s


def two_row_block():
    """Two rows of 90 values, each with a tie run of its own, overlapping the other's at some ks."""
    n, lone = 90, []
    for seed, run in ((5, slice(8, 50)), (6, slice(30, 62))):
        z = np.sort(np.exp(np.random.default_rng(seed).standard_normal(n)))[::-1].copy()
        z[run] = z[run.start]
        lone.append((z, np.arange(n) % 3 != 1))
    z, delta = (np.stack(a) for a in zip(*lone))
    block = SortedCensoredSample(*_sorted(z, delta.astype(np.int64)))
    top = block.z[:, ::-1]
    assert top[0, 20] == top[0, 40] and top[1, 20] != top[1, 40]  # the rows' runs differ
    return block


def top_cut_block():
    return _draw_block(Pareto(1.0), Pareto(1.0), 300, 11, range(7), top=61)


@pytest.mark.parametrize("grid", GRIDS)
def test_one_sample_matches_the_direct_sum(grid):
    s = tie_heavy_sample()
    ks = grids(s)[grid]
    assert bits(sweep(s, "new", ks)) == bits([weighted_log_sum(s, k) for k in ks])


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("make_block", [two_row_block, top_cut_block])
def test_block_rows_match_the_direct_sum(make_block, grid):
    block = make_block()
    ks = grids(block)[grid]
    got = _sweep(block, "new", ks)
    assert got.shape == (block.z.shape[0], len(ks))
    for row, lone in zip(got, rows(block)):
        assert bits(row) == bits([weighted_log_sum(lone, k) for k in ks])


def test_tied_samples_have_a_run_to_rise_within():
    assert rise_within_a_tie_run(tie_heavy_sample()) and rise_within_a_tie_run(two_row_block())


@pytest.mark.parametrize("make", [tie_heavy_sample, two_row_block, top_cut_block])
def test_consecutive_sweeps_carry_no_state(make):
    s = make()
    long, short = np.arange(2, s.n), np.array([s.n - 1, 2, 5])
    first = _sweep(s, "new", long)
    assert bits(_sweep(s, "new", short).ravel()) == bits(first[..., short - 2].ravel())
    assert bits(_sweep(s, "new", long).ravel()) == bits(first.ravel())
