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

A long path is split over forked processes at equal work.  The split tests
lower ``_SPLIT_VALUES`` and report two CPUs, so small paths split, and pin the
split path to the serial loop bit for bit.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import draw_block
from oracle import weighted_log_sum
from test_sweep_kernels import integer_day_sample

import tailcens
from tailcens import (Burr, Pareto, estimators, generate_censored, parallel, sort_censored, stream, sweep,
                      write_censored_csv)
from tailcens.censored import SortedCensoredSample, _top_sorted
from tailcens.estimators import _new_loop, _sweep


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
    block = SortedCensoredSample(*_top_sorted(z, delta.astype(np.int64), n))
    top = block.z[:, ::-1]
    assert top[0, 20] == top[0, 40] and top[1, 20] != top[1, 40]  # the rows' runs differ
    return block


def top_cut_block():
    return draw_block(Pareto(1.0), Pareto(1.0), 300, 11, range(7), top=61)


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


def tie_free_sample():
    s = sort_censored(*generate_censored(Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 2.0), 500, stream(21)))
    assert np.unique(s.z).size == s.n
    return s


def shuffled_with_repeats(s):
    ks = np.random.default_rng(8).permutation(np.concatenate([np.arange(2, s.n), np.arange(s.n // 3, s.n, 5)]))
    assert np.unique(ks).size < ks.size and np.any(np.diff(ks) < 0)
    return ks


SPLIT_CASES = {  # sample, its ks (None: the full path)
    "tie_heavy": (tie_heavy_sample, None),
    "tie_free": (tie_free_sample, None),
    "two_row_block": (two_row_block, None),
    "top_cut_block": (top_cut_block, None),
    "unsorted_with_repeats": (tie_heavy_sample, shuffled_with_repeats),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_path_matches_the_serial_loop(forked, case):
    make, grid = SPLIT_CASES[case]
    s = make()
    ks = grid(s) if grid else np.arange(2, s.n)
    got = _sweep(s, "new", ks)
    assert [sum(map(len, parts)) for parts in forked] == [ks.size] and len(forked[0]) == 2
    assert bits(got.ravel()) == bits(_new_loop(s, ks).ravel())


def test_split_boundary_inside_a_tie_run_takes_a_fresh_row(forked):
    # the serial loop reuses its log row at the second part's first k; the part takes its own
    s = tie_heavy_sample()
    got = sweep(s, "new", np.arange(2, s.n))
    (first, second), zr = forked[0], s.z[::-1]
    assert second[0] == first[-1] + 1 and zr[first[-1]] == zr[second[0]]
    assert bits(got) == bits(_new_loop(s, np.arange(2, s.n)))


def test_parts_carry_equal_work(forked):
    s = tie_free_sample()
    sweep(s, "new", np.arange(2, s.n))
    first, second = (sum(k - 1 for k in part) for part in forked[0])
    # the first part ends at the first k whose running work reaches half the total
    assert first >= (first + second) / 2 > first - (forked[0][0][-1] - 1)


@pytest.mark.parametrize("why", ["second_thread", "one_cpu", "below_the_constant"])
def test_serial_cases_never_fork(monkeypatch, why):
    def no_fork(*args):
        raise AssertionError("forked")

    if why != "below_the_constant":
        monkeypatch.setattr(estimators, "_SPLIT_VALUES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if why == "one_cpu" else {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(parallel, "fork_map", no_fork)
    s = tie_heavy_sample()
    ks = np.arange(2, s.n)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    if why == "second_thread":
        thread.start()
    try:
        assert bits(sweep(s, "new", ks)) == bits(_new_loop(s, ks))
    finally:
        release.set()
        if why == "second_thread":
            thread.join(timeout=30)
            assert not thread.is_alive()


# patches the split to two CPUs and all paths, prints a line it leaves in the stdout buffer, then runs the CLI
SPLIT_CLI = """
import os, sys
from tailcens import estimators, parallel
from tailcens.cli import main
estimators._SPLIT_VALUES = 1
os.sched_getaffinity = lambda pid: {0, 1}
splits, fork_map = [], parallel.fork_map
parallel.fork_map = lambda fn, parts: splits.append(len(parts)) or fork_map(fn, parts)
print("buffered before the fork")
status = main(sys.argv[1:])
print(f"status={status} splits={splits}", file=sys.stderr)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_cli_all_k_prints_each_row_once(tmp_path):
    path = tmp_path / "sample.csv"
    write_censored_csv(path, *generate_censored(Pareto(1.0), Pareto(1.0), 300, stream(4)))
    src = str(Path(tailcens.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["estimate", "--input", str(path), "--all-k", "--estimator", "new,hill", "--out", "-"]
    split = subprocess.run([sys.executable, "-c", SPLIT_CLI, *argv], env=env, capture_output=True, text=True)
    serial = subprocess.run([sys.executable, "-m", "tailcens.cli", *argv], env=env, capture_output=True, text=True)
    assert (split.returncode, split.stderr) == (0, "status=0 splits=[2]\n") and serial.returncode == 0
    lines = split.stdout.splitlines()
    assert lines[0] == "buffered before the fork" and lines[1:] == serial.stdout.splitlines()
    assert len(lines) == 2 + 298 + 299 and len(set(lines)) == len(lines)


@pytest.mark.parametrize("make", [tie_heavy_sample, two_row_block, top_cut_block])
def test_weights_start_on_a_cache_line(make):
    # a speed property, not a bits one: off a 64-byte line the path loop ran about 10 % slower
    s = make()
    for _, weights, _ in estimators._new_factors(s, np.array([s.n - 1, 2, 5])):
        assert weights.ctypes.data % 64 == 0
