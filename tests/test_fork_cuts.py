"""``parallel._cuts``, the one fork cut, against the two cuts it replaced.

Replicate blocks were cut into equal counts, range i holding indices
count*i//parts up to count*(i+1)//parts.  The ``new`` path was cut at equal
sum(k - 1) times rows by ``np.split`` at ``np.searchsorted`` of the running
work, with empty parts dropped.  Both are restated here as oracles, and the
one cut must give their split points and part counts: for every count up to
64 over one to four CPUs, and for random increasing ks on one sample and on
a block, a cut inside a tie run included.
"""

import os

import numpy as np
import pytest
from test_new_path_buffers import bits, tie_heavy_sample, top_cut_block

from tailcens import (
    Pareto,
    estimators,
    generate_censored,
    gof_pvalue,
    parallel,
    run_variance_check,
    sort_censored,
    stream,
)
from tailcens.estimators import _new_loop, _sweep


def equal_count_cuts(count, workers):
    """The replicate blocks' cut: equal counts over the processes ``_fork_parts`` allows."""
    parts = parallel._fork_parts(min(workers, count))
    return [(count * i // parts, count * (i + 1) // parts) for i in range(parts)]


def new_path_split(ks, rows, least):
    """The ``new`` path's cut: ``np.split`` of ks at equal sum(k - 1) times rows, empty parts dropped."""
    cpus = parallel._fork_parts(ks.size)
    if cpus > 1:
        work = np.cumsum(ks - 1) * rows
        if work[-1] >= least:
            parts = np.split(ks, np.searchsorted(work, work[-1] * np.arange(1, cpus) // cpus) + 1)
            return [part.tolist() for part in parts if part.size]
    return [ks.tolist()]


def cut_parts(ks, rows, least):
    cuts = parallel._cuts(ks.size, ks.size, lambda: np.cumsum(ks - 1) * rows, least)
    assert all(cut.step == 1 and cut.start < cut.stop for cut in cuts)
    return [ks[cut.start : cut.stop].tolist() for cut in cuts]


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@needs_fork
@pytest.mark.parametrize("cpu_count", [1, 2, 3, 4])
def test_unit_work_gives_the_equal_count_ranges(monkeypatch, cpu_count):
    cpus(monkeypatch, cpu_count)
    for count in range(65):
        for limit in range(1, 5):
            got = [(cut.start, cut.stop) for cut in parallel._cuts(count, limit)]
            assert got == equal_count_cuts(count, limit), (count, limit)


def random_increasing_ks(gen, n):
    size = int(gen.integers(1, n - 1))
    return np.sort(gen.choice(np.arange(2, n), size=size, replace=False))


@needs_fork
@pytest.mark.parametrize("cpu_count", [2, 3, 4])
@pytest.mark.parametrize("rows", [1, 7])
def test_running_work_gives_the_new_path_split_points(monkeypatch, cpu_count, rows):
    cpus(monkeypatch, cpu_count)
    gen = np.random.default_rng(cpu_count * 10 + rows)
    for _ in range(300):
        ks = random_increasing_ks(gen, int(gen.integers(3, 400)))
        least = int(gen.choice([1, int(np.sum(ks - 1)) * rows, 2**24]))  # splits, splits at the edge, runs whole
        assert cut_parts(ks, rows, least) == new_path_split(ks, rows, least), (ks.tolist(), least)


@needs_fork
@pytest.mark.parametrize("ks,parts", [([2, 300], [[2, 300]]), ([2, 3, 400, 401], [[2, 3, 400], [401]]),
                                      ([2, 3, 4, 900], [[2, 3, 4, 900]])])
def test_a_part_left_empty_is_dropped(monkeypatch, ks, parts):
    cpus(monkeypatch, 3)
    ks = np.array(ks)
    assert cut_parts(ks, 1, 1) == new_path_split(ks, 1, 1) == parts


def test_running_work_is_not_summed_for_one_part(monkeypatch):
    cpus(monkeypatch, 2)
    ask = lambda: pytest.fail("summed the work")  # noqa: E731
    assert parallel._cuts(1, 1, ask) == [range(1)] and parallel._cuts(5, 1, ask) == [range(5)]


@pytest.mark.parametrize("make", [tie_heavy_sample, top_cut_block])
def test_sweeps_split_where_the_new_path_split(forked, make):
    s = make()
    rows, gen, want = int(np.prod(s.z.shape[:-1])), np.random.default_rng(5), []
    for _ in range(4):
        ks = random_increasing_ks(gen, s.n)
        got = _sweep(s, "new", ks)
        want += [new_path_split(ks, rows, estimators._SPLIT_VALUES)] if ks.size > 1 else []
        assert bits(got.ravel()) == bits(_new_loop(s, ks).ravel())
    assert forked == want


def test_a_cut_inside_a_tie_run_gives_the_new_path_split(forked):
    s = tie_heavy_sample()
    zr, gen = s.z[::-1], np.random.default_rng(9)
    for _ in range(100):  # random increasing ks until a cut falls between two ks of one threshold value
        ks = random_increasing_ks(gen, s.n)
        want = new_path_split(ks, 1, estimators._SPLIT_VALUES)
        if len(want) == 2 and zr[want[0][-1]] == zr[want[1][0]]:
            break
    else:
        pytest.fail("no cut inside a tie run")
    got = _sweep(s, "new", ks)
    assert forked == [want]
    assert bits(got) == bits(_new_loop(s, ks))


@needs_fork
@pytest.mark.parametrize("alive_at", ["first cut", "second cut"])
def test_a_thread_alive_at_one_cut_of_a_replicate_call_keeps_every_count(monkeypatch, alive_at):
    # a thread alive at one replicate call's cut alone (one that ends or starts between the two calls' cuts) makes
    # _fork_parts answer 1 there and 2 at the other; each call cuts its blocks once
    cpus(monkeypatch, 2)
    s = sort_censored(*generate_censored(Pareto(1.0), Pareto(1.0), 200, stream(1)))
    run = lambda: (gof_pvalue(s, 40, reps=400, seed=1, workers=2),  # noqa: E731
                   run_variance_check(Pareto(1.0), Pareto(1.0), 200, 40, 400, 1, workers=2))
    want, fork_parts, calls = run(), parallel._fork_parts, []

    def flipped(limit):
        calls.append(limit)
        alive = len(calls) % 2 == (alive_at == "first cut")  # call 1: gof_pvalue's cut; call 2: the variance check's
        return 1 if alive else fork_parts(limit)

    monkeypatch.setattr(parallel, "_fork_parts", flipped)
    assert run() == want and len(calls) == 2


@needs_fork
@pytest.mark.parametrize("call", ["gof_pvalue", "run_variance_check"])
def test_an_affinity_mask_that_shrinks_during_a_replicate_call_keeps_every_count(monkeypatch, call):
    # three CPUs at the call's first read of the mask and two after: a second cut of the blocks would split them
    # into other ranges than the first, and under total=True lose a range's counts (p_ks 0.549 for 0.703)
    cpus(monkeypatch, 3)
    s = sort_censored(*generate_censored(Pareto(1.0), Pareto(1.0), 200, stream(1)))
    run = {"gof_pvalue": lambda: gof_pvalue(s, 40, reps=400, seed=1, workers=3),
           "run_variance_check": lambda: run_variance_check(Pareto(1.0), Pareto(1.0), 200, 40, 400, 1, workers=3)}[call]
    want, reads = run(), []

    def shrinking(pid):
        reads.append(pid)
        return set(range(3 if len(reads) == 1 else 2))

    monkeypatch.setattr(os, "sched_getaffinity", shrinking, raising=False)
    assert run() == want and len(reads) == 1
