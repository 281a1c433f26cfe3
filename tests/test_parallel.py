import contextlib
import os
import signal
import threading

import numpy as np
import pytest

from tailcens import (
    DegenerateNullError, McConfig, Pareto, censored, generate_censored, gof_pvalue, rng, run_bias_rmse,
    run_variance_check, sort_censored, stream, tailprocess,
)
from tailcens.parallel import fork_map, replicate_map


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_runs_in_index_order_on_the_calling_thread():
    calls = []

    def run(cut):
        calls.append(list(cut))
        return list(cut), threading.get_ident()

    out = replicate_map(run, 5, workers=1)
    assert out == [([0, 1, 2, 3, 4], threading.get_ident())]
    assert calls == [[0, 1, 2, 3, 4]]


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@needs_fork
@pytest.mark.parametrize("workers,count,ranges", [(2, 5, [[0, 1], [2, 3, 4]]), (3, 7, [[0, 1], [2, 3], [4, 5, 6]]),
                                                  (4, 3, [[0], [1], [2]])])
def test_forked_ranges_run_in_index_order_and_join_in_index_order(forks, monkeypatch, workers, count, ranges):
    cpus(monkeypatch, 4)
    calls = []  # each process appends to its own copy

    def run(cut):
        calls.append(list(cut))
        return os.getpid(), list(calls)

    out = replicate_map(run, count, workers)
    assert len(forks) == len(ranges) - 1 and all(map(reaped, forks))
    # range(1) runs here before the fork, so each child's calls start with it; the rest of range 0, maybe empty, after
    here = os.getpid()
    parts = [ranges[0][1:], *ranges[1:]]
    assert out == [(here, [[0]])] + [(pid, [[0], part]) for pid, part in zip([here, *forks], parts)]


@needs_fork
@pytest.mark.parametrize("workers,count,here", [(2, 5, [[0], "fork", [1]]), (3, 7, [[0], "fork", "fork", [1]]),
                                                (3, 3, [[0], "fork", "fork", []])])
def test_item_0_runs_here_once_before_the_first_fork(forks, monkeypatch, workers, count, here):
    cpus(monkeypatch, 3)
    caller, spy, log = os.getpid(), os.fork, []  # the caller's log: a child appends to its own copy

    def logged_fork():
        log.append("fork")
        return spy()

    def run(cut):
        if os.getpid() == caller:
            log.append(list(cut))
        return list(cut)

    monkeypatch.setattr(os, "fork", logged_fork)
    assert [r for part in replicate_map(run, count, workers) for r in part] == list(range(count))
    assert log == here and len(forks) == here.count("fork") and all(map(reaped, forks))


@needs_fork
def test_item_0_raising_forks_nothing(forks, monkeypatch):
    cpus(monkeypatch, 2)

    def run(cut):
        if 0 in cut:
            raise KeyError("item 0")
        return list(cut)

    with pytest.raises(KeyError, match="item 0"):
        replicate_map(run, 4, 2)
    assert forks == []


@pytest.mark.parametrize("why", ["one_worker", "one_cpu", "one_index", "second_thread"])
def test_serial_cases_never_fork(monkeypatch, why):
    def no_fork(*args):
        raise AssertionError("forked")

    cpus(monkeypatch, 1 if why == "one_cpu" else 2)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    count = 1 if why == "one_index" else 6
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    if why == "second_thread":
        thread.start()
    try:
        out = replicate_map(lambda cut: (list(cut), threading.get_ident()), count, 1 if why == "one_worker" else 2)
        assert out == [(list(range(count)), threading.get_ident())]
    finally:
        release.set()
        if why == "second_thread":
            thread.join(timeout=30)
            assert not thread.is_alive()


def test_numpy_integer_workers_accepted():
    out = replicate_map(lambda cut: [r * r for r in cut], 4, workers=np.int64(2))
    assert [value for part in out for value in part] == [0, 1, 4, 9]


@pytest.mark.parametrize("workers", [0, -5, True, False, 2.5, "2", None])
def test_invalid_workers_rejected(workers):
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        replicate_map(lambda r: r, 3, workers=workers)


def test_library_callers_share_the_rule():
    z, d = generate_censored(Pareto(1.0), Pareto(1.0), 150, stream(55))
    with pytest.raises(ValueError, match="workers must be an integer >= 1, got -5"):
        gof_pvalue(sort_censored(z, d), 30, reps=100, seed=0, workers=-5)


@needs_fork
def test_fork_map_keeps_order_and_runs_the_first_part_here(forks):
    here = os.getpid()
    out = fork_map(lambda part: (part, os.getpid() == here, np.arange(part * 40_000.0)), [3, 1, 2])
    assert [(part, home) for part, home, _ in out] == [(3, True), (1, False), (2, False)]
    assert all(np.array_equal(arr, np.arange(part * 40_000.0)) for part, _, arr in out)  # larger than a pipe buffer
    assert len(forks) == 2 and all(map(reaped, forks))


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the caller if the block outlasts ``seconds``: a hang fails instead of blocking."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@needs_fork
@pytest.mark.parametrize("raising", [0, 1, 2])
def test_an_exception_reaches_the_caller_with_its_type(forks, raising):
    def fn(part):
        if part == raising:
            raise KeyError(f"part {part}")
        return np.zeros(100_000)  # more than a pipe holds: a child writes until the caller reads or closes its end

    with deadline(60), pytest.raises(KeyError, match="part"):
        fork_map(fn, [0, 1, 2])
    assert len(forks) == 2 and all(map(reaped, forks))


@needs_fork
def test_a_child_that_dies_is_reported(forks):
    with pytest.raises(ChildProcessError, match="wait status"):
        fork_map(lambda part: part if part == 0 else os._exit(3), [0, 1])
    assert all(map(reaped, forks))


def test_one_part_runs_here_without_a_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
    assert fork_map(lambda part: part + 1, [4]) == [5]


# Replicate blocks forked over workers: n = 200 gives 81-row blocks, and a key pass
# (_KEY_ROWS patched to 5 blocks) puts several passes in each process's range of blocks.
N, REPS, PASS_ROWS = 200, 1_000, 405


@pytest.fixture
def blocks_split(forks, monkeypatch):
    """Three CPUs and short key passes, so every ``workers`` value up to 3 forks; gives the forked pids."""
    cpus(monkeypatch, 3)
    monkeypatch.setattr(censored, "_KEY_ROWS", PASS_ROWS)
    return forks


def null_sample():
    return sort_censored(*generate_censored(Pareto(1.0), Pareto(2.0), N, stream(12)))


@needs_fork
def test_gof_and_variance_check_bits_do_not_depend_on_workers(blocks_split):
    s = null_sample()
    gof = [gof_pvalue(s, 30, reps=REPS, seed=3, workers=w) for w in (1, 2, 3)]
    var = [run_variance_check(Pareto(1.0), Pareto(2.0), N, 20, REPS, 3, workers=w) for w in (1, 2, 3)]
    assert gof[0] == gof[1] == gof[2] and var[0] == var[1] == var[2]
    assert len(blocks_split) == 2 * (1 + 2) and all(map(reaped, blocks_split))


@needs_fork
def test_a_degenerate_null_in_a_child_reaches_the_caller(blocks_split, monkeypatch):
    here, fit_stats = os.getpid(), tailprocess._fit_stats

    def fit_in_caller_only(v, k):
        if os.getpid() != here:
            raise DegenerateNullError("raised in a child")
        return fit_stats(v, k)

    monkeypatch.setattr(tailprocess, "_fit_stats", fit_in_caller_only)
    with deadline(60), pytest.raises(DegenerateNullError, match="raised in a child"):
        gof_pvalue(null_sample(), 30, reps=REPS, seed=3, workers=2)
    assert len(blocks_split) == 1 and all(map(reaped, blocks_split))


@needs_fork
@pytest.mark.parametrize("workers", [2, 3])
def test_each_process_derives_the_keys_of_its_own_rows(blocks_split, monkeypatch, tmp_path, workers):
    log, keys = tmp_path / "keys.txt", rng._keys

    def spy(seed, rows, *tail):  # one line per derivation, appended by whichever process derives
        with open(log, "a") as fh:
            fh.write(f"{tail[0]} {rows.start} {rows.stop}\n")
        return keys(seed, rows, *tail)

    monkeypatch.setattr(rng, "_keys", spy)
    gof_pvalue(null_sample(), 30, reps=REPS, seed=3, workers=workers)
    assert len(blocks_split) == workers - 1
    derived = [line.split() for line in log.read_text().splitlines()]
    for tail in "01":
        rows = [r for t, lo, hi in derived if t == tail for r in range(int(lo), int(hi))]
        assert sorted(rows) == list(range(REPS))


def test_bias_rmse_runs_its_blocks_here_whatever_the_workers(monkeypatch):
    cfg = McConfig(Pareto(1.0), Pareto(2.0), N, 300, (10, 40), ("new", "efg"), seed=2)
    serial = run_bias_rmse(cfg)
    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
    two = run_bias_rmse(cfg)
    for got, want in zip((two.bias, two.rmse, two.undefined_count),
                         (serial.bias, serial.rmse, serial.undefined_count)):
        assert np.array_equal(got, want, equal_nan=True)
