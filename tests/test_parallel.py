import contextlib
import os
import signal
import threading

import numpy as np
import pytest

from tailcens import Pareto, generate_censored, gof_pvalue, sort_censored, stream
from tailcens.parallel import fork_map, replicate_map


def test_runs_in_index_order_on_the_calling_thread():
    calls = []

    def fn(r):
        calls.append(r)
        return r, threading.get_ident()

    out = replicate_map(fn, 5, workers=4)
    assert out == [(r, threading.get_ident()) for r in range(5)]
    assert calls == [0, 1, 2, 3, 4]


def test_numpy_integer_workers_accepted():
    assert replicate_map(lambda r: r * r, 4, workers=np.int64(2)) == [0, 1, 4, 9]


@pytest.mark.parametrize("workers", [0, -5, True, False, 2.5, "2", None])
def test_invalid_workers_rejected(workers):
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        replicate_map(lambda r: r, 3, workers=workers)


def test_library_callers_share_the_rule():
    z, d = generate_censored(Pareto(1.0), Pareto(1.0), 150, stream(55))
    with pytest.raises(ValueError, match="workers must be an integer >= 1, got -5"):
        gof_pvalue(sort_censored(z, d), 30, reps=100, seed=0, workers=-5)


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
