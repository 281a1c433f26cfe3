"""Who owns the replicate block buffers.

``censored._replicates`` makes its block buffers once per call, before any
fork, and every block a process runs draws, censors and keys in them: the
lifetimes' buffer always, the censoring times' one where whole rows keep
delta in it.  The public draws return arrays of their own, and two threads
that run the replicate loop at once each get their own buffers.
"""

import os
import sys
import threading

import numpy as np
import pytest

from tailcens import ESTIMATOR_IDS, McConfig, Pareto, gof_pvalue, run_bias_rmse, run_variance_check, stream
from tailcens import generate_censored, sort_censored
from tailcens.censored import _BLOCK_VALUES, _replicates

N = 200
ROWS = _BLOCK_VALUES // N  # 81 rows per block at n = 200


@pytest.fixture
def draws(monkeypatch):
    """The buffers Pareto draws into, in call order: each block draws its lifetimes, then its censoring times."""
    seen, rows = [], Pareto._rows

    def spy(self, out, rngs):
        seen.append(out)
        return rows(self, out, rngs)

    monkeypatch.setattr(Pareto, "_rows", spy)
    return seen


@pytest.mark.parametrize("top", [None, 11])
def test_consecutive_blocks_draw_into_the_same_storage(draws, top):
    _replicates(Pareto(1.0), Pareto(2.0), N, 2 * ROWS + 1, 4, lambda v: v.z[:, :1].copy(), 1, top=top)
    assert len(draws) == 2 * 3  # three blocks, the last of one row
    address = [out.__array_interface__["data"][0] for out in draws]
    assert address[0::2] == [address[0]] * 3, "every block draws its lifetimes into one buffer"
    assert address[0] not in address[1::2]
    if top is None:  # whole rows keep delta in the censoring times' buffer while they score, so it is kept too
        assert address[1::2] == [address[1]] * 3


def test_whole_rows_are_scored_in_the_block_storage(draws):
    blocks = []  # kept past their calls only to compare storage, never read
    _replicates(Pareto(1.0), Pareto(2.0), N, 2 * ROWS, 4, lambda v: blocks.append(v.z) or v.z[:, :1].copy(), 1)
    assert len(blocks) == 2
    for z in blocks:  # the sorted lifetimes' minima sit where the lifetimes were drawn
        assert np.shares_memory(z, draws[0]) and not z.flags.writeable


def test_public_draws_never_return_the_block_storage(draws):
    def score(v):
        block = [v.z, v.delta, *draws]
        u = np.full(5, 0.25)
        results = [*generate_censored(Pareto(1.0), Pareto(2.0), N, stream(1)), Pareto(1.0).sample(N, stream(2)),
                   Pareto(1.0).quantile(u)]
        assert not any(np.shares_memory(r, b) for r in results for b in block)
        assert np.array_equal(u, np.full(5, 0.25)), "quantile leaves its argument as it was"
        return np.zeros((len(v.z), 1))

    _replicates(Pareto(1.0), Pareto(2.0), N, ROWS + 1, 4, score, 1)


def test_two_threads_running_gof_at_once_each_get_the_serial_report():
    samples = [sort_censored(*generate_censored(Pareto(1.0), Pareto(2.0), n, stream(n))) for n in (300, 2_000)]
    serial = [gof_pvalue(s, 30, reps=400, seed=3) for s in samples]
    got = [[], []]

    def run(i):
        for _ in range(3):
            got[i].append(gof_pvalue(samples[i], 30, reps=400, seed=3, workers=2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so the two loops interleave block by block
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[report] * 3 for report in serial]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("n,reps", [(N, 2 * ROWS + 5), (2_000, 101), (20_000, 100)])
def test_reports_do_not_depend_on_workers(monkeypatch, n, reps):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)  # so three workers fork
    s = sort_censored(*generate_censored(Pareto(1.0), Pareto(2.0), n, stream(n)))
    gof = [gof_pvalue(s, 20, reps=reps, seed=3, workers=w) for w in (1, 2, 3)]
    var = [run_variance_check(Pareto(1.0), Pareto(2.0), n, 20, reps, 3, workers=w) for w in (1, 2, 3)]
    cfg = McConfig(Pareto(1.0), Pareto(2.0), n, reps, (5, 20), ESTIMATOR_IDS, 3)
    mc = [run_bias_rmse(cfg) for _ in range(3)]
    assert gof[0] == gof[1] == gof[2] and var[0] == var[1] == var[2]
    for other in mc[1:]:
        for field in ("bias", "rmse", "undefined_count"):
            assert getattr(other, field).tobytes() == getattr(mc[0], field).tobytes()
