import threading

import numpy as np
import pytest

from tailcens import Pareto, generate_censored, gof_pvalue, sort_censored, stream
from tailcens.parallel import replicate_map


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
