"""``new_terms``: the per-rank terms of ``new_weighted`` and its guard-floor mask.

The terms sum to the estimate bit for bit, so the diagnostic measures the
estimator itself.  A guard-floor term is one with S(i) = 0: no uncensored
observation among the top i, weight x/(0 + x) = 1 exactly, so the term is
the whole log excess.
"""

import numpy as np
import pytest
from conftest import make_sample
from test_sweep_kernels import integer_day_sample

from tailcens import new_terms, new_weighted, sort_censored


def bits(value):
    return np.float64(value).view(np.int64)


SAMPLES = {
    "model_pairs": [make_sample(seed, n=250) for seed in range(6)],
    "tie_heavy": [sort_censored(*integer_day_sample(800, seed)) for seed in (41, 42)],
}


@pytest.mark.parametrize("kind", SAMPLES)
def test_terms_sum_to_the_estimate_bit_for_bit(kind):
    for s in SAMPLES[kind]:
        for k in (2, 3, 17, s.n // 2, s.n - 1):
            terms, floor = new_terms(s, k)
            assert terms.shape == floor.shape == (k - 1,)
            assert bits(np.sum(terms)) == bits(new_weighted(s, k))


def test_k2_has_one_term():
    s = sort_censored([1.0, 2.0, 4.0, 8.0], [1, 1, 0, 0])
    terms, floor = new_terms(s, 2)
    assert floor.tolist() == [True]  # the top point is censored
    assert terms.tolist() == np.log(np.array([4.0]) / 2.0).tolist()  # weight exactly 1: the bare log excess
    assert bits(np.sum(terms)) == bits(new_weighted(s, 2))


def test_floor_mask_marks_ranks_without_an_uncensored_point_above():
    s = sort_censored([1.0, 2.0, 3.0, 5.0, 7.0, 11.0, 13.0], [1, 1, 1, 1, 0, 1, 0])
    terms, floor = new_terms(s, 6)
    # from the top: 13 censored, 11 observed, 7 censored, 5 observed, 3 observed
    assert floor.tolist() == [True, False, False, False, False]
    zr = s.z[::-1]
    logs = np.log(zr[1:6] / zr[6])  # log(Z(n-i)/Z(n-k)) for ranks i = 1..5, over the threshold 1.0
    assert terms[0] == logs[0]
    assert np.all(terms[~floor] < logs[~floor])  # weights below 1 elsewhere


def test_bad_threshold_is_rejected():
    s = sort_censored([1.0, 2.0, 3.0], [1, 0, 1])
    for k in (1, 3, 2.0, True):
        with pytest.raises(ValueError):
            new_terms(s, k)
