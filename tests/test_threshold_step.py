"""The per-threshold step of ``new``, which a whole path and a single read both run, with the same bits.

``estimators._new_factors`` runs one step per threshold: five ufunc calls
into views of its buffers.  A path takes its log row anew only where the
threshold value moves, and otherwise zeroes the entries past the last k
(the ``k - 1 > filled`` guard); a single read has arrays sized to its k and
makes no ``parallel._cuts`` call.  These grids go down and repeat inside a
tie run, on a lone sample, on a block with a leading row axis and across a
CHUNK boundary, against ``oracle.weighted_log_sum``.  ``tailprocess._atoms``
and ``_steps`` read one curve with the same few calls.
"""

import numpy as np
import pytest
from oracle import weighted_log_sum
from test_new_path_buffers import bits, rows, tie_heavy_sample, two_row_block

from tailcens import evaluate, new_terms, new_weighted, parallel, sweep, tailprocess, weighted_functional
from tailcens.estimators import CHUNK, _new_factors, _new_path, _sweep


def down_and_repeat_in_a_tie_run(s):
    """[n-1, a, a+3, a+3, a+1, a+2], with one threshold value at a..a+3 in every row and another at n-1.

    k = n-1 fills the log row; a takes a fresh, shorter one; a+3 zeroes entries that n-1 left, the repeat and
    the fall to a+1 zero none, and the rise to a+2 zeroes one again.
    """
    zr = s.z[..., ::-1]
    a = next(a for a in range(2, s.n - 4)
             if np.all(zr[..., a] == zr[..., a + 3]) and np.any(zr[..., a] != zr[..., s.n - 1]))
    return [s.n - 1, a, a + 3, a + 3, a + 1, a + 2]


def across_a_chunk_boundary(s):
    """The same grid after CHUNK - 3 copies of n-1: the repeat of a+3 is the first k of the second chunk."""
    ks = [s.n - 1] * (CHUNK - 3) + down_and_repeat_in_a_tie_run(s)
    assert ks[CHUNK - 1] == ks[CHUNK] and ks[CHUNK - 2] < ks[CHUNK - 1]
    return ks


@pytest.mark.parametrize("grid", [down_and_repeat_in_a_tie_run, across_a_chunk_boundary])
def test_a_sample_path_that_falls_and_repeats_in_a_tie_run_has_the_direct_sums(grid):
    s = tie_heavy_sample()
    ks = grid(s)
    want = {k: weighted_log_sum(s, k) for k in set(ks)}
    assert bits(sweep(s, "new", ks)) == bits([want[k] for k in ks])


def test_a_block_path_that_falls_and_repeats_in_a_tie_run_has_each_rows_direct_sums():
    block = two_row_block()
    ks = down_and_repeat_in_a_tie_run(block)
    got = _sweep(block, "new", ks)
    for row, lone in zip(got, rows(block)):
        assert bits(row) == bits([weighted_log_sum(lone, k) for k in ks])


def test_single_reads_give_the_path_bits_at_every_k():
    s = tie_heavy_sample()
    path = sweep(s, "new", np.arange(2, s.n))
    for k, want in zip(range(2, s.n), bits(path)):
        terms, _ = new_terms(s, k)
        got = [new_weighted(s, k), float(np.sum(terms)), weighted_functional(s, k), float(sweep(s, "new", [k])[0])]
        assert bits(got) == [want] * 4, k


def test_single_block_reads_give_the_path_bits():
    block = two_row_block()
    path = _sweep(block, "new", np.arange(2, block.n))
    for k in range(2, block.n):
        assert bits(_new_path(block, np.array([k]))[:, 0]) == bits(path[:, k - 2])


def test_a_single_read_makes_no_cut(monkeypatch):
    s, block, calls = tie_heavy_sample(), two_row_block(), []
    monkeypatch.setattr(parallel, "_cuts", lambda *args: calls.append(args) or [range(args[0])])
    for k in (2, 40, s.n - 1):
        new_weighted(s, k), new_terms(s, k), weighted_functional(s, k), evaluate(s, k, "new"), sweep(s, "new", [k])
    _sweep(block, "new", [30])
    assert calls == []
    sweep(s, "new", [3, 4])  # a path of two ks asks for its cut
    assert len(calls) == 1


@pytest.mark.parametrize("make", [tie_heavy_sample, two_row_block])
def test_single_read_buffers_are_sized_to_their_k(make):
    s = make()
    for k in (2, 17, s.n - 1):
        (j, weights, logs), = _new_factors(s, np.array([k]))
        assert j == 0 and weights.shape == logs.shape == s.z.shape[:-1] + (k - 1,)
        assert weights.base is None or weights.base.size == weights.size


@pytest.mark.parametrize("make", [tie_heavy_sample, two_row_block])
def test_the_log_row_is_the_log_of_the_curve_positions(make):
    s = make()
    for k in range(2, s.n, 7):
        _, _, logs = next(_new_factors(s, np.array([k])))
        _, positions, _ = tailprocess._atoms(s, k)
        assert bits(logs.ravel()) == bits(np.log(positions).ravel()), k


def test_accumulate_is_cumsum():
    # tailprocess._steps sums the atom weights with np.add.accumulate, whose call costs less than np.cumsum's
    terms = np.random.default_rng(4).random((5, 300)) * 10.0 ** np.random.default_rng(5).uniform(-6, 6, (5, 300))
    assert bits(np.add.accumulate(terms, -1).ravel()) == bits(np.cumsum(terms, axis=-1).ravel())
