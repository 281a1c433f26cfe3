"""The numpy behaviour that the pinned output bits rest on, each checked directly.

The digests in ``bench/digests.json`` were measured with numpy 2.4.6, and bit
identity holds per numpy version.  numpy does not promise any of these
details, so each assertion names the kernel that depends on it: a numpy
upgrade that changes one fails here, at its cause, before any digest does.
The SeedSequence hashing and Philox state layout that ``rng._keys`` and
``rng._keyed`` copy are checked against numpy's own in ``tests/test_keyed_draw.py``.
"""

import numpy as np
import pytest

from tailcens import Pareto, generate_censored, sort_censored, stream, tailprocess
from tailcens.censored import SortedCensoredSample

# the exponents the draws take: Pareto and Frechet -gamma (test, bench and fitted-null indices), Burr -1/lam
# (the bench designs' lam) and 1/tau (0.5 is numpy's sqrt path, -1 its reciprocal, 2 its square)
EXPONENTS = [-0.5, -1.0, -2.0, -0.8, -0.9, -1.25, -0.3717, -1 / 2.030303, -1 / 0.428571, -1 / 0.75, 0.5, 1 / 3, 1.0,
             2.0, -1e-15]


def uniforms(size=4096, seed=0):
    u = stream(seed).random(size)
    u[u == 0.0] = 0.5 / (1 << 53)
    return u


@pytest.mark.parametrize("exponent", EXPONENTS)
def test_in_place_power_is_the_out_of_place_power(exponent):
    u = uniforms()
    for base in (u, 1.0 - u, -np.log(u), (1.0 - u) ** -0.5 - 1.0):
        inplace = base.copy()
        inplace **= exponent
        assert np.array_equal(inplace.view(np.int64), (base**exponent).view(np.int64)), (
            "distributions._quantile raises its buffer to a power in place with **= (Pareto, Burr, Frechet)")


def test_in_place_subtract_is_the_out_of_place_subtract():
    u = uniforms()
    inplace = u.copy()
    assert np.subtract(1.0, inplace, out=inplace) is inplace
    assert np.array_equal(inplace.view(np.int64), (1.0 - u).view(np.int64)), (
        "Pareto._quantile and Burr._quantile take 1 - u in the draw buffer with np.subtract(1.0, u, out=u)")


@pytest.mark.parametrize("size", [1, 7, 200, 2_000, 20_000])
def test_random_into_a_row_consumes_the_stream_as_random_of_a_size(size):
    block, gen, ref = np.empty((2, size)), stream(5, 1), stream(5, 1)
    for row in block:  # rows of one block buffer, as _rows fills them
        gen.random(out=row)
    for row in block:
        assert np.array_equal(row, ref.random(size)), (
            "HeavyTailModel._rows fills block rows with Generator.random(out=row): each must be random(size)")
    assert np.array_equal(gen.random(3), ref.random(3)), (
        "HeavyTailModel._rows: random(out=row) must leave the stream where random(size) leaves it")


def pairwise(values) -> float:
    """numpy's pairwise sum, in Python: eight running sums up to 128 terms, halves (at a multiple of 8) above."""
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r, i = list(values[:8]), 8
        while i < n - n % 8:
            r = [a + b for a, b in zip(r, values[i : i + 8])]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[i:]:
            total += v
        return total
    half = n // 2 - n // 2 % 8
    return pairwise(values[:half]) + pairwise(values[half:])


@pytest.mark.parametrize("m", [1, 7, 8, 9, 127, 128, 129, 300, 1_999, 9_000])
def test_contiguous_add_reduce_is_the_pairwise_sum_of_each_row(m):
    rng = np.random.default_rng(m)
    terms = rng.random((3, m)) * 10.0 ** rng.uniform(-6, 6, (3, m))
    buffer = np.empty(terms.size + 7)  # rows at every 8-byte offset of a larger buffer, as _new_factors places them
    for offset in (0, 1, 5):
        view = buffer[offset : offset + terms.size].reshape(terms.shape)
        view[:] = terms
        got = np.add.reduce(view, axis=-1)
        for row in range(3):
            want = pairwise(terms[row].tolist())
            assert got[row] == want and np.sum(terms[row].copy()) == want, (
                "estimators._new_loop sums each block row's terms with np.add.reduce along its contiguous last "
                "axis: it must be numpy's pairwise sum, the bits np.sum of new_terms gives a lone sample")


@pytest.mark.parametrize("theta", [0.0, 0.1, 0.25, 0.3, 0.5])
def test_in_place_power_of_thresholds_is_the_scalar_power(theta):
    ks = np.arange(1, 200_001)
    w = ks.astype(float)
    w **= theta
    assert np.array_equal(w.view(np.int64), (ks.astype(float) ** theta).view(np.int64)), (
        "selection._scan raises its weights with w **= theta: it must give the bits of path_ks.astype(float) ** theta")
    if theta == 0.5:
        assert np.array_equal(w.view(np.int64), np.sqrt(ks).view(np.int64)), (
            "selection._scan's w **= 0.5 must take numpy's scalar-power path, np.sqrt's bits")


@pytest.mark.parametrize("rows", [9, 129, 205, 1_000])
@pytest.mark.parametrize("width", [1, 3])
def test_add_reduce_over_rows_adds_row_after_row_only_for_rows_of_two_values_or_more(rows, width):
    gen = np.random.default_rng(rows * 7 + width)
    terms = gen.random((rows, 2, width)) * 10.0 ** gen.uniform(-6, 6, (rows, 2, width))
    running = terms[0].copy()
    for row in terms[1:]:
        running += row
    assert np.array_equal(np.add.reduce(terms, axis=0).view(np.int64), running.view(np.int64)), (
        "harness.run_bias_rmse's fold adds a block's (rows, 2, k grid) buffer with np.add.reduce(axis=0): it must add "
        "row after row, as np.nansum over the replicate axis does")
    column = np.ascontiguousarray(terms[:, 0, :1])
    assert np.add.reduce(column, axis=0)[0] == pairwise(column[:, 0].tolist()), (
        "harness.run_bias_rmse's fold keeps its (err, err**2) axis because np.add.reduce sums a column of one value "
        "per row pairwise, not row after row: a one-k grid would then sum otherwise than inside a wider grid")


def test_steps_returns_contiguous_breakpoints_and_levels():
    z, delta = generate_censored(Pareto(1.0), Pareto(2.0), 400, stream(3))
    s = sort_censored(np.round(z, 1), delta)  # ties among the atoms
    block = SortedCensoredSample(np.stack([s.z, s.z]), np.stack([s.delta, s.delta]),
                                 np.stack([s.top_delta_prefix, s.top_delta_prefix]))
    for v in (s, block):
        for k in (2, 40, 399):
            breakpoints, levels = tailprocess._steps(*tailprocess._atoms(v, k))
            assert breakpoints.flags.c_contiguous and levels.flags.c_contiguous, (
                "tailprocess._ks_from_curve and _cvm_from_curve raise breakpoints to powers, which numpy computes "
                "with other bits on a reversed (negative-stride) view: _steps must return contiguous copies")
