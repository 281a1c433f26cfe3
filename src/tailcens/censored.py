"""Right-censored samples: generation, ordering with concomitant flags, and replicate blocks.

An observation is a pair ``(z, delta)`` where ``z`` is the observed minimum
of a lifetime and an independent censoring time, and ``delta`` is 1 when the
lifetime itself was observed (uncensored).  Estimators work on the sample
sorted ascending with each indicator travelling alongside its observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import parallel, rng  # lazy: only the replicate engine runs them
from .rules import _check_count, _check_instance, _check_models, _check_workers, _float_array

if TYPE_CHECKING:
    from .distributions import HeavyTailModel

__all__ = ["SortedCensoredSample", "sort_censored", "censor", "generate_censored"]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SortedCensoredSample:
    """Ascending observations with concomitant censoring indicators.

    Attributes
    ----------
    z : ndarray
        Observed minima, sorted ascending, all positive.
    delta : ndarray
        0/1 indicators aligned with ``z`` (1 = uncensored).
    top_delta_prefix : ndarray
        ``top_delta_prefix[i-1]`` counts the uncensored observations among
        the ``i`` largest, i.e. the running sum of ``delta`` taken from the
        top of the sample downward.

    The arrays hold one sample, or a block of replicate samples with a
    leading row axis.  The estimators read the private ``_*`` tail view:
    arrays indexed from the top of each sample, each built on first use and
    cached.  All arrays, cached ones included, are read-only.  Every piece
    but ``_km_desc`` (a product from the bottom) is a prefix scan or map
    taken from the top, so a row of only the top ``m`` values gives the
    whole sample's bits at every k < m.
    """

    z: np.ndarray
    delta: np.ndarray
    top_delta_prefix: np.ndarray

    @property
    def n(self) -> int:
        """Length of the last axis: the sample size of a whole sample."""
        return self.z.shape[-1]

    @cached_property
    def _z_desc(self) -> np.ndarray:  # Z(n-i) at index i, contiguous
        return _read_only(np.ascontiguousarray(self.z[..., ::-1]))

    @cached_property
    def _top_float(self) -> np.ndarray:
        return _read_only(self.top_delta_prefix.astype(float))

    @cached_property
    def _log_spacings(self) -> np.ndarray:  # lam_j = log(Z(n-j+1)/Z(n-j)) at index j-1
        zr = self._z_desc
        return _read_only(np.log(zr[..., :-1] / zr[..., 1:]))

    @cached_property
    def _hill_sums(self) -> np.ndarray:
        # at index k-1, the top k log excesses over Z(n-k), telescoped: sum_{j<=k} j*lam_j
        return _read_only(np.cumsum(np.arange(1, self.n) * self._log_spacings, axis=-1))

    @cached_property
    def _km_desc(self) -> np.ndarray:  # product-limit survival 1 - F at Z(n-i), at index i
        factors = np.where(self.delta == 1, 1.0 - 1.0 / (self.n - np.arange(self.n, dtype=float)), 1.0)
        return _read_only(np.cumprod(factors, axis=-1)[..., ::-1])


def sort_censored(z, delta) -> SortedCensoredSample:
    """Sort observations ascending, carrying the indicators along.

    Tied observations are ordered with the uncensored ones (delta = 1)
    first, the usual survival convention of deaths preceding censorings at
    equal times.  The sample rule: nonempty 1-D numeric arrays of one length
    (bools allowed in ``delta``), ``z`` finite, > 0 and of finite max/min, ``delta`` 0 or 1.
    """
    z, delta = _float_array(z, "z", ndim=1), _float_array(delta, "delta", "biuf", 1)
    if z.size == 0:
        raise ValueError("sample must be nonempty")
    if z.size != delta.size:
        raise ValueError(f"z and delta lengths differ: {z.size} vs {delta.size}")
    if not np.all(np.isfinite(z)) or np.any(z <= 0):
        raise ValueError("all observations must be finite and > 0")
    if (hi := float(z.max())) / (lo := float(z.min())) == np.inf:  # bounds every ratio an estimator takes
        raise ValueError(f"the largest observation over the smallest must be a finite ratio, got {hi!r} / {lo!r}")
    if not np.all((delta == 0) | (delta == 1)):
        raise ValueError("censoring indicators must be 0 or 1")
    return SortedCensoredSample(*map(_read_only, _top_sorted(z, delta, z.size)))


def censor(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Pair a lifetime array with a censoring array: z = min, delta = 1{x <= y}; x and y of one shape, no NaN."""
    x, y = _float_array(x, "x"), _float_array(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"x and y shapes differ: {x.shape} vs {y.shape}")
    if np.isnan(z := np.minimum(x, y)).any():  # NaN in either input propagates to z
        raise ValueError("x and y must hold no NaN")
    return z, (x <= y).astype(np.int64)


def _draw(model_x: HeavyTailModel, model_y: HeavyTailModel, x: np.ndarray, y: np.ndarray, rngs_x, rngs_y=None):
    """The one draw path: row i of x, y from the i-th of rngs_x, rngs_y (None: complete data), checked, censored.

    Leaves z = min(x, y) in x's buffer and returns delta = x <= y as bools (True for complete data).
    """
    with np.errstate(over="ignore"):  # the checks below, as generate_censored states them, catch each overflow
        model_x._rows(x, rngs_x)
        if rngs_y is not None:
            model_y._rows(y, rngs_y)
    if not np.all(np.isfinite(x) & (x > 0)):
        raise ValueError(f"{model_x!r} drew lifetimes outside (0, inf): its parameters are too extreme to simulate")
    if rngs_y is None:
        return True
    if not np.all(y > 0):  # also NaN
        raise ValueError(f"{model_y!r} drew censoring times <= 0: its parameters are too extreme to simulate")
    delta = x <= y
    np.minimum(x, y, out=x)
    return delta


def generate_censored(
    model_x: HeavyTailModel,
    model_y: HeavyTailModel,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` observations of ``model_x`` censored by ``model_y``.

    The lifetime and censoring draws come from two child streams spawned
    from ``rng``, so the pair is reproducible from the parent stream's key
    alone.  A lifetime that overflows to inf or underflows to 0 raises
    ValueError naming ``model_x``, a censoring time that underflows to 0 one
    naming ``model_y``; one that overflows to inf observes its lifetime.
    """
    _check_models(model_x, model_y)
    rng_x, rng_y = _check_instance(rng, np.random.Generator, "rng").spawn(2)
    z, y = np.empty((1, n := _check_count(n, 1, "n"))), np.empty((1, n))
    return z[0], _draw(model_x, model_y, z, y, [rng_x], [rng_y])[0].astype(np.int64)


# a replicate block holds at most this many values (rows * n): cut rows, then whole rows; see _replicates
_BLOCK_VALUES = 2**14
_WHOLE_BLOCK_VALUES = 2**13
_KEY_ROWS = 2**12  # and one pass of key derivation at most this many rows


def _blocks(n: int, reps: int, top: int | None) -> range:
    """The first replicate of each block of max(1, budget // n) rows (the step), covering 0..reps-1.

    The budget is _WHOLE_BLOCK_VALUES for whole rows (``top`` None) and _BLOCK_VALUES for rows cut to their ``top``
    largest values.
    """
    budget = _WHOLE_BLOCK_VALUES if top is None else _BLOCK_VALUES
    return range(0, reps, max(1, budget // _check_count(n, 1, "n")))


def _top_sorted(z: np.ndarray, delta: np.ndarray, m: int, spare: np.ndarray | None = None):
    """The top ``m`` of each row of float ``z`` > 0, ascending with deaths first on ties, and their top-down counts.

    One uint64 key per point carries that order: z > 0, so its float bits order as integers, and the
    low bit, set when censored, puts deaths first on ties.  Equal keys are equal pairs, so partitioning at
    the cut and sorting the ``m`` keys above it keeps the whole row's top ``m``, ties at the cut included.
    With ``spare``, a float array of z's shape, the key is built in z's buffer and whole rows' delta in spare's.
    """
    key = np.left_shift(z.view(np.uint64), 1, out=None if spare is None else z.view(np.uint64))
    key |= delta == 0
    if (cut := key.shape[-1] - m) > 0:
        key.partition(cut, axis=-1)
        key, spare = key[..., cut:].copy(), None
    key.sort(axis=-1)
    delta = np.bitwise_and(key, 1, out=None if spare is None else spare.view(np.uint64)).view(np.int64)
    np.subtract(1, delta, out=delta)
    key >>= 1
    return key.view(float), delta, np.cumsum(delta[..., ::-1], axis=-1)


def _stream_keys(seed: int, rows: range, complete_data: bool) -> list[np.ndarray]:
    """Keys of the streams replicate r draws from: (seed, r) for complete data, else (seed, r, 0) and (seed, r, 1)."""
    return [rng._keys(seed, rows, *tail) for tail in ([()] if complete_data else [(0,), (1,)])]


def _draw_block(model_x: HeavyTailModel, model_y: HeavyTailModel, n: int, keys: list[np.ndarray],
                top: int | None = None, buffers=()) -> SortedCensoredSample:
    """Replicates of size ``n`` as rows, row j drawn from the streams of ``keys[i][j]`` as a lone replicate is.

    ``keys`` are the block's :func:`_stream_keys`: one list, all lifetimes
    observed (drawn from the stream itself), or two, censored; both drawn
    and checked by :func:`_draw`; each row sorted whole, or cut to its
    ``top`` largest values.  The lifetimes, then the censoring times, are
    drawn into ``buffers``, float arrays of at least ``len(keys[0])`` rows
    of ``n`` (new ones where fewer than two are given), and all later work
    is in them; whole rows are returned in them.
    """
    rngs, rows = [rng._keyed(k) for k in keys], len(keys[0])
    x, y = [b[:rows] for b in buffers] + [np.empty((rows, n)) for _ in range(2 - len(buffers))]
    delta = _draw(model_x, model_y, x, y, *rngs)
    return SortedCensoredSample(*map(_read_only, _top_sorted(x, delta, n if top is None else top, y)))


def _replicates(model_x: HeavyTailModel, model_y: HeavyTailModel, n: int, reps: int, seed: int, score,
                workers: int, complete_data: bool = False, top: int | None = None, total: bool = False) -> np.ndarray:
    """``score`` of replicates 0..reps-1 of size ``n``, joined in replicate order, or with ``total`` their sum.

    Replicates run in blocks of max(1, budget // n) consecutive indices
    (:func:`_blocks`).  Whole rows get half the budget of cut rows: a
    whole-row scorer (``run_bias_rmse``'s fold) holds about ten block-sized
    arrays at once, a cut block's scorer two draw buffers and (rows, top)
    stacks.  ``replicate_map`` cuts the blocks once into contiguous ranges
    over up to ``workers`` processes, and each process runs its range's
    blocks in order.  Row j of a block is replicate r_j as a lone replicate
    draws it, its lifetimes from stream (seed, r_j, 0) and its censoring
    times from (seed, r_j, 1), or all from (seed, r_j) for complete data; a
    range's keys are derived in bulk, up to _KEY_ROWS rows a pass, so their
    memory does not grow with ``reps``.  Rows are sorted whole or cut to
    their ``top`` largest values (:func:`_draw_block`) in buffers made here,
    before any fork, and reused by every block a process runs: the
    lifetimes' buffer, and for whole rows the censoring times'.  ``score``
    maps the block, a SortedCensoredSample with a leading row axis, to an
    array of leading entries joined across blocks, with the arithmetic of a
    lone sample.  So no output bit depends on the block size or ``workers``.
    ``score`` must return all it computes: a forked block's side effects are
    lost.  It must not keep the block, or a view of it, past its call: the
    next block overwrites it.
    """
    starts = _blocks(n, reps, top)
    _check_workers(workers)  # before any buffer is made
    size = starts.step  # rows a block
    per_pass = max(1, _KEY_ROWS // size) * size  # rows a key pass derives
    # made per call before the fork, so no two threads share one; a cut block's censoring times are idle once it is
    # cut, so they take a buffer per block, whose memory the scorer then reuses
    buffers = [np.empty((min(reps, size), n)) for _ in range(2 if top is None else 1)]

    def scores(blocks: range):  # a range's blocks in order; no name holds a block (and its cached arrays) at a yield
        rows = range(reps)[blocks.start * size : blocks.stop * size]
        for lo in range(0, len(rows), per_pass):
            keys = _stream_keys(seed, part := rows[lo : lo + per_pass], complete_data)
            for at in range(0, len(part), size):
                yield score(_draw_block(model_x, model_y, n, [k[at : at + size] for k in keys], top, buffers))

    parts = parallel.replicate_map(lambda blocks: (sum if total else list)(scores(blocks)), len(starts), workers)
    return sum(parts) if total else np.concatenate([value for part in parts for value in part])
