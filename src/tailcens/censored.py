"""Right-censored samples: generation, ordering with concomitant flags, and replicate blocks.

An observation is a pair ``(z, delta)`` where ``z`` is the observed minimum
of a lifetime and an independent censoring time, and ``delta`` is 1 when the
lifetime itself was observed (uncensored).  Estimators work on the sample
sorted ascending with each indicator travelling alongside its observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import parallel, rng  # lazy: only the replicate engine runs them
from .rules import _check_count, _check_workers

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


def _sorted(z: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending order along the last axis with deaths first on ties, and the top-down uncensored counts."""
    return _top_sorted(z, delta, z.shape[-1])


def sort_censored(z, delta) -> SortedCensoredSample:
    """Sort observations ascending, carrying the indicators along.

    Tied observations are ordered with the uncensored ones (delta = 1)
    first, the usual survival convention of deaths preceding censorings at
    equal times.  The sample rule: nonempty 1-D numeric arrays of one length
    (bools allowed in ``delta``), ``z`` finite, > 0 and of finite max/min, ``delta`` 0 or 1.
    """
    z, delta = np.asarray(z), np.asarray(delta)
    for name, arr, kinds in (("z", z, "iuf"), ("delta", delta, "biuf")):
        if arr.ndim != 1 or arr.dtype.kind not in kinds:
            raise ValueError(f"{name} must be a 1-D array of numbers, got a {arr.ndim}-D array of {arr.dtype}")
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
    return SortedCensoredSample(*map(_read_only, _sorted(z.astype(float, copy=False), delta)))


def censor(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Pair a lifetime array with a censoring array: z = min, delta = 1{x <= y}; x and y of one shape, no NaN."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"x and y shapes differ: {x.shape} vs {y.shape}")
    if np.isnan(z := np.minimum(x, y)).any():  # NaN in either input propagates to z
        raise ValueError("x and y must hold no NaN")
    return z, (x <= y).astype(np.int64)


def _draw(model_x: HeavyTailModel, model_y: HeavyTailModel, shape: tuple[int, int], rngs_x,
          rngs_y=None) -> tuple[np.ndarray, np.ndarray]:
    """The one draw path: row i from the i-th of ``rngs_x`` and ``rngs_y`` (None: complete data), checked, censored."""
    with np.errstate(over="ignore"):  # the checks below, as generate_censored states them, catch each overflow
        x = model_x._rows(np.empty(shape), rngs_x)
        y = None if rngs_y is None else model_y._rows(np.empty(shape), rngs_y)
    if not np.all(np.isfinite(x) & (x > 0)):
        raise ValueError(f"{model_x!r} drew lifetimes outside (0, inf): its parameters are too extreme to simulate")
    if y is None:
        return x, np.ones(shape, dtype=np.int64)
    if not np.all(y > 0):  # also NaN
        raise ValueError(f"{model_y!r} drew censoring times <= 0: its parameters are too extreme to simulate")
    return censor(x, y)


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
    rng_x, rng_y = rng.spawn(2)
    z, delta = _draw(model_x, model_y, (1, _check_count(n, 1, "n")), [rng_x], [rng_y])
    return z[0], delta[0]


# a replicate block holds at most this many values (rows * n): see _replicates
_BLOCK_VALUES = 2**14
_KEY_ROWS = 2**12  # and one pass of key derivation at most this many rows


def _blocks(n: int, reps: int) -> list[range]:
    """Consecutive replicate index ranges of max(1, _BLOCK_VALUES // n) rows, covering 0..reps-1."""
    rows = max(1, _BLOCK_VALUES // _check_count(n, 1, "n"))
    return [range(lo, min(reps, lo + rows)) for lo in range(0, reps, rows)]


def _top_sorted(z: np.ndarray, delta: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top ``m`` of each row of float ``z`` > 0 in ``_sorted``'s order, and their top-down uncensored counts.

    One uint64 key per point carries that order: z > 0, so its float bits order as integers, and the
    low bit, set when censored, puts deaths first on ties.  Equal keys are equal pairs, so partitioning at
    the cut and sorting the ``m`` keys above it keeps the whole row's top ``m``, ties at the cut included.
    """
    key = z.view(np.uint64) << 1
    key |= delta == 0
    if (cut := key.shape[-1] - m) > 0:
        key.partition(cut, axis=-1)
        key = key[..., cut:].copy()
    key.sort(axis=-1)
    delta = (key & 1).view(np.int64)
    np.subtract(1, delta, out=delta)
    key >>= 1
    return key.view(float), delta, np.cumsum(delta[..., ::-1], axis=-1)


def _stream_keys(seed: int, rows: range, complete_data: bool) -> list[np.ndarray]:
    """Keys of the streams replicate r draws from: (seed, r) for complete data, else (seed, r, 0) and (seed, r, 1)."""
    return [rng._keys(seed, rows, *tail) for tail in ([()] if complete_data else [(0,), (1,)])]


def _draw_block(model_x: HeavyTailModel, model_y: HeavyTailModel, n: int, seed: int, block: range,
                complete_data: bool = False, top: int | None = None, keys=None) -> SortedCensoredSample:
    """Replicates ``block`` of size ``n`` as rows, row j drawn from stream (seed, block[j]) as a lone replicate is.

    All lifetimes observed (drawn from the stream itself), or censored; both
    drawn and checked by :func:`_draw`; each row sorted whole, or cut to its
    ``top`` largest values.  ``keys``, the block's :func:`_stream_keys`, are
    derived here when not given.
    """
    rngs = [rng._keyed(k) for k in (_stream_keys(seed, block, complete_data) if keys is None else keys)]
    z, delta = _draw(model_x, model_y, (len(block), n), *rngs)
    return SortedCensoredSample(*map(_read_only, _sorted(z, delta) if top is None else _top_sorted(z, delta, top)))


def _replicates(model_x: HeavyTailModel, model_y: HeavyTailModel, n: int, reps: int, seed: int, score,
                workers: int, complete_data: bool = False, top: int | None = None) -> np.ndarray:
    """``score`` of replicates 0..reps-1 of size ``n``, joined in replicate order: the one replicate loop.

    Replicates run in blocks of max(1, _BLOCK_VALUES // n) consecutive
    indices, mapped by ``replicate_map`` over up to ``workers`` processes,
    each running a contiguous range of blocks in order.  Row j of a block is
    replicate r_j as a lone replicate draws it, its lifetimes from stream
    (seed, r_j, 0) and its censoring times from (seed, r_j, 1), or all from
    (seed, r_j) for complete data; a process derives the keys of its own
    blocks in bulk, up to _KEY_ROWS rows a pass, so their memory does not
    grow with ``reps``.  Rows are sorted whole or cut to their ``top``
    largest values (:func:`_draw_block`).  ``score`` maps the block, a
    SortedCensoredSample with a leading row axis, to an array of leading
    entries joined across blocks, with the arithmetic of a lone sample.  So
    no output bit depends on the block size or ``workers``.  ``score`` must
    return all it computes: a forked block's side effects are lost.
    """
    blocks = _blocks(n, reps)
    cuts = parallel._cuts(len(blocks), _check_workers(workers))
    per_pass = max(1, _KEY_ROWS // len(blocks[0]))  # blocks a key pass derives, within one process's range
    # a range runs its blocks in order, so one pass's keys are held at a time
    pass_keys = lru_cache(maxsize=1)(lambda rows: _stream_keys(seed, rows, complete_data))

    def block_score(b: int) -> np.ndarray:
        cut = next(c for c in cuts if b in c)
        first = b - (b - cut.start) % per_pass
        rows = range(blocks[first].start, blocks[min(first + per_pass, cut.stop) - 1].stop)
        keys = [k[blocks[b].start - rows.start : blocks[b].stop - rows.start] for k in pass_keys(rows)]
        return score(_draw_block(model_x, model_y, n, seed, blocks[b], complete_data, top, keys))

    return np.concatenate(parallel.replicate_map(block_score, len(blocks), workers))
