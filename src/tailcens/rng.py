"""Reproducible random streams for parallel simulation.

Streams are keyed rather than sequenced: ``stream(seed, 3, 1)`` always
yields the same generator regardless of how many other streams were created
before it, so parallel replications are schedule-independent by
construction.  The underlying bit generator is Philox (counter based).
Monte Carlo replicate r draws its lifetimes from ``stream(seed, r, 0)`` and
its censoring times from ``stream(seed, r, 1)`` (complete data: ``stream(seed,
r)``); a replicate loop derives all their Philox keys in one vectorized pass
(:func:`_keys`) and re-keys one generator per row (:func:`_keyed`).
"""

from __future__ import annotations

import itertools

import numpy as np

from .rules import _check_count

__all__ = ["stream"]

_MASK = 0xFFFFFFFF


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator keyed by ``(seed, *key)``; every part is an integer >= 0."""
    key = tuple(_check_count(part, 0, "key") for part in key)
    ss = np.random.SeedSequence(entropy=_check_count(seed, 0, "seed"), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _words(value: int, least: int = 1) -> list[int]:
    """The uint32 words SeedSequence reads from an integer >= 0, least significant first, zero-padded to ``least``."""
    return [value >> shift & _MASK for shift in range(0, 32 * max(least, -(-value.bit_length() // 32)), 32)]


def _keys(seed: int, rows: range, *tail: int) -> np.ndarray:
    """The (rows, 2) uint64 Philox keys of ``stream(seed, r, *tail)`` for each r in ``rows`` (below 2**64).

    Row r's key is ``SeedSequence(seed, spawn_key=(r, *tail)).generate_state(2, np.uint64)``, as
    Philox takes it, computed over whole columns of rows; rows with r >= 2**32 (two words) are a group.
    """
    for part in (*rows[:1], *rows[-1:]):  # a range's ends bound all of it
        _check_count(part, 0, "key")
    tail_words = [w for part in tail for w in _words(_check_count(part, 0, "key"))]
    seed_words = _words(_check_count(seed, 0, "seed"), 4)  # padded to the pool size before a spawn key
    r = np.arange(rows.start, rows.stop, rows.step, dtype=np.uint64)
    keys = np.empty((r.size, 2), np.uint64)
    for count, group in enumerate((r <= _MASK, r > _MASK), 1):
        if group.any():
            words = seed_words[4:] + [r[group] & _MASK, r[group] >> 32][:count] + tail_words
            keys[group] = _seeded_key(seed_words[:4], [np.asarray(w, np.uint32).reshape(-1) for w in words])
    return keys


def _seeded_key(pool_words: list[int], entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence's pool mix and ``generate_state(2, np.uint64)``: four pool words, then uint32 entropy columns.

    The steps that read only the pool words, the same for every row, run once on Python ints.
    """
    const = 0x43B0D7E5  # numpy's hash and mix constants

    def hash_(value, mult=0x931E8875):
        nonlocal const
        xor, const = const, const * mult & _MASK
        value = (value ^ xor) * const & _MASK  # uint32 arrays wrap anyway; Python ints need the mask
        return value ^ value >> 16

    def mix(x, y):
        x = x * 0xCA01F9DD - y * 0x4973F715 & _MASK
        return x ^ x >> 16

    pool = [hash_(w) for w in pool_words]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hash_(pool[src]))
    pool = [np.array([w], np.uint32) for w in pool]  # broadcast along the entropy columns' rows
    for w, dst in itertools.product(entropy, range(4)):
        pool[dst] = mix(pool[dst], hash_(w))
    const = 0x8B51F9DD  # generate_state: four words, read as two little-endian uint64
    return np.stack([hash_(w, 0x58F38DED) for w in pool], axis=-1).astype("<u4").view("<u8").astype(np.uint64)


def _keyed(keys: np.ndarray):
    """Yield one generator per row of ``keys``, re-keyed at counter 0 with an empty buffer: as Philox seeds it."""
    gen = np.random.Generator(np.random.Philox(0))
    for key in keys.tolist():
        gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
                                   "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield gen
