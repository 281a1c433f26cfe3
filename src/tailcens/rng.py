"""Reproducible random streams for parallel simulation.

Streams are keyed rather than sequenced: ``stream(seed, 3, 1)`` always
yields the same generator regardless of how many other streams were created
before it, so parallel replications are schedule-independent by
construction.  The underlying bit generator is Philox (counter based).
"""

from __future__ import annotations

import numpy as np

from .rules import _check_count


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator keyed by ``(seed, *key)``; ``seed`` is an integer >= 0."""
    ss = np.random.SeedSequence(entropy=int(_check_count(seed, 0, "seed")), spawn_key=tuple(int(p) for p in key))
    return np.random.Generator(np.random.Philox(ss))


def uniform_open(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` uniform variates on the open interval (0, 1)."""
    u = rng.random(count)
    # random() covers [0, 1); nudge an exact 0 into the interior
    u[u == 0.0] = 0.5 / (1 << 53)
    return u
