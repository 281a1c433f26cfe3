"""The threshold, count and number rules, below every module that checks them.

``distributions``, ``censored``, ``estimators``, ``selection`` and
``harness`` all check their own arguments with these functions, so a sample
size, a replicate count, a seed, a threshold, a model parameter or a flag is
rejected with the same message wherever it enters.
"""

import math
from numbers import Real

import numpy as np


def _is_number(value) -> bool:
    """A real number, not a bool: True is a flag, not a quantity."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_k(k, n, lo: int = 1, hi=None, name: str = "k"):
    """Return ``k`` if it is an integer in [lo, hi] (hi defaults to n - 1); raise ValueError otherwise."""
    hi = n - 1 if hi is None else hi
    # bool is an int subclass, but True is a flag, not a threshold count
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer)) and lo <= k <= hi):
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {k!r}")
    return k


def _check_count(value, lo: int, name: str):
    """Return ``value`` if it is an integer >= lo: the k rule with no upper end."""
    return _check_k(value, math.inf, lo, name=name)


def _check_flag(value, name: str):
    """Return ``value`` if it is a bool; raise ValueError otherwise: "no" and 1 are not flags."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value
