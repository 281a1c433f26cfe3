"""Every scalar argument rule, below every module that checks one.

The library and the CLI's flag types check a count, a seed, a threshold, a
model parameter, theta, a confidence level, a fitted tail, a worker count or
a flag here, so it is rejected with the same message wherever it enters.
This module loads no numpy: a flag that breaks a rule exits without it.
"""

import math
from numbers import Integral, Real


def _is_number(value) -> bool:
    """A real number, not a bool: True is a flag, not a quantity."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_k(k, n, lo: int = 1, hi=None, name: str = "k"):
    """Return ``k`` if it is an integer in [lo, hi] (hi defaults to n - 1); raise ValueError otherwise."""
    hi = n - 1 if hi is None else hi
    # bool is an int subclass, but True is a flag, not a threshold count; numpy
    # integers are Integral, and int is listed first as the quicker test
    if isinstance(k, bool) or not (isinstance(k, (int, Integral)) and lo <= k <= hi):
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


def _check_theta(theta):
    """Return ``theta`` if it is a number in [0, 0.5]; raise ValueError otherwise."""
    if not (_is_number(theta) and 0.0 <= theta <= 0.5):
        raise ValueError(f"theta must be a number in [0, 0.5], got {theta!r}")
    return theta


def _check_level(level):
    """Return ``level`` if it is a number in (0, 1); raise ValueError otherwise."""
    if not (_is_number(level) and 0.0 < level < 1.0):
        raise ValueError(f"level must be a number in (0, 1), got {level!r}")
    return level


def _check_fit(gamma, p) -> None:
    """Accept a fitted power tail: numbers gamma finite and > 0, p in (0, 1]; raise ValueError otherwise."""
    if not (_is_number(gamma) and _is_number(p) and 0 < gamma < math.inf and 0.0 < p <= 1.0):
        raise ValueError(f"a fitted tail needs numbers gamma finite and > 0, p in (0, 1], got gamma={gamma!r}, p={p!r}")


def _check_workers(workers) -> int:
    """Return ``workers`` if it is an integer >= 1 (a bool is not); raise ValueError otherwise."""
    if isinstance(workers, bool) or not isinstance(workers, Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return workers


def _require_positive(**params) -> None:
    for name, value in params.items():
        if not (_is_number(value) and math.isfinite(value) and value > 0):
            raise ValueError(f"parameter {name} must be a finite positive number, got {value!r}")
