"""Every argument rule, below every module that checks one, so a value breaking it gets one message anywhere.

A number rule returns what it accepted as the builtin int or float the kernels compute in.  To it, anything else,
a bool or a number beyond the float range reads as NaN, which fails every bound.  This module loads no numpy: a
flag that breaks a rule exits without it.
"""

import math
from numbers import Integral, Real


def _number(value, integer: bool = False):
    """``value`` as an int (``integer``) or float if it is such a number, not a bool, in the float range; else NaN."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral if integer else Real)):
        return math.nan
    try:
        number = float(value)
    except OverflowError:  # beyond the float range
        return math.nan
    return int(value) if integer else number


def _from_text(text: str, integer: bool = False):
    """``text`` read by int (``integer``) or float if it is ASCII without ``_``; else ``text``, for a rule to reject."""
    if text.isascii() and "_" not in text:
        try:
            return int(text) if integer else float(text)
        except ValueError:
            pass
    return text


def _check_k(k, n, lo: int = 1, hi=None, name: str = "k") -> int:
    """Return ``k`` as an int if it is an integer in [lo, hi] (hi defaults to n - 1); raise ValueError otherwise."""
    hi = n - 1 if hi is None else hi
    if not lo <= (value := _number(k, integer=True)) <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {k!r}")
    return value


def _check_count(value, lo: int, name: str) -> int:
    """Return ``value`` as an int if it is an integer >= lo: the k rule with no upper end."""
    return _check_k(value, math.inf, lo, name=name)


def _check_distinct(values: tuple, name: str) -> tuple:
    """Return ``values`` if no two are equal; raise ValueError otherwise: a repeated threshold repeats a table row."""
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must hold distinct values, got {values!r}")
    return values


def _check_flag(value, name: str):
    """Return ``value`` if it is a bool; raise ValueError otherwise: "no" and 1 are not flags."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def _check_theta(theta) -> float:
    """Return ``theta`` as a float if it is a number in [0, 0.5]; raise ValueError otherwise."""
    if not 0.0 <= (value := _number(theta)) <= 0.5:
        raise ValueError(f"theta must be a number in [0, 0.5], got {theta!r}")
    return value


def _check_level(level) -> float:
    """Return ``level`` as a float if it is a number in (0, 1); raise ValueError otherwise."""
    if not 0.0 < (value := _number(level)) < 1.0:
        raise ValueError(f"level must be a number in (0, 1), got {level!r}")
    return value


def _check_fit(gamma, p) -> tuple[float, float]:
    """Return a fitted power tail as floats: numbers gamma finite and > 0, p in (0, 1]; raise ValueError otherwise."""
    if not (0.0 < (g := _number(gamma)) < math.inf and 0.0 < (q := _number(p)) <= 1.0):
        raise ValueError(f"a fitted tail needs numbers gamma finite and > 0, p in (0, 1], got gamma={gamma!r}, p={p!r}")
    return g, q


def _check_workers(workers) -> int:
    """Return ``workers`` as an int if it is an integer >= 1 (a bool is not); raise ValueError otherwise."""
    if not (value := _number(workers, integer=True)) >= 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return value


def _check_instance(value, kind: type, name: str):
    """Return ``value`` if it is a ``kind``, such as a model or a generator; raise ValueError otherwise."""
    if not isinstance(value, kind):  # a spec string is not a model, nor a seed a generator
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _check_models(model_x, model_y) -> None:
    """Raise ValueError unless ``model_x`` and ``model_y`` are models: the model rule, wherever a pair enters."""
    from .distributions import HeavyTailModel  # on use: the scalar rules load no numpy
    for name, model in (("model_x", model_x), ("model_y", model_y)):
        _check_instance(model, HeavyTailModel, name)


def _require_positive(**params) -> dict[str, float]:
    """Return the model parameters as floats if each is a finite number > 0; raise ValueError at the first not."""
    for name, value in params.items():
        if not 0.0 < (number := _number(value)) < math.inf:
            raise ValueError(f"parameter {name} must be a finite positive number, got {value!r}")
        params[name] = number
    return params


def _float_array(values, name: str, kinds: str = "iuf", ndim: int | None = None):
    """``values`` as a float array if its dtype kind is in ``kinds`` and it has ``ndim`` axes (None: any)."""
    import numpy as np  # on use: the scalar rules load no numpy
    arr = np.asarray(values)
    if arr.dtype.kind not in kinds or ndim not in (None, arr.ndim):  # "2" and True are not numbers
        shape = "an array" if ndim is None else f"a {ndim}-D array"
        raise ValueError(f"{name} must be {shape} of numbers, got a {arr.ndim}-D array of {arr.dtype}")
    return arr.astype(float, copy=False)
