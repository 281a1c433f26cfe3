"""Heavy-tailed parametric families used for simulation and null fitting.

Every model has a polynomially decaying upper tail, ``1 - F(x) ~ x**(-1/evi)``
for some positive extreme value index, exposes ``cdf``/``quantile``/``sample``
and reports its true index through ``true_evi``.  Models are immutable and
safe to share across threads; all randomness flows through the generator
passed to ``sample``.

Supported families and their cdfs (x > 0):

* ``Burr(beta, tau, lam)``:   F(x) = 1 - (beta / (beta + x**tau))**lam,
  index 1/(tau*lam).
* ``Frechet(gamma)``:         F(x) = exp(-x**(-1/gamma)), index gamma.
* ``LogGamma(a, b)``:         log X ~ Gamma(shape a, scale b), index b.
* ``Pareto(gamma)``:          F(x) = 1 - x**(-1/gamma) on x >= 1, index gamma.

Pareto is the exact power-law member (no second-order tail deviation), which
makes it the reference null for variance checks and goodness-of-fit
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .rules import _check_count, _check_instance, _float_array, _from_text, _require_positive

__all__ = ["Burr", "Frechet", "LogGamma", "Pareto", "HeavyTailModel", "CensoringProfile", "censoring_profile",
           "parse_model", "format_model", "ModelSpecError"]


class ModelSpecError(ValueError):
    """A model specification string could not be parsed."""


class HeavyTailModel:
    """Base of the families: each defines ``_cdf``, and ``_quantile`` in its argument, on checked float arrays."""

    def __post_init__(self):
        """Apply the model parameter rule to every field, in field order, and keep each as the float it returns."""
        for name, value in _require_positive(**{f.name: getattr(self, f.name) for f in fields(self)}).items():
            object.__setattr__(self, name, value)  # the dataclass is frozen

    def cdf(self, x):
        """The cdf at ``x``, finite and >= 0; a float for a scalar."""
        x = _float_array(x, "cdf argument")
        if not np.all(np.isfinite(x)) or np.any(x < 0):
            raise ValueError("cdf argument must be finite and >= 0")
        out = self._cdf(x)
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, u):
        """The quantile at ``u``, strictly inside (0, 1); a float for a scalar."""
        u = _float_array(u, "quantile argument")
        if not np.all((u > 0.0) & (u < 1.0)):
            raise ValueError("quantile argument must lie strictly inside (0, 1)")
        out = self._quantile(u.copy())  # u may be the caller's own array
        return float(out) if np.ndim(out) == 0 else out

    @property
    def true_evi(self) -> float:
        """The positive extreme value index of the model's upper tail."""
        raise NotImplementedError

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` variates from ``rng``: one row of :meth:`_rows`."""
        return self._rows(np.empty((1, _check_count(count, 1, "count"))), [rng])[0]

    def _rows(self, out: np.ndarray, rngs) -> np.ndarray:
        """Fill row i of ``out`` from the i-th generator of ``rngs`` and return its variates: the one draw path."""
        for row, rng in zip(out, rngs):
            rng.random(out=row)
        out[out == 0.0] = 0.5 / (1 << 53)  # random() covers [0, 1): nudge an exact 0 into the interior
        return self._quantile(out)  # by inverse transform, once per block: every u is already inside (0, 1)


@dataclass(frozen=True)
class Burr(HeavyTailModel):
    """Burr XII law, F(x) = 1 - (beta/(beta + x**tau))**lam."""

    beta: float
    tau: float
    lam: float

    def _cdf(self, x):
        return 1.0 - (self.beta / (self.beta + x**self.tau)) ** self.lam

    def _quantile(self, u):  # (beta * ((1 - u)**(-1/lam) - 1))**(1/tau) in place; **= is numpy's scalar-power path
        np.subtract(1.0, u, out=u)
        u **= -1.0 / self.lam
        u -= 1.0
        u *= self.beta
        u **= 1.0 / self.tau
        return u

    @property
    def true_evi(self) -> float:
        return 1.0 / (self.tau * self.lam)


@dataclass(frozen=True)
class Frechet(HeavyTailModel):
    """Frechet law, F(x) = exp(-x**(-1/gamma))."""

    gamma: float

    def _cdf(self, x):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(x > 0.0, np.exp(-np.maximum(x, 1e-300) ** (-1.0 / self.gamma)), 0.0)

    def _quantile(self, u):  # (-log u)**(-gamma), in place
        np.negative(np.log(u, out=u), out=u)
        u **= -self.gamma
        return u

    @property
    def true_evi(self) -> float:
        return self.gamma


@dataclass(frozen=True)
class LogGamma(HeavyTailModel):
    """Log-gamma law: log X ~ Gamma(shape ``a``, scale ``b``), support x >= 1.

    The tail satisfies 1 - F(x) ~ (log x / b)**(a-1) * x**(-1/b) / Gamma(a),
    so the extreme value index is the scale ``b``.
    """

    a: float
    b: float

    def _cdf(self, x):
        from scipy.special import gammainc  # imported on use: scipy is slow to load
        return gammainc(self.a, np.log(np.maximum(x, 1.0)) / self.b)

    def _quantile(self, u):
        from scipy.special import gammaincinv
        return np.exp(self.b * gammaincinv(self.a, u))

    @property
    def true_evi(self) -> float:
        return self.b

    sample = HeavyTailModel.sample  # in the class's own namespace: bench/inproc.py wraps it there

    def _rows(self, out: np.ndarray, rngs) -> np.ndarray:
        # gamma variates of log X, row by row; the gamma quantile has no closed form
        for row, rng in zip(out, rngs):
            row[:] = rng.gamma(shape=self.a, scale=self.b, size=row.size)
        return np.exp(out, out=out)


@dataclass(frozen=True)
class Pareto(HeavyTailModel):
    """Strict Pareto law on x >= 1, F(x) = 1 - x**(-1/gamma)."""

    gamma: float

    def _cdf(self, x):
        return np.where(x < 1.0, 0.0, 1.0 - np.maximum(x, 1.0) ** (-1.0 / self.gamma))

    def _quantile(self, u):  # (1 - u)**(-gamma), in place
        np.subtract(1.0, u, out=u)
        u **= -self.gamma
        return u

    @property
    def true_evi(self) -> float:
        return self.gamma


@dataclass(frozen=True)
class CensoringProfile:
    """Theory values for a lifetime model censored by an independent one.

    ``gamma1``/``gamma2`` are the indices of the lifetime and the censoring
    variable, ``gamma`` the index of their minimum, and ``p`` the limiting
    fraction of uncensored observations among the extremes.
    """

    gamma1: float
    gamma2: float
    gamma: float
    p: float


def censoring_profile(model_x: HeavyTailModel, model_y: HeavyTailModel) -> CensoringProfile:
    """Profile of ``model_x`` (lifetime) censored by ``model_y``."""
    g1 = model_x.true_evi
    g2 = model_y.true_evi
    gamma = g1 * g2 / (g1 + g2)
    return CensoringProfile(gamma1=g1, gamma2=g2, gamma=gamma, p=gamma / g1)


_GRAMMAR = {
    "burr": (Burr, ("beta", "tau", "lambda")),
    "frechet": (Frechet, ("gamma",)),
    "loggamma": (LogGamma, ("a", "b")),
    "pareto": (Pareto, ("gamma",)),
}


def parse_model(spec: str) -> HeavyTailModel:
    """Build a model from a spec string such as ``burr:1,2,0.5``.

    Grammar: ``burr:<beta>,<tau>,<lambda> | frechet:<gamma> |
    loggamma:<a>,<b> | pareto:<gamma>``.  Errors name the offending field.
    """
    name, sep, argstr = _check_instance(spec, str, "spec").partition(":")
    name = name.strip().lower()
    if name not in _GRAMMAR:
        known = "|".join(sorted(_GRAMMAR))
        raise ModelSpecError(f"unknown model {name!r} in {spec!r} (expected one of {known})")
    cls, field_names = _GRAMMAR[name]
    parts = argstr.split(",") if sep and argstr.strip() else []  # unstripped: _from_text judges spaces
    if len(parts) != len(field_names):
        raise ModelSpecError(
            f"model {name!r} takes {len(field_names)} parameters "
            f"({','.join(field_names)}), got {len(parts)} in {spec!r}"
        )
    values = list(map(_from_text, parts))
    for field_name, value in zip(field_names, values):
        if isinstance(value, str):
            raise ModelSpecError(f"model {name!r} field {field_name!r}: {value!r} is not a number")
    try:
        return cls(*values)
    except ValueError as exc:
        raise ModelSpecError(f"model {name!r}: {exc}") from None


def format_model(model: HeavyTailModel) -> str:
    """Spec string for ``model``, each parameter at ``%g``'s 6 significant digits.

    :func:`parse_model` reads it back to the same model only where 6 digits
    hold the value: ``burr:1,2,2.030303`` is written ``burr:1,2,2.0303``.
    """
    for name, (cls, _) in _GRAMMAR.items():
        if type(model) is cls:
            params = ",".join(f"{getattr(model, f.name):g}" for f in fields(model))
            return f"{name}:{params}"
    raise TypeError(f"not a known model: {model!r}")
