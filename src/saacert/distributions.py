"""Built-in scenario distributions with known first and second moments.

Heavy-tailed members (Student-t(3), lognormal, Pareto(2.5)) have finite
variance but infinite higher moments; Gaussian and bounded uniform are
included for contrast.  Each carries its exact mean/variance so validation
experiments can center and normalize without estimation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, from_table


@dataclass(frozen=True)
class Distribution:
    name: str
    mean: float
    var: float
    draw: Callable[[np.random.Generator, int], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.var)):
            raise ConfigError(f"distribution {self.name} needs a finite mean "
                              "and variance", mean=self.mean, var=self.var)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws, shape (n,)."""
        return self.draw(rng, n)

    def sampler(self, k: int = 1):
        """(rng, n) -> (n, k) scenario sampler with i.i.d. coordinates."""
        return lambda rng, n: self.draw(rng, n * k).reshape(n, k)


def _check_sd(name: str, sd: float) -> None:
    if sd < 0:
        raise ConfigError(f"{name} needs sd >= 0", sd=sd)


def gaussian(mu: float = 0.0, sd: float = 1.0) -> Distribution:
    _check_sd("gaussian", sd)
    return Distribution("gaussian", mu, sd ** 2,
                        lambda rng, n: rng.normal(mu, sd, n))


def uniform(lo: float = 0.0, hi: float = 1.0) -> Distribution:
    if hi < lo:
        raise ConfigError("uniform needs lo <= hi", lo=lo, hi=hi)
    return Distribution("uniform", (lo + hi) / 2, (hi - lo) ** 2 / 12,
                        lambda rng, n: rng.uniform(lo, hi, n))


def student_t(dof: float = 3.0) -> Distribution:
    if dof <= 2:
        raise ConfigError("Student-t needs dof > 2 for a finite variance",
                          dof=dof)
    return Distribution(f"student-t({dof:g})", 0.0, dof / (dof - 2),
                        lambda rng, n: rng.standard_t(dof, n))


def lognormal(mu: float = 0.0, sd: float = 1.0) -> Distribution:
    _check_sd("lognormal", sd)
    mean = math.exp(mu + sd ** 2 / 2)
    var = (math.exp(sd ** 2) - 1) * math.exp(2 * mu + sd ** 2)
    return Distribution("lognormal", mean, var,
                        lambda rng, n: rng.lognormal(mu, sd, n))


def pareto(shape: float = 2.5, scale: float = 1.0) -> Distribution:
    """Pareto with tail index ``shape`` and minimum value ``scale``."""
    if shape <= 2:
        raise ConfigError("Pareto needs shape > 2 for a finite variance",
                          shape=shape)
    mean = shape * scale / (shape - 1)
    var = scale ** 2 * shape / ((shape - 1) ** 2 * (shape - 2))
    # numpy's pareto is the Lomax form; shift and scale to classical Pareto
    return Distribution(f"pareto({shape:g})", mean, var,
                        lambda rng, n: scale * (1.0 + rng.pareto(shape, n)))


def point_mass(value: float = 0.0) -> Distribution:
    return Distribution("point-mass", value, 0.0,
                        lambda rng, n: np.full(n, value))


_FACTORIES = {
    "gaussian": gaussian,
    "uniform": uniform,
    "t3": lambda: student_t(3.0),
    "student_t": student_t,
    "lognormal": lognormal,
    "pareto": pareto,
    "point_mass": point_mass,
}


def make_distribution(name: str, **params) -> Distribution:
    return from_table(_FACTORIES, "distribution", name, params)
