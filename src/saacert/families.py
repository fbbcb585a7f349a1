"""Built-in synthetic problem families with full population oracles.

Each family is desk-scale (d <= 3), has integrands of the ``NoiseAffine``
form (closed-form population moments, vectorized empirical means, and
per-scenario Lipschitz moduli L(xi) derived from B and the space, so each
``HolderInfo`` declares only the exponent), and -- where the geometry
allows -- exact distance-to-feasible-set and regularity constants.  They back
the Monte Carlo validation lab, calibration, and the CLI's problem configs.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Distribution, make_distribution
from .errors import ConfigError, from_table
from .geometry import SpaceDescriptor
from .problem import HolderInfo, NoiseAffine, StochasticProgram, TrueOracle

# A noise mean within CENTRED_TOL of 0 counts as centred: one computed from
# decimal parameters, such as (lo + hi) / 2, can land a few ulps off 0.
CENTRED_TOL = 1e-12


def _resolve_dist(dist) -> Distribution:
    if isinstance(dist, Distribution):
        return dist
    if isinstance(dist, str):
        return make_distribution(dist)
    if isinstance(dist, dict):
        spec = dict(dist)
        return make_distribution(spec.pop("name", None), **spec)
    raise ConfigError("distribution must be a name, spec dict, or Distribution",
                      got=type(dist).__name__)


def _floats(*values) -> list[float]:
    """The params as finite floats; anything else is a ValueError, which
    ``make_family`` reports as a ConfigError."""
    out = [float(v) for v in values]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"numeric params must be finite, got {out}")
    return out


def quad1d(a: float = 0.3, noise: float = 0.2, dist="t3") -> StochasticProgram:
    """1-D quadratic with multiplicative noise: F0 = (x - a)^2 + s*xi*x on [0,1].

    No stochastic constraints; the fixed-feasible-set theorem's test bed.
    """
    a, s = _floats(a, noise)
    d = _resolve_dist(dist)
    space = SpaceDescriptor.interval(0.0, 1.0)

    f0 = NoiseAffine(lambda x: (x[..., 0] - a) ** 2, [[s]])
    oracle = TrueOracle(noise_mean=np.array([d.mean]), noise_var=d.var,
                        sampler=d.sampler(1))
    return StochasticProgram(objective=f0, constraints=[], space=space,
                             holder=[HolderInfo()], oracle=oracle,
                             convex=False, name="quad1d")


def linear_simplex(dim: int = 3, dist="t3", offsets=None) -> StochasticProgram:
    """Linear objective with random coefficients on the probability simplex.

    F0(x, xi) = xi^T x with i.i.d. coordinates; the per-scenario Holder
    modulus of (xi - mu)^T x in l1 is exactly (max_i (xi_i - mu_i) - min_i
    (xi_i - mu_i)) / 2, attained at vertex pairs.
    """
    d = _resolve_dist(dist)
    offsets = np.zeros(dim) if offsets is None else np.asarray(offsets, dtype=float)
    if offsets.shape != (dim,):
        raise ConfigError("offsets must have one entry per coordinate",
                          dim=dim, got=offsets.shape)
    means = offsets + d.mean
    space = SpaceDescriptor.simplex(dim)
    base = d.sampler(dim)

    def sampler(rng, n):
        return base(rng, n) + offsets

    f0 = NoiseAffine(lambda x: np.zeros(x.shape[:-1]), np.eye(dim))
    oracle = TrueOracle(noise_mean=means, noise_var=d.var, sampler=sampler)
    return StochasticProgram(objective=f0, constraints=[], space=space,
                             holder=[HolderInfo()], oracle=oracle,
                             convex=True, name="linear_simplex")


def ball2d(radius: float = 0.6, noise: float = 0.1, obj_noise: float = 0.1,
           dist="t3") -> StochasticProgram:
    """Linear objective over a noisy l2-ball constraint inside [-1,1]^2.

    F0 = x1 + x2 + s0*xi2*x2;  F1 = ||x||_2 - radius + s1*xi1*x1.  With a
    centered distribution the feasible set is the exact ball, the distance
    to it is ||x||_2 - radius, and the regularity constant is exactly 1.
    """
    rho, s1, s0 = _floats(radius, noise, obj_noise)
    d = _resolve_dist(dist)
    if abs(d.mean) > CENTRED_TOL:
        raise ConfigError("ball2d needs a centered noise distribution so the "
                          "population feasible set stays a ball",
                          mean=d.mean)
    space = SpaceDescriptor.box([-1.0, -1.0], [1.0, 1.0], norm="l2")

    f0 = NoiseAffine(lambda x: x[..., 0] + x[..., 1], [[0.0, 0.0], [0.0, s0]])
    f1 = NoiseAffine(lambda x: np.hypot(x[..., 0], x[..., 1]) - rho,
                     [[s1, 0.0], [0.0, 0.0]])
    oracle = TrueOracle(
        noise_mean=np.full(2, d.mean), noise_var=d.var,
        sampler=d.sampler(2),
        slater_margin=rho,
        regularity_c=1.0,
        dist_to_feasible=lambda x: max(0.0, math.hypot(x[0], x[1]) - rho),
    )
    return StochasticProgram(objective=f0, constraints=[f1], space=space,
                             holder=[HolderInfo(), HolderInfo()],
                             oracle=oracle, convex=True, name="ball2d")


def halfspace_box(level: float = 1.2, noise: float = 0.1,
                  obj_noise: float = 0.1, objective: str = "corner",
                  dist="t3") -> StochasticProgram:
    """Halfspace constraint x1 + x2 <= level on [0,1]^2 (sup norm).

    ``corner`` drives the optimum onto the constraint boundary (relaxation
    gain and tightening cost are exactly gamma); ``interior`` puts the
    minimizer strictly inside (both gaps are exactly zero).
    """
    b, s1, s0 = _floats(level, noise, obj_noise)
    d = _resolve_dist(dist)
    if abs(d.mean) > CENTRED_TOL:
        raise ConfigError("halfspace_box needs a centered noise distribution",
                          mean=d.mean)
    if objective not in ("corner", "interior"):
        raise ConfigError("objective must be 'corner' or 'interior'",
                          got=objective)
    space = SpaceDescriptor.box([0.0, 0.0], [1.0, 1.0], norm="linf")

    f1 = NoiseAffine(lambda x: x[..., 0] + x[..., 1] - b, [[s1, 0.0], [0.0, 0.0]])
    if objective == "corner":
        f0 = NoiseAffine(lambda x: -x[..., 0] - x[..., 1], [[0.0, 0.0], [0.0, s0]])
    else:
        cx = 0.3
        f0 = NoiseAffine(lambda x: (x[..., 0] - cx) ** 2 + (x[..., 1] - cx) ** 2,
                         [[0.0, 0.0], [s0, s0]])

    oracle = TrueOracle(
        noise_mean=np.full(2, d.mean), noise_var=d.var,
        sampler=d.sampler(2),
        slater_margin=b,
        regularity_c=0.5,
        dist_to_feasible=lambda x: max(0.0, (x[0] + x[1] - b) / 2),
    )
    return StochasticProgram(objective=f0, constraints=[f1], space=space,
                             holder=[HolderInfo(), HolderInfo()], oracle=oracle,
                             convex=True, name=f"halfspace_box:{objective}")


FAMILIES = {
    "quad1d": quad1d,
    "linear_simplex": linear_simplex,
    "ball2d": ball2d,
    "halfspace_box": halfspace_box,
}


def make_family(name: str, **params) -> StochasticProgram:
    return from_table(FAMILIES, "problem family", name, params)
