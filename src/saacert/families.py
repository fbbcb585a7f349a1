"""Built-in synthetic problem families with full population oracles.

Each family is desk-scale (d <= 3), has closed-form population means and
variances, vectorized empirical means, and -- where the geometry allows --
exact distance-to-feasible-set and regularity constants.  They back the
Monte Carlo validation lab, calibration, and the CLI's problem configs.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Distribution, make_distribution
from .errors import ConfigError
from .geometry import SpaceDescriptor
from .problem import HolderInfo, StochasticProgram, TrueOracle


def _resolve_dist(dist) -> Distribution:
    if isinstance(dist, Distribution):
        return dist
    if isinstance(dist, str):
        return make_distribution(dist)
    if isinstance(dist, dict):
        spec = dict(dist)
        return make_distribution(spec.pop("name"), **spec)
    raise ConfigError("distribution must be a name, spec dict, or Distribution",
                      got=type(dist).__name__)


def quad1d(a: float = 0.3, noise: float = 0.2, dist="t3") -> StochasticProgram:
    """1-D quadratic with multiplicative noise: F0 = (x - a)^2 + s*xi*x on [0,1].

    No stochastic constraints; the fixed-feasible-set theorem's test bed.
    """
    d = _resolve_dist(dist)
    s, mu, var = noise, d.mean, d.var
    space = SpaceDescriptor.interval(0.0, 1.0)
    x_star = float(np.clip(a - s * mu / 2, 0.0, 1.0))

    def f0(x, xis):
        return (x[0] - a) ** 2 + s * xis[:, 0] * x[0]

    def mean0(pts, xis):
        xbar = float(np.mean(xis[:, 0]))
        return (pts[:, 0] - a) ** 2 + s * xbar * pts[:, 0]

    oracle = TrueOracle(
        fns=[lambda x: (x[0] - a) ** 2 + s * mu * x[0]],
        variance_fns=[lambda x: s ** 2 * x[0] ** 2 * var],
        sampler=d.sampler(1),
        f_star=(x_star - a) ** 2 + s * mu * x_star,
        x_star=np.array([x_star]),
    )
    return StochasticProgram(objective=f0, constraints=[], space=space,
                             holder=[HolderInfo(1.0)], oracle=oracle,
                             convex=False, fast_means=[mean0], name="quad1d")


def linear_simplex(dim: int = 3, dist="t3", offsets=None) -> StochasticProgram:
    """Linear objective with random coefficients on the probability simplex.

    F0(x, xi) = xi^T x with i.i.d. coordinates; per-scenario Holder modulus
    in l1 is exactly (max_i xi_i - min_i xi_i) / 2, attained at vertex pairs.
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

    def f0(x, xis):
        return xis @ x

    def mean0(pts, xis):
        return pts @ np.mean(xis, axis=0)

    j = int(np.argmin(means))
    oracle = TrueOracle(
        fns=[lambda x: float(means @ x)],
        variance_fns=[lambda x: d.var * float(np.sum(x ** 2))],
        sampler=sampler,
        f_star=float(means[j]),
        x_star=np.eye(dim)[j],
    )
    return StochasticProgram(objective=f0, constraints=[], space=space,
                             holder=[HolderInfo(1.0)], oracle=oracle,
                             convex=True, fast_means=[mean0],
                             name="linear_simplex")


def ball2d(radius: float = 0.6, noise: float = 0.1, obj_noise: float = 0.1,
           dist="t3") -> StochasticProgram:
    """Linear objective over a noisy l2-ball constraint inside [-1,1]^2.

    F0 = x1 + x2 + s0*xi2*x2;  F1 = ||x||_2 - radius + s1*xi1*x1.  With a
    centered distribution the feasible set is the exact ball, the distance
    to it is ||x||_2 - radius, and the regularity constant is exactly 1.
    """
    d = _resolve_dist(dist)
    if abs(d.mean) > 1e-12:
        raise ConfigError("ball2d needs a centered noise distribution so the "
                          "population feasible set stays a ball",
                          mean=d.mean)
    s1, s0, var = noise, obj_noise, d.var
    rho = radius
    space = SpaceDescriptor.box([-1.0, -1.0], [1.0, 1.0], norm="l2")

    def f0(x, xis):
        return x[0] + x[1] + s0 * xis[:, 1] * x[1]

    def f1(x, xis):
        return math.hypot(x[0], x[1]) - rho + s1 * xis[:, 0] * x[0]

    def mean0(pts, xis):
        xbar = float(np.mean(xis[:, 1]))
        return pts[:, 0] + pts[:, 1] + s0 * xbar * pts[:, 1]

    def mean1(pts, xis):
        xbar = float(np.mean(xis[:, 0]))
        return np.hypot(pts[:, 0], pts[:, 1]) - rho + s1 * xbar * pts[:, 0]

    # RMS Lipschitz modulus of the objective: ||(1, 1 + s0*xi)||_2 in l2
    l0 = math.sqrt(2.0 + s0 ** 2 * var)
    x_star = np.array([-rho / math.sqrt(2)] * 2)
    oracle = TrueOracle(
        fns=[lambda x: x[0] + x[1],
             lambda x: math.hypot(x[0], x[1]) - rho],
        variance_fns=[lambda x: s0 ** 2 * x[1] ** 2 * var,
                      lambda x: s1 ** 2 * x[0] ** 2 * var],
        holder_rms=[l0, None],
        sampler=d.sampler(2),
        f_star=-math.sqrt(2) * rho,
        x_star=x_star,
        slater_margin=rho,
        regularity_c=1.0,
        dist_to_feasible=lambda x: max(0.0, math.hypot(x[0], x[1]) - rho),
    )
    return StochasticProgram(objective=f0, constraints=[f1], space=space,
                             holder=[HolderInfo(1.0), HolderInfo(1.0)],
                             oracle=oracle, convex=True,
                             fast_means=[mean0, mean1], name="ball2d")


def halfspace_box(level: float = 1.2, noise: float = 0.1,
                  obj_noise: float = 0.1, objective: str = "corner",
                  dist="t3") -> StochasticProgram:
    """Halfspace constraint x1 + x2 <= level on [0,1]^2 (sup norm).

    ``corner`` drives the optimum onto the constraint boundary (relaxation
    gain and tightening cost are exactly gamma); ``interior`` puts the
    minimizer strictly inside (both gaps are exactly zero).
    """
    d = _resolve_dist(dist)
    if abs(d.mean) > 1e-12:
        raise ConfigError("halfspace_box needs a centered noise distribution",
                          mean=d.mean)
    if objective not in ("corner", "interior"):
        raise ConfigError("objective must be 'corner' or 'interior'",
                          got=objective)
    s1, s0, var = noise, obj_noise, d.var
    b = level
    space = SpaceDescriptor.box([0.0, 0.0], [1.0, 1.0], norm="linf")

    def f1(x, xis):
        return x[0] + x[1] - b + s1 * xis[:, 0] * x[0]

    def mean1(pts, xis):
        xbar = float(np.mean(xis[:, 0]))
        return pts[:, 0] + pts[:, 1] - b + s1 * xbar * pts[:, 0]

    if objective == "corner":
        def f0(x, xis):
            return -x[0] - x[1] + s0 * xis[:, 1] * x[1]

        def mean0(pts, xis):
            xbar = float(np.mean(xis[:, 1]))
            return -pts[:, 0] - pts[:, 1] + s0 * xbar * pts[:, 1]

        true0 = lambda x: -x[0] - x[1]
        var0 = lambda x: s0 ** 2 * x[1] ** 2 * var
        x_star, f_star = np.array([b / 2, b / 2]), -b
        holder0 = HolderInfo(1.0)
    else:
        cx = 0.3

        def f0(x, xis):
            return (x[0] - cx) ** 2 + (x[1] - cx) ** 2 + s0 * xis[:, 1] * (x[0] + x[1])

        def mean0(pts, xis):
            xbar = float(np.mean(xis[:, 1]))
            return ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cx) ** 2
                    + s0 * xbar * (pts[:, 0] + pts[:, 1]))

        true0 = lambda x: (x[0] - cx) ** 2 + (x[1] - cx) ** 2
        var0 = lambda x: s0 ** 2 * (x[0] + x[1]) ** 2 * var
        x_star, f_star = np.array([cx, cx]), 0.0
        holder0 = HolderInfo(1.0)

    oracle = TrueOracle(
        fns=[true0, lambda x: x[0] + x[1] - b],
        variance_fns=[var0, lambda x: s1 ** 2 * x[0] ** 2 * var],
        sampler=d.sampler(2),
        f_star=f_star,
        x_star=x_star,
        slater_margin=b,
        regularity_c=0.5,
        dist_to_feasible=lambda x: max(0.0, (x[0] + x[1] - b) / 2),
    )
    return StochasticProgram(objective=f0, constraints=[f1], space=space,
                             holder=[holder0, HolderInfo(1.0)], oracle=oracle,
                             convex=True, fast_means=[mean0, mean1],
                             name=f"halfspace_box:{objective}")


FAMILIES = {
    "quad1d": quad1d,
    "linear_simplex": linear_simplex,
    "ball2d": ball2d,
    "halfspace_box": halfspace_box,
}


def make_family(name: str, **params) -> StochasticProgram:
    if name not in FAMILIES:
        raise ConfigError(f"unknown problem family {name!r}",
                          allowed=sorted(FAMILIES))
    return FAMILIES[name](**params)
