"""End-to-end application builders: CVaR portfolios and l1-ball regression.

``build_portfolio`` reformulates the CVaR budget constraint over an
augmented decision (x, t) on simplex x box; ``build_lasso`` wraps squared
prediction error over an l1 ball, optionally rescaled by the data-driven
diagonal of root-mean-square features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import make_distribution
from .errors import ConfigError, DegenerateFeatureError, EmptySampleError
from .geometry import SpaceDescriptor
from .problem import (HolderInfo, NoiseAffine, ScenarioSet, StochasticProgram,
                      TrueOracle, read_table)

# cvar's order statistic is ceil((1 - p) N - CVAR_SLACK): a product (1 - p) N
# that is an integer in exact arithmetic can round a few ulps above it.
CVAR_SLACK = 1e-12


def cvar(losses, p: float) -> float:
    """Conditional value-at-risk: min_t { t + mean[(G - t)_+] / p }.

    The minimum is attained at the k-th order statistic with
    k = max(1, ceil((1 - p) N)); ties resolve to the lower index, which does
    not change the value.  p = 1 gives the mean.
    """
    losses = np.asarray(losses, dtype=float).ravel()
    if losses.size == 0:
        raise EmptySampleError("CVaR needs at least one loss")
    if not (0 < p <= 1):
        raise ConfigError("CVaR level must lie in (0, 1]", p=p)
    n = losses.size
    k = max(1, math.ceil((1 - p) * n - CVAR_SLACK))
    t_star = float(np.sort(losses)[k - 1])
    return t_star + float(np.mean(np.maximum(losses - t_star, 0.0))) / p


# ---------------------------------------------------------------------------
# portfolio


@dataclass
class ReturnsDataset:
    """N scenarios of per-asset return rates."""

    returns: np.ndarray
    source: str = "csv"
    names: list | None = None

    def __post_init__(self):
        self.returns = np.atleast_2d(np.asarray(self.returns, dtype=float))
        if self.returns.size == 0:
            raise EmptySampleError("returns dataset is empty")
        if not np.all(np.isfinite(self.returns)):
            raise ConfigError("returns dataset has missing or non-finite entries")

    @property
    def n(self) -> int:
        return self.returns.shape[0]

    @property
    def assets(self) -> int:
        return self.returns.shape[1]

    @classmethod
    def from_csv(cls, path) -> "ReturnsDataset":
        header, data = read_table(path)
        return cls(returns=data, source="csv",
                   names=[str(c) for c in header])

    @classmethod
    def synthetic(cls, assets: int, n: int, seed: int) -> "ReturnsDataset":
        draw = _returns_sampler(assets)
        return cls(returns=draw(np.random.default_rng(seed), n),
                   source=f"synthetic(seed={seed}, dist=gaussian)")


def _returns_sampler(assets: int):
    """Sampler of return rows: means linspace(0.01, 0.03) plus 0.05 times
    centred gaussian draws; ``synthetic`` draws its dataset with it."""
    d = make_distribution("gaussian")
    means = np.linspace(0.01, 0.03, assets)

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        draws = d.sample(rng, count * assets).reshape(count, assets)
        return means + 0.05 * (draws - d.mean)

    return draw


@dataclass
class PortfolioProblem:
    """CVaR-budget portfolio as a stochastic program over (x, t)."""

    program: StochasticProgram
    t_bounds: tuple

    def split(self, point) -> tuple[np.ndarray, float]:
        point = np.asarray(point, dtype=float)
        return point[:-1], float(point[-1])


def build_portfolio(dataset: ReturnsDataset, p: float, beta: float,
                    sampler=None) -> PortfolioProblem:
    """Min expected loss s.t. t + mean[(-xi^T x - t)_+]/p <= beta.

    The scalar t is compactified to [min loss - 1, max loss + 1] from the
    dataset: the optimal t is an order statistic of realized losses, so it
    lies strictly inside.  The hinge subgradient uses 0 at the kink.
    """
    if not (0 < p <= 1):
        raise ConfigError("CVaR level must lie in (0, 1]", p=p)
    d = dataset.assets
    losses = -dataset.returns
    t_lo, t_hi = float(losses.min() - 1.0), float(losses.max() + 1.0)
    space = SpaceDescriptor.product(SpaceDescriptor.simplex(d),
                                    SpaceDescriptor.interval(t_lo, t_hi))

    # the expected loss is affine in the noise: -xi^T x, with t unloaded
    f0 = NoiseAffine(lambda point: np.zeros(point.shape[:-1]),
                     -np.eye(d, d + 1))

    def g0(point, xis):
        return np.hstack([-xis, np.zeros((len(xis), 1))])

    def f1(point, xis):
        t = point[d]
        return t + np.maximum(-(xis @ point[:d]) - t, 0.0) / p - beta

    def g1(point, xis):
        active = (-(xis @ point[:d]) - point[d]) > 0            # 0 at the kink
        return np.column_stack([-xis * (active[:, None] / p), 1.0 - active / p])

    # the hinge's modulus in the l1 product norm, the larger over its pieces
    # t and t (1 - 1/p) - xi^T x / p; simplex steps sum to 0, so |xi^T dx|
    # <= (max xi - min xi) / 2 * ||dx||_1, as the objective derives it
    def modulus1(xis):
        spread = (xis.max(axis=1) - xis.min(axis=1)) / (2 * p)
        return np.maximum(np.maximum(spread, 1.0), 1 / p - 1)

    oracle = None
    if sampler is not None:
        oracle = TrueOracle(sampler=lambda rng, n: np.atleast_2d(sampler(rng, n)))
    program = StochasticProgram(
        objective=f0, constraints=[f1], space=space,
        holder=[HolderInfo(gradient=g0), HolderInfo(1.0, modulus1, g1)],
        oracle=oracle, convex=True, name="portfolio")
    return PortfolioProblem(program=program, t_bounds=(t_lo, t_hi))


# ---------------------------------------------------------------------------
# l1-ball regression


@dataclass
class LassoProblem:
    """Squared-error regression over an l1 ball (optionally feature-scaled).

    With weighting, the decision variable is u = D x for the diagonal D of
    root-mean-square features; ``to_original`` undoes the change of
    variables.
    """

    program: StochasticProgram
    diag: np.ndarray | None  # None without weighting

    def to_original(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return u / self.diag if self.diag is not None else u


def build_lasso(features, response, radius: float,
                weighted: bool = False) -> LassoProblem:
    """Mean squared residual (y - <phi, x>)^2 over {||x||_1 <= radius}."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    response = np.asarray(response, dtype=float).ravel()
    if features.shape[0] != response.shape[0]:
        raise ConfigError("features and response disagree on scenario count",
                          features=features.shape[0], response=response.shape[0])
    if features.size == 0:
        raise EmptySampleError("regression dataset is empty")
    if radius <= 0:
        raise ConfigError("l1 radius must be positive", radius=radius)
    d = features.shape[1]
    diag = None
    if weighted:
        features, diag = _rms_scaled(features)

    def f0(x, xis):
        return (xis[:, d] - xis[:, :d] @ x) ** 2

    def grad0(x, xis):
        return -2 * (xis[:, d] - xis[:, :d] @ x)[:, None] * xis[:, :d]

    def modulus0(xis):  # sup over the ball of |y - <phi, x>| is |y| + R |phi|_inf
        a_max = np.abs(xis[:, :d]).max(axis=1)
        return 2 * (np.abs(xis[:, d]) + radius * a_max) * a_max

    space = SpaceDescriptor.ball(np.zeros(d), radius, norm="l1")
    program = StochasticProgram(
        objective=f0, constraints=[], space=space,
        holder=[HolderInfo(1.0, modulus0, grad0)], convex=True, name="lasso")
    return LassoProblem(program=program, diag=diag)


def lasso_scenarios(features, response, weighted: bool = False) -> ScenarioSet:
    """Scenario set (features then response column) for a built regression."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    resp = np.asarray(response, dtype=float).ravel()
    if weighted:
        features, _ = _rms_scaled(features)
    return ScenarioSet(np.hstack([features, resp[:, None]]))


def _rms_scaled(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Features divided by their root-mean-square diagonal, and the diagonal."""
    diag = np.sqrt(np.mean(features ** 2, axis=0))
    bad = np.flatnonzero(diag <= 0)
    if bad.size:
        raise DegenerateFeatureError(
            "features with zero second moment cannot be rescaled",
            indices=bad.tolist())
    return features / diag, diag
