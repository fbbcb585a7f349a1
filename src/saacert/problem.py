"""Stochastic programs and their sample-average (empirical) counterparts.

A :class:`StochasticProgram` couples integrands ``F_i(x, xi)`` (index 0 is
the objective, 1..m are expected-value constraints) with the compact hard set
``Y``, Holder smoothness metadata, and an optional :class:`TrueOracle` that
knows population quantities for validation work.  Pairing a program with a
:class:`ScenarioSet` yields an :class:`EmpiricalProblem` whose constraint and
objective values are arithmetic means over the scenarios.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (BudgetError, ConfigError, DimensionMismatchError,
                     EmptySampleError, open_path)
from .geometry import SpaceDescriptor

# An integrand maps (x of shape (d,), scenarios of shape (N, k)) to the
# per-scenario values, shape (N,).
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

# seed of the population Monte Carlo draws behind every oracle fallback
MC_SEED = 20_240_001

# A declared or derived modulus L(xi) may sit below a secant ratio realised
# on probe points only by rounding: by at most MODULUS_RTOL * max(L(xi),
# max_x |F(x, xi)| / delta^alpha), delta the smallest probe distance.  The
# second scale is the cancellation error of F(x) - F(y) (and of F(x, xi) -
# F(x, c) for a derived one), a few ulps of |F| over the distance; 1e-12
# leaves three orders of magnitude above it.
MODULUS_RTOL = 1e-12

# A grid point lies in a level set when every constraint value is at most
# level + SET_TOL.  The slack absorbs rounding of values that sit on the
# level in exact arithmetic: grid coordinates such as k * h are inexact in
# binary, so a boundary point's computed value (and a level such as 2 * eps)
# can land a few ulps, about 1e-16 for values of order one, on either side.
SET_TOL = 1e-12

# x is empirically feasible when Fhat_i(x) <= eps_i + FEAS_TOL.  Looser than
# SET_TOL: a sample mean accumulates rounding over N scenarios, and the
# subgradient solver's averaged iterate reaches a boundary only approximately.
FEAS_TOL = 1e-9


@dataclass
class NoiseAffine:
    """The integrand F(x, xi) = f(x) + xi^T B x, ``f`` mapping points (..., d)
    to values (...,) and ``B`` of shape (k, d).  At a point (d,) or a grid
    (G, d) its mean at a noise mean mu is f(x) + mu^T B x and, for i.i.d.
    noise coordinates of variance v, its variance is v ||B x||^2.  Less the
    deterministic F(x, c), it is (xi - c)^T B x, whose Holder modulus
    ``moments.per_scenario_modulus`` derives from B and the space."""

    f: Callable[[np.ndarray], np.ndarray]
    B: np.ndarray

    def __post_init__(self):
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))

    def __call__(self, x: np.ndarray, xis: np.ndarray) -> np.ndarray:
        # (xi^T B) x rounds s * xi * x in the order hand-written integrands do
        return self.f(x) + (xis @ self.B) @ x

    def mean(self, points: np.ndarray, noise_mean: np.ndarray) -> np.ndarray:
        return self.f(points) + points @ (noise_mean @ self.B)

    def variance(self, points: np.ndarray, noise_var: float) -> np.ndarray:
        loads = points @ self.B.T
        return noise_var * np.sum(loads * loads, axis=-1)


@dataclass
class HolderInfo:
    """Smoothness metadata for one integrand index.

    ``alpha`` is the Holder exponent in (0, 1].  ``modulus``, when given,
    maps scenarios (N, k) to the per-scenario modulus L(xi), shape (N,):
    an L with |G(x, xi) - G(y, xi)| <= L ||x - y||^alpha on the whole
    space, in closed form, for G = F - h with any deterministic h (the
    deviation Fhat - f does not see h; for alpha = 1 and h = 0 the sup of
    the gradient in the dual norm).  A ``NoiseAffine`` integrand needs
    none: ``moments.per_scenario_modulus`` derives it from B.  Otherwise,
    without it the program still builds ledgers and runs the checker and
    the solvers; what needs sigma-hat (variance profiles, uniform-tail and
    coverage experiments) raises ``ConfigError``.
    """

    alpha: float = 1.0
    modulus: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class TrueOracle:
    """Population-side information used for certification and validation.

    Any field may be omitted; accessors fall back to Monte Carlo over
    ``mc_budget`` draws of the ``sampler`` from the fixed seed ``MC_SEED``.
    ``noise_mean`` (shape (k,)) and ``noise_var`` (of each i.i.d.
    coordinate) are the moments of xi.
    """

    fns: Sequence[Callable[[np.ndarray], float]] | None = None
    noise_mean: np.ndarray | None = None
    noise_var: float | None = None
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    slater_margin: float | None = None
    regularity_c: float | None = None
    dist_to_feasible: Callable[[np.ndarray], float] | None = None
    mc_budget: int = 20_000


@dataclass
class StochasticProgram:
    """Objective/constraint integrands over a hard set, plus metadata."""

    objective: Integrand
    constraints: Sequence[Integrand]
    space: SpaceDescriptor
    holder: Sequence[HolderInfo]
    oracle: TrueOracle | None = None
    convex: bool = False  # attestation required by the convexity-based schemes
    # per integrand, None or (x, scenarios (N, k)) -> per-scenario
    # (sub)gradients in x, shape (N, d); the solver falls back to finite
    # differences of the empirical mean where an entry is None
    gradients: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray] | None] | None = None
    name: str = ""

    def __post_init__(self):
        for name in ("holder", "gradients"):
            entries = getattr(self, name)
            if entries is not None and len(entries) != self.n_constraints + 1:
                raise DimensionMismatchError(
                    f"need one {name} entry per integrand (objective plus "
                    "constraints)", field=name,
                    expected=self.n_constraints + 1, got=len(entries))

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def integrand(self, i: int) -> Integrand:
        return self.objective if i == 0 else self.constraints[i - 1]

    @property
    def sampler(self) -> Callable[[np.random.Generator, int], np.ndarray]:
        """The oracle's scenario sampler; ``ConfigError`` without one."""
        if self.oracle is None or self.oracle.sampler is None:
            raise ConfigError(f"program {self.name!r} has no oracle sampler",
                              program=self.name)
        return self.oracle.sampler

    # -- population-side accessors -------------------------------------------

    def true_fn(self, i: int, x) -> float:
        """Population value f_i(x) (see ``true_fn_grid``)."""
        return float(self._population_values(i, x)[0])

    def true_variance(self, i: int, x) -> float:
        """Population variance of F_i(x, .): the noise-affine form at the
        oracle's ``noise_var``, else over the cached Monte Carlo draws."""
        x, fn = np.asarray(x, dtype=float), self.integrand(i)
        if isinstance(fn, NoiseAffine) and getattr(self.oracle, "noise_var", None) is not None:
            return float(fn.variance(x, self.oracle.noise_var))
        return float(np.var(fn(x, self._mc_draws.data)))

    def true_fn_grid(self, i: int, points: np.ndarray) -> np.ndarray:
        """Population values f_i: the oracle's closed-form ``fns``, else the
        noise-affine form at its ``noise_mean``, else the mean over the
        cached Monte Carlo draws."""
        return self._population_values(i, points)

    def _population_values(self, i: int, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        fn, fns = self.integrand(i), getattr(self.oracle, "fns", None)
        if fns is not None:
            return np.array([float(fns[i](x)) for x in pts])
        if isinstance(fn, NoiseAffine) and getattr(self.oracle, "noise_mean", None) is not None:
            return fn.mean(pts, self.oracle.noise_mean)
        return _sample_means(self, i, pts, self._mc_draws)

    @property
    def _mc_draws(self) -> ScenarioSet:
        """``oracle.mc_budget`` population draws from the seed ``MC_SEED``,
        drawn again when the budget or the sampler changes."""
        key = (self.sampler, self.oracle.mc_budget)
        if getattr(self, "_mc_key", None) != key:
            self._mc_key = key
            self._mc_cache = ScenarioSet.from_sampler(*key, MC_SEED)
        return self._mc_cache


# ---------------------------------------------------------------------------
# scenario data


@dataclass
class ScenarioSet:
    """An (N, k) array of i.i.d. scenario draws plus its generation seed."""

    data: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.data.size == 0 or self.data.shape[0] == 0:
            raise EmptySampleError("scenario set is empty")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @cached_property
    def mean(self) -> np.ndarray:
        """``_mean`` of each column, shape (k,), computed once."""
        return np.array([_mean(column) for column in self.data.T])

    @classmethod
    def from_sampler(cls, sampler, n: int, seed: int) -> "ScenarioSet":
        if n < 1:
            raise EmptySampleError("scenario count must be at least 1", requested=n)
        rng = np.random.default_rng(seed)
        return cls(data=np.atleast_2d(np.asarray(sampler(rng, n), dtype=float)), seed=seed)

    @classmethod
    def from_csv(cls, path_or_buffer) -> "ScenarioSet":
        """Read scenarios from CSV with header ``xi_1,...,xi_k``."""
        header, data = read_table(path_or_buffer)
        expected = [f"xi_{j + 1}" for j in range(len(header))]
        if header != expected:
            raise DimensionMismatchError(
                "scenario CSV header must be xi_1,...,xi_k",
                got=header, expected=expected)
        return cls(data=data)


def read_table(path_or_buffer) -> tuple[list[str], np.ndarray]:
    """Read a headed CSV of floats with free-form column names."""
    if hasattr(path_or_buffer, "read"):
        rows = list(csv.reader(path_or_buffer))
    else:
        with open_path(path_or_buffer, newline="") as handle:
            rows = list(csv.reader(handle))
    body = [r for r in rows[1:] if r]
    if not body:
        raise EmptySampleError("data CSV needs a header row plus data rows")
    header = [c.strip() for c in rows[0]]
    if any(len(r) != len(header) for r in body):
        raise DimensionMismatchError("data rows do not match the header",
                                     expected=len(header))
    try:
        data = np.array([[float(v) for v in r] for r in body])
    except ValueError as exc:
        raise DimensionMismatchError(f"non-numeric data value: {exc}") from exc
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = (int(v) for v in bad[0])
        raise DimensionMismatchError(
            f"non-finite data value {body[row][col].strip()!r} in data row "
            f"{row + 1}, column {header[col]!r}", row=row + 1, column=header[col])
    return header, data


# ---------------------------------------------------------------------------
# empirical problems


@dataclass
class EmpiricalProblem:
    """A stochastic program paired with one scenario set.

    ``relaxations`` holds the per-constraint levels eps_i defining the
    empirical feasible set {x in Y : Fhat_i(x) <= eps_i}.
    """

    program: StochasticProgram
    scenarios: ScenarioSet
    relaxations: np.ndarray

    def fhat(self, i: int, x) -> float:
        """Fhat_i at one point: the one-row grid of ``fhat_grid``."""
        return float(self.fhat_grid(i, x)[0])

    def fhat_grid(self, i: int, points: np.ndarray) -> np.ndarray:
        """Empirical means Fhat_i over a batch of points (``_sample_means``)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _sample_means(self.program, i, pts, self.scenarios)

    def residuals(self, x) -> np.ndarray:
        """Fhat_i(x) - eps_i, i = 1..m, at one point.  Unlike a constraint
        table it is not checked for non-finite values: the subgradient
        method calls it once a step, and ``solve`` checks its result."""
        pt = np.atleast_2d(np.asarray(x, dtype=float))
        vals = [self.fhat_grid(i, pt)[0]
                for i in range(1, len(self.relaxations) + 1)]
        return np.array(vals) - self.relaxations

    def feasible_mask(self, points: np.ndarray) -> np.ndarray:
        """Empirical feasibility, Fhat_i <= eps_i + FEAS_TOL, of grid points
        already inside Y."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        bounds = self.relaxations[:, None] + FEAS_TOL
        return np.all(_constraint_table(self, pts) <= bounds, axis=0)


def _mean(values) -> float:
    """``np.mean`` of one point's per-scenario values, bit for bit, without
    its dispatch: the same pairwise sum over all elements (float64, as
    ``np.mean`` accumulates non-float input) divided by the count."""
    v = np.asarray(values, dtype=float)
    return float(np.add.reduce(v, axis=None)) / v.size


def _sample_means(program: StochasticProgram, i: int, pts: np.ndarray,
                  scenarios: ScenarioSet) -> np.ndarray:
    """Means of F_i over the scenarios at each point (G, d), the one rule
    behind every sample and Monte Carlo average: the noise-affine form at the
    scenarios' mean, else one ``_mean`` per point."""
    fn, data = program.integrand(i), scenarios.data
    if isinstance(fn, NoiseAffine):
        return fn.mean(pts, scenarios.mean)
    return np.array([_mean(fn(x, data)) for x in pts])


def build_empirical(program: StochasticProgram, scenarios: ScenarioSet,
                    relaxations=None) -> EmpiricalProblem:
    """Pair a program with data, validating shapes and relaxation levels."""
    if scenarios.n < 1:
        raise EmptySampleError("scenario set is empty")
    m = program.n_constraints
    if relaxations is None:
        relaxations = np.zeros(m)
    relaxations = np.atleast_1d(np.asarray(relaxations, dtype=float))
    if relaxations.shape != (m,):
        raise DimensionMismatchError("need one relaxation level per constraint",
                                     expected=m, got=relaxations.shape[0])
    if not np.isfinite(relaxations).all():
        raise DimensionMismatchError("relaxation levels must be finite")
    # probe one integrand to surface scenario-dimension mismatches early
    probe = program.space.project(np.zeros(program.space.dim))
    try:
        with np.errstate(all="ignore"):  # an overflow raises below instead
            vals = program.integrand(0)(probe, scenarios.data)
    except Exception as exc:  # pragma: no cover - integrand-specific message
        raise DimensionMismatchError(
            f"objective integrand rejected scenario array: {exc}") from exc
    if np.shape(vals) != (scenarios.n,):
        raise DimensionMismatchError(
            "integrand must return one value per scenario",
            got=list(np.shape(vals)), expected=[scenarios.n])
    if not np.isfinite(vals).all():
        raise _overflow(0, point=probe.tolist())
    return EmpiricalProblem(program=program, scenarios=scenarios, relaxations=relaxations)


# ---------------------------------------------------------------------------
# level sets on grids


def _constraint_table(source, pts: np.ndarray,
                      objective: bool = False) -> np.ndarray:
    """Constraint values on a grid, shape (m, G), one row per constraint.

    ``source`` is a :class:`StochasticProgram` (population values) or an
    :class:`EmpiricalProblem` (sample means); a level set is a mask of this
    table (``relaxed_set_grid``).  With ``objective`` the objective comes
    first, as row 0 of an (m + 1, G) table.
    """
    empirical = isinstance(source, EmpiricalProblem)
    m = (source.program if empirical else source).n_constraints
    values = source.fhat_grid if empirical else source.true_fn_grid
    first = 0 if objective else 1
    table = np.empty((m + 1 - first, len(pts)))
    with np.errstate(all="ignore"):  # an overflow raises below instead
        for i in range(first, m + 1):
            table[i - first] = values(i, pts)
        finite = math.isfinite(table.sum())  # else an inf, a nan or both
    if not finite and not np.isfinite(table).all():
        raise _overflow(first + int(np.isfinite(table).all(axis=1).argmin()))
    return table


def _overflow(i: int, **details) -> BudgetError:
    """The error for a mean of integrand ``i`` that is not finite."""
    return BudgetError(f"integrand {i} has a non-finite mean: its values "
                       "overflow the float range", integrand=i, **details)


def relaxed_set_grid(table: np.ndarray, level: float = 0.0,
                     tol_active: float | None = None):
    """Mask of the level set {x : g_i(x) <= level for every i} on a grid.

    ``table`` is the (m, G) constraint table of the grid
    (``_constraint_table``); with m = 0 the level set is the whole grid.  A
    strictly feasible (interior) set at margin gamma is the level -gamma.
    With ``tol_active`` the (m, G) active masks follow the level mask: row
    i - 1 marks the level-set points with |g_i - level| <= tol_active.  An
    (L, 1, 1) array of levels gives L masks at once, shapes (L, G) and
    (L, m, G).
    """
    mask = (table <= level + SET_TOL).all(axis=-2)
    if tol_active is None:
        return mask
    return mask, mask[..., None, :] & (np.abs(table - level) <= tol_active)
