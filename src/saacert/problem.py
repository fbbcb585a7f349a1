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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptySampleError, open_path
from .geometry import SpaceDescriptor

# An integrand maps (x of shape (d,), scenarios of shape (N, k)) to the
# per-scenario values, shape (N,).
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

# seed of the population Monte Carlo draws behind every oracle fallback
MC_SEED = 20_240_001

# A declared modulus L(xi) may sit below a secant ratio realised on probe
# points only by rounding: by at most MODULUS_RTOL * max(L(xi), max_x
# |F(x, xi)| / delta), delta the smallest probe distance.  The second scale
# is the cancellation error of F(x) - F(y), a few ulps of |F| over the
# distance; 1e-12 leaves three orders of magnitude above it.
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
class HolderInfo:
    """Smoothness metadata for one integrand index.

    ``alpha`` is the Holder exponent in (0, 1].  ``modulus``, when given,
    maps scenarios (N, k) to the per-scenario modulus L(xi), shape (N,):
    the smallest L with |F(x, xi) - F(y, xi)| <= L ||x - y||^alpha on the
    whole space, in closed form (for alpha = 1 the sup of the gradient in
    the dual norm).  Without it the modulus is estimated on a probe grid.
    """

    alpha: float = 1.0
    modulus: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class TrueOracle:
    """Population-side information used for certification and validation.

    Any field may be omitted; accessors fall back to Monte Carlo with the
    ``sampler`` and the fixed seed ``MC_SEED``, and report provenance
    accordingly.
    """

    fns: Sequence[Callable[[np.ndarray], float]] | None = None
    variance_fns: Sequence[Callable[[np.ndarray], float] | None] | None = None
    holder_rms: Sequence[float | None] | None = None
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    f_star: float | None = None
    x_star: np.ndarray | None = None
    slater_margin: float | None = None
    regularity_c: float | None = None
    dist_to_feasible: Callable[[np.ndarray], float] | None = None
    mc_budget: int = 1_000_000


@dataclass
class StochasticProgram:
    """Objective/constraint integrands over a hard set, plus metadata."""

    objective: Integrand
    constraints: Sequence[Integrand]
    space: SpaceDescriptor
    holder: Sequence[HolderInfo]
    oracle: TrueOracle | None = None
    convex: bool = False  # attestation required by the convexity-based schemes
    fast_means: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray] | None] | None = None
    name: str = ""

    def __post_init__(self):
        if len(self.holder) != self.n_constraints + 1:
            raise DimensionMismatchError(
                "need one HolderInfo per integrand (objective plus constraints)",
                expected=self.n_constraints + 1, got=len(self.holder))

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def integrand(self, i: int) -> Integrand:
        return self.objective if i == 0 else self.constraints[i - 1]

    # -- population-side accessors -------------------------------------------

    def true_fn(self, i: int, x) -> float:
        """Population value f_i(x) from the oracle (closed form or MC)."""
        x = np.asarray(x, dtype=float)
        if self.oracle is not None and self.oracle.fns is not None:
            return float(self.oracle.fns[i](x))
        return float(np.mean(self.integrand(i)(x, self._mc_draws())))

    def true_variance(self, i: int, x) -> float:
        """Population variance of F_i(x, .) (closed form or MC)."""
        x = np.asarray(x, dtype=float)
        if self.oracle is not None and self.oracle.variance_fns is not None:
            fn = self.oracle.variance_fns[i]
            if fn is not None:
                return float(fn(x))
        draws = self.integrand(i)(x, self._mc_draws())
        return float(np.var(draws))

    def true_fn_grid(self, i: int, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.array([self.true_fn(i, x) for x in pts])

    def _mc_draws(self) -> np.ndarray:
        if self.oracle is None or self.oracle.sampler is None:
            raise EmptySampleError("no oracle sampler available for Monte Carlo fallback")
        key = "_mc_cache"
        cache = getattr(self, key, None)
        if cache is None:
            rng = np.random.default_rng(MC_SEED)
            cache = self.oracle.sampler(rng, self.oracle.mc_budget)
            object.__setattr__(self, key, cache)
        return cache


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

    @property
    def k(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.data.shape[0]

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

    def to_csv(self, path_or_buffer) -> None:
        header = ",".join(f"xi_{j + 1}" for j in range(self.k))
        if hasattr(path_or_buffer, "write"):
            np.savetxt(path_or_buffer, self.data, delimiter=",", header=header, comments="")
        else:
            with open(path_or_buffer, "w", newline="") as handle:
                np.savetxt(handle, self.data, delimiter=",", header=header, comments="")


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
class FeasibilityRecord:
    """Outcome of an empirical membership query."""

    point: np.ndarray
    in_hard_set: bool
    residuals: np.ndarray  # Fhat_i(x) - eps_i for i = 1..m
    feasible: bool


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
        x = np.asarray(x, dtype=float)
        return float(np.mean(self.program.integrand(i)(x, self.scenarios.data)))

    def fhat_grid(self, i: int, points: np.ndarray) -> np.ndarray:
        """Empirical means over a batch of points (vectorized when possible)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _sample_means(self.program, i, pts, self.scenarios.data)

    def residuals(self, x) -> np.ndarray:
        m = self.program.n_constraints
        return np.array([self.fhat(i, x) for i in range(1, m + 1)]) - self.relaxations

    def membership(self, x, tol: float = FEAS_TOL) -> FeasibilityRecord:
        """x is empirically feasible iff x in Y and Fhat_i(x) <= eps_i + tol."""
        x = np.asarray(x, dtype=float)
        in_y = self.program.space.contains(x, tol)
        res = self.residuals(x)
        return FeasibilityRecord(point=x, in_hard_set=in_y, residuals=res,
                                 feasible=bool(in_y and np.all(res <= tol)))

    def feasible_mask(self, points: np.ndarray, tol: float = FEAS_TOL) -> np.ndarray:
        """Vectorized membership over grid points already inside Y."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        bounds = self.relaxations[:, None] + tol
        return np.all(_constraint_table(self, pts) <= bounds, axis=0)


def _sample_means(program: StochasticProgram, i: int, pts: np.ndarray,
                  data: np.ndarray) -> np.ndarray:
    """Means of F_i over the scenario rows of ``data`` at each point."""
    fm = program.fast_means
    if fm is not None and fm[i] is not None:
        return np.asarray(fm[i](pts, data), dtype=float)
    fn = program.integrand(i)
    return np.array([float(np.mean(fn(x, data))) for x in pts])


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
    if not np.all(np.isfinite(relaxations)):
        raise DimensionMismatchError("relaxation levels must be finite")
    # probe one integrand to surface scenario-dimension mismatches early
    probe = program.space.project(np.zeros(program.space.dim))
    try:
        vals = program.integrand(0)(probe, scenarios.data)
    except Exception as exc:  # pragma: no cover - integrand-specific message
        raise DimensionMismatchError(
            f"objective integrand rejected scenario array: {exc}") from exc
    if np.shape(vals) != (scenarios.n,):
        raise DimensionMismatchError(
            "integrand must return one value per scenario",
            got=list(np.shape(vals)), expected=[scenarios.n])
    return EmpiricalProblem(program=program, scenarios=scenarios, relaxations=relaxations)


# ---------------------------------------------------------------------------
# level sets on grids


def _constraint_table(source, pts: np.ndarray) -> np.ndarray:
    """Constraint values on a grid, shape (m, G), one row per constraint.

    ``source`` is a :class:`StochasticProgram` (population values) or an
    :class:`EmpiricalProblem` (sample means); a level set is a mask of this
    table (``relaxed_set_grid``).
    """
    empirical = isinstance(source, EmpiricalProblem)
    m = (source.program if empirical else source).n_constraints
    values = source.fhat_grid if empirical else source.true_fn_grid
    table = np.empty((m, len(pts)))
    for i in range(1, m + 1):
        table[i - 1] = values(i, pts)
    return table


def relaxed_set_grid(table: np.ndarray, level: float = 0.0,
                     tol_active: float | None = None):
    """Mask of the level set {x : g_i(x) <= level for every i} on a grid.

    ``table`` is the (m, G) constraint table of the grid
    (``_constraint_table``); with m = 0 the level set is the whole grid.  A
    strictly feasible (interior) set at margin gamma is the level -gamma.
    With ``tol_active`` the (m, G) active masks follow the level mask: row
    i - 1 marks the level-set points with |g_i - level| <= tol_active.
    """
    mask = (table <= level + SET_TOL).all(axis=0)
    if tol_active is None:
        return mask
    return mask, mask & (np.abs(table - level) <= tol_active)
