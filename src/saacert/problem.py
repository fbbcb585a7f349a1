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

from .errors import DimensionMismatchError, EmptySampleError
from .geometry import SpaceDescriptor, dists_to

# An integrand maps (x of shape (d,), scenarios of shape (N, k)) to the
# per-scenario values, shape (N,).
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

# seed of the population Monte Carlo draws behind every oracle fallback
MC_SEED = 20_240_001


@dataclass
class HolderInfo:
    """Smoothness metadata for one integrand index.

    ``alpha`` is the Holder exponent in (0, 1].
    """

    alpha: float = 1.0


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

    def true_fn_provenance(self, i: int) -> str:
        if self.oracle is not None and self.oracle.fns is not None:
            return "closed-form"
        return "monte-carlo"

    def true_variance(self, i: int, x) -> float:
        """Population variance of F_i(x, .) (closed form or MC)."""
        x = np.asarray(x, dtype=float)
        if self.oracle is not None and self.oracle.variance_fns is not None:
            fn = self.oracle.variance_fns[i]
            if fn is not None:
                return float(fn(x))
        draws = self.integrand(i)(x, self._mc_draws())
        return float(np.var(draws))

    def true_variance_provenance(self, i: int) -> str:
        if (self.oracle is not None and self.oracle.variance_fns is not None
                and self.oracle.variance_fns[i] is not None):
            return "closed-form"
        return "monte-carlo"

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
        with open(path_or_buffer, newline="") as handle:
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

    def membership(self, x, tol: float = 1e-9) -> FeasibilityRecord:
        """x is empirically feasible iff x in Y and Fhat_i(x) <= eps_i + tol."""
        x = np.asarray(x, dtype=float)
        in_y = self.program.space.contains(x, tol)
        res = self.residuals(x)
        return FeasibilityRecord(point=x, in_hard_set=in_y, residuals=res,
                                 feasible=bool(in_y and np.all(res <= tol)))

    def feasible_mask(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
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
# relaxed-set queries on grids


@dataclass
class RelaxedSetQuery:
    """Which sublevel/active/exterior set to enumerate on a grid.

    kinds: ``relaxed`` is {max_i g_i <= level}; ``interior`` is
    {max_i g_i <= -level}; ``active`` additionally pins constraint ``index``
    to the level within ``tol_active``; ``exterior`` inflates the feasible
    set by ``c * level`` in the space's norm (intersected with Y).
    """

    kind: str
    level: float
    index: int | None = None
    c: float | None = None
    tol_active: float | None = None


@dataclass
class GridSet:
    """Grid representation of a relaxed-set query."""

    points: np.ndarray
    query: RelaxedSetQuery
    resolution: float
    source: str  # "true" or "empirical"

    @property
    def empty(self) -> bool:
        return len(self.points) == 0


def _grid_values(source, i: int, pts: np.ndarray) -> np.ndarray:
    if isinstance(source, EmpiricalProblem):
        return source.fhat_grid(i, pts)
    return source.true_fn_grid(i, pts)


def _constraint_table(source, pts: np.ndarray) -> np.ndarray:
    """Constraint values on a grid, shape (m, G), one row per constraint.

    ``source`` is a :class:`StochasticProgram` (population values) or an
    :class:`EmpiricalProblem` (sample means); a set's mask is a comparison
    of this table against per-constraint levels.
    """
    empirical = isinstance(source, EmpiricalProblem)
    m = (source.program if empirical else source).n_constraints
    table = np.empty((m, len(pts)))
    for i in range(1, m + 1):
        table[i - 1] = _grid_values(source, i, pts)
    return table


def _worst(source, pts: np.ndarray) -> np.ndarray:
    """Largest constraint value at each point, or -inf when m = 0."""
    return _constraint_table(source, pts).max(axis=0, initial=-np.inf)


def relaxed_set_grid(source, query: RelaxedSetQuery, h: float,
                     grid: np.ndarray | None = None) -> GridSet:
    """Enumerate a relaxed/active/interior/exterior set on a grid of Y.

    ``source`` is a :class:`StochasticProgram` (true functions, via oracle) or
    an :class:`EmpiricalProblem` (empirical means).  A precomputed grid of Y
    may be supplied to share enumeration across queries.
    """
    program = source.program if isinstance(source, EmpiricalProblem) else source
    label = "empirical" if isinstance(source, EmpiricalProblem) else "true"
    pts = program.space.grid(h) if grid is None else np.atleast_2d(grid)
    m = program.n_constraints
    tol = query.tol_active if query.tol_active is not None else h

    if query.kind in ("relaxed", "interior", "active"):
        if query.kind == "active" and (query.index is None
                                       or not (1 <= query.index <= m)):
            raise ValueError("active-set query needs a constraint index in 1..m")
        threshold = -query.level if query.kind == "interior" else query.level
        table = _constraint_table(source, pts)
        mask = np.all(table <= threshold + 1e-12, axis=0)
        if query.kind == "active":
            mask &= np.abs(table[query.index - 1] - query.level) <= tol
        return GridSet(points=pts[mask], query=query, resolution=h, source=label)

    if query.kind == "exterior":
        if query.c is None or query.c <= 0:
            raise ValueError("exterior query needs a positive regularity constant c")
        base = relaxed_set_grid(source, RelaxedSetQuery(kind="relaxed", level=0.0),
                                h, grid=pts)
        if base.empty:
            return GridSet(points=pts[:0], query=query, resolution=h, source=label)
        radius = query.c * query.level
        keep = np.zeros(len(pts), dtype=bool)
        for j, x in enumerate(pts):
            keep[j] = dists_to(base.points, x, program.space.norm).min() <= radius + 1e-12
        return GridSet(points=pts[keep], query=query, resolution=h, source=label)

    raise ValueError(f"unknown query kind {query.kind!r}")
