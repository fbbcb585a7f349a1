"""Moment and smoothness estimation for sample-average certificates.

Three layers:

* per-scenario Holder moduli and their root-mean-square aggregates
  (``estimate_holder``),
* pointwise and set-level variance quantities -- the empirical variance
  around the population mean, its population counterpart, their combined
  ("breve") form, and the chaining-functional bounds ``A_alpha(Z) *
  sqrt(Lhat^2 + L^2)`` over candidate sets,
* the self-normalized deviation statistic and the symmetrized conditional
  second moment used by the tail experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySampleError
from .geometry import SpaceDescriptor, a_alpha, cross_dists
from .problem import (EmpiricalProblem, RelaxedSetQuery, StochasticProgram,
                      _constraint_table, relaxed_set_grid)

# ---------------------------------------------------------------------------
# Holder moduli


@dataclass
class HolderEstimate:
    """Empirical and population RMS Holder moduli for one integrand."""

    index: int
    alpha: float
    l_hat: float
    l_pop: float
    per_scenario: np.ndarray
    provenance: str = "probe-grid"
    pop_provenance: str = "declared"

    @property
    def combined(self) -> float:
        """sqrt(Lhat^2 + L^2), the factor entering set-level bounds."""
        return math.sqrt(self.l_hat ** 2 + self.l_pop ** 2)


def per_scenario_modulus(program: StochasticProgram, i: int,
                         scenarios: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Max Holder ratio over probe pairs, one value per scenario.

    For scenario j this is  max_{x != y} |F_i(x, xi_j) - F_i(y, xi_j)| /
    ||x - y||^alpha  with the max over the supplied probe points.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if len(probes) < 2:
        raise EmptySampleError("need at least two probe points for a modulus",
                               got=len(probes))
    alpha = program.holder[i].alpha
    fn = program.integrand(i)
    vals = np.stack([fn(x, scenarios) for x in probes])  # (G, N)
    dist = cross_dists(probes, probes, program.space.norm) ** alpha
    out = np.zeros(vals.shape[1])
    for g in range(len(probes) - 1):
        d = dist[g, g + 1:]
        ok = d > 0
        if not np.any(ok):
            continue
        ratios = np.abs(vals[g + 1:][ok] - vals[g]) / d[ok, None]
        np.maximum(out, ratios.max(axis=0), out=out)
    return out


def estimate_holder(program: StochasticProgram, scenarios: np.ndarray, i: int,
                    probes: np.ndarray | None = None,
                    h: float | None = None) -> HolderEstimate:
    """Estimate RMS Holder moduli for integrand ``i`` from probe pairs.

    ``l_hat`` is the empirical RMS of per-scenario moduli; ``l_pop`` comes
    from the declared value, the oracle's closed form, or a Monte Carlo
    rerun of the same probe statistic, in that order of preference.
    """
    space = program.space
    if probes is None:
        step = h if h is not None else space.diameter() / 16
        probes = space.grid(max(step, 1e-12))
    per = per_scenario_modulus(program, i, scenarios, probes)
    l_hat = float(np.sqrt(np.mean(per ** 2)))

    info = program.holder[i]
    oracle = program.oracle
    if info.declared_l is not None:
        l_pop, pop_src = float(info.declared_l), "declared"
    elif (oracle is not None and oracle.holder_rms is not None
          and oracle.holder_rms[i] is not None):
        l_pop, pop_src = float(oracle.holder_rms[i]), "closed-form"
    elif oracle is not None and oracle.sampler is not None:
        rng = np.random.default_rng(oracle.mc_seed + 7 * (i + 1))
        draws = oracle.sampler(rng, min(oracle.mc_budget, 20_000))
        mc = per_scenario_modulus(program, i, np.atleast_2d(draws), probes)
        l_pop, pop_src = float(np.sqrt(np.mean(mc ** 2))), "monte-carlo"
    else:
        l_pop, pop_src = l_hat, "plug-in"
    return HolderEstimate(index=i, alpha=info.alpha, l_hat=l_hat, l_pop=l_pop,
                          per_scenario=per, pop_provenance=pop_src)


# ---------------------------------------------------------------------------
# pointwise variances


def sigma_hat_sq(emp: EmpiricalProblem, i: int, x, pop_mean: float | None = None) -> float:
    """Empirical mean of squared deviations around the population mean.

    This is (1/N) sum_j (F_i(x, xi_j) - f_i(x))^2, *not* the sample variance:
    the centering uses the true mean, matching the self-normalized bound.
    """
    x = np.asarray(x, dtype=float)
    if pop_mean is None:
        pop_mean = emp.program.true_fn(i, x)
    vals = emp.program.integrand(i)(x, emp.scenarios.data)
    return float(np.mean((vals - pop_mean) ** 2))


def sigma_pop_sq(program: StochasticProgram, i: int, x) -> float:
    """Population variance of F_i(x, .)."""
    return program.true_variance(i, x)


def sigma_breve(emp: EmpiricalProblem, i: int, x) -> float:
    """sqrt(sigma_hat_i(x)^2 + sigma_i(x)^2) at a single point."""
    pop_mean = emp.program.true_fn(i, x)
    return math.sqrt(sigma_hat_sq(emp, i, x, pop_mean) + sigma_pop_sq(emp.program, i, x))


def sigma0_breve(emp: EmpiricalProblem, x) -> float:
    return sigma_breve(emp, 0, x)


def sigmaI_breve(emp: EmpiricalProblem, x) -> float:
    """sup over constraints of the pointwise breve variance."""
    m = emp.program.n_constraints
    if m == 0:
        return 0.0
    return max(sigma_breve(emp, i, x) for i in range(1, m + 1))


# ---------------------------------------------------------------------------
# set-level (chaining) variance proxies


def _as_cloud(points_or_space, norm: str) -> SpaceDescriptor:
    if isinstance(points_or_space, SpaceDescriptor):
        return points_or_space
    pts = np.atleast_2d(np.asarray(points_or_space, dtype=float))
    return SpaceDescriptor.cloud(pts, norm=norm)


def sigma_hat_set(program: StochasticProgram, holder: HolderEstimate,
                  points_or_space) -> float:
    """A_alpha(Z) * sqrt(Lhat^2 + L^2) for one integrand over a set Z."""
    space = _as_cloud(points_or_space, program.space.norm)
    if space.kind == "cloud" and len(space.points) == 0:
        return 0.0
    comp = a_alpha(space, holder.alpha)
    return comp.value * holder.combined


def sigma0_hat_set(program: StochasticProgram, holder0: HolderEstimate,
                   points_or_space) -> float:
    return sigma_hat_set(program, holder0, points_or_space)


def sigmaI_hat_set(program: StochasticProgram, holders: list[HolderEstimate],
                   points_or_space) -> float:
    """sup over constraints of the set-level bound over a common set."""
    vals = [sigma_hat_set(program, hol, points_or_space) for hol in holders]
    return max(vals) if vals else 0.0


def sigmaI_hat_active(program: StochasticProgram, holders: list[HolderEstimate],
                      gamma: float, h: float,
                      grid: np.ndarray | None = None) -> float:
    """sup_i A_alpha_i(active set of constraint i at level gamma) * moduli.

    The active sets are taken from the population-level relaxed set: points
    of X_gamma where constraint i sits at the level (within grid tolerance).
    """
    vals = []
    for hol in holders:
        query = RelaxedSetQuery(kind="active", level=gamma, index=hol.index)
        active = relaxed_set_grid(program, query, h, grid=grid)
        if active.empty:
            vals.append(0.0)
        else:
            vals.append(sigma_hat_set(program, hol, active.points))
    return max(vals) if vals else 0.0


# ---------------------------------------------------------------------------
# variance profiles: everything a certificate assembly needs


@dataclass
class VarianceProfile:
    """Named variance quantities plus the anchors and moduli behind them."""

    theorem: str
    entries: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    holder: list = field(default_factory=list)
    anchors: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def get(self, name: str) -> float:
        if name not in self.entries:
            raise KeyError(f"variance profile has no entry {name!r}; "
                           f"have {sorted(self.entries)}")
        return self.entries[name]


def _most_interior(program: StochasticProgram, pts: np.ndarray) -> np.ndarray:
    """Grid point minimizing the largest constraint value (deepest inside X)."""
    if program.n_constraints == 0:
        center = pts.mean(axis=0)
        return pts[int(np.argmin(np.linalg.norm(pts - center, axis=1)))]
    return pts[int(np.argmin(_constraint_table(program, pts).max(axis=0)))]


def variance_profile(program: StochasticProgram, emp: EmpiricalProblem,
                     theorem: str, eps: float, h: float,
                     anchors: dict | None = None, c: float | None = None,
                     probes: np.ndarray | None = None) -> VarianceProfile:
    """Build every variance entry the requested certificate family can use.

    ``theorem`` is one of ``fixed`` (no stochastic constraints),
    ``exterior`` (metric-regular feasible set, relaxations +eps) or
    ``interior`` (Slater point, relaxations -eps).  Anchor points may be
    supplied; missing ones are located on the population grid.
    """
    m = program.n_constraints
    space = program.space
    grid = space.grid(h)
    holders = [estimate_holder(program, emp.scenarios.data, i, probes=probes)
               for i in range(m + 1)]
    cons_holders = holders[1:]
    anchors = dict(anchors or {})

    feas = relaxed_set_grid(program, RelaxedSetQuery(kind="relaxed", level=0.0),
                            h, grid=grid)
    f_on_feas = program.true_fn_grid(0, feas.points) if not feas.empty else None

    if "x_star" not in anchors:
        if feas.empty:
            raise EmptySampleError("population feasible set has no grid points; "
                                   "supply an x_star anchor or refine the grid")
        anchors["x_star"] = feas.points[int(np.argmin(f_on_feas))]
    if "z" not in anchors:
        anchors["z"] = (_most_interior(program, feas.points)
                        if not feas.empty else anchors["x_star"])

    prof = VarianceProfile(theorem=theorem, holder=holders, anchors=anchors)
    ent, src, det = prof.entries, prof.provenance, prof.details
    det["grid_points"] = len(grid)
    det["feasible_grid_points"] = len(feas.points)
    det["h"] = h

    def set_entry(name, value, how):
        ent[name] = float(value)
        src[name] = how

    if theorem == "fixed":
        set_entry("sigma0_hat_X", sigma0_hat_set(program, holders[0], feas.points),
                  "chaining bound over the feasible grid")
        set_entry("sigma0_breve_z", sigma0_breve(emp, anchors["z"]),
                  "pointwise combined variance at the anchor z")
        set_entry("sigma0_breve_x_star", sigma0_breve(emp, anchors["x_star"]),
                  "pointwise combined variance at the grid minimizer")
        return prof

    if theorem == "exterior":
        if c is None:
            raise ValueError("exterior profiles need the regularity constant c")
        det["c"] = c
        ext = relaxed_set_grid(program,
                               RelaxedSetQuery(kind="exterior", level=2 * eps, c=c),
                               h, grid=grid)
        det["exterior_grid_points"] = len(ext.points)
        if "y" not in anchors:
            anchors["y"] = _most_interior(program, grid)
        set_entry("sigmaI_hat_Y", sigmaI_hat_set(program, cons_holders, space),
                  "chaining bound over the whole hard set")
        set_entry("sigmaI_breve_z", sigmaI_breve(emp, anchors["z"]),
                  "pointwise combined constraint variance at z")
        set_entry("sigmaI_breve_x_star", sigmaI_breve(emp, anchors["x_star"]),
                  "pointwise combined constraint variance at the minimizer")
        set_entry("sigma0_hat_ext", sigma0_hat_set(program, holders[0], ext.points),
                  "chaining bound over the inflated feasible grid")
        set_entry("sigma0_breve_x_star", sigma0_breve(emp, anchors["x_star"]),
                  "pointwise combined objective variance at the minimizer")
        if program.convex:
            set_entry("sigmaI_hat_active",
                      sigmaI_hat_active(program, cons_holders, 2 * eps, h, grid=grid),
                      "chaining bound over per-constraint active sets at 2*eps")
            set_entry("sigmaI_breve_y", sigmaI_breve(emp, anchors["y"]),
                      "pointwise combined constraint variance at the interior point")
        return prof

    if theorem == "interior":
        inner = relaxed_set_grid(program,
                                 RelaxedSetQuery(kind="interior", level=2 * eps),
                                 h, grid=grid)
        det["inner_grid_points"] = len(inner.points)
        if "y" not in anchors:
            if inner.empty:
                raise EmptySampleError(
                    "no grid point is 2*eps-strictly feasible; shrink eps or "
                    "supply a y anchor", eps=eps)
            anchors["y"] = _most_interior(program, inner.points)
        if "y_star" not in anchors:
            if inner.empty:
                raise EmptySampleError(
                    "no grid point is 2*eps-strictly feasible; cannot place y_star",
                    eps=eps)
            f_inner = program.true_fn_grid(0, inner.points)
            anchors["y_star"] = inner.points[int(np.argmin(f_inner))]
        set_entry("sigmaI_hat_active0",
                  sigmaI_hat_active(program, cons_holders, 0.0, h, grid=grid),
                  "chaining bound over per-constraint boundary sets")
        set_entry("sigmaI_breve_y", sigmaI_breve(emp, anchors["y"]),
                  "pointwise combined constraint variance at the interior point")
        set_entry("sigmaI_breve_z", sigmaI_breve(emp, anchors["z"]),
                  "pointwise combined constraint variance at z")
        set_entry("sigmaI_breve_y_star", sigmaI_breve(emp, anchors["y_star"]),
                  "pointwise combined constraint variance at the interior minimizer")
        set_entry("sigma0_hat_X", sigma0_hat_set(program, holders[0], feas.points),
                  "chaining bound over the feasible grid")
        set_entry("sigma0_breve_y_star", sigma0_breve(emp, anchors["y_star"]),
                  "pointwise combined objective variance at the interior minimizer")
        return prof

    raise ValueError(f"unknown theorem {theorem!r}")


# ---------------------------------------------------------------------------
# deviation statistics used by the validation experiments


def self_normalized(values: np.ndarray, pop_mean: float, pop_var: float) -> float:
    """|empirical mean - population mean| over its self-normalized scale.

    The scale is sqrt(((1/N) sum (g_j - Pg)^2 + Var g) / N); a zero
    numerator with zero scale returns 0.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise EmptySampleError("self-normalized statistic needs data")
    n = vals.size
    num = abs(float(np.mean(vals)) - pop_mean)
    scale_sq = (float(np.mean((vals - pop_mean) ** 2)) + pop_var) / n
    if scale_sq <= 0:
        return 0.0
    return num / math.sqrt(scale_sq)


def panchenko_vhat_singleton(values: np.ndarray, pop_mean: float, pop_var: float) -> float:
    """Closed form of the symmetrized second moment for one function:
    N * ((1/N) sum (g_j - Pg)^2 + Var g)."""
    vals = np.asarray(values, dtype=float)
    n = vals.size
    return n * (float(np.mean((vals - pop_mean) ** 2)) + pop_var)
