"""Moment and smoothness estimation for sample-average certificates.

Three layers:

* per-scenario Holder moduli and their root-mean-square aggregates
  (``estimate_holder``),
* pointwise and set-level variance quantities -- the empirical variance
  around the population mean, its population counterpart, their combined
  ("breve") form, and the chaining-functional bounds ``A_alpha(Z) *
  sqrt(Lhat^2 + L^2)`` over candidate sets; ``variance_profile`` computes
  the ones that the guarantee table ``_GUARANTEES`` names for a theorem,
* the self-normalized deviation statistic and the symmetrized conditional
  second moment used by the tail experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySampleError
from .geometry import SpaceDescriptor, a_alpha, dists_to
from .problem import (MC_SEED, EmpiricalProblem, RelaxedSetQuery,
                      StochasticProgram, _worst, relaxed_set_grid)

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
    pop_provenance: str = "closed-form"

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
    fn = program.integrand(i)
    vals = np.stack([fn(x, scenarios) for x in probes])  # (G, N)
    return _max_ratio(probes, vals, program.holder[i].alpha, program.space.norm)


def _max_ratio(points: np.ndarray, values: np.ndarray, alpha: float,
               norm: str) -> np.ndarray:
    """max over pairs x != y of |v(x) - v(y)| / ||x - y||^alpha, per column.

    ``values`` has one row per point and one column per function, shape
    (G, N); distances are taken one row at a time, in O(G) memory.
    """
    out = np.zeros(values.shape[1])
    for g in range(len(points) - 1):
        d = dists_to(points[g + 1:], points[g], norm) ** alpha
        ok = d > 0
        if np.any(ok):
            ratios = np.abs(values[g + 1:][ok] - values[g]) / d[ok, None]
            np.maximum(out, ratios.max(axis=0), out=out)
    return out


def estimate_holder(program: StochasticProgram, scenarios: np.ndarray, i: int,
                    probes: np.ndarray | None = None,
                    h: float | None = None) -> HolderEstimate:
    """Estimate RMS Holder moduli for integrand ``i`` from probe pairs.

    ``l_hat`` is the empirical RMS of per-scenario moduli; ``l_pop`` comes
    from the oracle's closed form ``holder_rms`` or a Monte Carlo rerun of
    the same probe statistic, in that order of preference, and falls back to
    ``l_hat`` without an oracle sampler.
    """
    space = program.space
    if probes is None:
        step = h if h is not None else space.diameter() / 16
        probes = space.grid(max(step, 1e-12))
    per = per_scenario_modulus(program, i, scenarios, probes)
    l_hat = float(np.sqrt(np.mean(per ** 2)))

    info = program.holder[i]
    oracle = program.oracle
    if (oracle is not None and oracle.holder_rms is not None
            and oracle.holder_rms[i] is not None):
        l_pop, pop_src = float(oracle.holder_rms[i]), "closed-form"
    elif oracle is not None and oracle.sampler is not None:
        rng = np.random.default_rng(MC_SEED + 7 * (i + 1))
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


# ---------------------------------------------------------------------------
# set-level (chaining) variance proxies


def sigma_hat_set(program: StochasticProgram, holder: HolderEstimate,
                  points_or_space) -> float:
    """A_alpha(Z) * sqrt(Lhat^2 + L^2) for one integrand over a set Z."""
    space = points_or_space
    if not isinstance(space, SpaceDescriptor):
        space = SpaceDescriptor.cloud(space, norm=program.space.norm)
    if space.kind == "cloud" and len(space.points) == 0:
        return 0.0
    return a_alpha(space, holder.alpha).value * holder.combined


# ---------------------------------------------------------------------------
# variance profiles: everything a certificate assembly needs


# per theorem and scope: the profile entries whose max gives sigma, and the
# events the certificate guarantees; scope "all" joins every scope in order.
# An entry name reads sigma<0|I>_<hat|breve>_<where>: the objective or the
# max over constraints, as a chaining bound over a set or a pointwise
# variance at an anchor; ``_WHERE`` names the set or the anchor.
_GUARANTEES = {
    "fixed": {
        "near_optimality": (["sigma0_hat_X"], [
            ("near-optimal-subset",
             "every eps-near empirical minimizer is 2*eps-near optimal")]),
        "value_lower": (["sigma0_hat_X", "sigma0_breve_z"], [
            ("value-lower", "true optimum - 2*eps <= empirical optimum")]),
        "value_upper": (["sigma0_breve_x_star"], [
            ("value-upper", "empirical optimum <= true optimum + eps")]),
    },
    "exterior": {
        "feasibility": (["sigmaI_hat_Y", "sigmaI_breve_z"], [
            ("feasible-relaxed", "empirically feasible points satisfy "
             "constraints at level 2*eps"),
            ("feasible-exterior", "empirically feasible points lie within "
             "2*c*eps of the feasible set")]),
        "optimality": (
            ["sigmaI_hat_Y", "sigmaI_breve_z", "sigmaI_breve_x_star",
             "sigma0_hat_ext"],
            [("distance",
              "one-sided deviation of the empirical set is <= 2*c*eps"),
             ("near-optimal-value", "eps-near empirical minimizers cost at "
              "most true optimum + 2*eps")]),
        "value": (
            ["sigmaI_hat_Y", "sigmaI_breve_z", "sigmaI_breve_x_star",
             "sigma0_hat_ext", "sigma0_breve_x_star"],
            [("value-upper", "empirical optimum <= true optimum + eps"),
             ("value-lower", "true optimum <= empirical optimum + eps + "
              "relaxation gain at 2*eps")]),
    },
    "interior": {
        "feasibility": (
            ["sigmaI_hat_active0", "sigmaI_breve_y", "sigmaI_breve_z"],
            [("feasible-hard", "empirically feasible points satisfy every "
              "constraint exactly (no relaxation)")]),
        "optimality": (
            ["sigmaI_hat_active0", "sigmaI_breve_y", "sigmaI_breve_z",
             "sigmaI_breve_y_star", "sigma0_hat_X"],
            [("near-optimal-subset", "eps-near empirical minimizers are "
              "(2*eps + interior gap)-near optimal")]),
        "value": (
            ["sigmaI_hat_active0", "sigmaI_breve_y", "sigmaI_breve_z",
             "sigmaI_breve_y_star", "sigma0_hat_X", "sigma0_breve_y_star"],
            [("value-upper", "empirical optimum <= true optimum + eps + "
              "interior gap at 2*eps"),
             ("value-lower", "true optimum <= empirical optimum + 2*eps")]),
    },
}
# for convex programs, the exterior whole-set bound can be swapped for the
# active-set bound plus a pointwise term at an interior point
_LOCALIZED_SWAP = {"sigmaI_hat_Y": ["sigmaI_hat_active", "sigmaI_breve_y"]}
_WHERE = {"X": "the feasible grid", "Y": "the whole hard set",
          "ext": "the inflated feasible grid", "z": "the anchor z",
          "active": "per-constraint active sets at 2*eps",
          "active0": "per-constraint boundary sets", "x_star": "the minimizer",
          "y": "the interior point", "y_star": "the interior minimizer"}


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
    return pts[int(np.argmin(_worst(program, pts)))]


def variance_profile(program: StochasticProgram, emp: EmpiricalProblem,
                     theorem: str, eps: float, h: float,
                     anchors: dict | None = None, c: float | None = None,
                     probes: np.ndarray | None = None) -> VarianceProfile:
    """Compute every variance entry that ``_GUARANTEES`` names for a theorem.

    ``theorem`` is one of ``fixed`` (no stochastic constraints),
    ``exterior`` (metric-regular feasible set, relaxations +eps) or
    ``interior`` (Slater point, relaxations -eps).  Convex exterior programs
    also get the ``_LOCALIZED_SWAP`` entries.  Anchor points may be
    supplied; missing ones are located on the population grid.
    """
    if theorem not in _GUARANTEES:
        raise ValueError(f"unknown theorem {theorem!r}")
    if theorem == "exterior" and c is None:
        raise ValueError("exterior profiles need the regularity constant c")
    names = dict.fromkeys(name for comps, _ in _GUARANTEES[theorem].values()
                          for name in comps)
    if theorem == "exterior" and program.convex:
        names.update(dict.fromkeys(name for swap in _LOCALIZED_SWAP.values()
                                   for name in swap))
    m = program.n_constraints
    grid = program.space.grid(h)
    holders = [estimate_holder(program, emp.scenarios.data, i, probes=probes)
               for i in range(m + 1)]
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
    det = prof.details
    det["grid_points"] = len(grid)
    det["feasible_grid_points"] = len(feas.points)
    det["h"] = h
    sets = {"X": feas.points, "Y": program.space}

    if theorem == "exterior":
        det["c"] = c
        sets["ext"] = relaxed_set_grid(
            program, RelaxedSetQuery(kind="exterior", level=2 * eps, c=c),
            h, grid=grid).points
        det["exterior_grid_points"] = len(sets["ext"])
        if "y" not in anchors:
            anchors["y"] = _most_interior(program, grid)
    if theorem == "interior":
        inner = relaxed_set_grid(program,
                                 RelaxedSetQuery(kind="interior", level=2 * eps),
                                 h, grid=grid).points
        det["inner_grid_points"] = len(inner)
        if len(inner) == 0 and not {"y", "y_star"} <= anchors.keys():
            raise EmptySampleError(
                "no grid point is 2*eps-strictly feasible; shrink eps or "
                "supply y and y_star anchors", eps=eps)
        if "y" not in anchors:
            anchors["y"] = _most_interior(program, inner)
        if "y_star" not in anchors:
            anchors["y_star"] = inner[int(np.argmin(program.true_fn_grid(0, inner)))]

    def over(where: str, i: int):
        if where.startswith("active"):
            level = 2 * eps if where == "active" else 0.0
            query = RelaxedSetQuery(kind="active", level=level, index=i)
            return relaxed_set_grid(program, query, h, grid=grid).points
        return sets[where]

    for name in names:
        which, kind, where = name.split("_", 2)
        indices = [0] if which == "sigma0" else range(1, m + 1)
        if kind == "hat":
            values = [sigma_hat_set(program, holders[i], over(where, i))
                      for i in indices]
        else:
            values = [sigma_breve(emp, i, anchors[where]) for i in indices]
        prof.entries[name] = float(max(values, default=0.0))
        prof.provenance[name] = (("chaining bound over " if kind == "hat" else
                                  "pointwise combined variance at ") + _WHERE[where])
    return prof


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
