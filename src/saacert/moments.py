"""Moment and smoothness estimation for sample-average certificates.

Three layers:

* per-scenario Holder moduli, declared in ``HolderInfo`` or derived by the
  integrand's form, and their root-mean-square aggregates
  (``estimate_holder``),
* pointwise and set-level variance quantities -- the empirical variance
  around the population mean, its population counterpart, their combined
  ("breve") form, and the chaining-functional bounds ``A_alpha(Z) *
  sqrt(Lhat^2 + L^2)`` over candidate sets; ``variance_profile`` computes
  the ones that the guarantee table ``_GUARANTEES`` names for a theorem.
  This module alone reads the table: ``_guarantee`` gives a scope's entry
  names and events, ``_event_scopes`` the scopes of an event, ``THEOREMS``
  its keys,
* the self-normalized deviation statistic and the symmetrized conditional
  second moment used by the tail experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptySampleError
from .geometry import SpaceDescriptor, _nearest_dists, a_alpha
from .problem import (SET_TOL, EmpiricalProblem, StochasticProgram,
                      _anchor_points, _constraint_table, _overflow,
                      relaxed_set_grid)

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
    pop_provenance: str

    @property
    def combined(self) -> float:
        """sqrt(Lhat^2 + L^2), the factor entering set-level bounds."""
        return math.sqrt(self.l_hat ** 2 + self.l_pop ** 2)


def per_scenario_modulus(program: StochasticProgram, i: int,
                         scenarios: np.ndarray) -> np.ndarray:
    """Holder modulus of integrand ``i``, one value per scenario: its declared
    ``HolderInfo.modulus``, else the Lipschitz modulus its form derives.  For
    a ``NoiseAffine`` integrand f(x) + xi^T B x that is the modulus of
    (xi - c)^T B x on the space, c the oracle's ``noise_mean`` or 0.  The
    deviation Fhat - f does not change when the deterministic f(x) + c^T B x
    is subtracted, and E L^2 < inf exactly when E ||xi||^2 < inf; c must not
    depend on the data.  For alpha < 1 the Lipschitz constant L becomes
    L D^(1 - alpha), D the diameter, since ||x - y|| <= D^(1 - alpha)
    ||x - y||^alpha.  The generic form has none (``ConfigError``)."""
    xis, info = np.atleast_2d(scenarios), program.holder[i]
    if info.modulus is not None:
        return np.asarray(info.modulus(xis), dtype=float)
    lipschitz = program.integrand(i).linear_modulus(xis, program, i)
    return lipschitz * program.space.diameter() ** (1 - info.alpha)


def _population_l(program: StochasticProgram, i: int,
                  plug_in: float | None = None):
    """(population RMS modulus, provenance): the RMS of
    ``per_scenario_modulus`` over the program's cached Monte Carlo draws,
    else ``plug_in`` without an oracle sampler."""
    if program.oracle is None or program.oracle.sampler is None:
        return plug_in, "plug-in"
    mc = per_scenario_modulus(program, i, program._mc_draws.data)
    return float(np.sqrt(np.mean(mc ** 2))), "declared-monte-carlo"


def estimate_holder(program: StochasticProgram, scenarios: np.ndarray,
                    i: int) -> HolderEstimate:
    """Estimate RMS Holder moduli for integrand ``i``.

    ``l_hat`` is the empirical RMS of the per-scenario moduli; ``l_pop`` is
    their RMS over the population Monte Carlo draws, or ``l_hat`` without
    an oracle sampler (``pop_provenance``).
    """
    with np.errstate(all="ignore"):  # an overflow raises below instead
        per = per_scenario_modulus(program, i, scenarios)
        l_hat = float(np.sqrt(np.mean(per ** 2)))
        l_pop, pop_src = _population_l(program, i, plug_in=l_hat)
        if not np.isfinite(np.square([l_hat, l_pop]).sum()):  # as in combined
            raise _overflow(i)
    return HolderEstimate(index=i, alpha=program.holder[i].alpha, l_hat=l_hat,
                          l_pop=l_pop, per_scenario=per, pop_provenance=pop_src)


# ---------------------------------------------------------------------------
# pointwise variances


def sigma_hat_sq(emp: EmpiricalProblem, i: int, x, pop_mean: float) -> float:
    """Empirical mean of squared deviations around the population mean.

    This is (1/N) sum_j (F_i(x, xi_j) - f_i(x))^2, *not* the sample variance:
    the centering uses the true mean, matching the self-normalized bound.
    """
    vals = emp.program.integrand(i)(np.asarray(x, dtype=float), emp.scenarios.data)
    return float(np.mean((vals - pop_mean) ** 2))


def sigma_breve(emp: EmpiricalProblem, i: int, x) -> float:
    """sqrt(sigma_hat_i(x)^2 + sigma_i(x)^2) at a single point."""
    with np.errstate(all="ignore"):  # an overflow raises below instead
        pop_mean = emp.program.true_fn(i, x)
        square = sigma_hat_sq(emp, i, x, pop_mean) + emp.program.true_variance(i, x)
    if not math.isfinite(square):
        raise _overflow(i)
    return math.sqrt(square)


# ---------------------------------------------------------------------------
# set-level (chaining) variance proxies


def sigma_hat_set(program: StochasticProgram, holder: HolderEstimate,
                  points_or_space) -> float:
    """A_alpha(Z) * sqrt(Lhat^2 + L^2) for one integrand over a set Z."""
    space = points_or_space
    if not isinstance(space, SpaceDescriptor):
        space = SpaceDescriptor.cloud(space, norm=program.space.norm)
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
THEOREMS = tuple(_GUARANTEES)


def _guarantee(theorem: str, scope: str,
               localized: bool = False) -> tuple[list, list]:
    """The entry names whose max gives sigma for one guarantee scope, and
    the (tag, statement) events it guarantees; scope "all" joins every scope
    in order.  ``localized`` swaps in the ``_LOCALIZED_SWAP`` entries, which
    only exterior certificates have."""
    scopes = _GUARANTEES.get(theorem, {})
    allowed = [*scopes, "all"] if scopes else []
    if scope not in allowed:
        raise ConfigError(f"unknown scope {scope!r} for theorem {theorem!r}",
                          allowed=allowed)
    picked = list(scopes.values()) if scope == "all" else [scopes[scope]]
    names = list(dict.fromkeys(name for comps, _ in picked for name in comps))
    if localized:
        if theorem != "exterior":
            raise ConfigError("localized sigma assembly applies to exterior "
                              "certificates only", theorem=theorem)
        names = [swap for name in names
                 for swap in _LOCALIZED_SWAP.get(name, [name])]
    return names, [event for _, events in picked for event in events]


def _event_scopes(tags) -> dict:
    """Per event tag, {theorem: the scope whose events include it}."""
    return {tag: {theorem: scope for theorem, scopes in _GUARANTEES.items()
                  for scope, (_, events) in scopes.items() if tag in dict(events)}
            for tag in tags}


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


def variance_profile(program: StochasticProgram, emp: EmpiricalProblem,
                     theorem: str, eps: float, h: float,
                     anchors: dict | None = None,
                     c: float | None = None) -> VarianceProfile:
    """Compute every variance entry that ``_GUARANTEES`` names for a theorem.

    ``theorem`` is one of ``fixed`` (no stochastic constraints),
    ``exterior`` (metric-regular feasible set, relaxations +eps) or
    ``interior`` (Slater point, relaxations -eps).  Convex exterior programs
    also get the ``_LOCALIZED_SWAP`` entries.  Anchor points may be
    supplied; missing ones are located on the population grid: x_star and
    y_star minimize the objective over the feasible and the 2*eps-interior
    grid; z and y are the deepest grid point, the argmin of the largest
    constraint value (nearest the centroid with m = 0), which lies in every
    nonempty level set.  Every set is a mask of one population constraint
    table on the grid; the exterior set inflates the feasible grid by
    ``c * 2 * eps`` in the space's norm.
    """
    if theorem not in THEOREMS:
        raise ConfigError(f"unknown theorem {theorem!r}",
                          allowed=list(THEOREMS))
    if theorem == "exterior" and (c is None or not c > 0):
        raise ConfigError("exterior profiles need a positive regularity "
                          "constant c", c=c)
    names = _guarantee(theorem, "all")[0]
    if theorem == "exterior" and program.convex:
        names += _guarantee(theorem, "all", localized=True)[0]
    m = program.n_constraints
    grid = program.space.grid(h)
    holders = [estimate_holder(program, emp.scenarios.data, i)
               for i in range(m + 1)]
    anchors = {k: z.reshape(-1) for k, z in
               _anchor_points(anchors or {}, program.space.dim).items()}

    table = _constraint_table(program, grid)
    in_feas, in_inner = relaxed_set_grid(table, np.array([[[0.0]], [[-2 * eps]]]))
    feas, inner = grid[in_feas], grid[in_inner]
    deepest = grid[int(np.argmin(
        table.max(axis=0) if m else
        np.linalg.norm(grid - grid.mean(axis=0), axis=1)))]

    if "x_star" not in anchors:
        if len(feas) == 0:
            raise EmptySampleError("population feasible set has no grid points; "
                                   "supply an x_star anchor or refine the grid")
        anchors["x_star"] = feas[int(np.argmin(program.true_fn_grid(0, feas)))]
    if (theorem == "interior" and len(inner) == 0
            and not {"y", "y_star"} <= anchors.keys()):
        raise EmptySampleError("no grid point is 2*eps-strictly feasible; shrink "
                               "eps or supply y and y_star anchors", eps=eps)
    anchors.setdefault("z", deepest if len(feas) else anchors["x_star"])
    if theorem != "fixed":
        anchors.setdefault("y", deepest)
    if theorem == "interior" and "y_star" not in anchors:
        anchors["y_star"] = inner[int(np.argmin(program.true_fn_grid(0, inner)))]

    details = {"grid_points": len(grid), "feasible_grid_points": len(feas), "h": h}
    sets = {"X": feas, "Y": program.space}
    if theorem == "exterior":
        sets["ext"] = grid[_nearest_dists(grid, feas, program.space.norm)
                           <= c * (2 * eps) + SET_TOL] if len(feas) else feas
        details.update(c=c, exterior_grid_points=len(sets["ext"]))
    if theorem == "interior":
        details["inner_grid_points"] = len(inner)
    prof = VarianceProfile(theorem=theorem, holder=holders, anchors=anchors,
                           details=details)

    def over(where: str, i: int):
        if where.startswith("active"):
            level = 2 * eps if where == "active" else 0.0
            return grid[relaxed_set_grid(table, level, h)[1][i - 1]]
        return sets[where]

    for name in dict.fromkeys(names):
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

