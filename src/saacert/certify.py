"""Finite-sample certificates for sample-average approximations.

Two complementary toolkits live here:

* the *a priori* side -- sample-size rules of the form
  ``N >= C * sigma^2 * (ln m + ln(1/p)) / eps^2`` with the variance proxy
  ``sigma`` assembled from a :class:`~saacert.moments.VarianceProfile`,
  packaged as a :class:`Certificate`; ``moments._guarantee`` reads the
  guarantee table for each (theorem, scope): the profile entries whose max
  is sigma and the guaranteed events, the entries that
  ``moments.variance_profile`` computes;
* the *a posteriori* side -- deterministic deviation ledgers over grids and
  the checker that turns ledger inequalities into set-inclusion and
  optimality conclusions (``check_certificates``), together with grid
  estimates of the metric-regularity constant and the relaxation gaps.
  Each checker scheme is one table row composing hypotheses, ledger
  inequalities (F, C1, C1+/-, C2, C2-, P, P-, M0, M, M-) and conclusions,
  each defined once by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import (ConfigError, EmptySampleError, JsonResult,
                     SlaterMarginError)
from .geometry import _nearest_dists, dists_to
from .moments import THEOREMS, VarianceProfile, _guarantee
from .problem import (FEAS_TOL, SET_TOL, EmpiricalProblem, StochasticProgram,
                      _anchor_points, _constraint_table, relaxed_set_grid)

# Two ledger levels within LEVEL_TOL are one level: a level the checker asks
# for (gamma, 0, -gamma) is recomputed from params, so it may differ from the
# ledger's by rounding.  A gamma this close to 0 gets the single level 0.
LEVEL_TOL = 1e-12

# A ledger inequality lhs <= rhs holds up to CONDITION_SLACK: both sides are
# sums and differences of values of order one, rounded in different orders.
CONDITION_SLACK = 1e-12

# A level gamma within MARGIN_TOL above a Slater margin (or eps above half of
# it) still counts as inside: the margin and the level are computed apart.
MARGIN_TOL = 1e-12

# A grid value within OPT_TOL of the grid minimum attains it: the slack
# absorbs the rounding of a mean over N scenarios (or over a population
# Monte Carlo sample), as FEAS_TOL does for constraint values, so grid
# points that tie in exact arithmetic all count as minimizers.
OPT_TOL = 1e-9

# A sample-size threshold within CEIL_SLACK above an integer rounds down to
# it: C sigma^2 log / eps^2 of an exact integer can land a few ulps above.
CEIL_SLACK = 1e-12


# ---------------------------------------------------------------------------
# sample sizes and certificates


def sample_size(theorem: str, sigma_hat: float, eps: float, p: float,
                m: int = 0, constant: float = 1.0,
                slater_margin: float | None = None) -> int:
    """Smallest integer N satisfying the finite-sample threshold.

    ``fixed`` uses N >= C sigma^2 ln(1/p) / eps^2; ``exterior`` and
    ``interior`` add the union term: N >= C sigma^2 (ln m + ln(1/p)) / eps^2.
    The interior rule additionally requires eps <= slater_margin / 2; no
    other theorem takes a Slater margin.
    """
    if theorem not in THEOREMS:
        raise ConfigError(f"unknown theorem {theorem!r}", allowed=list(THEOREMS))
    if not (0 < p < 1):
        raise ConfigError("failure probability p must lie in (0, 1)", p=p)
    if eps <= 0:
        raise ConfigError("accuracy eps must be positive", eps=eps)
    if sigma_hat < 0 or constant <= 0:
        raise ConfigError("sigma_hat must be >= 0 and constant > 0",
                          sigma_hat=sigma_hat, constant=constant)
    if not all(math.isfinite(v) for v in (eps, sigma_hat, constant)):
        raise ConfigError("eps, sigma_hat and constant must be finite",
                          eps=eps, sigma_hat=sigma_hat, constant=constant)
    if theorem == "fixed":
        log_term = math.log(1.0 / p)
    else:
        if m < 1:
            raise ConfigError(f"{theorem} certificates need at least one "
                              "stochastic constraint", m=m)
        log_term = math.log(m) + math.log(1.0 / p)
    if slater_margin is not None:
        if theorem != "interior":
            raise ConfigError(f"{theorem} certificates take no Slater margin",
                              slater_margin=slater_margin)
        if slater_margin <= 0:
            raise SlaterMarginError("Slater margin must be positive",
                                    slater_margin=slater_margin)
        if eps > slater_margin / 2 + MARGIN_TOL:
            raise SlaterMarginError(
                "interior certificates need eps <= slater_margin / 2",
                eps=eps, slater_margin=slater_margin)
    try:
        n = constant * sigma_hat ** 2 * log_term / eps ** 2
    except (OverflowError, ZeroDivisionError):  # sigma^2 overflows, eps^2 underflows
        n = math.inf
    if not math.isfinite(n):
        raise ConfigError("sample-size threshold C*sigma^2*log/eps^2 is not a "
                          "finite float", eps=eps, sigma_hat=sigma_hat,
                          constant=constant)
    return max(1, math.ceil(n - CEIL_SLACK))


_RELAXATION = {"fixed": "none", "exterior": "+eps", "interior": "-eps"}
_ASSUMPTIONS = {"exterior": ["metric regularity of the feasible set"],
                "interior": ["Slater point with margin at least 2*eps"]}


@dataclass
class Certificate(JsonResult):
    """An a priori finite-sample guarantee at confidence 1 - p.  Without
    ``n_available`` its JSON leaves out ``n_available`` and ``satisfied``."""

    _JSON_EXTRA = ("satisfied",)
    _JSON_OPTIONAL = ("n_available", "satisfied")

    theorem: str
    scope: str
    eps: float
    p: float
    constant: float
    m: int
    sigma_hat: float
    sigma_components: dict
    n_required: int
    relaxation: str
    events: list
    assumptions: list
    localized: bool = False
    n_available: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool | None:
        if self.n_available is None:
            return None
        return self.n_available >= self.n_required


def _certificate(theorem: str, scope: str, components: dict,
                 eps: float, p: float, m: int, constant: float,
                 slater_margin: float | None, n_available: int | None,
                 assumptions: list, localized: bool = False,
                 details: dict | None = None) -> Certificate:
    """Sample size, events and assumptions for sigma, the max component."""
    sigma = max(components.values())
    n_req = sample_size(theorem, sigma, eps, p, m=m, constant=constant,
                        slater_margin=slater_margin)
    _, events = _guarantee(theorem, scope)
    assumptions = ["compact hard set",
                   "Holder-continuous integrands in root-mean-square",
                   *assumptions, *_ASSUMPTIONS.get(theorem, [])]
    if localized:
        assumptions.append("convex integrands (attested)")
    return Certificate(theorem=theorem, scope=scope, eps=eps, p=p,
                       constant=constant, m=m, sigma_hat=sigma,
                       sigma_components=components, n_required=n_req,
                       relaxation=_RELAXATION[theorem],
                       events=[{"tag": t, "statement": s} for t, s in events],
                       assumptions=assumptions, localized=localized,
                       n_available=n_available, details=details or {})


def certificate_from_sigma(theorem: str, sigma_hat: float, eps: float,
                           p: float, m: int = 0, constant: float = 1.0,
                           scope: str = "all",
                           slater_margin: float | None = None,
                           n_available: int | None = None) -> Certificate:
    """Certificate from a user-supplied variance aggregate."""
    return _certificate(theorem, scope, {"sigma": sigma_hat}, eps,
                        p, m, constant, slater_margin, n_available,
                        ["variance aggregate supplied by caller"])


def certificate_from_profile(profile: VarianceProfile, eps: float, p: float,
                             m: int, constant: float = 1.0, scope: str = "all",
                             localized: bool = False,
                             slater_margin: float | None = None,
                             n_available: int | None = None) -> Certificate:
    """The scope's sigma, the max of its profile entries, as a sample-size pledge."""
    names, _ = _guarantee(profile.theorem, scope, localized)
    missing = [name for name in names if name not in profile.entries]
    if missing:
        raise ConfigError("variance profile is missing required entries",
                          missing=missing, required=names,
                          have=sorted(profile.entries))
    details = {"anchors": {k: np.asarray(v).tolist()
                           for k, v in profile.anchors.items()}}
    details.update({k: v for k, v in profile.details.items()
                    if isinstance(v, (int, float, str))})
    return _certificate(profile.theorem, scope,
                        {name: profile.get(name) for name in names}, eps, p, m,
                        constant, slater_margin, n_available, [],
                        localized, details)


# ---------------------------------------------------------------------------
# regularity and gap estimation


def robinson_constant(diameter: float, slater_margin: float) -> float:
    """Metric-regularity constant from a Slater margin: c = D / margin."""
    if slater_margin is None or slater_margin <= 0:
        raise SlaterMarginError("Slater margin must be positive",
                                slater_margin=slater_margin)
    if diameter <= 0:
        raise ConfigError("diameter must be positive", diameter=diameter)
    return diameter / slater_margin


@dataclass
class RegularityEstimate:
    c_hat: float
    points_used: int
    points_skipped: int
    min_violation: float
    vacuous: bool
    provenance: str


def estimate_regularity(program: StochasticProgram, h: float,
                        use_exact_distance: bool = True) -> RegularityEstimate:
    """Largest observed ratio dist(x, X) / max_i [f_i(x)]_+ over a grid.

    Points with violations below 2h (reported as ``min_violation``) are
    skipped: their grid distance is dominated by discretization error, which
    would otherwise blow the ratio up arbitrarily near the boundary.
    """
    if program.n_constraints == 0:
        return RegularityEstimate(0.0, 0, 0, 0.0, True, "no-constraints")
    grid = program.space.grid(h)
    min_violation = 2 * h
    table = _constraint_table(program, grid)
    worst = table.max(axis=0)
    feas_pts = grid[relaxed_set_grid(table)]
    if len(feas_pts) == 0:
        raise EmptySampleError("population feasible set has no grid points",
                               h=h)
    oracle = program.oracle
    exact = (use_exact_distance and oracle is not None
             and oracle.dist_to_feasible is not None)
    scored = worst >= min_violation
    pts, viol = grid[scored], worst[scored]
    if exact:
        dist = np.array([float(oracle.dist_to_feasible(x)) for x in pts])
    else:
        dist = _nearest_dists(pts, feas_pts, program.space.norm)
    c_hat = max(0.0, (dist / viol).max(initial=0.0))
    used = len(pts)
    skipped = int(np.count_nonzero(worst > 0)) - used
    return RegularityEstimate(
        c_hat=c_hat, points_used=used, points_skipped=skipped,
        min_violation=min_violation, vacuous=used == 0,
        provenance="grid-ratio-exact-distance" if exact else "grid-ratio")


@dataclass
class GapBounds:
    """Grid evaluation of a relaxation gain/penalty and its smoothness bound."""

    kind: str  # "exterior" (relaxation gain) or "interior" (tightening cost)
    gamma: float
    value: float
    upper_bound: float
    local_modulus: float
    radius: float
    zero_condition: bool
    details: dict = field(default_factory=dict)


def _max_ratio(points: np.ndarray, values: np.ndarray, alpha: float,
               norm: str) -> np.ndarray:
    """max over pairs x != y of |v(x) - v(y)| / ||x - y||^alpha, per column.

    ``values`` has one row per point and one column per function, shape
    (G, N); distances are taken one row at a time, in O(G) memory.
    """
    out = np.zeros(values.shape[1])
    for g in range(len(points) - 1):
        d = dists_to(points[g + 1:], points[g], norm) ** alpha
        rest = values[g + 1:]
        ok = d > 0
        if not ok.all():  # repeated points: copy only the rows that count
            rest, d = rest[ok], d[ok]
        if len(d):
            ratios = rest - values[g]
            np.abs(ratios, out=ratios)
            ratios /= d[:, None]
            np.maximum(out, ratios.max(axis=0), out=out)
    return out


def gap_bounds(program: StochasticProgram, gamma: float, c: float, h: float,
               kind: str = "exterior") -> GapBounds:
    """Evaluate the relaxation gap at level gamma and its Holder bound.

    ``exterior`` measures how much the optimum improves when constraints are
    relaxed to level gamma; ``interior`` measures how much it degrades when
    they are tightened to -gamma.  The bound is (local modulus) * (c*gamma)^
    alpha_0 with the modulus minimized over grid minimizers of the relaxed
    (resp. original) problem, per the metric-regularity argument; grid
    minimizers are the points within ``OPT_TOL`` of the grid minimum.  With no
    constraints both gaps are 0 and the zero condition holds.
    """
    if gamma <= 0:
        raise ConfigError("gap levels must be positive", gamma=gamma)
    if kind not in ("exterior", "interior"):
        raise ConfigError(f"unknown gap kind {kind!r}")
    space = program.space
    grid = space.grid(h)
    table = _constraint_table(program, grid, objective=True)
    f_vals, table = table[0], table[1:]
    feas = relaxed_set_grid(table)
    if not np.any(feas):
        raise EmptySampleError("population feasible set has no grid points", h=h)
    f_star = float(f_vals[feas].min())

    if kind == "exterior":
        relaxed = relaxed_set_grid(table, gamma)
        value = f_star - float(f_vals[relaxed].min())
        anchor_mask = relaxed & (f_vals <= f_vals[relaxed].min() + OPT_TOL)
        zero = bool(np.any(anchor_mask & feas))
    else:
        inner = relaxed_set_grid(table, -gamma)
        if not np.any(inner):
            raise SlaterMarginError(
                "no grid point satisfies the tightened constraints; gamma "
                "exceeds the attainable margin", gamma=gamma)
        value = float(f_vals[inner].min()) - f_star
        anchor_mask = feas & (f_vals <= f_star + OPT_TOL)
        zero = bool(np.any(anchor_mask & inner))

    alpha0 = program.holder[0].alpha
    radius = c * gamma
    best_mod = math.inf
    for z in grid[anchor_mask]:
        # the ball is a level set of the distance to z: the level-set slack
        in_ball = dists_to(grid, z, space.norm) <= radius + SET_TOL
        best_mod = min(best_mod, float(_max_ratio(
            grid[in_ball], f_vals[in_ball, None], alpha0, space.norm)[0]))
    if not math.isfinite(best_mod):
        best_mod = 0.0
    return GapBounds(kind=kind, gamma=gamma, value=max(value, 0.0),
                     upper_bound=best_mod * radius ** alpha0,
                     local_modulus=best_mod, radius=radius,
                     zero_condition=zero,
                     details={"f_star_grid": f_star, "grid_points": len(grid),
                              "anchor_candidates": int(anchor_mask.sum())})


# ---------------------------------------------------------------------------
# deviation ledgers


@dataclass
class DeviationLedger:
    """Grid suprema of empirical-population deviations, ready for checking.

    All suprema are over the supplied grid (optionally augmented with exact
    probe points); conclusions drawn from them are exact for the grid
    problem and approximate for the continuum one.
    """

    gamma: float
    h: float
    tol_active: float
    m: int
    anchors: dict
    delta_at: dict           # anchor name -> (m,) upward deviations at the point
    cons_at: dict            # anchor name -> (m,) population constraint values
    Delta_Y: np.ndarray      # (m,) downward deviations over the hard set
    levels: list             # levels at which active-set deviations were taken
    Delta_active: list       # per level: (m,) array
    Delta0: dict             # (anchor name, level index) -> anchored objective dev
    grid_size: int

    def _level_index(self, level: float) -> int:
        for j, lv in enumerate(self.levels):
            if abs(lv - level) <= LEVEL_TOL:
                return j
        raise ConfigError(f"ledger has no level {level}", level=level, levels=self.levels)

    def delta(self, name: str) -> np.ndarray:
        return self.delta_at[name]

    def Delta_gamma(self, level: float) -> np.ndarray:
        return self.Delta_active[self._level_index(level)]

    def Delta0_at(self, name: str, level: float) -> float:
        return self.Delta0[(name, self._level_index(level))]


def deviation_ledger(emp: EmpiricalProblem, gamma: float, h: float,
                     anchors: dict, probes: np.ndarray | None = None,
                     tol_active: float | None = None) -> DeviationLedger:
    """Tabulate the deviation suprema the deterministic checker consumes.

    ``probes`` are extra evaluation points appended to the grid (e.g. exact
    boundary roots, so that sups over active sets are continuum-exact for
    piecewise-affine trials).  The levels are (gamma, 0), or (0,) alone when
    |gamma| <= LEVEL_TOL.  Grid, probes and anchors are evaluated together:
    one (m + 1, G + A) table per side, objective in row 0 and the A anchors
    in the last columns.
    """
    program = emp.program
    grid = program.space.grid(h)
    if probes is not None:
        probes = np.atleast_2d(np.asarray(probes, dtype=float))
        grid = np.concatenate([grid, probes])
    levels = [float(gamma), 0.0] if abs(gamma) > LEVEL_TOL else [0.0]
    tol_active = h if tol_active is None else tol_active
    anchors = _anchor_points(anchors, program.space.dim)
    g = len(grid)
    pts = np.concatenate([grid, *(z.reshape(1, -1) for z in anchors.values())])

    f_true = _constraint_table(program, pts, objective=True)
    f_hat = _constraint_table(emp, pts, objective=True)
    f, fh = f_true[:, :g], f_hat[:, :g]           # grid and probe columns
    f_z, fh_z = f_true[:, g:], f_hat[:, g:]       # anchor columns

    # objective deviations anchored at each z, one row per anchor: (A, G)
    shifted = (f[0] - f_z[0, :, None]) - (fh[0] - fh_z[0, :, None])
    lv = np.array(levels)[:, None, None]          # one mask per level
    in_level, active = relaxed_set_grid(f[1:], lv, tol_active)
    # sup of lv - fhat_i over each active set, floored at 0 (0 when empty)
    Delta_active = np.fmax(0.0, np.where(active, lv - fh[1:], -np.inf).max(
        axis=2))
    Delta0 = np.fmax(0.0, np.where(in_level[:, None], shifted, -np.inf).max(
        axis=2, initial=-np.inf))

    return DeviationLedger(
        gamma=gamma, h=h, tol_active=tol_active, m=program.n_constraints,
        anchors=anchors,
        delta_at=dict(zip(anchors, np.fmax(0.0, fh_z[1:] - f_z[1:]).T)),
        cons_at=dict(zip(anchors, f_z[1:].T)),
        Delta_Y=np.fmax(0.0, (f[1:] - fh[1:]).max(axis=1)), levels=levels,
        Delta_active=list(Delta_active),
        Delta0={(name, j): v for j, row in enumerate(Delta0.tolist())
                for name, v in zip(anchors, row)},
        grid_size=g)


# ---------------------------------------------------------------------------
# the deterministic checker


@dataclass
class Condition:
    _JSON_EXTRA = ("ok",)

    name: str
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + CONDITION_SLACK


@dataclass
class Hypothesis:
    name: str
    ok: bool
    note: str


@dataclass
class CheckReport(JsonResult):
    _JSON_EXTRA = ("holds",)

    scheme: str
    conditions: list
    hypotheses: list
    conclusions: list
    params: dict

    @property
    def holds(self) -> bool:
        return (all(c.ok for c in self.conditions)
                and all(hyp.ok for hyp in self.hypotheses))


def _inputs(emp: EmpiricalProblem, ledger: DeviationLedger, params: dict,
            anchors: dict) -> SimpleNamespace:
    """What the clause builders read.  Per anchor role: the population
    constraint values ``cons``, their max ``top`` and the ledger's upward
    deviations ``delta``."""
    m = emp.program.n_constraints
    cons = {role: ledger.cons_at[name] for role, name in anchors.items()}
    return SimpleNamespace(
        m=m, convex=bool(emp.program.convex), eps=emp.relaxations,
        ledger=ledger, params=params, at=anchors, cons=cons,
        top={role: max(v.tolist(), default=float("-inf"))
             for role, v in cons.items()},
        delta={role: ledger.delta(name) for role, name in anchors.items()},
        gamma=params.get("gamma", ledger.gamma), t=params.get("t"),
        t1=params.get("t1", 0.0))


def _rows(c: SimpleNamespace, lhs: np.ndarray, rhs) -> list:
    """(lhs_i, rhs(eps_i)) for each constraint i."""
    return [(float(lhs[i]), rhs(float(c.eps[i]))) for i in range(c.m)]


def _anchor_feasible(remark: str = ""):
    return lambda c: (bool((c.cons["x_star"] <= FEAS_TOL).all()),
                      "x_star must satisfy the population constraints"
                      + remark)


# Clause tables.  A key is the name a report shows; text after a "/" only
# tells apart variants of one name.  Hypotheses give (ok, note).
_HYPOTHESES = {
    "gamma-nonnegative": lambda c: (c.gamma >= 0, f"gamma={c.gamma}"),
    "gamma-positive": lambda c: (c.gamma > 0, f"gamma={c.gamma}"),
    "convexity-attested": lambda c: (c.convex, ""),
    "slack-point": lambda c: (
        bool((c.cons["y"] < c.params["eps_mid"]).all())
        and c.params["eps_mid"] < c.gamma,
        f"needs f_i(y) < {c.params['eps_mid']} < {c.gamma}; "
        f"max f_i(y) = {c.top['y']}"),
    "interior-at-half-level": lambda c: (
        bool((c.cons["y"] < c.gamma / 2).all()),
        f"needs f_i(y) < gamma/2 = {c.gamma / 2}; "
        f"max f_i(y) = {c.top['y']}"),
    "level-within-margin": lambda c: (
        0 < c.gamma <= c.params["slater_margin"] + MARGIN_TOL,
        f"needs 0 < gamma <= {c.params['slater_margin']}, got {c.gamma}"),
    "interior-point": lambda c: (
        bool((c.cons["y"] < -c.gamma).all()),
        f"needs f_i(y) < -gamma = {-c.gamma}; max f_i(y) = {c.top['y']}"),
    "no-stochastic-constraints": lambda c: (
        c.m == 0, f"scheme M0 needs m=0, got m={c.m}"),
    "tolerances-ordered": lambda c: (0 <= c.t1 <= c.t, f"t={c.t}, t1={c.t1}"),
    "anchor-in-feasible-set": _anchor_feasible(),
    "anchor-in-feasible-set/attested": _anchor_feasible(
        " (optimality is attested)"),
    "anchor-in-tightened-set": lambda c: (
        bool((c.cons["y_star"] <= -c.gamma + FEAS_TOL).all()),
        "y_star must satisfy constraints at -gamma "
        "(its optimality there is attested)"),
}
# per-constraint ledger inequalities, reported as "<key>[i]"
_PER_CONSTRAINT = {
    "F": lambda c: _rows(c, c.ledger.Delta_Y, lambda e: c.gamma - e),
    "C1": lambda c: _rows(c, c.ledger.Delta_gamma(c.gamma) + c.delta["y"],
                          lambda e: c.gamma - c.params["eps_mid"]),
    "C1+": lambda c: _rows(c, c.ledger.Delta_gamma(c.gamma) + c.delta["y"],
                           lambda e: c.gamma / 2),
    "C1-": lambda c: _rows(c, c.ledger.Delta_gamma(0.0) + c.delta["y"],
                           lambda e: c.gamma),
    "C2": lambda c: _rows(c, c.ledger.Delta_gamma(c.gamma),
                          lambda e: c.gamma - e),
    "C2-": lambda c: _rows(c, c.ledger.Delta_gamma(0.0), lambda e: -e),
    "P": lambda c: _rows(c, c.delta["x_star"], lambda e: e),
    "P-": lambda c: _rows(c, c.delta["y_star"], lambda e: c.gamma + e),
}
# anchored objective inequalities: (lhs, rhs)
_OBJECTIVE = {
    "M0": lambda c: (c.ledger.Delta0_at(c.at["x_star"], 0.0), c.t - c.t1),
    "M": lambda c: (c.ledger.Delta0_at(c.at["x_star"], c.gamma), c.t - c.t1),
    "M-": lambda c: (c.ledger.Delta0_at(c.at["y_star"], 0.0), c.t - c.t1),
}
# conclusions, formatted with gamma, t and t1
_CONCLUSIONS = {
    "subset-relaxed": "every empirically feasible point satisfies all "
                      "constraints at level {gamma}",
    "subset-hard": "every empirically feasible point satisfies every "
                   "constraint exactly",
    "anchor-feasible/anchored": "the anchored minimizer is empirically "
                                "feasible",
    "anchor-feasible/population": "the population minimizer is "
                                  "empirically feasible",
    "anchor-feasible/tightened": "the tightened-problem minimizer is "
                                 "empirically feasible",
    "near-optimal-subset": "every {t1}-near empirical minimizer is "
                           "{t}-near optimal",
    "near-optimal-subset/tightened": "every {t1}-near empirical minimizer "
                                     "is within {t} + (tightening cost at "
                                     "{gamma}) of optimal",
    "near-optimal-value": "every {t1}-near empirical minimizer costs at "
                          "most the true optimum + {t}",
}

# One row per scheme, each field a space-separated list of keys: required
# params, anchor roles (the ledger anchor is params[role], else role),
# hypotheses, conditions and conclusions.  Per-constraint conditions are
# interleaved, C[1], D[1], C[2], D[2], ..., and objective ones follow.
_SCHEMES = {
    "F": ("", "", "gamma-nonnegative", "F", "subset-relaxed"),
    "C1C2": ("eps_mid", "y", "convexity-attested slack-point", "C1 C2",
             "subset-relaxed"),
    "C1plusC2": (
        "", "y", "convexity-attested gamma-positive interior-at-half-level",
        "C1+ C2", "subset-relaxed"),
    "C1negC2neg": (
        "slater_margin", "y",
        "convexity-attested level-within-margin interior-point", "C1- C2-",
        "subset-hard"),
    "M0": ("t", "x_star", "no-stochastic-constraints tolerances-ordered",
           "M0", "near-optimal-subset"),
    "P": ("", "x_star", "", "P", "anchor-feasible/anchored"),
    "exterior": (
        "t", "x_star",
        "gamma-nonnegative tolerances-ordered "
        "anchor-in-feasible-set/attested", "F P M",
        "subset-relaxed anchor-feasible/population near-optimal-value"),
    "exterior_convex": (
        "t", "x_star y",
        "convexity-attested gamma-positive tolerances-ordered "
        "interior-at-half-level anchor-in-feasible-set", "C1+ C2 P M",
        "subset-relaxed anchor-feasible/population near-optimal-value"),
    "interior": (
        "t slater_margin", "y y_star",
        "convexity-attested level-within-margin tolerances-ordered "
        "interior-point anchor-in-tightened-set", "C1- C2- P- M-",
        "subset-hard anchor-feasible/tightened "
        "near-optimal-subset/tightened"),
}
CHECK_SCHEMES = tuple(_SCHEMES)


def check_certificates(emp: EmpiricalProblem, ledger: DeviationLedger,
                       scheme: str, params: dict | None = None) -> CheckReport:
    """Evaluate one deterministic certificate scheme against a ledger.

    Conclusions are reported only when every hypothesis and inequality
    holds; each condition carries its numeric left- and right-hand sides so
    failures are inspectable.
    """
    params = dict(params or {})
    if scheme not in CHECK_SCHEMES:
        raise ConfigError(f"unknown checker scheme {scheme!r}",
                          allowed=list(CHECK_SCHEMES))
    required, roles, hyp_keys, cond_keys, concl_keys = (
        keys.split() for keys in _SCHEMES[scheme])
    missing = [key for key in required if key not in params]
    if missing:
        raise ConfigError(f"checker scheme {scheme!r} needs params {missing}",
                          missing=missing, required=required)
    anchors = {role: params.get(role, role) for role in roles}
    for name in anchors.values():
        if name not in ledger.anchors:
            raise ConfigError(f"ledger has no anchor {name!r}",
                              available=sorted(ledger.anchors))
    c = _inputs(emp, ledger, params, anchors)
    hyps = [Hypothesis(key.split("/")[0], *_HYPOTHESES[key](c))
            for key in hyp_keys]
    per = [[Condition(f"{key}[{i + 1}]", lhs, rhs)
            for i, (lhs, rhs) in enumerate(_PER_CONSTRAINT[key](c))]
           for key in cond_keys if key in _PER_CONSTRAINT]
    conds = [cond for group in zip(*per) for cond in group]
    conds += [Condition(key, *_OBJECTIVE[key](c))
              for key in cond_keys if key in _OBJECTIVE]
    report = CheckReport(scheme, conds, hyps, [], params)
    if report.holds:
        report.conclusions = [
            key.split("/")[0] + ": " + _CONCLUSIONS[key].format(
                gamma=c.gamma, t=c.t, t1=c.t1) for key in concl_keys]
    return report
