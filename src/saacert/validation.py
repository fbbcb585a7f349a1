"""Monte Carlo laboratory for the probabilistic guarantees.

Every experiment draws on one path, ``_draws``: replication ``index`` gets
the stream ``default_rng(base_seed ^ index)`` (``replication_rng``), so runs
are reproducible, halves of a run merge exactly into the whole, and
replications could run concurrently without changing any count.  A coverage
plan's pilot sample is the stream of index ``PILOT_STREAM``.  A statistic of
the objective past the float range raises the ``BudgetError`` naming
integrand 0, as a constraint table does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .certify import (MARGIN_TOL, Certificate, certificate_from_profile,
                      robinson_constant)
from .distributions import Distribution
from .errors import (BudgetError, ConfigError, EmptySampleError, JsonResult,
                     UncalibratableError)
from .geometry import a_alpha
from .moments import (_GUARANTEES, VarianceProfile, _population_l,
                      per_scenario_modulus, self_normalized, variance_profile)
from .problem import (SET_TOL, ScenarioSet, StochasticProgram,
                      _constraint_table, _overflow, _sample_means,
                      build_empirical, relaxed_set_grid)

WILSON_Z = 1.959963984540054  # two-sided 95%

# The replication index of a coverage plan's pilot stream: far above any
# replication count, so the pilot is not one of the replications' samples.
PILOT_STREAM = 0x9E3779B9

# A coverage report passes when its Wilson lower bound is at least
# 1 - p - COVERAGE_SLACK.
COVERAGE_SLACK = 0.02
# A tail row passes when its frequency k / R is at most the bound e^{-t}
# plus TAIL_SLACK, for the rounding of two values that may be equal.
TAIL_SLACK = 1e-12


def replication_rng(base_seed: int, index: int) -> np.random.Generator:
    """Per-replication stream: base XOR index (order-free, merge-exact)."""
    return np.random.default_rng(base_seed ^ index)


def _draws(sampler, seed: int, n: int, indices):
    """The scenarios of each replication in ``indices``, in order: ``n``
    draws of ``sampler`` from the stream ``replication_rng(seed, index)``."""
    for index in indices:
        yield ScenarioSet(sampler(replication_rng(seed, index), n))


def _check_replications(replications: int) -> None:
    if replications < 1:
        raise ConfigError("need at least one replication", got=replications)


def _check_finite(stats) -> None:
    """A constraint table's check, for statistics of the objective computed
    with numpy warnings off."""
    if not np.isfinite(stats).all():
        raise _overflow(0)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval (two-sided 95%) for a binomial proportion."""
    if n <= 0:
        raise EmptySampleError("Wilson interval needs at least one trial")
    z = WILSON_Z
    phat = successes / n
    denom = 1 + z ** 2 / n
    center = (phat + z ** 2 / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z ** 2 / (4 * n ** 2)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


# ---------------------------------------------------------------------------
# self-normalized tails


@dataclass
class TailRow:
    _JSON_EXTRA = ("passed",)

    t: float
    threshold: float
    frequency: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.frequency <= self.bound + TAIL_SLACK


@dataclass
class TailReport(JsonResult):
    _JSON_EXTRA = ("passed",)

    kind: str
    rows: list
    n: int
    replications: int
    constant: float
    seed: int
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _check_tail_plan(t_grid, replications: int) -> None:
    _check_replications(replications)
    if not len(t_grid) or min(t_grid) < 0:  # t < 0 has a bound e^{-t} > 1
        raise ConfigError("tail experiments need a nonempty t_grid of t >= 0",
                          field="t_grid", t_grid=list(t_grid))


def _tail_rows(t_grid, stats: np.ndarray, constant: float, scales) -> list:
    """One row per t: the frequency of ``stats >= constant * sqrt(1 + t) *
    scales`` (one scale per replication, or one for all) against the bound
    e^{-t}, and the median threshold."""
    cuts = [(t, constant * math.sqrt(1 + t) * scales) for t in t_grid]
    return [TailRow(float(t), float(np.median(c)), float(np.mean(stats >= c)),
                    math.exp(-t)) for t, c in cuts]


def tail_experiment(dist: Distribution, n: int, t_grid, replications: int,
                    constant: float, seed: int) -> TailReport:
    """Exceedance of the self-normalized statistic vs its e^{-t} bound."""
    _check_tail_plan(t_grid, replications)
    stats = np.array([self_normalized(scen.data[:, 0], dist.mean, dist.var)
                      for scen in _draws(dist.sampler(), seed, n,
                                         range(replications))])
    return TailReport(kind="tail", rows=_tail_rows(t_grid, stats, constant, 1.0),
                      n=n, replications=replications, constant=constant,
                      seed=seed, details={"distribution": dist.name})


def uniform_tail_experiment(program: StochasticProgram, n: int, t_grid,
                            replications: int, constant: float, seed: int,
                            h: float) -> TailReport:
    """Exceedance of the anchored sup-deviation vs the chaining bound.

    Per replication the statistic is sup over a grid of |[Fhat0 - f0](x) -
    [Fhat0 - f0](y)| with y the first grid point; the threshold is C *
    A_alpha * sqrt((1+t)(Lhat^2 + L^2)/N) with the per-replication empirical
    modulus Lhat.  The grid sup is a lower bound on the true sup (reported
    in details).
    """
    _check_tail_plan(t_grid, replications)
    grid = program.space.grid(h)
    pts = np.vstack([grid, grid[:1]])
    sups, scales = np.empty((2, replications))
    with np.errstate(all="ignore"):  # a non-finite statistic raises below
        true_vals = program.true_fn_grid(0, pts)
        comp = a_alpha(program.space, program.holder[0].alpha)
        pop_l, _ = _population_l(program, 0)
        draws = _draws(program.sampler, seed, n, range(replications))
        for r, scen in enumerate(draws):
            dev = _sample_means(program, 0, pts, scen) - true_vals
            sups[r] = float(np.max(np.abs(dev[:-1] - dev[-1])))
            l_hat_sq = float(np.mean(per_scenario_modulus(program, 0, scen.data) ** 2))
            scales[r] = math.sqrt((l_hat_sq + pop_l ** 2) / n)
    _check_finite([sups, scales])
    rows = _tail_rows(t_grid, sups, constant * comp.value, scales)
    return TailReport(kind="uniform-tail", rows=rows, n=n,
                      replications=replications, constant=constant, seed=seed,
                      details={"a_alpha": comp.value,
                               "pop_l": pop_l, "grid_points": len(grid),
                               "sup_is_grid_lower_bound": True,
                               "family": program.name})


# ---------------------------------------------------------------------------
# theorem coverage


# coverage event -> {theorem: guarantee scope}, for the events that
# _event_checker tests
_EVENT_SCOPES = {
    event: {theorem: scope for theorem, scopes in _GUARANTEES.items()
            for scope, (_, events) in scopes.items() if event in dict(events)}
    for event in ("near-optimal-subset", "feasible-relaxed", "feasible-hard")}


@dataclass
class CoveragePlan:
    program: StochasticProgram
    theorem: str
    event: str
    eps: float
    p: float
    replications: int
    seed: int
    h: float = 0.02
    pilot_n: int = 400
    constant: float = 1.0
    max_n: int = 400_000
    name: str = ""

    def __post_init__(self):
        _check_replications(self.replications)
        if self.event not in _EVENT_SCOPES:
            raise ConfigError(f"unknown coverage event {self.event!r}",
                              allowed=sorted(_EVENT_SCOPES))
        if self.theorem not in _EVENT_SCOPES[self.event]:
            raise ConfigError(
                f"event {self.event!r} is not guaranteed by the "
                f"{self.theorem!r} certificate",
                allowed=sorted(_EVENT_SCOPES[self.event]))
        if self.theorem == "interior":
            margin = getattr(self.program.oracle, "slater_margin", None)
            if margin is None:
                raise ConfigError("interior coverage plans need a program "
                                  "with a declared interior margin")
            if self.eps > margin / 2 + MARGIN_TOL:
                raise ConfigError("interior coverage needs eps <= margin / 2",
                                  eps=self.eps, slater_margin=margin)
        if not self.name:
            self.name = f"{self.program.name or 'program'}:{self.event}"


@dataclass
class CoverageReport(JsonResult):
    _JSON_EXTRA = ("passed",)

    plan: str
    theorem: str
    event: str
    eps: float
    p: float
    constant: float
    n_used: int
    replications: int
    successes: int
    frequency: float
    wilson: tuple
    floor: float
    seed: int
    sigma_hat: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.wilson[0] >= self.floor - COVERAGE_SLACK


def _relaxations_for(theorem: str, eps: float, m: int) -> np.ndarray:
    return np.full(m, {"exterior": eps, "interior": -eps}.get(theorem, 0.0))


def _pilot_profile(plan: CoveragePlan) -> VarianceProfile:
    """The variance profile of the plan's pilot sample; it does not depend
    on ``plan.constant``."""
    program = plan.program
    pilot = next(_draws(program.sampler, plan.seed, plan.pilot_n,
                        [PILOT_STREAM]))
    emp = build_empirical(program, pilot, _relaxations_for(
        plan.theorem, plan.eps, program.n_constraints))
    c = None
    if plan.theorem == "exterior":
        c = program.oracle.regularity_c
        if c is None:
            c = robinson_constant(program.space.diameter(),
                                  program.oracle.slater_margin)
    return variance_profile(program, emp, plan.theorem, plan.eps, h=plan.h, c=c)


def coverage_certificate(plan: CoveragePlan,
                         profile: VarianceProfile | None = None) -> Certificate:
    """Pilot-sample certificate fixing N for the coverage run.

    ``profile`` is the plan's ``_pilot_profile``, computed here when omitted.
    """
    program = plan.program
    if profile is None:
        profile = _pilot_profile(plan)
    margin = program.oracle.slater_margin if plan.theorem == "interior" else None
    return certificate_from_profile(profile, plan.eps, plan.p,
                                    m=program.n_constraints,
                                    constant=plan.constant,
                                    scope=_EVENT_SCOPES[plan.event][plan.theorem],
                                    slater_margin=margin)


def _event_checker(plan: CoveragePlan):
    """Precompute the population masks; return the per-replication check.

    A replication's empirical feasible set is the level set of its
    constraint table at the levels ``emp.relaxations``; for
    near-optimal-subset its table also holds the objective, as row 0, and
    the event concerns the set's eps-near-optimal points."""
    eps, grid = plan.eps, plan.program.space.grid(plan.h)
    near = plan.event == "near-optimal-subset"
    pop = _constraint_table(plan.program, grid, objective=near)
    if near:
        f_star = float(pop[0][relaxed_set_grid(pop[1:])].min())
        good = pop[0] <= f_star + 2 * eps + SET_TOL
    else:
        good = relaxed_set_grid(pop, 2 * eps if plan.event == "feasible-relaxed"
                                else 0.0)

    def check(emp):
        table = _constraint_table(emp, grid, objective=near)
        mask = relaxed_set_grid(table[int(near):], emp.relaxations[:, None])
        if near and np.any(mask):
            vals = table[0][mask]
            mask[mask] = vals <= float(vals.min()) + eps + SET_TOL
        return bool(np.all(good[mask]))

    return check


def coverage_experiment(plan: CoveragePlan,
                        certificate: Certificate | None = None,
                        rep_range: tuple[int, int] | None = None) -> CoverageReport:
    """Monte Carlo frequency of a certificate's guaranteed event at its N,
    over replications ``rep_range`` = [start, stop) of the plan's (all by
    default)."""
    start, stop = rep_range if rep_range is not None else (0, plan.replications)
    if not 0 <= start < stop <= plan.replications:
        raise ConfigError("rep_range must satisfy 0 <= start < stop <= "
                          "replications", rep_range=[start, stop],
                          replications=plan.replications)
    program = plan.program
    cert = certificate if certificate is not None else coverage_certificate(plan)
    n = cert.n_required
    if n > plan.max_n:
        raise BudgetError("certified sample size exceeds the experiment budget",
                          n_required=n, max_n=plan.max_n)
    relax = _relaxations_for(plan.theorem, plan.eps, program.n_constraints)
    check = _event_checker(plan)
    successes, emp = 0, None
    for scen in _draws(program.sampler, plan.seed, n, range(start, stop)):
        # the first replication validates the program; the rest swap data
        emp = (build_empirical(program, scen, relax) if emp is None
               else replace(emp, scenarios=scen))
        successes += bool(check(emp))
    count = stop - start
    return CoverageReport(
        plan=plan.name, theorem=plan.theorem, event=plan.event,
        eps=plan.eps, p=plan.p, constant=plan.constant, n_used=n,
        replications=count, successes=successes, frequency=successes / count,
        wilson=wilson_interval(successes, count), floor=1 - plan.p,
        seed=plan.seed, sigma_hat=cert.sigma_hat,
        details={"pilot_n": plan.pilot_n, "h": plan.h,
                 "rep_range": [start, stop]})


# ---------------------------------------------------------------------------
# convergence rate


@dataclass
class RateRow:
    n: int
    mean: float                 # mean sup-deviation over the replications
    stderr: float


@dataclass
class RateReport(JsonResult):
    _JSON_EXTRA = ("passed",)

    rows: list                  # RateRow per sample size
    slope: float | None
    slope_stderr: float | None
    degenerate: bool
    replications: int
    seed: int
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (not self.degenerate and self.slope is not None
                and -0.6 <= self.slope <= -0.4)


def fit_loglog_slope(ns, means) -> tuple[float, float]:
    """Least-squares slope of ln(mean) on ln(n), with its standard error."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(np.sum((x - x.mean()) ** 2)))
    return float(slope), se


def rate_experiment(program: StochasticProgram, n_grid, replications: int,
                    seed: int, h: float) -> RateReport:
    """Mean sup-deviation of Fhat0 over a grid, fitted against 1/sqrt(N)."""
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 3 or min(n_grid) < 1:
        raise ConfigError("rate experiments need at least three sample "
                          "sizes, each >= 1", n_grid=n_grid)
    _check_replications(replications)
    grid = program.space.grid(h)
    sups = np.empty((len(n_grid), replications))
    with np.errstate(all="ignore"):  # a non-finite statistic raises below
        true_vals = program.true_fn_grid(0, grid)
        for j, n in enumerate(n_grid):
            draws = _draws(program.sampler, seed, n,
                           range(j * replications, (j + 1) * replications))
            sups[j] = [np.max(np.abs(_sample_means(program, 0, grid, scen)
                                     - true_vals)) for scen in draws]
        rows = [RateRow(n, float(np.mean(row)),
                        float(np.std(row) / math.sqrt(replications)))
                for n, row in zip(n_grid, sups)]
    _check_finite([(row.mean, row.stderr) for row in rows])
    degenerate = any(row.mean <= 0 for row in rows)
    slope, se = (None, None) if degenerate else fit_loglog_slope(
        [row.n for row in rows], [row.mean for row in rows])
    return RateReport(rows=rows, slope=slope, slope_stderr=se,
                      degenerate=degenerate, replications=replications, seed=seed,
                      details={"family": program.name} if degenerate else
                      {"family": program.name, "grid_points": len(grid)})


# ---------------------------------------------------------------------------
# constant calibration


@dataclass
class CalibrationResult(JsonResult):
    c_star: float
    c_grid: list
    matrix: dict               # C -> {plan name: pass flag}
    reports: dict              # C -> {plan name: CoverageReport json}
    monotone_confirmed: bool
    seed: int


def _min_replications(p: float) -> int:
    """Fewest replications R whose all-success Wilson lower bound, R / (R +
    z^2), reaches 1 - p - COVERAGE_SLACK (p in (0, 1), so R < 200)."""
    r = 1
    while wilson_interval(r, r)[0] < 1 - p - COVERAGE_SLACK:
        r += 1
    return r


def calibrate_constant(plans: list, c_grid=None) -> CalibrationResult:
    """Smallest dyadic C for which every coverage plan passes.

    Plans are rerun per C with the same seeds; the certified N grows with C,
    so the scan ascends and stops at the first full pass.  The result is
    re-checked at 2*C (larger C certifies larger N, which must also pass).
    Each plan's pilot profile is computed once: only the certificate built
    from it depends on C.  A plan too small to pass even with every
    replication a success raises before the scan.
    """
    if not plans:
        raise ConfigError("calibration needs at least one coverage plan")
    for plan in plans:
        r = plan.replications
        if 0 < plan.p < 1 and wilson_interval(r, r)[0] < 1 - plan.p - COVERAGE_SLACK:
            need = _min_replications(plan.p)
            raise UncalibratableError(
                f"coverage plan {plan.name!r} cannot pass with {r} "
                f"replications: the Wilson lower bound of {r} successes in "
                f"{r} is below 1 - p - {COVERAGE_SLACK}; it needs at least "
                f"{need}", plan=plan.name, replications=r, min_replications=need)
    if c_grid is None:
        c_grid = [2.0 ** k for k in range(-6, 7)]
    c_grid = sorted(float(c) for c in c_grid)
    matrix, reports, profiles = {}, {}, {}

    def run_all(c_value):
        row, row_reports, all_pass = {}, {}, True
        for k, plan in enumerate(plans):
            trial = replace(plan, constant=c_value)
            try:
                if k not in profiles:
                    profiles[k] = _pilot_profile(plan)
                rep = coverage_experiment(trial, coverage_certificate(
                    trial, profiles[k]))
                row[plan.name] = rep.passed
                row_reports[plan.name] = rep.to_json()
            except BudgetError as exc:
                row[plan.name] = False
                row_reports[plan.name] = {"error": exc.to_json()}
            all_pass &= row[plan.name]
        return row, row_reports, all_pass

    for c_star in c_grid:
        matrix[c_star], reports[c_star], all_pass = run_all(c_star)
        if all_pass:
            break
    else:
        raise UncalibratableError(
            "no constant on the grid passes every coverage plan",
            c_grid=list(c_grid),
            matrix={str(c): v for c, v in matrix.items()})
    matrix[2 * c_star], reports[2 * c_star], all_pass = run_all(2 * c_star)
    return CalibrationResult(c_star=c_star, c_grid=list(c_grid), matrix=matrix,
                             reports=reports, monotone_confirmed=all_pass,
                             seed=plans[0].seed)
