"""Monte Carlo laboratory for the probabilistic guarantees.

Every experiment derives one RNG stream per replication as
``default_rng(base_seed ^ index)``, so runs are reproducible, halves of a
run merge exactly into the whole, and replications could run concurrently
without changing any count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .certify import Certificate, certificate_from_profile
from .distributions import Distribution
from .errors import BudgetError, ConfigError, EmptySampleError, UncalibratableError
from .geometry import a_alpha
from .moments import (_GUARANTEES, VarianceProfile, _population_l,
                      per_scenario_modulus, self_normalized, variance_profile)
from .problem import (ScenarioSet, StochasticProgram, _constraint_table,
                      _sample_means, build_empirical, relaxed_set_grid)

WILSON_Z = 1.959963984540054  # two-sided 95%


def replication_rng(base_seed: int, index: int) -> np.random.Generator:
    """Per-replication stream: base XOR index (order-free, merge-exact)."""
    return np.random.default_rng(base_seed ^ index)


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
    t: float
    threshold: float
    frequency: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.frequency <= self.bound + 1e-12


@dataclass
class TailReport:
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

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "replications": self.replications,
            "constant": self.constant,
            "seed": self.seed,
            "passed": self.passed,
            "rows": [{"t": r.t, "threshold": r.threshold,
                      "frequency": r.frequency, "bound": r.bound,
                      "passed": r.passed} for r in self.rows],
            "details": dict(self.details),
        }


def tail_experiment(dist: Distribution, n: int, t_grid, replications: int,
                    constant: float, seed: int,
                    transform=None) -> TailReport:
    """Exceedance of the self-normalized statistic vs its e^{-t} bound.

    ``transform`` optionally maps draws through (fn, mean, var) for a
    non-identity g with known population moments.
    """
    if replications < 1:
        raise ConfigError("need at least one replication", got=replications)
    if transform is None:
        g_fn, g_mean, g_var = (lambda v: v), dist.mean, dist.var
    else:
        g_fn, g_mean, g_var = transform
    stats = np.empty(replications)
    for r in range(replications):
        rng = replication_rng(seed, r)
        vals = g_fn(dist.sample(rng, n))
        stats[r] = self_normalized(vals, g_mean, g_var)
    rows = [TailRow(t=float(t), threshold=constant * math.sqrt(1 + t),
                    frequency=float(np.mean(stats >= constant * math.sqrt(1 + t))),
                    bound=math.exp(-t))
            for t in t_grid]
    return TailReport(kind="tail", rows=rows, n=n, replications=replications,
                      constant=constant, seed=seed,
                      details={"distribution": dist.name})


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
    space = program.space
    oracle = program.oracle
    if oracle is None or oracle.sampler is None:
        raise ConfigError("uniform tail experiment needs an oracle sampler")
    grid = space.grid(h)
    pts = np.vstack([grid, grid[:1]])
    true_vals = program.true_fn_grid(0, pts)
    probes = space.grid(max(space.diameter() / 8, 1e-12))
    comp = a_alpha(space, program.holder[0].alpha, h=h)
    pop_l, _ = _population_l(program, 0, seed ^ 0x5EED, 20_000, probes)

    sups = np.empty(replications)
    scales = np.empty(replications)
    for r in range(replications):
        rng = replication_rng(seed, r)
        xis = oracle.sampler(rng, n)
        dev = _sample_means(program, 0, pts, xis) - true_vals
        sups[r] = float(np.max(np.abs(dev[:-1] - dev[-1])))
        l_hat_sq = float(np.mean(per_scenario_modulus(program, 0, xis, probes) ** 2))
        scales[r] = math.sqrt((l_hat_sq + pop_l ** 2) / n)
    rows = []
    for t in t_grid:
        thresholds = constant * comp.value * math.sqrt(1 + t) * scales
        rows.append(TailRow(t=float(t),
                            threshold=float(np.median(thresholds)),
                            frequency=float(np.mean(sups >= thresholds)),
                            bound=math.exp(-t)))
    return TailReport(kind="uniform-tail", rows=rows, n=n,
                      replications=replications, constant=constant, seed=seed,
                      details={"a_alpha": comp.value,
                               "a_alpha_approximate": comp.approximate,
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
    scope: str | None = None
    max_n: int = 400_000
    name: str = ""

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("need at least one replication",
                              got=self.replications)
        if self.event not in _EVENT_SCOPES:
            raise ConfigError(f"unknown coverage event {self.event!r}",
                              allowed=sorted(_EVENT_SCOPES))
        if self.theorem not in _EVENT_SCOPES[self.event]:
            raise ConfigError(
                f"event {self.event!r} is not guaranteed by the "
                f"{self.theorem!r} certificate",
                allowed=sorted(_EVENT_SCOPES[self.event]))
        if self.theorem == "interior":
            oracle = self.program.oracle
            margin = oracle.slater_margin if oracle is not None else None
            if margin is None:
                raise ConfigError("interior coverage plans need a program "
                                  "with a declared interior margin")
            if self.eps > margin / 2 + 1e-12:
                raise ConfigError("interior coverage needs eps <= margin / 2",
                                  eps=self.eps, slater_margin=margin)
        if not self.name:
            self.name = f"{self.program.name or 'program'}:{self.event}"


@dataclass
class CoverageReport:
    plan_name: str
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
        return self.wilson[0] >= self.floor - 0.02

    def to_json(self) -> dict:
        return {
            "plan": self.plan_name, "theorem": self.theorem,
            "event": self.event, "eps": self.eps, "p": self.p,
            "constant": self.constant, "n_used": self.n_used,
            "replications": self.replications, "successes": self.successes,
            "frequency": self.frequency,
            "wilson": [self.wilson[0], self.wilson[1]],
            "floor": self.floor, "passed": self.passed, "seed": self.seed,
            "sigma_hat": self.sigma_hat, "details": dict(self.details),
        }


def _relaxations_for(theorem: str, eps: float, m: int) -> np.ndarray:
    return np.full(m, {"exterior": eps, "interior": -eps}.get(theorem, 0.0))


def _coverage_sampler(program: StochasticProgram):
    if program.oracle is None or program.oracle.sampler is None:
        raise ConfigError("coverage experiments need an oracle sampler")
    return program.oracle.sampler


def _pilot_profile(plan: CoveragePlan) -> VarianceProfile:
    """The variance profile of the plan's pilot sample; it does not depend
    on ``plan.constant``."""
    program = plan.program
    pilot = ScenarioSet.from_sampler(_coverage_sampler(program), plan.pilot_n,
                                     plan.seed ^ 0x9E3779B9)
    emp = build_empirical(program, pilot, _relaxations_for(
        plan.theorem, plan.eps, program.n_constraints))
    c = None
    if plan.theorem == "exterior":
        c = program.oracle.regularity_c
        if c is None:
            c = program.space.diameter() / program.oracle.slater_margin
    return variance_profile(program, emp, plan.theorem, plan.eps, h=plan.h, c=c)


def coverage_certificate(plan: CoveragePlan,
                         profile: VarianceProfile | None = None) -> Certificate:
    """Pilot-sample certificate fixing N for the coverage run.

    ``profile`` is the plan's ``_pilot_profile``, computed here when omitted.
    """
    program = plan.program
    m = program.n_constraints
    if profile is None:
        profile = _pilot_profile(plan)
    scope = plan.scope or _EVENT_SCOPES[plan.event][plan.theorem]
    margin = program.oracle.slater_margin if plan.theorem == "interior" else None
    return certificate_from_profile(profile, plan.eps, plan.p, m=max(m, 1)
                                    if plan.theorem != "fixed" else m,
                                    constant=plan.constant, scope=scope,
                                    slater_margin=margin)


def _event_checker(plan: CoveragePlan):
    """Precompute population grids; return (grid, per-replication closure)."""
    program = plan.program
    eps = plan.eps
    grid = program.space.grid(plan.h)
    f0 = program.true_fn_grid(0, grid)
    table = _constraint_table(program, grid)

    if plan.event == "near-optimal-subset":
        f_star = float(f0[relaxed_set_grid(table)].min())
        good = f0 <= f_star + 2 * eps + 1e-12

        def check(emp):
            hard = emp.feasible_mask(grid, tol=1e-12)
            if not np.any(hard):
                return True
            vals = emp.fhat_grid(0, grid)[hard]
            near = vals <= float(vals.min()) + eps + 1e-12
            return bool(np.all(good[hard][near]))

        return grid, check

    level = 2 * eps if plan.event == "feasible-relaxed" else 0.0
    target = relaxed_set_grid(table, level)

    def check(emp):
        return bool(np.all(target[emp.feasible_mask(grid, tol=1e-12)]))

    return grid, check


def coverage_experiment(plan: CoveragePlan,
                        certificate: Certificate | None = None,
                        rep_range: tuple[int, int] | None = None) -> CoverageReport:
    """Monte Carlo frequency of a certificate's guaranteed event at its N."""
    program = plan.program
    sampler = _coverage_sampler(program)
    cert = certificate if certificate is not None else coverage_certificate(plan)
    n = cert.n_required
    if n > plan.max_n:
        raise BudgetError("certified sample size exceeds the experiment budget",
                          n_required=n, max_n=plan.max_n)
    m = program.n_constraints
    relax = _relaxations_for(plan.theorem, plan.eps, m)
    _, check = _event_checker(plan)
    start, stop = rep_range if rep_range is not None else (0, plan.replications)
    successes = 0
    for r in range(start, stop):
        rng = replication_rng(plan.seed, r)
        scen = ScenarioSet(np.atleast_2d(sampler(rng, n)))
        emp = build_empirical(program, scen, relax)
        successes += bool(check(emp))
    count = stop - start
    freq = successes / count
    return CoverageReport(
        plan_name=plan.name, theorem=plan.theorem, event=plan.event,
        eps=plan.eps, p=plan.p, constant=plan.constant, n_used=n,
        replications=count, successes=successes, frequency=freq,
        wilson=wilson_interval(successes, count), floor=1 - plan.p,
        seed=plan.seed, sigma_hat=cert.sigma_hat,
        details={"pilot_n": plan.pilot_n, "h": plan.h,
                 "rep_range": [start, stop]})


# ---------------------------------------------------------------------------
# convergence rate


@dataclass
class RateReport:
    rows: list                  # (n, mean deviation, standard error)
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

    def to_json(self) -> dict:
        return {
            "rows": [{"n": n, "mean": m, "stderr": se} for n, m, se in self.rows],
            "slope": self.slope, "slope_stderr": self.slope_stderr,
            "degenerate": self.degenerate, "passed": self.passed,
            "replications": self.replications, "seed": self.seed,
            "details": dict(self.details),
        }


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
    oracle = program.oracle
    if oracle is None or oracle.sampler is None:
        raise ConfigError("rate experiments need an oracle sampler")
    grid = program.space.grid(h)
    true_vals = program.true_fn_grid(0, grid)
    rows = []
    for j, n in enumerate(n_grid):
        sups = np.empty(replications)
        for r in range(replications):
            rng = replication_rng(seed, j * replications + r)
            xis = oracle.sampler(rng, n)
            hat = _sample_means(program, 0, grid, xis)
            sups[r] = float(np.max(np.abs(hat - true_vals)))
        rows.append((n, float(np.mean(sups)),
                     float(np.std(sups) / math.sqrt(replications))))
    if any(mean <= 0 for _, mean, _ in rows):
        return RateReport(rows=rows, slope=None, slope_stderr=None,
                          degenerate=True, replications=replications,
                          seed=seed, details={"family": program.name})
    slope, se = fit_loglog_slope([n for n, _, _ in rows],
                                 [mean for _, mean, _ in rows])
    return RateReport(rows=rows, slope=slope, slope_stderr=se,
                      degenerate=False, replications=replications, seed=seed,
                      details={"family": program.name, "grid_points": len(grid)})


# ---------------------------------------------------------------------------
# constant calibration


@dataclass
class CalibrationResult:
    c_star: float
    c_grid: list
    matrix: dict               # C -> {plan name: pass flag}
    reports: dict              # C -> {plan name: CoverageReport json}
    monotone_confirmed: bool
    seed: int

    def to_json(self) -> dict:
        return {
            "c_star": self.c_star,
            "c_grid": list(self.c_grid),
            "matrix": {str(c): dict(v) for c, v in self.matrix.items()},
            "reports": {str(c): dict(v) for c, v in self.reports.items()},
            "monotone_confirmed": self.monotone_confirmed,
            "seed": self.seed,
        }


def calibrate_constant(plans: list, c_grid=None) -> CalibrationResult:
    """Smallest dyadic C for which every coverage plan passes.

    Plans are rerun per C with the same seeds; the certified N grows with C,
    so the scan ascends and stops at the first full pass.  The result is
    re-checked at 2*C (larger C certifies larger N, which must also pass).
    Each plan's pilot profile is computed once: only the certificate built
    from it depends on C.
    """
    if not plans:
        raise ConfigError("calibration needs at least one coverage plan")
    if c_grid is None:
        c_grid = [2.0 ** k for k in range(-6, 7)]
    c_grid = sorted(float(c) for c in c_grid)
    matrix, reports = {}, {}
    seed = plans[0].seed
    profiles = {}

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

    c_star = None
    for c_value in c_grid:
        row, row_reports, all_pass = run_all(c_value)
        matrix[c_value] = row
        reports[c_value] = row_reports
        if all_pass:
            c_star = c_value
            break
    if c_star is None:
        raise UncalibratableError(
            "no constant on the grid passes every coverage plan",
            c_grid=list(c_grid),
            matrix={str(c): v for c, v in matrix.items()})
    row, row_reports, all_pass = run_all(2 * c_star)
    matrix[2 * c_star] = row
    reports[2 * c_star] = row_reports
    return CalibrationResult(c_star=c_star, c_grid=list(c_grid), matrix=matrix,
                             reports=reports, monotone_confirmed=all_pass,
                             seed=seed)
