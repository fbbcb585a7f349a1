"""Monte Carlo experiments: tails, coverage, rates, calibration, Wilson."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from saacert.distributions import make_distribution
from saacert.errors import (BudgetError, ConfigError, SlaterMarginError,
                            UncalibratableError)
from saacert.families import make_family
from saacert.problem import TrueOracle
from saacert.validation import (WILSON_Z, CoveragePlan, calibrate_constant,
                                coverage_certificate, coverage_experiment,
                                fit_loglog_slope, rate_experiment,
                                replication_rng, tail_experiment,
                                uniform_tail_experiment, wilson_interval)


def wilson_closed_form(successes, n, z=WILSON_Z):
    """Textbook Wilson score interval, written out independently."""
    phat = successes / n
    center = (phat + z * z / (2 * n)) / (1 + z * z / n)
    half = (z / (1 + z * z / n)) * math.sqrt(
        phat * (1 - phat) / n + z * z / (4 * n * n))
    return center - half, center + half


@pytest.mark.parametrize("successes", [0, 50, 100])
def test_wilson_interval_closed_form(successes):
    lo, hi = wilson_interval(successes, 100)
    ref_lo, ref_hi = wilson_closed_form(successes, 100)
    assert lo == pytest.approx(max(ref_lo, 0.0), abs=1e-12)
    assert hi == pytest.approx(min(ref_hi, 1.0), abs=1e-12)
    assert 0.0 <= lo <= hi <= 1.0


def test_wilson_extremes_stay_in_unit_interval():
    lo0, _ = wilson_interval(0, 100)
    _, hi1 = wilson_interval(100, 100)
    assert lo0 == 0.0
    assert hi1 == 1.0


def test_replication_streams_are_independent_of_order():
    a = replication_rng(12345, 7).normal(size=4)
    _ = replication_rng(12345, 3).normal(size=100)
    b = replication_rng(12345, 7).normal(size=4)
    assert np.array_equal(a, b)


def test_tail_experiment_heavy_tail():
    rep = tail_experiment(make_distribution("t3"), 100, [0.5, 1.0], 400, 3.0,
                          seed=2)
    assert rep.passed
    for row in rep.rows:
        assert row.frequency <= row.bound + 1e-12
        assert row.threshold == pytest.approx(3.0 * math.sqrt(1 + row.t))


def test_uniform_tail_simplex():
    program = make_family("linear_simplex", dim=3)
    rep = uniform_tail_experiment(program, 100, [0.5, 1.0], 150, 3.0, seed=3,
                                  h=0.25)
    assert rep.passed
    assert rep.details["sup_is_grid_lower_bound"]


def test_rate_experiment_root_n():
    program = make_family("quad1d", a=0.3)
    rep = rate_experiment(program, [64, 128, 256, 512, 1024], 60, seed=6,
                          h=0.02)
    assert not rep.degenerate
    assert -0.75 <= rep.slope <= -0.3
    assert rep.slope_stderr < 0.1


def test_fit_loglog_slope_recovers_power_law():
    ns = np.array([10, 100, 1000, 10000])
    means = 3.0 / np.sqrt(ns)
    slope, stderr = fit_loglog_slope(ns, means)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-9)


def test_rate_needs_enough_sizes():
    with pytest.raises(ConfigError):
        rate_experiment(make_family("quad1d"), [64, 128], 10, seed=0, h=0.1)


def test_rate_rejects_sample_sizes_below_one():
    with pytest.raises(ConfigError, match="each >= 1"):
        rate_experiment(make_family("quad1d"), [10, 0, 30], 2, seed=0, h=0.25)


def test_rate_rejects_zero_replications():
    with pytest.raises(ConfigError, match="replication"):
        rate_experiment(make_family("quad1d"), [10, 20, 30], 0, seed=0, h=0.25)


def fixed_plan(replications=60, seed=11, constant=1.0):
    return CoveragePlan(program=make_family("quad1d", a=0.3),
                        theorem="fixed", event="near-optimal-subset",
                        eps=0.1, p=0.1, replications=replications, seed=seed,
                        h=0.01, constant=constant, name="fixed-quad")


def test_coverage_fixed_event():
    plan = fixed_plan()
    cert = coverage_certificate(plan)
    rep = coverage_experiment(plan, cert)
    assert rep.n_used == cert.n_required
    assert rep.frequency >= 0.9
    assert 0.0 <= rep.wilson[0] <= rep.frequency <= rep.wilson[1] <= 1.0


def test_coverage_certificate_keeps_m_zero():
    """A program without stochastic constraints gets no exterior
    certificate: its m = 0 reaches the sample-size rule as it is."""
    program = make_family("quad1d")
    program.oracle.regularity_c = 1.0
    plan = CoveragePlan(program=program, theorem="exterior",
                        event="feasible-relaxed", eps=0.1, p=0.1,
                        replications=5, seed=0, h=0.05)
    with pytest.raises(ConfigError, match="at least one stochastic"):
        coverage_certificate(plan)


def test_coverage_half_run_merge_is_exact():
    """Replication streams are keyed by index, so split runs merge exactly."""
    plan = fixed_plan(replications=40)
    cert = coverage_certificate(plan)
    full = coverage_experiment(plan, cert)
    first = coverage_experiment(plan, cert, rep_range=(0, 20))
    second = coverage_experiment(plan, cert, rep_range=(20, 40))
    assert first.successes + second.successes == full.successes


@pytest.mark.parametrize("rep_range", [(5, 5), (8, 20), (-1, 4)])
def test_coverage_rep_range_must_lie_in_the_plan(rep_range):
    """An empty range has no frequency; a range past the plan's
    replications runs streams the plan never asked for."""
    with pytest.raises(ConfigError, match="rep_range") as err:
        coverage_experiment(fixed_plan(replications=10), rep_range=rep_range)
    assert err.value.details["rep_range"] == list(rep_range)


def test_coverage_plan_rejects_zero_replications():
    with pytest.raises(ConfigError, match="replication"):
        fixed_plan(replications=0)


def test_coverage_rejects_wide_interior_eps():
    with pytest.raises(ConfigError):
        CoveragePlan(program=make_family("halfspace_box",
                                         objective="interior"),
                     theorem="interior", event="feasible-hard",
                     eps=0.7, p=0.1, replications=10, seed=0)


def test_coverage_budget_guard():
    plan = CoveragePlan(program=make_family("quad1d", a=0.3),
                        theorem="fixed", event="near-optimal-subset",
                        eps=0.01, p=0.001, replications=5, seed=1, h=0.01,
                        constant=64.0, max_n=10_000)
    with pytest.raises(BudgetError):
        coverage_experiment(plan)


def test_calibration_scans_upward():
    plans = [fixed_plan(replications=50, seed=21)]
    result = calibrate_constant(plans, c_grid=[0.25, 0.5, 1.0])
    assert result.c_star in (0.25, 0.5, 1.0)
    assert result.monotone_confirmed
    assert all(result.matrix[result.c_star].values())
    # every constant below the winner must have failed some plan
    for c_value, row in result.matrix.items():
        if c_value < result.c_star:
            assert not all(row.values())


def test_calibration_unattainable():
    """A plan whose certified N always busts the budget cannot calibrate."""
    plan = CoveragePlan(program=make_family("quad1d", a=0.3),
                        theorem="fixed", event="near-optimal-subset",
                        eps=0.005, p=0.01, replications=200, seed=2, h=0.01,
                        max_n=50)
    with pytest.raises(UncalibratableError) as info:
        calibrate_constant([plan], c_grid=[1.0, 2.0])
    assert "matrix" in info.value.details


def test_calibration_rejects_plans_too_small_to_pass(monkeypatch):
    """At p = 0.1 even 28 successes in 28 leave the Wilson lower bound below
    0.88: such a plan raises before any coverage run, naming the least R."""
    import saacert.validation as validation

    assert wilson_interval(28, 28)[0] < 0.88 <= wilson_interval(29, 29)[0]
    assert validation._min_replications(0.1) == 29
    for p in (0.01, 0.05, 0.3, 0.9):
        r = validation._min_replications(p)
        assert wilson_interval(r, r)[0] >= 1 - p - validation.COVERAGE_SLACK
        assert r == 1 or wilson_interval(r - 1, r - 1)[0] < 1 - p - 0.02

    def no_run(*args, **kwargs):
        raise AssertionError("coverage run for a plan that cannot pass")

    monkeypatch.setattr(validation, "coverage_experiment", no_run)
    plans = [fixed_plan(replications=50, seed=21),
             fixed_plan(replications=28, seed=22)]
    with pytest.raises(UncalibratableError) as info:
        calibrate_constant(plans)
    assert info.value.details["min_replications"] == 29
    assert "28 replications" in str(info.value)


@pytest.mark.parametrize("margin", [0.0, None])
def test_exterior_pilot_without_regularity_needs_a_positive_margin(margin):
    """Without a declared regularity constant the exterior pilot takes
    Robinson's D / margin, and a zero or missing margin is a typed error."""
    from saacert.validation import _pilot_profile

    ball = make_family("ball2d")
    ball.oracle.regularity_c = None
    ball.oracle.slater_margin = margin
    plan = CoveragePlan(program=ball, theorem="exterior",
                        event="feasible-relaxed", eps=0.1, p=0.1,
                        replications=40, seed=3, h=0.1, pilot_n=50)
    with pytest.raises(SlaterMarginError):
        _pilot_profile(plan)


def small_calibration_plans():
    quad = make_family("quad1d", a=0.3)
    ball = make_family("ball2d")
    half = make_family("halfspace_box", objective="interior")
    for program in (quad, ball, half):
        program.oracle.mc_budget = 500
    common = dict(p=0.1, replications=40, pilot_n=100)
    return [
        CoveragePlan(program=quad, theorem="fixed", event="near-optimal-subset",
                     eps=0.1, seed=5, h=0.02, name="q", **common),
        # max_n busts the budget at the doubled constant
        CoveragePlan(program=ball, theorem="exterior", event="feasible-relaxed",
                     eps=0.1, seed=6, h=0.1, max_n=200, name="b", **common),
        CoveragePlan(program=half, theorem="interior", event="feasible-hard",
                     eps=0.3, seed=7, h=0.1, name="h", **common),
    ]


def test_calibration_computes_each_pilot_profile_once(monkeypatch):
    """One pilot profile per plan, and reports equal the per-C path."""
    import saacert.validation as validation

    calls = []
    profile = validation.variance_profile

    def counted(program, *args, **kwargs):
        calls.append(program.name)
        return profile(program, *args, **kwargs)

    monkeypatch.setattr(validation, "variance_profile", counted)
    plans = small_calibration_plans()
    result = calibrate_constant(plans, c_grid=[2.0 ** -4, 2.0 ** -3, 2.0 ** -2])
    assert sorted(calls) == sorted(plan.program.name for plan in plans)
    assert len(result.reports) >= 2
    assert not result.monotone_confirmed
    assert "error" in result.reports[2 * result.c_star]["b"]
    monkeypatch.undo()
    for c_value, row in result.reports.items():
        for plan in plans:
            try:
                ref = coverage_experiment(replace(plan, constant=c_value)).to_json()
            except BudgetError as exc:
                ref = {"error": exc.to_json()}
            assert json.dumps(row[plan.name]) == json.dumps(ref)


def test_a_program_without_sampler_is_a_config_error():
    """Every Monte Carlo path draws through ``StochasticProgram.sampler``: a
    program without one is a configuration error naming the program, not an
    empty sample."""
    program = make_family("quad1d", a=0.3)
    program.oracle = TrueOracle()   # no sampler and no noise moments
    plan = CoveragePlan(program=program, theorem="fixed",
                        event="near-optimal-subset", eps=0.1, p=0.1,
                        replications=4, seed=5)
    calls = {
        "true_fn_grid": lambda: program.true_fn_grid(0, np.zeros((2, 1))),
        "coverage_experiment": lambda: coverage_experiment(plan),
        "uniform_tail_experiment": lambda: uniform_tail_experiment(
            program, 20, [0.5], 2, 1.0, seed=3, h=0.25),
        "rate_experiment": lambda: rate_experiment(program, [10, 20, 40], 2,
                                                   seed=3, h=0.25),
    }
    for name, call in calls.items():
        with pytest.raises(ConfigError) as err:
            call()
        assert err.value.details == {"program": "quad1d"}, name
