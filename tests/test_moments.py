"""Holder moduli, pointwise/uniform variance aggregates, self-normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saacert.apps import ReturnsDataset, build_lasso, build_portfolio
from saacert.certify import _max_ratio, components_for
from saacert.errors import BudgetError, ConfigError, EmptySampleError
from saacert.families import make_family
from saacert.geometry import SpaceDescriptor, min_pairwise_gap, set_deviation
from saacert.moments import (estimate_holder, per_scenario_modulus,
                             self_normalized, sigma_breve, sigma_hat_sq,
                             variance_profile)
from saacert.problem import (MODULUS_RTOL, HolderInfo, NoiseAffine, ScenarioSet,
                             StochasticProgram, build_empirical)
from saacert.validation import uniform_tail_experiment


def linear_noise_program():
    """F(x, xi) = xi * x on [0, 1]: per-scenario modulus is exactly |xi|."""
    def f0(x, xis):
        return xis[:, 0] * x[0]

    return StochasticProgram(
        objective=f0, constraints=[],
        space=SpaceDescriptor.interval(0.0, 1.0),
        holder=[HolderInfo(1.0, lambda xis: np.abs(xis[:, 0]))],
        name="linear-noise")


def test_estimate_holder_rms():
    program = linear_noise_program()
    scen = ScenarioSet([[1.0], [-3.0]])
    est = estimate_holder(program, scen.data, 0)
    assert est.l_hat == pytest.approx(math.sqrt((1 + 9) / 2))
    # combined always dominates each ingredient
    assert est.combined >= est.l_hat - 1e-12


def test_self_normalized_example():
    # mean 1, pop mean 0, second moments: mean(g^2)=1, var=1 -> sqrt(2/2)=1
    val = self_normalized(np.array([1.0, 1.0]), 0.0, 1.0)
    assert val == pytest.approx(1.0 / math.sqrt(1.0), abs=1e-12)
    single = self_normalized(np.array([2.0]), 1.0, 3.0)
    assert single == pytest.approx(1.0 / math.sqrt(1.0 + 3.0), abs=1e-12)


def test_self_normalized_affine_invariance():
    """Shifting and scaling the data leaves the statistic unchanged."""
    rng = np.random.default_rng(8)
    vals = rng.standard_t(3, size=64)
    base = self_normalized(vals, 0.0, 3.0)
    shifted = self_normalized(4.0 + vals, 4.0, 3.0)
    scaled = self_normalized(2.5 * vals, 0.0, 3.0 * 2.5 ** 2)
    assert shifted == pytest.approx(base, rel=1e-12)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_self_normalized_degenerate_zero():
    assert self_normalized(np.array([2.0, 2.0]), 2.0, 0.0) == 0.0


def test_sigma_breve_bounds():
    """breve sigma lies between max/sqrt(2) and the sum of its parts."""
    rng = np.random.default_rng(21)
    program = make_family("quad1d", a=0.3)
    emp = build_empirical(program,
                          ScenarioSet.from_sampler(program.oracle.sampler,
                                                   200, seed=4))
    for x in ([0.1], [0.5], [0.9]):
        x = np.array(x)
        pop_mean = program.true_fn(0, x)
        s_hat = math.sqrt(max(sigma_hat_sq(emp, 0, x, pop_mean), 0.0))
        s_pop = math.sqrt(max(program.true_variance(0, x), 0.0))
        s_breve = sigma_breve(emp, 0, x)
        assert s_breve >= max(s_hat, s_pop) / math.sqrt(2) - 1e-9
        assert s_breve <= s_hat + s_pop + 1e-9


@pytest.mark.filterwarnings("error")  # no numpy overflow warning either
def test_overflowing_moduli_and_variances_name_their_integrand():
    """RMS moduli and pointwise variances past the float range raise the
    integrand's overflow error instead of returning inf."""
    program = make_family("quad1d", noise=1e200)
    emp = build_empirical(program,
                          ScenarioSet.from_sampler(program.oracle.sampler,
                                                   20, seed=4))
    for compute in (lambda: estimate_holder(program, emp.scenarios.data, 0),
                    lambda: sigma_breve(emp, 0, np.array([0.5]))):
        with pytest.raises(BudgetError) as err:
            compute()
        assert err.value.details == {"integrand": 0}


@pytest.mark.parametrize("theorem,required", [
    ("fixed", ["sigma0_hat_X", "sigma0_breve_z", "sigma0_breve_x_star"]),
    ("exterior", ["sigmaI_hat_Y", "sigmaI_breve_z", "sigmaI_breve_x_star",
                  "sigma0_breve_x_star"]),
    ("interior", ["sigmaI_breve_y", "sigmaI_breve_z", "sigmaI_breve_y_star",
                  "sigma0_hat_X", "sigma0_breve_y_star"]),
])
def test_variance_profile_entries(theorem, required):
    if theorem == "fixed":
        program = make_family("quad1d", a=0.3)
        h = 0.02
    elif theorem == "exterior":
        program = make_family("ball2d")
        h = 0.1
    else:
        program = make_family("halfspace_box", objective="interior")
        h = 0.1
    emp = build_empirical(
        program, ScenarioSet.from_sampler(program.oracle.sampler, 150, seed=2),
        np.full(program.n_constraints, 0.0))
    profile = variance_profile(program, emp, theorem, eps=0.1, h=h,
                               c=1.0 if theorem == "exterior" else None)
    for key in required:
        assert profile.get(key) >= 0.0
    assert profile.theorem == theorem
    assert profile.anchors


def test_variance_profile_nonnegative_and_finite():
    program = make_family("quad1d", a=0.5)
    emp = build_empirical(
        program, ScenarioSet.from_sampler(program.oracle.sampler, 100, seed=9))
    profile = variance_profile(program, emp, "fixed", eps=0.1, h=0.02)
    for name, value in profile.entries.items():
        assert np.isfinite(value) and value >= 0.0, name


@pytest.mark.parametrize("theorem, family, params, convex", [
    ("fixed", "quad1d", {"a": 0.3}, False),
    ("exterior", "ball2d", {}, True),
    ("exterior", "ball2d", {}, False),
    ("interior", "halfspace_box", {"objective": "interior"}, True),
])
def test_variance_profile_computes_the_guarantee_entries(theorem, family,
                                                         params, convex):
    program = make_family(family, **params)
    program.convex = convex
    program.oracle.mc_budget = 500
    emp = build_empirical(
        program, ScenarioSet.from_sampler(program.oracle.sampler, 60, seed=3),
        np.zeros(program.n_constraints))
    profile = variance_profile(program, emp, theorem, eps=0.1, h=0.2,
                               c=1.0 if theorem == "exterior" else None)
    expected = set(components_for(theorem, "all"))
    if theorem == "exterior" and convex:
        expected |= set(components_for(theorem, "all", localized=True))
    assert set(profile.entries) == expected
    assert set(profile.provenance) == expected


@pytest.mark.parametrize("anchors", [{}, {"y": [0.0, 0.0]},
                                     {"y_star": [0.0, 0.0]}])
def test_interior_profile_without_inner_points_needs_anchors(anchors):
    program = make_family("ball2d")
    program.oracle.mc_budget = 500
    emp = build_empirical(
        program, ScenarioSet.from_sampler(program.oracle.sampler, 60, seed=3),
        np.zeros(1))
    with pytest.raises(EmptySampleError):
        variance_profile(program, emp, "interior", eps=0.45, h=0.2,
                         anchors=anchors)
    both = {"y": np.zeros(2), "y_star": np.zeros(2)}
    profile = variance_profile(program, emp, "interior", eps=0.45, h=0.2,
                               anchors=both)
    assert profile.details["inner_grid_points"] == 0


def _ball2d_case():
    program = make_family("ball2d")
    program.oracle.mc_budget = 500
    emp = build_empirical(
        program, ScenarioSet.from_sampler(program.oracle.sampler, 60, seed=3),
        np.zeros(1))
    return program, emp


def test_exterior_profile_inflates_the_feasible_set():
    program, emp = _ball2d_case()
    det = variance_profile(program, emp, "exterior", eps=0.05, h=0.05,
                           c=1.0).details
    assert det["exterior_grid_points"] > det["feasible_grid_points"]


def test_exterior_profile_needs_positive_c():
    program, emp = _ball2d_case()
    for c in (0.0, -1.0):
        with pytest.raises(ConfigError, match="regularity"):
            variance_profile(program, emp, "exterior", eps=0.05, h=0.1, c=c)


@pytest.mark.parametrize("case", ["unknown-theorem", "exterior-without-c",
                                  "product-diameter-l2", "empty-reference-set"])
def test_library_input_errors_are_config_errors(case):
    """Bad arguments to the library raise ConfigError, as the CLI reports
    them, not a bare ValueError."""
    box = SpaceDescriptor.interval(0.0, 1.0)
    calls = {
        "unknown-theorem": lambda: variance_profile(*_ball2d_case(), "bogus",
                                                    eps=0.05, h=0.1),
        "exterior-without-c": lambda: variance_profile(*_ball2d_case(),
                                                       "exterior", eps=0.05,
                                                       h=0.1),
        "product-diameter-l2": lambda: SpaceDescriptor.product(
            box, box).diameter("l2"),
        "empty-reference-set": lambda: set_deviation(np.zeros((1, 1)),
                                                     np.zeros((0, 1))),
    }
    with pytest.raises(ConfigError):
        calls[case]()


def test_exterior_profile_evaluates_one_constraint_table(monkeypatch):
    """Feasible, exterior, active sets and the z and y anchors all read one
    population constraint table: constraint 1 is evaluated once, on the
    whole 41 x 41 grid."""
    program, emp = _ball2d_case()
    calls = []
    true_fn_grid = StochasticProgram.true_fn_grid

    def counted(self, i, points):
        calls.append((i, len(np.atleast_2d(points))))
        return true_fn_grid(self, i, points)

    monkeypatch.setattr(StochasticProgram, "true_fn_grid", counted)
    profile = variance_profile(program, emp, "exterior", eps=0.1, h=0.05, c=1.0)
    assert profile.details["grid_points"] == 1681
    assert "sigmaI_hat_active" in profile.entries  # ball2d is convex
    assert [call for call in calls if call[0] == 1] == [(1, 1681)]


# ---------------------------------------------------------------------------
# declared per-scenario moduli


def _declared_case(draw, variant):
    """A program of the variant, scenarios and a probe-grid step."""
    noise = st.floats(0.0, 5.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))

    def scenarios(k):
        return rng.standard_t(3, size=(16, k)) * scale

    if variant == "portfolio":
        xis = scenarios(draw(st.integers(2, 3)))
        program = build_portfolio(ReturnsDataset(xis), p=draw(st.floats(0.05, 1.0)),
                                  beta=draw(st.floats(-1.0, 1.0))).program
        return program, xis, program.space.diameter() / draw(
            st.sampled_from([2, 4, 8, 16]))
    if variant == "lasso":
        xis = scenarios(draw(st.integers(1, 3)) + 1)
        radius = draw(st.floats(0.1, 3.0))
        program = build_lasso(xis[:, :-1], xis[:, -1], radius).program
        return program, xis, radius * draw(st.sampled_from([1.0, 0.5, 0.25, 0.2]))
    if variant == "quad1d":
        program = make_family("quad1d", a=draw(st.floats(-2.0, 3.0)),
                              noise=draw(noise))
        steps = [0.5, 0.1, 0.01, 0.002]
    elif variant == "linear_simplex":
        dim = draw(st.integers(1, 4))
        offsets = draw(st.lists(st.floats(-10.0, 10.0), min_size=dim,
                                max_size=dim))
        program = make_family("linear_simplex", dim=dim, offsets=offsets)
        steps = [0.5, 0.25, 0.1]
    elif variant == "ball2d":
        program = make_family("ball2d", radius=draw(st.floats(0.05, 1.5)),
                              noise=draw(noise), obj_noise=draw(noise))
        steps = [0.5, 0.2, 0.125, 0.1]
    else:
        program = make_family("halfspace_box", level=draw(st.floats(0.1, 2.5)),
                              noise=draw(noise), obj_noise=draw(noise),
                              objective=variant.split(":")[1])
        steps = [0.5, 0.2, 0.125, 0.1]
    k = program.oracle.sampler(np.random.default_rng(0), 1).shape[1]
    return program, scenarios(k), draw(st.sampled_from(steps))


@pytest.mark.parametrize("variant", ["quad1d", "linear_simplex", "ball2d",
                                     "halfspace_box:corner",
                                     "halfspace_box:interior", "portfolio",
                                     "lasso"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_declared_modulus_bounds_every_secant_ratio(variant, data):
    """L(xi) >= every realised secant ratio, up to MODULUS_RTOL of rounding:
    of F for a declared modulus, and of G(x, xi) = F(x, xi) - F(x, c), c the
    noise mean or 0, for the one derived from a NoiseAffine integrand, at
    Holder exponent 1 or 1/2."""
    program, xis, step = _declared_case(data.draw, variant)
    probes = program.space.grid(step)
    norm = program.space.norm
    delta = min_pairwise_gap(probes, norm)
    c = getattr(program.oracle, "noise_mean", None)
    c = np.zeros((1, xis.shape[1])) if c is None else np.atleast_2d(c)
    alpha = data.draw(st.sampled_from([1.0, 0.5]))
    for i, info in enumerate(program.holder):
        fn = program.integrand(i)
        assert (info.modulus is None) == isinstance(fn, NoiseAffine)
        shift = np.zeros((len(probes), 1))
        if info.modulus is None:
            info = program.holder[i] = HolderInfo(alpha)
            shift = np.stack([fn(x, c) for x in probes])
        vals = np.stack([fn(x, xis) for x in probes])
        realised = _max_ratio(probes, vals - shift, info.alpha, norm)
        modulus = per_scenario_modulus(program, i, xis)
        size = np.maximum(np.abs(vals), np.abs(shift)).max(axis=0)
        scale = np.maximum(modulus, size / delta ** info.alpha)
        assert modulus.shape == (len(xis),)
        assert np.all(realised <= modulus + MODULUS_RTOL * scale)


def test_holder_provenance_says_what_was_computed():
    """declared-monte-carlo or plug-in for the population modulus."""
    def provenance(program, i=0):
        scen = ScenarioSet.from_sampler(program.oracle.sampler, 30, seed=4)
        return estimate_holder(program, scen.data, i).pop_provenance

    ball = make_family("ball2d")
    ball.oracle.mc_budget = 500
    assert provenance(ball, 0) == "declared-monte-carlo"
    assert provenance(ball, 1) == "declared-monte-carlo"
    quad = make_family("quad1d")
    quad.oracle.mc_budget = 500
    assert provenance(quad) == "declared-monte-carlo"
    plain = estimate_holder(linear_noise_program(), np.array([[1.0], [-3.0]]), 0)
    assert plain.pop_provenance == "plug-in"
    assert plain.l_pop == plain.l_hat


def test_undeclared_modulus_raises_where_sigma_hat_is_needed():
    """No modulus declared and none to derive: every path that needs L(xi)
    raises ConfigError naming the integrand and the program.  A NoiseAffine
    integrand without a declared modulus derives one."""
    program = make_family("quad1d", a=0.4)
    derived = per_scenario_modulus(program, 0, np.array([[0.5], [-2.0]]))
    assert program.holder[0].modulus is None and np.all(derived > 0)
    affine = program.objective
    program.objective = lambda x, xis: affine(x, xis)   # a plain integrand
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 20, seed=1)
    emp = build_empirical(program, scen, np.zeros(0))
    calls = {
        "per_scenario_modulus": lambda: per_scenario_modulus(program, 0, scen.data),
        "estimate_holder": lambda: estimate_holder(program, scen.data, 0),
        "variance_profile": lambda: variance_profile(program, emp, "fixed",
                                                     eps=0.1, h=0.1),
        "uniform_tail_experiment": lambda: uniform_tail_experiment(
            program, 20, [0.5], 2, 1.0, seed=3, h=0.25),
    }
    for name, call in calls.items():
        with pytest.raises(ConfigError) as err:
            call()
        assert err.value.details == {"integrand": 0, "program": program.name}, name


def test_declared_modulus_builds_no_probe_grid(monkeypatch):
    """A derived modulus never meets a probe: l_pop is its RMS over the
    program's cached population draws, and each scenario's value is
    |s (xi - mu)| on quad1d's interval."""
    program = make_family("quad1d")
    program.oracle.mc_budget = 300
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 30, seed=4)

    def no_grid(*args, **kwargs):
        raise AssertionError("probe grid built for a derived modulus")

    monkeypatch.setattr(program.space, "grid", no_grid)
    est = estimate_holder(program, scen.data, 0)
    s, mu = program.objective.B[0, 0], program.oracle.noise_mean[0]
    expect = np.abs((program._mc_draws.data[:, 0] - mu) * s)
    assert len(expect) == 300
    assert est.l_pop == float(np.sqrt(np.mean(expect ** 2)))
    assert np.array_equal(est.per_scenario, np.abs((scen.data[:, 0] - mu) * s))
