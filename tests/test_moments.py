"""Holder moduli, pointwise/uniform variance aggregates, self-normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saacert.apps import ReturnsDataset, _returns_sampler, build_portfolio
from saacert.certify import components_for
from saacert.errors import ConfigError, EmptySampleError
from saacert.families import make_family
from saacert.geometry import SpaceDescriptor, min_pairwise_gap
from saacert.moments import (_max_ratio, estimate_holder,
                             panchenko_vhat_singleton, per_scenario_modulus,
                             self_normalized, sigma_breve, sigma_hat_sq,
                             sigma_pop_sq, variance_profile)
from saacert.problem import (MC_SEED, MODULUS_RTOL, HolderInfo, ScenarioSet,
                             StochasticProgram, build_empirical)


def linear_noise_program():
    """F(x, xi) = xi * x on [0, 1]: per-scenario modulus is exactly |xi|."""
    def f0(x, xis):
        return xis[:, 0] * x[0]

    return StochasticProgram(
        objective=f0, constraints=[],
        space=SpaceDescriptor.interval(0.0, 1.0),
        holder=[HolderInfo(1.0)], name="linear-noise")


def test_per_scenario_modulus_linear():
    program = linear_noise_program()
    scen = ScenarioSet([[1.0], [-3.0]])
    probes = np.array([[0.0], [0.5], [1.0]])
    mods = per_scenario_modulus(program, 0, scen.data, probes)
    assert np.allclose(mods, [1.0, 3.0])


def test_estimate_holder_rms():
    program = linear_noise_program()
    scen = ScenarioSet([[1.0], [-3.0]])
    est = estimate_holder(program, scen.data, 0,
                          probes=np.array([[0.0], [1.0]]))
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


def test_panchenko_singleton_closed_form():
    vals = np.array([1.0, -1.0, 3.0])
    pop_mean, pop_var = 0.5, 2.0
    expected = 3 * (np.mean((vals - pop_mean) ** 2) + pop_var)
    assert panchenko_vhat_singleton(vals, pop_mean, pop_var) == pytest.approx(
        expected, rel=1e-12)


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
        s_pop = math.sqrt(max(sigma_pop_sq(program, 0, x), 0.0))
        s_breve = sigma_breve(emp, 0, x)
        assert s_breve >= max(s_hat, s_pop) / math.sqrt(2) - 1e-9
        assert s_breve <= s_hat + s_pop + 1e-9


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
    """A family program of the variant, scenarios and a probe-grid step."""
    noise = st.floats(0.0, 5.0)
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
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xis = rng.standard_t(3, size=(16, k)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    return program, xis, draw(st.sampled_from(steps))


@pytest.mark.parametrize("variant", ["quad1d", "linear_simplex", "ball2d",
                                     "halfspace_box:corner",
                                     "halfspace_box:interior"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_declared_modulus_bounds_every_secant_ratio(variant, data):
    """L(xi) >= every realised secant ratio, up to MODULUS_RTOL of rounding."""
    program, xis, step = _declared_case(data.draw, variant)
    probes = program.space.grid(step)
    norm = program.space.norm
    delta = min_pairwise_gap(probes, norm)
    for i, info in enumerate(program.holder):
        assert info.modulus is not None
        vals = np.stack([program.integrand(i)(x, xis) for x in probes])
        realised = _max_ratio(probes, vals, info.alpha, norm)
        declared = per_scenario_modulus(program, i, xis, None)
        scale = np.maximum(declared, np.abs(vals).max(axis=0) / delta)
        assert declared.shape == (len(xis),)
        assert np.all(realised <= declared + MODULUS_RTOL * scale)


def test_holder_provenance_says_what_was_computed():
    """declared / probe-grid per scenario; closed-form, declared-monte-carlo,
    monte-carlo or plug-in for the population modulus."""
    def provenance(program, i=0):
        scen = ScenarioSet.from_sampler(program.oracle.sampler, 30, seed=4)
        est = estimate_holder(program, scen.data, i)
        return est.provenance, est.pop_provenance

    ball = make_family("ball2d")
    ball.oracle.mc_budget = 500
    assert provenance(ball, 0) == ("declared", "closed-form")
    assert provenance(ball, 1) == ("declared", "declared-monte-carlo")
    quad = make_family("quad1d")
    quad.oracle.mc_budget = 500
    assert provenance(quad) == ("declared", "declared-monte-carlo")
    ds = ReturnsDataset.synthetic(2, 50, seed=5)
    portfolio = build_portfolio(ds, p=0.2, beta=0.05,
                                sampler=_returns_sampler(2)[1])
    portfolio.program.oracle.mc_budget = 200
    assert provenance(portfolio.program, 1) == ("probe-grid", "monte-carlo")
    plain = estimate_holder(linear_noise_program(), np.array([[1.0], [-3.0]]), 0)
    assert (plain.provenance, plain.pop_provenance) == ("probe-grid", "plug-in")
    assert plain.l_pop == plain.l_hat


def test_probe_grid_refinement_monotone_without_declared_modulus():
    """The probe-grid fallback: more probe points never lower the ratio."""
    program = make_family("quad1d", a=0.4)
    program.holder = [HolderInfo(1.0)]
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 50, seed=1)
    coarse = per_scenario_modulus(program, 0, scen.data,
                                  np.linspace(0, 1, 3)[:, None])
    fine = per_scenario_modulus(program, 0, scen.data,
                                np.linspace(0, 1, 9)[:, None])
    assert np.all(fine >= coarse)
    assert np.all(fine <= make_family("quad1d", a=0.4).holder[0].modulus(
        scen.data) * (1 + MODULUS_RTOL))


def test_declared_modulus_builds_no_probe_grid(monkeypatch):
    """With a declared modulus the population draws never meet a probe."""
    program = make_family("quad1d")
    program.oracle.mc_budget = 300
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 30, seed=4)

    def no_grid(*args, **kwargs):
        raise AssertionError("probe grid built for a declared modulus")

    monkeypatch.setattr(program.space, "grid", no_grid)
    est = estimate_holder(program, scen.data, 0)
    draws = program.oracle.sampler(
        np.random.default_rng(MC_SEED + 7), 300)
    expect = program.holder[0].modulus(draws)
    assert est.l_pop == float(np.sqrt(np.mean(expect ** 2)))
    assert np.array_equal(est.per_scenario, program.holder[0].modulus(scen.data))
