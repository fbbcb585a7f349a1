"""Holder moduli, pointwise/uniform variance aggregates, self-normalization."""

import math

import numpy as np
import pytest

from saacert.certify import components_for
from saacert.errors import EmptySampleError
from saacert.families import make_family
from saacert.geometry import SpaceDescriptor
from saacert.moments import (estimate_holder, panchenko_vhat_singleton,
                             per_scenario_modulus, self_normalized,
                             sigma_breve, sigma_hat_sq, sigma_pop_sq,
                             variance_profile)
from saacert.problem import (HolderInfo, ScenarioSet, StochasticProgram,
                             build_empirical)


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


def test_holder_refinement_monotone():
    """More probe points can only increase the observed modulus."""
    program = make_family("quad1d", a=0.4)
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 50, seed=1)
    coarse = np.linspace(0, 1, 3)[:, None]
    fine = np.linspace(0, 1, 9)[:, None]
    m_coarse = per_scenario_modulus(program, 0, scen.data, coarse)
    m_fine = per_scenario_modulus(program, 0, scen.data, fine)
    assert np.all(m_fine >= m_coarse - 1e-12)


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
