"""Built-in problem families: noise-affine integrands, their moments vs
closed forms and Monte Carlo."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saacert.apps import (ReturnsDataset, build_lasso, build_portfolio,
                          lasso_scenarios)
from saacert.distributions import make_distribution
from saacert.errors import ConfigError
from saacert.families import FAMILIES, make_family
from saacert.problem import NoiseAffine, ScenarioSet, build_empirical


@pytest.mark.parametrize("name", ["gaussian", "uniform", "t3", "lognormal",
                                  "pareto"])
def test_distribution_moments(name):
    dist = make_distribution(name)
    rng = np.random.default_rng(99)
    draws = dist.sample(rng, 400_000)
    assert np.mean(draws) == pytest.approx(dist.mean, abs=0.05)
    assert np.var(draws) == pytest.approx(dist.var, rel=0.15)


@pytest.mark.parametrize("name, params", [
    ("gaussian", {"sd": math.nan}), ("gaussian", {"mu": math.inf})])
def test_distribution_moments_must_be_finite(name, params):
    """A library caller's non-finite params give a ConfigError, not a NaN
    bound (the CLI rejects such numbers when it reads its JSON)."""
    with pytest.raises(ConfigError):
        make_distribution(name, **params)


def test_distribution_sampler_shape():
    dist = make_distribution("t3")
    draws = dist.sampler(k=2)(np.random.default_rng(0), 7)
    assert draws.shape == (7, 2)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_oracle_matches_monte_carlo(name):
    """Closed-form means agree with a direct sample average."""
    program = make_family(name)
    rng = np.random.default_rng(7)
    xis = program.oracle.sampler(rng, 200_000)
    grid = program.space.grid(max(program.space.diameter() / 4, 0.1))
    for i in range(program.n_constraints + 1):
        fn = program.integrand(i)
        for x in grid[:3]:
            mc = float(np.mean(fn(x, xis)))
            assert program.true_fn(i, x) == pytest.approx(mc, abs=0.03), \
                (name, i, x)


def test_quad1d_minimizer():
    """Without noise f(x) = (x - a)^2 is least at x = a."""
    program = make_family("quad1d", a=0.4, noise=0.0)
    grid = program.space.grid(0.001)
    vals = program.true_fn_grid(0, grid)
    assert program.true_fn(0, [0.4]) <= vals.min() + 1e-9


def test_ball2d_geometry():
    program = make_family("ball2d", radius=0.6)
    oracle = program.oracle
    assert oracle.slater_margin == pytest.approx(0.6)
    assert oracle.regularity_c == pytest.approx(1.0)
    # x1 + x2 is least on the ball at x* = -(0.6 / sqrt 2)(1, 1); the grid
    # minimum over the feasible grid (step 0.01) lies within 0.02 above it
    f_star, x_star = -np.sqrt(2) * 0.6, np.full(2, -0.6 / np.sqrt(2))
    assert program.true_fn(1, x_star) <= 1e-9
    assert program.true_fn(0, x_star) == pytest.approx(f_star)
    grid = program.space.grid(0.01)
    feas = grid[program.true_fn_grid(1, grid) <= 0.0]
    assert f_star - 1e-9 <= program.true_fn_grid(0, feas).min() <= f_star + 0.02


def test_ball2d_requires_centered_noise():
    with pytest.raises(ConfigError):
        make_family("ball2d", dist="pareto")


def test_halfspace_corner_attains_boundary():
    program = make_family("halfspace_box", objective="corner", level=1.2)
    # -x1 - x2 is least, at -1.2, on the boundary x1 + x2 = 1.2
    x_star = np.array([0.6, 0.6])
    assert program.true_fn(1, x_star) == pytest.approx(0.0, abs=1e-12)
    assert program.true_fn(0, x_star) == pytest.approx(-1.2)
    grid = program.space.grid(0.1)
    feas = grid[program.true_fn_grid(1, grid) <= 1e-12]
    assert program.true_fn_grid(0, feas).min() == pytest.approx(-1.2)


def test_linear_simplex_vertex_optimum():
    program = make_family("linear_simplex", dim=3, offsets=[0.2, -0.1, 0.3])
    # xi_bar^T x is least at the vertex of the smallest mean coordinate
    means = program.oracle.noise_mean
    j = int(np.argmin(means))
    f_star = program.true_fn(0, np.eye(3)[j])
    assert f_star == pytest.approx(means[j])
    for v in np.eye(3):
        assert f_star <= program.true_fn(0, v) + 1e-12
    grid = program.space.grid(0.25)
    assert program.true_fn_grid(0, grid).min() == pytest.approx(f_star)


def test_make_family_rejects_unknown():
    with pytest.raises(ConfigError):
        make_family("no-such-family")


@pytest.mark.parametrize("factory, name", [(make_family, "quad1d"),
                                           (make_distribution, "t3")])
def test_factories_reject_unknown_params(factory, name):
    """An unexpected keyword is a ConfigError naming the factory's entry."""
    with pytest.raises(ConfigError, match="bogus"):
        factory(name, bogus=1)


def _grid_means_case(draw, variant):
    """A program of the variant, scenario rows and a grid step."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))
    noise = st.floats(0.0, 5.0)
    if variant == "portfolio":
        data = ReturnsDataset.synthetic(draw(st.integers(1, 4)), n,
                                        seed=draw(st.integers(0, 99)))
        program = build_portfolio(data, p=draw(st.floats(0.05, 1.0)),
                                  beta=draw(st.floats(-0.5, 0.5))).program
        return program, data.returns, 0.25
    if variant == "lasso-weighted":
        d = draw(st.integers(1, 4))
        features = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 2, d)
        response = rng.normal(size=n) * 10.0 ** draw(st.floats(-2.0, 2.0))
        radius = draw(st.floats(0.1, 10.0))
        program = build_lasso(features, response, radius, weighted=True).program
        data = lasso_scenarios(features, response, weighted=True).data
        return program, data, radius / 4
    if variant == "quad1d":
        program = make_family("quad1d", a=draw(st.floats(-2.0, 3.0)),
                              noise=draw(noise))
    elif variant == "linear_simplex":
        program = make_family("linear_simplex", dim=draw(st.integers(1, 4)))
    elif variant == "ball2d":
        program = make_family("ball2d", radius=draw(st.floats(0.05, 1.5)),
                              noise=draw(noise), obj_noise=draw(noise))
    else:
        program = make_family("halfspace_box", level=draw(st.floats(0.1, 2.5)),
                              noise=draw(noise), obj_noise=draw(noise),
                              objective=variant.split(":")[1])
    data = program.oracle.sampler(rng, n) * 10.0 ** draw(st.floats(-3.0, 3.0))
    return program, np.atleast_2d(data), 0.125


@pytest.mark.parametrize("variant", ["quad1d", "linear_simplex", "ball2d",
                                     "halfspace_box:corner",
                                     "halfspace_box:interior", "portfolio",
                                     "lasso-weighted"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fast_means_agree_with_integrand(variant, data):
    """Each grid mean is the scenario average of its integrand at the point:
    bit for bit where the mean goes point by point (the portfolio CVaR
    constraint and lasso), and within a few ulps of the values' scale for a
    noise-affine integrand, whose mean is its form at the sample mean of xi
    (the families and the portfolio objective)."""
    program, xis, step = _grid_means_case(data.draw, variant)
    grid = program.space.grid(step)
    picks = data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=1,
                               max_size=8))
    pts = grid[picks]
    emp = build_empirical(program, ScenarioSet(xis))
    for i in range(program.n_constraints + 1):
        affine = isinstance(program.integrand(i), NoiseAffine)
        means = emp.fhat_grid(i, pts)
        for x, mean in zip(pts, means):
            vals = program.integrand(i)(x, xis)
            if affine:
                scale = max(1.0, float(np.abs(vals).max())) * np.finfo(float).eps
                assert abs(mean - vals.mean()) <= 16 * scale, (variant, i, x)
            else:
                assert mean == vals.mean(), (variant, i, x)


def _closed_forms(variant, draw):
    """A family program and its population means and variances written out
    by hand: (program, [x -> f_i(x)], [x -> Var F_i(x, .)])."""
    noise = st.floats(0.0, 5.0)
    if variant == "quad1d":
        a, s = draw(st.floats(-2.0, 3.0)), draw(noise)
        dist = draw(st.sampled_from(["t3", "lognormal", "uniform"]))
        d = make_distribution(dist)
        return (make_family("quad1d", a=a, noise=s, dist=dist),
                [lambda x: (x[0] - a) ** 2 + s * d.mean * x[0]],
                [lambda x: s ** 2 * x[0] ** 2 * d.var])
    if variant == "linear_simplex":
        dim = draw(st.integers(1, 4))
        offsets = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=dim,
                                         max_size=dim)))
        d = make_distribution("t3")
        return (make_family("linear_simplex", dim=dim, offsets=offsets),
                [lambda x: float((offsets + d.mean) @ x)],
                [lambda x: d.var * float(np.sum(x ** 2))])
    var = make_distribution("t3").var
    s1, s0 = draw(noise), draw(noise)
    if variant == "ball2d":
        rho = draw(st.floats(0.05, 1.5))
        return (make_family("ball2d", radius=rho, noise=s1, obj_noise=s0),
                [lambda x: x[0] + x[1],
                 lambda x: math.hypot(x[0], x[1]) - rho],
                [lambda x: s0 ** 2 * x[1] ** 2 * var,
                 lambda x: s1 ** 2 * x[0] ** 2 * var])
    b, objective = draw(st.floats(0.1, 2.5)), variant.split(":")[1]
    program = make_family("halfspace_box", level=b, noise=s1, obj_noise=s0,
                          objective=objective)
    if objective == "corner":
        true0, var0 = (lambda x: -x[0] - x[1],
                       lambda x: s0 ** 2 * x[1] ** 2 * var)
    else:
        true0 = lambda x: (x[0] - 0.3) ** 2 + (x[1] - 0.3) ** 2
        var0 = lambda x: s0 ** 2 * (x[0] + x[1]) ** 2 * var
    return (program, [true0, lambda x: x[0] + x[1] - b],
            [var0, lambda x: s1 ** 2 * x[0] ** 2 * var])


@pytest.mark.parametrize("variant", ["quad1d", "linear_simplex", "ball2d",
                                     "halfspace_box:corner",
                                     "halfspace_box:interior"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_population_moments_follow_from_the_noise_form(variant, data):
    """``true_fn_grid``, ``true_fn`` and ``true_variance`` of each family,
    derived from its noise-affine integrands and noise moments, equal the
    closed forms the families used to write by hand, centred noise or not."""
    program, means, variances = _closed_forms(variant, data.draw)
    grid = program.space.grid(0.125)
    picks = data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=1,
                               max_size=8))
    pts = grid[picks]
    for i in range(program.n_constraints + 1):
        for x, value in zip(pts, program.true_fn_grid(i, pts)):
            want = means[i](x)
            scale = max(1.0, abs(want))
            assert abs(value - want) <= 1e-12 * scale, (variant, i, x)
            assert abs(program.true_fn(i, x) - want) <= 1e-12 * scale
            want = variances[i](x)
            assert abs(program.true_variance(i, x) - want) <= \
                1e-12 * max(1.0, want), (variant, i, x)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_families_declare_each_integrand_once(name):
    """Every family integrand is a NoiseAffine form, the single source of its
    sample means and population moments: no family writes closed-form
    ``oracle.fns`` or variance functions beside it."""
    programs = ([make_family(name, objective=o) for o in ("corner", "interior")]
                if name == "halfspace_box" else [make_family(name)])
    for program in programs:
        for i in range(program.n_constraints + 1):
            assert isinstance(program.integrand(i), NoiseAffine), (name, i)
        assert program.oracle.fns is None
        assert not hasattr(program.oracle, "variance_fns")
        assert program.oracle.noise_mean is not None
        assert program.oracle.noise_var is not None
