"""Built-in problem families: closed-form oracles vs Monte Carlo."""

import numpy as np
import pytest

from saacert.distributions import make_distribution
from saacert.errors import ConfigError
from saacert.families import FAMILIES, make_family


@pytest.mark.parametrize("name", ["gaussian", "uniform", "t3", "lognormal",
                                  "pareto"])
def test_distribution_moments(name):
    dist = make_distribution(name)
    rng = np.random.default_rng(99)
    draws = dist.sample(rng, 400_000)
    assert np.mean(draws) == pytest.approx(dist.mean, abs=0.05)
    assert np.var(draws) == pytest.approx(dist.var, rel=0.15)


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
    program = make_family("quad1d", a=0.4, noise=0.0)
    x_star = program.oracle.x_star
    grid = program.space.grid(0.001)
    vals = program.true_fn_grid(0, grid)
    assert program.true_fn(0, x_star) <= vals.min() + 1e-9


def test_ball2d_geometry():
    program = make_family("ball2d", radius=0.6)
    oracle = program.oracle
    assert oracle.f_star == pytest.approx(-np.sqrt(2) * 0.6)
    assert oracle.slater_margin == pytest.approx(0.6)
    assert oracle.regularity_c == pytest.approx(1.0)
    # the declared minimizer is feasible and attains f_star
    assert program.true_fn(1, oracle.x_star) <= 1e-9
    assert program.true_fn(0, oracle.x_star) == pytest.approx(oracle.f_star)


def test_ball2d_requires_centered_noise():
    with pytest.raises(ConfigError):
        make_family("ball2d", dist="pareto")


def test_halfspace_corner_attains_boundary():
    program = make_family("halfspace_box", objective="corner", level=1.2)
    oracle = program.oracle
    assert oracle.f_star == pytest.approx(-1.2)
    assert program.true_fn(1, oracle.x_star) == pytest.approx(0.0, abs=1e-12)


def test_linear_simplex_vertex_optimum():
    program = make_family("linear_simplex", dim=3)
    x_star = program.oracle.x_star
    # a vertex: one coordinate 1, rest 0
    assert sorted(x_star) == pytest.approx([0.0, 0.0, 1.0])
    f_star = program.oracle.f_star
    for v in np.eye(3):
        assert f_star <= program.true_fn(0, v) + 1e-12


def test_make_family_rejects_unknown():
    with pytest.raises(ConfigError):
        make_family("no-such-family")


@pytest.mark.parametrize("factory, name", [(make_family, "quad1d"),
                                           (make_distribution, "t3")])
def test_factories_reject_unknown_params(factory, name):
    """An unexpected keyword is a ConfigError naming the factory's entry."""
    with pytest.raises(ConfigError, match="bogus"):
        factory(name, bogus=1)
