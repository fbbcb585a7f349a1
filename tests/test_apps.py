"""CVaR, the portfolio reformulation, and l1-ball regression."""

import numpy as np
import pytest

from saacert.apps import (ReturnsDataset, build_lasso, build_portfolio, cvar,
                          lasso_scenarios)
from saacert.errors import ConfigError, DegenerateFeatureError
from saacert.problem import ScenarioSet, build_empirical
from saacert.solve import SolverConfig, solve


def test_cvar_order_statistic_example():
    assert cvar([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(3.5)


def test_cvar_full_mass_is_mean():
    losses = np.array([3.0, -1.0, 2.0, 0.0])
    assert cvar(losses, 1.0) == pytest.approx(losses.mean())


def test_cvar_tiny_level_is_max():
    losses = np.array([1.0, 5.0, 2.0])
    assert cvar(losses, 1e-9) == pytest.approx(5.0)


def test_cvar_matches_scan_over_sample_points():
    """The closed form equals the exhaustive scan over candidate cuts."""
    rng = np.random.default_rng(42)
    losses = rng.standard_t(3, size=100)
    for p in (0.05, 0.1, 0.25, 0.5, 0.9):
        scan = min(t + np.mean(np.maximum(losses - t, 0.0)) / p
                   for t in losses)
        assert cvar(losses, p) == pytest.approx(scan, abs=1e-6)


def test_cvar_translation_and_homogeneity():
    rng = np.random.default_rng(17)
    losses = rng.normal(size=200)
    base = cvar(losses, 0.2)
    assert cvar(losses + 3.0, 0.2) == pytest.approx(base + 3.0, abs=1e-12)
    assert cvar(2.5 * losses, 0.2) == pytest.approx(2.5 * base, abs=1e-12)


def test_cvar_monotone_in_level_and_dominates_mean():
    rng = np.random.default_rng(23)
    losses = rng.lognormal(size=300)
    values = [cvar(losses, p) for p in (0.05, 0.1, 0.2, 0.5, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] >= losses.mean() - 1e-12


def test_cvar_rejects_bad_level():
    with pytest.raises(ConfigError):
        cvar([1.0, 2.0], 0.0)


def test_returns_dataset_csv_round_trip(tmp_path):
    ds = ReturnsDataset.synthetic(3, 50, seed=4)
    path = tmp_path / "returns.csv"
    np.savetxt(path, ds.returns, delimiter=",", header="xi_1,xi_2,xi_3",
               comments="")
    back = ReturnsDataset.from_csv(path)
    assert np.allclose(back.returns, ds.returns)
    assert back.assets == 3


def test_returns_dataset_keeps_ticker_names(tmp_path):
    path = tmp_path / "tickers.csv"
    path.write_text("AAPL,MSFT\n0.01,0.02\n-0.03,0.01\n0.02,-0.01\n")
    ds = ReturnsDataset.from_csv(path)
    assert ds.names == ["AAPL", "MSFT"]
    assert ds.n == 3 and ds.assets == 2


def test_portfolio_reformulation_equivalence():
    """Minimizing the auxiliary cut variable recovers the CVaR constraint."""
    ds = ReturnsDataset.synthetic(2, 150, seed=9)
    p, beta = 0.2, 0.05
    problem = build_portfolio(ds, p, beta)
    x = np.array([0.3, 0.7])
    losses = -(ds.returns @ x)
    fn = problem.program.integrand(1)
    # the inner minimum over the cut variable is attained at a sample point
    refo = np.array([float(np.mean(fn(np.append(x, t), ds.returns)))
                     for t in losses])
    assert refo.min() == pytest.approx(cvar(losses, p) - beta, abs=1e-9)
    grid = np.linspace(problem.t_bounds[0], problem.t_bounds[1], 101)
    coarse = min(float(np.mean(fn(np.append(x, t), ds.returns)))
                 for t in grid)
    assert coarse >= refo.min() - 1e-12


def test_portfolio_solution_satisfies_budget():
    ds = ReturnsDataset.synthetic(2, 200, seed=3)
    p, beta = 0.2, 0.05
    problem = build_portfolio(ds, p, beta)
    emp = build_empirical(problem.program, ScenarioSet(ds.returns),
                          np.zeros(1))
    res = solve(emp, SolverConfig(method="grid", grid_h=0.02))
    weights, _ = problem.split(res.x)
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert cvar(-(ds.returns @ weights), p) <= beta + 1e-9


def test_declared_gradients_match_finite_differences():
    """Every declared ``gradients`` entry averages to the central finite
    difference of its integrand's sample mean (portfolio: inactive and
    partly active hinge; lasso: weighted features)."""
    ds = ReturnsDataset.synthetic(2, 60, seed=13)
    rng = np.random.default_rng(17)
    X = rng.normal(size=(80, 3)) * np.array([1.0, 3.0, 0.5])
    y = X @ np.array([0.5, -0.2, 1.0]) + rng.normal(size=80)
    cases = [(build_portfolio(ds, 0.25, 0.05).program, ds.returns,
              [[0.4, 0.6, 0.2], [0.7, 0.3, -0.02]]),
             (build_lasso(X, y, 2.0, weighted=True).program,
              lasso_scenarios(X, y, weighted=True).data,
              [[0.3, -0.5, 0.2], [0.0, 0.0, 0.0]])]
    for program, xis, points in cases:
        assert len(program.gradients) == program.n_constraints + 1
        for i, grad in enumerate(program.gradients):
            fn = program.integrand(i)
            for point in np.asarray(points):
                per = grad(point, xis)
                assert per.shape == (len(xis), point.size)
                for j, e in enumerate(1e-7 * np.eye(point.size)):
                    fd = (np.mean(fn(point + e, xis)) -
                          np.mean(fn(point - e, xis))) / 2e-7
                    assert per[:, j].mean() == pytest.approx(fd, rel=1e-5,
                                                             abs=1e-5)


def test_portfolio_rejects_bad_level():
    ds = ReturnsDataset.synthetic(2, 20, seed=0)
    with pytest.raises(ConfigError):
        build_portfolio(ds, 0.0, 0.1)


def test_lasso_recovers_sparse_signal():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, 3))
    y = 1.2 * X[:, 0] - 0.8 * X[:, 2] + 0.05 * rng.normal(size=200)
    problem = build_lasso(X, y, radius=2.5)
    emp = build_empirical(problem.program, lasso_scenarios(X, y))
    res = solve(emp, SolverConfig(method="subgradient", budget=6000, c0=0.5))
    coef = problem.to_original(res.x)
    assert coef[0] == pytest.approx(1.2, abs=0.1)
    assert coef[2] == pytest.approx(-0.8, abs=0.1)
    assert abs(coef[1]) < 0.1


def test_lasso_radius_binds():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(150, 2))
    y = 3.0 * X[:, 0] + 0.02 * rng.normal(size=150)
    problem = build_lasso(X, y, radius=1.0)
    emp = build_empirical(problem.program, lasso_scenarios(X, y))
    res = solve(emp, SolverConfig(method="subgradient", budget=6000, c0=0.5))
    assert np.abs(res.x).sum() <= 1.0 + 1e-9
    assert np.abs(res.x).sum() >= 0.95


def test_lasso_weighted_round_trip():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(100, 2)) * np.array([10.0, 0.1])
    y = 0.5 * X[:, 0] + 2.0 * X[:, 1]
    problem = build_lasso(X, y, radius=8.0, weighted=True)
    scaled = X / problem.diag
    assert np.allclose(np.sqrt(np.mean(scaled ** 2, axis=0)), 1.0)
    u = np.array([1.0, 2.0])
    assert np.allclose(problem.to_original(u), u / problem.diag)


def test_lasso_degenerate_feature_rejected():
    X = np.zeros((30, 2))
    X[:, 0] = np.random.default_rng(1).normal(size=30)
    with pytest.raises(DegenerateFeatureError):
        build_lasso(X, X[:, 0], radius=1.0, weighted=True)
