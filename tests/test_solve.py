"""Grid and projected-subgradient solvers on the empirical problem."""

from dataclasses import replace

import numpy as np
import pytest

from saacert.apps import ReturnsDataset, build_portfolio, portfolio_gradients
from saacert.errors import InfeasibleError
from saacert.families import make_family
from saacert.geometry import SpaceDescriptor
from saacert.moments import estimate_holder
from saacert.problem import ScenarioSet, build_empirical
from saacert.solve import (SolverConfig, grid_solve, near_optimal_check,
                           solve, solve_true, subgradient_solve)


def quad_emp(n=300, seed=1, a=0.3):
    program = make_family("quad1d", a=a)
    scen = ScenarioSet.from_sampler(program.oracle.sampler, n, seed=seed)
    return build_empirical(program, scen)


def test_grid_solve_quadratic():
    emp = quad_emp()
    res = grid_solve(emp, h=0.01)
    # empirical minimizer of a near-quadratic sits near its vertex
    brute = emp.program.space.grid(0.01)
    vals = emp.fhat_grid(0, brute)
    assert res.value == pytest.approx(float(vals.min()), abs=1e-12)
    assert res.feasible


def test_grid_solve_infeasible():
    program = make_family("halfspace_box")
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 50, seed=0)
    emp = build_empirical(program, scen, np.array([-5.0]))
    with pytest.raises(InfeasibleError):
        grid_solve(emp, h=0.1)


def test_solve_dispatches_methods():
    emp = quad_emp()
    res_g = solve(emp, SolverConfig(method="grid", grid_h=0.01))
    res_s = solve(emp, SolverConfig(method="subgradient", budget=4000))
    assert res_g.method == "grid"
    assert res_s.method == "subgradient"
    assert res_s.certified_gap is not None


def test_subgradient_agrees_with_grid():
    """On a smooth convex instance the two solvers land together."""
    emp = quad_emp(n=500, seed=7)
    res_g = solve(emp, SolverConfig(method="grid", grid_h=0.005))
    res_s = solve(emp, SolverConfig(method="subgradient", budget=20000,
                                    c0=0.2, tol_opt=5e-3))
    l0 = estimate_holder(emp.program, emp.scenarios.data, 0).l_hat
    slack = res_s.certified_gap + 0.005 * l0
    assert res_s.value <= res_g.value + slack + 1e-9
    assert res_g.value <= res_s.value + 1e-9


def test_subgradient_portfolio_with_analytic_gradients():
    ds = ReturnsDataset.synthetic(2, 200, seed=11)
    problem = build_portfolio(ds, p=0.2, beta=0.05)
    emp = build_empirical(problem.program, ScenarioSet(ds.returns),
                          np.zeros(1))
    res_g = solve(emp, SolverConfig(method="grid", grid_h=0.02))
    res_s = subgradient_solve(emp, SolverConfig(method="subgradient",
                                                budget=8000, c0=0.5),
                              grads=portfolio_gradients(problem))
    assert res_s.feasible
    assert res_s.value <= res_g.value + res_s.certified_gap + 0.02 * 2 + 1e-6


def test_budget_exhaustion_reported():
    emp = quad_emp()
    res = subgradient_solve(emp, SolverConfig(method="subgradient", budget=20,
                                              tol_opt=1e-9))
    assert res.budget_exhausted
    assert res.certified_gap > 1e-9


def test_near_optimal_check_tristate():
    emp = quad_emp(n=400, seed=5)
    res = grid_solve(emp, h=0.01)
    # without a lower bracket the grid value only upper-bounds the optimum,
    # so a point at the grid minimum is inconclusive rather than certified
    assert near_optimal_check(emp, res.x, eps=0.05, h=0.01) is None
    bracket = (res.value - 0.01, res.value)
    assert near_optimal_check(emp, res.x, eps=0.05, bracket=bracket) is True
    far = np.array([1.0]) if res.x[0] < 0.5 else np.array([0.0])
    assert near_optimal_check(emp, far, eps=0.01, h=0.01) is False
    cloud = SpaceDescriptor.cloud([[0.0], [0.3], [1.0]])
    emp_c = build_empirical(
        replace(emp.program, space=cloud), emp.scenarios)
    best = grid_solve(emp_c, h=0.1)
    assert near_optimal_check(emp_c, best.x, eps=1e-6, h=0.1) is True


def test_solve_true_quadratic():
    program = make_family("quad1d", a=0.3, noise=0.0)
    out = solve_true(program, h=0.001, eps=0.05)
    assert out.x_star[0] == pytest.approx(0.3, abs=0.002)
    assert out.f_star == pytest.approx(0.0, abs=1e-5)
    assert len(out.near_optimal) >= len(out.minimizers)


def test_solver_seed_reproducibility():
    emp = quad_emp()
    cfg = SolverConfig(method="subgradient", budget=500)
    a = solve(emp, cfg)
    b = solve(emp, cfg)
    assert np.array_equal(a.x, b.x)
    assert a.value == b.value
