"""Grid and projected-subgradient solvers on the empirical problem."""

import importlib
import json

import numpy as np
import pytest

from saacert.apps import (ReturnsDataset, build_lasso, build_portfolio,
                          lasso_scenarios)
from saacert.cli import main
from saacert.errors import InfeasibleError
from saacert.families import make_family
from saacert.geometry import SpaceDescriptor
from saacert.moments import estimate_holder
from saacert.problem import (FEAS_TOL, EmpiricalProblem, HolderInfo,
                             ScenarioSet, StochasticProgram, build_empirical)
from saacert.solve import (FD_STEP, SolverConfig, _fd_gradient, grid_solve,
                           solve, subgradient_solve)

# the package re-exports the function ``solve`` under the module's name
solve_module = importlib.import_module("saacert.solve")


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
                                                budget=8000, c0=0.5))
    assert res_s.feasible
    assert res_s.value <= res_g.value + res_s.certified_gap + 0.02 * 2 + 1e-6


def test_declared_gradients_replace_finite_differences(monkeypatch):
    """portfolio and lasso declare every gradient: the solver never falls
    back to finite differences."""
    def no_fd(*args):
        raise AssertionError("finite differences for a declared gradient")

    monkeypatch.setattr(solve_module, "_fd_gradient", no_fd)
    ds = ReturnsDataset.synthetic(3, 50, seed=2)
    portfolio = build_portfolio(ds, p=0.2, beta=0.05).program
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.0, 0.0, -0.5]) + 0.1 * rng.normal(size=60)
    lasso = build_lasso(X, y, 1.0).program
    config = SolverConfig(method="subgradient", budget=200)
    for emp in (build_empirical(portfolio, ScenarioSet(ds.returns), np.zeros(1)),
                build_empirical(lasso, lasso_scenarios(X, y))):
        assert subgradient_solve(emp, config).iterations == 200


def test_fd_fallback_is_one_batched_call_per_gradient(monkeypatch):
    """Without declared gradients each subgradient is one ``fhat_grid``
    call on the 2d-point stencil, equal to per-coordinate differences.  The
    solver's other calls are one-point tables: a step's residuals, and the
    averaged iterate's residuals and value."""
    program = make_family("ball2d")
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 200, seed=3)
    emp = build_empirical(program, scen, np.array([0.1]))
    assert program.gradients is None
    calls = []
    fhat_grid = EmpiricalProblem.fhat_grid

    def counted(self, i, points):
        calls.append(len(np.atleast_2d(points)))
        return fhat_grid(self, i, points)

    monkeypatch.setattr(EmpiricalProblem, "fhat_grid", counted)
    x = np.array([0.3, -0.2])
    for i in (0, 1):
        calls.clear()
        g = _fd_gradient(emp, i, x)
        assert calls == [4]
        loop = [(emp.fhat(i, x + FD_STEP * e) - emp.fhat(i, x - FD_STEP * e))
                / (2 * FD_STEP) for e in np.eye(2)]
        # a few ulps of the sample means, over the stencil width
        assert g == pytest.approx(loop, abs=64 * np.finfo(float).eps / FD_STEP)
    calls.clear()
    subgradient_solve(emp, SolverConfig(method="subgradient", budget=30))
    assert calls == [1, 4] * 30 + [1, 1]


def test_budget_exhaustion_reported():
    emp = quad_emp()
    res = subgradient_solve(emp, SolverConfig(method="subgradient", budget=20,
                                              tol_opt=1e-9))
    assert res.budget_exhausted
    assert res.certified_gap > 1e-9


def test_feasible_flag_is_membership_of_the_averaged_iterate():
    """``feasible`` says x in Y and every residual <= FEAS_TOL at the
    averaged iterate.  On the non-convex set {|x| >= 1/2} in [-1, 1], long
    steps make the feasible iterates alternate sides, so their average falls
    in the gap; short steps keep them on one side, and the average is
    feasible."""
    def outward(x, xis):
        return np.tile(-np.where(x >= 0, 1.0, -1.0), (len(xis), 1))

    program = StochasticProgram(
        objective=lambda x, xis: np.full(len(xis), x[0] ** 2),
        constraints=[lambda x, xis: np.full(len(xis), 0.5 - abs(x[0]))],
        space=SpaceDescriptor.interval(-1.0, 1.0),
        holder=[HolderInfo(1.0), HolderInfo(1.0)],
        gradients=[lambda x, xis: np.tile(2 * x, (len(xis), 1)), outward])
    emp = build_empirical(program, ScenarioSet(np.zeros((3, 1))), np.zeros(1))
    outcomes = []
    for c0, budget in ((0.1, 200), (10.0, 20)):
        res = subgradient_solve(emp, SolverConfig(method="subgradient",
                                                  budget=budget, c0=c0))
        rule = bool(program.space.contains(res.x, FEAS_TOL)
                    and np.all(res.residuals <= FEAS_TOL))
        assert res.feasible is rule
        assert np.array_equal(res.residuals, emp.residuals(res.x))
        outcomes.append(res.feasible)
    assert outcomes == [True, False]


def test_zero_diameter_hard_sets_solve(capsys):
    """A one-point hard set has diameter 0.  The subgradient start grid
    floors it at ``MIN_GRID_DIAMETER``, so it never asks for a grid of
    step 0: from the CLI and from the library."""
    code = main(["solve", "--problem",
                 '{"family":"linear_simplex","params":{"dim":1}}',
                 "--n", "5", "--method", "subgradient"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert json.loads(out)["results"]["solution"]["x"] == [1.0]
    program = make_family("linear_simplex", dim=1)
    emp = build_empirical(
        program, ScenarioSet.from_sampler(program.oracle.sampler, 5, seed=0))
    res = subgradient_solve(emp, SolverConfig(method="subgradient", budget=10))
    assert res.x.tolist() == [1.0] and res.feasible


def test_solver_seed_reproducibility():
    emp = quad_emp()
    cfg = SolverConfig(method="subgradient", budget=500)
    a = solve(emp, cfg)
    b = solve(emp, cfg)
    assert np.array_equal(a.x, b.x)
    assert a.value == b.value
