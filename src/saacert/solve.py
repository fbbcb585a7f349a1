"""Solvers for empirical problems.

The grid solver enumerates the hard set and is exact for the discretized
problem; the switching subgradient method handles convex instances without
enumeration and reports a certified optimality gap for its averaged iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleError, JsonResult
from .problem import FEAS_TOL, EmpiricalProblem, _overflow

# Floor of the hard set's diameter behind the subgradient solver's start
# grid (step max(diameter, MIN_GRID_DIAMETER) / 2), so a one-point hard set
# gets a positive step.
MIN_GRID_DIAMETER = 1e-12

# Step of the central finite differences behind ``_fd_gradient``: of the
# order of the cube root of machine epsilon (6e-6), which balances the
# O(step^2) truncation error against the O(eps / step) rounding error.
FD_STEP = 1e-6


@dataclass
class SolverConfig:
    method: str = "grid"          # "grid" or "subgradient"
    budget: int = 2000            # iteration cap for the subgradient method
    c0: float = 0.1               # step scale: step_k = c0 / sqrt(k)
    tol_opt: float = 1e-3         # gap above which budget_exhausted is set
    grid_h: float = 0.01


@dataclass
class SolveResult(JsonResult):
    x: np.ndarray
    value: float                  # empirical objective at x
    residuals: np.ndarray
    feasible: bool
    method: str
    iterations: int = 0
    certified_gap: float | None = None
    gap_provenance: str = ""
    budget_exhausted: bool = False
    details: dict = field(default_factory=dict)


def solve(emp: EmpiricalProblem, config: SolverConfig | None = None) -> SolveResult:
    """Solve with ``config.method``; a non-finite value or residual in the
    result raises BudgetError naming its integrand (0 is the objective)."""
    config = config or SolverConfig()
    if config.method not in ("grid", "subgradient"):
        raise ConfigError(f"unknown solver method {config.method!r}",
                          allowed=["grid", "subgradient"])
    with np.errstate(all="ignore"):  # an overflow raises below instead
        res = (grid_solve(emp, config.grid_h) if config.method == "grid"
               else subgradient_solve(emp, config))
    means = np.append(res.value, res.residuals)
    if not np.isfinite(means).all():
        raise _overflow(int(np.isfinite(means).argmin()))
    return res


def grid_solve(emp: EmpiricalProblem, h: float) -> SolveResult:
    """Exact minimizer of the empirical problem restricted to a grid of Y."""
    pts = emp.program.space.grid(h)
    mask = emp.feasible_mask(pts)
    if not np.any(mask):
        raise InfeasibleError("no grid point is empirically feasible",
                              grid_points=len(pts), h=h)
    feas_pts = pts[mask]
    vals = emp.fhat_grid(0, feas_pts)
    j = int(np.argmin(vals))
    x = feas_pts[j]
    return SolveResult(x=x, value=float(vals[j]), residuals=emp.residuals(x),
                       feasible=True, method="grid",
                       details={"grid_points": len(pts),
                                "feasible_points": int(mask.sum()), "h": h})


def _fd_gradient(emp: EmpiricalProblem, i: int, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of the empirical mean: the 2d
    stencil points x +- FD_STEP e_k in one ``fhat_grid`` call."""
    shift = FD_STEP * np.eye(x.size)
    vals = emp.fhat_grid(i, np.vstack([x + shift, x - shift]))
    return (vals[:x.size] - vals[x.size:]) / (2 * FD_STEP)


def subgradient_solve(emp: EmpiricalProblem, config: SolverConfig) -> SolveResult:
    """Projected switching subgradient method for convex empirical problems.

    Starting from the centroid of a coarse grid of the hard set, at iterate
    k the method steps along the objective when every residual is at most
    ``FEAS_TOL``, and along the most violated constraint otherwise, with step
    c0/sqrt(k) and projection back onto the hard set.  A step's subgradient
    is the scenario mean of the program's declared ``gradients`` entry, else
    a central finite difference (``_fd_gradient``).  The output
    is the step-weighted average of the objective iterates; its certified
    gap uses the standard telescoping bound with the *observed* subgradient
    norms, so it is a heuristic certificate unless true norm bounds are
    supplied.  The loop always runs the full ``budget``; ``tol_opt`` only
    decides ``budget_exhausted`` (gap above it), it never stops early.
    """
    program = emp.program
    grads = program.gradients
    space = program.space
    diam = space.diameter()
    x = space.project(space.grid(max(diam, MIN_GRID_DIAMETER) / 2).mean(axis=0))
    g_max = 0.0
    avg = np.zeros_like(x)
    weight = 0.0
    obj_steps = 0

    def subgrad(i: int, pt: np.ndarray) -> np.ndarray:
        if grads is not None and grads[i] is not None:
            return grads[i](pt, emp.scenarios.data).mean(axis=0)
        return _fd_gradient(emp, i, pt)

    for k in range(1, config.budget + 1):
        res = emp.residuals(x)
        step = config.c0 / math.sqrt(k)
        if res.size == 0 or float(res.max()) <= FEAS_TOL:
            g = subgrad(0, x)
            avg = avg + step * x
            weight += step
            obj_steps += 1
        else:
            g = subgrad(int(np.argmax(res)) + 1, x)
        g_max = max(g_max, float(np.linalg.norm(g)))
        x = space.project(x - step * g)

    if weight <= 0:
        raise InfeasibleError(
            "subgradient method never reached the empirical feasible region",
            budget=config.budget)
    x_out = space.project(avg / weight)
    t = obj_steps  # >= 1, as weight > 0
    try:  # c0^2 or g_max^2 past the float range: the bound is inf
        gap = ((diam ** 2 + config.c0 ** 2 * g_max ** 2 * (1 + math.log(t)))
               / (4 * config.c0 * (math.sqrt(t + 1) - 1)))
    except OverflowError:
        gap = math.inf
    res = emp.residuals(x_out)
    return SolveResult(
        x=x_out, value=emp.fhat(0, x_out), residuals=res,
        feasible=bool(space.contains(x_out, FEAS_TOL) and np.all(res <= FEAS_TOL)),
        method="subgradient", iterations=config.budget,
        certified_gap=gap, gap_provenance="observed-subgradient-norms",
        budget_exhausted=gap > config.tol_opt,
        details={"objective_steps": obj_steps, "g_max": g_max,
                 "c0": config.c0})
