"""Solvers for empirical problems and their population counterparts.

The grid solver enumerates the hard set and is exact for the discretized
problem; the switching subgradient method handles convex instances without
enumeration and reports a certified optimality gap for its averaged iterate.
Population-side grid solves support validation work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleError
from .problem import (FEAS_TOL, EmpiricalProblem, StochasticProgram,
                      _constraint_table, relaxed_set_grid)


@dataclass
class SolverConfig:
    method: str = "grid"          # "grid" or "subgradient"
    budget: int = 2000            # iteration cap for the subgradient method
    c0: float = 0.1               # step scale: step_k = c0 / sqrt(k)
    tol_opt: float = 1e-3         # certified-gap target for early success
    grid_h: float = 0.01


@dataclass
class SolveResult:
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

    def to_json(self) -> dict:
        return {
            "x": self.x.tolist(),
            "value": self.value,
            "residuals": self.residuals.tolist(),
            "feasible": self.feasible,
            "method": self.method,
            "iterations": self.iterations,
            "certified_gap": self.certified_gap,
            "gap_provenance": self.gap_provenance,
            "budget_exhausted": self.budget_exhausted,
            "details": {k: v for k, v in self.details.items()
                        if isinstance(v, (int, float, str, bool))},
        }


def solve(emp: EmpiricalProblem, config: SolverConfig | None = None) -> SolveResult:
    config = config or SolverConfig()
    if config.method == "grid":
        return grid_solve(emp, config.grid_h)
    if config.method == "subgradient":
        return subgradient_solve(emp, config)
    raise ConfigError(f"unknown solver method {config.method!r}",
                      allowed=["grid", "subgradient"])


def grid_solve(emp: EmpiricalProblem, h: float, tol: float = FEAS_TOL) -> SolveResult:
    """Exact minimizer of the empirical problem restricted to a grid of Y."""
    pts = emp.program.space.grid(h)
    mask = emp.feasible_mask(pts, tol)
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
    """Central finite-difference gradient of the empirical mean (step 1e-6)."""
    step = 1e-6
    g = np.zeros_like(x)
    for d in range(x.size):
        e = np.zeros_like(x)
        e[d] = step
        g[d] = (emp.fhat(i, x + e) - emp.fhat(i, x - e)) / (2 * step)
    return g


def subgradient_solve(emp: EmpiricalProblem, config: SolverConfig,
                      grads=None) -> SolveResult:
    """Projected switching subgradient method for convex empirical problems.

    Starting from the centroid of a coarse grid of the hard set, at iterate
    k the method steps along the objective when every residual is at most
    ``FEAS_TOL``, and along the most violated constraint otherwise, with step
    c0/sqrt(k) and projection back onto the hard set.  The output
    is the step-weighted average of the objective iterates; its certified
    gap uses the standard telescoping bound with the *observed* subgradient
    norms, so it is a heuristic certificate unless true norm bounds are
    supplied.
    """
    program = emp.program
    space = program.space
    x = space.project(space.grid(space.diameter() / 2).mean(axis=0))
    diam = space.diameter()
    g_max = 0.0
    avg = np.zeros_like(x)
    weight = 0.0
    obj_steps = 0

    def subgrad(i: int, pt: np.ndarray) -> np.ndarray:
        if grads is not None and grads[i] is not None:
            per = np.asarray(grads[i](pt, emp.scenarios.data), dtype=float)
            return per.mean(axis=0) if per.ndim == 2 else per
        return _fd_gradient(emp, i, pt)

    for k in range(1, config.budget + 1):
        res = emp.residuals(x)
        if res.size == 0 or float(res.max()) <= FEAS_TOL:
            g = subgrad(0, x)
            step = config.c0 / math.sqrt(k)
            avg = avg + step * x
            weight += step
            obj_steps += 1
        else:
            g = subgrad(int(np.argmax(res)) + 1, x)
            step = config.c0 / math.sqrt(k)
        g_max = max(g_max, float(np.linalg.norm(g)))
        x = space.project(x - step * g)

    if weight <= 0:
        raise InfeasibleError(
            "subgradient method never reached the empirical feasible region",
            budget=config.budget)
    x_out = space.project(avg / weight)
    t = obj_steps
    gap = ((diam ** 2 + config.c0 ** 2 * g_max ** 2 * (1 + math.log(max(t, 1))))
           / (4 * config.c0 * (math.sqrt(t + 1) - 1))) if t >= 1 else math.inf
    rec = emp.membership(x_out)
    return SolveResult(
        x=x_out, value=emp.fhat(0, x_out), residuals=rec.residuals,
        feasible=rec.feasible, method="subgradient", iterations=config.budget,
        certified_gap=gap, gap_provenance="observed-subgradient-norms",
        budget_exhausted=gap > config.tol_opt,
        details={"objective_steps": obj_steps, "g_max": g_max,
                 "c0": config.c0})


def near_optimal_check(emp: EmpiricalProblem, x, eps: float,
                       h: float | None = None,
                       bracket: tuple[float, float] | None = None,
                       tol: float = 1e-9) -> bool | None:
    """Is x within eps of the empirical optimum?  True / False / None.

    With no ``bracket`` the empirical optimum is bracketed by its grid
    minimum (exact for finite hard sets; an upper bound otherwise, in which
    case only a False answer is conclusive and True degrades to None unless
    the space is a point cloud).
    """
    rec = emp.membership(x, tol)
    if not rec.feasible:
        return False
    val = emp.fhat(0, np.asarray(x, dtype=float))
    exact = emp.program.space.kind == "cloud"
    if bracket is None:
        res = grid_solve(emp, h if h is not None else emp.program.space.diameter() / 64)
        bracket = (-math.inf, res.value) if not exact else (res.value, res.value)
    lower, upper = bracket
    if val <= lower + eps + tol:
        return True
    if val > upper + eps + tol:
        return False
    return None


# ---------------------------------------------------------------------------
# population-side solves (validation support)


@dataclass
class TrueSolve:
    f_star: float
    x_star: np.ndarray
    minimizers: np.ndarray        # grid points within tol of the optimum
    near_optimal: np.ndarray      # grid points within eps of the optimum
    eps: float
    details: dict = field(default_factory=dict)


def solve_true(program: StochasticProgram, h: float, eps: float = 0.0,
               level: float = 0.0, tol: float = 1e-9) -> TrueSolve:
    """Grid minimum of the population objective over the level-relaxed set."""
    pts = program.space.grid(h)
    mask = relaxed_set_grid(_constraint_table(program, pts), level)
    if not np.any(mask):
        raise InfeasibleError("population feasible set has no grid points",
                              level=level, h=h)
    feas = pts[mask]
    vals = program.true_fn_grid(0, feas)
    j = int(np.argmin(vals))
    f_star = float(vals[j])
    return TrueSolve(f_star=f_star, x_star=feas[j],
                     minimizers=feas[vals <= f_star + tol],
                     near_optimal=feas[vals <= f_star + eps + tol], eps=eps,
                     details={"grid_points": len(pts),
                              "feasible_points": int(mask.sum()),
                              "level": level, "h": h})
