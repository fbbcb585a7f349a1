"""Exactly solvable affine trials for the deterministic certificate checker.

A trial has affine population integrands f_i(x) = a_i x + b_i on [0, 1] and
a single scenario row (u, v) that shifts them, so every empirical mean is
affine too: Fhat_i(x) = (a_i + u_i) x + (b_i + v_i).  Every set the checker
reasons about is then an interval that interval arithmetic gives exactly, and
each conclusion a held certificate claims can be verified independently.

The trials follow the shape of the checker-soundness acceptance criterion:
the same seven schemes, noise levels, constraint counts and parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEMES = ("F", "C1C2", "C1plusC2", "C1negC2neg", "M0", "exterior", "interior")
GAMMA, EPS, T, T1 = 0.3, 0.15, 0.25, 0.05
TOL = 1e-9


def leq(alpha: float, beta: float, level: float):
    """{x in [0, 1] : alpha x + beta <= level} as (lo, hi), or None."""
    if alpha > 0:
        hi = (level - beta) / alpha
        return (0.0, min(1.0, hi)) if hi >= 0 else None
    if alpha < 0:
        lo = (level - beta) / alpha
        return (max(0.0, lo), 1.0) if lo <= 1 else None
    return (0.0, 1.0) if beta <= level else None


def meet(intervals):
    lo, hi = 0.0, 1.0
    for iv in intervals:
        if iv is None:
            return None
        lo, hi = max(lo, iv[0]), min(hi, iv[1])
    return (lo, hi) if lo <= hi + 1e-15 else None


def inside(inner, outer) -> bool:
    if inner is None:
        return True
    return outer is not None and outer[0] - TOL <= inner[0] and inner[1] <= outer[1] + TOL


def lowest(alpha: float, beta: float, iv) -> float:
    return min(alpha * iv[0] + beta, alpha * iv[1] + beta)


def highest(alpha: float, beta: float, iv) -> float:
    return max(alpha * iv[0] + beta, alpha * iv[1] + beta)


@dataclass
class Trial:
    """Parameters of one trial; the program is built from them per run."""

    scheme: str
    a: np.ndarray
    b: np.ndarray
    u: np.ndarray
    v: np.ndarray
    relax: np.ndarray
    anchors: dict
    params: dict
    gamma: float

    @property
    def m(self) -> int:
        return len(self.a) - 1

    @property
    def ah(self) -> np.ndarray:
        return self.a + self.u

    @property
    def bh(self) -> np.ndarray:
        return self.b + self.v

    def pop_set(self, level: float):
        return meet([leq(self.a[i], self.b[i], level) for i in range(1, self.m + 1)])

    def emp_set(self):
        return meet([leq(self.ah[i], self.bh[i], self.relax[i - 1])
                     for i in range(1, self.m + 1)])

    def argmin(self, iv) -> float:
        return iv[0] if self.a[0] > 0 else iv[1]

    def near_emp(self, iv, t1: float):
        """{x in iv : Fhat0(x) <= min over iv of Fhat0 + t1}."""
        fmin = lowest(self.ah[0], self.bh[0], iv)
        return meet([leq(self.ah[0], self.bh[0], fmin + t1), iv])

    def probes(self):
        pts = [[(lv - self.b[i]) / self.a[i]]
               for lv in (self.gamma, 0.0, -self.gamma)
               for i in range(1, self.m + 1)
               if 0.0 <= (lv - self.b[i]) / self.a[i] <= 1.0]
        return np.array(pts) if pts else None


def draw_trial(rng: np.random.Generator, scheme: str) -> Trial | None:
    """One random trial, or None when its population problem is unusable."""
    noise = rng.choice([0.02, 0.1, 0.4])
    interior = scheme in ("C1negC2neg", "interior")
    if scheme == "M0":
        m = 0
    elif scheme in ("F", "exterior"):
        m = int(rng.integers(1, 3))
    else:
        m = 1
    a = rng.uniform(0.3, 1.5, size=m + 1) * rng.choice([-1.0, 1.0], size=m + 1)
    if interior:
        slack = rng.uniform(-0.8, -0.3, size=m)
        b = np.concatenate([[rng.uniform(-0.5, 0.5)], slack - 0.5 * a[1:]])
    else:
        b = rng.uniform(-0.5, 0.5, size=m + 1)
        b[1:] -= 0.2
    u = noise * rng.normal(size=m + 1)
    v = noise * rng.normal(size=m + 1)
    if interior:
        relax = np.full(m, -0.1)
    elif scheme == "exterior":
        relax = np.full(m, EPS)
    else:
        relax = rng.uniform(-0.1, 0.2, size=m)
    trial = Trial(scheme=scheme, a=a, b=b, u=u, v=v, relax=relax, anchors={},
                  params={}, gamma=GAMMA)

    feasible = trial.pop_set(0.0)
    if scheme in ("C1C2", "C1plusC2", "C1negC2neg", "interior"):
        trial.anchors["y"] = [0.0 if a[1] > 0 else 1.0]
    if scheme == "C1C2":
        trial.params["eps_mid"] = EPS
    if scheme in ("M0", "exterior"):
        if scheme == "M0":
            iv = (0.0, 1.0)
        elif feasible is None:
            return None
        else:
            iv = feasible
        trial.anchors["x_star"] = [trial.argmin(iv)]
        trial.params.update(t=T, t1=T1)
    if interior:
        margin = -lowest(a[1], b[1], (0.0, 1.0))
        trial.params["slater_margin"] = margin
        trial.params["gamma"] = min(0.2, margin) if margin > 0 else 0.2
        trial.gamma = trial.params["gamma"]
    if scheme == "interior":
        inner = trial.pop_set(-trial.gamma)
        if inner is None:
            return None
        trial.anchors["y_star"] = [trial.argmin(inner)]
        trial.params.update(t=T, t1=T1)
    return trial


def draw_trials(rng: np.random.Generator, scheme: str, count: int) -> list[Trial]:
    trials = []
    while len(trials) < count:
        trial = draw_trial(rng, scheme)
        if trial is not None:
            trials.append(trial)
    return trials


def violations(trial: Trial, relaxations) -> list[str]:
    """Conclusions of a held certificate that interval arithmetic refutes."""
    relax = np.asarray(relaxations, dtype=float)
    if not np.array_equal(relax, trial.relax):
        return ["relaxations differ from the trial's"]
    scheme, m, g = trial.scheme, trial.m, trial.gamma
    ah, bh, a, b = trial.ah, trial.bh, trial.a, trial.b
    emp, pop = trial.emp_set(), trial.pop_set(0.0)
    bad = []
    if scheme in ("F", "C1C2", "C1plusC2") and not inside(emp, trial.pop_set(g)):
        bad.append("empirical set not inside the gamma-relaxed set")
    if scheme in ("C1negC2neg", "interior") and not inside(emp, pop):
        bad.append("empirical set not inside the feasible set")
    if scheme == "exterior":
        xs = trial.anchors["x_star"][0]
        if any(ah[i] * xs + bh[i] - relax[i - 1] > TOL for i in range(1, m + 1)):
            bad.append("x_star not empirically feasible")
        if emp is not None:
            near = trial.near_emp(emp, T1)
            if highest(a[0], b[0], near) > lowest(a[0], b[0], pop) + T + TOL:
                bad.append("near-optimal empirical points not t-optimal")
    if scheme == "M0":
        near = trial.near_emp((0.0, 1.0), T1)
        if highest(a[0], b[0], near) > lowest(a[0], b[0], (0.0, 1.0)) + T + TOL:
            bad.append("near-optimal empirical points not t-optimal")
    if scheme == "interior":
        ys = trial.anchors["y_star"][0]
        if any(ah[i] * ys + bh[i] - relax[i - 1] > TOL for i in range(1, m + 1)):
            bad.append("y_star not empirically feasible")
        if emp is not None:
            near = trial.near_emp(emp, T1)
            f_star = lowest(a[0], b[0], pop)
            gap = lowest(a[0], b[0], trial.pop_set(-g)) - f_star
            if highest(a[0], b[0], near) > f_star + T + gap + TOL:
                bad.append("near-optimal empirical points not (t + gap)-optimal")
    return bad
