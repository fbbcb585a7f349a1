"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <nn> <name>: PASS|FAIL`` so the whole gate can
be read off a ``pytest -v -s tests/test_acceptance.py`` run.  Tolerances and
budgets are pinned in the asserts.
"""

import json
import math
import time

import numpy as np
import pytest

from saacert.apps import ReturnsDataset, build_portfolio, cvar
from saacert.certify import (check_certificates, deviation_ledger,
                             estimate_regularity, gap_bounds,
                             robinson_constant)
from saacert.cli import main as cli_main
from saacert.distributions import make_distribution
from saacert.families import make_family
from saacert.geometry import SpaceDescriptor, a_alpha, packing_net, vec_norm
from saacert.problem import (HolderInfo, ScenarioSet, StochasticProgram,
                             TrueOracle, build_empirical)
from saacert.solve import SolverConfig, solve
from saacert.validation import (CoveragePlan, calibrate_constant,
                                rate_experiment, tail_experiment,
                                uniform_tail_experiment)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    print(f"\n{line}")
    assert ok, f"{line} {detail}"


# ---------------------------------------------------------------------------
# 01: greedy packing vs exhaustive maximum


def exhaustive_max_packing(points, theta, norm):
    n = len(points)
    conflict = np.zeros((n, n), dtype=bool)
    for i in range(n):
        d = np.array([float(vec_norm(points[j] - points[i], norm))
                      for j in range(n)])
        conflict[i] = d <= theta
        conflict[i, i] = False
    best = [0]
    order = np.argsort(conflict.sum(axis=1))

    def dfs(idx, allowed, count):
        if idx == n:
            best[0] = max(best[0], count)
            return
        if count + int(allowed[order[idx:]].sum()) <= best[0]:
            return
        i = order[idx]
        if allowed[i]:
            nxt = allowed & ~conflict[i]
            nxt[i] = False
            dfs(idx + 1, nxt, count + 1)
        dfs(idx + 1, allowed, count)

    dfs(0, np.ones(n, dtype=bool), 0)
    return best[0]


PACKING_CASES = [
    # (space factory, theta, h)
    (lambda: SpaceDescriptor.box([0.0], [1.0]), 0.4, 0.1),
    (lambda: SpaceDescriptor.box([0.0], [1.0]), 0.3, 0.1),
    (lambda: SpaceDescriptor.box([0.0], [1.0]), 0.25, 0.05),
    (lambda: SpaceDescriptor.box([0.0], [2.0]), 0.7, 0.1),
    (lambda: SpaceDescriptor.box([0.0], [1.5]), 0.5, 0.25),
    (lambda: SpaceDescriptor.box([0.0], [1.0]), 0.9, 0.1),
    (lambda: SpaceDescriptor.box([0.0], [0.5]), 0.2, 0.05),
    (lambda: SpaceDescriptor.box([0.0], [3.0]), 1.0, 0.5),
    (lambda: SpaceDescriptor.box([0.0], [1.0]), 0.15, 0.05),
    (lambda: SpaceDescriptor.box([0.0], [2.0]), 0.55, 0.05),
    (lambda: SpaceDescriptor.box([0.0, 0.0], [1.0, 1.0]), 0.5, 0.25),
    (lambda: SpaceDescriptor.box([0.0, 0.0], [1.0, 1.0]), 0.4, 0.2),
    (lambda: SpaceDescriptor.box([0.0, 0.0], [1.0, 0.5]), 0.3, 0.25),
    (lambda: SpaceDescriptor.box([0.0, 0.0], [1.0, 1.0]), 0.8, 0.25),
    (lambda: SpaceDescriptor.box([0.0, 0.0], [0.5, 0.5]), 0.3, 0.25),
    (lambda: SpaceDescriptor.box([0.0, 0.0], [1.0, 1.0]), 0.6, 0.2),
    (lambda: SpaceDescriptor.ball([0.0, 0.0], 0.5), 0.4, 0.25),
    (lambda: SpaceDescriptor.ball([0.0, 0.0], 0.5), 0.6, 0.25),
    (lambda: SpaceDescriptor.ball([0.0, 0.0], 1.0), 0.9, 0.5),
    (lambda: SpaceDescriptor.simplex(2), 0.5, 0.25),
    (lambda: SpaceDescriptor.simplex(3), 0.6, 0.25),
    (lambda: SpaceDescriptor.simplex(2), 0.3, 0.25),
]


def test_acceptance_01_packing_oracle():
    start = time.monotonic()
    mismatches = []
    for k, (factory, theta, h) in enumerate(PACKING_CASES):
        space = factory()
        greedy = len(packing_net(space, theta, h))
        exact = exhaustive_max_packing(space.grid(h), theta, space.norm)
        if greedy != exact:
            mismatches.append((k, greedy, exact))
    elapsed = time.monotonic() - start
    ok = not mismatches and len(PACKING_CASES) >= 20 and elapsed < 10.0
    report(1, "greedy-packing-equals-exhaustive", ok,
           f"mismatches={mismatches} elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 02: chaining constant of the two-point set


def test_acceptance_02_chaining_constant():
    def H(s):
        return math.log(2.0) if s < 1.0 else 0.0

    independent, i = 0.0, 1
    while True:
        term = (1.0 / 2 ** i) * math.sqrt(
            H(1.0 / 2 ** i) + H(1.0 / 2 ** (i - 1)) + math.log(i * (i + 1)))
        independent += term
        if term < 1e-12 * independent:
            break
        i += 1
    two_point = SpaceDescriptor.cloud([[0.0], [1.0]])
    value = a_alpha(two_point, 1.0).value
    single = a_alpha(two_point, 1.0).terms[0]
    closed = 0.5 * math.sqrt(2 * math.log(2))
    ok = abs(value - independent) <= 0.01 and abs(single - closed) <= 1e-9
    report(2, "two-point-chaining-constant", ok,
           f"value={value!r} independent={independent!r} single={single!r}")


# ---------------------------------------------------------------------------
# 03: self-normalized exceedance under t(3)


def test_acceptance_03_self_normalized_tail():
    start = time.monotonic()
    rep = tail_experiment(make_distribution("t3"), n=200,
                          t_grid=[0.5, 1.0, 2.0, 3.0], replications=10_000,
                          constant=3.0, seed=20_240_813)
    elapsed = time.monotonic() - start
    ok = rep.passed and elapsed < 60.0
    report(3, "self-normalized-exceedance", ok,
           f"rows={[(r.t, r.frequency, round(r.bound, 4)) for r in rep.rows]} "
           f"elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 04: uniform deviation tail over the 2-simplex


def test_acceptance_04_uniform_tail_simplex():
    start = time.monotonic()
    program = make_family("linear_simplex", dim=3)
    rep = uniform_tail_experiment(program, n=200, t_grid=[0.5, 1.0, 2.0],
                                  replications=2000, constant=3.0,
                                  seed=20_240_814, h=0.25)
    elapsed = time.monotonic() - start
    ok = rep.passed and elapsed < 300.0
    report(4, "uniform-tail-simplex", ok,
           f"rows={[(r.t, r.frequency, round(r.bound, 4)) for r in rep.rows]} "
           f"elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 05: root-N decay of the mean sup-deviation


def test_acceptance_05_rate_slope():
    rep = rate_experiment(make_family("quad1d", a=0.3),
                          n_grid=[2 ** k for k in range(6, 13)],
                          replications=200, seed=20_240_815, h=0.02)
    ok = rep.passed and -0.6 <= rep.slope <= -0.4
    report(5, "mean-deviation-rate", ok,
           f"slope={rep.slope:.4f} stderr={rep.slope_stderr:.4f}")


# ---------------------------------------------------------------------------
# 06: coverage of the guaranteed events at the calibrated constant


def coverage_plans(replications):
    return [
        CoveragePlan(program=make_family("quad1d", a=0.3), theorem="fixed",
                     event="near-optimal-subset", eps=0.1, p=0.1,
                     replications=replications, seed=101, h=0.01,
                     name="fixed-quad"),
        CoveragePlan(program=make_family("ball2d"), theorem="exterior",
                     event="feasible-relaxed", eps=0.1, p=0.1,
                     replications=replications, seed=202, h=0.05,
                     name="exterior-ball"),
        CoveragePlan(program=make_family("halfspace_box",
                                         objective="interior"),
                     theorem="interior", event="feasible-hard",
                     eps=0.3, p=0.1, replications=replications, seed=303,
                     h=0.05, name="interior-halfspace"),
    ]


def test_acceptance_06_calibrated_coverage():
    plans = coverage_plans(replications=1000)
    result = calibrate_constant(plans)
    rows = result.reports[result.c_star]
    failures = []
    for plan in plans:
        rep = rows[plan.name]
        if not (rep["frequency"] >= 0.9 and rep["wilson"][0] >= 0.88):
            failures.append((plan.name, rep["frequency"], rep["wilson"][0]))
    ok = not failures and result.monotone_confirmed
    summary = {name: (round(rows[name]["frequency"], 3),
                      round(rows[name]["wilson"][0], 3),
                      rows[name]["n_used"]) for name in rows}
    report(6, "calibrated-coverage", ok,
           f"C*={result.c_star} {summary} failures={failures}")


# ---------------------------------------------------------------------------
# 07: metric-regularity estimate on the disk-in-box instance


def test_acceptance_07_regularity_ball_in_box():
    program = make_family("ball2d", radius=0.6)
    h = 0.02
    grid = program.space.grid(h)
    est = estimate_regularity(program, h=h, use_exact_distance=False)
    # the feasible disk has diameter 1.2 and interior margin 0.6 at 0
    c_rob = robinson_constant(1.2, program.oracle.slater_margin)
    viol = np.maximum(program.true_fn_grid(1, grid), 0.0)
    dists = np.array([program.oracle.dist_to_feasible(x) for x in grid])
    violations = int(np.sum(dists > c_rob * viol + 1e-9))
    ok = (len(grid) >= 10_000 and est.c_hat <= c_rob + 2 * h
          and violations == 0)
    report(7, "regularity-ball-in-box", ok,
           f"c_hat={est.c_hat:.4f} robinson={c_rob:.4f} grid={len(grid)} "
           f"violations={violations}")


# ---------------------------------------------------------------------------
# 08: relaxation gap values vs their smoothness bounds


def threshold_1d():
    f0 = lambda x, xis: np.full(len(xis), x[0])
    f1 = lambda x, xis: np.full(len(xis), 0.5 - x[0])
    return StochasticProgram(
        objective=f0, constraints=[f1],
        space=SpaceDescriptor.interval(0.0, 1.0),
        holder=[HolderInfo(1.0), HolderInfo(1.0)],
        oracle=TrueOracle(fns=[lambda x: x[0], lambda x: 0.5 - x[0]],
                          dist_to_feasible=lambda x: max(0.5 - x[0], 0.0)),
        convex=True, name="threshold-1d")


def test_acceptance_08_gap_bounds():
    instances = [(threshold_1d(), 1.0, 0.025),
                 (make_family("halfspace_box", objective="corner"), 0.5,
                  0.025)]
    zero_instance = make_family("halfspace_box", objective="interior")
    bad = []
    for gamma in (0.05, 0.1, 0.2):
        for program, c, h in instances:
            for kind in ("exterior", "interior"):
                g = gap_bounds(program, gamma, c=c, h=h, kind=kind)
                if not (g.value <= g.upper_bound + 1e-9):
                    bad.append((program.name, kind, gamma, g.value,
                                g.upper_bound))
        for kind in ("exterior", "interior"):
            g = gap_bounds(zero_instance, gamma, c=0.5, h=0.05, kind=kind)
            if not (g.value == 0.0 and g.zero_condition):
                bad.append(("zero-flag", kind, gamma, g.value,
                            g.zero_condition))
    report(8, "relaxation-gap-bounds", not bad, f"violations={bad}")


# ---------------------------------------------------------------------------
# 09: soundness of the deterministic checker on exactly solvable trials


def leq_interval(alpha, beta, c):
    """{x in [0, 1]: alpha x + beta <= c} as (lo, hi), or None if empty."""
    if alpha > 0:
        hi = (c - beta) / alpha
        return (0.0, min(1.0, hi)) if hi >= 0 else None
    if alpha < 0:
        lo = (c - beta) / alpha
        return (max(0.0, lo), 1.0) if lo <= 1 else None
    return (0.0, 1.0) if beta <= c else None


def cap(intervals):
    lo, hi = 0.0, 1.0
    for iv in intervals:
        if iv is None:
            return None
        lo, hi = max(lo, iv[0]), min(hi, iv[1])
    return (lo, hi) if lo <= hi + 1e-15 else None


def subset(inner, outer, tol=1e-9):
    if inner is None:
        return True
    return outer is not None and (outer[0] - tol <= inner[0]
                                  and inner[1] <= outer[1] + tol)


def affine_min(alpha, beta, iv):
    vals = [alpha * iv[0] + beta, alpha * iv[1] + beta]
    return min(vals)


def affine_max(alpha, beta, iv):
    vals = [alpha * iv[0] + beta, alpha * iv[1] + beta]
    return max(vals)


class AffineTrial:
    """One exactly solvable instance: affine f_i and affine empirical means.

    Scenario column pair (2i, 2i+1) feeds integrand i, so a single scenario
    row makes Fhat_i(x) = (a_i + u_i) x + (b_i + v_i) exactly.
    """

    def __init__(self, rng, m, noise_scale, interior_bias=False):
        self.m = m
        a = rng.uniform(0.3, 1.5, size=m + 1)
        a *= rng.choice([-1.0, 1.0], size=m + 1)
        if interior_bias:
            slack = rng.uniform(-0.8, -0.3, size=m)
            b = np.concatenate([[rng.uniform(-0.5, 0.5)],
                                slack - 0.5 * a[1:]])
        else:
            b = rng.uniform(-0.5, 0.5, size=m + 1)
            b[1:] -= 0.2
        self.a, self.b = a, b
        self.u = noise_scale * rng.normal(size=m + 1)
        self.v = noise_scale * rng.normal(size=m + 1)
        self.ah, self.bh = a + self.u, b + self.v

        def integrand(i):
            def fn(x, xis):
                return a[i] * x[0] + b[i] + xis[:, 2 * i] * x[0] + xis[:, 2 * i + 1]
            return fn

        fns = [(lambda i: (lambda x: a[i] * x[0] + b[i]))(i)
               for i in range(m + 1)]
        self.program = StochasticProgram(
            objective=integrand(0),
            constraints=[integrand(i) for i in range(1, m + 1)],
            space=SpaceDescriptor.interval(0.0, 1.0),
            holder=[HolderInfo(1.0)] * (m + 1),
            oracle=TrueOracle(fns=fns), convex=True, name="affine-trial")
        row = np.empty(2 * (m + 1))
        row[0::2], row[1::2] = self.u, self.v
        self.scenarios = ScenarioSet(row[None, :])

    def probes(self, levels):
        pts = []
        for lv in levels:
            for i in range(1, self.m + 1):
                root = (lv - self.b[i]) / self.a[i]
                if 0.0 <= root <= 1.0:
                    pts.append([root])
        return np.array(pts) if pts else None

    # --- exact population/empirical sets ------------------------------
    def pop_set(self, level):
        return cap([leq_interval(self.a[i], self.b[i], level)
                    for i in range(1, self.m + 1)])

    def emp_set(self, eps_hat):
        return cap([leq_interval(self.ah[i], self.bh[i], eps_hat[i - 1])
                    for i in range(1, self.m + 1)])

    def argmin_f(self, iv):
        lo, hi = iv
        return lo if self.a[0] > 0 else hi

    def near_empirical_set(self, emp_iv, t1):
        """{x in Xhat: Fhat0(x) <= min Fhat0 + t1} as an interval."""
        fmin = affine_min(self.ah[0], self.bh[0], emp_iv)
        sub = leq_interval(self.ah[0], self.bh[0], fmin + t1)
        return cap([sub, emp_iv])


def run_soundness_trials(scheme, trials=1000, seed=0):
    rng = np.random.default_rng(seed)
    counter, held = [], 0
    gamma, eps, t, t1 = 0.3, 0.15, 0.25, 0.05
    for k in range(trials):
        noise = rng.choice([0.02, 0.1, 0.4])
        interior = scheme in ("C1negC2neg", "interior")
        m = 0 if scheme == "M0" else (rng.integers(1, 3)
                                      if scheme in ("F", "P", "exterior")
                                      else 1)
        trial = AffineTrial(rng, m, noise, interior_bias=interior)
        if scheme in ("C1negC2neg", "interior"):
            relax = np.full(m, -0.1)
        elif scheme in ("exterior", "P"):
            relax = np.full(m, eps)
        else:
            relax = rng.uniform(-0.1, 0.2, size=m)
        emp = build_empirical(trial.program, trial.scenarios, relax)

        anchors, params = {}, {}
        X = trial.pop_set(0.0)
        if scheme in ("C1C2", "C1plusC2", "C1negC2neg", "interior"):
            y = 0.0 if trial.a[1] > 0 else 1.0
            anchors["y"] = [y]
        if scheme == "C1C2":
            params["eps_mid"] = eps
        if scheme in ("M0", "P", "exterior"):
            if scheme == "M0":
                iv = (0.0, 1.0)
            else:
                if X is None:
                    continue  # population problem infeasible, trial invalid
                iv = X
            anchors["x_star"] = [trial.argmin_f(iv)]
            if scheme != "P":
                params.update(t=t, t1=t1)
        if scheme in ("C1negC2neg", "interior"):
            margin = -affine_min(trial.a[1], trial.b[1], (0.0, 1.0))
            params["slater_margin"] = margin
            params["gamma"] = min(0.2, margin) if margin > 0 else 0.2
        if scheme == "interior":
            inner = trial.pop_set(-params["gamma"])
            if inner is None:
                continue
            anchors["y_star"] = [trial.argmin_f(inner)]
            params.update(t=t, t1=t1)

        g = params.get("gamma", gamma)
        ledger = deviation_ledger(emp, gamma=g, h=0.25, anchors=anchors,
                                  probes=trial.probes((g, 0.0, -g)),
                                  tol_active=1e-9)
        rep = check_certificates(emp, ledger, scheme, params=params)
        if not rep.holds:
            continue
        held += 1

        # --- independent verification of every claimed conclusion -----
        Xhat = trial.emp_set(emp.relaxations)
        bad = False
        if scheme in ("F", "C1C2", "C1plusC2"):
            bad |= not subset(Xhat, trial.pop_set(g))
        if scheme in ("C1negC2neg", "interior"):
            bad |= not subset(Xhat, X)
        if scheme in ("P", "exterior"):
            xs = anchors["x_star"][0]
            emp_vals = [trial.ah[i] * xs + trial.bh[i] - emp.relaxations[i - 1]
                        for i in range(1, m + 1)]
            bad |= any(val > 1e-9 for val in emp_vals)
        if scheme == "M0":
            near = trial.near_empirical_set((0.0, 1.0), t1)
            f_star = affine_min(trial.a[0], trial.b[0], (0.0, 1.0))
            bad |= affine_max(trial.a[0], trial.b[0], near) > f_star + t + 1e-9
        if scheme == "exterior" and Xhat is not None:
            near = trial.near_empirical_set(Xhat, t1)
            f_star = affine_min(trial.a[0], trial.b[0], X)
            bad |= affine_max(trial.a[0], trial.b[0], near) > f_star + t + 1e-9
        if scheme == "interior":
            ys = anchors["y_star"][0]
            emp_vals = [trial.ah[i] * ys + trial.bh[i] - emp.relaxations[i - 1]
                        for i in range(1, m + 1)]
            bad |= any(val > 1e-9 for val in emp_vals)
            if Xhat is not None:
                near = trial.near_empirical_set(Xhat, t1)
                f_star = affine_min(trial.a[0], trial.b[0], X)
                gap = (affine_min(trial.a[0], trial.b[0],
                                  trial.pop_set(-params["gamma"])) - f_star)
                bad |= (affine_max(trial.a[0], trial.b[0], near)
                        > f_star + t + gap + 1e-9)
        if bad:
            counter.append(k)
    return counter, held


SOUND_SCHEMES = ("F", "C1C2", "C1plusC2", "C1negC2neg", "M0", "exterior",
                 "interior")


def test_acceptance_09_checker_soundness():
    failures, tally = {}, {}
    for s, scheme in enumerate(SOUND_SCHEMES):
        counter, held = run_soundness_trials(scheme, trials=1000,
                                             seed=1000 + s)
        tally[scheme] = held
        if counter:
            failures[scheme] = counter[:5]
    ok = not failures and all(h >= 50 for h in tally.values())
    report(9, "checker-soundness", ok,
           f"counterexamples={failures} certificates-held={tally}")


# ---------------------------------------------------------------------------
# 10: CVaR closed form and its defining properties


def test_acceptance_10_cvar():
    rng = np.random.default_rng(42)
    losses = rng.standard_t(3, size=100)
    bad = []
    for p in (0.05, 0.1, 0.25, 0.5):
        scan = min(t + np.mean(np.maximum(losses - t, 0.0)) / p
                   for t in losses)
        if abs(cvar(losses, p) - scan) > 1e-6:
            bad.append(("scan", p))
    base = cvar(losses, 0.2)
    if abs(cvar(losses + 3.0, 0.2) - (base + 3.0)) > 1e-9:
        bad.append("translation")
    if abs(cvar(2.5 * losses, 0.2) - 2.5 * base) > 1e-9:
        bad.append("homogeneity")
    values = [cvar(losses, p) for p in (0.05, 0.1, 0.2, 0.5, 1.0)]
    if not all(x >= y - 1e-12 for x, y in zip(values, values[1:])):
        bad.append("p-monotonicity")
    if values[-1] < losses.mean() - 1e-12:
        bad.append("mean-domination")
    report(10, "cvar-closed-form", not bad, f"violations={bad}")


# ---------------------------------------------------------------------------
# 11: two-asset portfolio against an independent scan


def test_acceptance_11_portfolio():
    ds = ReturnsDataset.synthetic(2, 150, seed=9)
    p, beta = 0.2, 0.05
    problem = build_portfolio(ds, p, beta)
    emp = build_empirical(problem.program, ScenarioSet(ds.returns),
                          np.zeros(1))
    h = 0.02
    res = solve(emp, SolverConfig(method="grid", grid_h=h, tol_opt=1e-3))
    best = math.inf
    for w in np.linspace(0.0, 1.0, 2001):
        x = np.array([w, 1.0 - w])
        if cvar(-(ds.returns @ x), p) <= beta + 1e-12:
            best = min(best, float(np.mean(-(ds.returns @ x))))
    # grid slack: the objective is 1-Lipschitz in the weights per unit return
    slack = 1e-3 + h * float(np.abs(ds.returns).max())
    x_fixed = np.array([0.3, 0.7])
    losses = -(ds.returns @ x_fixed)
    fn = problem.program.integrand(1)
    refo = min(float(np.mean(fn(np.append(x_fixed, t), ds.returns)))
               for t in losses)
    equiv = abs(refo - (cvar(losses, p) - beta)) <= 1e-6
    ok = res.value <= best + slack and res.feasible and equiv
    report(11, "portfolio-two-asset", ok,
           f"solver={res.value:.6f} scan={best:.6f} slack={slack:.4f} "
           f"reformulation-equal={equiv}")


# ---------------------------------------------------------------------------
# 12: artifacts are byte-identical per seed


def test_acceptance_12_artifact_determinism(tmp_path, capsys):
    jobs = [
        ["solve", "--problem", '{"family":"quad1d","params":{"a":0.3}}',
         "--n", "300", "--seed", "17"],
        ["validate", "--plan",
         '{"experiment":"tail","distribution":{"name":"t3"},"n":100,'
         '"t_grid":[0.5,1.0],"replications":200,"seed":17}'],
        ["portfolio", "--synthetic", "2,100", "--p", "0.2", "--beta", "0.05",
         "--seed", "17", "--h", "0.05"],
    ]
    bad = []
    for argv in jobs:
        texts = []
        for run in range(2):
            out = tmp_path / f"{argv[0]}-{run}.json"
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0
            blob = json.loads(out.read_text())
            blob.pop("timestamp")
            texts.append(json.dumps(blob, sort_keys=True))
        if texts[0] != texts[1]:
            bad.append(argv[0])
    capsys.readouterr()
    report(12, "artifact-determinism", not bad, f"differing={bad}")
