"""The four benchmark workloads, their inputs and their correctness gates.

Each workload builds its inputs from the seed in ``__init__`` (the set-up),
then ``prepare()`` builds a fresh operation list for one timed iteration.
Program objects are rebuilt from the same specs in every iteration, so a
cache scoped to a program or a call cannot carry results from one iteration
into the next: each iteration costs what one user run costs.

Gates accept any correct program; none compares against a frozen Monte Carlo
number, because fixes to the random streams will move those numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from types import SimpleNamespace

import numpy as np

import affine

# library functions are looked up on the package at call time, so that the
# traced run's wrappers see the benchmark's own calls too
import saacert as sa
import saacert.cli  # noqa: F401  (binds sa.cli)


def sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def closed_form_n(cert, m_log: int | None) -> list[str]:
    """Check n_required against N = C sigma^2 (ln m + ln 1/p) / eps^2.

    ``m_log`` is None for the fixed theorem, which has no union term.  The
    required N is the smallest integer >= 1 at or above the threshold.
    """
    log_term = math.log(1.0 / cert.p) + (0.0 if m_log is None else math.log(m_log))
    raw = cert.constant * cert.sigma_hat ** 2 * log_term / cert.eps ** 2
    n = cert.n_required
    lo, hi = raw * (1 - 1e-9) - 1e-9, raw * (1 + 1e-9) + 1e-9
    if n < 1 or n < lo or (n > 1 and n - 1 >= hi):
        return [f"n_required={n} disagrees with the closed form {raw!r}"]
    return []


def cvar_lp(loss: np.ndarray, p: float) -> float:
    """CVaR by its LP form: min over t in the losses of t + E[(L - t)_+] / p."""
    return float(np.min(loss + np.mean(np.maximum(loss[None, :] - loss[:, None], 0.0),
                                       axis=1) / p))


def sigma_checks(cert, entries: dict | None = None) -> list[str]:
    bad = []
    comps = dict(cert.sigma_components)
    vals = list(comps.values()) + [cert.sigma_hat]
    if not all(math.isfinite(v) and v >= 0 for v in vals):
        bad.append(f"sigma terms not finite and >= 0: {comps}")
    elif cert.sigma_hat != max(comps.values()):
        bad.append("sigma_hat is not the max of its components")
    if entries is not None:
        bad += [f"component {k} differs from the profile" for k, v in comps.items()
                if entries.get(k) != v]
    return bad


class Certify:
    """Exterior certificate on ball2d plus a fixed-theorem one on quad1d."""

    name = "certify"
    EPS, P, H, N = 0.1, 0.05, 0.02, 2000
    Q_H, Q_N = 0.01, 400
    expected_spans = ("certify.estimate_regularity", "moments.variance_profile",
                      "moments.estimate_holder", "moments.per_scenario_modulus",
                      "geometry.a_alpha", "geometry.max_pairwise",
                      "geometry.min_pairwise_gap", "geometry.greedy_pack",
                      "problem.relaxed_set_grid", "problem.true_fn_grid",
                      "certify.certificate_from_profile")

    def __init__(self, seed: int, workdir: str):
        s_ball, s_quad = sub_seeds(seed, 2)
        ball, quad = sa.make_family("ball2d"), sa.make_family("quad1d", a=0.3)
        self.ball_data = sa.ScenarioSet.from_sampler(ball.oracle.sampler, self.N, s_ball).data
        self.quad_data = sa.ScenarioSet.from_sampler(quad.oracle.sampler, self.Q_N, s_quad).data
        # Robinson bound for the disk of radius 0.6 in the box: D / margin
        radius = 0.6
        self.c_bound = 2 * radius / ball.oracle.slater_margin + 2 * self.H

    def prepare(self):
        ball, quad = sa.make_family("ball2d"), sa.make_family("quad1d", a=0.3)
        emp = sa.build_empirical(ball, sa.ScenarioSet(self.ball_data), np.array([self.EPS]))
        qemp = sa.build_empirical(quad, sa.ScenarioSet(self.quad_data))
        state = {}

        def regularity():
            state["reg"] = sa.estimate_regularity(ball, h=self.H, use_exact_distance=False)
            return state["reg"]

        def profile():
            state["prof"] = sa.variance_profile(ball, emp, "exterior", eps=self.EPS,
                                             h=self.H, c=state["reg"].c_hat)
            return state["prof"]

        def certificate(localized):
            return lambda: sa.certificate_from_profile(
                state["prof"], self.EPS, self.P, m=1, localized=localized,
                n_available=self.N)

        def fixed():
            prof = sa.variance_profile(quad, qemp, "fixed", eps=self.EPS, h=self.Q_H)
            return prof, sa.certificate_from_profile(prof, self.EPS, self.P, m=0,
                                                  n_available=self.Q_N)

        return [("regularity", regularity), ("profile", profile),
                ("certificate", certificate(False)),
                ("certificate-localized", certificate(True)), ("fixed", fixed)]

    def verify(self, label, out) -> list[str]:
        if label == "regularity":
            ok = (math.isfinite(out.c_hat) and 0 <= out.c_hat <= self.c_bound
                  and out.points_used > 0)
            return [] if ok else [f"c_hat={out.c_hat} outside [0, {self.c_bound}]"]
        if label == "profile":
            bad = {k: v for k, v in out.entries.items()
                   if not (math.isfinite(v) and v >= 0)}
            return [f"profile entries not finite and >= 0: {bad}"] if bad else []
        if label == "fixed":
            prof, cert = out
            return sigma_checks(cert, prof.entries) + closed_form_n(cert, None)
        return sigma_checks(out) + closed_form_n(out, 1)

    def summary(self, label, out):
        if label == "regularity":
            return out.c_hat
        if label == "profile":
            return out.entries
        cert = out[1] if label == "fixed" else out
        return [cert.sigma_hat, cert.n_required]


class Calibrate:
    """calibrate_constant over the three acceptance coverage plans."""

    name = "calibrate"
    REPLICATIONS = 300
    # population Monte Carlo draws for the Holder modulus (the library caps
    # them at 20k); 2000 keeps one calibration near 3 s on a 2-CPU machine
    # while the modulus still dominates, as it does at 20k
    MC_BUDGET = 2000
    expected_spans = ("validation.calibrate_constant", "validation.coverage_experiment",
                      "validation.coverage_certificate", "moments.variance_profile",
                      "moments.estimate_holder", "moments.per_scenario_modulus",
                      "geometry.a_alpha", "problem.relaxed_set_grid",
                      "problem.fhat_grid", "problem.true_fn_grid",
                      "certify.certificate_from_profile")

    def __init__(self, seed: int, workdir: str):
        self.seeds = sub_seeds(seed, 3)
        self.plans()            # family and plan construction belong to set-up

    def plans(self):
        quad = sa.make_family("quad1d", a=0.3)
        ball = sa.make_family("ball2d")
        half = sa.make_family("halfspace_box", objective="interior")
        for program in (quad, ball, half):
            program.oracle.mc_budget = self.MC_BUDGET
        reps = self.REPLICATIONS
        s1, s2, s3 = self.seeds
        return [
            sa.CoveragePlan(program=quad, theorem="fixed", event="near-optimal-subset",
                            eps=0.1, p=0.1, replications=reps, seed=s1, h=0.01,
                            name="fixed-quad"),
            sa.CoveragePlan(program=ball, theorem="exterior", event="feasible-relaxed",
                            eps=0.1, p=0.1, replications=reps, seed=s2, h=0.05,
                            name="exterior-ball"),
            sa.CoveragePlan(program=half, theorem="interior", event="feasible-hard",
                            eps=0.3, p=0.1, replications=reps, seed=s3, h=0.05,
                            name="interior-halfspace"),
        ]

    def prepare(self):
        plans = self.plans()
        return [("calibrate", lambda: sa.calibrate_constant(plans))]

    def verify(self, label, out) -> list[str]:
        names = ("fixed-quad", "exterior-ball", "interior-halfspace")
        c = out.c_star
        bad = []
        if out.monotone_confirmed is not True:
            bad.append("monotonicity at 2*C* not confirmed")
        for cv in (c, 2 * c):
            row = out.matrix.get(cv, {})
            if sorted(row) != sorted(names) or not all(row.values()):
                bad.append(f"row C={cv} does not pass every plan: {row}")
        for name in names:
            rep = out.reports[c].get(name, {})
            succ, reps = rep.get("successes", -1), rep.get("replications", 0)
            if reps < 1 or not 0 <= succ <= reps or rep.get("n_used", 0) < 1:
                bad.append(f"{name}: malformed report at C*")
                continue
            z = 1.959963984540054
            ph = succ / reps
            den = 1 + z * z / reps
            lo = ((ph + z * z / (2 * reps))
                  - z * math.sqrt(ph * (1 - ph) / reps + z * z / (4 * reps ** 2))) / den
            lo = 0.0 if succ == 0 else max(0.0, lo)
            if lo < rep["floor"] - 0.02 - 1e-12 or abs(rep["frequency"] - ph) > 1e-12:
                bad.append(f"{name}: coverage at C* fails (Wilson low {lo:.4f})")
        return bad

    def summary(self, label, out):
        return {"c_star": out.c_star, "matrix": {str(k): v for k, v in out.matrix.items()},
                "n_used": {n: r.get("n_used") for n, r in out.reports[out.c_star].items()}}


class Check:
    """Deviation ledger plus certificate checker on exactly solvable trials."""

    name = "check"
    TRIALS_PER_SCHEME = 300
    expected_spans = ("certify.deviation_ledger", "certify.check_certificates",
                      "problem.build_empirical", "problem.true_fn_grid",
                      "problem.fhat_grid")

    def __init__(self, seed: int, workdir: str):
        self.trials = []
        for k, scheme in enumerate(affine.SCHEMES):
            rng = np.random.default_rng([seed, k])
            self.trials += affine.draw_trials(rng, scheme, self.TRIALS_PER_SCHEME)

    @staticmethod
    def program(trial):
        a, b, m = trial.a, trial.b, trial.m

        def integrand(i):
            def fn(x, xis):
                return a[i] * x[0] + b[i] + xis[:, 2 * i] * x[0] + xis[:, 2 * i + 1]
            return fn

        def true_fn(i):
            return lambda x: a[i] * x[0] + b[i]

        program = sa.StochasticProgram(
            objective=integrand(0),
            constraints=[integrand(i) for i in range(1, m + 1)],
            space=sa.SpaceDescriptor.interval(0.0, 1.0),
            holder=[sa.HolderInfo(1.0)] * (m + 1),
            oracle=sa.TrueOracle(fns=[true_fn(i) for i in range(m + 1)]),
            convex=True, name="affine-trial")
        row = np.empty(2 * (m + 1))
        row[0::2], row[1::2] = trial.u, trial.v
        return program, sa.ScenarioSet(row[None, :])

    def prepare(self):
        ops = []
        for trial in self.trials:
            program, scen = self.program(trial)
            emp = sa.build_empirical(program, scen, trial.relax)

            def op(trial=trial, emp=emp, probes=trial.probes()):
                ledger = sa.deviation_ledger(emp, gamma=trial.gamma, h=0.25,
                                             anchors=trial.anchors,
                                             probes=probes, tol_active=1e-9)
                report = sa.check_certificates(emp, ledger, trial.scheme,
                                               params=trial.params)
                return trial, emp.relaxations, report.holds

            ops.append((trial.scheme, op))
        return ops

    def verify(self, label, out) -> list[str]:
        trial, relaxations, holds = out
        return affine.violations(trial, relaxations) if holds else []

    def summary(self, label, out):
        return bool(out[2])


class Cli:
    """A fixed list of in-process ``saacert`` CLI calls."""

    name = "cli"
    P, BETA, H = 0.2, 0.05, 0.05      # portfolio CVaR level, budget, grid step
    RADIUS = 2.0
    expected_spans = ("cli.main", "solve.subgradient_solve", "solve.grid_solve",
                      "apps.build_portfolio", "apps.build_lasso", "apps.cvar",
                      "moments.variance_profile", "problem.fhat_grid")

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.seeds = sub_seeds(seed, 5)
        rng = np.random.default_rng(self.seeds[4])
        feats = rng.normal(size=(500, 5)) * np.array([1.0, 2.0, 0.5, 1.5, 1.0])
        resp = feats @ np.array([0.8, -0.4, 0.0, 0.3, 0.0]) + 0.3 * rng.standard_t(3, 500)
        self.csv = os.path.join(workdir, "lasso.csv")
        np.savetxt(self.csv, np.hstack([feats, resp[:, None]]), delimiter=",",
                   header="f1,f2,f3,f4,f5,y", comments="")
        s1, s2, s3, s4 = (str(s % 2 ** 31) for s in self.seeds[:4])
        pf = ["--p", str(self.P), "--beta", str(self.BETA)]
        ball = '{"family":"ball2d"}'
        self.jobs = [
            ("portfolio-certify", ["portfolio", "--synthetic", "2,100", *pf,
                                   "--certify", "--seed", s1]),
            ("portfolio-subgradient", ["portfolio", "--synthetic", "3,200", *pf,
                                       "--method", "subgradient", "--seed", s2]),
            ("solve-subgradient", ["solve", "--problem", ball, "--n", "2000",
                                   "--method", "subgradient", "--relax", "0.1",
                                   "--seed", s3]),
            ("solve-grid", ["solve", "--problem", ball, "--n", "2000",
                            "--h", "0.005", "--seed", s3]),
            ("lasso", ["lasso", "--data", self.csv, "--radius", str(self.RADIUS),
                       "--weighted", "--seed", s4]),
            ("certify-sigma", ["certify", "--theorem", "exterior", "--sigma", "2.0",
                               "--eps", "0.1", "--p", "0.05", "--m", "3"]),
        ]
        self.portfolio_seed = int(s1)
        self._scan = None

    def prepare(self):
        ops = []
        for label, argv in self.jobs:
            out = os.path.join(self.workdir, f"{label}.json")
            if os.path.exists(out):
                os.remove(out)
            ops.append((label, lambda argv=argv, out=out:
                        (sa.cli.main(argv + ["--out", out]), out)))
        return ops

    def two_asset_scan(self):
        """Best feasible mean loss over a fine weight scan, CVaR by its LP form."""
        if self._scan is None:
            ret = sa.ReturnsDataset.synthetic(2, 100, self.portfolio_seed).returns
            best = math.inf
            for w in np.linspace(0.0, 1.0, 2001):
                loss = -(ret @ np.array([w, 1.0 - w]))
                if cvar_lp(loss, self.P) <= self.BETA + 1e-12:
                    best = min(best, float(np.mean(loss)))
            self._scan = (best, 1e-3 + self.H * float(np.abs(ret).max()), ret)
        return self._scan

    def verify(self, label, out) -> list[str]:
        code, path = out
        if code != 0:
            return [f"exit code {code}"]
        with open(path) as handle:
            art = json.load(handle)
        kind = dict(self.jobs)[label][0]
        missing = [k for k in ("schema_version", "kind", "seed", "params", "results",
                               "timestamp") if k not in art]
        if missing or art["kind"] != kind or art["schema_version"] != 1:
            return [f"artifact header wrong: missing={missing} kind={art.get('kind')}"]
        res = art["results"]
        try:
            return self._verify_results(label, res)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"artifact results malformed: {exc!r}"]

    def _verify_results(self, label, res) -> list[str]:
        bad = []
        if label == "certify-sigma":
            return closed_form_n(SimpleNamespace(**res), res["m"])
        sol = res["solution"]
        x = np.asarray(sol["x"], dtype=float)
        if not (np.all(np.isfinite(x)) and math.isfinite(sol["value"])):
            bad.append("solution not finite")
        if label.startswith("portfolio"):
            w = np.asarray(res["weights"], dtype=float)
            if np.any(w < -1e-9) or abs(w.sum() - 1.0) > 1e-6:
                bad.append(f"weights {w.tolist()} not on the simplex")
        if label == "portfolio-certify":
            best, slack, ret = self.two_asset_scan()
            cv = cvar_lp(-(ret @ w), self.P)
            if not sol["feasible"] or cv > self.BETA + 1e-9:
                bad.append(f"portfolio infeasible (CVaR {cv})")
            if abs(sol["value"] - best) > slack:
                bad.append(f"portfolio value {sol['value']} not within {slack} "
                           f"of the scan's {best}")
            bad += closed_form_n(SimpleNamespace(**res["certificate"]), 1)
        if label.startswith("solve"):
            if np.any(np.abs(x) > 1 + 1e-9) or len(sol["residuals"]) != 1:
                bad.append("solve point outside the box or residuals malformed")
            if label == "solve-grid" and not (sol["feasible"] and sol["residuals"][0] <= 1e-9):
                bad.append("grid solution not feasible")
        if label == "lasso":
            coef = np.asarray(res["coefficients"], dtype=float)
            diag = np.asarray(res["diag"], dtype=float)
            if len(coef) != 5 or float(np.abs(coef * diag).sum()) > self.RADIUS + 1e-6:
                bad.append("lasso coefficients outside the weighted l1 ball")
        return bad

    def summary(self, label, out):
        with open(out[1]) as handle:
            art = json.load(handle)
        art.pop("timestamp", None)
        return digest(art)


WORKLOADS = {cls.name: cls for cls in (Certify, Calibrate, Check, Cli)}


def versions() -> dict:
    return {"saacert": sa.__version__, "numpy": np.__version__}
