"""Command-line entry point.

Every subcommand emits one JSON artifact (stdout or ``--out``) with a
``schema_version``, its subcommand ``kind``, the seed used (when
stochastic), the parameters, the results, and a timestamp.  Validation
failures exit with status 2 and a machine-readable error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .apps import (ReturnsDataset, _returns_sampler, build_lasso,
                   build_portfolio, cvar, lasso_scenarios)
from .certify import certificate_from_profile, certificate_from_sigma
from .distributions import make_distribution
from .errors import ConfigError, SaacertError
from .families import make_family
from .geometry import SpaceDescriptor, a_alpha, entropy_number
from .moments import VarianceProfile, variance_profile
from .problem import ScenarioSet, build_empirical, read_table
from .solve import SolverConfig, solve
from .validation import (CoveragePlan, calibrate_constant, coverage_experiment,
                         rate_experiment, tail_experiment,
                         uniform_tail_experiment)

SCHEMA_VERSION = 1


def _sanitize(obj):
    """Make numpy-laden structures JSON-serializable."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return repr(obj)
    return obj


def _need(spec: dict, key: str):
    """``spec[key]``, or a ConfigError naming the missing field."""
    if key not in spec:
        raise ConfigError(f"spec is missing required field {key!r}",
                          missing=key, have=sorted(spec))
    return spec[key]


def space_from_spec(spec) -> SpaceDescriptor:
    """Build a space descriptor from a CLI JSON spec."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("space spec must be a JSON object with a 'kind'")
    kind = spec["kind"]
    kw = {"norm": spec["norm"]} if spec.get("norm") else {}
    if kind == "box":
        return SpaceDescriptor.box(_need(spec, "lo"), _need(spec, "hi"), **kw)
    if kind == "ball":
        return SpaceDescriptor.ball(_need(spec, "center"), _need(spec, "radius"),
                                    **kw)
    if kind == "simplex":
        return SpaceDescriptor.simplex(int(_need(spec, "dim")), **kw)
    if kind == "cloud":
        return SpaceDescriptor.cloud(_need(spec, "points"), **kw)
    if kind == "product":
        return SpaceDescriptor.product(*map(space_from_spec, _need(spec, "parts")))
    raise ConfigError(f"unknown space kind {kind!r}",
                      allowed=["box", "ball", "simplex", "cloud", "product"])


def _load_json(path_or_inline):
    """Accept a path to a JSON file or an inline JSON string."""
    text = path_or_inline
    if not text.lstrip().startswith(("{", "[")):
        if not os.path.exists(path_or_inline):
            raise ConfigError("no such file", path=path_or_inline)
        with open(path_or_inline) as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc


def _c_star(source) -> float:
    """The constant C* of a calibration artifact (file or inline JSON)."""
    calib = _load_json(source)
    return float(_need(calib.get("results", calib), "c_star"))


def _program_from_spec(spec):
    obj = _load_json(spec) if isinstance(spec, str) else spec
    family = _need(obj, "family")
    try:
        return make_family(family, **obj.get("params", {}))
    except TypeError as exc:
        raise ConfigError(f"bad family params: {exc}", family=family) from exc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results dict, seed or None)


def _cmd_entropy(args):
    space = space_from_spec(args.space)
    ent = entropy_number(space, args.theta, h=args.h)
    results = {"size": ent.net_size, "H": ent.value, "theta": ent.theta,
               "bracket": list(ent.bracket) if ent.bracket else None,
               "within_bracket": ent.within_bracket()}
    return results, None


def _cmd_aalpha(args):
    space = space_from_spec(args.space)
    comp = a_alpha(space, args.alpha, h=args.h)
    results = {"A_alpha": comp.value, "alpha": comp.alpha,
               "diameter": comp.diameter, "levels": comp.levels,
               "truncation": comp.truncation, "tail_bound": comp.tail_bound,
               "entropy_model": comp.entropy_model,
               "approximate": comp.approximate}
    return results, None


def _cmd_certify(args):
    constant = _c_star(args.C_from) if args.C_from else args.C
    if args.sigma is not None:
        cert = certificate_from_sigma(args.theorem, args.sigma, args.eps,
                                      args.p, m=args.m, constant=constant,
                                      scope=args.scope,
                                      slater_margin=args.slater,
                                      n_available=args.n_available)
    elif args.profile:
        raw = _load_json(args.profile)
        prof = VarianceProfile(theorem=raw.get("theorem", args.theorem),
                               entries={k: float(v)
                                        for k, v in _need(raw, "entries").items()},
                               anchors=raw.get("anchors", {}))
        if prof.theorem != args.theorem:
            raise ConfigError("profile theorem does not match --theorem",
                              profile=prof.theorem, requested=args.theorem)
        cert = certificate_from_profile(prof, args.eps, args.p, m=args.m,
                                        constant=constant, scope=args.scope,
                                        localized=args.localized,
                                        slater_margin=args.slater,
                                        n_available=args.n_available)
    else:
        raise ConfigError("certify needs --sigma or --profile")
    return cert.to_json(), None


def _relax_vector(raw, m):
    if raw is None:
        return np.zeros(m)
    vals = [float(v) for v in raw.split(",")]
    if len(vals) == 1:
        return np.full(m, vals[0])
    if len(vals) != m:
        raise ConfigError("relaxation list does not match constraint count",
                          m=m, got=len(vals))
    return np.array(vals)


def _cmd_solve(args):
    program = _program_from_spec(args.problem)
    if args.scenarios:
        scen = ScenarioSet.from_csv(args.scenarios)
    else:
        if args.n is None:
            raise ConfigError("solve needs --scenarios or --n with --seed")
        if program.oracle is None or program.oracle.sampler is None:
            raise ConfigError("family has no sampler; supply --scenarios")
        scen = ScenarioSet.from_sampler(program.oracle.sampler, args.n, args.seed)
    emp = build_empirical(program, scen,
                          _relax_vector(args.relax, program.n_constraints))
    config = SolverConfig(method=args.method, grid_h=args.h,
                          budget=args.budget, c0=args.c0)
    res = solve(emp, config)
    results = {"solution": res.to_json(),
               "problem": {"family": program.name,
                           "constraints": program.n_constraints,
                           "n_scenarios": scen.n,
                           "relaxations": emp.relaxations.tolist()}}
    return results, args.seed


def _plan_program(plan: dict):
    fam = _need(plan, "family")
    if isinstance(fam, str):
        fam = {"family": fam, "params": plan.get("params", {})}
    return _program_from_spec(fam)


def _coverage_plan(spec: dict) -> CoveragePlan:
    """One coverage plan from its JSON spec, for ``validate`` and ``calibrate``."""
    return CoveragePlan(
        program=_plan_program(spec), theorem=_need(spec, "theorem"),
        event=_need(spec, "event"), eps=float(_need(spec, "eps")),
        p=float(_need(spec, "p")),
        replications=int(spec.get("replications", 400)),
        seed=int(spec.get("seed", 0)), h=float(spec.get("h", 0.02)),
        pilot_n=int(spec.get("pilot_n", 400)), name=spec.get("name", ""))


def _cmd_validate(args):
    plan = _load_json(args.plan)
    kind = plan.get("experiment")
    seed = int(plan.get("seed", 0))
    if kind == "tail":
        dist_spec = plan.get("distribution", {"name": "t3"})
        dist = make_distribution(_need(dist_spec, "name"),
                                 **{k: v for k, v in dist_spec.items()
                                    if k != "name"})
        rep = tail_experiment(dist, int(_need(plan, "n")),
                              _need(plan, "t_grid"),
                              int(_need(plan, "replications")),
                              float(plan.get("constant", 3.0)), seed)
        return rep.to_json(), seed
    if kind == "uniform-tail":
        program = _plan_program(plan)
        rep = uniform_tail_experiment(
            program, int(_need(plan, "n")), _need(plan, "t_grid"),
            int(_need(plan, "replications")),
            float(plan.get("constant", 3.0)), seed,
            h=float(plan.get("h", 0.25)))
        return rep.to_json(), seed
    if kind == "coverage":
        constant = (_c_star(plan["c_from"]) if "c_from" in plan
                    else float(plan.get("constant", 1.0)))
        rep = coverage_experiment(replace(_coverage_plan(plan), constant=constant))
        return rep.to_json(), seed
    if kind == "rate":
        program = _plan_program(plan)
        rep = rate_experiment(program, _need(plan, "n_grid"),
                              int(_need(plan, "replications")), seed,
                              h=float(plan.get("h", 0.25)))
        return rep.to_json(), seed
    raise ConfigError(f"unknown experiment {kind!r}",
                      allowed=["tail", "uniform-tail", "coverage", "rate"])


def _cmd_calibrate(args):
    spec = _load_json(args.families)
    plan_specs = _need(spec, "plans") if isinstance(spec, dict) else spec
    plans = [_coverage_plan(ps) for ps in plan_specs]
    c_grid = spec.get("c_grid") if isinstance(spec, dict) else None
    result = calibrate_constant(plans, c_grid=c_grid)
    return result.to_json(), plans[0].seed


def _cmd_portfolio(args):
    if args.returns:
        dataset = ReturnsDataset.from_csv(args.returns)
        sampler = None
    elif args.synthetic:
        assets, n = (int(v) for v in args.synthetic.split(","))
        dataset = ReturnsDataset.synthetic(assets, n, args.seed)
        _, sampler = _returns_sampler(assets)
    else:
        raise ConfigError("portfolio needs --returns or --synthetic")
    problem = build_portfolio(dataset, args.p, args.beta, sampler=sampler)
    if problem.program.oracle is not None:
        problem.program.oracle.mc_budget = 20_000
    emp = build_empirical(problem.program,
                          ScenarioSet(dataset.returns, seed=args.seed),
                          np.zeros(1))
    config = SolverConfig(method=args.method, grid_h=args.h,
                          budget=args.budget)
    res = solve(emp, config)
    x, t = problem.split(res.x)
    results = {"solution": res.to_json(),
               "weights": x.tolist(), "t": t,
               "cvar_of_solution": cvar(-(dataset.returns @ x), args.p),
               "p": args.p, "beta": args.beta,
               "t_bounds": list(problem.t_bounds),
               "dataset": {"assets": dataset.assets, "n": dataset.n,
                           "source": dataset.source}}
    if args.certify:
        if problem.program.oracle is None:
            raise ConfigError("certification needs a synthetic dataset "
                              "(population sampler required)")
        # anchor at the solved portfolio: the coarse certification grid has
        # no guarantee of containing a population-feasible point
        prof = variance_profile(problem.program, emp, "exterior",
                                eps=args.eps, h=args.cert_h,
                                anchors={"x_star": res.x},
                                c=args.regularity_c)
        cert = certificate_from_profile(prof, args.eps, args.prob, m=1,
                                        constant=args.C,
                                        n_available=dataset.n)
        results["certificate"] = cert.to_json()
    return results, args.seed


def _cmd_lasso(args):
    header, data = read_table(args.data)
    if data.shape[1] < 2:
        raise ConfigError("lasso data needs feature columns plus a response "
                          "column", columns=data.shape[1])
    features, response = data[:, :-1], data[:, -1]
    problem = build_lasso(features, response, args.radius,
                          weighted=args.weighted)
    emp = build_empirical(problem.program,
                          lasso_scenarios(features, response,
                                          weighted=args.weighted))
    config = SolverConfig(method=args.method, grid_h=args.h,
                          budget=args.budget)
    res = solve(emp, config)
    results = {"solution": res.to_json(),
               "coefficients": problem.to_original(res.x).tolist(),
               "features": header[:-1], "response": header[-1],
               "radius": args.radius, "weighted": args.weighted,
               "diag": problem.diag.tolist() if problem.diag is not None else None}
    return results, args.seed


_REQUIRED_ARTIFACT_FIELDS = ("schema_version", "kind", "params", "results",
                             "timestamp")


def _cmd_report(args):
    artifact = _load_json(args.artifact)
    missing = [f for f in _REQUIRED_ARTIFACT_FIELDS if f not in artifact]
    if missing:
        raise ConfigError("artifact is missing required fields",
                          missing=missing)
    if artifact["schema_version"] != SCHEMA_VERSION:
        raise ConfigError("unsupported schema version",
                          got=artifact["schema_version"],
                          supported=SCHEMA_VERSION)
    summary = [f"kind: {artifact['kind']}",
               f"seed: {artifact.get('seed')}"]
    results = artifact["results"]
    for key in ("passed", "n_required", "c_star", "frequency", "slope",
                "value", "size", "H", "A_alpha"):
        if isinstance(results, dict) and key in results:
            summary.append(f"{key}: {results[key]}")
    return {"valid": True, "kind": artifact["kind"], "summary": summary}, None


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saacert",
        description="Finite-sample certificates for sample-average "
                    "approximation with stochastic constraints.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed_default=0):
        sp.add_argument("--out", help="write the JSON artifact to this path")
        sp.add_argument("--seed", type=int, default=seed_default)

    sp = sub.add_parser("entropy", help="packing net size and entropy number")
    sp.add_argument("--space", required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--h", type=float, default=None)
    common(sp)
    sp.set_defaults(handler=_cmd_entropy)

    sp = sub.add_parser("aalpha", help="chaining complexity A_alpha")
    sp.add_argument("--space", required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--h", type=float, default=None)
    common(sp)
    sp.set_defaults(handler=_cmd_aalpha)

    sp = sub.add_parser("certify", help="sample-size certificate")
    sp.add_argument("--theorem", required=True,
                    choices=["fixed", "exterior", "interior"])
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--C", type=float, default=1.0)
    sp.add_argument("--C-from", dest="C_from",
                    help="calibration artifact supplying the constant")
    sp.add_argument("--sigma", type=float, default=None,
                    help="variance aggregate (bypasses --profile)")
    sp.add_argument("--profile", help="variance profile JSON (file or inline)")
    sp.add_argument("--scope", default="all")
    sp.add_argument("--localized", action="store_true")
    sp.add_argument("--slater", type=float, default=None)
    sp.add_argument("--n-available", dest="n_available", type=int, default=None)
    common(sp)
    sp.set_defaults(handler=_cmd_certify)

    sp = sub.add_parser("solve", help="solve an empirical problem")
    sp.add_argument("--problem", required=True,
                    help="problem config JSON (file or inline)")
    sp.add_argument("--scenarios", help="scenario CSV (header xi_1,...,xi_k)")
    sp.add_argument("--n", type=int, default=None,
                    help="draw this many scenarios from the family sampler")
    sp.add_argument("--relax", default=None,
                    help="relaxation level(s), comma separated")
    sp.add_argument("--method", default="grid",
                    choices=["grid", "subgradient"])
    sp.add_argument("--h", type=float, default=0.01)
    sp.add_argument("--budget", type=int, default=2000)
    sp.add_argument("--c0", type=float, default=0.1)
    common(sp)
    sp.set_defaults(handler=_cmd_solve)

    sp = sub.add_parser("validate", help="run a Monte Carlo experiment plan")
    sp.add_argument("--plan", required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_validate)

    sp = sub.add_parser("calibrate", help="calibrate the theorem constant C")
    sp.add_argument("--families", required=True,
                    help="JSON list of coverage plans (file or inline)")
    common(sp)
    sp.set_defaults(handler=_cmd_calibrate)

    sp = sub.add_parser("portfolio", help="CVaR-constrained portfolio")
    sp.add_argument("--returns", help="returns CSV")
    sp.add_argument("--synthetic", help="ASSETS,N synthetic dataset")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--method", default="grid",
                    choices=["grid", "subgradient"])
    sp.add_argument("--h", type=float, default=0.05)
    sp.add_argument("--budget", type=int, default=4000)
    sp.add_argument("--certify", action="store_true")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--prob", type=float, default=0.1)
    sp.add_argument("--C", type=float, default=1.0)
    sp.add_argument("--cert-h", dest="cert_h", type=float, default=0.2)
    sp.add_argument("--regularity-c", dest="regularity_c", type=float,
                    default=1.0)
    common(sp)
    sp.set_defaults(handler=_cmd_portfolio)

    sp = sub.add_parser("lasso", help="l1-ball least squares")
    sp.add_argument("--data", required=True,
                    help="CSV with feature columns then the response column")
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--weighted", action="store_true")
    sp.add_argument("--method", default="subgradient",
                    choices=["grid", "subgradient"])
    sp.add_argument("--h", type=float, default=0.05)
    sp.add_argument("--budget", type=int, default=4000)
    common(sp)
    sp.set_defaults(handler=_cmd_lasso)

    sp = sub.add_parser("report", help="validate and summarize an artifact")
    sp.add_argument("artifact")
    common(sp)
    sp.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        results, seed = args.handler(args)
    except SaacertError as exc:
        json.dump(_sanitize(exc.to_json()), sys.stderr)
        sys.stderr.write("\n")
        return 2
    params = {k: v for k, v in vars(args).items()
              if k not in ("handler", "command", "out") and v is not None}
    artifact = {
        "schema_version": SCHEMA_VERSION,
        "kind": args.command,
        "seed": seed,
        "params": _sanitize(params),
        "results": _sanitize(results),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(artifact, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
