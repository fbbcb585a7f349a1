"""Command-line entry point.

Every subcommand emits one JSON artifact (stdout or ``--out``) with a
``schema_version``, its subcommand ``kind``, the seed used (when
stochastic), the parameters, the results, and a timestamp.  Validation
failures exit with status 2 and a machine-readable error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .apps import (ReturnsDataset, _returns_sampler, build_lasso,
                   build_portfolio, cvar, lasso_scenarios)
from .certify import certificate_from_profile, certificate_from_sigma
from .errors import ConfigError, SaacertError, open_path, to_json
from .families import _resolve_dist, make_family
from .geometry import KINDS, SpaceDescriptor, a_alpha, entropy_number
from .moments import THEOREMS, VarianceProfile, variance_profile
from .problem import ScenarioSet, build_empirical, read_table
from .solve import SolverConfig, solve
from .validation import (CoveragePlan, calibrate_constant, coverage_experiment,
                         rate_experiment, tail_experiment,
                         uniform_tail_experiment)

SCHEMA_VERSION = 1


# Named kinds: each turns one flag or JSON spec value into its type and
# rejects the rest with a ValueError.  argparse takes them as ``type=`` and
# ``_need`` as kinds, so a flag and a spec field of one kind accept the same
# values.  Domain ranges (alpha in (0, 1], hi >= lo, ...) are checked where
# the library uses the value, and raise ConfigError there.


def _kind(name: str, convert, test):
    def kind(value):
        out = convert(value)
        if not test(out):
            raise ValueError(f"expected {name}, got {value!r}")
        return out
    kind.__name__ = name
    return kind


finite = _kind("finite float", float, math.isfinite)
positive = _kind("positive finite float", finite, lambda v: v > 0)
count = _kind("int >= 1", int, lambda v: v >= 1)
natural = _kind("int >= 0", int, lambda v: v >= 0)


def numbers(text) -> list[float]:
    """Comma-separated finite floats, as ``--relax`` takes them."""
    return [finite(part) for part in str(text).split(",")]


def sizes(text) -> tuple[int, int]:
    """``ASSETS,N`` (two ints >= 1), as ``--synthetic`` takes it."""
    assets, n = map(count, str(text).split(","))
    return assets, n


def _convert(kind, value):
    """``value`` as ``kind``: a kind; ``None`` for any JSON value, ``list`` or
    ``dict`` for a JSON array or object, each taken as is; or ``[kind]`` for
    a JSON array converted element-wise."""
    if isinstance(kind, list):
        return [_convert(kind[0], item) for item in _convert(list, value)]
    if kind in (list, dict) and not isinstance(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value if kind in (None, list, dict) else kind(value)


_REQUIRED = object()


def _need(spec: dict, key: str, kind=None, default=_REQUIRED):
    """``spec[key]`` converted by ``kind`` (see ``_convert``), or ``default``
    when it is absent.  Raises a ConfigError naming the field when ``spec``
    is not a JSON object, when a field without a default is missing, or
    when its value is not of ``kind``.
    """
    if not isinstance(spec, dict):
        raise ConfigError("spec must be a JSON object", field=key,
                          got=type(spec).__name__)
    if key not in spec:
        if default is _REQUIRED:
            raise ConfigError(f"spec is missing required field {key!r}",
                              missing=key, have=sorted(spec))
        return default
    value = spec[key]
    try:
        return _convert(kind, value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"field {key!r} is invalid: {exc}",
                          field=key, value=value) from exc


# per space kind: its constructor and the spec fields it takes, in order
_SPACES = {
    "box": (SpaceDescriptor.box, (("lo", [finite]), ("hi", [finite]))),
    "ball": (SpaceDescriptor.ball, (("center", [finite]), ("radius", finite))),
    "simplex": (SpaceDescriptor.simplex, (("dim", count),)),
    "cloud": (SpaceDescriptor.cloud, (("points", [[finite]]),)),
    "product": (lambda parts, **_: SpaceDescriptor.product(
        *map(space_from_spec, parts)), (("parts", list),)),
}


def space_from_spec(spec) -> SpaceDescriptor:
    """Build a space descriptor from a CLI JSON spec (inline or a file)."""
    if isinstance(spec, str):
        spec = _load_json(spec)
    kind = _need(spec, "kind")
    norm = _need(spec, "norm", default=None)
    if not isinstance(kind, str) or kind not in _SPACES:
        raise ConfigError(f"unknown space kind {kind!r}", allowed=list(KINDS))
    build, fields = _SPACES[kind]
    space = build(*(_need(spec, name, of) for name, of in fields),
                  **({"norm": norm} if norm else {}))
    if norm and norm != space.norm:  # a product is measured in l1 only
        raise ConfigError(f"{kind} spaces are measured in {space.norm} only",
                          field="norm", value=norm, allowed=[space.norm])
    return space


def _load_json(path_or_inline):
    """Accept a path to a JSON file or an inline JSON string.  ``NaN`` and
    ``Infinity`` tokens and float literals that overflow (``1e400``) raise a
    ConfigError naming the innermost field that holds them."""
    text = path_or_inline
    if not text.lstrip().startswith(("{", "[")):
        with open_path(path_or_inline) as handle:
            text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    _check_finite(data)
    return data


def _check_finite(value, field=None):
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, key)
    elif isinstance(value, list):
        for item in value:
            _check_finite(item, field)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"field {field!r} is not a finite number",
                          field=field, value=value)


def _c_star(source) -> float:
    """The constant C* of a calibration artifact (file or inline JSON)."""
    calib = _load_json(source)
    return _need(_need(calib, "results", default=calib), "c_star", finite)


def _program(spec):
    """The program of a problem spec or plan (a JSON object, inline or a
    file): ``family`` is a name, with ``params``, or such a spec itself."""
    spec = _load_json(spec) if isinstance(spec, str) else spec
    family = _need(spec, "family")
    if not isinstance(family, str):
        return _program(family)
    return make_family(family, **_need(spec, "params", dict, {}))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, seed or None); results is a
# dict or a result dataclass, encoded by ``to_json``


def _cmd_entropy(args):
    space = space_from_spec(args.space)
    ent = entropy_number(space, args.theta, h=args.h)
    results = {"size": ent.net_size, "H": ent.value, "theta": ent.theta,
               "bracket": list(ent.bracket) if ent.bracket else None,
               "within_bracket": ent.within_bracket()}
    return results, None


def _cmd_aalpha(args):
    space = space_from_spec(args.space)
    comp = a_alpha(space, args.alpha)
    results = {"A_alpha": comp.value, "alpha": comp.alpha,
               "diameter": comp.diameter, "levels": comp.levels,
               "truncation": comp.truncation, "tail_bound": comp.tail_bound,
               "entropy_model": comp.entropy_model}
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
        entries = _need(raw, "entries", dict)
        anchors = _need(raw, "anchors", dict, {})
        prof = VarianceProfile(theorem=_need(raw, "theorem", default=args.theorem),
                               entries={k: _need(entries, k, finite) for k in entries},
                               anchors={k: _need(anchors, k, [finite])
                                        for k in anchors})
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
    return cert, None


def _relax_vector(args, m):
    vals = [0.0] if args.relax is None else _need(vars(args), "relax", numbers)
    if len(vals) == 1:
        return np.full(m, vals[0])
    if len(vals) != m:
        raise ConfigError("relaxation list does not match constraint count",
                          m=m, got=len(vals))
    return np.array(vals)


def _cmd_solve(args):
    program = _program(args.problem)
    if args.scenarios:
        scen = ScenarioSet.from_csv(args.scenarios)
    else:
        if args.n is None:
            raise ConfigError("solve needs --scenarios or --n with --seed")
        scen = ScenarioSet.from_sampler(program.sampler, args.n, args.seed)
    emp = build_empirical(program, scen,
                          _relax_vector(args, program.n_constraints))
    config = SolverConfig(method=args.method, grid_h=args.h,
                          budget=args.budget, c0=args.c0)
    res = solve(emp, config)
    results = {"solution": res,
               "problem": {"family": program.name,
                           "constraints": program.n_constraints,
                           "n_scenarios": scen.n,
                           "relaxations": emp.relaxations.tolist()}}
    return results, args.seed


def _coverage_plan(spec: dict) -> CoveragePlan:
    """One coverage plan from its JSON spec, for ``validate`` and ``calibrate``."""
    return CoveragePlan(
        program=_program(spec), theorem=_need(spec, "theorem", str),
        event=_need(spec, "event", str), eps=_need(spec, "eps", finite),
        p=_need(spec, "p", finite),
        replications=_need(spec, "replications", count, 400),
        seed=_need(spec, "seed", natural, 0),
        h=_need(spec, "h", positive, 0.02),
        pilot_n=_need(spec, "pilot_n", count, 400),
        name=_need(spec, "name", default=""))


def _cmd_validate(args):
    plan = _load_json(args.plan)
    kind = _need(plan, "experiment", default=None)
    seed = _need(plan, "seed", natural, 0)
    if kind in ("tail", "uniform-tail"):
        shared = (_need(plan, "n", count), _need(plan, "t_grid", [finite]),
                  _need(plan, "replications", count),
                  _need(plan, "constant", finite, 3.0), seed)
    if kind == "tail":
        rep = tail_experiment(
            _resolve_dist(_need(plan, "distribution", default="t3")), *shared)
    elif kind == "uniform-tail":
        rep = uniform_tail_experiment(_program(plan), *shared,
                                      h=_need(plan, "h", positive, 0.25))
    elif kind == "coverage":
        constant = (_c_star(_need(plan, "c_from", str)) if "c_from" in plan
                    else _need(plan, "constant", finite, 1.0))
        rep = coverage_experiment(replace(_coverage_plan(plan), constant=constant))
    elif kind == "rate":
        rep = rate_experiment(_program(plan), _need(plan, "n_grid", [count]),
                              _need(plan, "replications", count), seed,
                              h=_need(plan, "h", positive, 0.25))
    else:
        raise ConfigError(f"unknown experiment {kind!r}",
                          allowed=["tail", "uniform-tail", "coverage", "rate"])
    return rep, seed


def _cmd_calibrate(args):
    spec = _load_json(args.families)
    spec = {"plans": spec} if isinstance(spec, list) else spec
    plans = [_coverage_plan(ps) for ps in _need(spec, "plans", list)]
    result = calibrate_constant(plans,
                                c_grid=_need(spec, "c_grid", [finite], None))
    return result, plans[0].seed


def _cmd_portfolio(args):
    if args.returns:
        dataset = ReturnsDataset.from_csv(args.returns)
        sampler = None
    elif args.synthetic:
        assets, n = _need(vars(args), "synthetic", sizes)
        dataset = ReturnsDataset.synthetic(assets, n, args.seed)
        sampler = _returns_sampler(assets)
    else:
        raise ConfigError("portfolio needs --returns or --synthetic")
    problem = build_portfolio(dataset, args.p, args.beta, sampler=sampler)
    emp = build_empirical(problem.program,
                          ScenarioSet(dataset.returns, seed=args.seed),
                          np.zeros(1))
    config = SolverConfig(method=args.method, grid_h=args.h,
                          budget=args.budget)
    res = solve(emp, config)
    x, t = problem.split(res.x)
    results = {"solution": res,
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
        results["certificate"] = cert
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
    results = {"solution": res,
               "coefficients": problem.to_original(res.x).tolist(),
               "features": header[:-1], "response": header[-1],
               "radius": args.radius, "weighted": args.weighted,
               "diag": problem.diag.tolist() if problem.diag is not None else None}
    return results, args.seed


_REQUIRED_ARTIFACT_FIELDS = ("schema_version", "kind", "params", "results",
                             "timestamp")


def _cmd_report(args):
    artifact = _load_json(args.artifact)
    missing = [f for f in _REQUIRED_ARTIFACT_FIELDS
               if not isinstance(artifact, dict) or f not in artifact]
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


class _Parser(argparse.ArgumentParser):
    """Made with ``exit_on_error=False``, its failures raise ConfigError
    instead of printing usage and exiting, so they take ``main``'s JSON
    error path.  With ``allow_abbrev=False`` a flag's prefix is no flag."""

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except argparse.ArgumentError as exc:
            raise ConfigError(str(exc),
                              field=exc.argument_name.lstrip("-")) from exc

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="saacert", exit_on_error=False, allow_abbrev=False,
        description="Finite-sample certificates for sample-average "
                    "approximation with stochastic constraints.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        sp = sub.add_parser(name, help=help, exit_on_error=False,
                            allow_abbrev=False)
        sp.add_argument("--out", help="write the JSON artifact to this path")
        sp.add_argument("--seed", type=natural, default=0)
        sp.set_defaults(handler=handler)
        return sp

    def solver_flags(sp, method, h, budget):
        sp.add_argument("--method", default=method,
                        choices=["grid", "subgradient"])
        sp.add_argument("--h", type=positive, default=h)
        sp.add_argument("--budget", type=count, default=budget)

    sp = command("entropy", _cmd_entropy, "packing net size and entropy number")
    sp.add_argument("--space", required=True)
    sp.add_argument("--theta", type=positive, required=True)
    sp.add_argument("--h", type=positive, default=None)

    sp = command("aalpha", _cmd_aalpha, "chaining complexity A_alpha")
    sp.add_argument("--space", required=True)
    sp.add_argument("--alpha", type=finite, required=True)

    sp = command("certify", _cmd_certify, "sample-size certificate")
    sp.add_argument("--theorem", required=True, choices=THEOREMS)
    sp.add_argument("--eps", type=finite, required=True)
    sp.add_argument("--p", type=finite, required=True)
    sp.add_argument("--m", type=natural, default=0)
    sp.add_argument("--C", type=finite, default=1.0)
    sp.add_argument("--C-from", dest="C_from",
                    help="calibration artifact supplying the constant")
    sp.add_argument("--sigma", type=finite, default=None,
                    help="variance aggregate (bypasses --profile)")
    sp.add_argument("--profile", help="variance profile JSON (file or inline)")
    sp.add_argument("--scope", default="all")
    sp.add_argument("--localized", action="store_true")
    sp.add_argument("--slater", type=finite, default=None)
    sp.add_argument("--n-available", dest="n_available", type=natural, default=None)

    sp = command("solve", _cmd_solve, "solve an empirical problem")
    sp.add_argument("--problem", required=True,
                    help="problem config JSON (file or inline)")
    sp.add_argument("--scenarios", help="scenario CSV (header xi_1,...,xi_k)")
    sp.add_argument("--n", type=count, default=None,
                    help="draw this many scenarios from the family sampler")
    sp.add_argument("--relax", default=None,
                    help="relaxation level(s), comma separated")
    solver_flags(sp, "grid", 0.01, 2000)
    sp.add_argument("--c0", type=positive, default=0.1)

    sp = command("validate", _cmd_validate, "run a Monte Carlo experiment plan")
    sp.add_argument("--plan", required=True)

    sp = command("calibrate", _cmd_calibrate, "calibrate the theorem constant C")
    sp.add_argument("--families", required=True,
                    help="JSON list of coverage plans (file or inline)")

    sp = command("portfolio", _cmd_portfolio, "CVaR-constrained portfolio")
    sp.add_argument("--returns", help="returns CSV")
    sp.add_argument("--synthetic", help="ASSETS,N synthetic dataset")
    sp.add_argument("--p", type=finite, required=True)
    sp.add_argument("--beta", type=finite, required=True)
    solver_flags(sp, "grid", 0.05, 4000)
    sp.add_argument("--certify", action="store_true")
    sp.add_argument("--eps", type=finite, default=0.1)
    sp.add_argument("--prob", type=finite, default=0.1)
    sp.add_argument("--C", type=finite, default=1.0)
    sp.add_argument("--cert-h", dest="cert_h", type=positive, default=0.2)
    sp.add_argument("--regularity-c", dest="regularity_c", type=finite,
                    default=1.0)

    sp = command("lasso", _cmd_lasso, "l1-ball least squares")
    sp.add_argument("--data", required=True,
                    help="CSV with feature columns then the response column")
    sp.add_argument("--radius", type=finite, required=True)
    sp.add_argument("--weighted", action="store_true")
    solver_flags(sp, "subgradient", 0.05, 4000)

    sp = command("report", _cmd_report, "validate and summarize an artifact")
    sp.add_argument("artifact")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        results, seed = args.handler(args)
        params = {k: v for k, v in vars(args).items()
                  if k not in ("handler", "command", "out") and v is not None}
        artifact = {
            "schema_version": SCHEMA_VERSION,
            "kind": args.command,
            "seed": seed,
            "params": to_json(params),
            "results": to_json(results),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        text = json.dumps(artifact, indent=2, sort_keys=True)
        if args.out:
            with open_path(args.out, "w") as handle:
                handle.write(text + "\n")
        else:
            print(text)
    except SaacertError as exc:
        json.dump(to_json(exc.to_json()), sys.stderr)
        sys.stderr.write("\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
