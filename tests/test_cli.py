"""Command-line interface: artifacts, exit codes, determinism."""

import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saacert
from saacert.cli import build_parser, main
from saacert.errors import to_json

BOX01 = '{"kind":"box","lo":[0],"hi":[1]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def artifact(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_entropy_artifact(capsys):
    blob = artifact(capsys, "entropy", "--space", BOX01,
                    "--theta", "0.4", "--h", "0.01")
    assert blob["schema_version"] == 1
    assert blob["kind"] == "entropy"
    assert blob["results"]["size"] == 3
    assert set(blob) >= {"schema_version", "kind", "seed", "params",
                         "results", "timestamp"}


def test_aalpha_artifact(capsys):
    blob = artifact(capsys, "aalpha", "--space",
                    '{"kind":"cloud","points":[[0],[1]]}', "--alpha", "1")
    assert blob["results"]["A_alpha"] == pytest.approx(1.5519953931848245)


def test_certify_with_sigma(capsys):
    blob = artifact(capsys, "certify", "--theorem", "fixed", "--eps", "0.1",
                    "--p", "0.05", "--C", "1", "--sigma", "2")
    assert blob["results"]["n_required"] == 1199


def test_certify_with_profile(capsys, tmp_path):
    profile = {"theorem": "fixed",
               "entries": {"sigma0_hat_X": 1.0, "sigma0_breve_z": 2.0,
                           "sigma0_breve_x_star": 0.5}}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    blob = artifact(capsys, "certify", "--theorem", "fixed", "--eps", "0.1",
                    "--p", "0.05", "--profile", str(path))
    assert blob["results"]["sigma_hat"] == pytest.approx(2.0)


def test_certify_missing_inputs_exits_2(capsys):
    code, out, err = run_cli(capsys, "certify", "--theorem", "fixed",
                             "--eps", "0.1", "--p", "0.05")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "config"


def test_interior_margin_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "certify", "--theorem", "interior",
                           "--eps", "0.4", "--p", "0.05", "--sigma", "2",
                           "--m", "1", "--slater", "0.2")
    assert code == 2
    assert json.loads(err)["error"] == "slater-margin"


@pytest.mark.parametrize("flag, value", [
    ("--eps", "nan"), ("--eps", "inf"), ("--sigma", "nan"),
    ("--sigma", "inf"), ("--C", "nan"), ("--C", "inf")])
def test_certify_non_finite_inputs_exit_2(capsys, flag, value):
    args = {"--theorem": "fixed", "--p": "0.1", "--eps": "0.1",
            "--sigma": "1", flag: value}
    code, _, err = run_cli(capsys, "certify",
                           *[tok for pair in args.items() for tok in pair])
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_solve_artifact_deterministic(capsys):
    argv = ["solve", "--problem", '{"family":"quad1d","params":{"a":0.3}}',
            "--n", "200", "--seed", "9"]
    first = artifact(capsys, *argv)
    second = artifact(capsys, *argv)
    first.pop("timestamp")
    second.pop("timestamp")
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)


def test_solve_reads_scenario_csv(capsys, tmp_path):
    path = tmp_path / "scen.csv"
    rng = np.random.default_rng(2)
    rows = ["xi_1"] + [f"{v}" for v in rng.standard_t(3, size=100)]
    path.write_text("\n".join(rows) + "\n")
    blob = artifact(capsys, "solve", "--problem", '{"family":"quad1d"}',
                    "--scenarios", str(path))
    assert blob["results"]["problem"]["n_scenarios"] == 100
    assert blob["results"]["solution"]["feasible"] is True


def test_validate_tail_plan(capsys, tmp_path):
    plan = {"experiment": "tail", "distribution": {"name": "t3"},
            "n": 100, "t_grid": [0.5, 1.0], "replications": 200,
            "constant": 3.0, "seed": 11}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    blob = artifact(capsys, "validate", "--plan", str(path))
    assert blob["results"]["passed"] is True
    assert blob["seed"] == 11


def test_validate_unknown_experiment_exits_2(capsys):
    code, _, err = run_cli(capsys, "validate", "--plan",
                           '{"experiment":"nope"}')
    assert code == 2
    assert "experiment" in json.loads(err)["message"]


def test_calibrate_then_consume_constant(capsys, tmp_path):
    spec = {"plans": [{"family": "quad1d", "params": {"a": 0.3},
                       "theorem": "fixed", "event": "near-optimal-subset",
                       "eps": 0.1, "p": 0.1, "replications": 40,
                       "seed": 5, "h": 0.01}],
            "c_grid": [0.5, 1.0]}
    spec_path = tmp_path / "plans.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "calibration.json"
    code, _, err = run_cli(capsys, "calibrate", "--families", str(spec_path),
                           "--out", str(out_path))
    assert code == 0, err
    calib = json.loads(out_path.read_text())
    c_star = calib["results"]["c_star"]
    blob = artifact(capsys, "certify", "--theorem", "fixed", "--eps", "0.1",
                    "--p", "0.05", "--sigma", "2", "--C-from", str(out_path))
    assert blob["results"]["constant"] == pytest.approx(c_star)


def test_calibrate_plan_too_small_to_pass_exits_2(capsys):
    """At p = 0.1 no plan with 28 or fewer replications can pass the
    coverage gate: calibrate says so instead of scanning every C."""
    plan = {"family": "quad1d", "theorem": "fixed",
            "event": "near-optimal-subset", "eps": 0.1, "p": 0.1,
            "replications": 5, "seed": 5, "h": 0.01, "name": "tiny"}
    code, out, err = run_cli(capsys, "calibrate", "--families",
                             json.dumps([plan]))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "uncalibratable"
    assert "'tiny' cannot pass with 5 replications" in error["message"]
    assert error["details"]["min_replications"] == 29


def test_portfolio_artifact(capsys):
    blob = artifact(capsys, "portfolio", "--synthetic", "2,120",
                    "--p", "0.2", "--beta", "0.05", "--seed", "3",
                    "--h", "0.05")
    res = blob["results"]
    assert res["cvar_of_solution"] <= res["beta"] + 1e-9
    assert sum(res["weights"]) == pytest.approx(1.0, abs=1e-9)


def test_lasso_artifact(capsys, tmp_path):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, 2))
    y = 1.5 * X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.normal(size=80)
    rows = ["age,income,spend"] + [f"{a},{b},{c}"
                                   for a, b, c in np.column_stack([X, y])]
    path = tmp_path / "lasso.csv"
    path.write_text("\n".join(rows) + "\n")
    blob = artifact(capsys, "lasso", "--data", str(path), "--radius", "2.0",
                    "--budget", "3000")
    coef = blob["results"]["coefficients"]
    assert coef[0] == pytest.approx(1.5, abs=0.15)
    assert coef[1] == pytest.approx(-0.5, abs=0.15)
    assert blob["results"]["features"] == ["age", "income"]
    assert blob["results"]["response"] == "spend"


def test_report_validates_artifacts(capsys, tmp_path):
    plan = {"experiment": "tail", "distribution": {"name": "t3"}, "n": 50,
            "t_grid": [1.0], "replications": 50, "seed": 0}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_path = tmp_path / "artifact.json"
    code, _, _ = run_cli(capsys, "validate", "--plan", str(plan_path),
                         "--out", str(out_path))
    assert code == 0
    blob = artifact(capsys, "report", str(out_path))
    assert blob["results"]["valid"] is True
    # a mangled artifact is rejected
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({"kind": "x"}))
    code, _, err = run_cli(capsys, "report", str(bad_path))
    assert code == 2
    assert "missing" in json.loads(err)["message"]


def test_artifact_params_have_no_threads(capsys):
    blob = artifact(capsys, "entropy", "--space", BOX01, "--theta", "0.5")
    assert "threads" not in blob["params"]
    assert blob["params"]["theta"] == 0.5


NO_CSTAR = '{"results": {"c_grid": [1.0]}}'
COVERAGE = {"experiment": "coverage", "family": "quad1d", "theorem": "fixed",
            "event": "near-optimal-subset", "eps": 0.1, "p": 0.1,
            "replications": 5}


def _without(spec, key):
    return json.dumps({k: v for k, v in spec.items() if k != key})


@pytest.mark.parametrize("argv, field", [
    (["validate", "--plan", _without(COVERAGE, "theorem")], "theorem"),
    (["calibrate", "--families",
      json.dumps([json.loads(_without(COVERAGE, "theorem"))])], "theorem"),
    (["validate", "--plan",
      '{"experiment":"tail","n":10,"replications":5}'], "t_grid"),
    (["validate", "--plan", json.dumps({**COVERAGE, "c_from": NO_CSTAR})],
     "c_star"),
    (["certify", "--theorem", "fixed", "--eps", "0.1", "--p", "0.1",
      "--sigma", "1", "--C-from", NO_CSTAR], "c_star"),
])
def test_plan_missing_field_exits_2(capsys, argv, field):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert field in payload["message"]


@pytest.mark.parametrize("family, params", [
    ("ball2d", '{"bogus": 1}'), ("ball2d", '{"radius": "x"}'), ("ball2d", "[1]"),
    ("quad1d", '{"a": NaN}'), ("halfspace_box", '{"level": 1e400}'),
    ("ball2d", '{"radius": -Infinity}'),
    ("halfspace_box", '{"objective": "interior", "level": "x"}'),
    ("halfspace_box", '{"noise": "x"}'), ("ball2d", '{"noise": "x"}'),
    ("quad1d", '{"noise": "x"}'), ("quad1d", '{"noise": "nan"}'),
    ("ball2d", '{"radius": "inf"}'),
], ids=["params0", "params1", "params2", "quad1d-a-nan",
        "halfspace-level-overflows", "ball2d-radius-minus-infinity",
        "halfspace-level-string", "halfspace-noise-string",
        "ball2d-noise-string", "quad1d-noise-string", "quad1d-noise-nan-string",
        "ball2d-radius-inf-string"])
def test_family_params_errors_exit_2(capsys, family, params):
    """Bad family params, non-finite JSON numbers among them, exit 2."""
    spec = f'{{"family": "{family}", "params": {params}}}'
    code, _, err = run_cli(capsys, "solve", "--problem", spec, "--n", "10")
    assert code == 2
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("command, text, column", [
    ("lasso", "a,b,y\n1,2,3\nnan,1,2\n3,4,5\n2,2,2\n", "a"),
    ("solve", "xi_1\n0.1\ninf\n0.3\n", "xi_1")], ids=["lasso", "solve"])
def test_non_finite_csv_cells_exit_2(capsys, tmp_path, command, text, column):
    path = tmp_path / "data.csv"
    path.write_text(text)
    argv = (["lasso", "--data", str(path), "--radius", "1"]
            if command == "lasso" else
            ["solve", "--problem", '{"family":"quad1d"}', "--scenarios",
             str(path)])
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "dimension-mismatch"
    assert payload["details"] == {"row": 2, "column": column}


@pytest.mark.parametrize("argv, field", [
    (["validate", "--plan", "[1]"], "experiment"),
    (["calibrate", "--families", "[1]"], "family"),
    (["calibrate", "--families", '{"plans": 5}'], "plans"),
    (["calibrate", "--families", '{"plans": "ab"}'], "plans"),
    (["validate", "--plan", json.dumps({**COVERAGE, "eps": "x"})], "eps"),
    (["validate", "--plan", json.dumps({**COVERAGE, "replications": "x"})],
     "replications"),
    (["validate", "--plan",
      '{"experiment":"tail","n":"x","t_grid":[1],"replications":2}'], "n"),
    (["validate", "--plan",
      '{"experiment":"tail","n":1e400,"t_grid":[1],"replications":2}'], "n"),
    (["validate", "--plan", json.dumps({**COVERAGE, "replications": math.inf})],
     "replications"),
    (["validate", "--plan",
      '{"experiment":"tail","n":10,"t_grid":"x","replications":2}'], "t_grid"),
    (["certify", "--theorem", "fixed", "--eps", "0.1", "--p", "0.1",
      "--sigma", "1", "--C-from", "[1]"], "results"),
    (["certify", "--theorem", "fixed", "--eps", "0.1", "--p", "0.1",
      "--sigma", "1", "--C-from", '{"c_star": "x"}'], "c_star"),
    (["certify", "--theorem", "fixed", "--eps", "0.1", "--p", "0.1",
      "--profile", '{"entries": {"sigma0_hat_X": "x"}}'], "sigma0_hat_X"),
    (["certify", "--theorem", "fixed", "--eps", "0.1", "--p", "0.1",
      "--profile", '{"entries": [["sigma0_hat_X", 1]]}'], "entries"),
    (["certify", "--theorem", "fixed", "--eps", "0.1", "--p", "0.1",
      "--profile", '{"entries": {"sigma0_hat_X": 1}, "anchors": 5}'], "anchors"),
])
def test_malformed_plan_exits_2(capsys, argv, field):
    """A plan that is not an object, or a value that is not a number."""
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert payload["details"]["field"] == field


@pytest.mark.parametrize("argv", [
    ["entropy", "--space", BOX01, "--theta", "nan"],
    ["entropy", "--space", BOX01, "--theta", "0"],
    ["entropy", "--space", BOX01, "--theta", "0.5", "--h", "-0.1"],
    ["aalpha", "--space", BOX01, "--alpha", "-1"],
    ["aalpha", "--space", BOX01, "--alpha", "inf"],
    ["aalpha", "--space", BOX01, "--alpha", "0"],
    ["aalpha", "--space", BOX01, "--alpha", "1.5"],
    ["aalpha", "--space", BOX01, "--alpha", "nan"],
    ["solve", "--problem", '{"family":"quad1d"}', "--n", "10", "--h", "0"],
])
def test_bad_numeric_flags_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("argv, field", [
    (["solve", "--problem", '{"family":"quad1d"}', "--n", "10",
      "--relax", "a"], "relax"),
    (["portfolio", "--synthetic", "x,5", "--p", "0.1", "--beta", "0.1"],
     "synthetic"),
    (["entropy", "--space", '{"kind":"box","lo":["a"],"hi":[1]}',
      "--theta", "0.5"], "lo"),
    (["validate", "--plan",
      '{"experiment":"tail","n":10,"t_grid":["a"],"replications":2}'],
     "t_grid"),
])
def test_malformed_list_element_exits_2(capsys, argv, field):
    """A list flag or field holding a non-number names the field, exit 2."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert payload["details"]["field"] == field


MISSING = "{missing}"     # replaced by a path under a fresh tmp_path
QUAD = '{"family":"quad1d"}'
PF = ["--p", "0.1", "--beta", "0.1"]


def _space(spec):
    return ["entropy", "--space", spec, "--theta", "0.5"]


def _tail(distribution):
    return ["validate", "--plan", json.dumps({
        "experiment": "tail", "n": 10, "t_grid": [1], "replications": 5,
        "distribution": distribution})]


def _quad_dist(distribution):
    return ["solve", "--problem", json.dumps(
        {"family": "quad1d", "params": {"dist": distribution}}), "--n", "10"]


@pytest.mark.parametrize("argv", [
    _space('{"kind":"box","lo":[1],"hi":[0]}'),
    _space('{"kind":"ball","center":[0],"radius":-1}'),
    _space('{"kind":"cloud","points":[["a"]]}'),
    _space('{"kind":"simplex","dim":0}'),
    _space('{"kind":"box","lo":[0],"hi":[1],"norm":"l7"}'),
    _space('{"kind":"product","parts":[]}'),
    _space('{"kind":"product","norm":"l2","parts":[{"kind":"simplex","dim":2}]}'),
    _space("BOX"),
    ["portfolio", "--synthetic", "2,-5", *PF],
    ["lasso", "--data", MISSING, "--radius", "1"],
    ["portfolio", "--returns", MISSING, *PF],
    ["solve", "--problem", QUAD, "--scenarios", MISSING],
    ["portfolio", "--synthetic", "2,50", *PF, "--certify",
     "--regularity-c", "-1"],
    ["solve", "--problem", QUAD, "--n", "10", "--seed", "-1"],
    ["entropy", "--space", BOX01, "--theta", "0.5", "--out", MISSING],
    ["certify", "--theorem", "fixed", "--eps", "x", "--p", "0.1",
     "--sigma", "1"],
    ["entropy", "--space", BOX01],
    ["entropy", "--space", BOX01, "--theta", "0.5", "--bogus"],
    ["solve", "--problem", QUAD, "--n", "10", "--method", "subgradient",
     "--budget", "-5"],
    ["portfolio", "--synthetic", "2,50", "--p", "0.1", "--beta", "nan"],
    ["solve", "--problem", QUAD, "--n", "10", "--method", "subgradient",
     "--c0", "nan"],
    ["validate", "--plan", json.dumps({**COVERAGE, "replications": 0})],
    ["validate", "--plan", json.dumps({"experiment": "rate", "family": "quad1d",
                                       "n_grid": [10, 0, 30],
                                       "replications": 2})],
    ["validate", "--plan", json.dumps({
        "experiment": "tail", "distribution": {"name": "t3", "bogus": 1},
        "n": 10, "t_grid": [1], "replications": 2})],
    ["validate", "--plan", json.dumps({
        "experiment": "tail", "n": 10, "t_grid": [], "replications": 2})],
    ["validate", "--plan", json.dumps({
        "experiment": "uniform-tail", "family": "quad1d", "n": 10,
        "t_grid": [], "replications": 2})],
    _tail({"name": "gaussian", "sd": math.nan}),
    # a flag's prefix is no flag: --h is not --help, --sig is not --sigma
    ["aalpha", "--space", '{"kind":"simplex","dim":3}', "--alpha", "1",
     "--h", "0.1"],
    ["certify", "--theorem", "fixed", "--eps", "0.1", "--p", "0.1",
     "--sigma", "1", "--h", "1"],
    ["certify", "--theorem", "fixed", "--eps", "0.1", "--p", "0.1",
     "--sigma", "1", "--sig", "2"],
], ids=["box-hi-lo", "ball-radius", "cloud-points", "simplex-dim", "norm",
        "product-parts", "product-norm", "space-not-json",
        "synthetic-negative",
        "lasso-missing-data", "portfolio-missing-returns",
        "solve-missing-scenarios", "regularity-c", "seed", "out-dir",
        "eps-not-float", "missing-flag", "unknown-flag", "budget", "beta-nan",
        "c0-nan", "coverage-replications", "rate-n-grid", "tail-dist-params",
        "tail-empty-t-grid", "uniform-tail-empty-t-grid", "tail-dist-sd-nan",
        "aalpha-h-prefix", "certify-h-prefix", "certify-sig-prefix"])
def test_malformed_input_exits_2_with_one_json_error(capsys, tmp_path, argv):
    """Every malformed input takes the one JSON error path: no traceback,
    no usage text, no misleading downstream error, nothing on stdout."""
    missing = str(tmp_path / "missing" / "x")
    code, out, err = run_cli(capsys, *[missing if tok == MISSING else tok
                                       for tok in argv])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"


@pytest.mark.filterwarnings("error")  # no overflow warning on stderr either
@pytest.mark.parametrize("argv, kind", [
    (["certify", "--theorem", "fixed", "--eps", "0.1", "--p", "0.1",
      "--sigma", "1e308", "--C", "1e308"], "config"),
    (["certify", "--theorem", "fixed", "--eps", "1e-300", "--p", "0.1",
      "--sigma", "1"], "config"),
    (_space('{"kind":"box","lo":[0],"hi":[1e308]}'), "budget-exceeded"),
    (["aalpha", "--space", '{"kind":"ball","center":[0],"radius":1e308}',
      "--alpha", "1"], "budget-exceeded"),
    (_space('{"kind":"cloud","points":[[0],[1,2]]}'), "config"),
    (["aalpha", "--space", '{"kind":"box","lo":[-1e308],"hi":[1e308]}',
      "--alpha", "1"], "budget-exceeded"),
    (["aalpha", "--space", '{"kind":"cloud","points":[[-1e308],[1e308]]}',
      "--alpha", "1"], "budget-exceeded"),
    (_space('{"kind":"simplex","dim":3}') + ["--h", "1e-320"],
     "budget-exceeded"),
    (_space('{"kind":"ball","center":[1.5e308],"radius":5e307,"norm":"linf"}'),
     "budget-exceeded"),
    (_tail({"name": "lognormal", "sd": 1000}), "config"),
    (_tail({"name": "pareto", "shape": 1e308}), "config"),
    (_tail({"name": "uniform", "lo": -1e308, "hi": 1e308}), "config"),
    (_tail({"name": "gaussian", "sd": 1e200}), "config"),
    (_tail({"name": "gaussian", "sd": -1}), "config"),
    (_tail({"name": "uniform", "lo": 1, "hi": 0}), "config"),
    (_tail({"name": "lognormal", "sd": -0.5}), "config"),
    (_quad_dist({"name": "gaussian", "sd": -1}), "config"),
    (_quad_dist({"name": "uniform", "lo": 1, "hi": 0}), "config"),
    (_quad_dist({"name": "lognormal", "sd": -0.5}), "config"),
    (["aalpha", "--space", '{"kind":"ball","center":[0,0],"radius":1e-300}',
      "--alpha", "0.05"], "budget-exceeded"),
    (["aalpha", "--space", '{"kind":"box","lo":[0],"hi":[1e-200]}',
      "--alpha", "0.01"], "budget-exceeded"),
    (["solve", "--problem", '{"family":"linear_simplex"}', "--n", "10",
      "--method", "subgradient", "--c0", "1e308", "--budget", "5"],
     "budget-exceeded"),
], ids=["sigma-squared-overflows", "eps-squared-underflows",
        "box-cells-overflow", "ball-extent-overflows", "cloud-ragged",
        "box-extent-overflows", "cloud-extent-overflows",
        "simplex-cells-overflow", "ball-bounds-overflow",
        "lognormal-moments-overflow", "pareto-variance-overflows",
        "uniform-variance-overflows", "gaussian-variance-overflows",
        "gaussian-sd-negative", "uniform-hi-below-lo", "lognormal-sd-negative",
        "family-gaussian-sd-negative", "family-uniform-hi-below-lo",
        "family-lognormal-sd-negative", "ball-chain-scale-underflows",
        "box-chain-scale-underflows", "subgradient-projection-overflows"])
def test_extreme_finite_input_exits_2_with_one_json_error(capsys, argv, kind):
    """Finite values at the edge of float range, and distribution params
    numpy would refuse only when it samples, fail with the JSON error path,
    not an OverflowError or a numpy traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == kind


@pytest.mark.filterwarnings("error")  # no overflow warning either
def test_overflowing_gap_bound_is_reported_as_inf(capsys):
    """A step scale whose square overflows the float range leaves the
    solution as it is and reports the gap bound as inf, as sample sizes
    are."""
    blob = artifact(capsys, "solve", "--problem", '{"family":"ball2d"}',
                    "--n", "10", "--method", "subgradient", "--c0", "1e160",
                    "--budget", "5")
    solution = blob["results"]["solution"]
    assert solution["certified_gap"] == "inf"
    assert solution["budget_exhausted"] is True


@pytest.mark.parametrize("experiment, t_grid", [
    ("tail", [1, -2]), ("tail", [-0.5]), ("uniform-tail", [-0.5, 1])])
def test_negative_t_exits_2(capsys, experiment, t_grid):
    """A t < 0 has the bound e^{-t} > 1, which every row would pass."""
    plan = {"experiment": experiment, "n": 10, "t_grid": t_grid,
            "replications": 2, "family": "quad1d"}
    code, out, err = run_cli(capsys, "validate", "--plan", json.dumps(plan))
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert payload["details"]["field"] == "t_grid"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment", ["uniform-tail", "rate"])
@pytest.mark.parametrize("params", [{"a": 1e200}, {"noise": 1e200}])
def test_overflowing_objective_fails_the_experiment(capsys, experiment, params):
    """A deviation or scale past the float range is an overflow of the
    objective, not a passed uniform tail or a rate row of nan."""
    plan = {"experiment": experiment, "family": "quad1d", "params": params,
            "n": 20, "t_grid": [1], "n_grid": [10, 20, 30],
            "replications": 5}
    code, out, err = run_cli(capsys, "validate", "--plan", json.dumps(plan))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "budget-exceeded"
    assert error["details"]["integrand"] == 0
    assert "integrand 0" in error["message"]


@pytest.mark.filterwarnings("error")  # no numpy overflow warning either
@pytest.mark.parametrize("plan, integrand", [
    ({"family": "quad1d", "params": {"noise": 1e200}, "theorem": "fixed",
      "event": "near-optimal-subset"}, 0),
    ({"family": "ball2d", "params": {"noise": 1e160}, "theorem": "exterior",
      "event": "feasible-relaxed", "h": 0.1}, 1),
], ids=["fixed-quad", "exterior-ball"])
def test_overflowing_pilot_profile_exits_2_naming_its_integrand(capsys, plan,
                                                                integrand):
    """A coverage plan whose pilot moduli or pointwise variances overflow
    the float range fails with the integrand's overflow error, not with an
    infinite sigma_hat after numpy warnings."""
    plan = {"experiment": "coverage", "eps": 0.1, "p": 0.1, "replications": 5,
            **plan}
    code, out, err = run_cli(capsys, "validate", "--plan", json.dumps(plan))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "budget-exceeded"
    assert error["details"] == {"integrand": integrand}


@pytest.mark.filterwarnings("error")  # the matmul overflow warns no more
def test_overflowing_integrand_exits_2_naming_its_index(capsys):
    """A noise scale whose per-scenario values overflow the float range is
    refused before the solve, not solved to a value of -2.5e307."""
    spec = '{"family":"quad1d","params":{"noise":1e308}}'
    code, out, err = run_cli(capsys, "solve", "--problem", spec, "--n", "10")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "budget-exceeded"
    assert error["details"]["integrand"] == 0
    assert "integrand 0" in error["message"]


def test_every_numeric_flag_uses_a_named_kind():
    """No flag converts with bare float or int: the named kinds are the
    one place where flag text becomes a number."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    bare = [(name, action.dest) for name, parser in sub.choices.items()
            for action in parser._actions if action.type in (float, int)]
    assert bare == []


SPACES = [BOX01, '{"kind":"ball","center":[0,0],"radius":1}',
          '{"kind":"simplex","dim":3}', '{"kind":"cloud","points":[[0],[1],[3]]}',
          '{"kind":"box","lo":[1],"hi":[0]}', '{"kind":"simplex","dim":0}',
          '{"kind":"cloud","points":[["a"]]}', '{"kind":"box","lo":[0]}',
          '{"kind":"product","parts":[]}', '{"kind":"cone"}', "BOX", "[1]"]
REALS = ["0.5", "1", "0.05", "0", "-1", "nan", "inf", "x", ""]
INTS = ["0", "1", "3", "-1", "2.5", "x"]
STEPS = ["0.1", "0.25", "0", "-0.1", "inf", "x"]
GRAMMAR = {
    "entropy": {"--space": SPACES, "--theta": ["0.3", "0.5", *REALS[3:]],
                "--h": STEPS},
    "aalpha": {"--space": SPACES, "--alpha": ["0.5", "1", "0", "1.5", "nan", "x"]},
    "certify": {"--theorem": ["fixed", "exterior", "interior", "bogus"],
                "--eps": REALS, "--p": REALS, "--sigma": REALS, "--m": INTS,
                "--C": REALS, "--slater": REALS, "--n-available": INTS},
    "solve": {"--problem": [QUAD, '{"family":"ball2d"}', '{"family":"nope"}',
                            '{"family":"quad1d","params":{"bogus":1}}', "[1]",
                            '{"family":"ball2d","params":{"noise":"x"}}'],
              "--n": ["10", "50", "0", "-3", "x"],
              "--h": ["0.05", "0.1", "0", "nan"],
              "--relax": ["0.1", "0,0.1", "a", "nan", "-0.1", ""],
              "--seed": INTS},
    "portfolio": {"--synthetic": ["2,60", "3,40", "1,10", "2,-5", "x,5", "2",
                                  "3,60,1"],
                  "--p": REALS, "--beta": REALS,
                  "--h": ["0.05", "0.1", "0", "x"], "--seed": INTS},
}


@st.composite
def cli_argv(draw):
    """argv from GRAMMAR: each flag omitted or given one valid or invalid
    token, sometimes followed by a stray token."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for flag, values in GRAMMAR[command].items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv + draw(st.sampled_from([[], ["--bogus"], ["x"], ["--seed"],
                                        ["--h"]]))


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_fuzzed_argv_exits_0_or_2_with_json(argv):
    """Any argv exits 0 with an artifact on stdout, or 2 with exactly one
    JSON error object on stderr and nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert json.loads(out.getvalue())["kind"] == argv[0]
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert "error" in json.loads(err.getvalue())


# ---------------------------------------------------------------------------
# the artifact encoder


def key_paths(obj, prefix=""):
    """Every key path of a JSON value; list items share the path ``[]``."""
    if isinstance(obj, dict):
        return {path for key, value in obj.items()
                for path in key_paths(value, f"{prefix}.{key}" if prefix else key)}
    if isinstance(obj, list):
        return {prefix + "[]"} | {path for value in obj
                                  for path in key_paths(value, prefix + "[]")}
    return {prefix}


def _paths(params, results):
    return sorted({"kind", "schema_version", "seed", "timestamp",
                   *(f"params.{key}" for key in params.split()),
                   *(f"results.{key}" for key in results.split())})


CERT_PARAMS = "C eps localized m p scope seed sigma theorem"
CERT_RESULTS = ("assumptions[] constant eps events[] events[].statement "
                "events[].tag localized m n_required p relaxation scope "
                "sigma_components.sigma sigma_hat theorem")
SOLVE_PARAMS = "budget c0 h method n problem seed"
SOLVE_RESULTS = ("problem.constraints problem.family problem.n_scenarios "
                 "problem.relaxations[] solution.budget_exhausted "
                 "solution.certified_gap solution.feasible "
                 "solution.gap_provenance solution.iterations solution.method "
                 "solution.residuals[] solution.value solution.x[]")
COVERAGE_RESULTS = ("constant details.h details.pilot_n details.rep_range[] "
                    "eps event floor frequency n_used p passed plan "
                    "replications seed sigma_hat successes theorem wilson[]")
RATE_RESULTS = ("degenerate details.family passed replications rows[] "
                "rows[].mean rows[].n rows[].stderr seed slope slope_stderr")
SIGMA_ARGV = ["certify", "--theorem", "fixed", "--eps", "0.1", "--p", "0.05",
              "--sigma", "2"]
SOLVE_ARGV = ["solve", "--problem", '{"family":"quad1d","params":{"a":0.3}}',
              "--n", "20"]
SMALL_RATE = {"experiment": "rate", "family": "quad1d", "n_grid": [8, 16, 32],
              "replications": 3}
CALIBRATED = f"{COVERAGE['family']}:{COVERAGE['event']}"


@pytest.mark.parametrize("argv, paths", [
    (SIGMA_ARGV, _paths(CERT_PARAMS, CERT_RESULTS)),
    (SIGMA_ARGV + ["--n-available", "9"],
     _paths(CERT_PARAMS + " n_available",
            CERT_RESULTS + " n_available satisfied")),
    (SOLVE_ARGV, _paths(SOLVE_PARAMS, SOLVE_RESULTS + " solution.details.h "
                        "solution.details.grid_points "
                        "solution.details.feasible_points")),
    (SOLVE_ARGV + ["--method", "subgradient", "--budget", "20"],
     _paths(SOLVE_PARAMS, SOLVE_RESULTS + " solution.details.c0 "
            "solution.details.g_max solution.details.objective_steps")),
    (["validate", "--plan", json.dumps({"experiment": "tail", "n": 10,
                                        "t_grid": [1.0], "replications": 5})],
     _paths("plan seed", "constant details.distribution kind n passed "
            "replications rows[] rows[].bound rows[].frequency rows[].passed "
            "rows[].t rows[].threshold seed")),
    (["validate", "--plan", json.dumps(COVERAGE)],
     _paths("plan seed", COVERAGE_RESULTS)),
    (["validate", "--plan", json.dumps(SMALL_RATE)],
     _paths("plan seed", RATE_RESULTS + " details.grid_points")),
    (["validate", "--plan", json.dumps(
        {**SMALL_RATE, "family": {"family": "quad1d",
                                  "params": {"noise": 0.0}}})],
     _paths("plan seed", RATE_RESULTS)),
    (["calibrate", "--families", json.dumps(
        {"plans": [{**COVERAGE, "replications": 40}], "c_grid": [0.03125]})],
     _paths("families seed", " ".join(
         [f"c_grid[] c_star monotone_confirmed seed "
          f"matrix.0.03125.{CALIBRATED} matrix.0.0625.{CALIBRATED}"]
         + [f"reports.{c}.{CALIBRATED}.{key}" for c in ("0.03125", "0.0625")
            for key in COVERAGE_RESULTS.split()]))),
], ids=["certify-sigma", "certify-sigma-n-available", "solve-grid",
        "solve-subgradient", "validate-tail", "validate-coverage",
        "validate-rate", "validate-rate-degenerate", "calibrate"])
def test_artifact_key_paths_are_pinned(capsys, argv, paths):
    """Each artifact keeps exactly its keys: a result's fields plus its
    listed derived flags, and nothing else."""
    assert sorted(key_paths(artifact(capsys, *argv))) == paths


def test_to_json_writes_non_finite_numpy_floats_as_their_repr():
    """numpy infinities and NaNs become strings, so the artifact stays valid
    JSON (no bare Infinity or NaN)."""
    blob = to_json({"a": np.float64("inf"), "b": [np.float64("nan")],
                    "c": np.array([-np.inf, 1.0]), 2: np.int64(3)})
    assert blob == {"a": "inf", "b": ["nan"], "c": ["-inf", 1.0], "2": 3}
    assert json.loads(json.dumps(blob, allow_nan=False)) == blob


def test_only_the_encoder_defines_to_json():
    """Result classes are their own schema: no class writes its fields out a
    second time in a to_json of its own."""
    owners = set()
    for info in pkgutil.iter_modules(saacert.__path__):
        module = importlib.import_module(f"saacert.{info.name}")
        owners |= {name for name, cls in inspect.getmembers(module, inspect.isclass)
                   if cls.__module__ == module.__name__ and "to_json" in vars(cls)}
    assert owners == {"SaacertError", "JsonResult"}


def test_tolerances_are_named_constants():
    """Every float literal below 1e-6 in the library is the value of a
    module-level constant, so each tolerance is defined and documented once."""
    bare = []
    for path in sorted(Path(saacert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {id(node) for stmt in tree.body
                 if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value
                 for node in ast.walk(stmt.value)}
        bare += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, float)
                 and 0 < abs(node.value) < 1e-6 and id(node) not in named]
    assert bare == []
