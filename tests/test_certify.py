"""Sample sizes, regularity and gap estimates, ledgers, and the checker."""

import math

import numpy as np
import pytest

from saacert.certify import (certificate_from_profile, certificate_from_sigma,
                             check_certificates, deviation_ledger,
                             estimate_regularity, gap_bounds,
                             robinson_constant, sample_size)
from saacert.errors import ConfigError, SlaterMarginError
from saacert.families import make_family
from saacert.geometry import SpaceDescriptor
from saacert.moments import variance_profile
from saacert.problem import (HolderInfo, ScenarioSet, StochasticProgram,
                             TrueOracle, build_empirical)


def test_sample_size_fixed_example():
    # ceil(1 * 4 * ln(20) / 0.01) = 1199
    assert sample_size("fixed", 2.0, 0.1, 0.05) == 1199


def test_sample_size_accounts_for_constraints():
    base = sample_size("exterior", 1.0, 0.5, 0.5, m=1)
    more = sample_size("exterior", 1.0, 0.5, 0.5, m=8)
    assert more > base
    with pytest.raises(ConfigError):
        sample_size("exterior", 1.0, 0.5, 0.5, m=0)


def test_sample_size_monotonicity():
    """N grows with sigma and 1/p, shrinks with eps."""
    ns_sigma = [sample_size("fixed", s, 0.1, 0.05) for s in (0.5, 1, 2, 4)]
    assert ns_sigma == sorted(ns_sigma)
    ns_p = [sample_size("fixed", 1.0, 0.1, p) for p in (0.2, 0.1, 0.05, 0.01)]
    assert ns_p == sorted(ns_p)
    ns_eps = [sample_size("fixed", 1.0, e, 0.05) for e in (0.4, 0.2, 0.1)]
    assert ns_eps == sorted(ns_eps)


def test_interior_needs_margin_headroom():
    assert sample_size("interior", 1.0, 0.1, 0.05, m=1,
                       slater_margin=0.2) >= 1
    with pytest.raises(SlaterMarginError):
        sample_size("interior", 1.0, 0.15, 0.05, m=1, slater_margin=0.2)


def test_certificate_from_sigma_round_trip():
    cert = certificate_from_sigma("fixed", 2.0, 0.1, 0.05, constant=1.0)
    assert cert.n_required == 1199
    blob = cert.to_json()
    assert blob["theorem"] == "fixed"
    assert blob["events"]
    assert blob["relaxation"] == "none"
    partial = certificate_from_sigma("fixed", 2.0, 0.1, 0.05,
                                     n_available=100)
    assert partial.satisfied is False


def test_certificate_from_profile_scopes():
    program = make_family("quad1d", a=0.3)
    emp = build_empirical(
        program, ScenarioSet.from_sampler(program.oracle.sampler, 300, seed=1))
    profile = variance_profile(program, emp, "fixed", eps=0.1, h=0.02)
    full = certificate_from_profile(profile, 0.1, 0.05, m=0)
    narrow = certificate_from_profile(profile, 0.1, 0.05, m=0,
                                      scope="near_optimality")
    assert narrow.sigma_hat <= full.sigma_hat + 1e-12
    assert narrow.n_required <= full.n_required


def test_robinson_constant():
    assert robinson_constant(2.0, 0.5) == pytest.approx(4.0)
    with pytest.raises(SlaterMarginError):
        robinson_constant(2.0, 0.0)


def test_estimate_regularity_ball():
    """For the disk the violation equals the distance, so c-hat is 1."""
    program = make_family("ball2d")
    est = estimate_regularity(program, h=0.05, use_exact_distance=True)
    assert est.c_hat == pytest.approx(1.0, abs=1e-9)
    assert not est.vacuous
    grid_est = estimate_regularity(program, h=0.05, use_exact_distance=False)
    assert grid_est.c_hat <= robinson_constant(1.2, 0.6) + 2 * 0.05


def threshold_1d():
    """f0 = x over {x >= 0.5} inside [0, 1]; both gaps equal gamma."""
    f0 = lambda x, xis: np.full(len(xis), x[0])
    f1 = lambda x, xis: np.full(len(xis), 0.5 - x[0])
    return StochasticProgram(
        objective=f0, constraints=[f1],
        space=SpaceDescriptor.interval(0.0, 1.0),
        holder=[HolderInfo(1.0), HolderInfo(1.0)],
        oracle=TrueOracle(fns=[lambda x: x[0], lambda x: 0.5 - x[0]],
                          dist_to_feasible=lambda x: max(0.5 - x[0], 0.0)),
        convex=True, name="threshold-1d")


def test_gap_bounds_linear_instance():
    for gamma in (0.05, 0.1, 0.2):
        ext = gap_bounds(threshold_1d(), gamma, c=1.0, h=0.025,
                         kind="exterior")
        assert ext.value == pytest.approx(gamma, abs=1e-12)
        assert ext.value <= ext.upper_bound + 1e-9
        assert not ext.zero_condition
        inner = gap_bounds(threshold_1d(), gamma, c=1.0, h=0.025,
                           kind="interior")
        assert inner.value == pytest.approx(gamma, abs=1e-12)
        assert inner.value <= inner.upper_bound + 1e-9


def test_gap_bounds_zero_flag():
    """An interior minimizer makes both gaps vanish identically."""
    program = make_family("halfspace_box", objective="interior")
    for gamma in (0.05, 0.1, 0.2):
        ext = gap_bounds(program, gamma, c=0.5, h=0.05, kind="exterior")
        inner = gap_bounds(program, gamma, c=0.5, h=0.05, kind="interior")
        assert ext.value == 0.0 and ext.zero_condition
        assert inner.value == 0.0 and inner.zero_condition


def test_gap_bounds_interior_needs_room():
    with pytest.raises(SlaterMarginError):
        gap_bounds(threshold_1d(), 0.6, c=1.0, h=0.025, kind="interior")


def quad_emp(seed=0, n=200, relax=0.0):
    program = make_family("halfspace_box", objective="interior")
    scen = ScenarioSet.from_sampler(program.oracle.sampler, n, seed=seed)
    return build_empirical(program, scen,
                           np.full(program.n_constraints, relax))


def test_deviation_ledger_shapes():
    emp = quad_emp()
    anchors = {"x_star": [0.3, 0.3], "y": [0.1, 0.1]}
    ledger = deviation_ledger(emp, gamma=0.2, h=0.05, anchors=anchors)
    assert ledger.m == emp.program.n_constraints
    assert ledger.Delta_Y.shape == (ledger.m,)
    assert set(ledger.levels) == {0.2, 0.0}
    assert ledger.delta("y").shape == (ledger.m,)
    assert ledger.Delta0_at("x_star", 0.2) >= 0.0


def test_checker_scheme_f_example():
    """A generous level makes the blanket feasibility condition hold."""
    emp = quad_emp(relax=0.0)
    ledger = deviation_ledger(emp, gamma=0.5, h=0.05,
                              anchors={"x_star": [0.3, 0.3]})
    report = check_certificates(emp, ledger, "F")
    assert report.holds
    assert any("subset-relaxed" in c for c in report.conclusions)
    blob = report.to_json()
    assert blob["holds"] and blob["conclusions"]


def test_checker_rejects_unknown_scheme():
    emp = quad_emp()
    ledger = deviation_ledger(emp, gamma=0.2, h=0.05, anchors={})
    with pytest.raises(ConfigError):
        check_certificates(emp, ledger, "nonsense")


def test_checker_reports_failed_conditions():
    """An impossible level flips holds to False and hides conclusions."""
    emp = quad_emp(relax=0.4)
    ledger = deviation_ledger(emp, gamma=0.0, h=0.05,
                              anchors={"x_star": [0.3, 0.3]})
    report = check_certificates(emp, ledger, "F", params={"gamma": -0.1})
    assert not report.holds
    assert report.to_json()["conclusions"] == []


def test_checker_interior_scheme_end_to_end():
    program = make_family("halfspace_box", objective="interior")
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 4000, seed=3)
    emp = build_empirical(program, scen, np.array([-0.05]))
    anchors = {"y": [0.2, 0.2], "y_star": [0.3, 0.3]}
    ledger = deviation_ledger(emp, gamma=0.3, h=0.05, anchors=anchors)
    report = check_certificates(
        emp, ledger, "interior",
        params={"t": 0.2, "t1": 0.05, "slater_margin": 1.2})
    # with N=4000 the deviations are tiny, so the scheme should certify
    assert report.holds, report.to_json()
    assert any("subset-hard" in c for c in report.conclusions)


# ---------------------------------------------------------------------------
# every checker scheme pinned on closed-form affine programs

AFFINE_A, AFFINE_B = (1.0, -1.0, 0.5), (0.0, 0.2, -0.4)
PIN_PARAMS = {"eps_mid": 0.05, "t": 0.25, "t1": 0.05, "slater_margin": 0.25}
PIN_ANCHORS = {"x_star": [0.2], "y": [0.45], "y_star": [0.3]}
# column means 0.36, -0.3 and 0.3: upward and downward deviations both occur
PIN_NOISE = np.array([[0.8, -1.1, 0.3], [-0.2, 0.4, 1.2], [1.5, -0.9, -0.7],
                      [0.3, 0.2, 0.2], [-0.6, -0.1, 0.5]])

SUBSET_RELAXED = ("subset-relaxed: every empirically feasible point "
                  "satisfies all constraints at level {g}")
SUBSET_HARD = ("subset-hard: every empirically feasible point satisfies "
               "every constraint exactly")
NEAR_VALUE = ("near-optimal-value: every {t1}-near empirical minimizer "
              "costs at most the true optimum + {t}")
POP_FEASIBLE = ("anchor-feasible: the population minimizer is empirically "
                "feasible")

# scheme -> (per-constraint conditions, objective condition, hypotheses,
#            conclusions)
PINNED_SCHEMES = {
    "F": (("F",), None, ("gamma-nonnegative",), (SUBSET_RELAXED,)),
    "C1C2": (("C1", "C2"), None, ("convexity-attested", "slack-point"),
             (SUBSET_RELAXED,)),
    "C1plusC2": (("C1+", "C2"), None,
                 ("convexity-attested", "gamma-positive",
                  "interior-at-half-level"), (SUBSET_RELAXED,)),
    "C1negC2neg": (("C1-", "C2-"), None,
                   ("convexity-attested", "level-within-margin",
                    "interior-point"), (SUBSET_HARD,)),
    "M0": ((), "M0", ("no-stochastic-constraints", "tolerances-ordered"),
           ("near-optimal-subset: every {t1}-near empirical minimizer is "
            "{t}-near optimal",)),
    "P": (("P",), None, (),
          ("anchor-feasible: the anchored minimizer is empirically "
           "feasible",)),
    "exterior": (("F", "P"), "M",
                 ("gamma-nonnegative", "tolerances-ordered",
                  "anchor-in-feasible-set"),
                 (SUBSET_RELAXED, POP_FEASIBLE, NEAR_VALUE)),
    "exterior_convex": (("C1+", "C2", "P"), "M",
                        ("convexity-attested", "gamma-positive",
                         "tolerances-ordered", "interior-at-half-level",
                         "anchor-in-feasible-set"),
                        (SUBSET_RELAXED, POP_FEASIBLE, NEAR_VALUE)),
    "interior": (("C1-", "C2-", "P-"), "M-",
                 ("convexity-attested", "level-within-margin",
                  "tolerances-ordered", "interior-point",
                  "anchor-in-tightened-set"),
                 (SUBSET_HARD,
                  "anchor-feasible: the tightened-problem minimizer is "
                  "empirically feasible",
                  "near-optimal-subset: every {t1}-near empirical minimizer "
                  "is within {t} + (tightening cost at {g}) of optimal")),
}
# the exterior scheme words its anchor note differently from exterior_convex
NOTE_REMARKS = {("exterior", "anchor-in-feasible-set"):
                " (optimality is attested)"}


def affine_program(m):
    """f_i(x) = a_i x + b_i on [0, 1]; scenario column i shifts F_i."""
    a, b = AFFINE_A[:m + 1], AFFINE_B[:m + 1]

    def integrand(i):
        return lambda x, xis: a[i] * x[0] + b[i] + xis[:, i]

    return StochasticProgram(
        objective=integrand(0),
        constraints=[integrand(i) for i in range(1, m + 1)],
        space=SpaceDescriptor.interval(0.0, 1.0),
        holder=[HolderInfo(1.0)] * (m + 1),
        oracle=TrueOracle(fns=[lambda x, i=i: a[i] * x[0] + b[i]
                               for i in range(m + 1)]),
        convex=True, name=f"affine-{m}")


def pinned_conditions(ledger, g, eps_hat):
    """Condition name -> (lhs, rhs) for constraint index i, from the ledger."""
    p = PIN_PARAMS
    dg, d0 = ledger.Delta_gamma(g), ledger.Delta_gamma(0.0)
    dx, dy = ledger.delta("x_star"), ledger.delta("y")
    dys = ledger.delta("y_star")
    return {
        "F": lambda i: (float(ledger.Delta_Y[i]), g - float(eps_hat[i])),
        "C1": lambda i: (float(dg[i] + dy[i]), g - p["eps_mid"]),
        "C1+": lambda i: (float(dg[i] + dy[i]), g / 2),
        "C2": lambda i: (float(dg[i]), g - float(eps_hat[i])),
        "C1-": lambda i: (float(d0[i] + dy[i]), g),
        "C2-": lambda i: (float(d0[i]), -float(eps_hat[i])),
        "P": lambda i: (float(dx[i]), float(eps_hat[i])),
        "P-": lambda i: (float(dys[i]), g + float(eps_hat[i])),
        "M0": (ledger.Delta0_at("x_star", 0.0), p["t"] - p["t1"]),
        "M": (ledger.Delta0_at("x_star", g), p["t"] - p["t1"]),
        "M-": (ledger.Delta0_at("y_star", 0.0), p["t"] - p["t1"]),
    }


def pinned_notes(program, g, m):
    p = PIN_PARAMS
    fy = [program.true_fn(i, PIN_ANCHORS["y"]) for i in range(1, m + 1)]
    top = max(fy) if m else float("-inf")
    return {
        "gamma-nonnegative": f"gamma={g}",
        "gamma-positive": f"gamma={g}",
        "convexity-attested": "",
        "slack-point": f"needs f_i(y) < {p['eps_mid']} < {g}; "
                       f"max f_i(y) = {top}",
        "interior-at-half-level": f"needs f_i(y) < gamma/2 = {g / 2}; "
                                  f"max f_i(y) = {top}",
        "level-within-margin": f"needs 0 < gamma <= {p['slater_margin']}, "
                               f"got {g}",
        "interior-point": f"needs f_i(y) < -gamma = {-g}; max f_i(y) = {top}",
        "no-stochastic-constraints": f"scheme M0 needs m=0, got m={m}",
        "tolerances-ordered": f"t={p['t']}, t1={p['t1']}",
        "anchor-in-feasible-set": "x_star must satisfy the population "
                                  "constraints",
        "anchor-in-tightened-set": "y_star must satisfy constraints at "
                                   "-gamma (its optimality there is "
                                   "attested)",
    }


def pinned_case(scheme, m, noise, g=0.1):
    """Problem and ledger; interior schemes get tightened relaxations."""
    sign = -1.0 if scheme in ("C1negC2neg", "interior") else 1.0
    emp = build_empirical(affine_program(m),
                          ScenarioSet(noise * PIN_NOISE[:, :m + 1]),
                          np.full(m, sign * 0.02))
    return emp, deviation_ledger(emp, gamma=g, h=0.1, anchors=PIN_ANCHORS)


@pytest.mark.parametrize("noise", [0.01, 0.3])
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("scheme", sorted(PINNED_SCHEMES))
def test_checker_schemes_pinned(scheme, m, noise):
    """Names, order, ledger-valued sides and notes of every scheme."""
    g = 0.1
    emp, ledger = pinned_case(scheme, m, noise, g)
    report = check_certificates(emp, ledger, scheme, params=PIN_PARAMS)

    per, obj, hyps, concl = PINNED_SCHEMES[scheme]
    sides = pinned_conditions(ledger, g, emp.relaxations)
    want = [(f"{c}[{i + 1}]", sides[c](i)) for i in range(m) for c in per]
    if obj is not None:
        want.append((obj, sides[obj]))
    assert [(c.name, (c.lhs, c.rhs)) for c in report.conditions] == want

    notes = pinned_notes(emp.program, g, m)
    assert [(hyp.name, hyp.note) for hyp in report.hypotheses] == [
        (name, notes[name] + NOTE_REMARKS.get((scheme, name), ""))
        for name in hyps]

    fmt = {"g": g, "t": PIN_PARAMS["t"], "t1": PIN_PARAMS["t1"]}
    claims = [c.format(**fmt) for c in concl]
    assert report.conclusions == (claims if report.holds else [])
    assert report.to_json()["conclusions"] == report.conclusions


def test_checker_pinned_cases_hold_and_fail():
    """The pinned grid exercises both outcomes of every scheme."""
    for scheme in PINNED_SCHEMES:
        outcomes = {check_certificates(*pinned_case(scheme, m, noise),
                                       scheme, params=PIN_PARAMS).holds
                    for m in (0, 1, 2) for noise in (0.01, 0.3)}
        assert outcomes == {True, False}, scheme


@pytest.mark.parametrize("scheme, params, missing", [
    ("C1C2", {}, ["eps_mid"]),
    ("C1negC2neg", {}, ["slater_margin"]),
    ("M0", {"t1": 0.1}, ["t"]),
    ("exterior", {}, ["t"]),
    ("exterior_convex", {"eps_mid": 0.05}, ["t"]),
    ("interior", {"t": 0.25}, ["slater_margin"]),
    ("interior", {}, ["t", "slater_margin"]),
])
def test_checker_missing_params_raise_config_error(scheme, params, missing):
    emp, ledger = pinned_case(scheme, 1, 0.01)
    with pytest.raises(ConfigError) as err:
        check_certificates(emp, ledger, scheme, params=params)
    assert err.value.details["missing"] == missing
