"""Sample sizes, regularity and gap estimates, ledgers, and the checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saacert.certify import (CHECK_SCHEMES, certificate_from_profile,
                             certificate_from_sigma, check_certificates,
                             deviation_ledger, estimate_regularity,
                             gap_bounds, robinson_constant, sample_size)
from saacert.errors import (ConfigError, DimensionMismatchError,
                            SlaterMarginError)
from saacert.families import make_family
from saacert.geometry import SpaceDescriptor
from saacert.moments import variance_profile
from saacert.problem import (EmpiricalProblem, HolderInfo, ScenarioSet,
                             StochasticProgram, TrueOracle, build_empirical)


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
    for theorem in ("fixed", "exterior"):  # only interior takes a margin
        with pytest.raises(ConfigError) as err:
            sample_size(theorem, 1.0, 0.1, 0.05, m=1, slater_margin=0.2)
        assert err.value.details == {"slater_margin": 0.2}


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


def test_gap_bounds_without_constraints():
    """With m = 0 every grid point is interior at every margin."""
    program = make_family("quad1d")
    for kind in ("exterior", "interior"):
        gap = gap_bounds(program, 0.2, c=1.0, h=0.1, kind=kind)
        assert gap.value == 0.0 and gap.zero_condition


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


def test_deviation_ledger_without_constraints():
    """With m = 0 the population level sets are the whole grid at every level."""
    program = make_family("quad1d")
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 50, seed=0)
    ledger = deviation_ledger(build_empirical(program, scen), gamma=-0.1,
                              h=0.1, anchors={"x_star": [0.3]})
    below = ledger.Delta0_at("x_star", -0.1)
    assert below > 0.0
    assert below == ledger.Delta0_at("x_star", 0.0)


def test_deviation_ledger_rejects_anchors_of_another_dimension():
    program = make_family("quad1d")
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 10, seed=0)
    with pytest.raises(DimensionMismatchError) as err:
        deviation_ledger(build_empirical(program, scen), gamma=0.1, h=0.1,
                         anchors={"x_star": [0.3, 0.4], "y": [0.5]})
    assert err.value.details == {"anchors": ["x_star"], "expected": 1}


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


def test_checker_rejects_a_level_the_ledger_lacks():
    """A gamma the ledger was not built with is a ConfigError naming the
    requested level and the ledger's levels."""
    program = make_family("ball2d")
    scen = ScenarioSet.from_sampler(program.oracle.sampler, 200, seed=0)
    emp = build_empirical(program, scen)
    ledger = deviation_ledger(emp, gamma=0.3, h=0.1, anchors={"y": [0.0, 0.0]})
    with pytest.raises(ConfigError, match="no level 0.5") as err:
        check_certificates(emp, ledger, "C1plusC2", params={"gamma": 0.5})
    assert err.value.details == {"level": 0.5, "levels": ledger.levels}


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


@pytest.mark.parametrize("noise", [0.01, 0.3])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_ledger_active_deviations_match_a_per_constraint_loop(m, noise):
    """Delta_active per level is, per constraint i, max(0, sup of level -
    Fhat_i) over the level-set points with |f_i - level| <= tol_active, and
    0 on an empty active set."""
    emp, ledger = pinned_case("F", m, noise)
    grid = emp.program.space.grid(ledger.h)
    f = [emp.program.true_fn_grid(i, grid) for i in range(1, m + 1)]
    for level, got in zip(ledger.levels, ledger.Delta_active):
        inside = np.ones(len(grid), dtype=bool)
        for fi in f:
            inside &= fi <= level + 1e-12
        want = []
        for i in range(1, m + 1):
            active = inside & (np.abs(f[i - 1] - level) <= ledger.tol_active)
            vals = level - emp.fhat_grid(i, grid)[active]
            want.append(max(0.0, float(vals.max())) if active.any() else 0.0)
        assert got.tolist() == want


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


# ---------------------------------------------------------------------------
# one evaluation pass per ledger side


def noisy_affine_program(a, b, wrap=lambda i, fn: fn):
    """F_i(x, xi) = (a_i + xi_2i) x + b_i + xi_2i+1 on [0, 1], with
    population f_i(x) = a_i x + b_i; ``wrap`` may wrap every integrand and
    closed form (both are tagged by index i)."""
    def integrand(i):
        return lambda x, xis: (a[i] * x[0] + b[i] + xis[:, 2 * i] * x[0]
                               + xis[:, 2 * i + 1])

    m = len(a) - 1
    return StochasticProgram(
        objective=wrap(0, integrand(0)),
        constraints=[wrap(i, integrand(i)) for i in range(1, m + 1)],
        space=SpaceDescriptor.interval(0.0, 1.0),
        holder=[HolderInfo(1.0)] * (m + 1),
        oracle=TrueOracle(fns=[wrap(i, lambda x, i=i: a[i] * x[0] + b[i])
                               for i in range(m + 1)]),
        convex=True, name="noisy-affine")


def reference_ledger(emp, gamma, h, anchors, probes, tol_active):
    """Every ledger number by a per-point, per-anchor loop: population
    values from the closed forms, sample means by ``np.mean``."""
    program, data = emp.program, emp.scenarios.data
    m = program.n_constraints
    grid = program.space.grid(h)
    if probes is not None:
        grid = np.vstack([grid, np.atleast_2d(probes)])

    def f(i, x):
        return float(program.oracle.fns[i](np.asarray(x, dtype=float)))

    def fhat(i, x):
        x = np.asarray(x, dtype=float)
        return float(np.mean(program.integrand(i)(x, data)))

    f_true = np.array([[f(i, x) for x in grid] for i in range(m + 1)])
    f_hat = np.array([[fhat(i, x) for x in grid] for i in range(m + 1)])
    levels = list(dict.fromkeys([gamma, 0.0] if abs(gamma) > 1e-12
                                else [0.0]))
    ref = {"levels": levels, "grid_size": len(grid),
           "Delta_Y": [max(0.0, float(np.max(f_true[i] - f_hat[i])))
                       for i in range(1, m + 1)],
           "Delta_active": [], "Delta0": {},
           "delta_at": {name: [max(0.0, fhat(i, z) - f(i, z))
                               for i in range(1, m + 1)]
                        for name, z in anchors.items()},
           "cons_at": {name: [f(i, z) for i in range(1, m + 1)]
                       for name, z in anchors.items()}}
    for j, lv in enumerate(levels):
        inside = np.all(f_true[1:] <= lv + 1e-12, axis=0)
        row = []
        for i in range(1, m + 1):
            active = inside & (np.abs(f_true[i] - lv) <= tol_active)
            vals = lv - f_hat[i][active]
            row.append(max(0.0, float(vals.max())) if active.any() else 0.0)
        ref["Delta_active"].append(row)
        for name, z in anchors.items():
            shifted = ((f_true[0][inside] - f(0, z))
                       - (f_hat[0][inside] - fhat(0, z)))
            ref["Delta0"][(name, j)] = max(
                0.0, float(shifted.max(initial=-np.inf)))
    return ref


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 3),
       n=st.integers(1, 40), noise=st.sampled_from([0.0, 0.02, 0.3, 2.0]),
       gamma=st.sampled_from([0.0, 1e-13, 0.1, 0.3, -0.2]),
       h=st.sampled_from([0.1, 0.25, 0.3]), n_anchors=st.integers(0, 3),
       with_probes=st.booleans())
def test_ledger_equals_per_anchor_reference_bit_for_bit(
        seed, m, n, noise, gamma, h, n_anchors, with_probes):
    """Tables with the anchors as columns give the very numbers of the
    per-point np.mean and per-anchor fhat/true_fn formulas."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.3, 1.5, m + 1) * rng.choice([-1.0, 1.0], m + 1)
    b = rng.uniform(-0.6, 0.4, m + 1)
    emp = build_empirical(noisy_affine_program(a, b),
                          ScenarioSet(noise * rng.standard_t(3, (n, 2 * m + 2))),
                          rng.uniform(-0.1, 0.2, m))
    anchors = {f"z{k}": [float(rng.uniform())] for k in range(n_anchors)}
    probes = rng.uniform(size=(3, 1)) if with_probes else None
    ledger = deviation_ledger(emp, gamma=gamma, h=h, anchors=anchors,
                              probes=probes, tol_active=0.05)
    ref = reference_ledger(emp, gamma, h, anchors, probes, 0.05)

    assert ledger.levels == ref["levels"]
    assert ledger.grid_size == ref["grid_size"]
    assert ledger.Delta_Y.tolist() == ref["Delta_Y"]
    assert [v.tolist() for v in ledger.Delta_active] == ref["Delta_active"]
    assert ledger.Delta0 == ref["Delta0"]
    assert {k: v.tolist() for k, v in ledger.delta_at.items()} == ref["delta_at"]
    assert {k: v.tolist() for k, v in ledger.cons_at.items()} == ref["cons_at"]
    assert all(np.array_equal(ledger.anchors[k], z) for k, z in anchors.items())


def test_ledger_evaluates_each_point_once_and_checker_reads_it(monkeypatch):
    """One integrand call and one closed-form call per point of grid,
    probes and anchors; the checker evaluates nothing."""
    calls = {}

    def counted(i, fn):
        def wrapped(x, *rest):
            calls[i, bool(rest)] = calls.get((i, bool(rest)), 0) + 1
            return fn(x, *rest)
        return wrapped

    m = 2
    emp = build_empirical(
        noisy_affine_program([0.5, 1.0, -0.8], [0.1, -0.3, -0.2], counted),
        ScenarioSet(0.05 * np.tile(PIN_NOISE, 2)), np.zeros(m))
    calls.clear()
    anchors = {"x_star": [0.2], "y": [0.45], "y_star": [0.3]}
    probes = np.array([[0.33], [0.71]])
    ledger = deviation_ledger(emp, gamma=0.1, h=0.25, anchors=anchors,
                              probes=probes)
    points = len(emp.program.space.grid(0.25)) + len(probes) + len(anchors)
    assert ledger.grid_size == points - len(anchors)
    # (i, True) counts sample-side integrand calls, (i, False) closed forms
    assert calls == {(i, side): points for i in range(m + 1)
                     for side in (True, False)}

    def forbidden(*args, **kwargs):
        raise AssertionError("the checker must read the ledger")

    monkeypatch.setattr(StochasticProgram, "true_fn", forbidden)
    monkeypatch.setattr(EmpiricalProblem, "fhat", forbidden)
    calls.clear()
    for scheme in CHECK_SCHEMES:
        check_certificates(emp, ledger, scheme, params=PIN_PARAMS)
    assert calls == {}
