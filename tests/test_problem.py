"""Programs, scenario sets, empirical means, and grid level sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saacert.distributions import make_distribution
from saacert.errors import (BudgetError, ConfigError,
                            DimensionMismatchError, EmptySampleError)
from saacert.families import make_family
from saacert.geometry import SpaceDescriptor
from saacert.problem import (MC_SEED, SET_TOL, EmpiricalProblem, HolderInfo,
                             ScenarioSet, StochasticProgram, TrueOracle,
                             _constraint_table, _sample_means, build_empirical,
                             read_table, relaxed_set_grid)
from saacert.solve import solve


def toy_program():
    """f0 = (x - xi)^2 over [0, 1] with one constraint x + xi <= 0.75."""
    def f0(x, xis):
        return (x[0] - xis[:, 0]) ** 2

    def f1(x, xis):
        return x[0] + xis[:, 0] - 0.75

    return StochasticProgram(
        objective=f0, constraints=[f1],
        space=SpaceDescriptor.interval(0.0, 1.0),
        holder=[HolderInfo(1.0), HolderInfo(1.0)],
        name="toy")


@pytest.mark.parametrize("name", ["holder", "gradients"])
def test_per_integrand_lists_must_match_the_integrands(name):
    """A list with one entry per integrand that is one short fails on
    construction, naming the field, not at its first use."""
    short = {"holder": [HolderInfo(1.0)], "gradients": [None]}
    full = {"holder": [HolderInfo(1.0), HolderInfo(1.0)]}
    program = toy_program()
    with pytest.raises(DimensionMismatchError) as err:
        StochasticProgram(objective=program.objective,
                          constraints=program.constraints,
                          space=program.space, **{**full, name: short[name]})
    assert err.value.details == {"field": name, "expected": 2, "got": 1}


def test_empirical_mean_example():
    emp = build_empirical(toy_program(), ScenarioSet([[0.0], [4.0]]))
    # ((2-0)^2 + (2-4)^2) / 2 = 4
    assert emp.fhat(0, [2.0]) == pytest.approx(4.0)


def test_fhat_grid_matches_pointwise():
    emp = build_empirical(toy_program(), ScenarioSet([[0.1], [0.3], [-0.2]]))
    grid = emp.program.space.grid(0.1)
    batch = emp.fhat_grid(0, grid)
    single = np.array([emp.fhat(0, x) for x in grid])
    assert np.allclose(batch, single)


def test_scenario_order_is_irrelevant():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(40, 1))
    emp_a = build_empirical(toy_program(), ScenarioSet(data))
    emp_b = build_empirical(toy_program(), ScenarioSet(data[::-1].copy()))
    for x in ([0.0], [0.4], [1.0]):
        assert emp_a.fhat(0, x) == pytest.approx(emp_b.fhat(0, x))
        assert emp_a.fhat(1, x) == pytest.approx(emp_b.fhat(1, x))


def test_membership_and_relaxation_monotone():
    """Raising the relaxation level can only enlarge the empirical set."""
    program = toy_program()
    scen = ScenarioSet([[0.2], [0.4]])
    grid = program.space.grid(0.05)
    previous = 0
    for eps in (-0.2, 0.0, 0.2, 0.5):
        emp = build_empirical(program, scen, np.array([eps]))
        count = int(emp.feasible_mask(grid).sum())
        assert count >= previous
        previous = count
    emp = build_empirical(program, scen, np.array([0.0]))
    assert emp.feasible_mask([[0.1], [0.9]]).tolist() == [True, False]


def test_empty_scenarios_rejected():
    with pytest.raises(EmptySampleError):
        ScenarioSet(np.zeros((0, 1)))


def test_csv_round_trip(tmp_path):
    scen = ScenarioSet([[0.5, -1.0], [2.5, 0.25]], seed=3)
    path = tmp_path / "draws.csv"
    scen.to_csv(path)
    back = ScenarioSet.from_csv(path)
    assert np.allclose(back.data, scen.data)
    assert back.k == 2


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DimensionMismatchError):
        ScenarioSet.from_csv(path)


@pytest.mark.parametrize("reader", [ScenarioSet.from_csv, read_table])
def test_csv_rejects_ragged_rows(tmp_path, reader):
    path = tmp_path / "ragged.csv"
    path.write_text("xi_1,xi_2\n1,2\n3\n")
    with pytest.raises(DimensionMismatchError,
                       match="rows do not match the header") as err:
        reader(path)
    assert err.value.details == {"expected": 2}


def test_sampler_draws_are_seeded():
    sampler = lambda rng, n: rng.normal(size=(n, 2))
    a = ScenarioSet.from_sampler(sampler, 16, seed=42)
    b = ScenarioSet.from_sampler(sampler, 16, seed=42)
    assert np.array_equal(a.data, b.data)
    assert a.seed == 42


class TestRelaxedSets:
    """Relaxed, interior and active sets as masks of one constraint table.

    The constraint x1 + x2 <= 1.2 cuts [0, 1]^2, so every level between
    -0.5 and 0.5 gives a set strictly between empty and the whole grid.
    """

    def setup_method(self):
        program = make_family("halfspace_box", noise=0.0, obj_noise=0.0)
        self.table = _constraint_table(program, program.space.grid(0.05))

    def test_relaxed_levels_nest(self):
        masks = [relaxed_set_grid(self.table, level) for level in (0.0, 0.1, 0.3)]
        assert 0 < masks[0].sum() < masks[1].sum() < masks[2].sum() < masks[2].size
        for inner, outer in zip(masks, masks[1:]):
            assert np.all(outer[inner])

    def test_interior_tightens(self):
        relaxed = relaxed_set_grid(self.table)
        interior = relaxed_set_grid(self.table, -0.1)
        assert 0 < interior.sum() < relaxed.sum()
        assert np.all(relaxed[interior])

    def test_active_set_sits_near_level(self):
        in_level, active = relaxed_set_grid(self.table, 0.2, tol_active=0.05)
        assert np.array_equal(in_level, relaxed_set_grid(self.table, 0.2))
        assert active.shape == self.table.shape
        assert 0 < active.sum() < in_level.sum()
        assert np.all(in_level[active[0]])
        assert np.all(np.abs(self.table[0][active[0]] - 0.2) <= 0.05)


def _reference_level_set(table, level, tol_active):
    """Per-point reference for the level-set rule: x is in the set when
    every g_i(x) <= level + 1e-12, and in the active set of constraint i
    when, in addition, |g_i(x) - level| <= tol_active."""
    m, g = table.shape
    inside = np.array([all(table[i, j] <= level + 1e-12 for i in range(m))
                       for j in range(g)], dtype=bool)
    active = np.array([[bool(inside[j]) and abs(table[i, j] - level) <= tol_active
                        for j in range(g)] for i in range(m)],
                      dtype=bool).reshape(m, g)
    return inside, active


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(0, 3), g=st.integers(1, 6),
       level=st.sampled_from([0.0, 0.2, -0.4, 1e-3]),
       tol=st.sampled_from([0.0, 1e-12, 1e-6, 0.05]))
def test_level_set_masks_match_a_per_point_reference(data, m, g, level, tol):
    """Values sit at and around level +- SET_TOL and level +- tol, a few
    ulps either way; m = 0 gives the whole grid."""
    anchors = st.sampled_from([level, level + SET_TOL, level - SET_TOL,
                               level + tol, level - tol])
    cell = st.one_of(
        st.builds(lambda v, k: float(np.nextafter(v, np.inf * k)) if k else v,
                  anchors, st.integers(-1, 1)),
        st.floats(-1.0, 1.0))
    table = np.array(data.draw(st.lists(st.lists(cell, min_size=g, max_size=g),
                                        min_size=m, max_size=m)),
                     dtype=float).reshape(m, g)
    inside, active = _reference_level_set(table, level, tol)
    assert np.array_equal(relaxed_set_grid(table, level), inside)
    got_inside, got_active = relaxed_set_grid(table, level, tol)
    assert np.array_equal(got_inside, inside)
    assert np.array_equal(got_active, active)
    if m == 0:
        assert inside.all()


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 40000])
def test_per_point_means_equal_np_mean_bit_for_bit(n):
    """The per-point fallback of ``fhat_grid`` and ``fhat`` is ``np.mean``
    without its dispatch: the same float64 bits, also where pairwise
    summation rounds differently from a left-to-right sum."""
    rng = np.random.default_rng(n)
    data = np.column_stack([1e3 * rng.standard_t(3, size=n),
                            rng.uniform(-1, 1, size=n)])

    def f0(x, xis):
        return xis[:, 0] * x[0] + np.sin(xis[:, 1] / (x[0] + 0.1))

    program = StochasticProgram(objective=f0, constraints=[],
                                space=SpaceDescriptor.interval(0.0, 1.0),
                                holder=[HolderInfo(1.0)], name="means")
    pts = np.linspace(0.0, 1.0, 9)[:, None]
    want = np.array([float(np.mean(f0(x, data))) for x in pts])
    got = _sample_means(program, 0, pts, ScenarioSet(data))
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    emp = build_empirical(program, ScenarioSet(data))
    assert [emp.fhat(0, x) for x in pts] == want.tolist()


def test_true_fn_uses_closed_form_when_available():
    """quad1d's population mean (x - a)^2 + s mu x, from its noise-affine
    integrand at the noise mean, with non-centred noise."""
    program = make_family("quad1d", a=0.25, noise=0.2, dist="lognormal")
    mu = make_distribution("lognormal").mean
    x = np.array([0.4])
    assert program.true_fn(0, x) == pytest.approx(
        (0.4 - 0.25) ** 2 + 0.2 * mu * 0.4, abs=1e-12)


def test_true_fn_monte_carlo_fallback():
    """Without closed forms the oracle falls back to a cached MC estimate."""
    def f0(x, xis):
        return (x[0] - xis[:, 0]) ** 2

    program = StochasticProgram(
        objective=f0, constraints=[], space=SpaceDescriptor.interval(0, 1),
        holder=[HolderInfo(1.0)],
        oracle=TrueOracle(sampler=lambda rng, n: rng.normal(size=(n, 1)),
                          mc_budget=50_000),
        name="mc-toy")
    # E (x - Z)^2 = x^2 + 1 for standard normal Z
    assert program.true_fn(0, np.array([0.5])) == pytest.approx(1.25, abs=0.02)


def test_monte_carlo_draws_follow_the_budget_and_sampler():
    """The cached population draws are reused while the oracle's budget and
    sampler stay, and drawn again (from the same seed) when either changes."""
    program = make_family("quad1d")
    first = program._mc_draws
    assert len(first.data) == program.oracle.mc_budget
    assert program._mc_draws is first
    program.oracle.mc_budget = 500
    assert len(program._mc_draws.data) == 500
    assert np.array_equal(program._mc_draws.data, ScenarioSet.from_sampler(
        program.sampler, 500, MC_SEED).data)
    program.oracle.sampler = lambda rng, n: np.full((n, 1), 2.0)
    assert np.array_equal(program._mc_draws.data, np.full((500, 1), 2.0))


def overflowing_program(objective_scale, constraint_scale):
    """Means that overflow on part of [0, 1] but not at the probe x = 0."""
    def f0(x, xis):
        return -(objective_scale * x[0]) * xis[:, 0]

    def f1(x, xis):
        return (constraint_scale * x[0]) * xis[:, 0] - 1.0

    return StochasticProgram(
        objective=f0, constraints=[f1],
        space=SpaceDescriptor.interval(0.0, 1.0),
        holder=[HolderInfo(1.0), HolderInfo(1.0)], name="overflowing")


@pytest.mark.parametrize("scales, integrand", [((1e-10, 10.0), 1),
                                               ((10.0, 0.0), 0)],
                         ids=["constraint-table", "objective-at-the-solution"])
def test_non_finite_means_raise_naming_the_integrand(scales, integrand):
    """A constraint table, or the solve's own result, that holds an inf
    raises BudgetError naming the integrand; no overflow warning escapes
    (RuntimeWarnings are errors in this suite)."""
    emp = build_empirical(overflowing_program(*scales),
                          ScenarioSet([[1e308], [1.5e308]]), np.array([0.0]))
    grid = emp.program.space.grid(0.1)
    if integrand:
        with pytest.raises(BudgetError) as info:
            _constraint_table(emp, grid)
        assert info.value.details["integrand"] == integrand
    else:
        assert np.isfinite(_constraint_table(emp, grid)).all()
    with pytest.raises(BudgetError) as info:
        solve(emp)
    assert info.value.details["integrand"] == integrand
    assert f"integrand {integrand}" in info.value.message


def test_read_table_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError) as info:
        read_table(tmp_path / "missing.csv")
    assert info.value.details == {"path": str(tmp_path / "missing.csv")}


def test_every_average_goes_through_sample_means(monkeypatch):
    """``fhat``, ``residuals`` and the Monte Carlo ``true_fn_grid`` each reach
    ``_sample_means``, and no integrand is evaluated outside it."""
    inside = []

    def guarded(fn):
        def call(x, xis):
            assert inside, "integrand evaluated outside _sample_means"
            return fn(x, xis)
        return call

    toy = toy_program()
    program = StochasticProgram(
        objective=guarded(toy.objective),
        constraints=[guarded(toy.constraints[0])], space=toy.space,
        holder=toy.holder, name="guarded",
        oracle=TrueOracle(sampler=lambda rng, n: rng.normal(size=(n, 1)),
                          mc_budget=200))
    emp = EmpiricalProblem(program, ScenarioSet([[0.0], [0.5], [4.0]]),
                           np.array([0.1]))
    reached = []

    def counted(program, i, pts, scenarios):
        reached.append(i)
        inside.append(True)
        try:
            return _sample_means(program, i, pts, scenarios)
        finally:
            inside.pop()

    monkeypatch.setattr("saacert.problem._sample_means", counted)
    assert emp.fhat(0, [0.5]) == pytest.approx((0.25 + 0.0 + 12.25) / 3)
    assert reached == [0]
    assert emp.residuals([0.5]).tolist() == pytest.approx([0.5 + 1.5 - 0.75 - 0.1])
    assert reached == [0, 1]
    assert program.true_fn_grid(0, [[0.2], [0.7]]).shape == (2,)
    assert reached == [0, 1, 0]
    program.true_fn(1, [0.5])
    assert reached == [0, 1, 0, 1]
