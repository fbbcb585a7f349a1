"""Programs, scenario sets, empirical means, and relaxed-set queries."""

import numpy as np
import pytest

from saacert.errors import DimensionMismatchError, EmptySampleError
from saacert.families import make_family
from saacert.geometry import SpaceDescriptor
from saacert.problem import (HolderInfo, RelaxedSetQuery, ScenarioSet,
                             StochasticProgram, TrueOracle, build_empirical,
                             read_table, relaxed_set_grid)


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
    rec = emp.membership([0.1])
    assert rec.in_hard_set and rec.feasible
    assert emp.membership([0.9]).feasible is False


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
    """Grid enumeration of relaxed, interior, active and inflated sets."""

    def setup_method(self):
        self.program = make_family("quad1d", a=0.3, noise=0.0)

    def test_relaxed_levels_nest(self):
        sizes = []
        for level in (0.0, 0.1, 0.3):
            query = RelaxedSetQuery(kind="relaxed", level=level)
            sizes.append(len(relaxed_set_grid(self.program, query, h=0.01).points))
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_interior_tightens(self):
        relaxed = relaxed_set_grid(
            self.program, RelaxedSetQuery(kind="relaxed", level=0.0), h=0.01)
        interior = relaxed_set_grid(
            self.program, RelaxedSetQuery(kind="interior", level=0.1), h=0.01)
        assert len(interior.points) <= len(relaxed.points)

    def test_active_set_sits_near_level(self):
        program = make_family("halfspace_box", noise=0.0, obj_noise=0.0)
        query = RelaxedSetQuery(kind="active", level=0.2, index=1)
        active = relaxed_set_grid(program, query, h=0.05)
        vals = program.true_fn_grid(1, active.points)
        assert np.all(np.abs(vals - 0.2) <= 0.05 + 1e-12)

    def test_exterior_inflates(self):
        program = make_family("ball2d")
        base = relaxed_set_grid(
            program, RelaxedSetQuery(kind="relaxed", level=0.0), h=0.05)
        inflated = relaxed_set_grid(
            program, RelaxedSetQuery(kind="exterior", level=0.1, c=1.0), h=0.05)
        assert len(inflated.points) > len(base.points)


def test_true_fn_uses_closed_form_when_available():
    program = make_family("quad1d", a=0.25)
    x = np.array([0.4])
    assert program.true_fn(0, x) == pytest.approx(
        program.oracle.fns[0](x), abs=1e-12)


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
