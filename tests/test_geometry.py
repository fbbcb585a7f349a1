"""Packing nets, entropy numbers, the chaining constant, and projections."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saacert
from saacert import geometry
from saacert.apps import ReturnsDataset, build_portfolio
from saacert.certify import _max_ratio, estimate_regularity
from saacert.errors import BudgetError, ConfigError
from saacert.families import make_family
from saacert.geometry import (GRID_BUDGET, SpaceDescriptor, _boundary_split,
                              _entropy_model, _nearest_dists,
                              _volume_extent, a_alpha,
                              cross_dists, dists_to, entropy_number,
                              greedy_pack, max_pairwise, min_pairwise_gap,
                              packing_net, set_deviation, vec_norm)
from saacert.moments import variance_profile
from saacert.problem import MODULUS_RTOL, ScenarioSet, build_empirical

# Frozen reference: chaining constant of the two-point set {0, 1},
# recomputed independently in test_a_alpha_two_point_matches_series below.
A1_TWO_POINT = 1.5519953931848245


def exhaustive_max_packing(points, theta, norm):
    """Exact maximum theta-separated subset size by branch and bound."""
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
        if count + int(allowed[order[idx:]].sum() if idx < n else 0) <= best[0]:
            return
        if idx == n:
            best[0] = max(best[0], count)
            return
        i = order[idx]
        if allowed[i]:
            nxt = allowed & ~conflict[i]
            nxt[i] = False
            dfs(idx + 1, nxt, count + 1)
        dfs(idx + 1, allowed, count)

    dfs(0, np.ones(n, dtype=bool), 0)
    return best[0]


def test_packing_interval_counts():
    space = SpaceDescriptor.box([0.0], [1.0])
    pts = packing_net(space, 0.4, h=0.01)
    assert len(pts) == 3
    # pairwise separation strictly above theta
    for i in range(len(pts)):
        d = dists_to(np.delete(pts, i, axis=0), pts[i], "linf")
        assert np.all(d > 0.4)


def test_packing_permutation_invariant():
    """Cloud packing size must not depend on the point order."""
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(30, 2))
    base = len(packing_net(SpaceDescriptor.cloud(pts), 0.3))
    for _ in range(5):
        perm = rng.permutation(30)
        assert len(packing_net(SpaceDescriptor.cloud(pts[perm]), 0.3)) == base


def test_entropy_nonincreasing_in_theta():
    space = SpaceDescriptor.box([0.0, 0.0], [1.0, 1.0])
    values = [entropy_number(space, th, h=0.05).value
              for th in (0.1, 0.2, 0.3, 0.5, 0.8, 1.2)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_entropy_bracket_interval():
    ent = entropy_number(SpaceDescriptor.box([0.0], [1.0]), 0.4, h=0.01)
    assert ent.net_size == 3
    assert ent.within_bracket()


def test_entropy_bracket_holds_on_a_segment():
    """A box with one flat side is a segment: ln M(0.1) is ln 9, the lower
    end counts only the sides above 2 theta and the upper end the box's
    affine dimension 1."""
    ent = entropy_number(SpaceDescriptor.box([0.0, 0.0], [1.0, 0.0]), 0.1)
    assert ent.net_size == 9
    assert ent.bracket == (math.log(5.0), math.log(11.0))
    assert ent.within_bracket()


def test_a_alpha_two_point_matches_series():
    """Recompute the dyadic sum directly from the two-point packing counts."""
    def H(s):
        return math.log(2.0) if s < 1.0 else 0.0

    total, i = 0.0, 1
    while True:
        term = (1.0 / 2 ** i) * math.sqrt(
            H(1.0 / 2 ** i) + H(1.0 / 2 ** (i - 1)) + math.log(i * (i + 1)))
        total += term
        if term < 1e-12 * total:
            break
        i += 1
    comp = a_alpha(SpaceDescriptor.cloud([[0.0], [1.0]]), 1.0)
    assert comp.value == pytest.approx(total, abs=1e-8)
    assert comp.value == pytest.approx(A1_TWO_POINT, abs=1e-12)


def test_a_alpha_single_level_closed_form():
    comp = a_alpha(SpaceDescriptor.cloud([[0.0], [1.0]]), 1.0)
    assert comp.terms[0] == pytest.approx(0.5 * math.sqrt(2 * math.log(2)),
                                       abs=1e-9)


def test_a_alpha_nondecreasing_in_diameter():
    values = []
    for D in (0.5, 1.0, 2.0):
        comp = a_alpha(SpaceDescriptor.box([0.0], [D]), 1.0)
        assert comp.diameter == pytest.approx(D)
        values.append(comp.value)
    assert values[0] <= values[1] + 1e-12 <= values[2] + 2e-12


def test_a_alpha_truncation_reported():
    comp = a_alpha(SpaceDescriptor.box([0.0], [1.0]), 0.5)
    assert comp.levels >= 1
    assert comp.tail_bound >= 0.0
    assert comp.value > 0.0


def test_set_deviation_monotone_in_target():
    """Adding points to the target set can only shrink the deviation."""
    rng = np.random.default_rng(11)
    a = rng.uniform(size=(12, 2))
    b_small = rng.uniform(size=(4, 2))
    b_large = np.vstack([b_small, rng.uniform(size=(8, 2))])
    d_small = set_deviation(a, b_small, "l2")
    d_large = set_deviation(a, b_large, "l2")
    assert d_large <= d_small + 1e-12


def test_set_deviation_zero_on_subset():
    pts = np.array([[0.0, 0.0], [0.5, 0.5]])
    assert set_deviation(pts, np.vstack([pts, [[1.0, 1.0]]]), "l2") == 0.0


def test_ball_grid_respects_radius():
    space = SpaceDescriptor.ball([0.0, 0.0], 0.5)
    grid = space.grid(0.1)
    assert len(grid) > 0
    assert np.all(np.linalg.norm(grid, axis=1) <= 0.5 + 1e-12)


def test_product_grid_concatenates_parts():
    space = SpaceDescriptor.product(SpaceDescriptor.simplex(2),
                                    SpaceDescriptor.interval(-1.0, 1.0))
    grid = space.grid(0.5)
    assert grid.shape[1] == 3
    assert np.allclose(grid[:, :2].sum(axis=1), 1.0)
    assert np.all((grid[:, 2] >= -1.0 - 1e-12) & (grid[:, 2] <= 1.0 + 1e-12))


def test_simplex_projection_matches_sort_method():
    rng = np.random.default_rng(5)
    space = SpaceDescriptor.simplex(4)
    for _ in range(25):
        v = rng.normal(size=4) * 2
        x = space.project(v)
        assert x.min() >= -1e-12
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        # projection optimality: no feasible grid point is closer
        for y in np.eye(4):
            assert np.linalg.norm(v - x) <= np.linalg.norm(v - y) + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
       st.floats(0.1, 3.0))
def test_l1_projection_optimality(vals, radius):
    """The l1-ball projection beats every sparse feasible competitor."""
    v = np.array(vals)
    space = SpaceDescriptor.ball(np.zeros(3), radius, norm="l1")
    x = space.project(v)
    assert np.abs(x).sum() <= radius + 1e-9
    competitors = [np.zeros(3)]
    for j in range(3):
        e = np.zeros(3)
        e[j] = radius * np.sign(v[j] if v[j] != 0 else 1.0)
        competitors.append(e)
    competitors.append(np.clip(v, -radius / 3, radius / 3))
    for y in competitors:
        if np.abs(y).sum() <= radius + 1e-12:
            assert np.linalg.norm(v - x) <= np.linalg.norm(v - y) + 1e-9


def test_greedy_packing_attains_maximum_on_small_cases():
    """Spots where the lexicographic greedy net happens to be optimal."""
    cases_1d = [(1.0, 0.4, 0.1), (1.0, 0.3, 0.1), (2.0, 0.7, 0.1),
                (1.0, 0.9, 0.1), (0.5, 0.2, 0.05)]
    for L, theta, h in cases_1d:
        sp = SpaceDescriptor.box([0.0], [L])
        assert len(packing_net(sp, theta, h)) == exhaustive_max_packing(
            sp.grid(h), theta, sp.norm)
    sp = SpaceDescriptor.box([0.0, 0.0], [1.0, 1.0])
    assert len(packing_net(sp, 0.5, 0.25)) == exhaustive_max_packing(
        sp.grid(0.25), 0.5, sp.norm)


# ---------------------------------------------------------------------------
# pruned kernels against brute-force scans, bit for bit


def brute_max(pts, norm):
    return float(cross_dists(pts, pts, norm).max()) if len(pts) > 1 else 0.0


def brute_gap(pts, norm):
    if len(pts) < 2:
        return math.inf
    dist = cross_dists(pts, pts, norm)
    np.fill_diagonal(dist, math.inf)
    return float(dist.min())


def brute_pack(cands, theta, norm):
    """First fit in lexicographic order, scanning every candidate."""
    cands = cands[np.lexsort(cands.T[::-1])]
    alive = np.ones(len(cands), dtype=bool)
    chosen = []
    while alive.any():
        idx = int(np.argmax(alive))
        chosen.append(idx)
        alive &= dists_to(cands, cands[idx], norm) > theta
    return cands[np.array(chosen, dtype=int)]


@st.composite
def point_sets(draw, dims=(1, 2, 3, 4)):
    """Gaussian clouds, lattice subsets and sets with repeated rows."""
    n = draw(st.integers(0, 40))
    d = draw(st.sampled_from(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8, 8))
    offset = draw(st.sampled_from([0.0, 1.0, -1e8, 3e-8]))
    shape = draw(st.sampled_from(["gauss", "lattice", "repeats"]))
    if shape == "gauss":
        pts = rng.standard_normal((n, d)) * scale
    elif shape == "lattice":
        pts = rng.integers(-5, 6, size=(n, d)) * scale
    else:
        base = rng.standard_normal((max(1, n // 3), d)) * scale
        pts = base[rng.integers(len(base), size=n)]
    return pts.reshape(n, d) + offset


NORM = st.sampled_from(["l1", "l2", "linf"])


@settings(max_examples=150, deadline=None)
@given(point_sets(), NORM)
def test_diameter_and_gap_match_brute_force(pts, norm):
    assert max_pairwise(pts, norm) == brute_max(pts, norm)
    assert min_pairwise_gap(pts, norm) == brute_gap(pts, norm)


@settings(max_examples=150, deadline=None)
@given(point_sets(), NORM, st.floats(0.0, 3.0))
def test_greedy_pack_matches_brute_force(pts, norm, rel_theta):
    if not len(pts):
        return
    theta = rel_theta * float(np.ptp(pts)) if np.ptp(pts) > 0 else rel_theta
    assert np.array_equal(greedy_pack(pts, theta, norm),
                          brute_pack(pts, theta, norm))


@settings(max_examples=150, deadline=None)
@given(point_sets(), point_sets(), NORM)
def test_nearest_distances_match_brute_force(a, b, norm):
    if a.shape[1] != b.shape[1] or not len(b):
        return
    nearest = cross_dists(a, b, norm).min(axis=1)
    assert np.array_equal(_nearest_dists(a, b, norm), nearest)
    expected = max(0.0, float(nearest.max())) if len(a) else 0.0
    assert set_deviation(a, b, norm) == expected


@settings(max_examples=40, deadline=None)
@given(point_sets(dims=(8, 9)), point_sets(dims=(8,)), NORM)
def test_kernels_match_brute_force_in_eight_or_more_dims(pts, other, norm):
    """From d = 8 on numpy sums pairwise; l1 and l2 keep cross_dists."""
    assert max_pairwise(pts, norm) == brute_max(pts, norm)
    assert min_pairwise_gap(pts, norm) == brute_gap(pts, norm)
    if len(pts):
        assert np.array_equal(greedy_pack(pts, 0.5 * float(np.ptp(pts)), norm),
                              brute_pack(pts, 0.5 * float(np.ptp(pts)), norm))
    if pts.shape[1] == other.shape[1] and len(other):
        assert np.array_equal(_nearest_dists(pts, other, norm),
                              cross_dists(pts, other, norm).min(axis=1))


@st.composite
def grid_subsets(draw, dims=(1, 2, 3, 4, 8, 9)):
    """Rows ``a`` and ``b`` drawn as masks of one product grid, so that
    ``b`` has interior rows: dense and sparse masks, repeated rows, -0.0
    next to 0.0, an empty ``a`` and widths that only broadcast."""
    d = draw(st.sampled_from(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8, 8))
    axes = []
    for _ in range(d):
        side = draw(st.integers(1, 4 if d <= 4 else 2))
        steps = (np.ones(side) if draw(st.booleans())
                 else rng.uniform(0.1, 1.0, side))
        axes.append((np.cumsum(steps) - draw(st.integers(0, side))) * scale)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    zeros = grid == 0.0
    grid[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    density = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])
    a = grid[rng.random(len(grid)) < draw(density)]
    in_b = rng.random(len(grid)) < draw(density)
    in_b[rng.integers(len(grid))] = True
    b = grid[in_b]
    if draw(st.booleans()):  # repeated rows, shuffled
        a = a[rng.integers(len(a), size=2 * len(a))] if len(a) else a
        b = b[rng.integers(len(b), size=2 * len(b))]
    cut = draw(st.sampled_from([None, None, None, "a", "b"]))
    if cut == "a":
        a = a[:, :1]
    elif cut == "b":
        b = b[:, :1]
    return a, b


@settings(max_examples=300, deadline=None)
@given(grid_subsets(), NORM)
def test_nearest_distances_on_grid_subsets_match_brute_force_bit_for_bit(sets,
                                                                         norm):
    a, b = sets
    got = _nearest_dists(a, b, norm)
    want = cross_dists(a, b, norm).min(axis=1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_nearest_distances_take_the_plain_scan_when_codes_cannot(norm):
    """Non-finite rows and 2**62 codes or more skip the boundary pass."""
    rng = np.random.default_rng(5)
    b = rng.standard_normal((10, 2))
    odd = np.array([[np.inf, 0.0], [np.nan, 1.0], [0.5, -np.inf], [0.0, 0.0]])
    assert _boundary_split(odd, b) is None
    assert np.array_equal(_nearest_dists(odd, b, norm),
                          cross_dists(odd, b, norm).min(axis=1), equal_nan=True)
    wide = rng.standard_normal((140, 9))  # 150 values a column: 150**9 > 2**62
    narrow = rng.standard_normal((10, 9))
    assert _boundary_split(wide, narrow) is None
    assert (_nearest_dists(wide, narrow, norm).tobytes()
            == cross_dists(wide, narrow, norm).min(axis=1).tobytes())


def test_exterior_geometry_of_ball2d_is_pinned():
    """The regularity ratio and the inflated set at h = 0.02, as computed by
    the full grid-to-set scan; the scan now meets 168 of the 2821 rows."""
    program = make_family("ball2d")
    program.oracle.mc_budget = 500
    est = estimate_regularity(program, h=0.02, use_exact_distance=False)
    assert est.c_hat == 1.4016612938340518 and est.points_used == 6996
    emp = build_empirical(
        program, ScenarioSet.from_sampler(program.oracle.sampler, 60, seed=3),
        np.zeros(program.n_constraints))
    prof = variance_profile(program, emp, "exterior", eps=0.1, h=0.02,
                            c=est.c_hat)
    assert prof.details["feasible_grid_points"] == 2821
    assert prof.details["exterior_grid_points"] == 6025
    grid = program.space.grid(0.02)
    feas = grid[np.hypot(grid[:, 0], grid[:, 1]) <= 0.6 + 1e-12]
    assert len(feas) == 2821
    rest, edge = _boundary_split(grid, feas)
    assert (int(rest.sum()), int(edge.sum())) == (7380, 168)


def test_exterior_workload_does_not_import_numpy_ma():
    """``np.unique`` imports ``numpy.ma`` (2 MiB of resident memory); the
    regularity and exterior-profile path must not reach it."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from saacert.certify import estimate_regularity
        from saacert.families import make_family
        from saacert.moments import variance_profile
        from saacert.problem import ScenarioSet, build_empirical
        program = make_family("ball2d")
        program.oracle.mc_budget = 200
        est = estimate_regularity(program, h=0.05, use_exact_distance=False)
        emp = build_empirical(
            program, ScenarioSet.from_sampler(program.oracle.sampler, 30, seed=1),
            np.zeros(program.n_constraints))
        variance_profile(program, emp, "exterior", eps=0.1, h=0.05, c=est.c_hat)
        assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
    """)
    src = str(Path(saacert.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_kernels_on_zero_one_and_two_points(norm):
    empty, one = np.zeros((0, 2)), np.array([[0.5, -1.0]])
    two = np.array([[0.0, 0.0], [3.0, -4.0]])
    assert max_pairwise(empty, norm) == max_pairwise(one, norm) == 0.0
    assert min_pairwise_gap(empty, norm) == min_pairwise_gap(one, norm) == math.inf
    assert max_pairwise(two, norm) == min_pairwise_gap(two, norm) == brute_max(two, norm)
    assert greedy_pack(empty, 1.0, norm).shape == (0, 2)
    assert np.array_equal(greedy_pack(two, 1.0, norm), two)
    assert np.array_equal(greedy_pack(two, 10.0, norm), two[:1])
    assert set_deviation(empty, two, norm) == 0.0
    assert _nearest_dists(empty, two, norm).shape == (0,)


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_min_gap_is_zero_for_repeated_rows(norm):
    """Repeated rows give a 0.0 gap, so cloud entropy never saturates early."""
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 0.0]])
    assert min_pairwise_gap(pts, norm) == 0.0
    cloud = SpaceDescriptor.cloud(pts, norm=norm)
    assert _entropy_model(cloud)(1e-3) == math.log(2)  # not ln 3


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_set_deviation_rejects_mismatched_widths(norm):
    a = np.zeros((3, 2))
    with pytest.raises(ValueError):
        set_deviation(a, np.zeros((2, 3)), norm)
    with pytest.raises(ValueError):
        set_deviation(np.zeros((3, 3)), a, norm)
    wide, narrow = np.arange(6.0).reshape(2, 3), np.array([[0.5], [4.0]])
    for x, y in ((wide, narrow), (narrow, wide)):
        assert set_deviation(x, y, norm) == float(
            cross_dists(x, y, norm).min(axis=1).max())


BOX = SpaceDescriptor.box([0.0], [1.0])


@pytest.mark.parametrize("build", [
    lambda: SpaceDescriptor.box([1.0], [0.0]),
    lambda: SpaceDescriptor.ball([0.0], -1.0),
    lambda: SpaceDescriptor.simplex(0),
    lambda: SpaceDescriptor.product(),
    lambda: SpaceDescriptor.box([], []),
    lambda: SpaceDescriptor.cloud([]),
    lambda: SpaceDescriptor.box([0.0], [1.0], norm="l7"),
    lambda: SpaceDescriptor.simplex(2, norm="l7"),
    lambda: BOX.grid(0.0),
    lambda: packing_net(BOX, 0.0),
    lambda: a_alpha(BOX, 0.0),
    lambda: a_alpha(BOX, 1.5),
], ids=["box-hi-lo", "ball-radius", "simplex-dim", "product-empty",
        "box-dim-0", "cloud-empty", "box-norm", "simplex-norm", "grid-h",
        "packing-theta", "alpha-0", "alpha-1.5"])
def test_domain_errors_are_config_errors(build):
    """Values outside the domain raise ConfigError where they are used."""
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("space, h, required", [
    (SpaceDescriptor.interval(0.0, 1.0), 2.0 ** -22, 2 ** 22 + 1),
    (SpaceDescriptor.simplex(3), 2.0 ** -12, math.comb(2 ** 12 + 2, 2)),
    (SpaceDescriptor.product(SpaceDescriptor.interval(0.0, 1.0),
                             SpaceDescriptor.interval(0.0, 1.0)), 2.0 ** -11,
     (2 ** 11 + 1) ** 2),
], ids=["box", "simplex", "product-of-boxes"])
def test_grid_over_budget_raises_before_allocating(space, h, required):
    """Each kind sizes its grid where it builds it and refuses one beyond
    GRID_BUDGET; a product does so even when every part is within it."""
    with pytest.raises(BudgetError) as err:
        space.grid(h)
    assert err.value.kind == "budget-exceeded"
    assert err.value.details["required"] == required > GRID_BUDGET
    if space.kind == "product":
        assert all(len(part.grid(h)) <= GRID_BUDGET for part in space.parts)


# ---------------------------------------------------------------------------
# Lipschitz constants of linear maps


@st.composite
def linear_cases(draw):
    """A box, ball or cloud in each norm, an l1 simplex, or a simplex x
    interval product; rows w over six decades; a grid step."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind, norm = draw(st.sampled_from(["box", "ball", "simplex", "cloud",
                                       "product"])), draw(NORM)
    d = draw(st.integers(1, 3))
    lo = rng.uniform(-2.0, 1.0, d)
    if kind == "box":
        space = SpaceDescriptor.box(lo, lo + rng.uniform(0.1, 2.0, d), norm=norm)
    elif kind == "ball":
        space = SpaceDescriptor.ball(lo, rng.uniform(0.1, 2.0), norm=norm)
    elif kind == "cloud":
        space = SpaceDescriptor.cloud(rng.standard_normal((20, d)), norm=norm)
    elif kind == "simplex":
        space = SpaceDescriptor.simplex(draw(st.integers(1, 4)))
    else:
        space = SpaceDescriptor.product(SpaceDescriptor.simplex(d),
                                        SpaceDescriptor.interval(lo[0], lo[0] + 1.5))
    w = rng.standard_normal((8, space.dim)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    return space, w, draw(st.sampled_from([0.5, 0.25]))


def _dual_maximiser(w, norm):
    """A unit vector u in ``norm`` with w^T u the dual norm of w."""
    if norm == "l2":
        return w / np.sqrt(w @ w)
    if norm == "linf":
        return np.sign(w)
    u = np.zeros_like(w)
    u[np.argmax(np.abs(w))] = np.sign(w[np.argmax(np.abs(w))])
    return u


@settings(max_examples=80, deadline=None)
@given(linear_cases())
def test_linear_modulus_bounds_every_secant_ratio(case):
    """linear_modulus(w) >= |w^T (x - y)| / ||x - y|| on the set's grid, up
    to MODULUS_RTOL of rounding; it is the max over vertex pairs on the l1
    simplex, and a ball attains it between c - r u and c + r u."""
    space, w, h = case
    modulus = space.linear_modulus(w)
    assert modulus.shape == (len(w),)
    pts = space.grid(h)
    vals = pts @ w.T
    realised = _max_ratio(pts, vals, 1.0, space.norm)
    scale = np.maximum(modulus, np.abs(vals).max(axis=0)
                       / min_pairwise_gap(pts, space.norm))
    assert np.all(realised <= modulus + MODULUS_RTOL * scale)
    if space.kind == "simplex":
        vertices = np.eye(space.dim)
        assert np.array_equal(modulus, _max_ratio(vertices, vertices @ w.T,
                                                  1.0, "l1"))
    if space.kind == "ball":
        for row, bound in zip(w, modulus):
            step = 2 * space.radius * _dual_maximiser(row, space.norm)
            ratio = abs(row @ step) / vec_norm(step, space.norm)
            assert bound <= ratio * (1 + MODULUS_RTOL)


# ---------------------------------------------------------------------------
# entropy models of the chaining sum


@st.composite
def entropy_cases(draw):
    """A box (at times with a flat side), ball, simplex or cloud in each
    norm, or a simplex x interval x cloud product; theta from a twentieth
    of the diameter to above it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind, norm = draw(st.sampled_from(["box", "ball", "simplex", "cloud",
                                       "product"])), draw(NORM)
    d = draw(st.integers(1, 3))
    lo = rng.uniform(-2.0, 1.0, d)
    if kind == "box":
        sides = rng.uniform(0.1, 2.0, d) * (np.arange(d) != draw(st.integers(1, 4)))
        space = SpaceDescriptor.box(lo, lo + sides, norm=norm)
    elif kind == "ball":
        space = SpaceDescriptor.ball(lo, rng.uniform(0.1, 2.0), norm=norm)
    elif kind == "cloud":
        space = SpaceDescriptor.cloud(rng.standard_normal((20, d)), norm=norm)
    elif kind == "simplex":
        space = SpaceDescriptor.simplex(draw(st.integers(2, 4)), norm=norm)
    else:
        space = SpaceDescriptor.product(
            SpaceDescriptor.simplex(draw(st.integers(2, 3))),
            SpaceDescriptor.interval(lo[0], lo[0] + rng.uniform(0.1, 1.5)),
            SpaceDescriptor.cloud(rng.standard_normal((3, 2)), norm=norm))
    return space, space.diameter() * draw(st.floats(0.05, 1.2))


@settings(max_examples=80, deadline=None)
@given(entropy_cases())
def test_entropy_model_bounds_a_fine_grid_packing(case):
    """ln M(theta) from the chaining sum's entropy model is at least ln of a
    greedy packing of a fine grid of the set.  The packing separates at
    theta (1 + 1e-9), so that a pair rounded just above theta does not
    count; a cloud's model is its own greedy packing at theta."""
    space, theta = case
    model = _entropy_model(space)
    step = max(theta / 3, space.diameter() / 16)
    sep = theta if space.kind == "cloud" else theta * (1 + 1e-9)
    packed = greedy_pack(space.grid(step), sep, space.norm)
    assert model(theta) >= math.log(len(packed))


@pytest.mark.parametrize("space, norm, extent", [
    (SpaceDescriptor.box([0.0, 0.0], [1.0, 0.0], norm="l2"), "l2", (0.5, 1)),
    (SpaceDescriptor.box([0.0, 0.0], [2.0, 1.0]), "l1", (1.5, 2)),
    (SpaceDescriptor.ball([1.0, 1.0], 0.5, norm="linf"), "l1", (1.0, 2)),
    (SpaceDescriptor.simplex(4), "l1", (1.5, 3)),
    (SpaceDescriptor.simplex(4), "linf", (0.75, 3)),
    (SpaceDescriptor.cloud([[0.0, 0.0], [1.0, 1.0]]), "l1", (2.0, 1)),
    (SpaceDescriptor.product(SpaceDescriptor.simplex(2),
                             SpaceDescriptor.interval(0.0, 1.0),
                             SpaceDescriptor.cloud([[0.0, 0.0], [1.0, 1.0]])),
     "l1", (3.5, 3)),
], ids=["segment", "box", "ball", "simplex-l1", "simplex-linf", "cloud",
        "product"])
def test_volume_extent_per_kind(space, norm, extent):
    """R and d of README's volumetric table: half the diameter and the flat
    sides dropped for a box, 2(1 - 1/n) (l1) or 1 - 1/n (l-inf) and n - 1
    for a simplex, the diameter for a cloud, sums for a product."""
    assert _volume_extent(space, norm) == extent


def _portfolio_space(assets):
    dataset = ReturnsDataset.synthetic(assets, 50, 0)
    return build_portfolio(dataset, 0.2, 0.05).program.space


@pytest.mark.parametrize("space", [
    SpaceDescriptor.box([0.0, 0.0], [1.0, 2.0], norm="l2"),
    SpaceDescriptor.ball([0.0, 0.0, 0.0], 1.0, norm="l1"),
    SpaceDescriptor.simplex(3),
    _portfolio_space(5),
    _portfolio_space(8),
], ids=["box-l2", "ball-l1", "simplex", "portfolio-5", "portfolio-8"])
def test_a_alpha_enumerates_no_grid_for_continuous_sets(space, monkeypatch):
    """A_alpha of a box, ball, simplex or product is a closed form: no grid
    is sized (every kind checks its size against the budget before it
    enumerates), so its cost does not grow with the dimension."""
    def no_grid(required, h):
        raise AssertionError("a_alpha sized a grid")

    monkeypatch.setattr(geometry, "_check_budget", no_grid)
    comp = a_alpha(space, 1.0)
    assert comp.entropy_model == "volumetric"
    assert math.isfinite(comp.value) and comp.value > 0
