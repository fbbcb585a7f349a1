"""Decision-space geometry.

Descriptors for the compact sets the library optimizes over, one class per
kind (``Box``, ``Ball``, ``Simplex``, ``Cloud``, ``Product`` of those) that
holds its own geometry, plus the metric machinery built on them: greedy
packing nets, metric entropy with analytic brackets, the dyadic chaining sum
(entropy model "lattice" for an l-inf box, "cloud" for a cloud, else
"volumetric"), and one-sided set deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations, count, islice

import numpy as np

from .errors import BudgetError, ConfigError, DimensionMismatchError

NORMS = ("l1", "l2", "linf")
_DUAL = {"l1": "linf", "l2": "l2", "linf": "l1"}

# largest grid any descriptor enumerates (BudgetError beyond it)
GRID_BUDGET = 2_000_000

# Rounding slacks (README, "Tolerances"), each for a value that is exact in
# exact arithmetic but computes a few ulps off: a ball's grid keeps the points
# within radius + BALL_TOL; an entropy number within BRACKET_TOL of its
# bracket lies in it; side / theta within LATTICE_RTOL of an integer r is r.
BALL_TOL = 1e-12
BRACKET_TOL = 1e-12
LATTICE_RTOL = 1e-9
# a_alpha stops at a term below CHAIN_RTOL times the partial sum or after
# MAX_LEVELS terms, and bounds the tail up to a term at most TAIL_RTOL times
# max(sum, 1).
CHAIN_RTOL = 1e-9
MAX_LEVELS = 60
TAIL_RTOL = 1e-16

# ---------------------------------------------------------------------------
# norms and distances


def vec_norm(v, norm: str = "l2") -> float:
    """Norm of a single vector under one of the supported tags."""
    v = np.abs(np.asarray(v, dtype=float).ravel())
    return float(_norm_rows(v, norm)) if v.size else 0.0


def _check_extent(sides: list, norm: str) -> None:
    """Raise BudgetError when the ``norm`` of the per-axis extents ``sides``
    overflows.  It bounds every ``norm`` distance in the space, so while it
    is finite the diameter and the distance kernels do not overflow.
    Python floats overflow to inf without a warning."""
    if norm == "linf":
        total = max(sides, default=0.0)
    else:
        total = sum(s * s if norm == "l2" else s for s in sides)
    if not math.isfinite(total):
        raise BudgetError("space extent overflows the float range", norm=norm,
                          extent=sides)


def _norm_rows(diff: np.ndarray, norm: str) -> np.ndarray:
    """Norm along the last axis of an array of absolute differences."""
    if norm == "l1":
        return diff.sum(axis=-1)
    if norm == "l2":
        return np.sqrt((diff * diff).sum(axis=-1))
    if norm == "linf":
        return diff.max(axis=-1)
    raise ConfigError(f"unknown norm {norm!r}", allowed=list(NORMS))


def dists_to(points: np.ndarray, x, norm: str = "l2") -> np.ndarray:
    """Distances from every row of ``points`` to the single point ``x``."""
    diff = np.abs(np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(x, dtype=float))
    return _norm_rows(diff, norm)


def cross_dists(a: np.ndarray, b: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Pairwise distance matrix between rows of ``a`` and rows of ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return _norm_rows(np.abs(a[:, None, :] - b[None, :, :]), norm)


# The kernels below return exactly the float that the brute-force scan over
# ``cross_dists`` returns; each states the condition that makes it exact.
# Three facts carry them.  Every norm's computed value for a pair is at least
# the computed |difference| in any one coordinate (sums of nonnegative
# floats never fall below a term, max is exact, and sqrt(fl(t*t)) == |t|).
# numpy sums a row of d < 8 numbers in sequence, and pairwise from d = 8 on.
# A computed l1/l2 distance is within (d + 3) * 2**-53 of the exact one,
# relatively, so the relative slack _SLACK keeps every pruning bound
# conservative for fewer than 10**6 coordinates, barring underflow.

# rows per block of the blocked all-pairs scan
_CHUNK = 512
# elements per (rows, len(b)) temporary of the nearest-distance kernel
_CELLS = 1 << 15
_SLACK = 1e-9


def max_pairwise(points: np.ndarray, norm: str = "l2") -> float:
    """Largest pairwise distance among the rows of ``points``.

    Under l-inf this is the largest per-axis range: rounding is monotone, so
    fl(max - min) is the largest computed coordinate difference.  Under l1
    and l2 the longest hop of three farthest-point sweeps is a realised pair
    distance ``lb`` that bounds the answer from below, and
    ``||p - q|| <= r(p) + r(q)`` with r the distance to the bounding-box
    centre; only rows with ``r + max r >= lb * (1 - _SLACK)`` can be in a
    farthest pair, and the blocked all-pairs scan runs on those alone.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) < 2:
        return 0.0
    if norm == "linf":
        return float((pts.max(axis=0) - pts.min(axis=0)).max())
    r = dists_to(pts, (pts.min(axis=0) + pts.max(axis=0)) / 2, norm)
    far, lb = int(np.argmax(r)), 0.0
    for _ in range(3):  # farthest-point sweeps: each hop is a realised pair
        hop = dists_to(pts, pts[far], norm)
        far = int(np.argmax(hop))
        lb = max(lb, float(hop[far]))
    pts = pts[r + r.max() >= lb * (1.0 - _SLACK)]
    best = 0.0
    for start in range(0, len(pts), _CHUNK):
        block = cross_dists(pts[start : start + _CHUNK], pts, norm)
        best = max(best, float(block.max()))
    return best


def min_pairwise_gap(points: np.ndarray, norm: str = "l2") -> float:
    """Smallest pairwise distance (inf for < 2 points, 0.0 if rows repeat).

    The rows are sorted with column 0 as the primary key and compared with
    their k-th successor for k = 1, 2, ...; the scan stops once every
    column-0 difference at lag k exceeds the best gap so far, since no
    norm's computed value falls below its computed column-0 difference.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    if n < 2:
        return math.inf
    pts = _lex_order(pts)
    x0 = pts[:, 0]
    best = math.inf
    for lag in range(1, n):
        if best == 0.0 or float((x0[lag:] - x0[:-lag]).min()) > best:
            break
        gaps = _norm_rows(np.abs(pts[lag:] - pts[:-lag]), norm)
        best = min(best, float(gaps.min()))
    return best


def _nearest_dists(a: np.ndarray, b: np.ndarray, norm: str) -> np.ndarray:
    """dist(a_i, b) for every row of ``a``; ``b`` must be nonempty.

    Only the boundary rows of ``b`` are scanned.  With V_j the sorted
    distinct values of column j of a and b, a row of ``b`` is interior when
    each of its 2d neighbours one V_j value up or down is in ``b`` or lies
    outside the V_j.  A row of ``a`` that is in ``b`` gets 0.0; the others
    meet the non-interior rows of ``b`` in ``_scan_nearest``.  This is
    exact: stepping an interior row one V_j value toward a_j gives a row of
    ``b`` whose computed |difference| in column j does not rise (rounding is
    monotone) and leaves the others as they are, so its computed distance
    does not rise either (nor do sums of nonnegative floats, in sequence or
    pairwise).  Each step shortens the index gap to a_i, so the walk ends
    at a boundary row.  Widths that only broadcast, non-finite input and
    2**62 codes or more take the plain scan of all of ``b``.
    """
    if norm not in NORMS:
        raise ConfigError(f"unknown norm {norm!r}", allowed=list(NORMS))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    split = _boundary_split(a, b) if a.shape[1] == b.shape[1] else None
    if split is None:
        return _scan_nearest(a, b, norm)
    rest, edge = split
    out = np.zeros(len(a))
    if rest.any():  # then some row of b is not interior (the walk above)
        out[rest] = _scan_nearest(a[rest], b[edge], norm)
    return out


def _boundary_split(a: np.ndarray, b: np.ndarray):
    """Masks of the rows of ``a`` not in ``b`` and of the non-interior rows
    of ``b``, or None for non-finite input or 2**62 codes or more.  Each row
    gets a mixed-radix int64 code over the V_j; a code plus a stride then
    stays below 2**63."""
    code_a = np.zeros(len(a), dtype=np.int64)
    code_b = np.zeros(len(b), dtype=np.int64)
    sizes, stride = [], 1
    for j in range(a.shape[1]):
        vals = np.concatenate((a[:, j], b[:, j]))
        vals.sort()  # NaN sorts last
        if not (math.isfinite(vals[0]) and math.isfinite(vals[-1])):
            return None
        keep = np.empty(len(vals), dtype=bool)
        keep[0] = True
        np.not_equal(vals[1:], vals[:-1], out=keep[1:])  # -0.0 == 0.0
        vals = vals[keep]
        for code, pts in ((code_a, a), (code_b, b)):
            idx = np.searchsorted(vals, pts[:, j])
            idx *= stride
            code += idx
        sizes.append(len(vals))
        stride *= len(vals)
        if stride >= 1 << 62:
            return None
    known = np.sort(code_b)

    def in_b(code):
        pos = np.searchsorted(known, code)
        return known[np.minimum(pos, len(known) - 1)] == code

    interior = np.ones(len(b), dtype=bool)
    stride = 1
    for size in sizes:
        digit = code_b // stride % size
        interior &= (digit == 0) | in_b(code_b - stride)
        interior &= (digit == size - 1) | in_b(code_b + stride)
        stride *= size
    return ~in_b(code_a), ~interior


def _scan_nearest(a: np.ndarray, b: np.ndarray, norm: str) -> np.ndarray:
    """dist(a_i, b) for every row of ``a``, scanning all of ``b``.

    Blocks of rows of ``a`` meet all of ``b`` one coordinate at a time, in
    (rows, len(b)) temporaries (blocked ``cross_dists`` would add an axis
    of length d), and the l2 square root is taken after the min (sqrt is
    monotone).  The sequential accumulation equals numpy's sum only for
    d < 8, so from d = 8 on l1 and l2 go through ``cross_dists``.
    """
    # widths combine as in cross_dists: equal, or one of them 1
    d = np.broadcast_shapes(a.shape[1:], b.shape[1:])[0]
    a, b = np.broadcast_to(a, (len(a), d)), np.broadcast_to(b, (len(b), d))
    out = np.empty(len(a))
    if norm != "linf" and d >= 8:
        rows = max(1, _CELLS // (len(b) * d))
        for start in range(0, len(a), rows):
            out[start : start + rows] = cross_dists(a[start : start + rows], b,
                                                    norm).min(axis=1)
        return out
    cols = np.ascontiguousarray(b.T)
    rows = max(1, _CELLS // len(b))
    for start in range(0, len(a), rows):
        blk = a[start : start + rows]
        acc = np.zeros((len(blk), len(b)))  # 0 + t == max(0, t) == t for t >= 0
        for k in range(d):
            term = blk[:, k : k + 1] - cols[k]
            if norm == "l2":
                term *= term  # (-t) * (-t) == |t| * |t| exactly
            else:
                np.abs(term, out=term)
            if norm == "linf":
                np.maximum(acc, term, out=acc)
            else:
                acc += term
        out[start : start + rows] = acc.min(axis=1)
    return np.sqrt(out) if norm == "l2" else out


# ---------------------------------------------------------------------------
# Euclidean projections onto the supported sets


def project_simplex(v: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {u >= 0, sum(u) = total}.  A point so large
    (or non-finite) that rounding loses ``total`` raises BudgetError."""
    v = np.asarray(v, dtype=float).ravel()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ind = np.arange(1, v.size + 1)
    cond = u - css / ind > 0
    try:  # cond[0] holds in exact arithmetic
        rho = int(ind[cond][-1])
    except IndexError:
        raise BudgetError("simplex projection loses its total to rounding",
                          total=total, largest=float(u[0])) from None
    tau = css[cond][-1] / rho
    return np.maximum(v - tau, 0.0)


# ---------------------------------------------------------------------------
# descriptors: one class per kind


class SpaceDescriptor:
    """A compact decision set together with the metric used on it.

    Each kind is one subclass, named by its ``kind``, holding only its own
    fields, and the one place of its metric facts: diameter, linear modulus,
    membership, projection, grid, volume extent (R, d) and entropy model.
    The public methods check their input once and call the kind's kernel
    (``_contains``, ...), so a product calls its parts' kernels without
    checking again.
    """

    def __init__(self, dim: int, norm: str):
        if norm not in NORMS:
            raise ConfigError(f"unknown norm {norm!r}", allowed=list(NORMS))
        if dim < 1:
            raise ConfigError(f"{self.kind} needs dim >= 1", dim=dim)
        self.dim, self.norm = dim, norm

    def diameter(self, norm: str | None = None) -> float:
        """Exact diameter of the set under ``norm`` (default: own norm)."""
        return self._diameter(norm or self.norm)

    def linear_modulus(self, w) -> np.ndarray:
        """Lipschitz constant of x -> w^T x on the set in its own norm, one per
        row of ``w`` (N, d): the dual norm of w unless a kind knows better."""
        return self._linear_modulus(np.atleast_2d(np.asarray(w, dtype=float)))

    def _linear_modulus(self, w: np.ndarray) -> np.ndarray:
        return _norm_rows(np.abs(w), _DUAL[self.norm])

    def contains(self, x, tol: float) -> bool:
        return self._contains(self._point(x), tol)

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the set (nearest cloud point for clouds)."""
        return self._project(self._point(x))

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()  # a (1, d) row is a point too
        if x.size != self.dim:
            raise DimensionMismatchError("point has wrong dimension",
                                         expected=self.dim, got=int(x.size))
        return x

    def grid(self, h: float) -> np.ndarray:
        """Deterministic covering grid with spacing at most ``h`` per axis
        (a cloud's own points).  Each kind checks its size against
        ``GRID_BUDGET`` before it allocates: :class:`BudgetError` beyond."""
        if not h > 0:
            raise ConfigError("grid resolution must be positive", h=h)
        return self._grid(h)

    def volume_extent(self, norm: str) -> tuple[float, int]:
        """(R, d): the set lies in a ``norm`` ball of radius R about a point of
        its affine hull, of dimension at most d; here a set symmetric about
        its centre (README, "Entropy models")."""
        return self.diameter(norm) / 2.0, self.dim

    def entropy_model(self):
        """(name, H) with H(theta) >= ln M(theta) for the chaining sum.  Here
        the volumetric bound (1 + 2R/theta)^d on the packing number: the
        theta/2-balls about a theta-packing are disjoint and lie in the
        (R + theta/2)-ball, all within the d-dimensional affine hull."""
        radius, dim = self.volume_extent(self.norm)
        return "volumetric", lambda theta: dim * math.log1p(2.0 * radius / theta)

    def entropy_lower(self, theta: float) -> float | None:
        """Lower end of the analytic bracket on ln M(theta) (None: none)."""
        return 0.0


class Box(SpaceDescriptor):
    """An axis-aligned box [lo, hi]."""

    kind = "box"

    def __init__(self, lo, hi, norm: str = "linf"):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise DimensionMismatchError("box bounds must have equal shape",
                                         lo=list(lo.shape), hi=list(hi.shape))
        if np.any(hi < lo):
            raise ConfigError("box upper bounds must dominate lower bounds")
        _check_extent([b - a for a, b in zip(lo.tolist(), hi.tolist())], norm)
        super().__init__(lo.size, norm)
        self.lo, self.hi = lo, hi

    def _diameter(self, norm: str) -> float:
        return vec_norm(self.hi - self.lo, norm)

    def _contains(self, x: np.ndarray, tol: float) -> bool:
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def _project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lo, self.hi)

    def _grid(self, h: float) -> np.ndarray:
        counts = [_cells(b - a, h) + 1 if b > a else 1
                  for a, b in zip(self.lo.tolist(), self.hi.tolist())]
        _check_budget(math.prod(counts), h)
        axes = [np.linspace(a, b, n) for a, b, n in zip(self.lo, self.hi, counts)]
        if len(axes) == 1:      # the same points without the mesh
            return axes[0][:, None]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def volume_extent(self, norm: str) -> tuple[float, int]:
        return self.diameter(norm) / 2.0, int(np.count_nonzero(self.hi > self.lo))

    def entropy_model(self):
        """Exact under l-inf: the strictly separated lattice of each side."""
        if self.norm != "linf":
            return super().entropy_model()
        sides = (self.hi - self.lo).tolist()
        return "lattice", lambda theta: math.log(
            math.prod(_strict_count(s, theta) for s in sides))

    def entropy_lower(self, theta: float) -> float:
        """The l-inf volume bound of the sub-box of the sides s > 2 theta,
        which holds in every norm, since none is below l-inf."""
        return sum(math.log(s / (2.0 * theta))
                   for s in (self.hi - self.lo).tolist() if s > 2.0 * theta)


class Ball(SpaceDescriptor):
    """A ball of its own norm, so its diameter is exactly ``2 * radius``."""

    kind = "ball"

    def __init__(self, center, radius: float, norm: str = "l2"):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if not radius >= 0:
            raise ConfigError("ball radius must be nonnegative", radius=radius)
        _check_extent([2.0 * float(radius)] * center.size, norm)
        super().__init__(center.size, norm)
        self.center, self.radius = center, float(radius)

    def _diameter(self, norm: str) -> float:
        return 2.0 * self.radius * _ball_norm_factor(self.norm, norm, self.dim)

    def _contains(self, x: np.ndarray, tol: float) -> bool:
        return vec_norm(x - self.center, self.norm) <= self.radius + tol

    def _project(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        if self.norm == "l2":
            r = vec_norm(d, "l2")
            return x.copy() if r <= self.radius else self.center + d * (self.radius / r)
        if self.norm == "l1":  # the signs of d times the projection of |d|
            if np.abs(d).sum() <= self.radius:
                return self.center + d
            return self.center + np.sign(d) * project_simplex(np.abs(d), self.radius)
        return self.center + np.clip(d, -self.radius, self.radius)

    def _grid(self, h: float) -> np.ndarray:
        c, r = self.center.tolist(), self.radius  # Python floats: no warning
        pts = Box([x - r for x in c], [x + r for x in c])._grid(h)
        pts = pts[dists_to(pts, self.center, self.norm) <= self.radius + BALL_TOL]
        return pts if len(pts) else self.center[None, :]

    def entropy_lower(self, theta: float) -> float:
        return self.dim * math.log(self.radius / theta) if theta < self.radius else 0.0


class Simplex(SpaceDescriptor):
    """The probability simplex {x >= 0, sum(x) = 1}."""

    kind = "simplex"

    def _diameter(self, norm: str) -> float:
        if self.dim == 1:
            return 0.0
        return {"l1": 2.0, "l2": math.sqrt(2.0), "linf": 1.0}[norm]

    def _linear_modulus(self, w: np.ndarray) -> np.ndarray:
        if self.norm == "l1":  # x - y sums to 0, so equal at two vertices
            return (w.max(axis=1) - w.min(axis=1)) / 2
        return super()._linear_modulus(w)

    def _contains(self, x: np.ndarray, tol: float) -> bool:
        return bool(np.all(x >= -tol) and abs(x.sum() - 1.0) <= tol)

    def _project(self, x: np.ndarray) -> np.ndarray:
        return project_simplex(x)

    def _grid(self, h: float) -> np.ndarray:
        m = max(1, _cells(1.0, h))
        _check_budget(math.comb(m + self.dim - 1, self.dim - 1), h)
        return _simplex_lattice(self.dim, m)

    def volume_extent(self, norm: str) -> tuple[float, int]:
        off = 1.0 - 1.0 / self.dim  # a vertex minus the centroid, largest entry
        return {"l1": 2.0 * off, "l2": math.sqrt(off), "linf": off}[norm], self.dim - 1


class Cloud(SpaceDescriptor):
    """A finite point set; its grid at every resolution is its own points."""

    kind = "cloud"

    def __init__(self, points, norm: str = "l2"):
        try:
            points = np.atleast_2d(np.asarray(points, dtype=float))
        except ValueError as exc:  # ragged rows or non-numeric entries
            raise ConfigError(f"cloud points must form a rectangular array of "
                              f"floats: {exc}") from exc
        if len(points):
            _check_extent([b - a for a, b in zip(points.min(axis=0).tolist(),
                                                 points.max(axis=0).tolist())],
                          norm)
        super().__init__(points.shape[1], norm)
        self.points, self._diameters = points, {}

    def _diameter(self, norm: str) -> float:
        if norm not in self._diameters:
            self._diameters[norm] = max_pairwise(self.points, norm)
        return self._diameters[norm]

    def _contains(self, x: np.ndarray, tol: float) -> bool:
        return bool(dists_to(self.points, x, self.norm).min() <= tol)

    def _project(self, x: np.ndarray) -> np.ndarray:
        return self.points[int(np.argmin(dists_to(self.points, x, "l2")))].copy()

    def _grid(self, h: float) -> np.ndarray:
        _check_budget(len(self.points), h)
        return self.points

    def volume_extent(self, norm: str) -> tuple[float, int]:
        return self.diameter(norm), min(self.dim, len(self.points) - 1)

    def entropy_model(self):
        """A greedy packing of the points.  Below the smallest pairwise gap
        every point is admissible: ln(n), and no packing run is needed."""
        points, norm = self.grid(1.0), self.norm  # budget-checked
        min_gap = min_pairwise_gap(points, norm)
        return "cloud", lambda theta: math.log(
            len(points) if theta < min_gap else len(greedy_pack(points, theta, norm)))

    def entropy_lower(self, theta: float) -> None:
        return None


class Product(SpaceDescriptor):
    """The product of its parts, measured in the l1 norm of the
    concatenation, which keeps grids, diameters and projections blockwise."""

    kind = "product"

    def __init__(self, *parts: SpaceDescriptor):
        super().__init__(sum(p.dim for p in parts), "l1")
        self.parts = parts
        self._blocks = [(p, slice(end - p.dim, end))
                        for p, end in zip(parts, accumulate(p.dim for p in parts))]

    def _diameter(self, norm: str) -> float:
        if norm != "l1":
            raise ConfigError("product spaces are measured in l1 only",
                              norm=norm, allowed=["l1"])
        return sum(p.diameter("l1") for p in self.parts)

    def _linear_modulus(self, w: np.ndarray) -> np.ndarray:
        # the max over the parts, each in its own norm, none above l1
        return np.max([p._linear_modulus(w[:, block]) for p, block in self._blocks],
                      axis=0)

    def _contains(self, x: np.ndarray, tol: float) -> bool:
        return all(p._contains(x[block], tol) for p, block in self._blocks)

    def _project(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([p._project(x[block]) for p, block in self._blocks])

    def _grid(self, h: float) -> np.ndarray:
        blocks = [p._grid(h) for p in self.parts]
        _check_budget(math.prod(len(blk) for blk in blocks), h)
        pts = blocks[0]
        for blk in blocks[1:]:
            pts = np.concatenate(
                [np.repeat(pts, len(blk), axis=0),
                 np.tile(blk, (len(pts), 1))], axis=1)
        return pts

    def volume_extent(self, norm: str) -> tuple[float, int]:
        extents = [p.volume_extent("l1") for p in self.parts]  # sums, in l1
        return sum(r for r, _ in extents), sum(d for _, d in extents)


# the constructors, one per kind
SpaceDescriptor.box, SpaceDescriptor.ball = Box, Ball
SpaceDescriptor.cloud, SpaceDescriptor.product = Cloud, Product
SpaceDescriptor.simplex = staticmethod(lambda dim, norm="l1": Simplex(dim, norm))
SpaceDescriptor.interval = staticmethod(lambda lo, hi, **kw: Box([lo], [hi], **kw))
KINDS = tuple(cls.kind for cls in (Box, Ball, Simplex, Cloud, Product))


def _cells(extent: float, h: float) -> int:
    cells = extent / h  # Python floats: inf on overflow, no warning
    if not math.isfinite(cells):
        raise BudgetError("grid enumeration exceeds budget", budget=GRID_BUDGET,
                          resolution=h, extent=extent)
    return int(math.ceil(cells))


def _check_budget(required: int, h: float) -> None:
    if required > GRID_BUDGET:
        raise BudgetError("grid enumeration exceeds budget",
                          required=required, budget=GRID_BUDGET, resolution=h)


def _strict_count(side: float, theta: float) -> int:
    """Max points in [0, side] with pairwise gaps strictly above theta."""
    if side <= 0:
        return 1
    q = side / theta
    r = round(q)
    if r >= 1 and abs(q - r) <= LATTICE_RTOL * max(1.0, abs(q)):
        return int(r)
    return int(math.floor(q)) + 1


def _ball_norm_factor(shape_norm: str, measure_norm: str, dim: int) -> float:
    """sup of the measure norm over the unit ball of the shape norm."""
    if shape_norm == measure_norm:
        return 1.0
    table = {
        ("l1", "l2"): 1.0,
        ("l1", "linf"): 1.0,
        ("l2", "l1"): math.sqrt(dim),
        ("l2", "linf"): 1.0,
        ("linf", "l1"): float(dim),
        ("linf", "l2"): math.sqrt(dim),
    }
    return table[(shape_norm, measure_norm)]


def _simplex_lattice(dim: int, m: int) -> np.ndarray:
    """All points of the probability simplex with coordinates in Z/m."""
    if dim == 1:
        return np.array([[1.0]])
    rows = np.empty((math.comb(m + dim - 1, dim - 1), dim))
    slots = m + dim - 1
    for r, bars in enumerate(combinations(range(slots), dim - 1)):
        prev = -1
        for j, b in enumerate((*bars, slots)):
            rows[r, j] = b - prev - 1
            prev = b
    return rows / m


# ---------------------------------------------------------------------------
# packing nets and metric entropy


def _lex_order(points: np.ndarray) -> np.ndarray:
    keys = tuple(points[:, j] for j in range(points.shape[1] - 1, -1, -1))
    return points[np.lexsort(keys)]


def greedy_pack(candidates: np.ndarray, theta: float, norm: str) -> np.ndarray:
    """First-fit packing over candidates in lexicographic order.

    The result is maximal: every remaining candidate sits within ``theta`` of
    a selected point, so the size is a valid lower bound for the packing
    number that is exact on the candidate set whenever first-fit is optimal.

    The chosen row is compared only with the rows whose column-0 value is
    within ``theta`` (plus ``_SLACK``) above its own: every row before it is
    already covered, and a row further on has a computed column-0
    difference above ``theta``, so it stays uncovered, as a full scan says.
    """
    cands = _lex_order(np.atleast_2d(np.asarray(candidates, dtype=float)))
    n = len(cands)
    x0 = cands[:, 0]
    stops = np.searchsorted(x0, x0 + theta + _SLACK * (np.abs(x0) + theta),
                            side="right")
    alive = np.ones(n + 1, dtype=bool)  # alive[n] stops the scan
    chosen, idx = [], 0
    while idx < n:
        chosen.append(idx)
        window = slice(idx + 1, stops[idx])
        dist = _norm_rows(np.abs(cands[window] - cands[idx]), norm)
        alive[window] &= dist > theta
        idx += 1 + int(alive[idx + 1 :].argmax())
    return cands[np.array(chosen, dtype=int)]


def packing_net(space: SpaceDescriptor, theta: float, h: float | None = None) -> np.ndarray:
    """The points of a greedy maximal packing of the space at separation ``theta``.

    Candidates come from the descriptor's deterministic grid (the points
    themselves for clouds).  ``h`` defaults to ``theta / 4`` so the grid
    resolves the separation scale.
    """
    if not theta > 0:
        raise ConfigError("separation theta must be positive", theta=theta)
    cands = space.grid(h if h is not None else theta / 4.0)
    return greedy_pack(cands, theta, space.norm)


@dataclass
class EntropyNumber:
    """ln of a greedy packing size plus an analytic bracket when available."""

    value: float
    net_size: int
    theta: float
    bracket: tuple[float, float] | None

    def within_bracket(self) -> bool | None:
        if self.bracket is None:
            return None
        lo, hi = self.bracket
        return lo - BRACKET_TOL <= self.value <= hi + BRACKET_TOL


def entropy_number(space: SpaceDescriptor, theta: float, h: float | None = None) -> EntropyNumber:
    """Metric entropy ln N(theta) computed from a greedy packing net.

    Every kind but the cloud also carries an analytic bracket on the true
    ln M(theta): the kind's ``entropy_lower`` and the volumetric bound.
    """
    size = len(packing_net(space, theta, h))
    lower = space.entropy_lower(theta)
    bracket = None if lower is None else (
        lower, SpaceDescriptor.entropy_model(space)[1](theta))
    return EntropyNumber(value=math.log(size), net_size=size,
                         theta=theta, bracket=bracket)


@dataclass
class AlphaComplexity:
    """Value and diagnostics of the dyadic chaining sum.

    ``value`` is ``sum_i (D^alpha / 2^(i alpha)) * sqrt(H(D/2^i) +
    H(D/2^(i-1)) + ln(i (i+1)))`` truncated per the reported rule, with H
    from the ``entropy_model``: "lattice" (exact, an l-inf box), "cloud" (a
    greedy packing of the points) or "volumetric" (an upper bound).
    """

    value: float
    alpha: float
    diameter: float
    terms: np.ndarray
    levels: int
    truncation: str
    tail_bound: float
    entropy_model: str


def a_alpha(space: SpaceDescriptor, alpha: float) -> AlphaComplexity:
    """Dyadic chaining sum of the space at Holder exponent ``alpha``.

    Stops when the current term drops below CHAIN_RTOL times the partial
    sum or at MAX_LEVELS terms, whichever comes first, and reports a numeric
    bound on the truncated tail.
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigError("alpha must lie in (0, 1]", alpha=alpha)
    diam = space.diameter()
    if diam <= 0:
        return AlphaComplexity(0.0, alpha, 0.0, np.zeros(0), 0, "degenerate", 0.0,
                               "none")
    model, entropy = space.entropy_model()
    chain = _chain_terms(entropy, diam, alpha)
    terms, total = [], 0.0
    truncation = "level-cap"
    for term in islice(chain, MAX_LEVELS):
        terms.append(term)
        total += term
        if term < CHAIN_RTOL * total:
            truncation = "relative-tolerance"
            break
    tail = _tail_estimate(chain, alpha, total)
    return AlphaComplexity(value=total, alpha=alpha, diameter=diam,
                           terms=np.asarray(terms), levels=len(terms),
                           truncation=truncation, tail_bound=tail,
                           entropy_model=model)


def _chain_terms(entropy, diam: float, alpha: float):
    """Terms of the chaining sum at levels 1, 2, ..., without end."""
    prev_h = 0.0  # entropy at scale D / 2^0 is ln(1)
    for i in count(1):
        try:
            cur_h = entropy(diam / 2.0**i)
        except ZeroDivisionError:  # D / 2^i underflowed to 0 on a continuum
            raise BudgetError("chaining scale D / 2^i underflows to 0",
                              level=i, diameter=diam, alpha=alpha) from None
        yield (diam**alpha / 2.0 ** (i * alpha)) * math.sqrt(
            cur_h + prev_h + math.log(i * (i + 1)))
        prev_h = cur_h


def _tail_estimate(chain, alpha: float, total: float) -> float:
    """Numeric bound on the terms of ``chain`` beyond the truncation point."""
    tail = 0.0
    term = math.inf
    # extend the series with the same entropy model (cheap past saturation)
    for _ in range(400):
        if term <= TAIL_RTOL * max(total, 1.0):
            break
        term = next(chain)
        tail += term
    # geometric bound on what is left after the extension
    q = 2.0**-alpha * 1.2
    if q < 1.0 and term < math.inf:
        tail += term * q / (1.0 - q)
    return tail


# ---------------------------------------------------------------------------
# set deviations


def set_deviation(a: np.ndarray, b: np.ndarray, norm: str = "l2") -> float:
    """One-sided deviation sup_{x in a} dist(x, b)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if not len(a):
        return 0.0
    if not len(b):
        raise ConfigError("reference set must be nonempty")
    return max(0.0, float(_nearest_dists(a, b, norm).max()))
