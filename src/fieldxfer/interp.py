"""Field reconstruction from grid samples.

Two interpolant families, both tensor products of 1-D rules:

* B-splines of degree 1..5 on clamped knots, coefficients solved by two
  sweeps of banded collocation systems (x-direction, then y-direction).
* Local Lagrange polynomials of degree 1 or 3 on a shifted
  (p+1)-point-per-axis stencil, with the grid samples as coefficients;
  degree 1 is plain bilinear interpolation.

Every interpolant is evaluated the same way. Each axis has a rule that
maps a coordinate to the first index of its p+1 active coefficients and
their p+1 weights, and the value at (x, y) is the sum over the
(p+1)^2 terms ``wy[a] * wx[b] * coef[iy + a, ix + b]``. Those weights are
the entries of the linear map from coefficients to point values.

Evaluation is batched: interpolators are immutable after construction and
``evaluate`` is pure, so one interpolator serves any number of point sets.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy.linalg import solve_banded

from .errors import DomainError
from .grid import ScalarField, StructuredGrid

BSPLINE_DEGREES = (1, 2, 3, 4, 5)
LAGRANGE_DEGREES = (1, 3)
# points per pass of Interpolator.evaluate, so that the temporaries of one
# pass stay in cache
_EVAL_CHUNK = 16384


class Interpolator:
    """Evaluable reconstruction of a grid field.

    Build through :func:`bspline_interpolator`, :func:`lagrange_interpolator`
    or :func:`make_interpolator`; do not mutate afterwards. ``coef`` is the
    (ny, nx) coefficient array and ``rules`` the (x, y) pair of 1-D rules,
    each mapping coordinates to ``(first index, list of p+1 weight rows)``.
    """

    def __init__(self, kind: str, degree: int, grid: StructuredGrid, coef, rules):
        self.kind = kind
        self.degree = degree
        self.grid = grid
        self._coef = np.ascontiguousarray(coef, dtype=float)
        self._rules = rules

    def evaluate(self, points) -> np.ndarray:
        """Interpolated values at an (n, 2) batch of physical points.

        All points must lie inside the (closed) grid domain; an outside
        point raises :class:`DomainError` naming the first offender.
        Deterministic: identical inputs give bitwise identical outputs.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        self._check_domain(points)
        out = np.empty(len(points))
        for lo in range(0, len(points), _EVAL_CHUNK):
            out[lo:lo + _EVAL_CHUNK] = self._sum_terms(points[lo:lo + _EVAL_CHUNK])
        return out

    def _sum_terms(self, points):
        """sum_{a,b} wy[a] wx[b] coef[iy + a, ix + b] at each point."""
        x, y = points.T
        rule_x, rule_y = self._rules
        ix, wx = rule_x(x)
        iy, wy = rule_y(y)
        ncols = self._coef.shape[1]
        flat = self._coef.ravel()
        base = iy * ncols + ix
        out = np.zeros(len(points))
        for a, wy_a in enumerate(wy):
            for b, wx_b in enumerate(wx):
                out += wy_a * wx_b * flat.take(base + (a * ncols + b))
        return out

    def _check_domain(self, points):
        g = self.grid
        x, y = points[:, 0], points[:, 1]
        # a NaN point is not inside either
        bad = ~((x >= g.xs[0]) & (x <= g.xs[-1]) & (y >= g.ys[0]) & (y <= g.ys[-1]))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise DomainError(
                f"point {k} = ({x[k]!r}, {y[k]!r}) outside grid domain "
                f"[{g.xs[0]!r}, {g.xs[-1]!r}] x [{g.ys[0]!r}, {g.ys[-1]!r}]")

    def __repr__(self):
        return f"Interpolator(kind={self.kind!r}, degree={self.degree})"


def make_interpolator(field: ScalarField, reconstruction: str) -> Interpolator:
    """Build an interpolator from a spec string.

    Accepted forms: ``"bilinear"``, ``"bspline:P"`` with P in 1..5,
    ``"lagrange:P"`` with P in {1, 3}.
    """
    name, _, deg = reconstruction.partition(":")
    if name == "bilinear" and not deg:
        return lagrange_interpolator(field, 1)
    if name in ("bspline", "lagrange") and deg:
        try:
            p = int(deg)
        except ValueError:
            raise ValueError(f"bad reconstruction degree in {reconstruction!r}")
        if name == "bspline":
            return bspline_interpolator(field, p)
        return lagrange_interpolator(field, p)
    raise ValueError(
        f"unknown reconstruction {reconstruction!r} "
        "(expected 'bilinear', 'bspline:P', or 'lagrange:P')")


# --- B-splines -------------------------------------------------------------


def bspline_interpolator(field: ScalarField, degree: int) -> Interpolator:
    """Tensor-product interpolating B-spline of the given degree.

    Coefficients are obtained from two sweeps of banded 1-D collocation
    solves, so the interpolant reproduces the samples at every grid node.
    """
    if degree not in BSPLINE_DEGREES:
        raise ValueError(f"B-spline degree must be in {BSPLINE_DEGREES}, got {degree}")
    g = field.grid
    _require_points(g, degree)
    # sweep 1: coefficients along x for each grid row
    tx, cx = _collocation_solve(g.xs, degree, field.values.T)
    # sweep 2: along y for each x-coefficient column
    ty, c = _collocation_solve(g.ys, degree, cx.T)
    rules = (partial(bspline_basis, tx, degree), partial(bspline_basis, ty, degree))
    return Interpolator("bspline", degree, g, c, rules)


def _require_points(grid, degree):
    if grid.nx < degree + 1 or grid.ny < degree + 1:
        raise ValueError(
            f"grid {grid.nx}x{grid.ny} too small for degree {degree} "
            f"(needs at least {degree + 1} points per axis)")


def interpolation_knots(coords, degree: int) -> np.ndarray:
    """Clamped knot vector making the collocation system square.

    End knots are repeated degree+1 times; interior knots sit on the data
    sites for odd degrees and on their midpoints for even degrees, while the
    interpolation conditions are always imposed at the data sites.
    """
    n = coords.size
    p = degree
    if p % 2 == 1:
        interior = coords[(p + 1) // 2 : n - (p + 1) // 2]
    else:
        mid = 0.5 * (coords[:-1] + coords[1:])
        interior = mid[p // 2 : n - 1 - p // 2]
    return np.concatenate([np.full(p + 1, coords[0]), interior,
                           np.full(p + 1, coords[-1])])


def bspline_basis(knots, degree: int, x):
    """Nonzero B-spline basis values at each x (Cox-de Boor recursion).

    Returns ``(first, B)`` where ``B`` is a list of degree+1 arrays shaped
    like x and ``B[r][k]`` is the value of basis function ``first[k] + r``
    at ``x[k]``; this is the 1-D rule of the B-spline interpolant. The
    knots must come from :func:`interpolation_knots` on strictly increasing
    sites, so that every knot interval the recursion divides by contains
    the nonempty span.
    """
    p = degree
    n_basis = knots.size - p - 1
    x = np.asarray(x, dtype=float)
    span = np.searchsorted(knots, x, side="right") - 1
    span = np.clip(span, p, n_basis - 1)
    B = [np.ones_like(x)]
    left = []
    right = []
    for j in range(1, p + 1):
        left.append(x - knots[span + 1 - j])
        right.append(knots[span + j] - x)
        saved = 0.0
        for r in range(j):
            temp = B[r] / (right[r] + left[j - r - 1])
            B[r] = saved + right[r] * temp
            saved = left[j - r - 1] * temp
        B.append(saved)
    return span - p, B


def _collocation_solve(coords, degree, rhs):
    """Solve the 1-D collocation system along axis 0 of rhs.

    The collocation matrix A[i, m] = B_m(coords[i]) has bandwidth degree in
    both directions; it is factored once per axis by banded LU.
    """
    p = degree
    n = coords.size
    knots = interpolation_knots(coords, p)
    first, B = bspline_basis(knots, p, coords)
    # banded storage: ab[p + i - m, m] = A[i, m]
    ab = np.zeros((2 * p + 1, n))
    for r, row in enumerate(B):
        ab[p - r + np.arange(n) - first, first + r] = row
    coeffs = solve_banded((p, p), ab, rhs)
    return knots, coeffs


# --- Lagrange --------------------------------------------------------------


def lagrange_interpolator(field: ScalarField, degree: int) -> Interpolator:
    """Local tensor-product Lagrange interpolant of degree 1 or 3.

    Evaluation picks the (degree+1)^2 stencil around each query point
    (shifted inward near the boundary), with the grid samples as
    coefficients. Degree 1 is bilinear interpolation.
    """
    if degree not in LAGRANGE_DEGREES:
        raise ValueError(f"Lagrange degree must be in {LAGRANGE_DEGREES}, got {degree}")
    g = field.grid
    _require_points(g, degree)
    rules = (partial(_lagrange_rule, g.xs, degree), partial(_lagrange_rule, g.ys, degree))
    return Interpolator("lagrange", degree, g, field.values, rules)


def _stencil_start(coords, x, p):
    """First index of the (p+1)-point stencil containing x, kept in-grid."""
    cell = np.searchsorted(coords, x, side="right") - 1
    cell = np.clip(cell, 0, coords.size - 2)
    return np.clip(cell - (p - 1) // 2, 0, coords.size - 1 - p)


def _lagrange_rule(coords, degree, x):
    """Stencil start and Lagrange weights on the stencil nodes x_0..x_p:
    w_r = prod_{k != r} (x - x_k) / (x_r - x_k) for r >= 1, and w_0 =
    1 - sum of the others, which for degree 1 is the bilinear 1 - t. At a
    node every weight is exactly 0 or 1: the node's own factors are 1, and
    every other weight has a factor 0."""
    start = _stencil_start(coords, x, degree)
    nodes = [coords[start + k] for k in range(degree + 1)]
    offsets = [x - node for node in nodes]
    rest = [math.prod(offsets[k] / (node - other)
                      for k, other in enumerate(nodes) if k != r)
            for r, node in enumerate(nodes) if r > 0]
    return start, [1.0 - sum(rest)] + rest
