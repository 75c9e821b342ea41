"""Field reconstruction from grid samples.

Two interpolant families, both tensor products of 1-D rules:

* B-splines of degree 1..5 on clamped knots, coefficients solved by two
  sweeps of banded collocation systems (x-direction, then y-direction).
* Local Lagrange polynomials of degree 1 or 3 on a shifted
  (p+1)-point-per-axis stencil; degree 1 is plain bilinear interpolation,
  evaluated by the direct two-point formula.

Evaluation is batched: interpolators are immutable after construction and
``evaluate`` is pure, so one interpolator serves any number of point sets.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from .errors import DomainError
from .grid import ScalarField, StructuredGrid

BSPLINE_DEGREES = (1, 2, 3, 4, 5)
LAGRANGE_DEGREES = (1, 3)


class Interpolator:
    """Evaluable reconstruction of a grid field.

    Build through :func:`bspline_interpolator`, :func:`lagrange_interpolator`
    or :func:`make_interpolator`; do not mutate afterwards.
    """

    def __init__(self, kind: str, degree: int, grid: StructuredGrid, state):
        self.kind = kind
        self.degree = degree
        self.grid = grid
        self._state = state

    def evaluate(self, points) -> np.ndarray:
        """Interpolated values at an (n, 2) batch of physical points.

        All points must lie inside the (closed) grid domain; an outside
        point raises :class:`DomainError` naming the first offender.
        Deterministic: identical inputs give bitwise identical outputs.
        """
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            return np.zeros(0)
        points = points.reshape(-1, 2)
        self._check_domain(points)
        if self.kind == "bspline":
            return _eval_bspline(self._state, self.degree, points)
        if self.degree == 1:
            return _eval_bilinear(self.grid, self._state, points)
        return _eval_lagrange(self.grid, self._state, self.degree, points)

    def _check_domain(self, points):
        g = self.grid
        x, y = points[:, 0], points[:, 1]
        bad = (x < g.xs[0]) | (x > g.xs[-1]) | (y < g.ys[0]) | (y > g.ys[-1])
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
    state = (tx, ty, np.ascontiguousarray(c))
    return Interpolator("bspline", degree, g, state)


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

    Returns ``(span, B)`` where ``B[k, r]`` is the value of basis function
    ``span[k] - degree + r`` at ``x[k]``.
    """
    p = degree
    n_basis = knots.size - p - 1
    x = np.asarray(x, dtype=float)
    span = np.searchsorted(knots, x, side="right") - 1
    span = np.clip(span, p, n_basis - 1)
    npts = x.size
    B = np.zeros((npts, p + 1))
    B[:, 0] = 1.0
    left = np.empty((npts, p))
    right = np.empty((npts, p))
    for j in range(1, p + 1):
        left[:, j - 1] = x - knots[span + 1 - j]
        right[:, j - 1] = knots[span + j] - x
        saved = np.zeros(npts)
        for r in range(j):
            denom = right[:, r] + left[:, j - r - 1]
            temp = np.where(denom != 0.0, B[:, r] / np.where(denom == 0.0, 1.0, denom), 0.0)
            B[:, r] = saved + right[:, r] * temp
            saved = left[:, j - r - 1] * temp
        B[:, j] = saved
    return span, B


def _collocation_solve(coords, degree, rhs):
    """Solve the 1-D collocation system along axis 0 of rhs.

    The collocation matrix A[i, m] = B_m(coords[i]) has bandwidth degree in
    both directions; it is factored once per axis by banded LU.
    """
    p = degree
    n = coords.size
    knots = interpolation_knots(coords, p)
    span, B = bspline_basis(knots, p, coords)
    ab = np.zeros((2 * p + 1, n))
    rows = p + np.arange(n)[:, None] - (span[:, None] - p + np.arange(p + 1)[None, :])
    cols = span[:, None] - p + np.arange(p + 1)[None, :]
    ab[rows.ravel(), cols.ravel()] = B.ravel()
    coeffs = solve_banded((p, p), ab, rhs)
    return knots, coeffs


def _eval_bspline(state, degree, points):
    tx, ty, c = state
    p = degree
    sx, Bx = bspline_basis(tx, p, points[:, 0])
    sy, By = bspline_basis(ty, p, points[:, 1])
    offs = np.arange(p + 1)
    my = sy[:, None] - p + offs[None, :]
    mx = sx[:, None] - p + offs[None, :]
    blocks = c[my[:, :, None], mx[:, None, :]]
    return np.einsum("kq,kqr,kr->k", By, blocks, Bx)


# --- Lagrange --------------------------------------------------------------


def lagrange_interpolator(field: ScalarField, degree: int) -> Interpolator:
    """Local tensor-product Lagrange interpolant of degree 1 or 3.

    Evaluation picks the (degree+1)^2 stencil around each query point
    (shifted inward near the boundary) and interpolates first in x, then in
    y. Degree 1 is bilinear interpolation, evaluated by the direct formula.
    """
    if degree not in LAGRANGE_DEGREES:
        raise ValueError(f"Lagrange degree must be in {LAGRANGE_DEGREES}, got {degree}")
    g = field.grid
    _require_points(g, degree)
    return Interpolator("lagrange", degree, g, field.values)


def _stencil_start(coords, x, p):
    """First index of the (p+1)-point stencil containing x, kept in-grid."""
    cell = np.searchsorted(coords, x, side="right") - 1
    cell = np.clip(cell, 0, coords.size - 2)
    return np.clip(cell - (p - 1) // 2, 0, coords.size - 1 - p)


def _lagrange_basis(nodes, x):
    """Lagrange basis values at x for per-point node sets.

    nodes: (n, p+1) stencil coordinates, x: (n,). Returns (n, p+1).
    """
    m = nodes.shape[1]
    L = np.ones_like(nodes)
    for r in range(m):
        for k in range(m):
            if k == r:
                continue
            L[:, r] *= (x - nodes[:, k]) / (nodes[:, r] - nodes[:, k])
    return L


def _eval_bilinear(grid, values, points):
    """Degree-1 Lagrange by the direct formula:
    f = (1-dx)(1-dy) f00 + dx (1-dy) f10 + (1-dx) dy f01 + dx dy f11 with
    dx, dy the normalized offsets inside the containing cell.
    """
    x, y = points[:, 0], points[:, 1]
    i = np.clip(np.searchsorted(grid.xs, x, side="right") - 1, 0, grid.nx - 2)
    j = np.clip(np.searchsorted(grid.ys, y, side="right") - 1, 0, grid.ny - 2)
    dx = (x - grid.xs[i]) / (grid.xs[i + 1] - grid.xs[i])
    dy = (y - grid.ys[j]) / (grid.ys[j + 1] - grid.ys[j])
    return ((1 - dx) * (1 - dy) * values[j, i] + dx * (1 - dy) * values[j, i + 1]
            + (1 - dx) * dy * values[j + 1, i] + dx * dy * values[j + 1, i + 1])


def _eval_lagrange(grid, values, degree, points):
    p = degree
    x = points[:, 0]
    y = points[:, 1]
    i0 = _stencil_start(grid.xs, x, p)
    j0 = _stencil_start(grid.ys, y, p)
    offs = np.arange(p + 1)
    xi = grid.xs[i0[:, None] + offs[None, :]]
    yj = grid.ys[j0[:, None] + offs[None, :]]
    Lx = _lagrange_basis(xi, x)
    Ly = _lagrange_basis(yj, y)
    block = values[j0[:, None, None] + offs[None, :, None],
                   i0[:, None, None] + offs[None, None, :]]
    # interpolate along x for each stencil row, then along y
    rows = np.einsum("kjr,kr->kj", block, Lx)
    return np.einsum("kj,kj->k", rows, Ly)
