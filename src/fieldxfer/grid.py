"""Structured finite-difference grids, trapezoidal reference integration,
and candidate-cell lookup for geometric clipping.

A grid is stored as its two monotone coordinate arrays, so non-uniform
spacing is supported throughout. Field samples are laid out row-major with
``values[j, i] = f(xs[i], ys[j])``.
"""

from __future__ import annotations

import numpy as np

from ._textio import read_blocks, write_blocks
from .errors import FormatError


class StructuredGrid:
    """Tensor-product grid defined by strictly increasing coordinate arrays.

    Cell (i, j) spans ``[xs[i], xs[i+1]] x [ys[j], ys[j+1]]``; there are
    ``(nx - 1) * (ny - 1)`` cells. Instances are immutable after
    construction and safe to share between threads.
    """

    def __init__(self, xs, ys):
        xs = np.ascontiguousarray(xs, dtype=float)
        ys = np.ascontiguousarray(ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size < 2 or ys.size < 2:
            raise ValueError("grid needs 1-D coordinate arrays with at least 2 points each")
        if not (np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)):
            raise ValueError("grid coordinates must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("grid coordinates must be finite")
        self.xs = xs
        self.ys = ys
        self.xs.flags.writeable = False
        self.ys.flags.writeable = False

    @property
    def nx(self) -> int:
        return self.xs.size

    @property
    def ny(self) -> int:
        return self.ys.size

    @property
    def bounds(self):
        """(xmin, ymin, xmax, ymax) of the grid domain."""
        return (self.xs[0], self.ys[0], self.xs[-1], self.ys[-1])

    @property
    def diagonal(self) -> float:
        x0, y0, x1, y1 = self.bounds
        return float(np.hypot(x1 - x0, y1 - y0))

    def candidate_cells(self, bbox):
        """Inclusive cell-index ranges overlapping axis-aligned boxes.

        Parameters
        ----------
        bbox : (..., 4) array of (xmin, ymin, xmax, ymax)

        Returns
        -------
        (i_lo, i_hi, j_lo, j_hi) : inclusive cell ranges, ints for a single
            box and arrays of shape ``bbox.shape[:-1]`` otherwise. Cells
            that touch a box only along an edge or at a point are included
            (zero-area intersections are discarded later by the clipper).
            An empty range (lo > hi) means the box is disjoint from the
            grid.
        """
        xmin, ymin, xmax, ymax = np.moveaxis(np.asarray(bbox, dtype=float), -1, 0)
        if np.any(xmax < xmin) or np.any(ymax < ymin):
            raise ValueError("bbox must satisfy min <= max in both axes")
        i_lo, i_hi = _axis_range(self.xs, xmin, xmax)
        j_lo, j_hi = _axis_range(self.ys, ymin, ymax)
        if np.ndim(i_lo) == 0:
            return int(i_lo), int(i_hi), int(j_lo), int(j_hi)
        return i_lo, i_hi, j_lo, j_hi

    def __repr__(self):
        x0, y0, x1, y1 = self.bounds
        return (f"StructuredGrid({self.nx}x{self.ny} points on "
                f"[{x0:g},{x1:g}]x[{y0:g},{y1:g}])")


def _axis_range(coords, lo, hi):
    """Inclusive cell ranges [i_lo, i_hi] along one axis; empty if disjoint.

    A range below the grid comes out as (0, -1) and one above it as
    (n_cells, n_cells - 1).
    """
    n_cells = coords.size - 1
    i_lo = np.maximum(np.searchsorted(coords, lo, side="left") - 1, 0)
    i_hi = np.minimum(np.searchsorted(coords, hi, side="right") - 1, n_cells - 1)
    return i_lo, i_hi


class ScalarField:
    """Scalar samples bound to a :class:`StructuredGrid`.

    ``values[j, i]`` is the sample at ``(xs[i], ys[j])``.
    """

    def __init__(self, grid: StructuredGrid, values):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != (grid.ny, grid.nx):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({grid.ny}, {grid.nx})")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values
        self.values.flags.writeable = False


def sample_field(grid: StructuredGrid, func) -> ScalarField:
    """Sample ``func(x, y)`` (vectorized) on the grid nodes."""
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="xy")
    return ScalarField(grid, func(X, Y))


def trapezoid_weights(grid: StructuredGrid) -> np.ndarray:
    """Per-node weights of the 2-D trapezoidal rule on a (non-uniform) grid.

    The weight matrix is the outer product of the 1-D trapezoidal weights,
    which reproduces the nine-case corner/edge/interior formula: corners get
    a quarter cell, edges half a cell strip, interior nodes the full average
    of their four adjacent cells. Weights are positive and sum to the domain
    area.
    """
    wx = _axis_weights(grid.xs)
    wy = _axis_weights(grid.ys)
    return np.outer(wy, wx)


def _axis_weights(coords):
    d = np.diff(coords)
    w = np.empty(coords.size)
    w[0] = 0.5 * d[0]
    w[-1] = 0.5 * d[-1]
    w[1:-1] = 0.5 * (d[:-1] + d[1:])
    return w


def trapezoid_integral(field: ScalarField) -> float:
    """Reference integral sum(w_ij * f_ij) on the field's own grid."""
    return float(np.sum(trapezoid_weights(field.grid) * field.values))


# --- FDF text format: the x row, the y row, then ny rows of nx values (j ascending)


def write_fdf(path, field: ScalarField) -> None:
    """Write a field in FDF v1 text format (full double round-trip)."""
    g = field.grid
    write_blocks(path, "FDF 1", (g.nx, g.ny), (g.xs[None], g.ys[None], field.values))


def read_fdf(path) -> ScalarField:
    """Read a field from FDF v1 text format."""
    xs, ys, values = read_blocks(path, "FDF 1", lambda nx, ny: (
        (1, nx, float), (1, ny, float), (ny, nx, float)))
    try:
        return ScalarField(StructuredGrid(xs[0], ys[0]), values)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid field ({exc})") from exc
