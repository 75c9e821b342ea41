"""Cut-cell supermesh integration.

Setup phase (once per mesh/grid pair): every element is clipped against its
candidate grid cells, each intersection polygon is fan-tessellated around
its vertex centroid, triangle Gauss points are seeded in physical space,
and the shape-function values at every Gauss point are precomputed from
its element-reference coordinates. Those come from one batched inversion
that takes each point's element index (:func:`fem.newton_inverse_batch`):
each point starts from the closed-form root of its element's map, and one
Newton step polishes it.

Execution phase (once per field/timestep): reconstruct the field at the
cached Gauss points, sum |T_m| w_q N_k(xi_q) f(x_q) over each element's
run of points into one (Ne, 4) array of element vectors, and scatter
those into b_k with :func:`fem.accumulate`, as quadrature assembly does.
Integration happens directly in physical space, so no mapping Jacobian
enters the sum and the total integral of the (piecewise-bilinear)
reconstruction is preserved exactly.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import _kernels
from .fem import QuadMesh, accumulate, newton_inverse_batch, shape_functions, triangle_rule
from .grid import ScalarField, StructuredGrid
from .interp import make_interpolator

# polygons per formatting run of SupermeshCache.dump_polygons
_DUMP_CHUNK = 8192


class SupermeshCache:
    """Precomputed intersection geometry and quadrature data.

    Immutable after :func:`build_supermesh`; holds flat per-polygon arrays
    (cell indices, vertices, areas) for inspection and flat per-Gauss-point
    arrays (physical position, weight |T_m| w_q, owning element, shape
    values) for the execution phase.
    """

    def __init__(self, mesh, grid, poly_element, poly_cell, poly_offsets,
                 poly_verts, poly_areas, gauss_xy, gauss_w, gauss_element,
                 gauss_shape, element_gauss_offsets):
        self.mesh = mesh
        self.grid = grid
        self.poly_element = poly_element
        self.poly_cell = poly_cell
        self.poly_offsets = poly_offsets
        self.poly_verts = poly_verts
        self.poly_areas = poly_areas
        self.gauss_xy = gauss_xy
        self.gauss_w = gauss_w
        self.gauss_element = gauss_element
        self.gauss_shape = gauss_shape
        self.element_gauss_offsets = element_gauss_offsets

    @property
    def n_polygons(self) -> int:
        return len(self.poly_areas)

    @property
    def n_gauss(self) -> int:
        return len(self.gauss_w)

    def covered_areas(self) -> np.ndarray:
        """Per-element sum of intersection-polygon areas."""
        out = np.zeros(self.mesh.n_elements)
        np.add.at(out, self.poly_element, self.poly_areas)
        return out

    def dump_polygons(self, path) -> None:
        """Debug polygon soup: one line per polygon, ``e i j x0 y0 x1 y1 ...``,
        in polygon order. Each run of _DUMP_CHUNK polygons is formatted
        with one % per vertex count; runs bound the memory of the text."""
        counts = np.diff(self.poly_offsets)
        with open(path, "w", encoding="utf-8") as fh:
            for lo in range(0, self.n_polygons, _DUMP_CHUNK):
                chunk = np.arange(lo, min(lo + _DUMP_CHUNK, self.n_polygons))
                lines = [None] * len(chunk)
                for m in np.unique(counts[chunk]):
                    polys = chunk[counts[chunk] == m]
                    values = np.empty((len(polys), 3 + 2 * m), dtype=object)
                    values[:, 0] = self.poly_element[polys]
                    values[:, 1:3] = self.poly_cell[polys]
                    values[:, 3:] = self.poly_verts[
                        self.poly_offsets[polys, None] + np.arange(m)].reshape(len(polys), -1)
                    row = "%d %d %d" + " %.17g" * (2 * m) + "\n"
                    text = row * len(polys) % tuple(values.ravel())
                    for k, line in zip(polys - lo, text.splitlines(keepends=True)):
                        lines[k] = line
                fh.writelines(lines)


def build_supermesh(mesh: QuadMesh, grid: StructuredGrid) -> SupermeshCache:
    """Setup phase: clip, tessellate and precompute quadrature data.

    Elements entirely outside the grid domain are skipped with a warning;
    their intersection is empty and they contribute nothing.
    """
    rule = triangle_rule()
    (poly_element, poly_cell, poly_offsets, poly_verts, poly_areas,
     gauss_xy, gauss_w) = _kernels.clip_and_seed(mesh, grid, rule)

    outside = np.flatnonzero(np.bincount(poly_element, minlength=mesh.n_elements) == 0)
    if len(outside):
        warnings.warn(
            f"{len(outside)} element(s) outside the grid domain were skipped "
            f"(first: element {outside[0]})", stacklevel=2)
    gauss_element = np.repeat(poly_element, len(rule) * np.diff(poly_offsets))
    element_gauss_offsets = np.concatenate(
        [[0], np.cumsum(np.bincount(gauss_element, minlength=mesh.n_elements))])

    # one global inversion batch: each Gauss point inverts its own element's map
    gauss_ref = newton_inverse_batch(mesh, gauss_element, gauss_xy)
    gauss_shape = shape_functions(gauss_ref)

    return SupermeshCache(mesh, grid, poly_element, poly_cell, poly_offsets,
                          poly_verts, poly_areas, gauss_xy, gauss_w,
                          gauss_element, gauss_shape, element_gauss_offsets)


def assemble_supermesh(cache: SupermeshCache, field: ScalarField,
                       reconstruction="bilinear") -> np.ndarray:
    """Execution phase: evaluate the reconstruction at the cached Gauss
    points, sum each element's weighted shape values and scatter the
    element vectors into the load vector.

    reconstruction is a spec string (``"bilinear"``, ``"bspline:P"``,
    ``"lagrange:P"``). The field must live on the cache's grid.
    """
    if field.grid is not cache.grid and (
            not np.array_equal(field.grid.xs, cache.grid.xs)
            or not np.array_equal(field.grid.ys, cache.grid.ys)):
        raise ValueError("field grid does not match the supermesh cache grid")
    f = make_interpolator(field, reconstruction).evaluate(cache.gauss_xy)
    # Gauss points run element by element; elements without any (outside
    # the grid) have empty rows and keep a zero vector
    offsets = cache.element_gauss_offsets
    filled = np.flatnonzero(np.diff(offsets))
    element_vectors = np.zeros((cache.mesh.n_elements, 4))
    element_vectors[filled] = np.add.reduceat(
        cache.gauss_shape * (cache.gauss_w * f)[:, None], offsets[filled], axis=0)
    return accumulate(cache.mesh, element_vectors)
