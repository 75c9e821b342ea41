"""Cut-cell supermesh integration.

Setup phase (once per mesh/grid pair): every element is clipped against its
candidate grid cells, each intersection polygon is fan-tessellated around
its vertex centroid, triangle Gauss points are seeded in physical space,
and the shape-function values at every Gauss point are precomputed from
its element-reference coordinates. Those come from one batched inversion
of the element maps: the map coefficients are folded once per element,
each point starts from the closed-form root of its map, and one Newton
step polishes it.

Execution phase (once per field/timestep): reconstruct the field at the
cached Gauss points and accumulate b_k = sum |T_m| w_q N_k(xi_q) f(x_q).
Integration happens directly in physical space, so no mapping Jacobian
enters the sum and the total integral of the (piecewise-bilinear)
reconstruction is preserved exactly.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import _kernels
from .errors import ConvergenceError
from .fem import (QuadMesh, accumulate, map_coefficients, newton_inverse_batch,
                  shape_functions, triangle_rule)
from .grid import ScalarField, StructuredGrid
from .interp import Interpolator, make_interpolator


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

    def polygon_vertices(self, k) -> np.ndarray:
        lo, hi = self.poly_offsets[k], self.poly_offsets[k + 1]
        return self.poly_verts[lo:hi]

    def dump_polygons(self, path) -> None:
        """Debug polygon soup: one line per polygon, ``e i j x0 y0 x1 y1 ...``."""
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(self.n_polygons):
                verts = self.polygon_vertices(k)
                coords = " ".join(f"{v:.17g}" for v in verts.ravel())
                e = self.poly_element[k]
                i, j = self.poly_cell[k]
                fh.write(f"{e} {i} {j} {coords}\n")


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

    # one global inversion batch: each Gauss point inverts its own element
    # map, from coefficients folded once per element
    corners = mesh.element_coords()
    coef_x, coef_y = map_coefficients(corners[:, :, 0], corners[:, :, 1])
    try:
        gauss_ref = newton_inverse_batch(coef_x[:, gauss_element],
                                         coef_y[:, gauss_element], gauss_xy)
    except ConvergenceError as exc:
        k = exc.point_index or 0
        raise ConvergenceError(
            f"supermesh setup: inverse mapping failed in element "
            f"{int(gauss_element[k])} at point {tuple(gauss_xy[k])} "
            f"(residual {exc.residual} in element units)",
            point_index=k, residual=exc.residual) from exc
    gauss_shape, _, _ = shape_functions(gauss_ref)

    return SupermeshCache(mesh, grid, poly_element, poly_cell, poly_offsets,
                          poly_verts, poly_areas, gauss_xy, gauss_w,
                          gauss_element, gauss_shape, element_gauss_offsets)


def assemble_supermesh(cache: SupermeshCache, field: ScalarField,
                       reconstruction="bilinear") -> np.ndarray:
    """Execution phase: evaluate the reconstruction at the cached Gauss
    points and accumulate the load vector.

    reconstruction is a spec string (``"bilinear"``, ``"bspline:P"``,
    ``"lagrange:P"``) or a prebuilt :class:`Interpolator`. The field must
    live on the cache's grid.
    """
    if field.grid is not cache.grid and (
            not np.array_equal(field.grid.xs, cache.grid.xs)
            or not np.array_equal(field.grid.ys, cache.grid.ys)):
        raise ValueError("field grid does not match the supermesh cache grid")
    if isinstance(reconstruction, Interpolator):
        interp = reconstruction
    else:
        interp = make_interpolator(field, reconstruction)
    f = interp.evaluate(cache.gauss_xy)
    return accumulate(cache.mesh.elements[cache.gauss_element],
                      cache.gauss_shape * (cache.gauss_w * f)[:, None],
                      cache.mesh.n_nodes)
