"""Cut-cell supermesh integration.

Setup phase (once per mesh/grid pair): every element is clipped against its
candidate grid cells, each intersection polygon is fan-tessellated around
its vertex centroid, triangle Gauss points are seeded in physical space,
and the shape-function values at every Gauss point are precomputed from
its element-reference coordinates. Those come from one batched inversion
that takes each point's element index (:func:`fem.newton_inverse_batch`):
each point starts from the closed-form root of its element's map, and one
Newton step polishes it. Setup also builds the bilinear transfer operator
M (n_nodes x nx*ny). A bilinear field is a fixed combination of its cell's
four corner samples, and each clip polygon lies in one element and one
cell, so the polygon adds one dense 4x4 block
sum_q w_q N_k(xi_q) phi_c(x_q) to M. The blocks are reduced from the
Gauss points a chunk of polygons at a time, in the same pass that writes
the shape values, and M is kept as COO triplets, 16 per polygon.

Execution phase (once per field/timestep): with a degree-1 Lagrange
reconstruction (``"bilinear"``, ``"lagrange:1"``) the load vector is the
sparse product ``M @ f.ravel()``. Any other reconstruction is evaluated at
the cached Gauss points; |T_m| w_q N_k(xi_q) f(x_q) is summed over each
element's run of points into one (Ne, 4) array of element vectors, which
:func:`fem.accumulate` scatters into b_k, as quadrature assembly does.
Integration happens directly in physical space, so no mapping Jacobian
enters the sum and the total integral of the (piecewise-bilinear)
reconstruction is preserved exactly.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.sparse import coo_array

from . import _kernels
from .fem import QuadMesh, accumulate, newton_inverse_batch, shape_functions, triangle_rule
from .grid import ScalarField, StructuredGrid
from .interp import make_interpolator

# polygons per formatting run of SupermeshCache.dump_polygons
_DUMP_CHUNK = 8192
# polygons per pass of the shape-value and operator loop of build_supermesh,
# so that the temporaries of one pass stay small
_POLYGON_CHUNK = 1024


class SupermeshCache:
    """Precomputed intersection geometry and quadrature data.

    Immutable after :func:`build_supermesh`; holds flat per-polygon arrays
    (cell indices, vertices, areas) for inspection, the bilinear transfer
    operator ``operator`` (a ``scipy.sparse`` COO array of shape
    (n_nodes, nx * ny) with int32 indices and 16 unsummed entries per
    polygon) that executes degree-1 Lagrange reconstructions, and flat
    per-Gauss-point arrays (physical position, weight |T_m| w_q, owning
    element, shape values) that execute every other reconstruction.
    """

    def __init__(self, mesh, grid, poly_element, poly_cell, poly_offsets,
                 poly_verts, poly_areas, gauss_xy, gauss_w, gauss_element,
                 gauss_shape, element_gauss_offsets, operator):
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
        self.operator = operator

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
    gauss_shape, operator = _shapes_and_operator(
        mesh, grid, len(rule), poly_element, poly_cell, poly_offsets,
        gauss_xy, gauss_w, gauss_ref)

    return SupermeshCache(mesh, grid, poly_element, poly_cell, poly_offsets,
                          poly_verts, poly_areas, gauss_xy, gauss_w,
                          gauss_element, gauss_shape, element_gauss_offsets,
                          operator)


def _shapes_and_operator(mesh, grid, n_rule, poly_element, poly_cell,
                         poly_offsets, gauss_xy, gauss_w, gauss_ref):
    """Shape values at every Gauss point, and the bilinear transfer operator.

    Polygon m with m_v vertices owns m_v fan triangles of n_rule Gauss
    points each. Per chunk of _POLYGON_CHUNK polygons, every fan triangle
    gives the 4x4 product of its weighted shape values (4 x n_rule) with
    the bilinear weights phi_c of its cell's four corners (n_rule x 4),
    and np.add.reduceat sums the triangles of each polygon into its block.
    """
    n_poly = len(poly_element)
    gauss_shape = np.empty((len(gauss_w), 4))
    blocks = np.empty((n_poly, 4, 4))
    inv_hx = 1.0 / np.diff(grid.xs)
    inv_hy = 1.0 / np.diff(grid.ys)
    for lo in range(0, n_poly, _POLYGON_CHUNK):
        hi = min(lo + _POLYGON_CHUNK, n_poly)
        first, last = poly_offsets[lo], poly_offsets[hi]
        points = slice(n_rule * first, n_rule * last)
        shape = shape_functions(gauss_ref[points])
        gauss_shape[points] = shape
        # cell of each fan triangle, and its Gauss points as (triangle, rule point)
        i, j = np.repeat(poly_cell[lo:hi], np.diff(poly_offsets[lo:hi + 1]), axis=0).T
        xy = gauss_xy[points].reshape(-1, n_rule, 2)
        tx = (xy[..., 0] - grid.xs[i, None]) * inv_hx[i, None]
        ty = (xy[..., 1] - grid.ys[j, None]) * inv_hy[j, None]
        phi = np.stack([(1.0 - tx) * (1.0 - ty), tx * (1.0 - ty),
                        (1.0 - tx) * ty, tx * ty], axis=2)
        weighted = (shape * gauss_w[points, None]).reshape(-1, n_rule, 4)
        blocks[lo:hi] = np.add.reduceat(np.matmul(weighted.transpose(0, 2, 1), phi),
                                        poly_offsets[lo:hi] - first, axis=0)
    # block (k, c) of polygon m: row elements[e_m, k], column of corner c
    nx = grid.nx
    rows = np.repeat(mesh.elements[poly_element].astype(np.int32), 4, axis=1)
    corner = np.array([0, 1, nx, nx + 1], dtype=np.int32)
    cols = (poly_cell[:, 1] * nx + poly_cell[:, 0]).astype(np.int32)[:, None] + np.tile(corner, 4)
    operator = coo_array((blocks.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.n_nodes, nx * grid.ny))
    return gauss_shape, operator


def assemble_supermesh(cache: SupermeshCache, field: ScalarField,
                       reconstruction="bilinear") -> np.ndarray:
    """Execution phase: the load vector of the reconstructed field.

    With a degree-1 Lagrange reconstruction (``"bilinear"`` or
    ``"lagrange:1"``) it is the sparse product ``cache.operator @
    field.values.ravel()``. Otherwise the reconstruction is evaluated at
    the cached Gauss points, each element's weighted shape values are
    summed, and the element vectors are scattered into the load vector.

    reconstruction is a spec string (``"bilinear"``, ``"bspline:P"``,
    ``"lagrange:P"``). The field must live on the cache's grid.
    """
    if field.grid is not cache.grid and (
            not np.array_equal(field.grid.xs, cache.grid.xs)
            or not np.array_equal(field.grid.ys, cache.grid.ys)):
        raise ValueError("field grid does not match the supermesh cache grid")
    interp = make_interpolator(field, reconstruction)
    if interp.kind == "lagrange" and interp.degree == 1:
        return cache.operator @ field.values.ravel()
    f = interp.evaluate(cache.gauss_xy)
    # Gauss points run element by element; elements without any (outside
    # the grid) have empty rows and keep a zero vector
    offsets = cache.element_gauss_offsets
    filled = np.flatnonzero(np.diff(offsets))
    element_vectors = np.zeros((cache.mesh.n_elements, 4))
    element_vectors[filled] = np.add.reduceat(
        cache.gauss_shape * (cache.gauss_w * f)[:, None], offsets[filled], axis=0)
    return accumulate(cache.mesh, element_vectors)
