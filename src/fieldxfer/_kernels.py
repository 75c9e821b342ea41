"""Clipping and tessellation kernel of the supermesh setup phase.

One call handles every (element, grid cell) candidate pair of a mesh:
Sutherland-Hodgman clipping of the element against the cell box, merging
of repeated vertices, the shoelace area and the sliver cut, then a fan
tessellation of each kept polygon around its vertex centroid, seeded with
a triangle rule. Polygons live in zero-padded ``(pairs, width)`` coordinate
arrays with a vertex count per row, so every stage is a few array
operations over all pairs at once.
"""

from __future__ import annotations

import numpy as np

# reported as fieldxfer.KERNEL_IMPLEMENTATION
IMPLEMENTATION = "numpy"

# polygons smaller than this fraction of their cell are discarded
REL_AREA_TOL = 1e-14
# consecutive clip vertices closer than this fraction of the grid diagonal
# are merged
REL_DEDUP_TOL = 1e-13


def clip_and_seed(mesh, grid, rule):
    """Intersect every element with its candidate grid cells and seed
    triangle Gauss points on each intersection polygon.

    Parameters
    ----------
    mesh : QuadMesh
    grid : StructuredGrid
    rule : triangle rule with (6, 3) barycentric points and weights
        summing to one

    Returns
    -------
    poly_element : (n_poly,) int64 owning element, ascending
    poly_cell : (n_poly, 2) int64 cell indices (i, j); within an element
        polygons run over j, then i
    poly_offsets : (n_poly + 1,) int64 vertex offsets into poly_verts
    poly_verts : (n_vert, 2) polygon vertices, CCW
    poly_areas : (n_poly,) shoelace areas
    gauss_xy : (6 * n_vert, 2) physical Gauss points, clamped into their cell
    gauss_w : (6 * n_vert,) triangle area times rule weight

    A polygon with m vertices gives m fan triangles and 6 Gauss points per
    triangle, ordered by polygon, then triangle, then rule point.
    """
    i_lo, i_hi, j_lo, j_hi = grid.candidate_cells(mesh.element_aabbs())
    ni = np.maximum(i_hi - i_lo + 1, 0)
    counts = ni * np.maximum(j_hi - j_lo + 1, 0)
    pair_element = np.repeat(np.arange(mesh.n_elements), counts)
    local = np.arange(len(pair_element)) - np.repeat(np.cumsum(counts) - counts, counts)
    pair_ni = ni[pair_element]
    ii = i_lo[pair_element] + local % pair_ni
    jj = j_lo[pair_element] + local // pair_ni
    boxes = np.column_stack([grid.xs[ii], grid.xs[ii + 1], grid.ys[jj], grid.ys[jj + 1]])

    x, y, n, area = clip_boxes(mesh.element_coords()[pair_element], boxes,
                               REL_DEDUP_TOL * grid.diagonal)
    kept = n > 0
    x, y, n, boxes = x[kept], y[kept], n[kept], boxes[kept]
    gauss_xy, gauss_w = fan_gauss(x, y, n, boxes, rule)
    valid = _valid(x, n)
    return (pair_element[kept], np.column_stack([ii[kept], jj[kept]]),
            np.concatenate([[0], np.cumsum(n)]),
            np.column_stack([x[valid], y[valid]]), area[kept], gauss_xy, gauss_w)


def clip_boxes(polys, boxes, dedup_tol):
    """Clip convex CCW polygons to axis-aligned boxes, one box per polygon.

    polys : (P, m, 2) vertices; boxes : (P, 4) as (xlo, xhi, ylo, yhi);
    dedup_tol : consecutive vertices closer than this on both axes merge.
    Points exactly on a clip line count as inside.

    Returns padded ``(x, y, n, area)``: (P, w) vertex coordinates, zero
    beyond each row's count n, and the shoelace areas. n and area are 0
    where the intersection is empty, has fewer than 3 distinct vertices,
    or is smaller than REL_AREA_TOL of its box.
    """
    polys = np.asarray(polys, dtype=float)
    boxes = np.asarray(boxes, dtype=float)
    x, y = polys[:, :, 0], polys[:, :, 1]
    n = np.full(len(polys), polys.shape[1])
    xlo, xhi, ylo, yhi = boxes.T
    for on_x, bound, keep_below in ((True, xlo, False), (True, xhi, True),
                                    (False, ylo, False), (False, yhi, True)):
        x, y, n = _clip_half_plane(x, y, n, on_x, bound[:, None], keep_below)

    xp, yp = _previous(x, n), _previous(y, n)
    distinct = (np.abs(x - xp) > dedup_tol) | (np.abs(y - yp) > dedup_tol)
    x, y, n = _compact(distinct & _valid(x, n), [x, y])

    # shoelace relative to the box corner, so the area does not depend on
    # where the domain sits; padded entries stay zero
    valid = _valid(x, n)
    xr = np.where(valid, x - xlo[:, None], 0.0)
    yr = np.where(valid, y - ylo[:, None], 0.0)
    area = 0.5 * _row_sum(_previous(xr, n) * yr - xr * _previous(yr, n))
    drop = (n < 3) | (area < REL_AREA_TOL * ((xhi - xlo) * (yhi - ylo)))
    n[drop] = 0
    x[drop] = 0.0
    y[drop] = 0.0
    area[drop] = 0.0
    return x, y, n, area


def fan_gauss(x, y, n, boxes, rule):
    """Fan-tessellate padded polygons around their vertex centroids and
    seed the triangle rule on every fan triangle.

    x, y : (K, w) padded CCW vertices with counts n (all at least 3);
    boxes : (K, 4) cell bounds (xlo, xhi, ylo, yhi) the Gauss points are
    clamped into, so roundoff never moves one out of its cell.

    Returns ``(gauss_xy, gauss_w)`` with one rule's points per polygon
    edge, ordered by polygon, then edge, then rule point.
    """
    valid = _valid(x, n)
    cx = _row_sum(x) / n
    cy = _row_sum(y) / n
    poly = np.repeat(np.arange(len(n)), n)
    ax, ay = x[valid], y[valid]
    bx, by = _following(x, n)[valid], _following(y, n)[valid]
    cx, cy = cx[poly], cy[poly]
    tri_area = 0.5 * ((ax - cx) * (by - cy) - (bx - cx) * (ay - cy))
    b0, b1, b2 = rule.points.T
    qx = b0 * cx[:, None] + b1 * ax[:, None] + b2 * bx[:, None]
    qy = b0 * cy[:, None] + b1 * ay[:, None] + b2 * by[:, None]
    xlo, xhi, ylo, yhi = boxes[poly].T
    np.clip(qx, xlo[:, None], xhi[:, None], out=qx)
    np.clip(qy, ylo[:, None], yhi[:, None], out=qy)
    gauss_xy = np.column_stack([qx.ravel(), qy.ravel()])
    return gauss_xy, (tri_area[:, None] * rule.weights).ravel()


def _clip_half_plane(x, y, n, on_x, bound, keep_below):
    """One Sutherland-Hodgman pass against ``c <= bound`` (keep_below) or
    ``c >= bound``, where c is x (on_x) or y.

    Edge k runs from vertex k-1 to vertex k and emits, in this order, its
    crossing with the clip line (if it crosses) and vertex k (if inside).
    """
    xp, yp = _previous(x, n), _previous(y, n)
    c0, c1 = (xp, x) if on_x else (yp, y)
    valid = _valid(x, n)
    if keep_below:
        in0, in1 = c0 <= bound, c1 <= bound
    else:
        in0, in1 = c0 >= bound, c1 >= bound
    in1 &= valid
    cross = (in0 != in1) & valid
    t = (bound - c0) / np.where(cross, c1 - c0, 1.0)
    bound = np.broadcast_to(bound, x.shape)
    if on_x:
        ix, iy = bound, yp + t * (y - yp)
    else:
        ix, iy = xp + t * (x - xp), bound
    def interleave(crossing, vertex):
        # explicit width: -1 cannot be inferred when there are no rows
        return np.stack([crossing, vertex], axis=2).reshape(len(x), 2 * x.shape[1])

    return _compact(interleave(cross, in1), [interleave(ix, x), interleave(iy, y)])


def _compact(keep, arrays):
    """Move the kept entries of each row to its front, preserving order.

    Returns the compacted arrays, zero-padded to the longest row, followed
    by the per-row counts.
    """
    n = keep.sum(axis=1)
    rows, _ = np.nonzero(keep)
    # each kept entry's column is its rank within its row
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(n) - n, n)
    # at least one column, so the wrap-around lookups always have a column 0
    shape = (len(keep), max(int(n.max(initial=0)), 1))
    out = []
    for a in arrays:
        c = np.zeros(shape)
        c[rows, cols] = a[keep]
        out.append(c)
    return (*out, n)


def _valid(x, n):
    return np.arange(x.shape[1]) < n[:, None]


def _previous(a, n):
    """a[:, k - 1] with vertex 0 wrapping to vertex n - 1."""
    prev = np.roll(a, 1, axis=1)
    prev[:, 0] = a[np.arange(len(a)), np.maximum(n - 1, 0)]
    return prev


def _following(a, n):
    """a[:, k + 1] with vertex n - 1 wrapping to vertex 0; entries past
    n - 1 are not meaningful."""
    following = np.roll(a, -1, axis=1)
    following[np.arange(len(a)), np.maximum(n - 1, 0)] = a[:, 0]
    return following


def _row_sum(a):
    """Left-to-right row sums, so a polygon's result does not depend on
    how wide the padded batch around it is."""
    total = np.zeros(len(a))
    for k in range(a.shape[1]):
        total += a[:, k]
    return total
