"""Quadrilateral FEM mesh, bilinear Q4 isoparametric mapping, its batched
inversion (closed-form start, Newton polish), and quadrature rules.

Reference element is the square [-1, 1]^2 with counter-clockwise corner
ordering (-1,-1), (1,-1), (1,1), (-1,1).
"""

from __future__ import annotations

import numpy as np

from ._textio import read_blocks, write_blocks
from .errors import ConvergenceError, FormatError, SingularMapError

# reference-corner signs of the four Q4 nodes
_XI_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 30
_SINGULAR_DET = 1e-14
# a closed-form start counts as inside the reference square up to this
# much roundoff
_START_MARGIN = 1e-8
# points per pass of newton_inverse_batch, so that the temporaries of one
# pass stay in cache
_INVERSE_CHUNK = 8192

# row k holds the corner weights of the monomial coefficient a_k of
# X = a0 + a1 xi + a2 eta + a3 xi eta
_MONOMIALS = 0.25 * np.array([np.ones(4), _XI_SIGNS, _ETA_SIGNS, _XI_SIGNS * _ETA_SIGNS])


class QuadMesh:
    """Unstructured mesh of 4-node quadrilaterals.

    nodes: (Nn, 2) physical coordinates; elements: (Ne, 4) node indices in
    counter-clockwise order. Every element must have a strictly positive
    Jacobian determinant at all four corners (no inverted or degenerate
    elements). Immutable after construction.
    """

    def __init__(self, nodes, elements):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        elements = np.ascontiguousarray(elements, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must be an (Nn, 2) array")
        if elements.ndim != 2 or elements.shape[1] != 4:
            raise ValueError("elements must be an (Ne, 4) array")
        if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
            raise ValueError("element connectivity references unknown nodes")
        ordered = np.sort(elements, axis=1)
        repeats = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if len(repeats):
            e = int(repeats[0])
            raise ValueError(f"element {e} {elements[e].tolist()} repeats a node")
        self.nodes = nodes
        self.elements = elements
        self.nodes.flags.writeable = False
        self.elements.flags.writeable = False
        self._check_orientation()

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def element_coords(self, e=None) -> np.ndarray:
        """Corner coordinates, (4, 2) for one element or (Ne, 4, 2) for all."""
        if e is None:
            return self.nodes[self.elements]
        return self.nodes[self.elements[e]]

    def element_aabbs(self) -> np.ndarray:
        """(Ne, 4) array of per-element (xmin, ymin, xmax, ymax)."""
        coords = self.nodes[self.elements]
        return np.column_stack([coords[:, :, 0].min(axis=1),
                                coords[:, :, 1].min(axis=1),
                                coords[:, :, 0].max(axis=1),
                                coords[:, :, 1].max(axis=1)])

    def element_areas(self) -> np.ndarray:
        """Areas by 2x2 Gauss integration of det J (exact for bilinear maps)."""
        rule = tensor_product_rule(2)
        return jacobian_all(self, rule.points) @ rule.weights

    def _check_orientation(self):
        corners = np.column_stack([_XI_SIGNS, _ETA_SIGNS])
        det = jacobian_all(self, corners)
        if det.size and det.min() <= 0.0:
            e = int(np.argmax(det.min(axis=1) <= 0.0))
            raise ValueError(
                f"element {e} is inverted or degenerate "
                f"(corner det J = {det[e].min():g})")

    def __repr__(self):
        return f"QuadMesh({self.n_nodes} nodes, {self.n_elements} elements)"


def rect_mesh(x0, y0, x1, y1, nx_e, ny_e) -> QuadMesh:
    """Structured nx_e x ny_e quad mesh on a rectangle.

    Nodes are numbered lexicographically with x running fastest; elements
    are counter-clockwise.
    """
    if nx_e < 1 or ny_e < 1:
        raise ValueError("mesh needs at least one element per axis")
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle must have positive extent")
    xs = np.linspace(x0, x1, nx_e + 1)
    ys = np.linspace(y0, y1, ny_e + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    i, j = np.meshgrid(np.arange(nx_e), np.arange(ny_e), indexing="xy")
    n0 = (j * (nx_e + 1) + i).ravel()
    elements = np.column_stack([n0, n0 + 1, n0 + nx_e + 2, n0 + nx_e + 1])
    return QuadMesh(nodes, elements)


# --- shape functions and geometry mapping ----------------------------------


def shape_functions(ref_points):
    """Q4 shape functions and derivatives at reference points.

    ref_points: (..., 2) array of (xi, eta). Returns (N, dN_dxi, dN_deta),
    each of shape (..., 4). N_j = (1 + xi_j xi)(1 + eta_j eta)/4 with the
    corner signs of the reference square; sum_j N_j == 1 identically.
    Every value is a product of the factors 1 +- xi and 1 +- eta.
    """
    ref_points = np.asarray(ref_points, dtype=float)
    xi = ref_points[..., 0]
    eta = ref_points[..., 1]
    # the quarter goes with the xi factors; scaling by 0.25 is exact
    xm = 0.25 * (1.0 - xi)
    xp = 0.25 * (1.0 + xi)
    em = 1.0 - eta
    ep = 1.0 + eta
    N = np.empty(xi.shape + (4,))
    dN_dxi = np.empty_like(N)
    dN_deta = np.empty_like(N)
    for k, (x, e) in enumerate(((xm, em), (xp, em), (xp, ep), (xm, ep))):
        np.multiply(x, e, out=N[..., k])
        np.multiply(_XI_SIGNS[k] * 0.25, e, out=dN_dxi[..., k])
        np.multiply(_ETA_SIGNS[k], x, out=dN_deta[..., k])
    return N, dN_dxi, dN_deta


def forward_map(mesh: QuadMesh, e: int | None, ref_points) -> np.ndarray:
    """Physical coordinates X(xi) of reference points.

    (..., 2) for one element e; with e=None the (nq, 2) points are mapped
    in every element at once, giving (Ne, nq, 2).
    """
    N, _, _ = shape_functions(ref_points)
    return N @ mesh.element_coords(e)


def jacobian_all(mesh: QuadMesh, ref_points) -> np.ndarray:
    """det J of every element at shared reference points, shape (Ne, nq)."""
    coords = mesh.nodes[mesh.elements]          # (Ne, 4, 2)
    _, dxi, deta = shape_functions(ref_points)  # (nq, 4)
    j11 = dxi @ coords[:, :, 0].T               # (nq, Ne)
    j12 = deta @ coords[:, :, 0].T
    j21 = dxi @ coords[:, :, 1].T
    j22 = deta @ coords[:, :, 1].T
    return (j11 * j22 - j12 * j21).T


def map_coefficients(corner_x, corner_y):
    """Monomial coefficients of the bilinear map X = a0 + a1 xi + a2 eta + a3 xi eta.

    corner_x, corner_y: (..., 4) corner coordinates of one or more
    elements. Returns (coef_x, coef_y), each of shape (4, ...) with the
    monomial index first, so that coef_x[:, idx] gathers one element per
    point as contiguous rows.
    """
    coef_x = np.asarray(corner_x, dtype=float) @ _MONOMIALS.T
    coef_y = np.asarray(corner_y, dtype=float) @ _MONOMIALS.T
    return np.moveaxis(coef_x, -1, 0), np.moveaxis(coef_y, -1, 0)


def inverse_map(mesh: QuadMesh, e: int, points, tol: float = NEWTON_TOL,
                max_iter: int = NEWTON_MAX_ITER) -> np.ndarray:
    """Reference coordinates of physical points inside element e.

    See :func:`newton_inverse_batch`: tol bounds the residual inf-norm in
    units of the element half-size. Raises :class:`ConvergenceError`
    (with point index and final residual) on failure,
    :class:`SingularMapError` when det J is negligible against the
    element size.
    """
    coords = mesh.element_coords(e)
    coef_x, coef_y = map_coefficients(coords[:, 0], coords[:, 1])
    return newton_inverse_batch(coef_x, coef_y, points, tol=tol, max_iter=max_iter)


def newton_inverse_batch(coef_x, coef_y, points, tol: float = NEWTON_TOL,
                         max_iter: int = NEWTON_MAX_ITER) -> np.ndarray:
    """Vectorized inversion of the bilinear map, one independent element per point.

    coef_x, coef_y: monomial coefficients from :func:`map_coefficients`,
    (4, n) with one element per point or (4,) for one shared element;
    points: (n, 2) targets. Every point starts from the closed-form root
    of the map (:func:`_closed_form_root`). Where that start misses (its
    residual is above tol, or it lies outside the reference square), the
    point starts from the element center (0, 0) instead, so points
    outside their element take the same path as without the closed
    form. Newton iteration then runs on chunks of _INVERSE_CHUNK points,
    the points of a chunk together, each update solving its own 2x2
    system through the explicit determinant formula. An interior point
    normally passes the residual check in the first iteration and gets
    one polish step.

    Both thresholds are in element units, so they do not depend on where
    the mesh sits or on its scale. With the element half-size
    h = max(|ax1|, |ax2|, |ay1|, |ay2|), a point has converged when its
    residual inf-norm is below tol * h, and the map counts as singular
    where |det J| <= _SINGULAR_DET * h^2. Residuals are reported in the
    same units.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    coef_x = np.broadcast_to(np.asarray(coef_x, dtype=float).reshape(4, -1), (4, n))
    coef_y = np.broadcast_to(np.asarray(coef_y, dtype=float).reshape(4, -1), (4, n))
    ref = np.empty((n, 2))
    for lo in range(0, n, _INVERSE_CHUNK):
        hi = lo + _INVERSE_CHUNK
        ref[lo:hi, 0], ref[lo:hi, 1] = _invert_chunk(
            coef_x[:, lo:hi], coef_y[:, lo:hi], points[lo:hi], tol, max_iter, lo)
    return ref


def _invert_chunk(coef_x, coef_y, points, tol, max_iter, first):
    """(xi, eta) of one chunk of :func:`newton_inverse_batch`; error
    messages count points from ``first``."""
    ax0, ax1, ax2, ax3 = coef_x
    ay0, ay1, ay2, ay3 = coef_y
    ax0 = ax0 - points[:, 0]
    ay0 = ay0 - points[:, 1]
    h = np.maximum(np.maximum(np.abs(ax1), np.abs(ax2)),
                   np.maximum(np.abs(ay1), np.abs(ay2)))
    inv_h = 1.0 / h
    det_floor = _SINGULAR_DET * h * h
    residual = np.empty(len(points))

    def _residual():
        cross = xi * eta
        fx = ax0 + ax1 * xi + ax2 * eta + ax3 * cross
        fy = ay0 + ay1 * xi + ay2 * eta + ay3 * cross
        np.maximum(np.abs(fx), np.abs(fy), out=residual)
        np.multiply(residual, inv_h, out=residual)
        return fx, fy

    with np.errstate(divide="ignore", invalid="ignore"):
        xi, eta = _closed_form_root(ax0, ax1, ax2, ax3, ay0, ay1, ay2, ay3)
        fx, fy = _residual()
    # no real root, a root of the eliminated quadratic only (NaN counts),
    # or a root outside the reference square, where a point outside the
    # element may have a second root: these start from the center
    miss = ~(residual < tol) | (np.maximum(np.abs(xi), np.abs(eta)) > 1.0 + _START_MARGIN)
    if miss.any():
        xi[miss] = 0.0
        eta[miss] = 0.0
        fx, fy = _residual()

    # fx, fy and residual always belong to the current iterate
    for _ in range(max_iter):
        done = residual.max() < tol
        j11 = ax1 + ax3 * eta
        j12 = ax2 + ax3 * xi
        j21 = ay1 + ay3 * eta
        j22 = ay2 + ay3 * xi
        det = j11 * j22 - j12 * j21
        small = np.abs(det) <= det_floor
        if np.any(small):
            k = first + int(np.argmax(small))
            raise SingularMapError(
                f"singular mapping Jacobian at point {k} "
                f"(|det J| <= {_SINGULAR_DET:g} h^2, h the element half-size)")
        # the update doubles as a polish step once the residual gate is
        # passed, so returned coordinates are quadratically sharper than tol
        xi -= (j22 * fx - j12 * fy) / det
        eta -= (j11 * fy - j21 * fx) / det
        if done:
            return xi, eta
        fx, fy = _residual()
    if residual.max() < tol:
        return xi, eta
    k = int(np.argmax(residual))
    raise ConvergenceError(
        f"inverse mapping did not converge for point {first + k} "
        f"(residual {residual[k]:.3e} element units after {max_iter} iterations)",
        point_index=first + k, residual=float(residual[k]))


def _closed_form_root(ax0, ax1, ax2, ax3, ay0, ay1, ay2, ay3):
    """Closed-form (xi, eta) with ax0 + ax1 xi + ax2 eta + ax3 xi eta = 0
    and likewise for y (Hua 1990).

    Eliminating xi leaves A eta^2 + B eta + C = 0. With
    q = -(B + sign(B) sqrt(B^2 - 4AC))/2 its roots are C/q and q/A, which
    needs no branch as A -> 0 (a parallelogram has A = 0 and the single
    root C/q). The root nearest [-1, 1] is kept, and xi comes from
    whichever of the x and y equations has the larger xi coefficient at
    that eta. Without a real root the result is NaN; the caller checks the
    residual, which also rejects a root of the quadratic that solves
    neither equation.
    """
    a = ax2 * ay3 - ay2 * ax3
    b = ax0 * ay3 - ay0 * ax3 + ax2 * ay1 - ay2 * ax1
    c = ax0 * ay1 - ay0 * ax1
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    eta_c, eta_a = c / q, q / a
    # distance to [-1, 1] orders like max(|eta|, 1); a NaN root never wins
    far_c = np.maximum(np.abs(eta_c), 1.0)
    eta = np.where((np.maximum(np.abs(eta_a), 1.0) < far_c) | np.isnan(far_c), eta_a, eta_c)
    dx = ax1 + ax3 * eta
    dy = ay1 + ay3 * eta
    on_x = np.abs(dx) >= np.abs(dy)
    xi = -np.where(on_x, ax0 + ax2 * eta, ay0 + ay2 * eta) / np.where(on_x, dx, dy)
    return xi, eta


# --- load vector ------------------------------------------------------------


def accumulate(nodes, values, n_nodes: int) -> np.ndarray:
    """Global load vector: sum each value into its node.

    nodes and values have the same shape (any); the result is a float64
    vector of length n_nodes, zero where no value lands.
    """
    b = np.bincount(nodes.ravel(), weights=values.ravel(), minlength=n_nodes)
    # bincount returns int64 when the weights are empty
    return b.astype(np.float64, copy=False)


# --- quadrature rules -------------------------------------------------------


class QuadratureRule:
    """Quadrature points and weights on a fixed reference domain."""

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)

    def __len__(self):
        return len(self.weights)


def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1], exact to degree 2n-1.

    Nodes are computed at runtime by Newton iteration on the three-term
    Legendre recurrence, started from the Chebyshev-angle approximation of
    the roots; this supports arbitrary order without stored tables.
    """
    if not 1 <= n <= 30:
        raise ValueError(f"Gauss order must be in 1..30, got {n}")
    k = np.arange(n)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    if n == 1:
        return QuadratureRule(np.zeros(1), np.full(1, 2.0))
    for _ in range(100):
        p1, dp = _legendre(n, x)
        dx = p1 / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return QuadratureRule(x[::-1].copy(), w[::-1].copy())


def _legendre(n, x):
    """Legendre polynomial P_n and its derivative at x (recurrence)."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


def tensor_product_rule(n: int) -> QuadratureRule:
    """n x n tensor Gauss rule on [-1, 1]^2; weights sum to 4."""
    rule = gauss_legendre(n)
    xi, eta = np.meshgrid(rule.points, rule.points, indexing="xy")
    w = np.outer(rule.weights, rule.weights)
    points = np.column_stack([xi.ravel(), eta.ravel()])
    return QuadratureRule(points, w.ravel())


def triangle_rule() -> QuadratureRule:
    """Symmetric 6-point, degree-4 triangle rule in barycentric coordinates.

    Two three-point orbits; weights are normalized to sum to 1, so a
    physical integral over a triangle T is |T| * sum(w_q * f(x_q)).
    Orbit parameters are the closed-form roots of the degree-4 moment
    conditions, exact to double precision.
    """
    s10 = np.sqrt(10.0)
    r = np.sqrt(38.0 - 44.0 * np.sqrt(2.0 / 5.0))
    b1 = (8.0 - s10 + r) / 18.0
    b2 = (8.0 - s10 - r) / 18.0
    sw = np.sqrt(213125.0 - 53320.0 * s10)
    w1 = (620.0 + sw) / 3720.0
    w2 = (620.0 - sw) / 3720.0
    points = []
    weights = []
    for b, w in ((b1, w1), (b2, w2)):
        a = 1.0 - 2.0 * b
        points += [(a, b, b), (b, a, b), (b, b, a)]
        weights += [w, w, w]
    return QuadratureRule(np.array(points), np.array(weights))


# --- QM1 text format: node rows "x y", then element rows "i0 i1 i2 i3" (0-based, CCW)


def write_qm1(path, mesh: QuadMesh) -> None:
    write_blocks(path, "QM 1", (mesh.n_nodes, mesh.n_elements), (mesh.nodes, mesh.elements))


def read_qm1(path) -> QuadMesh:
    nodes, elements = read_blocks(path, "QM 1", lambda n_nodes, n_elems: (
        (n_nodes, 2, float), (n_elems, 4, np.int64)))
    try:
        return QuadMesh(nodes, elements)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid mesh ({exc})") from exc
