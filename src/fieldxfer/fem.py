"""Quadrilateral FEM mesh, bilinear Q4 isoparametric mapping, batched
Newton inversion of the mapping, and quadrature rules.

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
    """
    ref_points = np.asarray(ref_points, dtype=float)
    xi = ref_points[..., 0:1]
    eta = ref_points[..., 1:2]
    N = 0.25 * (1.0 + _XI_SIGNS * xi) * (1.0 + _ETA_SIGNS * eta)
    dN_dxi = 0.25 * _XI_SIGNS * (1.0 + _ETA_SIGNS * eta)
    dN_deta = 0.25 * _ETA_SIGNS * (1.0 + _XI_SIGNS * xi)
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


def inverse_map(mesh: QuadMesh, e: int, points, tol: float = NEWTON_TOL,
                max_iter: int = NEWTON_MAX_ITER) -> np.ndarray:
    """Reference coordinates of physical points inside element e.

    Batched Newton iteration with the explicit 2x2 Jacobian inverse;
    converged when the residual inf-norm drops below tol. Raises
    :class:`ConvergenceError` (with point index and final residual) on
    failure, :class:`SingularMapError` when |det J| underflows.
    """
    coords = mesh.element_coords(e)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    xn = np.broadcast_to(coords[:, 0], (len(points), 4))
    yn = np.broadcast_to(coords[:, 1], (len(points), 4))
    return newton_inverse_batch(xn, yn, points, tol=tol, max_iter=max_iter)


def newton_inverse_batch(corner_x, corner_y, points, tol: float = NEWTON_TOL,
                         max_iter: int = NEWTON_MAX_ITER) -> np.ndarray:
    """Vectorized Newton inversion, one independent element per point.

    corner_x, corner_y: (n, 4) corner coordinates; points: (n, 2) targets.
    All points iterate simultaneously from the element center (0, 0); every
    update solves its own 2x2 system through the explicit determinant
    formula. The bilinear map is evaluated in its monomial form
    X = a0 + a1 xi + a2 eta + a3 xi eta (the four corner sums are folded
    into per-point coefficients once), so each iteration runs on flat
    arrays.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    if n == 0:
        return np.zeros((0, 2))
    corner_x = np.asarray(corner_x, dtype=float)
    corner_y = np.asarray(corner_y, dtype=float)
    mixed = _XI_SIGNS * _ETA_SIGNS
    ax0 = 0.25 * (corner_x @ np.ones(4)) - points[:, 0]
    ax1 = 0.25 * (corner_x @ _XI_SIGNS)
    ax2 = 0.25 * (corner_x @ _ETA_SIGNS)
    ax3 = 0.25 * (corner_x @ mixed)
    ay0 = 0.25 * (corner_y @ np.ones(4)) - points[:, 1]
    ay1 = 0.25 * (corner_y @ _XI_SIGNS)
    ay2 = 0.25 * (corner_y @ _ETA_SIGNS)
    ay3 = 0.25 * (corner_y @ mixed)
    xi = np.zeros(n)
    eta = np.zeros(n)
    residual = np.empty(n)

    def _residual():
        cross = xi * eta
        fx = ax0 + ax1 * xi + ax2 * eta + ax3 * cross
        fy = ay0 + ay1 * xi + ay2 * eta + ay3 * cross
        np.maximum(np.abs(fx), np.abs(fy), out=residual)
        return fx, fy

    for _ in range(max_iter):
        fx, fy = _residual()
        done = residual.max() < tol
        j11 = ax1 + ax3 * eta
        j12 = ax2 + ax3 * xi
        j21 = ay1 + ay3 * eta
        j22 = ay2 + ay3 * xi
        det = j11 * j22 - j12 * j21
        small = np.abs(det) < _SINGULAR_DET
        if np.any(small):
            k = int(np.argmax(small))
            raise SingularMapError(
                f"singular mapping Jacobian at point {k} (|det J| < {_SINGULAR_DET:g})")
        # the update doubles as a polish step once the residual gate is
        # passed, so returned coordinates are quadratically sharper than tol
        xi -= (j22 * fx - j12 * fy) / det
        eta -= (j11 * fy - j21 * fx) / det
        if done:
            return np.column_stack([xi, eta])
    _residual()
    if residual.max() < tol:
        return np.column_stack([xi, eta])
    k = int(np.argmax(residual))
    raise ConvergenceError(
        f"inverse mapping did not converge for point {k} "
        f"(residual {residual[k]:.3e} after {max_iter} iterations)",
        point_index=k, residual=float(residual[k]))


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
