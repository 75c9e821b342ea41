"""Right-hand-side assembly by per-element Gauss quadrature.

The pipeline is staged: tensor Gauss points are generated for all elements
at once, the field is reconstructed at every point in a single batched
call, and the weighted shape-function contributions are accumulated into
the global vector. Assembly is bitwise reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, FormatError
from .fem import (QuadMesh, accumulate, forward_map, jacobian_all, shape_functions,
                  tensor_product_rule)
from .interp import Interpolator


def assemble_quadrature(mesh: QuadMesh, interp: Interpolator, n_gauss: int) -> np.ndarray:
    """Load vector b_i = sum_e sum_q w_q N_i(xi_q) f(x_q) det J(xi_q)
    with f reconstructed from the grid field.

    The mesh must lie inside the interpolator's grid domain.
    """
    return _assemble(mesh, interp.evaluate, n_gauss)


def assemble_quadrature_analytic(mesh: QuadMesh, func, n_gauss: int) -> np.ndarray:
    """Same quadrature assembly with f evaluated analytically (no
    interpolation); func(x, y) must accept arrays."""
    return _assemble(mesh, lambda pts: func(pts[:, 0], pts[:, 1]), n_gauss)


def _assemble(mesh, evaluate, n_gauss):
    if n_gauss < 1:
        raise ValueError("n_gauss must be >= 1")
    rule = tensor_product_rule(n_gauss)
    N, _, _ = shape_functions(rule.points)        # (nq, 4)
    _, det = jacobian_all(mesh, rule.points)      # (Ne, nq)
    phys = forward_map(mesh, None, rule.points)   # (Ne, nq, 2)
    try:
        f = evaluate(phys.reshape(-1, 2)).reshape(len(mesh.elements), len(rule))
    except DomainError as exc:
        raise DomainError(f"mesh quadrature point outside grid domain: {exc}") from exc
    contrib = rule.weights[None, :] * f * det     # (Ne, nq)
    return accumulate(mesh.elements, contrib @ N, mesh.n_nodes)


# --- RHS text format --------------------------------------------------------
#
# line 1: "RHS 1"
# line 2: n_nodes
# then one value per line


def write_rhs(path, b) -> None:
    b = np.asarray(b, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("RHS 1\n")
        fh.write(f"{b.size}\n")
        for v in b:
            fh.write(f"{v:.17g}\n")


def read_rhs(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if header[:2] != ["RHS", "1"]:
            raise FormatError(f"{path}: expected 'RHS 1' header, got {header!r}")
        try:
            n = int(fh.readline())
            vals = np.array([float(fh.readline()) for _ in range(n)])
        except ValueError as exc:
            raise FormatError(f"{path}: malformed RHS content ({exc})") from exc
    return vals
