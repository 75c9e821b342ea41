"""Right-hand-side assembly by per-element Gauss quadrature.

The pipeline is staged: tensor Gauss points are generated for all elements
at once, the field is reconstructed at every point in a single batched
call, and the weighted shape-function contributions are accumulated into
the global vector. Assembly is bitwise reproducible.
"""

from __future__ import annotations

import numpy as np

from ._textio import read_blocks, write_blocks
from .errors import DomainError
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
    det = jacobian_all(mesh, rule.points)         # (Ne, nq)
    phys = forward_map(mesh, None, rule.points)   # (Ne, nq, 2)
    try:
        f = evaluate(phys.reshape(-1, 2)).reshape(len(mesh.elements), len(rule))
    except DomainError as exc:
        raise DomainError(f"mesh quadrature point outside grid domain: {exc}") from exc
    contrib = rule.weights[None, :] * f * det     # (Ne, nq)
    return accumulate(mesh.elements, contrib @ N, mesh.n_nodes)


# --- RHS text format: one value per row


def write_rhs(path, b) -> None:
    write_blocks(path, "RHS 1", (np.size(b),), (np.asarray(b, dtype=float).reshape(-1, 1),))


def read_rhs(path) -> np.ndarray:
    return read_blocks(path, "RHS 1", lambda n_nodes: ((n_nodes, 1, float),))[0][:, 0]
