"""Conservative transfer of structured-grid scalar fields onto
quadrilateral finite-element meshes.

Two assembly paths produce the FEM load vector b_i = integral of
N_i(x) f(x): high-order Gauss quadrature with B-spline/Lagrange field
reconstruction, and integral-preserving cut-cell supermesh integration.
A trapezoidal rule on the grid serves as the conservation reference.
"""

from ._kernels import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from .assemble import (assemble_quadrature, assemble_quadrature_analytic,
                       read_rhs, write_rhs)
from .errors import (ConvergenceError, DomainError, FieldTransferError,
                     FormatError, SingularMapError)
from .fem import (QuadMesh, QuadratureRule, forward_map, gauss_legendre,
                  inverse_map, read_qm1, rect_mesh, shape_functions,
                  tensor_product_rule, triangle_rule, write_qm1)
from .grid import (ScalarField, StructuredGrid, read_fdf, sample_field,
                   trapezoid_integral, trapezoid_weights, write_fdf)
from .interp import (Interpolator, bspline_interpolator, lagrange_interpolator,
                     make_interpolator)
from .supermesh import SupermeshCache, assemble_supermesh, build_supermesh

__version__ = "0.1.0"

__all__ = [
    "KERNEL_IMPLEMENTATION",
    "ConvergenceError", "DomainError", "FieldTransferError", "FormatError",
    "SingularMapError",
    "StructuredGrid", "ScalarField", "sample_field",
    "trapezoid_weights", "trapezoid_integral", "read_fdf", "write_fdf",
    "Interpolator", "bspline_interpolator", "lagrange_interpolator",
    "make_interpolator",
    "QuadMesh", "QuadratureRule", "rect_mesh", "shape_functions",
    "forward_map", "inverse_map", "gauss_legendre",
    "tensor_product_rule", "triangle_rule", "read_qm1", "write_qm1",
    "assemble_quadrature", "assemble_quadrature_analytic",
    "read_rhs", "write_rhs",
    "SupermeshCache", "build_supermesh", "assemble_supermesh",
    "__version__",
]
